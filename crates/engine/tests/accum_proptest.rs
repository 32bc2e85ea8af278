//! Property tests for [`RunStatsAccumulator`]: the algebra the streaming
//! campaign engine leans on. Over arbitrary synthesized [`RunResult`]s,
//! `merge` must be associative and commutative with `default()` as the
//! identity, and folding runs one by one must equal merging **any**
//! sharding of the same runs — the exact property that makes a streamed
//! sharded campaign bit-identical to the materialized path.

use bc_engine::{FaultStats, RunResult, RunStatsAccumulator};
use proptest::prelude::*;

/// Strategy: one arbitrary (but structurally valid) run result. Values
/// are kept within the ranges a real simulation can produce so sums stay
/// far from overflow even across hundreds of folded runs.
fn arb_run() -> impl Strategy<Value = RunResult> {
    (
        (
            0u64..5_000,     // tasks completed
            1u64..1_000_000, // end time
            0u64..2_000_000, // events
            0u64..10_000,    // preemptions
            0u64..50_000,    // transfers started
            0u64..50_000,    // requests sent
        ),
        prop::collection::vec((0u32..200, 0u64..500_000, 0u64..500_000), 1..12),
        (0u64..100, 0u64..100, 0u64..100, 0u64..100, 0u64..100),
    )
        .prop_map(
            |(
                (tasks, end_time, events, preemptions, transfers, requests),
                nodes,
                (faults, lost, reissued, retries, crashes),
            )| {
                let n = nodes.len();
                RunResult {
                    completion_times: (1..=tasks).collect(),
                    end_time,
                    tasks_per_node: vec![0; n],
                    max_buffers_per_node: nodes.iter().map(|&(b, _, _)| b).collect(),
                    final_buffers_per_node: vec![0; n],
                    peak_held_per_node: vec![0; n],
                    busy_compute_per_node: nodes.iter().map(|&(_, c, _)| c).collect(),
                    busy_link_per_node: nodes.iter().map(|&(_, _, l)| l).collect(),
                    preemptions_per_node: vec![0; n],
                    checkpoint_max_buffers: Vec::new(),
                    events_processed: events,
                    preemptions,
                    transfers_started: transfers,
                    requests_sent: requests,
                    faults: FaultStats {
                        faults_injected: faults,
                        tasks_lost: lost,
                        tasks_reissued: reissued,
                        retries,
                        crashes,
                        ..FaultStats::default()
                    },
                    arrivals: bc_engine::ArrivalStats::default(),
                }
            },
        )
}

fn fold_all(runs: &[RunResult]) -> RunStatsAccumulator {
    let mut acc = RunStatsAccumulator::new();
    for r in runs {
        acc.fold(r);
    }
    acc
}

proptest! {
    /// Any sharding of the runs, merged in any order, equals the
    /// one-by-one fold: merge is associative and commutative over
    /// real fold outputs.
    #[test]
    fn any_sharding_merges_to_the_sequential_fold(
        runs in prop::collection::vec(arb_run(), 1..24),
        cut_a in 0usize..24,
        cut_b in 0usize..24,
    ) {
        let whole = fold_all(&runs);
        let (i, j) = {
            let a = cut_a % (runs.len() + 1);
            let b = cut_b % (runs.len() + 1);
            (a.min(b), a.max(b))
        };
        let shards = [&runs[..i], &runs[i..j], &runs[j..]].map(fold_all);

        // Left association: ((s0 · s1) · s2).
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        prop_assert_eq!(&left, &whole);

        // Right association: (s0 · (s1 · s2)).
        let mut tail = shards[1].clone();
        tail.merge(&shards[2]);
        let mut right = shards[0].clone();
        right.merge(&tail);
        prop_assert_eq!(&right, &whole);

        // Reversed shard order (commutativity).
        let mut rev = shards[2].clone();
        rev.merge(&shards[1]);
        rev.merge(&shards[0]);
        prop_assert_eq!(&rev, &whole);
    }

    /// `default()` is the merge identity on both sides.
    #[test]
    fn default_is_identity(runs in prop::collection::vec(arb_run(), 0..12)) {
        let acc = fold_all(&runs);

        let mut left = RunStatsAccumulator::default();
        left.merge(&acc);
        prop_assert_eq!(&left, &acc);

        let mut right = acc.clone();
        right.merge(&RunStatsAccumulator::default());
        prop_assert_eq!(&right, &acc);
    }

    /// The run count and sums a mean is derived from, and the extremes,
    /// agree with a naive recomputation from the runs.
    #[test]
    fn means_match_naive_recomputation(runs in prop::collection::vec(arb_run(), 1..16)) {
        let acc = fold_all(&runs);
        let end_sum: u128 = runs.iter().map(|r| u128::from(r.end_time)).sum();
        let ev_sum: u128 = runs.iter().map(|r| u128::from(r.events_processed)).sum();
        prop_assert_eq!(acc.runs, runs.len() as u64);
        prop_assert_eq!(acc.end_time_sum, end_sum);
        prop_assert_eq!(acc.events, ev_sum);
        prop_assert_eq!(acc.end_time_min, runs.iter().map(|r| r.end_time).min().unwrap());
        prop_assert_eq!(acc.end_time_max, runs.iter().map(|r| r.end_time).max().unwrap());
    }
}
