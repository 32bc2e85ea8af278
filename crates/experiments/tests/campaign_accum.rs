//! Property tests for [`CampaignAccumulator`] over **real** campaign
//! output: merge is associative and commutative with `new()` as the
//! identity, any sharding of the materialized runs folds to the same
//! accumulator, and the streaming sharded engine reproduces the
//! materialized aggregate bit for bit at arbitrary shard sizes.
//!
//! The campaign is simulated once (`OnceLock`) and the properties
//! exercise the algebra over its `(TreeRun, RunResult)` pairs, so 256
//! cases stay cheap; only the streaming property re-runs simulations
//! and therefore caps its case count.

use bc_engine::RunResult;
use bc_engine::SimConfig;
use bc_experiments::campaign::{
    accumulate_materialized, run_campaign_streaming, run_variants_with, CampaignAccumulator,
    CampaignConfig, TreeRun,
};
use bc_metrics::OnsetConfig;
use bc_platform::RandomTreeConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn campaign() -> CampaignConfig {
    CampaignConfig {
        trees: 18,
        tasks: 400,
        seed: 2003,
        tree_config: RandomTreeConfig {
            min_nodes: 5,
            max_nodes: 40,
            comm_min: 1,
            comm_max: 15,
            compute_scale: 200,
        },
        // ≤400-task runs need a window the size of the run to ever
        // detect onset (the 10k-task default window of 300 would not).
        onset: OnsetConfig {
            window_threshold: 100,
            crossings: 2,
        },
    }
}

/// The materialized campaign, simulated exactly once for all properties.
fn materialized() -> &'static [(TreeRun, RunResult)] {
    static RUNS: OnceLock<Vec<(TreeRun, RunResult)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let ic3 = [SimConfig::interruptible(3, campaign().tasks)];
        run_variants_with(&campaign(), &ic3, |run, result| (run, result)).remove(0)
    })
}

fn fold_all(pairs: &[(TreeRun, RunResult)]) -> CampaignAccumulator {
    let mut acc = CampaignAccumulator::new();
    for (run, result) in pairs {
        acc.fold_summary(run, result);
    }
    acc
}

proptest! {
    /// Any two cut points shard the campaign into three accumulators
    /// that merge back to the sequential fold regardless of association
    /// or order.
    #[test]
    fn merge_is_associative_and_commutative(cut_a in 0usize..19, cut_b in 0usize..19) {
        let runs = materialized();
        let whole = accumulate_materialized(runs);
        let (i, j) = (cut_a.min(cut_b), cut_a.max(cut_b));
        let shards = [&runs[..i], &runs[i..j], &runs[j..]].map(fold_all);

        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        prop_assert_eq!(&left, &whole);

        let mut tail = shards[1].clone();
        tail.merge(&shards[2]);
        let mut right = shards[0].clone();
        right.merge(&tail);
        prop_assert_eq!(&right, &whole, "merge must be associative");

        let mut rev = shards[2].clone();
        rev.merge(&shards[1]);
        rev.merge(&shards[0]);
        prop_assert_eq!(&rev, &whole, "merge must be commutative");
    }

    /// `new()` is the merge identity on both sides, anywhere in a chain.
    #[test]
    fn identity_can_be_inserted_anywhere(cut in 0usize..19) {
        let runs = materialized();
        let whole = accumulate_materialized(runs);
        let (a, b) = runs.split_at(cut.min(runs.len()));

        let mut acc = CampaignAccumulator::new();
        acc.merge(&fold_all(a));
        acc.merge(&CampaignAccumulator::new());
        acc.merge(&fold_all(b));
        prop_assert_eq!(&acc, &whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streaming sharded engine is bit-identical to folding the
    /// materialized campaign, at arbitrary shard sizes (including
    /// degenerate size 1 and sizes past the tree count).
    #[test]
    fn streaming_matches_materialized_at_arbitrary_shard_size(shard_size in 1usize..25) {
        let c = campaign();
        let reference = accumulate_materialized(materialized());
        let streamed = run_campaign_streaming(&c, shard_size, |t| SimConfig::interruptible(3, t));
        prop_assert_eq!(&streamed, &reference);
    }
}
