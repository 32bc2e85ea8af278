//! Mergeable run-statistics accumulators for streaming campaigns.
//!
//! A paper-scale sweep (10^5..10^6 trees) must not materialize a
//! `Vec<RunResult>` — at that scale the per-run summaries dominate
//! memory while every consumer only ever wants aggregate statistics.
//! [`RunStatsAccumulator`] folds the scalar facts of a [`RunResult`]
//! into exact integer counters that can be merged across shards.
//!
//! Design contract (relied on by the streaming campaign engine and its
//! determinism tests):
//!
//! * **Exactness** — every field is an integer sum (`u128`, overflow-free
//!   for any feasible campaign), `min`, or `max`. No floating-point
//!   state, so folding is exact.
//! * **Associativity + commutativity** — `merge` is associative and
//!   commutative, and folding runs one by one equals merging any
//!   grouping of sub-accumulators over the same runs. A sharded
//!   campaign therefore produces **bit-identical** aggregates to the
//!   materialized path at any thread count or shard size (shards are
//!   merged in shard order out of discipline, but the algebra does not
//!   even require it).
//! * **Identity** — `RunStatsAccumulator::default()` is the merge
//!   identity.
//!
//! Floating-point derived views (means, rates) are computed at read
//! time from the exact counters, never stored.

use crate::result::RunResult;

/// Exact, mergeable aggregate of many [`RunResult`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStatsAccumulator {
    /// Runs folded in.
    pub runs: u64,
    /// Total tasks completed.
    pub tasks: u128,
    /// Total discrete events processed.
    pub events: u128,
    /// Sum of per-run end times.
    pub end_time_sum: u128,
    /// Smallest per-run end time (`u64::MAX` when empty).
    pub end_time_min: u64,
    /// Largest per-run end time.
    pub end_time_max: u64,
    /// Total transfers preempted.
    pub preemptions: u128,
    /// Total task transfers started.
    pub transfers_started: u128,
    /// Total request messages sent.
    pub requests_sent: u128,
    /// Sum of per-run global max buffer-pool sizes.
    pub max_buffers_sum: u128,
    /// Largest buffer pool seen in any run.
    pub max_buffers_max: u32,
    /// Sum over runs and nodes of processor busy time.
    pub busy_compute_sum: u128,
    /// Sum over runs and nodes of outbound-link busy time.
    pub busy_link_sum: u128,
    /// Total faults injected (0 without a fault plan).
    pub faults_injected: u128,
    /// Total tasks destroyed by faults.
    pub tasks_lost: u128,
    /// Total lost tasks reissued by the repository.
    pub tasks_reissued: u128,
    /// Total request-timeout retries.
    pub retries: u128,
    /// Total crash faults applied.
    pub crashes: u128,
}

impl Default for RunStatsAccumulator {
    fn default() -> Self {
        RunStatsAccumulator {
            runs: 0,
            tasks: 0,
            events: 0,
            end_time_sum: 0,
            end_time_min: u64::MAX,
            end_time_max: 0,
            preemptions: 0,
            transfers_started: 0,
            requests_sent: 0,
            max_buffers_sum: 0,
            max_buffers_max: 0,
            busy_compute_sum: 0,
            busy_link_sum: 0,
            faults_injected: 0,
            tasks_lost: 0,
            tasks_reissued: 0,
            retries: 0,
            crashes: 0,
        }
    }
}

impl RunStatsAccumulator {
    /// The merge identity (an accumulator over zero runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no run has been folded in.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Folds one run's scalar facts in.
    pub fn fold(&mut self, r: &RunResult) {
        self.runs += 1;
        self.tasks += r.tasks_completed() as u128;
        self.events += r.events_processed as u128;
        self.end_time_sum += r.end_time as u128;
        self.end_time_min = self.end_time_min.min(r.end_time);
        self.end_time_max = self.end_time_max.max(r.end_time);
        self.preemptions += r.preemptions as u128;
        self.transfers_started += r.transfers_started as u128;
        self.requests_sent += r.requests_sent as u128;
        let mb = r.max_buffers();
        self.max_buffers_sum += mb as u128;
        self.max_buffers_max = self.max_buffers_max.max(mb);
        self.busy_compute_sum += r
            .busy_compute_per_node
            .iter()
            .map(|&b| b as u128)
            .sum::<u128>();
        self.busy_link_sum += r
            .busy_link_per_node
            .iter()
            .map(|&b| b as u128)
            .sum::<u128>();
        self.faults_injected += r.faults.faults_injected as u128;
        self.tasks_lost += r.faults.tasks_lost as u128;
        self.tasks_reissued += r.faults.tasks_reissued as u128;
        self.retries += r.faults.retries as u128;
        self.crashes += r.faults.crashes as u128;
    }

    /// Merges another accumulator in (exact; associative and
    /// commutative; `default()` is the identity).
    pub fn merge(&mut self, other: &Self) {
        self.runs += other.runs;
        self.tasks += other.tasks;
        self.events += other.events;
        self.end_time_sum += other.end_time_sum;
        self.end_time_min = self.end_time_min.min(other.end_time_min);
        self.end_time_max = self.end_time_max.max(other.end_time_max);
        self.preemptions += other.preemptions;
        self.transfers_started += other.transfers_started;
        self.requests_sent += other.requests_sent;
        self.max_buffers_sum += other.max_buffers_sum;
        self.max_buffers_max = self.max_buffers_max.max(other.max_buffers_max);
        self.busy_compute_sum += other.busy_compute_sum;
        self.busy_link_sum += other.busy_link_sum;
        self.faults_injected += other.faults_injected;
        self.tasks_lost += other.tasks_lost;
        self.tasks_reissued += other.tasks_reissued;
        self.retries += other.retries;
        self.crashes += other.crashes;
    }

    /// Appends the accumulator's canonical fixed-width little-endian
    /// byte form (declaration order) to `out`. Used by the durable
    /// campaign checkpoints; integrity is the container's job
    /// ([`crate::durability`]), so the form carries no checksum of its
    /// own.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.runs.to_le_bytes());
        out.extend_from_slice(&self.tasks.to_le_bytes());
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.end_time_sum.to_le_bytes());
        out.extend_from_slice(&self.end_time_min.to_le_bytes());
        out.extend_from_slice(&self.end_time_max.to_le_bytes());
        out.extend_from_slice(&self.preemptions.to_le_bytes());
        out.extend_from_slice(&self.transfers_started.to_le_bytes());
        out.extend_from_slice(&self.requests_sent.to_le_bytes());
        out.extend_from_slice(&self.max_buffers_sum.to_le_bytes());
        out.extend_from_slice(&self.max_buffers_max.to_le_bytes());
        out.extend_from_slice(&self.busy_compute_sum.to_le_bytes());
        out.extend_from_slice(&self.busy_link_sum.to_le_bytes());
        out.extend_from_slice(&self.faults_injected.to_le_bytes());
        out.extend_from_slice(&self.tasks_lost.to_le_bytes());
        out.extend_from_slice(&self.tasks_reissued.to_le_bytes());
        out.extend_from_slice(&self.retries.to_le_bytes());
        out.extend_from_slice(&self.crashes.to_le_bytes());
    }

    /// Decodes one accumulator from the front of `input`, advancing it
    /// past the consumed bytes. `None` on truncation.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        use crate::durability::{
            take_u128_le as u128le, take_u32_le as u32le, take_u64_le as u64le,
        };
        Some(RunStatsAccumulator {
            runs: u64le(input)?,
            tasks: u128le(input)?,
            events: u128le(input)?,
            end_time_sum: u128le(input)?,
            end_time_min: u64le(input)?,
            end_time_max: u64le(input)?,
            preemptions: u128le(input)?,
            transfers_started: u128le(input)?,
            requests_sent: u128le(input)?,
            max_buffers_sum: u128le(input)?,
            max_buffers_max: u32le(input)?,
            busy_compute_sum: u128le(input)?,
            busy_link_sum: u128le(input)?,
            faults_injected: u128le(input)?,
            tasks_lost: u128le(input)?,
            tasks_reissued: u128le(input)?,
            retries: u128le(input)?,
            crashes: u128le(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::FaultStats;

    fn run(end: u64, events: u64, tasks: usize) -> RunResult {
        RunResult {
            completion_times: (1..=tasks as u64).collect(),
            end_time: end,
            tasks_per_node: vec![tasks as u64, 0],
            max_buffers_per_node: vec![0, (end % 7) as u32],
            final_buffers_per_node: vec![0, 0],
            peak_held_per_node: vec![0, 1],
            busy_compute_per_node: vec![end / 2, end / 3],
            busy_link_per_node: vec![end / 4, 0],
            preemptions_per_node: vec![1, 0],
            checkpoint_max_buffers: Vec::new(),
            events_processed: events,
            preemptions: 1,
            transfers_started: 2,
            requests_sent: 3,
            faults: FaultStats::default(),
            arrivals: crate::result::ArrivalStats::default(),
        }
    }

    #[test]
    fn default_is_merge_identity() {
        let mut acc = RunStatsAccumulator::new();
        acc.fold(&run(10, 100, 4));
        let snapshot = acc.clone();
        acc.merge(&RunStatsAccumulator::default());
        assert_eq!(acc, snapshot);
        let mut id = RunStatsAccumulator::default();
        id.merge(&snapshot);
        assert_eq!(id, snapshot);
    }

    #[test]
    fn fold_equals_any_merge_grouping() {
        let runs: Vec<RunResult> = (1..=9).map(|i| run(i * 10, i * 100, i as usize)).collect();
        let mut whole = RunStatsAccumulator::new();
        for r in &runs {
            whole.fold(r);
        }
        // Split 3/6, merge — and split 6/3 merged the other way round.
        for split in [3usize, 6] {
            let (a, b) = runs.split_at(split);
            let mut left = RunStatsAccumulator::new();
            a.iter().for_each(|r| left.fold(r));
            let mut right = RunStatsAccumulator::new();
            b.iter().for_each(|r| right.fold(r));
            let mut fwd = left.clone();
            fwd.merge(&right);
            assert_eq!(fwd, whole);
            let mut rev = right.clone();
            rev.merge(&left);
            assert_eq!(rev, whole, "merge must be commutative");
        }
    }

    #[test]
    fn codec_roundtrips_and_rejects_truncation() {
        let mut acc = RunStatsAccumulator::new();
        for i in 1..=5u64 {
            acc.fold(&run(i * 7, i * 31, i as usize));
        }
        let mut bytes = Vec::new();
        acc.encode_into(&mut bytes);
        let mut input = bytes.as_slice();
        let decoded = RunStatsAccumulator::decode_from(&mut input).unwrap();
        assert_eq!(decoded, acc);
        assert!(input.is_empty());
        for cut in 0..bytes.len() {
            let mut short = &bytes[..cut];
            assert!(RunStatsAccumulator::decode_from(&mut short).is_none());
        }
    }

    #[test]
    fn min_max_track_extremes() {
        let mut acc = RunStatsAccumulator::new();
        acc.fold(&run(50, 1, 1));
        acc.fold(&run(10, 1, 1));
        acc.fold(&run(90, 1, 1));
        assert_eq!(acc.end_time_min, 10);
        assert_eq!(acc.end_time_max, 90);
        assert_eq!(acc.runs, 3);
    }
}
