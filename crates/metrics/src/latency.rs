//! Per-task latency distributions for the open-world service mode.
//!
//! A closed batch has no meaningful latency — every task is present at
//! t = 0, so "sojourn" would just restate the completion curve. Under
//! streaming arrivals each unit task has three timestamps: when
//! admission put it in the repository queue, when it left that queue
//! (taken by the root's processor or sent down a link), and when it
//! completed. This module turns those three logs into the classic
//! queueing decomposition
//!
//! ```text
//!   sojourn = queue wait + service
//!   completion[k] − admit[k] = (dispatch[k] − admit[k]) + (completion[k] − dispatch[k])
//! ```
//!
//! matched *by rank*: the engine's unit tasks are interchangeable, so
//! the k-th admitted unit is identified with the k-th dispatched and
//! k-th completed unit (all three logs are naturally sorted). In a
//! fault-free run this FIFO matching is exact; under faults a reissued
//! unit dispatches twice and the rank matching becomes a lower-bound
//! approximation (the engine's `RunResult` docs say the same).
//!
//! Everything here is exact integer/rational arithmetic: summaries keep
//! the sorted sample vector, percentiles are nearest-rank (integers),
//! and means are [`Rational`]s — no float enters until a caller asks
//! for one.

use bc_rational::Rational;

/// An exact summary of one latency sample set (timestep differences).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    /// The samples, sorted ascending.
    samples: Vec<u64>,
    /// Exact sum of all samples (for the exact mean).
    sum: u128,
}

impl LatencySummary {
    /// Builds a summary from raw (unsorted) samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let sum = samples.iter().map(|&s| s as u128).sum();
        LatencySummary { samples, sum }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Exact mean as a rational; `None` when empty.
    pub fn mean(&self) -> Option<Rational> {
        if self.samples.is_empty() {
            return None;
        }
        Some(Rational::new(self.sum as i128, self.samples.len() as i128))
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`); `None` when empty.
    /// Nearest-rank on the exact integer samples, so no interpolation
    /// ever manufactures a latency that never occurred.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.samples.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)])
    }

    /// Median (nearest-rank p50).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Tail latency (nearest-rank p99).
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.last().copied()
    }
}

/// The rank-matched latency decomposition of one open-world run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Admission → completion.
    pub sojourn: LatencySummary,
    /// Admission → dispatch (time in the repository queue).
    pub queue_wait: LatencySummary,
    /// Dispatch → completion (transfer + compute, including any
    /// buffering below the root).
    pub service: LatencySummary,
}

/// Builds the latency decomposition from the three per-unit time logs
/// of a run (`RunResult::arrivals.admit_times`, `.dispatch_times`,
/// `RunResult::completion_times`). Logs may differ in length — under
/// `Drop` nothing is truncated (admitted = completed), but a faulted
/// run re-dispatches units — so every summary is over the first
/// `min(len)` rank-matched units of the logs it needs.
///
/// Differences use `saturating_sub` so a faulted run's approximate
/// matching can never underflow; fault-free the subtraction is exact
/// (rank k completes after it dispatches after it admits).
pub fn latency_profile(admit: &[u64], dispatch: &[u64], completion: &[u64]) -> LatencyProfile {
    let pairwise = |later: &[u64], earlier: &[u64]| {
        let n = later.len().min(earlier.len());
        LatencySummary::from_samples(
            later[..n]
                .iter()
                .zip(&earlier[..n])
                .map(|(&l, &e)| l.saturating_sub(e))
                .collect(),
        )
    };
    LatencyProfile {
        sojourn: pairwise(completion, admit),
        queue_wait: pairwise(dispatch, admit),
        service: pairwise(completion, dispatch),
    }
}

/// Exact per-class throughput: completed units of each class divided by
/// the run's end time (empty when `end_time` is 0, i.e. nothing ran).
pub fn per_class_throughput(completed_per_class: &[u64], end_time: u64) -> Vec<Rational> {
    if end_time == 0 {
        return vec![Rational::zero(); completed_per_class.len()];
    }
    completed_per_class
        .iter()
        .map(|&c| Rational::new(c as i128, end_time as i128))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-computed fixture: three units.
    //   admit      = [2, 5, 9]
    //   dispatch   = [3, 8, 9]
    //   completion = [7, 12, 20]
    // sojourn    = [5, 7, 11]   mean 23/3, p50 7, p99 11
    // queue wait = [1, 3, 0]    mean 4/3,  p50 1, p99 3
    // service    = [4, 4, 11]   mean 19/3, p50 4, p99 11
    #[test]
    fn hand_computed_decomposition() {
        let p = latency_profile(&[2, 5, 9], &[3, 8, 9], &[7, 12, 20]);
        assert_eq!(p.sojourn.samples(), &[5, 7, 11]);
        assert_eq!(p.queue_wait.samples(), &[0, 1, 3]);
        assert_eq!(p.service.samples(), &[4, 4, 11]);
        assert_eq!(p.sojourn.mean(), Some(Rational::new(23, 3)));
        assert_eq!(p.queue_wait.mean(), Some(Rational::new(4, 3)));
        assert_eq!(p.service.mean(), Some(Rational::new(19, 3)));
        assert_eq!(p.sojourn.p50(), Some(7));
        assert_eq!(p.sojourn.p99(), Some(11));
        assert_eq!(p.queue_wait.p50(), Some(1));
        assert_eq!(p.service.min(), Some(4));
        assert_eq!(p.service.max(), Some(11));
        // The decomposition identity holds sample-wise (fault-free):
        // sojourn sums = wait sums + service sums.
        let sum = |s: &LatencySummary| s.samples().iter().sum::<u64>();
        assert_eq!(sum(&p.sojourn), sum(&p.queue_wait) + sum(&p.service));
    }

    #[test]
    fn empty_logs_yield_empty_summaries() {
        let p = latency_profile(&[], &[], &[]);
        assert!(p.sojourn.is_empty());
        assert_eq!(p.sojourn.mean(), None);
        assert_eq!(p.sojourn.p50(), None);
        assert_eq!(p.sojourn.p99(), None);
        assert_eq!(p.sojourn.min(), None);
        assert_eq!(p.sojourn.max(), None);
    }

    #[test]
    fn single_task_summaries_are_that_task() {
        let p = latency_profile(&[4], &[6], &[16]);
        assert_eq!(p.sojourn.count(), 1);
        assert_eq!(p.sojourn.mean(), Some(Rational::new(12, 1)));
        assert_eq!(p.sojourn.p50(), Some(12));
        assert_eq!(p.sojourn.p99(), Some(12));
        assert_eq!(p.queue_wait.samples(), &[2]);
        assert_eq!(p.service.samples(), &[10]);
    }

    #[test]
    fn ragged_logs_match_on_the_common_prefix() {
        // A faulted run: 2 admissions, 3 dispatches (one reissue), 2
        // completions → every summary covers min(len) = 2 ranks.
        let p = latency_profile(&[1, 2], &[1, 3, 9], &[5, 8]);
        assert_eq!(p.sojourn.count(), 2);
        assert_eq!(p.queue_wait.count(), 2);
        assert_eq!(p.service.count(), 2);
        assert_eq!(p.queue_wait.samples(), &[0, 1]);
    }

    #[test]
    fn nearest_rank_percentiles_on_known_grid() {
        // 100 samples 1..=100: p50 = 50, p99 = 99, p100 = 100, p1 = 1.
        let s = LatencySummary::from_samples((1..=100).collect());
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(1.0), Some(1));
        assert_eq!(s.percentile(0.0), Some(1), "p0 clamps to the minimum");
    }

    #[test]
    fn per_class_throughput_is_exact() {
        let th = per_class_throughput(&[30, 12, 0], 120);
        assert_eq!(
            th,
            vec![Rational::new(1, 4), Rational::new(1, 10), Rational::zero()]
        );
        assert_eq!(per_class_throughput(&[5], 0), vec![Rational::zero()]);
        assert!(per_class_throughput(&[], 10).is_empty());
    }
}
