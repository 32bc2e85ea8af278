//! Child-selection policies.
//!
//! The paper's scheduling principle (§2.1): *"Each parent node prioritizes
//! its children according to the time it takes the node to communicate a
//! task to the child. Each parent delegates the next task in its buffers
//! to the highest-priority child that has an empty buffer to receive it."*
//!
//! [`ChildSelector::BandwidthCentric`] implements exactly that. The other
//! variants are baselines used by the ablation benchmarks: prioritizing by
//! *compute* speed (the intuitive-but-wrong heuristic the bandwidth-centric
//! principle corrects) and round-robin (priority-free fair service).

/// What a parent knows about one child when making a scheduling decision —
/// all locally measurable quantities (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChildInfo {
    /// Stable index of the child in the parent's child list.
    pub index: usize,
    /// Estimated time to communicate one task to this child.
    pub comm_estimate: u64,
    /// Estimated time for the child to compute one task (used only by the
    /// compute-centric baseline; the bandwidth-centric policy deliberately
    /// ignores it).
    pub compute_estimate: u64,
}

/// A child-selection policy. Selection is the single decision point of the
/// autonomous protocols: "which requesting child gets the next task".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChildSelector {
    /// The paper's policy: smallest communication time first.
    BandwidthCentric,
    /// Baseline: smallest computation time first (ignores bandwidth).
    ComputeCentric,
    /// Baseline: cyclic fair service, no preemption.
    RoundRobin {
        /// Index after which the scan resumes.
        cursor: usize,
    },
}

impl ChildSelector {
    /// A fresh round-robin selector.
    pub fn round_robin() -> Self {
        ChildSelector::RoundRobin { cursor: usize::MAX }
    }

    /// Picks the next child to serve among `candidates` (children that
    /// have an outstanding request and room to receive). Returns the
    /// chosen child's `index`. Candidates may arrive in any order; ties
    /// break toward the lowest index so decisions are deterministic.
    pub fn select(&mut self, candidates: &[ChildInfo]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            ChildSelector::BandwidthCentric => candidates
                .iter()
                .min_by_key(|c| (c.comm_estimate, c.index))
                .map(|c| c.index),
            ChildSelector::ComputeCentric => candidates
                .iter()
                .min_by_key(|c| (c.compute_estimate, c.index))
                .map(|c| c.index),
            ChildSelector::RoundRobin { cursor } => {
                // Smallest index strictly greater than the cursor, else
                // wrap to the smallest overall.
                let after = candidates
                    .iter()
                    .filter(|c| c.index > *cursor)
                    .min_by_key(|c| c.index);
                let chosen = after
                    .or_else(|| candidates.iter().min_by_key(|c| c.index))
                    .map(|c| c.index);
                if let Some(ix) = chosen {
                    *cursor = ix;
                }
                chosen
            }
        }
    }

    /// True if `a` strictly outranks `b` — the preemption test for
    /// interruptible communication (§3.2: "a request from a higher
    /// priority child may interrupt a communication to a lower priority
    /// child"). Round-robin defines no static priority, so it never
    /// preempts.
    pub fn outranks(&self, a: &ChildInfo, b: &ChildInfo) -> bool {
        match self {
            ChildSelector::BandwidthCentric => {
                (a.comm_estimate, a.index) < (b.comm_estimate, b.index)
            }
            ChildSelector::ComputeCentric => {
                (a.compute_estimate, a.index) < (b.compute_estimate, b.index)
            }
            ChildSelector::RoundRobin { .. } => false,
        }
    }

    /// The highest-priority candidate — `rank(..).first()` without the
    /// allocation. This is the hot-path query of interruptible
    /// communication (every link reconciliation asks it), so it must not
    /// touch the heap.
    pub fn best(&self, candidates: &[ChildInfo]) -> Option<usize> {
        match self {
            ChildSelector::BandwidthCentric => candidates
                .iter()
                .min_by_key(|c| (c.comm_estimate, c.index))
                .map(|c| c.index),
            ChildSelector::ComputeCentric => candidates
                .iter()
                .min_by_key(|c| (c.compute_estimate, c.index))
                .map(|c| c.index),
            ChildSelector::RoundRobin { .. } => candidates.iter().map(|c| c.index).min(),
        }
    }

    /// Full priority ranking of `candidates`, best first. The engine
    /// never calls it: the interruptible link re-asks [`Self::best`]
    /// over the occupied slots instead. It is the sort-based reference
    /// that `best` is tested against.
    pub fn rank(&self, candidates: &[ChildInfo]) -> Vec<usize> {
        let mut v: Vec<&ChildInfo> = candidates.iter().collect();
        match self {
            ChildSelector::BandwidthCentric => {
                v.sort_by_key(|c| (c.comm_estimate, c.index));
            }
            ChildSelector::ComputeCentric => {
                v.sort_by_key(|c| (c.compute_estimate, c.index));
            }
            ChildSelector::RoundRobin { .. } => {
                v.sort_by_key(|c| c.index);
            }
        }
        v.into_iter().map(|c| c.index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(index: usize, comm: u64, compute: u64) -> ChildInfo {
        ChildInfo {
            index,
            comm_estimate: comm,
            compute_estimate: compute,
        }
    }

    #[test]
    fn bandwidth_centric_ignores_compute_speed() {
        let mut s = ChildSelector::BandwidthCentric;
        // Child 1 computes 100× faster but has the slower link.
        let picked = s.select(&[ci(0, 2, 1000), ci(1, 7, 10)]);
        assert_eq!(picked, Some(0));
    }

    #[test]
    fn compute_centric_is_the_opposite() {
        let mut s = ChildSelector::ComputeCentric;
        let picked = s.select(&[ci(0, 2, 1000), ci(1, 7, 10)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(ChildSelector::BandwidthCentric.select(&[]), None);
        assert_eq!(ChildSelector::round_robin().select(&[]), None);
    }

    #[test]
    fn ties_break_by_index() {
        let mut s = ChildSelector::BandwidthCentric;
        assert_eq!(s.select(&[ci(3, 5, 1), ci(1, 5, 9)]), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = ChildSelector::round_robin();
        let all = [ci(0, 1, 1), ci(1, 1, 1), ci(2, 1, 1)];
        assert_eq!(s.select(&all), Some(0));
        assert_eq!(s.select(&all), Some(1));
        assert_eq!(s.select(&all), Some(2));
        assert_eq!(s.select(&all), Some(0));
    }

    #[test]
    fn round_robin_skips_missing_candidates() {
        let mut s = ChildSelector::round_robin();
        assert_eq!(s.select(&[ci(0, 1, 1), ci(2, 1, 1)]), Some(0));
        // Child 1 absent: jumps to 2.
        assert_eq!(s.select(&[ci(2, 1, 1)]), Some(2));
        // Wraps.
        assert_eq!(s.select(&[ci(0, 1, 1), ci(2, 1, 1)]), Some(0));
    }

    #[test]
    fn outranks_matches_selection_order() {
        let s = ChildSelector::BandwidthCentric;
        assert!(s.outranks(&ci(1, 2, 9), &ci(0, 5, 1)));
        assert!(!s.outranks(&ci(0, 5, 1), &ci(1, 2, 9)));
        // Equal comm: lower index outranks.
        assert!(s.outranks(&ci(0, 5, 1), &ci(1, 5, 1)));
    }

    #[test]
    fn round_robin_never_preempts() {
        let s = ChildSelector::round_robin();
        assert!(!s.outranks(&ci(0, 1, 1), &ci(1, 100, 100)));
    }

    #[test]
    fn rank_orders_best_first() {
        let s = ChildSelector::BandwidthCentric;
        let order = s.rank(&[ci(0, 9, 1), ci(1, 3, 1), ci(2, 6, 1)]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn best_matches_rank_head() {
        let cands = [ci(0, 9, 4), ci(1, 3, 8), ci(2, 6, 2), ci(3, 3, 1)];
        for s in [
            ChildSelector::BandwidthCentric,
            ChildSelector::ComputeCentric,
            ChildSelector::round_robin(),
        ] {
            assert_eq!(s.best(&cands), s.rank(&cands).first().copied());
            assert_eq!(s.best(&[]), None);
        }
    }

    #[test]
    fn changed_estimates_change_selection() {
        // Adaptation: the same selector re-queried with new measurements
        // flips its choice (the mechanism behind §4.2.3).
        let mut s = ChildSelector::BandwidthCentric;
        assert_eq!(s.select(&[ci(0, 1, 3), ci(1, 3, 5)]), Some(0));
        // c_0 degrades from 1 to 9.
        assert_eq!(s.select(&[ci(0, 9, 3), ci(1, 3, 5)]), Some(1));
    }
}
