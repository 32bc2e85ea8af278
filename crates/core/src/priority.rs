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
//!
//! Each policy's order is written once, in [`ChildSelector::priority`].
//! Selection ([`ChildSelector::selection_key`]), the interruptible link's
//! choice of slot and its preemption test ([`ChildSelector::outranks`])
//! all read that key; the caller scans its children once and keeps the
//! smallest.

/// A child's place in its parent's priority order: smaller ranks first.
/// The second component is the child's stable index in the parent's
/// child list, so ties break toward the lowest index and decisions are
/// deterministic.
pub type Priority = (u64, usize);

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

    /// The static priority of the child at `index`, from what the parent
    /// measures locally (§3): `comm`, the estimated time to communicate
    /// one task to it, and `compute`, its estimated time per task (read
    /// only by the compute-centric baseline; the bandwidth-centric policy
    /// deliberately ignores it).
    #[inline(always)]
    pub fn priority(&self, index: usize, comm: u64, compute: u64) -> Priority {
        match self {
            ChildSelector::BandwidthCentric => (comm, index),
            ChildSelector::ComputeCentric => (compute, index),
            ChildSelector::RoundRobin { .. } => (0, index),
        }
    }

    /// The selection order over children that have an outstanding request
    /// and room to receive: the one with the smallest key gets the next
    /// task. It is [`Self::priority`], except that round-robin ranks the
    /// children after its cursor first. Report the choice to
    /// [`Self::picked`].
    #[inline(always)]
    pub fn selection_key(&self, index: usize, comm: u64, compute: u64) -> (bool, Priority) {
        let wrapped = matches!(*self, ChildSelector::RoundRobin { cursor } if index <= cursor);
        (wrapped, self.priority(index, comm, compute))
    }

    /// Records that the child at `index` was selected: round-robin
    /// resumes after it.
    #[inline(always)]
    pub fn picked(&mut self, index: usize) {
        if let ChildSelector::RoundRobin { cursor } = self {
            *cursor = index;
        }
    }

    /// True if priority `a` strictly outranks `b` — the preemption test
    /// for interruptible communication (§3.2: "a request from a higher
    /// priority child may interrupt a communication to a lower priority
    /// child"). Round-robin defines no static priority, so it never
    /// preempts.
    #[inline(always)]
    pub fn outranks(&self, a: Priority, b: Priority) -> bool {
        !matches!(self, ChildSelector::RoundRobin { .. }) && a < b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One child as a parent sees it: `(index, comm, compute)`.
    type Child = (usize, u64, u64);

    fn ci(index: usize, comm: u64, compute: u64) -> Child {
        (index, comm, compute)
    }

    /// Selection as the engine makes it: one pass keeping the smallest
    /// selection key, then the cursor advance.
    fn select(s: &mut ChildSelector, candidates: &[Child]) -> Option<usize> {
        let chosen = candidates
            .iter()
            .min_by_key(|&&(i, c, w)| s.selection_key(i, c, w))
            .map(|c| c.0);
        if let Some(ix) = chosen {
            s.picked(ix);
        }
        chosen
    }

    /// The highest-priority child: the interruptible link's slot choice.
    fn best(s: &ChildSelector, candidates: &[Child]) -> Option<usize> {
        candidates
            .iter()
            .min_by_key(|&&(i, c, w)| s.priority(i, c, w))
            .map(|c| c.0)
    }

    /// Sort-based reference: the full priority ranking of `candidates`,
    /// best first, written from each policy's rule rather than from
    /// [`ChildSelector::priority`].
    fn rank(s: &ChildSelector, candidates: &[Child]) -> Vec<usize> {
        let mut v = candidates.to_vec();
        match s {
            ChildSelector::BandwidthCentric => v.sort_by_key(|&(i, c, _)| (c, i)),
            ChildSelector::ComputeCentric => v.sort_by_key(|&(i, _, w)| (w, i)),
            ChildSelector::RoundRobin { .. } => v.sort_by_key(|&(i, _, _)| i),
        }
        v.into_iter().map(|c| c.0).collect()
    }

    fn prio(s: &ChildSelector, c: Child) -> Priority {
        s.priority(c.0, c.1, c.2)
    }

    #[test]
    fn bandwidth_centric_ignores_compute_speed() {
        let mut s = ChildSelector::BandwidthCentric;
        // Child 1 computes 100× faster but has the slower link.
        let picked = select(&mut s, &[ci(0, 2, 1000), ci(1, 7, 10)]);
        assert_eq!(picked, Some(0));
    }

    #[test]
    fn compute_centric_is_the_opposite() {
        let mut s = ChildSelector::ComputeCentric;
        let picked = select(&mut s, &[ci(0, 2, 1000), ci(1, 7, 10)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(select(&mut ChildSelector::BandwidthCentric, &[]), None);
        let mut rr = ChildSelector::round_robin();
        assert_eq!(select(&mut rr, &[]), None);
        assert_eq!(rr, ChildSelector::round_robin(), "no pick, no cursor move");
    }

    #[test]
    fn ties_break_by_index() {
        let mut s = ChildSelector::BandwidthCentric;
        assert_eq!(select(&mut s, &[ci(3, 5, 1), ci(1, 5, 9)]), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = ChildSelector::round_robin();
        let all = [ci(0, 1, 1), ci(1, 1, 1), ci(2, 1, 1)];
        assert_eq!(select(&mut s, &all), Some(0));
        assert_eq!(select(&mut s, &all), Some(1));
        assert_eq!(select(&mut s, &all), Some(2));
        assert_eq!(select(&mut s, &all), Some(0));
    }

    #[test]
    fn round_robin_skips_missing_candidates() {
        let mut s = ChildSelector::round_robin();
        assert_eq!(select(&mut s, &[ci(0, 1, 1), ci(2, 1, 1)]), Some(0));
        // Child 1 absent: jumps to 2.
        assert_eq!(select(&mut s, &[ci(2, 1, 1)]), Some(2));
        // Wraps.
        assert_eq!(select(&mut s, &[ci(0, 1, 1), ci(2, 1, 1)]), Some(0));
    }

    #[test]
    fn outranks_matches_selection_order() {
        let s = ChildSelector::BandwidthCentric;
        assert!(s.outranks(prio(&s, ci(1, 2, 9)), prio(&s, ci(0, 5, 1))));
        assert!(!s.outranks(prio(&s, ci(0, 5, 1)), prio(&s, ci(1, 2, 9))));
        // Equal comm: lower index outranks.
        assert!(s.outranks(prio(&s, ci(0, 5, 1)), prio(&s, ci(1, 5, 1))));
    }

    #[test]
    fn round_robin_never_preempts() {
        let s = ChildSelector::round_robin();
        assert!(!s.outranks(prio(&s, ci(0, 1, 1)), prio(&s, ci(1, 100, 100))));
    }

    #[test]
    fn rank_orders_best_first() {
        let s = ChildSelector::BandwidthCentric;
        let order = rank(&s, &[ci(0, 9, 1), ci(1, 3, 1), ci(2, 6, 1)]);
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
            assert_eq!(best(&s, &cands), rank(&s, &cands).first().copied());
            assert_eq!(best(&s, &[]), None);
        }
    }

    #[test]
    fn changed_estimates_change_selection() {
        // Adaptation: the same selector re-queried with new measurements
        // flips its choice (the mechanism behind §4.2.3).
        let mut s = ChildSelector::BandwidthCentric;
        assert_eq!(select(&mut s, &[ci(0, 1, 3), ci(1, 3, 5)]), Some(0));
        // c_0 degrades from 1 to 9.
        assert_eq!(select(&mut s, &[ci(0, 9, 3), ci(1, 3, 5)]), Some(1));
    }

    /// A random row: 1–12 children with tie-prone estimates, each with an
    /// eligibility bit, plus a round-robin cursor (`usize::MAX` included).
    fn arb_row() -> impl Strategy<Value = (Vec<(u64, u64, bool)>, usize)> {
        (
            prop::collection::vec((1u64..4, 1u64..4, any::<bool>()), 1..=12),
            (any::<bool>(), 0usize..14),
        )
            .prop_map(|(row, (fresh, c))| (row, if fresh { usize::MAX } else { c }))
    }

    proptest! {
        /// The key-based pick equals the head of the sort-based ranking
        /// over the eligible children, round-robin follows its cursor, and
        /// `outranks` agrees with the ranking (never under round-robin).
        #[test]
        fn key_agrees_with_sorted_reference(case in arb_row()) {
            let (row, cursor) = case;
            let eligible: Vec<Child> = row
                .iter()
                .enumerate()
                .filter(|(_, c)| c.2)
                .map(|(i, c)| ci(i, c.0, c.1))
                .collect();
            let all: Vec<Child> = row.iter().enumerate().map(|(i, c)| ci(i, c.0, c.1)).collect();
            for s in [
                ChildSelector::BandwidthCentric,
                ChildSelector::ComputeCentric,
                ChildSelector::RoundRobin { cursor },
            ] {
                let reference = rank(&s, &eligible);
                prop_assert_eq!(best(&s, &eligible), reference.first().copied());
                let mut picker = s.clone();
                let picked = select(&mut picker, &eligible);
                match s {
                    ChildSelector::RoundRobin { .. } => {
                        let after = eligible.iter().map(|c| c.0).filter(|&i| i > cursor).min();
                        prop_assert_eq!(picked, after.or(reference.first().copied()));
                        let moved = picked.map_or(s.clone(), |ix| ChildSelector::RoundRobin { cursor: ix });
                        prop_assert_eq!(picker, moved);
                    }
                    _ => {
                        prop_assert_eq!(picked, reference.first().copied());
                        prop_assert_eq!(picker, s.clone());
                    }
                }
                let order = rank(&s, &all);
                for &a in &all {
                    for &b in &all {
                        let pos = |c: Child| order.iter().position(|&i| i == c.0);
                        let expected =
                            !matches!(s, ChildSelector::RoundRobin { .. }) && pos(a) < pos(b);
                        prop_assert_eq!(s.outranks(prio(&s, a), prio(&s, b)), expected);
                    }
                }
            }
        }
    }
}
