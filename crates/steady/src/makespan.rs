//! Makespan lower bound for finite applications.
//!
//! §2.1: *"we can create a schedule that can process a fixed number of
//! tasks within an additive constant of the optimal schedule"* — the
//! steady-state rate governs the makespan up to startup/wind-down terms.
//! `n` tasks cannot finish before `⌈n · w_tree⌉` (rate optimality), nor
//! before the root's first task could possibly complete; the bound is
//! asserted against simulated makespans in the test suite.

use crate::analysis::SteadyState;
use bc_platform::Tree;
use bc_rational::Rational;

/// The rate-based lower bound on completing `n` tasks: no schedule
/// finishes `n` tasks before this timestep.
pub fn makespan_lower_bound(tree: &Tree, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let w_tree = SteadyState::analyze(tree).tree_weight().clone();
    let rate_bound = Rational::from_integer(n as i128)
        .mul_ref(&w_tree)
        .ceil()
        .to_i128()
        .expect("task counts and weights are machine-sized") as u64;
    // Nothing can complete before the fastest single task completes: the
    // minimum over nodes of (path communication + compute).
    let mut first_task = u64::MAX;
    for id in tree.ids() {
        let mut path = tree.compute_time(id);
        let mut cur = id;
        while let Some(p) = tree.parent(cur) {
            path += tree.comm_time(cur);
            cur = p;
        }
        first_task = first_task.min(path);
    }
    rate_bound.max(first_task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_platform::examples::fig1_tree;

    #[test]
    fn zero_tasks() {
        assert_eq!(makespan_lower_bound(&fig1_tree(), 0), 0);
    }

    #[test]
    fn single_node_bounds_are_tight() {
        let t = Tree::new(7);
        assert_eq!(makespan_lower_bound(&t, 10), 70);
    }

    #[test]
    fn first_task_term_dominates_small_n() {
        // One task on the Fig 1 tree: the rate bound (⌈45/49⌉ = 1) is far
        // below the physical minimum of completing any single task.
        let t = fig1_tree();
        let lb = makespan_lower_bound(&t, 1);
        // Fastest single task: root computes one itself in w0 = 5? No —
        // P1 path: c=1 + w=3 = 4 < 5.
        assert_eq!(lb, 4);
    }

    #[test]
    fn rate_term_dominates_large_n() {
        let t = fig1_tree();
        // 980 · 45/49 = 900 exactly.
        assert_eq!(makespan_lower_bound(&t, 980), 900);
    }
}
