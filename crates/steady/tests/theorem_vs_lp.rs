//! Property test: the Theorem 1 closed form and the LP oracle must agree
//! on randomly generated trees — the central correctness argument for the
//! analytic layer.

use bc_platform::{RandomTreeConfig, Tree};
use bc_rational::Rational;
use bc_steady::{lp_optimal_rate, solve_fork, ForkChild, SteadyState};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-level forks: closed form == LP.
    #[test]
    fn fork_matches_lp(
        w0 in 1u64..30,
        children in prop::collection::vec((1u64..15, 1u64..30), 0..6),
    ) {
        let mut tree = Tree::new(w0);
        for &(c, w) in &children {
            tree.add_child(bc_platform::NodeId::ROOT, c, w);
        }
        let fork_children: Vec<ForkChild> = children
            .iter()
            .map(|&(c, w)| ForkChild {
                comm: Rational::from_integer(c as i128),
                // For a single-level fork the child subtree weight is
                // max(c, w): the child cannot consume faster than it
                // receives even with the link to itself dedicated.
                weight: Rational::from_integer(c.max(w) as i128),
            })
            .collect();
        let sol = solve_fork(None, &Rational::from_integer(w0 as i128), &fork_children);
        prop_assert_eq!(sol.rate(), lp_optimal_rate(&tree));
    }

    /// Random multi-level trees: bottom-up recursion == LP.
    #[test]
    fn tree_matches_lp(seed in 0u64..10_000) {
        let cfg = RandomTreeConfig {
            min_nodes: 2,
            max_nodes: 14,
            comm_min: 1,
            comm_max: 12,
            compute_scale: 40,
        };
        let tree = cfg.generate(seed);
        let cf = SteadyState::analyze(&tree).optimal_rate();
        let lp = lp_optimal_rate(&tree);
        prop_assert_eq!(cf, lp);
    }

    /// Extreme ratio classes (very cheap or very expensive computation)
    /// must also agree.
    #[test]
    fn tree_matches_lp_extreme_ratios(seed in 0u64..2_000, fast in any::<bool>()) {
        let cfg = RandomTreeConfig {
            min_nodes: 2,
            max_nodes: 10,
            comm_min: 1,
            comm_max: if fast { 3 } else { 60 },
            compute_scale: if fast { 500 } else { 2 },
        };
        let tree = cfg.generate(seed);
        prop_assert_eq!(
            SteadyState::analyze(&tree).optimal_rate(),
            lp_optimal_rate(&tree)
        );
    }

    /// The total of the top-down allocation always equals the LP optimum —
    /// i.e. the allocation is not merely feasible but optimal.
    #[test]
    fn allocation_total_is_lp_optimal(seed in 0u64..3_000) {
        let cfg = RandomTreeConfig {
            min_nodes: 2,
            max_nodes: 10,
            comm_min: 1,
            comm_max: 10,
            compute_scale: 25,
        };
        let tree = cfg.generate(seed);
        let alloc = SteadyState::analyze(&tree).allocate(&tree);
        prop_assert_eq!(alloc.total_rate(), lp_optimal_rate(&tree));
    }
}
