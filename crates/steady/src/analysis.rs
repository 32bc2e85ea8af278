//! Bottom-up steady-state analysis of a whole tree, and the top-down
//! optimal rate allocation.
//!
//! ## Bottom-up weights
//!
//! Each subtree is reduced to an equivalent single node of weight
//! `w_subtree(i) = max(c_i, 1/(1/w_i + Σ 1/w_subtree(child) + ε/c))` —
//! the Theorem 1 recursion of §2.1. For the root there is no inflow term.
//!
//! Hand-worked example (the Fig 1 reconstruction; pinned by tests):
//!
//! ```text
//! leaves:  P2 = max(1,4) = 4     P3 = max(2,4) = 4
//!          P6 = max(1,4) = 4     P7 = max(1,4) = 4
//! P5: inner = 1/(1/6 + 1/4 + 1/4) = 3/2, w = max(6, 3/2) = 6
//! P4: inner = 1/(1/5 + 1/6) = 30/11,     w = max(3, 30/11) = 3
//! P1: inner = 1/(1/3 + 1/4 + 1/4) = 6/5, w = max(1, 6/5) = 6/5
//! P0: children sorted (P1: c=1 w=6/5, P4: c=3 w=3);
//!     c/w: 5/6 ≤ 1, +1 > 1 ⇒ p = 1, ε = 1/6
//!     w_tree = 1/(1/5 + 5/6 + (1/6)/3) = 45/49
//! ```
//!
//! ## Top-down allocation
//!
//! [`SteadyState::allocate`], run only by callers that read per-node
//! rates: walking down from the root, each node splits its inflow rate:
//! itself first (delegating to the local CPU costs no link time), then
//! children in bandwidth-priority order, each capped by its subtree rate
//! and by the remaining link budget. In the saturated regime this reproduces exactly
//! the theorem's allocation (first `p` children full, child `p+1` at
//! ε/c, the rest starved); in the inflow-bound regime it describes what
//! the bandwidth-centric protocol converges to.

use crate::fork::{bandwidth_order, solve_fork, ForkChild};
use bc_platform::{NodeId, Tree};
use bc_rational::Rational;

/// Bottom-up Theorem 1 analysis of a tree: every subtree weight.
#[derive(Clone, Debug)]
pub struct SteadyState {
    /// `w_subtree(i)` for every node, indexed by arena position.
    subtree_weights: Vec<Rational>,
}

/// The top-down optimal rate allocation of a tree
/// ([`SteadyState::allocate`]).
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Per-node optimal steady compute rates, indexed by arena position.
    node_rates: Vec<Rational>,
}

impl SteadyState {
    /// Analyzes `tree`: one bottom-up pass computing every subtree
    /// weight. The per-node rates are a separate top-down pass,
    /// [`Self::allocate`], run only by callers that read them.
    pub fn analyze(tree: &Tree) -> SteadyState {
        let mut subtree_weights = vec![Rational::zero(); tree.len()];
        let mut children: Vec<ForkChild> = Vec::new();
        for id in tree.postorder() {
            children.clear();
            children.extend(tree.children(id).iter().map(|&ch| ForkChild {
                comm: Rational::from_integer(tree.comm_time(ch) as i128),
                weight: subtree_weights[ch.index()].clone(),
            }));
            let inflow =
                (id != NodeId::ROOT).then(|| Rational::from_integer(tree.comm_time(id) as i128));
            let own = Rational::from_integer(tree.compute_time(id) as i128);
            subtree_weights[id.index()] = solve_fork(inflow.as_ref(), &own, &children).weight;
        }
        SteadyState { subtree_weights }
    }

    /// Allocates the optimal rate top-down over `tree`, the tree this
    /// analysis was computed from.
    pub fn allocate(&self, tree: &Tree) -> Allocation {
        assert_eq!(
            tree.len(),
            self.subtree_weights.len(),
            "allocate needs the analyzed tree"
        );
        let mut node_rates = vec![Rational::zero(); tree.len()];
        let mut stack: Vec<(NodeId, Rational)> = vec![(NodeId::ROOT, self.optimal_rate())];
        while let Some((id, inflow)) = stack.pop() {
            let own = Rational::from_integer(tree.compute_time(id) as i128);
            let self_rate = own.recip().min_ref(&inflow);
            // The budget accumulators update in place — word arithmetic
            // with no allocation while the rates stay in the small tier.
            let mut remaining = inflow;
            remaining.sub_assign_ref(&self_rate);
            node_rates[id.index()] = self_rate;
            let mut link_left = Rational::one();
            let children = tree.children(id);
            for ci in bandwidth_order(children.len(), |i| tree.comm_time(children[i])) {
                let ch = children[ci];
                if remaining.is_zero() || link_left.is_zero() {
                    stack.push((ch, Rational::zero()));
                    continue;
                }
                let c = Rational::from_integer(tree.comm_time(ch) as i128);
                let cap_subtree = self.subtree_weights[ch.index()].recip();
                let cap_link = link_left.div_ref(&c);
                let grant = cap_subtree.min_ref(&remaining).min_ref(&cap_link);
                remaining.sub_assign_ref(&grant);
                link_left.sub_mul_assign_ref(&grant, &c);
                stack.push((ch, grant));
            }
        }
        Allocation { node_rates }
    }

    /// `w_tree`: the computational weight of the whole tree.
    pub fn tree_weight(&self) -> &Rational {
        &self.subtree_weights[0]
    }

    /// The optimal steady-state task completion rate `R = 1 / w_tree`.
    pub fn optimal_rate(&self) -> Rational {
        self.subtree_weights[0].recip()
    }

    /// `w_subtree(id)`.
    pub fn subtree_weight(&self, id: NodeId) -> &Rational {
        &self.subtree_weights[id.index()]
    }
}

impl Allocation {
    /// The node's compute rate in the optimal steady state.
    pub fn node_rate(&self, id: NodeId) -> &Rational {
        &self.node_rates[id.index()]
    }

    /// Nodes with a nonzero optimal compute rate — the theory-side
    /// prediction of Fig 6's "used nodes".
    pub fn used_nodes(&self) -> Vec<bool> {
        self.node_rates.iter().map(|r| r.is_positive()).collect()
    }

    /// Σ node rates; equals [`SteadyState::optimal_rate`] (asserted in
    /// tests — conservation of tasks).
    pub fn total_rate(&self) -> Rational {
        bc_rational::sum(self.node_rates.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_platform::examples::{fig1_p1, fig1_tree};
    use bc_platform::RandomTreeConfig;

    fn rq(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::new(4);
        let ss = SteadyState::analyze(&t);
        assert_eq!(*ss.tree_weight(), Rational::from_integer(4));
        assert_eq!(ss.optimal_rate(), rq(1, 4));
        assert_eq!(ss.allocate(&t).total_rate(), rq(1, 4));
    }

    #[test]
    fn fig1_tree_weight_is_45_over_49() {
        let ss = SteadyState::analyze(&fig1_tree());
        assert_eq!(*ss.tree_weight(), rq(45, 49));
        assert_eq!(ss.optimal_rate(), rq(49, 45));
    }

    #[test]
    fn fig1_subtree_weights_match_hand_computation() {
        let t = fig1_tree();
        let ss = SteadyState::analyze(&t);
        // Arena order: P0, P1, P4, P2, P3, P5, P6, P7 (see fig1_tree()).
        assert_eq!(*ss.subtree_weight(NodeId(1)), rq(6, 5)); // P1
        assert_eq!(*ss.subtree_weight(NodeId(2)), rq(3, 1)); // P4
        assert_eq!(*ss.subtree_weight(NodeId(3)), rq(4, 1)); // P2
        assert_eq!(*ss.subtree_weight(NodeId(4)), rq(4, 1)); // P3
        assert_eq!(*ss.subtree_weight(NodeId(5)), rq(6, 1)); // P5
    }

    #[test]
    fn fig7_changed_platforms() {
        // §4.2.3: c1 1→3 and (separately) w1 3→1.
        let mut t = fig1_tree();
        t.set_comm_time(fig1_p1(), 3);
        assert_eq!(*SteadyState::analyze(&t).tree_weight(), rq(15, 8));

        let mut t = fig1_tree();
        t.set_compute_time(fig1_p1(), 1);
        assert_eq!(*SteadyState::analyze(&t).tree_weight(), rq(5, 6));
    }

    #[test]
    fn rates_conserve_tasks() {
        for seed in 0..30 {
            let cfg = RandomTreeConfig {
                min_nodes: 2,
                max_nodes: 40,
                comm_min: 1,
                comm_max: 20,
                compute_scale: 100,
            };
            let t = cfg.generate(seed);
            let ss = SteadyState::analyze(&t);
            assert_eq!(
                ss.allocate(&t).total_rate(),
                ss.optimal_rate(),
                "seed {seed}: allocation must sum to the tree rate"
            );
        }
    }

    #[test]
    fn allocation_is_feasible() {
        for seed in 0..30 {
            let cfg = RandomTreeConfig {
                min_nodes: 2,
                max_nodes: 40,
                comm_min: 1,
                comm_max: 20,
                compute_scale: 100,
            };
            let t = cfg.generate(seed);
            let alloc = SteadyState::analyze(&t).allocate(&t);
            // Compute capacity: w_i * x_i ≤ 1.
            for id in t.ids() {
                let w = Rational::from_integer(t.compute_time(id) as i128);
                assert!(w.mul_ref(alloc.node_rate(id)) <= Rational::one());
            }
            // Link capacity at every non-leaf: Σ c_child * inflow(child) ≤ 1,
            // where inflow(child) = Σ rates in child's subtree.
            let mut subtree_rate = vec![Rational::zero(); t.len()];
            for id in t.postorder() {
                let mut s = alloc.node_rate(id).clone();
                for &ch in t.children(id) {
                    s.add_assign_ref(&subtree_rate[ch.index()]);
                }
                subtree_rate[id.index()] = s;
            }
            for id in t.ids() {
                let mut link = Rational::zero();
                for &ch in t.children(id) {
                    let c = Rational::from_integer(t.comm_time(ch) as i128);
                    link.add_assign_ref(&c.mul_ref(&subtree_rate[ch.index()]));
                }
                assert!(link <= Rational::one(), "seed {seed}: link overcommitted");
            }
        }
    }

    #[test]
    fn deep_chain_is_exact() {
        // A chain where every link is fast and every node slow: with k+1
        // nodes of weight w and links of weight 1, the rate is (k+1)/w
        // until the link saturates.
        let mut t = Tree::new(10);
        let mut cur = NodeId::ROOT;
        for _ in 0..4 {
            cur = t.add_child(cur, 1, 10);
        }
        let ss = SteadyState::analyze(&t);
        assert_eq!(ss.optimal_rate(), rq(5, 10));
    }

    #[test]
    fn deep_tree_big_denominators_survive() {
        // Depth ≈ 80 trees from the paper's population; the weights'
        // denominators exceed u128 here, which is why bc-rational exists.
        let cfg = RandomTreeConfig::default();
        for seed in [11, 23] {
            let t = cfg.generate(seed);
            let ss = SteadyState::analyze(&t);
            assert!(ss.optimal_rate().is_positive());
            let f = ss.optimal_rate().to_f64();
            assert!(f.is_finite() && f > 0.0);
        }
    }

    #[test]
    fn starved_subtree_has_zero_rates() {
        // Root saturates its link on the fast child; slow child's whole
        // subtree must be unused.
        let mut t = Tree::new(1_000_000);
        let _fast = t.add_child(NodeId::ROOT, 4, 4); // c/w = 1 saturates
        let slow = t.add_child(NodeId::ROOT, 9, 1);
        let slow_kid = t.add_child(slow, 1, 1);
        let alloc = SteadyState::analyze(&t).allocate(&t);
        assert!(alloc.node_rate(slow).is_zero());
        assert!(alloc.node_rate(slow_kid).is_zero());
        let used = alloc.used_nodes();
        assert!(!used[slow.index()]);
        assert!(used[1]); // fast child used
    }
}
