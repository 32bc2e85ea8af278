//! Sensitivity analysis: how much each node matters.
//!
//! For platform operators the interesting question after "what is the
//! optimal rate" is "which node can I afford to lose".
//! [`node_criticality`] answers it with exact arithmetic: the rate lost
//! if a node's *subtree* is detached (the node leaves and takes its
//! descendants with it, the failure mode of tree overlays).
//!
//! It is an exact recomputation over the mutated platform — O(n) tree
//! solves, O(n²) total, fine for platform-sized inputs — rather than a
//! derivative approximation, because the Theorem 1 optimum is piecewise
//! and non-smooth (children enter and leave the saturated set).

use crate::analysis::SteadyState;
use bc_platform::{NodeId, Tree};
use bc_rational::Rational;

/// One node's criticality entry.
#[derive(Clone, Debug)]
pub struct Criticality {
    /// The node whose subtree is detached.
    pub node: NodeId,
    /// Optimal rate of the platform without that subtree.
    pub rate_without: Rational,
    /// Absolute rate loss (`base − without`, ≥ 0).
    pub loss: Rational,
}

/// Ranks every non-root node by the exact rate lost when its subtree
/// detaches, most critical first (ties by node id).
pub fn node_criticality(tree: &Tree) -> Vec<Criticality> {
    let base = SteadyState::analyze(tree).optimal_rate();
    let mut out: Vec<Criticality> = tree
        .ids()
        .filter(|&id| id != NodeId::ROOT)
        .map(|id| {
            let rate_without = SteadyState::analyze(&tree.without_subtrees(&[id])).optimal_rate();
            let loss = base.sub_ref(&rate_without);
            Criticality {
                node: id,
                rate_without,
                loss,
            }
        })
        .collect();
    out.sort_by(|a, b| b.loss.cmp(&a.loss).then(a.node.cmp(&b.node)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_platform::examples::fig1_tree;
    use bc_platform::RandomTreeConfig;

    #[test]
    fn losing_a_starved_subtree_costs_nothing() {
        // Fast child saturates the link; the slow subtree contributes 0.
        let mut t = Tree::new(1_000_000);
        let _fast = t.add_child(NodeId::ROOT, 4, 4);
        let slow = t.add_child(NodeId::ROOT, 9, 1);
        t.add_child(slow, 1, 1);
        let ranks = node_criticality(&t);
        let slow_entry = ranks.iter().find(|c| c.node == slow).unwrap();
        assert!(slow_entry.loss.is_zero());
        // The fast child is the critical one.
        assert_eq!(ranks[0].node, NodeId(1));
        assert!(ranks[0].loss.is_positive());
    }

    #[test]
    fn criticality_losses_are_nonnegative_and_sorted() {
        let t = RandomTreeConfig {
            min_nodes: 8,
            max_nodes: 25,
            comm_min: 1,
            comm_max: 10,
            compute_scale: 60,
        }
        .generate(11);
        let ranks = node_criticality(&t);
        assert_eq!(ranks.len(), t.len() - 1);
        for c in &ranks {
            assert!(!c.loss.is_negative(), "{:?} negative loss", c.node);
        }
        assert!(ranks.windows(2).all(|w| w[0].loss >= w[1].loss));
    }

    #[test]
    fn fig1_most_critical_node_is_p1() {
        // P1's subtree carries the fast link and two leaves; detaching it
        // costs more than detaching anything under P4.
        let ranks = node_criticality(&fig1_tree());
        assert_eq!(ranks[0].node, NodeId(1));
    }
}
