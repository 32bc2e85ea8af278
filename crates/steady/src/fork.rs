//! Theorem 1: the optimal steady-state weight of a single-level fork.

use bc_rational::Rational;

/// One child of a fork, reduced to its equivalent single-node form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForkChild {
    /// `c_i`: time to communicate one task to this child.
    pub comm: Rational,
    /// `w_i`: the (subtree-)computational weight of the child.
    pub weight: Rational,
}

/// Result of solving a fork with Theorem 1.
#[derive(Clone, Debug)]
pub struct ForkSolution {
    /// The fork's computational weight `w_tree` (time per task); the
    /// optimal steady-state rate is its reciprocal.
    pub weight: Rational,
    /// Indices into the *input* slice, sorted by increasing `comm` (ties
    /// by input position, making the solution deterministic).
    pub order: Vec<usize>,
    /// Number of fully-fed children: the first `saturated` entries of
    /// `order` run at their full subtree rate.
    pub saturated: usize,
    /// Leftover link fraction ε granted to child `order[saturated]`
    /// (zero when every child is fully fed).
    pub epsilon: Rational,
    /// True when the first term of the theorem's max (the inflow limit
    /// `c_0`) is what binds the fork.
    pub inflow_bound: bool,
}

impl ForkSolution {
    /// The steady-state task rate `1 / weight`.
    pub fn rate(&self) -> Rational {
        self.weight.recip()
    }

    /// The steady-state task rate delivered to input child `i`
    /// (its subtree consumption rate), in the link-saturated regime.
    ///
    /// Children beyond the partially-fed one receive zero — the theorem's
    /// starvation of slow-communicating children, "independent of their
    /// execution speeds".
    pub fn child_rate(&self, children: &[ForkChild], i: usize) -> Rational {
        let pos = self
            .order
            .iter()
            .position(|&x| x == i)
            .expect("child index out of range");
        if pos < self.saturated {
            children[i].weight.recip()
        } else if pos == self.saturated && !self.epsilon.is_zero() {
            self.epsilon.div_ref(&children[i].comm)
        } else {
            Rational::zero()
        }
    }
}

/// The bandwidth-priority order of `len` children: indices sorted by
/// increasing communication time `comm(i)`, ties by index, so the order
/// is deterministic.
pub(crate) fn bandwidth_order<K: Ord>(len: usize, comm: impl Fn(usize) -> K) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_unstable_by_key(|&i| (comm(i), i));
    order
}

/// Solves Theorem 1 for a fork.
///
/// * `inflow_comm` — `c_0`, the time for the fork's root to receive one
///   task from *its* parent; `None` at the tree root (no inflow limit).
/// * `own_weight` — `w_0`, the root's own compute time per task.
/// * `children` — each child's `(c_i, w_i)`; `w_i` is a node weight for a
///   single-level fork or a subtree weight in the bottom-up recursion.
///
/// Steps, verbatim from the paper:
/// 1. sort children by increasing `c_i`;
/// 2. `p` = largest index with `Σ_{i≤p} c_i/w_i ≤ 1`, ε = remainder;
/// 3. `w_tree = max(c_0, 1 / (1/w_0 + Σ_{i≤p} 1/w_i + ε/c_{p+1}))`.
pub fn solve_fork(
    inflow_comm: Option<&Rational>,
    own_weight: &Rational,
    children: &[ForkChild],
) -> ForkSolution {
    assert!(own_weight.is_positive(), "w_0 must be positive");
    for ch in children {
        assert!(ch.comm.is_positive(), "child comm times must be positive");
        assert!(ch.weight.is_positive(), "child weights must be positive");
    }
    if let Some(c0) = inflow_comm {
        assert!(c0.is_positive(), "c_0 must be positive");
    }

    let order = bandwidth_order(children.len(), |i| &children[i].comm);

    // Largest prefix the link can keep fully busy: Σ c_i / w_i ≤ 1.
    // The accumulators update in place: on the small representation tier
    // each step is pure word arithmetic with no allocation.
    let one = Rational::one();
    let mut used = Rational::zero();
    let mut saturated = 0;
    for &i in &order {
        let mut next = children[i].comm.div_ref(&children[i].weight);
        next.add_assign_ref(&used);
        if next <= one {
            used = next;
            saturated += 1;
        } else {
            break;
        }
    }
    let epsilon = if saturated < order.len() {
        one.sub_ref(&used)
    } else {
        Rational::zero()
    };

    // Aggregate consumption rate: self + saturated children + the ε share.
    let mut rate = own_weight.recip();
    for &i in &order[..saturated] {
        rate.add_assign_ref(&children[i].weight.recip());
    }
    if saturated < order.len() && !epsilon.is_zero() {
        let next = &children[order[saturated]];
        rate.add_assign_ref(&epsilon.div_ref(&next.comm));
    }
    let inner = rate.recip();

    let (weight, inflow_bound) = match inflow_comm {
        Some(c0) if *c0 > inner => (c0.clone(), true),
        _ => (inner, false),
    };
    ForkSolution {
        weight,
        order,
        saturated,
        epsilon,
        inflow_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn rq(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn child(c: i128, w: i128) -> ForkChild {
        ForkChild {
            comm: r(c),
            weight: r(w),
        }
    }

    #[test]
    fn leaf_fork_is_own_weight() {
        let s = solve_fork(None, &r(7), &[]);
        assert_eq!(s.weight, r(7));
        assert!(!s.inflow_bound);
        assert_eq!(s.saturated, 0);
    }

    #[test]
    fn leaf_with_slow_inflow_is_inflow_bound() {
        let s = solve_fork(Some(&r(9)), &r(4), &[]);
        assert_eq!(s.weight, r(9));
        assert!(s.inflow_bound);
        let s = solve_fork(Some(&r(2)), &r(4), &[]);
        assert_eq!(s.weight, r(4));
        assert!(!s.inflow_bound);
    }

    #[test]
    fn all_children_fed_when_bandwidth_ample() {
        // Two fast links: c/w = 1/4 each, total 1/2 ≤ 1 ⇒ all saturated.
        let s = solve_fork(None, &r(4), &[child(1, 4), child(1, 4)]);
        assert_eq!(s.saturated, 2);
        assert_eq!(s.epsilon, Rational::zero());
        // Rate = 1/4 + 1/4 + 1/4 = 3/4 ⇒ weight 4/3.
        assert_eq!(s.weight, rq(4, 3));
    }

    #[test]
    fn slow_child_starves_regardless_of_speed() {
        // Child 0 saturates the link alone (c/w = 4/4 = 1); child 1 is an
        // infinitely attractive compute resource behind a slow link and
        // must starve.
        let s = solve_fork(None, &r(10), &[child(4, 4), child(5, 1)]);
        assert_eq!(s.saturated, 1);
        assert_eq!(s.epsilon, Rational::zero());
        let children = [child(4, 4), child(5, 1)];
        assert_eq!(s.child_rate(&children, 1), Rational::zero());
        assert_eq!(s.child_rate(&children, 0), rq(1, 4));
    }

    #[test]
    fn partial_feed_epsilon() {
        // Child 0: c/w = 1/2; leftover ε = 1/2 feeds child 1 at ε/c = 1/6.
        let children = [child(1, 2), child(3, 2)];
        let s = solve_fork(None, &r(5), &children);
        assert_eq!(s.saturated, 1);
        assert_eq!(s.epsilon, rq(1, 2));
        assert_eq!(s.child_rate(&children, 1), rq(1, 6));
        // Rate = 1/5 + 1/2 + 1/6 = 13/15 ⇒ weight 15/13.
        assert_eq!(s.weight, rq(15, 13));
    }

    #[test]
    fn priority_is_bandwidth_not_compute() {
        // The faster-computing child (w=1) has the slower link and must be
        // ordered last.
        let s = solve_fork(None, &r(9), &[child(7, 1), child(2, 9)]);
        assert_eq!(s.order, vec![1, 0]);
    }

    #[test]
    fn tie_broken_by_index() {
        let s = solve_fork(None, &r(9), &[child(3, 5), child(3, 5)]);
        assert_eq!(s.order, vec![0, 1]);
    }

    #[test]
    fn paper_example_fig1_root_numbers() {
        // Root of the Fig 1 reconstruction: w0 = 5, children
        // (c=1, w=6/5) and (c=3, w=3) ⇒ w_tree = 45/49 (hand-computed in
        // the module docs of bc_steady::tree).
        let children = [
            ForkChild {
                comm: r(1),
                weight: rq(6, 5),
            },
            ForkChild {
                comm: r(3),
                weight: r(3),
            },
        ];
        let s = solve_fork(None, &r(5), &children);
        assert_eq!(s.saturated, 1);
        assert_eq!(s.epsilon, rq(1, 6));
        assert_eq!(s.weight, rq(45, 49));
    }

    #[test]
    fn inflow_binds_over_inner_term() {
        let s = solve_fork(Some(&r(100)), &r(1), &[child(1, 1)]);
        assert_eq!(s.weight, r(100));
        assert!(s.inflow_bound);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_weight() {
        let _ = solve_fork(None, &Rational::zero(), &[]);
    }

    #[test]
    fn child_rate_sums_to_link_budget() {
        // Σ c_i * rate_i ≤ 1 with equality when a child starves or is
        // partially fed.
        let children = [child(2, 3), child(3, 4), child(4, 2)];
        let s = solve_fork(None, &r(6), &children);
        let mut link = Rational::zero();
        for i in 0..children.len() {
            link = link.add_ref(&children[i].comm.mul_ref(&s.child_rate(&children, i)));
        }
        assert!(link <= Rational::one());
        if s.saturated < children.len() {
            assert_eq!(link, Rational::one());
        }
    }
}
