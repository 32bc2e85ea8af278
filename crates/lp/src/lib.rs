//! # bc-lp — exact linear programming over rationals
//!
//! A dense simplex solver with Bland's anti-cycling rule, computing over
//! [`bc_rational::Rational`] so results are exact.
//!
//! ## Why this exists
//!
//! Theorem 1 of the paper (the bandwidth-centric optimum) is implemented in
//! `bc-steady` as a closed-form bottom-up recursion. The steady-state rate
//! of a tree is *also* the optimum of a small linear program (per-node
//! compute-capacity constraints plus per-node outgoing-link-capacity
//! constraints). This crate provides that LP solver as an **independent
//! oracle**: property tests assert the closed form and the LP agree on
//! thousands of random trees, which is far stronger evidence of correctness
//! than unit tests of either implementation alone.
//!
//! ## Scope
//!
//! Problems of the form
//!
//! ```text
//! maximize   c · x
//! subject to A x ≤ b,   x ≥ 0,   b ≥ 0
//! ```
//!
//! All scheduling LPs in this workspace are capacity-style with nonnegative
//! right-hand sides, so the all-slack basis is feasible and no phase-1 is
//! needed. Constructing a problem with a negative right-hand side is
//! rejected at build time.
//!
//! ```
//! use bc_lp::Problem;
//! use bc_rational::Rational;
//!
//! // maximize x + y  s.t.  x ≤ 2, y ≤ 3, x + y ≤ 4
//! let r = |n| Rational::from_integer(n);
//! let mut p = Problem::new(2);
//! p.set_objective(vec![r(1), r(1)]);
//! p.add_constraint(vec![r(1), r(0)], r(2));
//! p.add_constraint(vec![r(0), r(1)], r(3));
//! p.add_constraint(vec![r(1), r(1)], r(4));
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.objective, r(4));
//! ```

use bc_rational::Rational;

/// A linear program in the supported canonical form (see crate docs).
#[derive(Clone, Debug)]
pub struct Problem {
    num_vars: usize,
    objective: Vec<Rational>,
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
}

/// Solution of a [`Problem`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal objective value.
    pub objective: Rational,
    /// Optimal assignment, one entry per original variable.
    pub assignment: Vec<Rational>,
    /// Number of simplex pivots performed.
    pub pivots: usize,
}

/// Errors from [`Problem::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is unbounded in the objective direction.
    Unbounded,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Unbounded => write!(f, "LP is unbounded"),
        }
    }
}

impl std::error::Error for LpError {}

impl Problem {
    /// Creates an empty problem over `num_vars` nonnegative variables with a
    /// zero objective.
    pub fn new(num_vars: usize) -> Self {
        Problem {
            num_vars,
            objective: vec![Rational::zero(); num_vars],
            rows: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets the maximization objective.
    pub fn set_objective(&mut self, coeffs: Vec<Rational>) {
        assert_eq!(
            coeffs.len(),
            self.num_vars,
            "objective length must equal num_vars"
        );
        self.objective = coeffs;
    }

    /// Adds `row · x ≤ rhs`. Panics if `rhs < 0` or the row length is wrong
    /// (programming errors, not data errors, in this workspace).
    pub fn add_constraint(&mut self, row: Vec<Rational>, rhs: Rational) {
        assert_eq!(row.len(), self.num_vars, "row length must equal num_vars");
        assert!(!rhs.is_negative(), "negative rhs is outside solver scope");
        self.rows.push(row);
        self.rhs.push(rhs);
    }

    /// Solves the program with Bland's rule. Exact; terminates on every
    /// input (Bland's rule excludes cycling).
    pub fn solve(&self) -> Result<Solution, LpError> {
        let n = self.num_vars;
        let m = self.rows.len();
        // Tableau layout: columns [0, n) original vars, [n, n+m) slacks,
        // column n+m the right-hand side. Row m is the objective row; we
        // maximize, so we pivot while some objective coefficient is positive.
        let width = n + m + 1;
        let mut t: Vec<Vec<Rational>> = Vec::with_capacity(m + 1);
        for i in 0..m {
            let mut row = Vec::with_capacity(width);
            row.extend(self.rows[i].iter().cloned());
            for j in 0..m {
                row.push(if i == j {
                    Rational::one()
                } else {
                    Rational::zero()
                });
            }
            row.push(self.rhs[i].clone());
            t.push(row);
        }
        let mut obj_row = Vec::with_capacity(width);
        obj_row.extend(self.objective.iter().cloned());
        obj_row.resize(width, Rational::zero());
        t.push(obj_row);

        // basis[i] = tableau column currently basic in row i.
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut pivots = 0usize;

        // Bland: entering column = lowest index with positive
        // objective-row coefficient; stop when none remains.
        while let Some(enter) = (0..n + m).find(|&j| t[m][j].is_positive()) {
            // Ratio test: min rhs_i / a_{i,enter} over positive pivots,
            // ties broken by lowest basis variable index (Bland).
            let mut leave: Option<usize> = None;
            let mut best: Option<Rational> = None;
            for i in 0..m {
                if t[i][enter].is_positive() {
                    let ratio = t[i][width - 1].div_ref(&t[i][enter]);
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            ratio < *b
                                || (ratio == *b
                                    && basis[i] < basis[leave.expect("best implies leave")])
                        }
                    };
                    if better {
                        best = Some(ratio);
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(LpError::Unbounded);
            };

            // Pivot on (leave, enter). All updates run in place on the
            // tableau cells; the pivot row is read through a split
            // borrow rather than cloned per target row.
            pivots += 1;
            let piv = t[leave][enter].clone();
            for v in t[leave].iter_mut() {
                v.div_assign_ref(&piv);
            }
            for i in 0..=m {
                if i == leave || t[i][enter].is_zero() {
                    continue;
                }
                let (row_i, pivot_row) = if i < leave {
                    let (lo, hi) = t.split_at_mut(leave);
                    (&mut lo[i], &hi[0])
                } else {
                    let (lo, hi) = t.split_at_mut(i);
                    (&mut hi[0], &lo[leave])
                };
                // Only the scalar multiplier is copied; after the sweep
                // row_i[enter] = factor − factor·1 = 0 as required.
                let factor = row_i[enter].clone();
                for (cell, pv) in row_i.iter_mut().zip(pivot_row.iter()) {
                    cell.sub_mul_assign_ref(&factor, pv);
                }
            }
            basis[leave] = enter;
        }

        let mut assignment = vec![Rational::zero(); n];
        for i in 0..m {
            if basis[i] < n {
                assignment[basis[i]] = t[i][width - 1].clone();
            }
        }
        // Objective row now holds -(optimal value) in the rhs cell.
        let objective = t[m][width - 1].neg_ref();
        Ok(Solution {
            objective,
            assignment,
            pivots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn ri(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    #[test]
    fn trivial_single_variable() {
        // maximize x s.t. 2x ≤ 6
        let mut p = Problem::new(1);
        p.set_objective(vec![ri(1)]);
        p.add_constraint(vec![ri(2)], ri(6));
        let s = p.solve().unwrap();
        assert_eq!(s.objective, ri(3));
        assert_eq!(s.assignment, vec![ri(3)]);
    }

    #[test]
    fn textbook_two_variables() {
        // maximize 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → 36 at (2,6)
        let mut p = Problem::new(2);
        p.set_objective(vec![ri(3), ri(5)]);
        p.add_constraint(vec![ri(1), ri(0)], ri(4));
        p.add_constraint(vec![ri(0), ri(2)], ri(12));
        p.add_constraint(vec![ri(3), ri(2)], ri(18));
        let s = p.solve().unwrap();
        assert_eq!(s.objective, ri(36));
        assert_eq!(s.assignment, vec![ri(2), ri(6)]);
    }

    #[test]
    fn fractional_optimum() {
        // maximize x + y s.t. 2x + y ≤ 2, x + 2y ≤ 2 → 4/3 at (2/3, 2/3)
        let mut p = Problem::new(2);
        p.set_objective(vec![ri(1), ri(1)]);
        p.add_constraint(vec![ri(2), ri(1)], ri(2));
        p.add_constraint(vec![ri(1), ri(2)], ri(2));
        let s = p.solve().unwrap();
        assert_eq!(s.objective, r(4, 3));
        assert_eq!(s.assignment, vec![r(2, 3), r(2, 3)]);
    }

    #[test]
    fn unbounded_detected() {
        // maximize x with no binding constraint on x.
        let mut p = Problem::new(2);
        p.set_objective(vec![ri(1), ri(0)]);
        p.add_constraint(vec![ri(0), ri(1)], ri(5));
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_objective_solves_to_zero() {
        let mut p = Problem::new(2);
        p.add_constraint(vec![ri(1), ri(1)], ri(10));
        let s = p.solve().unwrap();
        assert_eq!(s.objective, ri(0));
        assert_eq!(s.pivots, 0);
    }

    #[test]
    fn no_constraints_zero_objective_ok() {
        let p = Problem::new(3);
        let s = p.solve().unwrap();
        assert_eq!(s.objective, ri(0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy trigger (Beale-like); Bland must terminate.
        let mut p = Problem::new(4);
        p.set_objective(vec![r(3, 4), ri(-150), r(1, 50), ri(-6)]);
        p.add_constraint(vec![r(1, 4), ri(-60), r(-1, 25), ri(9)], ri(0));
        p.add_constraint(vec![r(1, 2), ri(-90), r(-1, 50), ri(3)], ri(0));
        p.add_constraint(vec![ri(0), ri(0), ri(1), ri(0)], ri(1));
        let s = p.solve().unwrap();
        assert_eq!(s.objective, r(1, 20));
    }

    #[test]
    fn fork_lp_prefers_fast_link() {
        // A single-level fork: root w0=5 plus children (c=2, subtree w=2)
        // and (c=5, subtree w=8). Variables: x0, x1, x2 compute rates.
        // max x0+x1+x2 s.t. 5x0 ≤ 1, 2x1 ≤ 1, 8x2 ≤ 1, 2x1 + 5x2 ≤ 1.
        // Feeding the fast link fully (x1 = 1/2) dominates any mix that
        // feeds the slow child: 1/5 + 1/2 = 7/10.
        let mut p = Problem::new(3);
        p.set_objective(vec![ri(1), ri(1), ri(1)]);
        p.add_constraint(vec![ri(5), ri(0), ri(0)], ri(1));
        p.add_constraint(vec![ri(0), ri(2), ri(0)], ri(1));
        p.add_constraint(vec![ri(0), ri(0), ri(8)], ri(1));
        p.add_constraint(vec![ri(0), ri(2), ri(5)], ri(1));
        let s = p.solve().unwrap();
        assert_eq!(s.objective, r(7, 10));
    }

    #[test]
    #[should_panic(expected = "negative rhs")]
    fn negative_rhs_rejected() {
        let mut p = Problem::new(1);
        p.add_constraint(vec![ri(1)], ri(-1));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn wrong_row_length_rejected() {
        let mut p = Problem::new(2);
        p.add_constraint(vec![ri(1)], ri(1));
    }

    #[test]
    fn assignment_is_feasible() {
        let mut p = Problem::new(3);
        p.set_objective(vec![ri(2), ri(3), ri(1)]);
        p.add_constraint(vec![ri(1), ri(1), ri(1)], ri(10));
        p.add_constraint(vec![ri(2), ri(1), ri(0)], ri(8));
        p.add_constraint(vec![ri(0), ri(1), ri(3)], ri(9));
        let s = p.solve().unwrap();
        let dot = |row: &[Rational]| {
            row.iter()
                .zip(&s.assignment)
                .fold(Rational::zero(), |acc, (a, x)| acc.add_ref(&a.mul_ref(x)))
        };
        assert!(dot(&[ri(1), ri(1), ri(1)]) <= ri(10));
        assert!(dot(&[ri(2), ri(1), ri(0)]) <= ri(8));
        assert!(dot(&[ri(0), ri(1), ri(3)]) <= ri(9));
    }
}
