//! # bc-steady — bandwidth-centric steady-state theory
//!
//! The analytic half of the paper: Theorem 1 (the optimal steady-state
//! weight of a fork), its bottom-up extension to whole trees, the
//! top-down optimal rate allocation, the LP oracle used to cross-check
//! both, and the LCM period bound that motivates autonomous protocols in
//! the first place.
//!
//! ```
//! use bc_platform::examples::fig1_tree;
//! use bc_rational::Rational;
//! use bc_steady::SteadyState;
//!
//! let ss = SteadyState::analyze(&fig1_tree());
//! assert_eq!(*ss.tree_weight(), Rational::new(45, 49));
//! assert_eq!(ss.optimal_rate(), Rational::new(49, 45));
//! ```

pub mod analysis;
pub mod fork;
pub mod makespan;
pub mod oracle;
pub mod period;
pub mod sensitivity;

pub use analysis::{Allocation, SteadyState};
pub use fork::{solve_fork, ForkChild, ForkSolution};
pub use makespan::{makespan_lower_bound, makespan_serial_bound};
pub use oracle::lp_optimal_rate;
pub use period::period_bound;
pub use sensitivity::{node_criticality, without_subtree, Criticality};
