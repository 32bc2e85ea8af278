//! # bandwidth-centric — autonomous scheduling of independent-task applications
//!
//! A faithful, from-scratch reproduction of *Kreaseck, Carter, Casanova,
//! Ferrante — "Autonomous Protocols for Bandwidth-Centric Scheduling of
//! Independent-task Applications" (IPDPS 2003)*: the steady-state theory
//! (Theorem 1 with an LP oracle), the two autonomous protocols
//! (non-interruptible with buffer growth; interruptible with small fixed
//! buffers), a deterministic discrete-event simulator standing in for
//! SimGrid, and a harness regenerating every table and figure of the
//! paper's evaluation.
//!
//! This crate is the facade: it re-exports each subsystem under a stable
//! name and offers a [`prelude`] for applications.
//!
//! ```
//! use bandwidth_centric::prelude::*;
//!
//! // Build a platform, ask the theory for its optimal rate, and check
//! // the autonomous protocol attains it.
//! let mut tree = Tree::new(2);
//! tree.add_child(NodeId::ROOT, 1, 2);
//! let optimal = SteadyState::analyze(&tree).optimal_rate();
//! assert_eq!(optimal, Rational::from_integer(1));
//!
//! let run = Simulation::new(tree, SimConfig::interruptible(3, 500)).run();
//! assert_eq!(run.tasks_completed(), 500);
//! ```

pub use bc_core as core;
pub use bc_engine as engine;
pub use bc_experiments as experiments;
pub use bc_lp as lp;
pub use bc_metrics as metrics;
pub use bc_platform as platform;
pub use bc_rational as rational;
pub use bc_simcore as simcore;
pub use bc_steady as steady;

/// The names most applications need.
pub mod prelude {
    pub use bc_core::{BufferPolicy, ChildSelector, GrowthGate, LatencyObserver, ObserverKind};
    pub use bc_engine::{
        ChangeKind, PlannedChange, Protocol, RunResult, SelectorKind, SimConfig, SimWorkspace,
        Simulation,
    };
    pub use bc_metrics::{detect_onset, normalized_curve, window_rates, OnsetConfig};
    pub use bc_platform::{NodeId, PlatformGraph, RandomTreeConfig, Tree};
    pub use bc_rational::Rational;
    pub use bc_steady::{lp_optimal_rate, period_bound, SteadyState};
}
