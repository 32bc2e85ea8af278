//! # bc-engine — the autonomous-protocol simulator
//!
//! Runs the bandwidth-centric autonomous protocols (and their baselines)
//! over a platform tree on the `bc-simcore` discrete-event kernel: the
//! role SimGrid played in the paper's evaluation (§4.1).
//!
//! ```
//! use bc_engine::{SimConfig, Simulation};
//! use bc_platform::examples::fig1_tree;
//!
//! // Interruptible communication, 3 fixed buffers, 200 tasks.
//! let result = Simulation::new(fig1_tree(), SimConfig::interruptible(3, 200)).run();
//! assert_eq!(result.tasks_completed(), 200);
//! ```

pub mod accum;
pub mod arrivals;
pub mod config;
pub mod durability;
pub mod invariants;
pub mod result;
pub mod sim;
pub mod snapshot;
mod wire;

pub use accum::RunStatsAccumulator;
pub use arrivals::{AdmissionPolicy, Arrival, ArrivalPlan, ArrivalProcess, TaskClass};
pub use config::{
    ChangeKind, FaultEvent, FaultInjection, FaultKind, FaultPlan, PlannedChange, Protocol,
    RecoveryTuning, SelectorKind, SimConfig,
};
pub use durability::{
    CheckpointError, CheckpointKind, CheckpointStore, LoadedCheckpoint, SkippedGeneration,
};
pub use invariants::InvariantViolation;
pub use result::{ArrivalStats, FaultStats, RunResult};
pub use sim::{SimWorkspace, Simulation};
pub use snapshot::{SimSnapshot, SnapshotError, WhatIf};

// Trace plumbing, re-exported so engine users name one crate: the sink
// trait the simulator is generic over plus the stock sinks.
pub use bc_simcore::{trace, NullSink, RingRecorder, TraceEvent, TraceRecord, TraceSink, VecSink};
