//! # bc-core — the autonomous protocol policies
//!
//! The paper's primary contribution, as pure decision logic with no
//! simulator types: child-selection policies (bandwidth-centric plus the
//! baselines it is compared against), local latency observation, and the
//! buffer ledger implementing the §3.1 growth rules. `bc-engine` drives
//! these components from a discrete-event loop; the same code could drive
//! a real transport, which is the point of an *autonomous* protocol —
//! every decision consumes only locally measurable state.
//!
//! ```
//! use bc_core::ChildSelector;
//!
//! let policy = ChildSelector::BandwidthCentric;
//! // (index, comm estimate, compute estimate) per child.
//! let fast_link_slow_cpu = policy.priority(0, 1, 900);
//! let slow_link_fast_cpu = policy.priority(1, 8, 2);
//! // Bandwidth-centric: the link decides, not the CPU.
//! assert!(fast_link_slow_cpu < slow_link_fast_cpu);
//! assert!(policy.outranks(fast_link_slow_cpu, slow_link_fast_cpu));
//! ```

pub mod buffers;
pub mod observer;
pub mod priority;

pub use buffers::{BufferLedger, BufferPolicy, GrowthEvent, GrowthGate, LedgerState};
pub use observer::{LatencyObserver, ObserverKind, ObserverState};
pub use priority::{ChildSelector, Priority};
