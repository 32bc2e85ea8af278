//! # bc-simcore — deterministic discrete-event simulation kernel
//!
//! The substrate that plays SimGrid's role in the paper's evaluation
//! (§4.1): a minimal, fully deterministic discrete-event engine. The
//! protocol simulator in `bc-engine` drives an [`Agenda`] of typed events;
//! ties at equal timestamps resolve in scheduling order, cancellation is
//! O(log n) (needed constantly by interruptible communication), and time
//! is integer, so simulations are exact and reproducible bit-for-bit.
//!
//! ```
//! use bc_simcore::Agenda;
//!
//! let mut agenda: Agenda<&str> = Agenda::new();
//! agenda.schedule(10, "compute done");
//! let h = agenda.schedule(5, "transfer done");
//! agenda.cancel(h); // preempted!
//! assert_eq!(agenda.next(), Some((10, "compute done")));
//! ```

pub mod agenda;
pub mod quad_heap;
pub mod rng;
pub mod trace;

pub use agenda::{Agenda, AgendaSnapshot, EventHandle, SlotSnapshot, Time, NEAR_BUCKETS};
pub use quad_heap::{PackedEvent, QuadHeap};
pub use rng::split_seed;
pub use trace::{NullSink, RingRecorder, TraceEvent, TraceRecord, TraceSink, VecSink};
