//! Open-world service mode: a long-running, JSON-per-line simulation
//! server (`bc-serve`) multiplexing concurrent bandwidth-centric
//! simulations over a shared workspace pool.
//!
//! The protocol is newline-delimited JSON in both directions. Requests
//! name a command (`"cmd"`) and usually a session (`"sim"`); responses
//! name an event (`"ev"`). A session is opened from a tree + workload
//! spec (closed batch or streamed arrivals), stepped or run — possibly
//! many sessions at once via `run-all` — paused to a snapshot, resumed,
//! exported, restored, and queried for exact-rational latency metrics.
//!
//! Everything below the line protocol is pure and deterministic:
//! [`server::Server::handle_line`] maps request lines to response lines
//! with no I/O, so the whole server is testable in-process and its
//! output streams are byte-stable across runs and worker-thread counts.

pub mod pool;
pub mod proto;
pub mod server;

pub use pool::WorkspacePool;
pub use proto::{
    from_hex, parse_request, summary_value, to_hex, OpenSpec, Request, TreeSpec, MAX_LINE_LEN,
    MAX_SIM_NAME_LEN,
};
pub use server::{oversized_line_error, RecoverReport, Server, StreamSink, DEFAULT_MAX_SESSIONS};
