//! # bc-metrics — measurement methodology of the paper's evaluation
//!
//! The sliding growing window of §4.1 ([`windows`]), the empirical
//! onset-of-optimal-steady-state heuristic ([`onset`]), the recovery
//! metrics for fault-injected runs ([`recovery`]), the per-task latency
//! decomposition for open-world streamed workloads ([`latency`]), and
//! the statistics helpers (medians, histograms, table/CSV rendering)
//! the experiment harness builds tables and figures from ([`stats`]).
//!
//! ```
//! use bc_metrics::{detect_onset, OnsetConfig};
//! use bc_rational::Rational;
//!
//! // A run completing one task every 3 timesteps, 1000 tasks.
//! let times: Vec<u64> = (1..=1000).map(|k| 3 * k).collect();
//! let onset = detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default());
//! assert_eq!(onset, Some(302)); // 2nd qualifying window past 300
//! ```

pub mod latency;
pub mod onset;
pub mod plot;
pub mod recovery;
pub mod stats;
pub mod timeline;
pub mod windows;

pub use latency::{latency_profile, per_class_throughput, LatencyProfile, LatencySummary};
pub use onset::{detect_onset, onset_cdf, OnsetConfig};
pub use plot::Chart;
pub use recovery::{chunk_rates, degraded_fraction, time_to_rate};
pub use stats::{ascii_table, csv, median, percentile, Histogram};
pub use timeline::{fold_timelines, trace_end_time, NodeTimeline};
pub use windows::{normalized_curve, window_rates, WindowRate};
