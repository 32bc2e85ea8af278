//! Kernel profiling hooks: per-event-kind counts and cycle histograms.
//!
//! Compiled in only under the `profile` cargo feature; without it every
//! hook is an empty inline function and the event loop is byte-for-byte
//! the unprofiled one (zero overhead when off — the same discipline as
//! the `NullSink` trace tap). With the feature on, collection is still
//! gated behind a runtime [`enable`] flag so a binary can time a clean
//! campaign first and run a separate instrumented pass for the
//! histogram: the disabled-but-compiled cost is one relaxed load and a
//! predictable branch per event.
//!
//! Cycles come from `rdtsc` on x86_64 (invariant TSC on every deployment
//! target) and from a monotonic nanosecond clock elsewhere; buckets are
//! log2, so the histogram answers "what order of magnitude does one
//! event of this kind cost, cascade included" rather than pretending to
//! nanosecond precision.

#[cfg(feature = "profile")]
mod imp {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Event kinds tracked by the profiler, in histogram order. The
    /// indices match `Event::kind` in `sim.rs`.
    pub const KIND_NAMES: [&str; 8] = [
        "compute_done",
        "send_done",
        "transfer_done",
        "fault",
        "outage_end",
        "request_timeout",
        "reissue",
        "arrival",
    ];
    pub const KINDS: usize = KIND_NAMES.len();
    /// log2 cycle buckets: bucket `b` holds events costing `[2^b, 2^(b+1))`
    /// cycles; the last bucket absorbs everything larger.
    pub const BUCKETS: usize = 24;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static COUNTS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
    #[allow(clippy::declare_interior_mutable_const)]
    static HIST: [[AtomicU64; BUCKETS]; KINDS] =
        [const { [const { AtomicU64::new(0) }; BUCKETS] }; KINDS];

    /// Turns collection on or off (off by default).
    pub fn enable(on: bool) {
        ENABLED.store(on, Ordering::SeqCst);
    }

    /// Zeroes all counters.
    pub fn reset() {
        for c in &COUNTS {
            c.store(0, Ordering::SeqCst);
        }
        for row in &HIST {
            for b in row {
                b.store(0, Ordering::SeqCst);
            }
        }
    }

    #[inline(always)]
    fn cycles() -> u64 {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            std::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            use std::sync::OnceLock;
            use std::time::Instant;
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }
    }

    /// Timestamp at event-dispatch start; 0 when collection is disabled.
    #[inline(always)]
    pub fn start() -> u64 {
        if ENABLED.load(Ordering::Relaxed) {
            cycles()
        } else {
            0
        }
    }

    /// Records one handled event (handler + service cascade) of `kind`
    /// against the timestamp [`start`] returned.
    #[inline(always)]
    pub fn record(kind: usize, t0: u64) {
        if t0 == 0 {
            return;
        }
        let dt = cycles().saturating_sub(t0).max(1);
        let bucket = (63 - u64::leading_zeros(dt) as usize).min(BUCKETS - 1);
        COUNTS[kind].fetch_add(1, Ordering::Relaxed);
        HIST[kind][bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A copyable snapshot of the collected profile.
    #[derive(Clone, Debug, Default)]
    pub struct KernelProfile {
        pub counts: Vec<(&'static str, u64)>,
        /// Per kind: (name, log2-bucket counts).
        pub histograms: Vec<(&'static str, [u64; BUCKETS])>,
    }

    /// Snapshots the current counters (kinds with zero events omitted).
    pub fn snapshot() -> KernelProfile {
        let mut p = KernelProfile::default();
        for k in 0..KINDS {
            let n = COUNTS[k].load(Ordering::SeqCst);
            if n == 0 {
                continue;
            }
            let mut row = [0u64; BUCKETS];
            for (b, cell) in row.iter_mut().enumerate() {
                *cell = HIST[k][b].load(Ordering::SeqCst);
            }
            p.counts.push((KIND_NAMES[k], n));
            p.histograms.push((KIND_NAMES[k], row));
        }
        p
    }
}

#[cfg(feature = "profile")]
pub use imp::*;

// Feature off: every hook is a no-op the optimizer deletes entirely.
#[cfg(not(feature = "profile"))]
mod noop {
    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn enable(_on: bool) {}
    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn reset() {}
    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn start() -> u64 {
        0
    }
    /// No-op without the `profile` feature.
    #[inline(always)]
    pub fn record(_kind: usize, _t0: u64) {}
}

#[cfg(not(feature = "profile"))]
pub use noop::*;
