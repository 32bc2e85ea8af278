//! End-to-end and per-layer benchmark of the bandwidth-centric
//! reproduction.
//!
//! Three closed-loop workloads, each one process:
//!
//! * [`paper`] — the paper's §4.1 campaign: paper-default random trees,
//!   10,000 tasks, IC/FB=3 and non-IC/IB=1 over one prepared population,
//!   one thread.
//! * [`grid`] — checkpointed streaming grid sweeps over
//!   `CampaignGrid::default_grid`, two worker threads.
//! * [`serve`] — `bc-serve` session lifecycles driven in-process through
//!   `Server::handle_line`, one client.
//!
//! Untraced runs report the end-to-end metrics, their timings scaled
//! to one reference host speed by [`reference::Gauge`]; traced runs
//! (`--trace 1`) record spans around the benchmark's own calls into each
//! module's public functions and report the per-layer metrics.
//! `manifest.json` (next to `Cargo.toml`) records the default and
//! hold-out seeds, the fingerprints every run checks its outputs
//! against, and which end-to-end metric each per-layer metric should
//! move.

pub mod grid;
pub mod layers;
pub mod paper;
pub mod reference;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// Options shared by every workload.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Directory for checkpoint files and the span file.
    pub out_dir: std::path::PathBuf,
}

impl Opts {
    /// The timed loop's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The manifest embedded at build time.
pub const MANIFEST: &str = include_str!("../manifest.json");

/// The recorded fingerprint of `workload` at `seed`, if the manifest
/// has one (it records the default and hold-out seeds).
pub fn recorded_fingerprint(workload: &str, seed: u64) -> Option<String> {
    // The manifest is small and hand-edited; a line-oriented lookup of
    // `"<workload>/<seed>": "<fingerprint>"` keeps the benchmark free of
    // a JSON dependency.
    let key = format!("\"{workload}/{seed}\":");
    MANIFEST.lines().find_map(|l| {
        let rest = l.trim().strip_prefix(&key)?;
        let v = rest.trim().trim_end_matches(',').trim().trim_matches('"');
        (!v.is_empty()).then(|| v.to_string())
    })
}

/// Compares a run's fingerprint with the manifest (when it records
/// this seed) and records the outcome as a check.
pub fn check_fingerprint(o: &mut report::Outcome, workload: &str, seed: u64, got: &str) {
    o.note("fingerprint", got);
    match recorded_fingerprint(workload, seed) {
        Some(want) => o.check(
            "fingerprint_matches_manifest",
            want == got,
            format!("recorded {want}, got {got}"),
        ),
        None => o.note(
            "fingerprint_check",
            "seed not recorded in manifest.json; self-consistency checks only",
        ),
    }
}

/// Incremental FNV-1a 64 (the same function as
/// `bc_engine::durability::fnv1a64`, fed in pieces).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What a timed loop did.
#[derive(Clone, Debug)]
pub struct LoopStats {
    /// Operations completed.
    pub ops: usize,
    /// Summed wall time of the operations, seconds.
    pub wall_s: f64,
    /// The same, each operation's time divided by the host-speed factor
    /// around it.
    pub scaled_wall_s: f64,
    /// Each operation's host-speed factor, in operation order.
    pub op_factors: Vec<f64>,
    /// CPU time the process used meanwhile, seconds.
    pub cpu_s: f64,
    /// CPU time the hypervisor gave other guests meanwhile, seconds.
    pub steal_s: f64,
}

/// Runs `body` once per timed-loop operation until `opts.seconds` have
/// passed and at least `min_ops` operations ran. Between operations, at
/// most every [`reference::SLICE_EVERY_S`], it runs a slice of `gauge`;
/// the loop's times leave the slices out.
pub fn timed_loop(
    opts: &Opts,
    min_ops: usize,
    gauge: &mut reference::Gauge,
    mut body: impl FnMut(usize),
) -> LoopStats {
    let limit = opts.duration();
    let cpu0 = report::process_cpu_s();
    let steal0 = report::host_steal_s();
    let t0 = std::time::Instant::now();
    let mut spans: Vec<(f64, f64)> = Vec::new();
    let mut last_slice = gauge.now();
    loop {
        let start = gauge.now();
        body(spans.len());
        let end = gauge.now();
        spans.push((start, end));
        if spans.len() >= min_ops && t0.elapsed() >= limit {
            break;
        }
        if end - last_slice >= reference::SLICE_EVERY_S {
            gauge.slice();
            last_slice = gauge.now();
        }
    }
    let op_factors: Vec<f64> = spans
        .iter()
        .map(|&(a, b)| gauge.factor_between(a, b))
        .collect();
    LoopStats {
        ops: spans.len(),
        wall_s: spans.iter().map(|(a, b)| b - a).sum(),
        scaled_wall_s: spans
            .iter()
            .zip(&op_factors)
            .map(|((a, b), f)| (b - a) / f)
            .sum(),
        op_factors,
        cpu_s: report::process_cpu_s() - cpu0,
        steal_s: report::host_steal_s() - steal0,
    }
}

/// Emits the five end-to-end metrics of a timed loop whose operation
/// `k` did `work_per_op` units of work and took `latencies_s[k]`, every
/// timing scaled to the reference host speed by `gauge`, and notes the
/// measured values next to them.
pub fn emit_end_to_end(
    o: &mut report::Outcome,
    stats: &LoopStats,
    work_per_op: f64,
    latencies_s: &[f64],
    tail_pct: f64,
    gauge: &reference::Gauge,
) {
    assert_eq!(latencies_s.len(), stats.ops, "one latency per operation");
    let scaled: Vec<f64> = latencies_s
        .iter()
        .zip(&stats.op_factors)
        .map(|(l, f)| l / f)
        .collect();
    let lat = stats::Latency::from_secs(&scaled, tail_pct);
    let measured = stats::Latency::from_secs(latencies_s, tail_pct);
    let (setup_measured, setup_scaled) = gauge.setup_s();
    let work = work_per_op * stats.ops as f64;
    o.metric("throughput_per_s", work / stats.scaled_wall_s, "1/s");
    o.metric("latency_p50_us", lat.p50_us, "us");
    o.metric("latency_tail_us", lat.tail_us, "us");
    o.metric("setup_s", setup_scaled, "s");
    o.metric("peak_rss_mib", report::peak_rss_mib(), "MiB");
    o.note("latency_samples", lat.samples);
    o.note(
        "tail",
        format!("p{} with {} samples beyond", lat.tail_pct, lat.beyond_tail),
    );
    o.note(
        "unscaled",
        format!(
            "throughput_per_s {:.4}, latency_p50_us {:.1}, latency_tail_us {:.1}, \
             setup_s {setup_measured:.4}",
            work / stats.wall_s,
            measured.p50_us,
            measured.tail_us
        ),
    );
    o.note(
        "timed_loop",
        format!(
            "{} ops in {:.3} s wall ({:.3} s scaled), {:.2} s process cpu, \
             {:.2} s host steal",
            stats.ops, stats.wall_s, stats.scaled_wall_s, stats.cpu_s, stats.steal_s
        ),
    );
    gauge.note(o);
}

/// Time spent on the same operations run without and with spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Paired {
    /// Operations run on each side.
    pub ops: usize,
    /// Summed wall time of the untraced operations, seconds.
    pub untraced_s: f64,
    /// Summed wall time of the traced operations, seconds.
    pub traced_s: f64,
}

impl Paired {
    /// Untraced operations per second.
    pub fn untraced_per_s(&self) -> f64 {
        self.ops as f64 / self.untraced_s
    }

    /// Traced operations per second.
    pub fn traced_per_s(&self) -> f64 {
        self.ops as f64 / self.traced_s
    }

    /// Records both sides' times as provenance.
    pub fn note(&self, o: &mut report::Outcome) {
        o.note(
            "paired_loop",
            format!(
                "{} ops each side: {:.3} s untraced, {:.3} s traced",
                self.ops, self.untraced_s, self.traced_s
            ),
        );
    }
}

/// The traced run's loop: operation `k` runs untraced (`body(k, false)`)
/// and traced (`body(k, true)`), back to back, so drift in machine speed
/// hits both sides alike and their time difference is the tracing
/// overhead. The side that runs first alternates from pair to pair, so
/// neither side always finds the caches warmed by the other. Runs until
/// `opts.seconds` have passed and at least `min_ops` pairs ran.
pub fn paired_loop(opts: &Opts, min_ops: usize, mut body: impl FnMut(usize, bool)) -> Paired {
    let limit = opts.duration();
    let t0 = std::time::Instant::now();
    let mut p = Paired::default();
    loop {
        let traced_first = p.ops % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let t = std::time::Instant::now();
            body(p.ops, traced);
            let s = t.elapsed().as_secs_f64();
            if traced {
                p.traced_s += s;
            } else {
                p.untraced_s += s;
            }
        }
        p.ops += 1;
        if p.ops >= min_ops && t0.elapsed() >= limit {
            break;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_engine() {
        let mut f = Fnv::default();
        f.write(b"hello ");
        f.write(b"world");
        assert_eq!(f.0, bc_engine::durability::fnv1a64(b"hello world"));
    }

    #[test]
    fn timings_scale_by_the_host_factor() {
        let mut gauge = reference::Gauge::default();
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
            trace: false,
            out_dir: ".".into(),
        };
        gauge.setup(|| std::thread::sleep(std::time::Duration::from_millis(3)));
        let mut latencies = Vec::new();
        let stats = timed_loop(&opts, 4, &mut gauge, |_| {
            let t = std::time::Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(2));
            latencies.push(t.elapsed().as_secs_f64());
        });
        assert_eq!(stats.ops, 4);
        let mut o = report::Outcome::default();
        emit_end_to_end(&mut o, &stats, 10.0, &latencies, 50.0, &gauge);
        // Every operation's time is divided by the factor around it: a
        // slower host (factor above 1) reads as shorter times and a
        // higher throughput once scaled, and the reverse.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        assert!(stats.op_factors.iter().all(|f| *f > 0.0));
        let mut scaled: Vec<f64> = latencies
            .iter()
            .zip(&stats.op_factors)
            .map(|(l, f)| l / f * 1e6)
            .collect();
        scaled.sort_by(f64::total_cmp);
        assert!(close(
            o.get("latency_p50_us").unwrap(),
            stats::percentile(&scaled, 50.0)
        ));
        assert!(close(
            stats.scaled_wall_s * o.get("throughput_per_s").unwrap(),
            40.0
        ));
        let (measured, scaled_setup) = gauge.setup_s();
        assert!(measured >= 0.003 && close(o.get("setup_s").unwrap(), scaled_setup));
    }
}
