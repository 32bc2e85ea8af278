//! The per-layer metrics of a traced run, derived from its spans.
//!
//! Every traced run emits the same list, in the same order, whatever
//! the workload: a layer the workload does not call from outside reads
//! zero there (`manifest.json` records, per metric, the workload and
//! end-to-end metric it should move).

use crate::report::Outcome;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::Opts;

/// `engine.run` tag of an IC/FB=3 run.
pub const TAG_IC_FB3: u8 = 1;
/// `engine.run` tag of a non-IC/IB=1 run.
pub const TAG_NONIC_IB1: u8 = 2;

/// The `bc-serve` verbs timed per request, as metric infixes.
pub const SERVE_VERBS: [&str; 11] = [
    "open",
    "step",
    "run_until",
    "pause",
    "resume",
    "snapshot",
    "restore",
    "metrics",
    "run",
    "close",
    "status",
];

/// Per-layer figures not derived from spans.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    /// Work-queue wall time × worker threads, summed over parallel
    /// calls (the denominator of `rayon.busy_share`).
    pub rayon_capacity_s: f64,
    /// Worker busy time inside those calls.
    pub rayon_busy_s: f64,
    /// Reused ÷ (created + reused) from the last `status` line.
    pub pool_reuse_ratio: f64,
    /// `error` lines the server emitted.
    pub serve_errors: u64,
    /// Throughput of the same loop without spans.
    pub untraced_throughput: f64,
    /// Throughput with spans.
    pub traced_throughput: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn total_count(tr: &Tracer, name: &str, tag: Option<u8>) -> u64 {
    tr.named(name, tag).map(|s| s.count).sum()
}

fn total_s(tr: &Tracer, name: &str, tag: Option<u8>) -> f64 {
    tr.named(name, tag).map(|s| s.dur_ns() as f64 / 1e9).sum()
}

fn p50_us(tr: &Tracer, name: &str) -> f64 {
    let mut v: Vec<f64> = tr
        .named(name, None)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Per-spans-count nanoseconds per event of the engine runs with `tag`.
fn ns_per_event(tr: &Tracer, tag: Option<u8>) -> f64 {
    ratio(
        total_s(tr, "engine.run", tag) * 1e9,
        total_count(tr, "engine.run", tag) as f64,
    )
}

/// Mean microseconds of the spans named `name` with `tag`.
fn mean_us(tr: &Tracer, name: &str, tag: u8) -> f64 {
    let n = tr.named(name, Some(tag)).count();
    ratio(total_s(tr, name, Some(tag)) * 1e6, n as f64)
}

/// Appends every per-layer metric to `o`.
pub fn emit(o: &mut Outcome, tr: &Tracer, x: &Extras) {
    let analyze_spans = tr.named("steady.analyze", None).count();
    let bignum = tr.named("steady.analyze", Some(1)).count();

    o.metric(
        "platform.generate.busy_s",
        tr.busy_s("platform.generate"),
        "s",
    );
    o.metric(
        "platform.generate.nodes",
        total_count(tr, "platform.generate", None) as f64,
        "count",
    );
    o.metric("steady.analyze.busy_s", tr.busy_s("steady.analyze"), "s");
    o.metric(
        "steady.analyze.us_per_node",
        ratio(
            total_s(tr, "steady.analyze", None) * 1e6,
            total_count(tr, "steady.analyze", None) as f64,
        ),
        "us",
    );
    o.metric(
        "steady.analyze.bignum_share",
        ratio(bignum as f64, analyze_spans as f64),
        "ratio",
    );
    o.metric("engine.run.busy_s", tr.busy_s("engine.run"), "s");
    o.metric(
        "engine.run.events",
        total_count(tr, "engine.run", None) as f64,
        "count",
    );
    o.metric("engine.run.ns_per_event", ns_per_event(tr, None), "ns");
    o.metric(
        "engine.run.ic_fb3.ns_per_event",
        ns_per_event(tr, Some(TAG_IC_FB3)),
        "ns",
    );
    o.metric(
        "engine.run.nonic_ib1.ns_per_event",
        ns_per_event(tr, Some(TAG_NONIC_IB1)),
        "ns",
    );
    o.metric("metrics.onset.busy_s", tr.busy_s("metrics.onset"), "s");
    o.metric(
        "metrics.onset.reached_us_per_tree",
        mean_us(tr, "metrics.onset", 1),
        "us",
    );
    o.metric(
        "metrics.onset.unreached_us_per_tree",
        mean_us(tr, "metrics.onset", 0),
        "us",
    );
    o.metric(
        "experiments.fold.busy_s",
        tr.busy_s("experiments.fold"),
        "s",
    );
    o.metric(
        "experiments.merge.busy_s",
        tr.busy_s("experiments.merge"),
        "s",
    );
    o.metric(
        "rayon.busy_share",
        ratio(x.rayon_busy_s, x.rayon_capacity_s),
        "ratio",
    );
    o.metric(
        "rayon.idle_s",
        (x.rayon_capacity_s - x.rayon_busy_s).max(0.0),
        "s",
    );
    o.metric(
        "durability.save.calls",
        tr.named("durability.save", None).count() as f64,
        "count",
    );
    o.metric(
        "durability.save.p50_us",
        p50_us(tr, "durability.save"),
        "us",
    );
    o.metric(
        "durability.save.bytes",
        ratio(
            total_count(tr, "durability.save", None) as f64,
            tr.named("durability.save", None).count() as f64,
        ),
        "bytes",
    );
    for verb in SERVE_VERBS {
        let name = serve_span_name(verb);
        o.metric(
            format!("serve.{verb}.calls"),
            tr.named(name, None).count() as f64,
            "count",
        );
        o.metric(format!("serve.{verb}.busy_s"), tr.busy_s(name), "s");
        o.metric(format!("serve.{verb}.p50_us"), p50_us(tr, name), "us");
    }
    o.metric("serve.parse.busy_s", tr.busy_s("serve.parse"), "s");
    o.metric(
        "serve.parse.us_per_kib",
        ratio(
            total_s(tr, "serve.parse", None) * 1e6,
            total_count(tr, "serve.parse", None) as f64 / 1024.0,
        ),
        "us",
    );
    o.metric(
        "serve.hex.encode_busy_s",
        tr.busy_s("serve.hex.encode"),
        "s",
    );
    o.metric(
        "serve.hex.decode_busy_s",
        tr.busy_s("serve.hex.decode"),
        "s",
    );
    o.metric("snapshot.encode.busy_s", tr.busy_s("snapshot.encode"), "s");
    o.metric("snapshot.decode.busy_s", tr.busy_s("snapshot.decode"), "s");
    o.metric(
        "snapshot.bytes",
        ratio(
            total_count(tr, "snapshot.decode", None) as f64,
            tr.named("snapshot.decode", None).count() as f64,
        ),
        "bytes",
    );
    o.metric("serve.pool.reuse_ratio", x.pool_reuse_ratio, "ratio");
    o.metric("serve.errors", x.serve_errors as f64, "count");
    o.metric(
        "trace.untraced_throughput_per_s",
        x.untraced_throughput,
        "1/s",
    );
    o.metric("trace.traced_throughput_per_s", x.traced_throughput, "1/s");
    o.metric(
        "trace.overhead_pct",
        100.0 * (ratio(x.untraced_throughput, x.traced_throughput) - 1.0),
        "%",
    );
    o.metric("trace.spans", tr.spans().len() as f64, "count");
}

/// Span name of one `bc-serve` verb's `handle_line` calls.
pub fn serve_span_name(verb: &str) -> &'static str {
    match verb {
        "open" => "serve.open",
        "step" => "serve.step",
        "run_until" => "serve.run_until",
        "pause" => "serve.pause",
        "resume" => "serve.resume",
        "snapshot" => "serve.snapshot",
        "restore" => "serve.restore",
        "metrics" => "serve.metrics",
        "run" => "serve.run",
        "close" => "serve.close",
        "status" => "serve.status",
        other => panic!("untimed verb {other}"),
    }
}

/// Writes the run's spans to `<out>/spans-<workload>-<seed>.jsonl` and
/// notes the path (a failed write fails the run's checks).
pub fn write_spans(o: &mut Outcome, tr: &Tracer, opts: &Opts, workload: &str) {
    let path = opts
        .out_dir
        .join(format!("spans-{workload}-{}.jsonl", opts.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => o.note("spans_file", path.display()),
        Err(e) => o.check("spans_written", false, format!("{}: {e}", path.display())),
    }
}
