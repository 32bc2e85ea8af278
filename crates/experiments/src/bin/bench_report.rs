//! Emits the committed benchmark artifacts:
//!
//! * `BENCH_rational.json` — the small-word fast path of `Rational`
//!   against a baseline that forces every intermediate through the
//!   `BigInt`/`BigUint` machinery (the arithmetic every operation
//!   performed before the two-tier representation).
//! * `BENCH_campaign.json` — campaign-scale end-to-end numbers: the
//!   Theorem 1 fold over a tree population, the LP oracle, a full
//!   simulation campaign with its thread-scaling curve and its exact
//!   event counts by kind (`event_counts`), and the paper-scale campaign
//!   (`campaign_paper_scale`: 25 000 random trees, per-protocol
//!   wall-clock / events-per-second / fraction reaching the optimal
//!   steady state).
//!
//! Flags: `--samples N` (timing samples per workload, default 15),
//! `--campaign-trees N` (paper-scale tree count, default 25 000),
//! `--campaign-tasks N` (tasks per tree, default 10 000),
//! `--assert-optimal-fraction X` (fail unless the IC/FB=3 paper-scale
//! campaign reaches at least `X`; used by the CI smoke job),
//! `--threads A,B,..` (thread counts for the scaling curve, default
//! `1,2,4,<all>`; samples are interleaved across the counts and the
//! minimum per count is reported, so slow thermal/frequency drift hits
//! every count equally instead of polluting whichever ran last),
//! `--campaign-grid m=..;n=..;b=..;d=..;x=..` (grid-sweep axes),
//! `--grid-trees-per-cell N` (default 6 400 — 102 400 trees over the
//! default 16-cell grid), `--shard-size N` (streaming shard size,
//! default 512), `--scaling-smoke` (run only the thread-scaling check:
//! interleaved 1-vs-max-threads campaign, artifact + assertion; used by
//! the CI scaling step), `--assert-threads-speedup X` (with
//! `--scaling-smoke`: fail unless max-threads wall time beats 1-thread
//! by the ratio; skipped with a warning on hosts with < 2 CPUs),
//! `--assert-events-per-sec X` (with `--scaling-smoke`: fail unless the
//! 1-thread point handles at least `X` events/s; `--threads` must
//! include 1), `--scaling-trees N` (smoke campaign size, default 256),
//! `--out DIR` (default `.`).

use bc_engine::SimConfig;
use bc_experiments::campaign::{
    accumulate_materialized, event_counts, fraction_reached, run_campaign_streaming,
    run_grid_streaming, run_variants, run_variants_with, CampaignConfig, CampaignGrid, TreeRun,
};
use bc_experiments::cli::{create_out_dir, number, or_exit, CliError, Flags};
use bc_experiments::rational_baseline::{big_add, big_mul, big_sub_mul, small_operands};
use bc_platform::RandomTreeConfig;
use bc_rational::Rational;
use bc_steady::{lp_optimal_rate, SteadyState};
use rayon::prelude::*;
use serde::{object, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Artifact stability: committed JSON must diff cleanly across
// regenerations, so timing fields are rounded to fixed precision
// (nanosecond tails are pure noise) and every object's keys are sorted
// before writing (layout independent of construction order).
// ---------------------------------------------------------------------------

/// Wall-clock milliseconds from nanoseconds, rounded to 1 µs.
fn wall_ms(ns: f64) -> Value {
    Value::Float((ns / 1e3).round() / 1e3)
}

/// Events per second, rounded to 0.1 events/s.
fn events_per_sec(events: f64, ns: f64) -> Value {
    Value::Float((events / (ns / 1e9) * 10.0).round() / 10.0)
}

/// Recursively sorts every object's keys.
fn sort_keys(v: &mut Value) {
    match v {
        Value::Object(fields) => {
            for (_, child) in fields.iter_mut() {
                sort_keys(child);
            }
            fields.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Value::Array(items) => items.iter_mut().for_each(sort_keys),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Exact peak-live-bytes tracking (for the streaming-vs-materialized
// memory comparison). Gated off outside the measured phases: the only
// overhead the timing workloads see is one relaxed load per allocation.
// ---------------------------------------------------------------------------

static TRACK: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

struct TrackingAlloc;

fn bump(delta: isize) {
    let now = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    let mut peak = PEAK_BYTES.load(Ordering::Relaxed);
    while now > peak {
        match PEAK_BYTES.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            bump(layout.size() as isize);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACK.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            bump(new_size as isize - layout.size() as isize);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Peak live bytes allocated while `f` runs, relative to entry (an
/// exact allocator-level measure: unlike RSS it cannot be hidden by
/// earlier high-water marks or allocator caching).
fn measure_peak_bytes<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE_BYTES.store(0, Ordering::SeqCst);
    PEAK_BYTES.store(0, Ordering::SeqCst);
    TRACK.store(true, Ordering::SeqCst);
    let out = f();
    TRACK.store(false, Ordering::SeqCst);
    (out, PEAK_BYTES.load(Ordering::SeqCst) as i64)
}

/// `VmHWM` (peak RSS) from /proc, in kiB — coarse, monotone over the
/// process lifetime; reported alongside the exact per-phase numbers.
fn peak_rss_kib() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPUs the scheduler will actually give this process.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall time of `samples` runs of `f`, in nanoseconds.
fn time_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

struct Workload {
    name: &'static str,
    small_ns: f64,
    big_ns: f64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.big_ns / self.small_ns
    }

    fn to_value(&self) -> Value {
        object(vec![
            ("name", Value::Str(self.name.to_string())),
            ("small_path_ns", Value::Float(self.small_ns)),
            ("bignum_baseline_ns", Value::Float(self.big_ns)),
            ("speedup", Value::Float(self.speedup())),
        ])
    }
}

fn rational_report(samples: usize) -> (Value, f64) {
    let xs = small_operands(4096);
    let mut workloads = Vec::new();

    // Pairwise ops over adjacent operands: every input and result is
    // word-sized, the regime the fast path exists for (an accumulating
    // fold instead grows lcm-like denominators and degrades both paths
    // to bignum within a few terms).
    let small = time_ns(samples, || {
        let mut touched = 0usize;
        for pair in xs.windows(2) {
            touched += usize::from(!pair[0].add_ref(&pair[1]).is_zero());
        }
        assert!(touched > 0);
    });
    let big = time_ns(samples, || {
        let mut touched = 0usize;
        for pair in xs.windows(2) {
            touched += usize::from(!big_add(&pair[0], &pair[1]).is_zero());
        }
        assert!(touched > 0);
    });
    workloads.push(Workload {
        name: "add_pairwise_4096",
        small_ns: small,
        big_ns: big,
    });

    let small = time_ns(samples, || {
        let mut touched = 0usize;
        for pair in xs.windows(2) {
            touched += usize::from(!pair[0].mul_ref(&pair[1]).is_zero());
        }
        assert!(touched > 0);
    });
    let big = time_ns(samples, || {
        let mut touched = 0usize;
        for pair in xs.windows(2) {
            touched += usize::from(!big_mul(&pair[0], &pair[1]).is_zero());
        }
        assert!(touched > 0);
    });
    workloads.push(Workload {
        name: "mul_pairwise_4096",
        small_ns: small,
        big_ns: big,
    });

    let factor = Rational::new(7, 3);
    let row: Vec<Rational> = xs[..512].to_vec();
    let small = time_ns(samples, || {
        let mut r = row.clone();
        for (cell, pv) in r.iter_mut().zip(row.iter().rev()) {
            cell.sub_mul_assign_ref(&factor, pv);
        }
    });
    let big = time_ns(samples, || {
        let mut r = row.clone();
        for (cell, pv) in r.iter_mut().zip(row.iter().rev()) {
            *cell = big_sub_mul(cell, &factor, pv);
        }
    });
    workloads.push(Workload {
        name: "pivot_sweep_512",
        small_ns: small,
        big_ns: big,
    });

    let geomean =
        (workloads.iter().map(|w| w.speedup().ln()).sum::<f64>() / workloads.len() as f64).exp();

    let report = object(vec![
        ("generated_by", Value::Str("bench_report".to_string())),
        ("samples_per_workload", Value::Int(samples as i128)),
        (
            "baseline",
            Value::Str("same values routed through BigInt/BigUint via from_parts".to_string()),
        ),
        (
            "workloads",
            Value::Array(workloads.iter().map(Workload::to_value).collect()),
        ),
        ("geomean_speedup", Value::Float(geomean)),
    ]);
    (report, geomean)
}

/// Shape of the paper-scale campaign workload.
struct CampaignScale {
    trees: usize,
    tasks: u64,
    /// Fail the report unless IC/FB=3 reaches at least this fraction.
    assert_fraction: Option<f64>,
    /// Thread counts the scaling curve sweeps.
    curve_threads: Vec<usize>,
    /// The streaming grid-sweep datapoint.
    grid: CampaignGrid,
    /// Streaming shard size.
    shard_size: usize,
}

/// Parses `--campaign-grid` axis specs: `m=30,120;n=500;b=2,3;d=10,30;x=100,500`
/// (axes may be omitted; omitted axes keep the default grid's values).
fn parse_grid_spec(spec: &str, grid: &mut CampaignGrid) -> Result<(), CliError> {
    let usage = |msg: String| Err(CliError::Usage(msg));
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let Some((axis, values)) = part.split_once('=') else {
            return usage(format!("grid axis {part:?} must look like m=30,120"));
        };
        let mut nums = Vec::new();
        for v in values.split(',') {
            match v.trim().parse::<u64>() {
                Ok(n) => nums.push(n),
                Err(_) => return usage(format!("grid axis value {v:?} must be a number")),
            }
        }
        match axis.trim() {
            "m" => grid.max_nodes = nums.iter().map(|&v| v as usize).collect(),
            "n" => grid.tasks = nums,
            "b" => grid.buffers = nums.iter().map(|&v| v as u32).collect(),
            "d" => grid.comm_max = nums,
            "x" => grid.compute_scale = nums,
            other => return usage(format!("unknown grid axis {other:?}; axes: m n b d x")),
        }
    }
    Ok(())
}

/// Parses `--threads` lists: `1,2,4`.
fn parse_threads_list(spec: &str) -> Result<Vec<usize>, CliError> {
    spec.split(',')
        .map(|v| match v.trim().parse() {
            Ok(0) => Err(CliError::Usage(
                "--threads entries must be at least 1".into(),
            )),
            Ok(n) => Ok(n),
            Err(_) => Err(CliError::Usage(format!(
                "--threads entry {v:?} must be a number"
            ))),
        })
        .collect()
}

/// One thread count's point on the scaling curve: the minimum wall time
/// over the measured rounds, and the events that run handled.
struct CurvePoint {
    threads: usize,
    wall_ns: f64,
    events: u64,
}

/// The measured thread-scaling curve, one point per distinct count in
/// ascending order.
struct ThreadsCurve {
    rounds: usize,
    points: Vec<CurvePoint>,
}

impl ThreadsCurve {
    fn to_value(&self) -> Value {
        let base_ns = self.points[0].wall_ns;
        let points = self
            .points
            .iter()
            .map(|p| {
                object(vec![
                    ("threads", Value::Int(p.threads as i128)),
                    ("wall_ms", wall_ms(p.wall_ns)),
                    ("events_per_sec", events_per_sec(p.events as f64, p.wall_ns)),
                    ("speedup_vs_1_thread", Value::Float(base_ns / p.wall_ns)),
                ])
            })
            .collect();
        object(vec![
            (
                "method",
                Value::Str(format!(
                    "interleaved round-robin across thread counts, min of {} samples per \
                     count (1 warm-up round discarded)",
                    self.rounds
                )),
            ),
            ("host_cpus", Value::Int(host_cpus() as i128)),
            ("points", Value::Array(points)),
        ])
    }
}

/// Runs the campaign repeatedly per thread count — **interleaved**
/// round-robin across the counts, min-of-N per count — and reports the
/// scaling curve. Interleaving means thermal/frequency drift over the
/// measurement window degrades every count's samples equally instead of
/// whichever count happened to run last; the per-count minimum is the
/// drift-free estimate. Results are bit-identical across thread counts
/// (each tree's run depends only on its seed), so only wall-clock moves.
fn threads_curve(campaign: &CampaignConfig, counts: &[usize], rounds: usize) -> ThreadsCurve {
    let mut counts = counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    let rounds = rounds.max(2);
    let mut points: Vec<CurvePoint> = counts
        .iter()
        .map(|&threads| CurvePoint {
            threads,
            wall_ns: f64::INFINITY,
            events: 0,
        })
        .collect();
    let mut baseline: Option<Vec<(Option<u64>, u64)>> = None;
    // Round 0 is discarded as warm-up for every count (first touch of
    // each worker count pays page faults and pool spin-up).
    for round in 0..=rounds {
        for p in &mut points {
            rayon::ThreadPoolBuilder::new()
                .num_threads(p.threads)
                .build_global()
                .expect("configure worker threads");
            let t0 = Instant::now();
            let runs = ic3_runs(campaign);
            let ns = t0.elapsed().as_nanos() as f64;
            let summary: Vec<_> = runs.iter().map(|r| (r.onset, r.end_time)).collect();
            match &baseline {
                None => baseline = Some(summary),
                Some(b) => assert_eq!(b, &summary, "campaign differs at {} threads", p.threads),
            }
            if round > 0 {
                p.wall_ns = p.wall_ns.min(ns);
            }
            p.events = runs.iter().map(|r| r.events).sum();
        }
    }
    // Back to automatic sizing for the remaining workloads.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("configure worker threads");
    ThreadsCurve { rounds, points }
}

/// The streaming-vs-materialized comparison on the 64-tree campaign plus
/// the grid-sweep datapoint: wall clock, exact peak live bytes, and the
/// bit-identical aggregate check between the two modes.
fn streaming_report(campaign: &CampaignConfig, grid: &CampaignGrid, shard_size: usize) -> Value {
    // Materialized (full): keep every TreeRun + RunResult, aggregate
    // post-hoc — what any consumer needs to recover the same statistics
    // after the fact.
    let t0 = Instant::now();
    let (materialized, mat_peak) = measure_peak_bytes(|| {
        let ic3 = [SimConfig::interruptible(3, campaign.tasks)];
        run_variants_with(campaign, &ic3, |run, result| (run, result)).remove(0)
    });
    let mat_ns = t0.elapsed().as_nanos() as f64;
    let reference = accumulate_materialized(&materialized);
    drop(materialized);

    // Materialized (summaries only): the pre-streaming campaign mode —
    // per-tree TreeRun summaries, raw results dropped eagerly.
    let (_runs, summaries_peak) = measure_peak_bytes(|| ic3_runs(campaign));

    // Streaming sharded: accumulators only.
    let t0 = Instant::now();
    let (streamed, stream_peak) = measure_peak_bytes(|| {
        run_campaign_streaming(campaign, shard_size, |t| SimConfig::interruptible(3, t))
    });
    let stream_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(
        streamed, reference,
        "streamed aggregate differs from the materialized reference"
    );

    // Grid sweep: the fleet-scale datapoint, streaming mode only (the
    // whole point is that this scale never materializes).
    let total_trees = grid.total_trees();
    let t0 = Instant::now();
    let (cells, grid_peak) = measure_peak_bytes(|| {
        run_grid_streaming(grid, shard_size, |c| {
            SimConfig::interruptible(c.buffers, c.tasks)
        })
    });
    let grid_ns = t0.elapsed().as_nanos() as f64;
    let grid_events: u128 = cells.iter().map(|(_, a)| a.run_stats.events).sum();
    let grid_reached: u64 = cells.iter().map(|(_, a)| a.reached).sum();
    let worst_cell = cells
        .iter()
        .map(|(c, a)| (a.fraction_reached(), c.index))
        .fold(
            (f64::INFINITY, 0),
            |acc, x| if x.0 < acc.0 { x } else { acc },
        );
    let bytes_per_tree_streaming = grid_peak as f64 / total_trees as f64;

    object(vec![
        (
            "campaign_64_trees",
            object(vec![
                ("trees", Value::Int(campaign.trees as i128)),
                ("shard_size", Value::Int(shard_size as i128)),
                ("materialized_full_wall_ms", wall_ms(mat_ns)),
                ("materialized_full_peak_bytes", Value::Int(mat_peak as i128)),
                (
                    "materialized_summaries_peak_bytes",
                    Value::Int(summaries_peak as i128),
                ),
                ("streaming_wall_ms", wall_ms(stream_ns)),
                ("streaming_peak_bytes", Value::Int(stream_peak as i128)),
                (
                    "peak_bytes_ratio_full_vs_streaming",
                    Value::Float(mat_peak as f64 / (stream_peak.max(1)) as f64),
                ),
                ("aggregates_bit_identical", Value::Bool(true)),
            ]),
        ),
        (
            "grid_sweep",
            object(vec![
                ("cells", Value::Int(cells.len() as i128)),
                ("trees_total", Value::Int(total_trees as i128)),
                ("shard_size", Value::Int(shard_size as i128)),
                ("wall_ms", wall_ms(grid_ns)),
                ("events_total", Value::Int(grid_events as i128)),
                (
                    "events_per_sec",
                    events_per_sec(grid_events as f64, grid_ns),
                ),
                ("streaming_peak_bytes", Value::Int(grid_peak as i128)),
                (
                    "streaming_peak_bytes_per_tree",
                    Value::Float(bytes_per_tree_streaming),
                ),
                (
                    "fraction_reached_overall",
                    Value::Float(grid_reached as f64 / total_trees as f64),
                ),
                ("worst_cell_fraction", Value::Float(worst_cell.0)),
                ("worst_cell_index", Value::Int(worst_cell.1 as i128)),
            ]),
        ),
        (
            "peak_rss_kib_process_lifetime",
            peak_rss_kib().map_or(Value::Null, |v| Value::Int(v as i128)),
        ),
    ])
}

/// The paper's evaluation shape (§4.1): `trees` random trees from the
/// default generator under both protocols. `prepare_wall_ms` times one
/// preparation pass (generation + Theorem 1) on its own; each protocol's
/// `wall_ms` is its campaign through [`run_variants`], which prepares
/// every tree again alongside its simulation.
fn paper_scale_report(scale: &CampaignScale) -> Value {
    let campaign = CampaignConfig::paper(scale.trees, scale.tasks, 2003);
    let t0 = Instant::now();
    let sizes: Vec<usize> = (0..campaign.trees)
        .into_par_iter()
        .map(|i| campaign.prepare(i).tree.len())
        .collect();
    let prepare_ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(sizes);

    let mut protocols = Vec::new();
    let runs_of = [
        ("ic_fb3", SimConfig::interruptible(3, scale.tasks)),
        ("nonic_ib1", SimConfig::non_interruptible(1, scale.tasks)),
    ];
    for (name, config) in runs_of {
        let t0 = Instant::now();
        let runs = run_variants(&campaign, &[config]).remove(0);
        let ns = t0.elapsed().as_nanos() as f64;
        let events: u64 = runs.iter().map(|r| r.events).sum();
        let fraction = fraction_reached(&runs);
        if name == "ic_fb3" {
            if let Some(min) = scale.assert_fraction {
                assert!(
                    fraction >= min,
                    "IC/FB=3 reached optimal on only {fraction:.4} of trees (required {min})"
                );
            }
        }
        protocols.push(object(vec![
            ("protocol", Value::Str(name.to_string())),
            ("wall_ms", wall_ms(ns)),
            ("events_total", Value::Int(events as i128)),
            ("events_per_sec", events_per_sec(events as f64, ns)),
            ("fraction_reached_optimal", Value::Float(fraction)),
        ]));
    }

    object(vec![
        ("trees", Value::Int(scale.trees as i128)),
        ("tasks_per_tree", Value::Int(scale.tasks as i128)),
        ("threads", Value::Int(rayon::current_num_threads() as i128)),
        ("prepare_wall_ms", wall_ms(prepare_ns)),
        ("protocols", Value::Array(protocols)),
    ])
}

/// The `event_counts` section: per protocol, the agenda events handled
/// and the trace records per kind over `campaign` (exact counts from
/// [`event_counts`], taken in a traced pass apart from every timed run).
fn event_counts_report(campaign: &CampaignConfig) -> Value {
    let protocols = [
        ("ic_fb3", SimConfig::interruptible(3, campaign.tasks)),
        ("nonic_ib1", SimConfig::non_interruptible(1, campaign.tasks)),
    ];
    let mut fields: Vec<(&str, Value)> = protocols
        .iter()
        .map(|(name, config)| {
            let counts = event_counts(campaign, config);
            let kinds = counts
                .by_kind
                .iter()
                .map(|(&kind, &n)| (kind, Value::Int(n as i128)))
                .collect();
            let entry = object(vec![
                ("events_total", Value::Int(counts.events_total as i128)),
                ("trace_records_by_kind", object(kinds)),
            ]);
            (*name, entry)
        })
        .collect();
    let note = "events_total counts agenda events; trace_records_by_kind counts trace records \
                per TraceEvent::kind. In these fault-free runs every event is a compute-finish \
                or a transfer completion, so events_total minus compute-finish is the number of \
                transfer events";
    fields.push(("note", Value::Str(note.to_string())));
    object(fields)
}

/// The IC/FB=3 runs of `campaign`, the protocol every curve and
/// comparison here times.
fn ic3_runs(campaign: &CampaignConfig) -> Vec<TreeRun> {
    run_variants(campaign, &[SimConfig::interruptible(3, campaign.tasks)]).remove(0)
}

/// `--scaling-smoke`: the CI thread-scaling gate. Runs the campaign at 1
/// thread and at the largest requested count, interleaved min-of-N,
/// writes the curve artifact, and (on multi-core hosts) fails unless the
/// parallel run actually beats the serial one by
/// `--assert-threads-speedup`, and the 1-thread point handles at least
/// `--assert-events-per-sec`.
fn scaling_smoke(args: &Args) {
    let trees = args.scaling_trees;
    let campaign = CampaignConfig {
        trees,
        ..CampaignConfig::reference()
    };
    let curve = threads_curve(&campaign, &args.scale.curve_threads, args.samples);
    let mut report = object(vec![
        (
            "generated_by",
            Value::Str("bench_report --scaling-smoke".to_string()),
        ),
        ("trees", Value::Int(trees as i128)),
        ("host_cpus", Value::Int(host_cpus() as i128)),
        ("threads_curve", curve.to_value()),
    ]);
    sort_keys(&mut report);
    let path = args.out.join("SCALING_smoke.json");
    std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("write SCALING_smoke.json");
    println!("wrote {}", path.display());

    // Parsing checked that `--threads` includes 1 when this floor is set.
    let one_thread = curve.points.iter().find(|p| p.threads == 1);
    if let (Some(min), Some(p)) = (args.assert_events_per_sec, one_thread) {
        let eps = p.events as f64 / (p.wall_ns / 1e9);
        println!("single-thread kernel throughput: {eps:.0} events/s (floor {min:.0})");
        assert!(
            eps >= min,
            "single-thread kernel regressed: {eps:.0} events/s is below the floor {min:.0}"
        );
    }
    let (first, last) = (&curve.points[0], &curve.points[curve.points.len() - 1]);
    let speedup = first.wall_ns / last.wall_ns;
    println!(
        "scaling smoke: {:.2} ms @ {} thread(s) -> {:.2} ms @ {} thread(s) ({speedup:.2}x)",
        first.wall_ns / 1e6,
        first.threads,
        last.wall_ns / 1e6,
        last.threads,
    );
    if let Some(min) = args.assert_speedup {
        if host_cpus() < 2 {
            println!(
                "WARNING: host exposes {} CPU(s); parallel speedup is not observable here, \
                 skipping the >= {min:.2}x assertion (the curve artifact was still written)",
                host_cpus()
            );
            return;
        }
        assert!(
            speedup >= min,
            "thread scaling regressed: {}-thread wall time is only {speedup:.2}x faster than \
             1 thread (required {min:.2}x)",
            last.threads
        );
    }
}

fn campaign_report(samples: usize, scale: &CampaignScale) -> Value {
    // Theorem 1 fold over a population slice.
    let cfg = RandomTreeConfig {
        min_nodes: 20,
        max_nodes: 80,
        comm_min: 1,
        comm_max: 30,
        compute_scale: 500,
    };
    let trees: Vec<_> = (0..100).map(|s| cfg.generate(s)).collect();
    let analyze_ns = time_ns(samples, || {
        let mut acc = 0.0;
        for t in &trees {
            acc += SteadyState::analyze(t).optimal_rate().to_f64();
        }
        assert!(acc > 0.0);
    });

    // Paper-scale single analysis (deep trees promote to the big tier).
    let paper_tree = RandomTreeConfig::default().generate(7);
    let paper_ns = time_ns(samples, || {
        assert!(SteadyState::analyze(&paper_tree)
            .optimal_rate()
            .is_positive());
    });

    // LP oracle on a small tree (exact simplex, pivot-sweep bound).
    let lp_tree = RandomTreeConfig {
        min_nodes: 14,
        max_nodes: 16,
        comm_min: 1,
        comm_max: 10,
        compute_scale: 50,
    }
    .generate(42);
    let lp_ns = time_ns(samples, || {
        assert!(lp_optimal_rate(&lp_tree).is_positive());
    });

    // Full simulation campaign (generation + oracle + protocol).
    // Median of `samples` runs: a single shot can land on a cold-cache
    // or thermally-throttled window and misreport the budget number the
    // ≤2% regression check compares against.
    let campaign = CampaignConfig::reference();
    let mut runs = Vec::new();
    let campaign_ns = time_ns(samples, || {
        runs = ic3_runs(&campaign);
    });
    let events: u64 = runs.iter().map(|r| r.events).sum();
    let reached = runs.iter().filter(|r| r.reached()).count();
    let counts = event_counts_report(&campaign);

    let curve = threads_curve(&campaign, &scale.curve_threads, samples);
    let streaming = streaming_report(&campaign, &scale.grid, scale.shard_size);
    let paper_scale = paper_scale_report(scale);

    object(vec![
        ("generated_by", Value::Str("bench_report".to_string())),
        ("samples_per_workload", Value::Int(samples as i128)),
        (
            "host",
            object(vec![
                ("cpus", Value::Int(host_cpus() as i128)),
                (
                    "note",
                    Value::Str(
                        "wall-clock parallel speedup is bounded by this CPU count; campaign \
                         results themselves are bit-identical at any thread count"
                            .to_string(),
                    ),
                ),
                (
                    "clock_note",
                    Value::Str(
                        "timings are wall clock on one host at one time; a shared or \
                         virtualized host's speed can drift by 1.5-2x between runs, so judge \
                         a change by interleaved runs of both commits, not against this file"
                            .to_string(),
                    ),
                ),
            ]),
        ),
        (
            "steady_analyze_100_trees",
            object(vec![
                ("wall_ms", wall_ms(analyze_ns)),
                (
                    "per_tree_us",
                    Value::Float(analyze_ns / 1e3 / trees.len() as f64),
                ),
            ]),
        ),
        (
            "steady_analyze_paper_scale_tree",
            object(vec![
                ("nodes", Value::Int(paper_tree.len() as i128)),
                ("wall_ms", wall_ms(paper_ns)),
            ]),
        ),
        (
            "lp_oracle_16_nodes",
            object(vec![("wall_ms", wall_ms(lp_ns))]),
        ),
        (
            "simulation_campaign",
            object(vec![
                ("trees", Value::Int(campaign.trees as i128)),
                ("tasks_per_tree", Value::Int(campaign.tasks as i128)),
                ("wall_ms", wall_ms(campaign_ns)),
                ("events_total", Value::Int(events as i128)),
                ("events_per_sec", events_per_sec(events as f64, campaign_ns)),
                (
                    "fraction_reached_optimal",
                    Value::Float(reached as f64 / runs.len() as f64),
                ),
            ]),
        ),
        ("event_counts", counts),
        ("threads_curve", curve.to_value()),
        ("streaming_campaign", streaming),
        ("campaign_paper_scale", paper_scale),
    ])
}

const USAGE: &str = "flags: --samples N --campaign-trees N --campaign-tasks N \
                     --assert-optimal-fraction X --threads A,B,.. --campaign-grid SPEC \
                     --grid-trees-per-cell N --shard-size N --scaling-smoke --scaling-trees N \
                     --assert-threads-speedup X --assert-events-per-sec X --out DIR";

struct Args {
    samples: usize,
    out: PathBuf,
    scale: CampaignScale,
    scaling_smoke: bool,
    scaling_trees: usize,
    assert_speedup: Option<f64>,
    assert_events_per_sec: Option<f64>,
}

fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let all = host_cpus();
    let mut a = Args {
        samples: 15,
        out: PathBuf::from("."),
        scale: CampaignScale {
            trees: 25_000,
            tasks: 10_000,
            assert_fraction: None,
            curve_threads: vec![1, 2, 4, all],
            grid: CampaignGrid::default_grid(6_400, 2003),
            shard_size: 512,
        },
        scaling_smoke: false,
        scaling_trees: 256,
        assert_speedup: None,
        assert_events_per_sec: None,
    };
    let positive = |flag: &str, raw: String| match number::<f64>(flag, &raw)? {
        f if f > 0.0 => Ok(f),
        _ => Err(CliError::Usage(format!("{flag} must be positive"))),
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--samples" => a.samples = flags.at_least_one("--samples")?,
            "--campaign-trees" => a.scale.trees = flags.at_least_one("--campaign-trees")?,
            "--campaign-tasks" => a.scale.tasks = flags.at_least_one("--campaign-tasks")?,
            "--assert-optimal-fraction" => {
                let f: f64 = flags.number("--assert-optimal-fraction")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::Usage("fraction must be in [0, 1]".into()));
                }
                a.scale.assert_fraction = Some(f);
            }
            "--threads" => a.scale.curve_threads = parse_threads_list(&flags.value("--threads")?)?,
            "--campaign-grid" => {
                parse_grid_spec(&flags.value("--campaign-grid")?, &mut a.scale.grid)?
            }
            "--grid-trees-per-cell" => {
                a.scale.grid.trees_per_cell = flags.at_least_one("--grid-trees-per-cell")?
            }
            "--shard-size" => a.scale.shard_size = flags.at_least_one("--shard-size")?,
            "--scaling-smoke" => a.scaling_smoke = true,
            "--scaling-trees" => a.scaling_trees = flags.at_least_one("--scaling-trees")?,
            "--assert-threads-speedup" => {
                let raw = flags.value("--assert-threads-speedup")?;
                a.assert_speedup = Some(positive("--assert-threads-speedup", raw)?);
            }
            "--assert-events-per-sec" => {
                let raw = flags.value("--assert-events-per-sec")?;
                a.assert_events_per_sec = Some(positive("--assert-events-per-sec", raw)?);
            }
            "--out" => a.out = PathBuf::from(flags.value("--out")?),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::unknown(other)),
        }
    }
    if a.scaling_smoke && a.assert_events_per_sec.is_some() && !a.scale.curve_threads.contains(&1) {
        return Err(CliError::Usage(
            "--assert-events-per-sec needs a 1-thread point (--threads 1,...)".into(),
        ));
    }
    Ok(a)
}

fn main() {
    let args = or_exit(try_parse(std::env::args().skip(1)), USAGE);
    or_exit(create_out_dir(&args.out), USAGE);
    if args.scaling_smoke {
        scaling_smoke(&args);
        return;
    }
    let (samples, out) = (args.samples, &args.out);

    let (mut rational, geomean) = rational_report(samples);
    sort_keys(&mut rational);
    let path = out.join("BENCH_rational.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&rational).unwrap() + "\n",
    )
    .expect("write BENCH_rational.json");
    println!(
        "wrote {} (geomean small-path speedup: {:.2}x)",
        path.display(),
        geomean
    );

    let mut campaign = campaign_report(samples, &args.scale);
    sort_keys(&mut campaign);
    let path = out.join("BENCH_campaign.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&campaign).unwrap() + "\n",
    )
    .expect("write BENCH_campaign.json");
    println!("wrote {}", path.display());
}
