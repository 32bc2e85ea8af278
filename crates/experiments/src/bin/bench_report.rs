//! Emits the committed benchmark artifacts:
//!
//! * `BENCH_rational.json` — the small-word fast path of `Rational`
//!   against a baseline that forces every intermediate through the
//!   `BigInt`/`BigUint` machinery (the arithmetic every operation
//!   performed before the two-tier representation).
//! * `BENCH_campaign.json` — campaign-scale end-to-end numbers: the
//!   Theorem 1 fold over a tree population, the LP oracle, a full
//!   simulation campaign with its thread-scaling curve, and the
//!   paper-scale campaign (`campaign_paper_scale`: 25 000 random trees,
//!   per-protocol wall-clock / events-per-second / fraction reaching the
//!   optimal steady state).
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
//! `--scaling-trees N` (smoke campaign size, default 256),
//! `--out DIR` (default `.`).

use bc_engine::SimConfig;
use bc_experiments::campaign::{
    accumulate_materialized, fraction_reached, run_campaign_streaming, run_grid_streaming,
    run_variants, run_variants_with, CampaignConfig, CampaignGrid, TreeRun,
};
use bc_metrics::OnsetConfig;
use bc_platform::RandomTreeConfig;
use bc_rational::{BigInt, BigUint, Rational, Sign};
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

fn small_operands(n: usize) -> Vec<Rational> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let num = (state >> 16) as i64 % 10_000 - 5_000;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let den = (state >> 16) % 10_000 + 1;
            Rational::new(num as i128, den as i128)
        })
        .collect()
}

fn big_of(mag: BigUint) -> BigInt {
    BigInt::from_sign_mag(Sign::Positive, mag)
}

/// `a + b` the way the pre-fast-path code computed it: heap-limb cross
/// products plus a full bignum gcd reduction.
fn big_add(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = (a.numer(), a.denom());
    let (bn, bd) = (b.numer(), b.denom());
    let num = an
        .mul(&big_of(bd.clone()))
        .add(&bn.mul(&big_of(ad.clone())));
    Rational::from_parts(num, ad.mul(&bd))
}

fn big_mul(a: &Rational, b: &Rational) -> Rational {
    Rational::from_parts(a.numer().mul(&b.numer()), a.denom().mul(&b.denom()))
}

fn big_sub_mul(cell: &Rational, factor: &Rational, pv: &Rational) -> Rational {
    let prod = big_mul(factor, pv);
    let (cn, cd) = (cell.numer(), cell.denom());
    let (pn, pd) = (prod.numer(), prod.denom());
    let num = cn
        .mul(&big_of(pd.clone()))
        .sub(&pn.mul(&big_of(cd.clone())));
    Rational::from_parts(num, cd.mul(&pd))
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
fn parse_grid_spec(spec: &str, grid: &mut CampaignGrid) {
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (axis, values) = part
            .split_once('=')
            .unwrap_or_else(|| panic!("grid axis {part:?} must look like m=30,120"));
        let nums: Vec<u64> = values
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("grid axis value {v:?} must be a number"))
            })
            .collect();
        assert!(
            !nums.is_empty(),
            "grid axis {axis:?} needs at least one value"
        );
        match axis.trim() {
            "m" => grid.max_nodes = nums.iter().map(|&v| v as usize).collect(),
            "n" => grid.tasks = nums,
            "b" => grid.buffers = nums.iter().map(|&v| v as u32).collect(),
            "d" => grid.comm_max = nums,
            "x" => grid.compute_scale = nums,
            other => panic!("unknown grid axis {other:?}; axes: m n b d x"),
        }
    }
}

/// Parses `--threads` lists: `1,2,4`.
fn parse_threads_list(spec: &str) -> Vec<usize> {
    let counts: Vec<usize> = spec
        .split(',')
        .map(|v| {
            let n = v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("--threads entry {v:?} must be a number"));
            assert!(n > 0, "--threads entries must be at least 1");
            n
        })
        .collect();
    assert!(!counts.is_empty(), "--threads needs at least one count");
    counts
}

/// Runs the campaign repeatedly per thread count — **interleaved**
/// round-robin across the counts, min-of-N per count — and reports the
/// scaling curve. Interleaving means thermal/frequency drift over the
/// measurement window degrades every count's samples equally instead of
/// whichever count happened to run last; the per-count minimum is the
/// drift-free estimate. Results are bit-identical across thread counts
/// (each tree's run depends only on its seed), so only wall-clock moves.
fn threads_curve(campaign: &CampaignConfig, counts: &[usize], rounds: usize) -> Value {
    let mut counts = counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    let rounds = rounds.max(2);
    let mut mins: Vec<f64> = vec![f64::INFINITY; counts.len()];
    let mut events_of: Vec<u64> = vec![0; counts.len()];
    let mut baseline: Option<Vec<(Option<u64>, u64)>> = None;
    // Round 0 is discarded as warm-up for every count (first touch of
    // each worker count pays page faults and pool spin-up).
    for round in 0..=rounds {
        for (k, &n) in counts.iter().enumerate() {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .unwrap();
            let t0 = Instant::now();
            let runs = ic3_runs(campaign);
            let ns = t0.elapsed().as_nanos() as f64;
            let summary: Vec<_> = runs.iter().map(|r| (r.onset, r.end_time)).collect();
            match &baseline {
                None => baseline = Some(summary),
                Some(b) => assert_eq!(b, &summary, "campaign differs at {n} threads"),
            }
            if round > 0 {
                mins[k] = mins[k].min(ns);
            }
            events_of[k] = runs.iter().map(|r| r.events).sum();
        }
    }
    // Back to automatic sizing for the remaining workloads.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .unwrap();
    let points = counts
        .iter()
        .zip(&mins)
        .zip(&events_of)
        .map(|((&n, &ns), &events)| {
            object(vec![
                ("threads", Value::Int(n as i128)),
                ("wall_ms", wall_ms(ns)),
                ("events_per_sec", events_per_sec(events as f64, ns)),
                (
                    "speedup_vs_1_thread",
                    Value::Float(if mins[0].is_finite() {
                        mins[0] / ns
                    } else {
                        1.0
                    }),
                ),
            ])
        })
        .collect();
    object(vec![
        (
            "method",
            Value::Str(format!(
                "interleaved round-robin across thread counts, min of {rounds} samples per \
                 count (1 warm-up round discarded)"
            )),
        ),
        ("host_cpus", Value::Int(host_cpus() as i128)),
        ("points", Value::Array(points)),
    ])
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

/// The `kernel_profile` section: per-event-kind counts and cycle
/// histograms from one instrumented IC/FB=3 pass over `campaign`, separate
/// from every timed run (which keep collection disabled, so the headline
/// numbers never include profiling overhead).
#[cfg(feature = "profile")]
fn kernel_profile(campaign: &CampaignConfig) -> Value {
    bc_engine::profile::reset();
    bc_engine::profile::enable(true);
    let _ = ic3_runs(campaign);
    bc_engine::profile::enable(false);
    let p = bc_engine::profile::snapshot();
    let kinds: Vec<Value> = p
        .counts
        .iter()
        .zip(&p.histograms)
        .map(|(&(name, n), &(_, hist))| {
            let first = hist.iter().position(|&c| c > 0).unwrap_or(0);
            let last = hist.iter().rposition(|&c| c > 0).unwrap_or(0);
            let hist = hist[first..=last].iter().map(|&c| Value::Int(c as i128));
            object(vec![
                ("kind", Value::Str(name.to_string())),
                ("events", Value::Int(n as i128)),
                ("log2_cycles_first_bucket", Value::Int(first as i128)),
                ("log2_cycles_histogram", Value::Array(hist.collect())),
            ])
        })
        .collect();
    let note = "per-event cost in cycles (rdtsc), service cascade included; histogram \
                bucket b counts events costing [2^(first+b), 2^(first+b+1)) cycles";
    object(vec![
        ("enabled", Value::Bool(true)),
        ("note", Value::Str(note.to_string())),
        ("kinds", Value::Array(kinds)),
    ])
}

/// The `kernel_profile` section of a build without the `profile` feature.
#[cfg(not(feature = "profile"))]
fn kernel_profile(_: &CampaignConfig) -> Value {
    let note = "build with `--features profile` to collect per-event-kind cycle histograms";
    object(vec![
        ("enabled", Value::Bool(false)),
        ("note", Value::Str(note.to_string())),
    ])
}

/// The IC/FB=3 runs of `campaign`, the protocol every curve and
/// comparison here times.
fn ic3_runs(campaign: &CampaignConfig) -> Vec<TreeRun> {
    run_variants(campaign, &[SimConfig::interruptible(3, campaign.tasks)]).remove(0)
}

/// The 64-tree benchmark campaign every curve and comparison runs over.
fn bench_campaign() -> CampaignConfig {
    CampaignConfig {
        trees: 64,
        tasks: 2_000,
        seed: 2003,
        tree_config: RandomTreeConfig {
            min_nodes: 10,
            max_nodes: 60,
            comm_min: 1,
            comm_max: 20,
            compute_scale: 500,
        },
        onset: OnsetConfig::default(),
    }
}

/// `--scaling-smoke`: the CI thread-scaling gate. Runs the campaign at 1
/// thread and at the largest requested count, interleaved min-of-N,
/// writes the curve artifact, and (on multi-core hosts) fails unless the
/// parallel run actually beats the serial one by `min_speedup`.
fn scaling_smoke(
    trees: usize,
    counts: &[usize],
    rounds: usize,
    min_speedup: Option<f64>,
    min_events_per_sec: Option<f64>,
    out: &PathBuf,
) {
    let campaign = CampaignConfig {
        trees,
        ..bench_campaign()
    };
    let curve = threads_curve(&campaign, counts, rounds);
    let mut report = object(vec![
        (
            "generated_by",
            Value::Str("bench_report --scaling-smoke".to_string()),
        ),
        ("trees", Value::Int(trees as i128)),
        ("host_cpus", Value::Int(host_cpus() as i128)),
        ("threads_curve", curve.clone()),
        ("kernel_profile", kernel_profile(&campaign)),
    ]);
    sort_keys(&mut report);
    std::fs::create_dir_all(out).expect("create --out directory");
    let path = out.join("SCALING_smoke.json");
    std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("write SCALING_smoke.json");
    println!("wrote {}", path.display());

    let points = match curve.get("points") {
        Some(Value::Array(p)) => p,
        _ => unreachable!("threads_curve always emits points"),
    };
    let wall_of = |idx: usize| match points[idx].get("wall_ms") {
        Some(Value::Float(ms)) => *ms,
        _ => unreachable!("points carry wall_ms"),
    };
    if let Some(min) = min_events_per_sec {
        let idx = (0..points.len())
            .find(|&i| matches!(points[i].get("threads"), Some(Value::Int(1))))
            .expect("--assert-events-per-sec needs a 1-thread point (--threads 1,...)");
        let eps = match points[idx].get("events_per_sec") {
            Some(Value::Float(v)) => *v,
            _ => unreachable!("points carry events_per_sec"),
        };
        println!("single-thread kernel throughput: {eps:.0} events/s (floor {min:.0})");
        assert!(
            eps >= min,
            "single-thread kernel regressed: {eps:.0} events/s is below the floor {min:.0}"
        );
    }
    let first = wall_of(0);
    let last = wall_of(points.len() - 1);
    let speedup = first / last;
    println!(
        "scaling smoke: {first:.2} ms @ {} thread(s) -> {last:.2} ms @ {} thread(s) \
         ({speedup:.2}x)",
        counts.iter().min().unwrap(),
        counts.iter().max().unwrap(),
    );
    if let Some(min) = min_speedup {
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
            counts.iter().max().unwrap()
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
    let campaign = bench_campaign();
    let mut runs = Vec::new();
    let campaign_ns = time_ns(samples, || {
        runs = ic3_runs(&campaign);
    });
    let events: u64 = runs.iter().map(|r| r.events).sum();
    let reached = runs.iter().filter(|r| r.reached()).count();
    let profile = kernel_profile(&campaign);

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
        ("kernel_profile", profile),
        ("threads_curve", curve),
        ("streaming_campaign", streaming),
        ("campaign_paper_scale", paper_scale),
    ])
}

fn main() {
    let mut samples = 15usize;
    let mut out = PathBuf::from(".");
    let all = host_cpus();
    let mut scale = CampaignScale {
        trees: 25_000,
        tasks: 10_000,
        assert_fraction: None,
        curve_threads: {
            let mut c = vec![1usize, 2, 4, all];
            c.sort_unstable();
            c.dedup();
            c
        },
        grid: CampaignGrid::default_grid(6_400, 2003),
        shard_size: 512,
    };
    let mut scaling_smoke_requested = false;
    let mut scaling_trees = 256usize;
    let mut assert_speedup: Option<f64> = None;
    let mut assert_events_per_sec: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--samples" => {
                samples = value("--samples")
                    .parse()
                    .expect("--samples must be a number");
                assert!(samples > 0, "--samples must be at least 1");
            }
            "--campaign-trees" => {
                scale.trees = value("--campaign-trees")
                    .parse()
                    .expect("--campaign-trees must be a number");
                assert!(scale.trees > 0, "--campaign-trees must be at least 1");
            }
            "--campaign-tasks" => {
                scale.tasks = value("--campaign-tasks")
                    .parse()
                    .expect("--campaign-tasks must be a number");
                assert!(scale.tasks > 0, "--campaign-tasks must be at least 1");
            }
            "--assert-optimal-fraction" => {
                let f: f64 = value("--assert-optimal-fraction")
                    .parse()
                    .expect("--assert-optimal-fraction must be a number");
                assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
                scale.assert_fraction = Some(f);
            }
            "--threads" => scale.curve_threads = parse_threads_list(&value("--threads")),
            "--campaign-grid" => parse_grid_spec(&value("--campaign-grid"), &mut scale.grid),
            "--grid-trees-per-cell" => {
                scale.grid.trees_per_cell = value("--grid-trees-per-cell")
                    .parse()
                    .expect("--grid-trees-per-cell must be a number");
                assert!(
                    scale.grid.trees_per_cell > 0,
                    "--grid-trees-per-cell must be at least 1"
                );
            }
            "--shard-size" => {
                scale.shard_size = value("--shard-size")
                    .parse()
                    .expect("--shard-size must be a number");
                assert!(scale.shard_size > 0, "--shard-size must be at least 1");
            }
            "--scaling-smoke" => scaling_smoke_requested = true,
            "--scaling-trees" => {
                scaling_trees = value("--scaling-trees")
                    .parse()
                    .expect("--scaling-trees must be a number");
                assert!(scaling_trees > 0, "--scaling-trees must be at least 1");
            }
            "--assert-threads-speedup" => {
                let f: f64 = value("--assert-threads-speedup")
                    .parse()
                    .expect("--assert-threads-speedup must be a number");
                assert!(f > 0.0, "--assert-threads-speedup must be positive");
                assert_speedup = Some(f);
            }
            "--assert-events-per-sec" => {
                let f: f64 = value("--assert-events-per-sec")
                    .parse()
                    .expect("--assert-events-per-sec must be a number");
                assert!(f > 0.0, "--assert-events-per-sec must be positive");
                assert_events_per_sec = Some(f);
            }
            "--out" => out = PathBuf::from(value("--out")),
            other => panic!(
                "unknown flag {other}; flags: --samples N --campaign-trees N \
                 --campaign-tasks N --assert-optimal-fraction X --threads A,B,.. \
                 --campaign-grid SPEC --grid-trees-per-cell N --shard-size N \
                 --scaling-smoke --scaling-trees N --assert-threads-speedup X \
                 --assert-events-per-sec X --out DIR"
            ),
        }
    }

    if scaling_smoke_requested {
        scaling_smoke(
            scaling_trees,
            &scale.curve_threads,
            samples,
            assert_speedup,
            assert_events_per_sec,
            &out,
        );
        return;
    }

    std::fs::create_dir_all(&out).expect("create --out directory");
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

    let mut campaign = campaign_report(samples, &scale);
    sort_keys(&mut campaign);
    let path = out.join("BENCH_campaign.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&campaign).unwrap() + "\n",
    )
    .expect("write BENCH_campaign.json");
    println!("wrote {}", path.display());
}
