//! `grid_sweep`: checkpointed streaming grid sweeps, closed loop, two
//! worker threads.
//!
//! Each operation is one `run_grid_streaming_checkpointed` job over
//! `CampaignGrid::default_grid` (16 cells: m ∈ {30, 120}, n = 500,
//! b ∈ {2, 3}, d ∈ {10, 30}, x ∈ {100, 500}) with a fresh seed derived
//! from the workload seed and a fresh checkpoint directory, saving at
//! the CLI default of every 8 work items.
//!
//! The traced run drives the same (cell, shard) work list itself, with
//! the same public calls per tree (`campaign_tree`,
//! `SteadyState::analyze`, `SimWorkspace::run`,
//! `CampaignAccumulator::record`) and per chunk (`merge`,
//! `CheckpointStore::save` of the cells' accumulator bytes), and must
//! reproduce the untraced per-cell aggregates exactly.

use crate::reference::Gauge;
use crate::report::{fnv_hex, Outcome};
use crate::stats::min_samples_for_tail;
use crate::trace::Tracer;
use crate::{check_fingerprint, emit_end_to_end, layers, paired_loop, timed_loop, Opts};
use bc_engine::durability::{CheckpointKind, CheckpointStore};
use bc_engine::{SimConfig, SimWorkspace};
use bc_experiments::campaign::{
    campaign_tree, run_grid_streaming_checkpointed, CampaignAccumulator, CampaignGrid,
    CheckpointPolicy, GridCell,
};
use bc_simcore::split_seed;
use bc_steady::SteadyState;
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "grid_sweep";

/// Tail percentile reported as `latency_tail_us` (p90: a run measures
/// at least 100 jobs, not the 200 that p95 would need).
pub const TAIL_PCT: f64 = 90.0;

/// Worker threads of the sweep's work queue.
pub const THREADS: usize = 2;

/// Streaming shard size (the CLI default).
pub const SHARD_SIZE: usize = 512;

/// Work items between checkpoints (the CLI default).
pub const CHECKPOINT_EVERY: usize = 8;

/// Sweep sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Random trees per grid cell in one job.
    pub trees_per_cell: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale { trees_per_cell: 40 };
}

fn cell_config(c: &GridCell) -> SimConfig {
    SimConfig::interruptible(c.buffers, c.tasks)
}

/// Job `k`'s grid: the default grid with a seed derived from the
/// workload seed.
fn job_grid(seed: u64, k: u64, scale: Scale) -> CampaignGrid {
    CampaignGrid::default_grid(scale.trees_per_cell, split_seed(seed, k))
}

/// FNV-1a of every cell's `encode_into` bytes, in cell order.
fn cells_fingerprint(cells: &[(GridCell, CampaignAccumulator)]) -> String {
    let mut bytes = Vec::new();
    for (_, acc) in cells {
        acc.encode_into(&mut bytes);
    }
    fnv_hex(&bytes)
}

/// One untraced sweep job; `Err` describes a failed or incomplete one.
fn sweep(grid: &CampaignGrid, dir: &Path) -> Result<Vec<(GridCell, CampaignAccumulator)>, String> {
    let policy = CheckpointPolicy::new(dir, CHECKPOINT_EVERY);
    let outcome = run_grid_streaming_checkpointed(grid, SHARD_SIZE, cell_config, &policy)
        .map_err(|e| e.to_string())?;
    if !outcome.completed || outcome.shards_done != outcome.shards_total {
        return Err(format!(
            "sweep stopped at {}/{} work items",
            outcome.shards_done, outcome.shards_total
        ));
    }
    if let Some((cell, acc)) = outcome
        .results
        .iter()
        .find(|(_, acc)| acc.trees() != grid.trees_per_cell as u64)
    {
        return Err(format!("cell {} folded {} trees", cell.index, acc.trees()));
    }
    Ok(outcome.results)
}

/// Parallel-call accounting for `rayon.busy_share`.
#[derive(Default)]
struct QueueUse {
    capacity_s: f64,
    busy_s: f64,
}

/// One traced sweep job: the work list of
/// `run_grid_streaming_checkpointed`, driven from here under spans.
fn sweep_traced(
    grid: &CampaignGrid,
    dir: &Path,
    job: u64,
    tr: &mut Tracer,
    queue: &mut QueueUse,
    origin: Instant,
) -> Result<Vec<(GridCell, CampaignAccumulator)>, String> {
    let cells = grid.cells();
    let campaigns: Vec<_> = cells.iter().map(|c| grid.cell_campaign(c)).collect();
    let mut tasks = Vec::new();
    for ci in 0..cells.len() {
        let mut start = 0;
        while start < grid.trees_per_cell {
            let end = (start + SHARD_SIZE).min(grid.trees_per_cell);
            tasks.push((ci, start, end));
            start = end;
        }
    }
    let mut store = CheckpointStore::open(dir, "grid", CheckpointKind::Campaign, 2)
        .map_err(|e| e.to_string())?;
    let mut out: Vec<(GridCell, CampaignAccumulator)> = cells
        .iter()
        .cloned()
        .map(|c| (c, CampaignAccumulator::new()))
        .collect();
    let mut cursor = 0;
    while cursor < tasks.len() {
        let chunk_end = (cursor + CHECKPOINT_EVERY).min(tasks.len());
        let workers = THREADS.min(chunk_end - cursor);
        let chunk = tr.begin("grid.chunk", job);
        let t0 = Instant::now();
        let done: Vec<(usize, CampaignAccumulator, Tracer)> = tasks[cursor..chunk_end]
            .par_iter()
            .map_init(SimWorkspace::new, |ws, &(ci, start, end)| {
                let mut wt = Tracer::new(origin);
                let shard = wt.begin("grid.shard", job);
                let cell = &cells[ci];
                let campaign = &campaigns[ci];
                let mut acc = CampaignAccumulator::new();
                for i in start..end {
                    let id = wt.begin("platform.generate", job);
                    let tree = campaign_tree(&campaign.tree_config, campaign.seed, i);
                    wt.end(id, 0, tree.len() as u64);
                    let id = wt.begin("steady.analyze", job);
                    let analysis = SteadyState::analyze(&tree);
                    wt.end(id, 0, tree.len() as u64);
                    wt.annotate(id, u8::from(!analysis.optimal_rate().is_small()));
                    let id = wt.begin("engine.run", job);
                    let result = ws.run(tree.clone(), cell_config(cell));
                    wt.end(id, 0, result.events_processed);
                    let id = wt.begin("experiments.fold", job);
                    acc.record(i, &tree, &analysis, &result, campaign.onset);
                    wt.end(id, 0, 1);
                }
                wt.end(shard, 0, (end - start) as u64);
                (ci, acc, wt)
            })
            .collect();
        queue.capacity_s += t0.elapsed().as_secs_f64() * workers as f64;
        for (ci, acc, wt) in done {
            queue.busy_s += wt.spans()[0].dur_ns() as f64 / 1e9;
            tr.absorb(wt);
            let id = tr.begin("experiments.merge", job);
            out[ci].1.merge(&acc);
            tr.end(id, 0, 1);
        }
        cursor = chunk_end;
        // The cells' accumulator bytes: the bulk of the sweep's own
        // checkpoint payload, so each save costs what the sweep's does.
        let mut payload = Vec::new();
        for (_, acc) in &out {
            acc.encode_into(&mut payload);
        }
        let id = tr.begin("durability.save", job);
        let saved = store.save(&payload);
        tr.end(id, 0, payload.len() as u64);
        saved.map_err(|e| e.to_string())?;
        tr.end(chunk, 0, 0);
    }
    Ok(out)
}

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("the vendored pool accepts any thread count");
}

/// Runs the workload.
pub fn run(opts: &Opts, scale: Scale) -> Outcome {
    let root: PathBuf = opts
        .out_dir
        .join(format!("grid-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut o = Outcome::default();
    o.note("trees_per_cell", scale.trees_per_cell);
    o.note("loop", format!("closed, {THREADS} worker threads"));
    let min_ops = min_samples_for_tail(TAIL_PCT);
    let trees_per_job = job_grid(opts.seed, 0, scale).total_trees() as f64;
    let job_dir = |phase: &str, k: usize| root.join(format!("{phase}-{k}"));

    // Set-up: the worker count and one cold warm-up job, which faults in
    // the allocator arenas and the checkpoint path (its seed is disjoint
    // from the timed jobs'). The vendored work queue keeps no pool and
    // each job builds its own workspaces, so nothing else persists into
    // the timed loop, and this cold job is the only set-up there is: one
    // sample per run.
    let mut gauge = Gauge::default();
    let warmup = CampaignGrid::default_grid(scale.trees_per_cell, split_seed(!opts.seed, 0));
    let warmed = gauge.setup(|| {
        set_threads(THREADS);
        sweep(&warmup, &job_dir("warmup", 0))
    });
    if let Err(e) = warmed {
        o.check("warmup_sweep", false, e);
    }

    let mut fingerprints: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    let mut sweep_job = |k: usize, fingerprints: &mut Vec<String>, failed: &mut u64| {
        let grid = job_grid(opts.seed, k as u64, scale);
        let t0 = Instant::now();
        let r = sweep(&grid, &job_dir("job", k));
        latencies.push(t0.elapsed().as_secs_f64());
        match r {
            Ok(cells) => fingerprints.push(cells_fingerprint(&cells)),
            Err(e) => {
                *failed += 1;
                fingerprints.push(format!("failed: {e}"));
            }
        }
    };

    if !opts.trace {
        let stats = timed_loop(opts, min_ops, &mut gauge, |k| {
            sweep_job(k, &mut fingerprints, &mut failed)
        });
        o.attempted = stats.ops as u64;
        o.failed = failed;
        emit_end_to_end(&mut o, &stats, trees_per_job, &latencies, TAIL_PCT, &gauge);

        // Job 0 again on one thread: the aggregates must not depend on
        // the worker count.
        set_threads(1);
        let one = sweep(&job_grid(opts.seed, 0, scale), &job_dir("one-thread", 0))
            .map(|c| cells_fingerprint(&c));
        set_threads(THREADS);
        o.check(
            "one_thread_matches_two",
            one.as_ref() == Ok(&fingerprints[0]),
            format!("1 thread {one:?}, {THREADS} threads {}", fingerprints[0]),
        );
        check_fingerprint(&mut o, NAME, opts.seed, &fingerprints[0]);
    } else {
        // Every job untraced and traced, back to back (no tail
        // percentile here, so no minimum sample count).
        let origin = Instant::now();
        let mut tr = Tracer::new(origin);
        let mut queue = QueueUse::default();
        let mut traced_fps: Vec<String> = Vec::new();
        let paired = paired_loop(opts, 1, |k, with_spans| {
            if !with_spans {
                return sweep_job(k, &mut fingerprints, &mut failed);
            }
            let grid = job_grid(opts.seed, k as u64, scale);
            let op = tr.begin("grid.job", k as u64);
            let r = sweep_traced(
                &grid,
                &job_dir("traced", k),
                k as u64,
                &mut tr,
                &mut queue,
                origin,
            );
            tr.end(op, 0, 0);
            traced_fps.push(match r {
                Ok(cells) => cells_fingerprint(&cells),
                Err(e) => format!("failed: {e}"),
            });
        });
        let mismatches = fingerprints
            .iter()
            .zip(&traced_fps)
            .filter(|(a, b)| a != b)
            .count() as u64;
        paired.note(&mut o);
        o.attempted = 2 * paired.ops as u64;
        o.failed = failed + mismatches;
        check_fingerprint(&mut o, NAME, opts.seed, &fingerprints[0]);
        layers::emit(
            &mut o,
            &tr,
            &layers::Extras {
                rayon_capacity_s: queue.capacity_s,
                rayon_busy_s: queue.busy_s,
                untraced_throughput: paired.untraced_per_s() * trees_per_job,
                traced_throughput: paired.traced_per_s() * trees_per_job,
                ..Default::default()
            },
        );
        layers::write_spans(&mut o, &tr, opts, NAME);
    }
    let _ = std::fs::remove_dir_all(&root);
    o
}
