//! Shared campaign infrastructure: run protocol variants over many
//! random trees in parallel and summarize each run.
//!
//! Reproducibility: tree `i` of a campaign is generated from
//! `split_seed(campaign_seed, i)`, so any subset of a campaign can be
//! re-run independently and results never depend on thread scheduling.
//! In particular the runs over the first `n` trees of a campaign are the
//! runs of the same campaign shrunk to `n` trees.

use bc_engine::durability::{
    fnv1a64, take_u128_le as u128le, take_u64_le as u64le, CheckpointError, CheckpointKind,
    CheckpointStore,
};
use bc_engine::{
    RunResult, RunStatsAccumulator, SimConfig, SimWorkspace, Simulation, TraceEvent, TraceSink,
};
use bc_metrics::{detect_onset, OnsetConfig};
use bc_platform::{RandomTreeConfig, Tree, UsedStats};
use bc_rational::Rational;
use bc_simcore::{split_seed, Time};
use bc_steady::SteadyState;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Log-2 bucket count of the streaming histograms (onset times up to
/// 2^15 and buffer pools up to 2^15 resolve to distinct buckets; larger
/// values saturate into the last one).
pub const HIST_BUCKETS: usize = 16;

/// The paper's computation-to-communication ratio classes (Figure 5,
/// Table 2): compute scale `x`, with comm times still in `[1, d]`.
pub const RATIO_CLASSES: [u64; 4] = [500, 1_000, 5_000, 10_000];

/// Configuration of a multi-tree campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of random trees.
    pub trees: usize,
    /// Tasks per application run.
    pub tasks: u64,
    /// Campaign seed (tree `i` uses `split_seed(seed, i)`).
    pub seed: u64,
    /// Random-tree generator parameters (§4.1).
    pub tree_config: RandomTreeConfig,
    /// Onset-detection parameters (§4.1 heuristic).
    pub onset: OnsetConfig,
}

impl CampaignConfig {
    /// The paper's campaign shape with a configurable tree count
    /// (25 000 at full paper scale).
    pub fn paper(trees: usize, tasks: u64, seed: u64) -> Self {
        CampaignConfig {
            trees,
            tasks,
            seed,
            tree_config: RandomTreeConfig::default(),
            onset: OnsetConfig::default(),
        }
    }

    /// The population of ratio class `x` (see [`RATIO_CLASSES`]): this
    /// campaign's shape with compute scale `x`, seeded `seed + x` so the
    /// classes draw decorrelated trees.
    pub fn ratio_class(&self, x: u64) -> Self {
        CampaignConfig {
            seed: self.seed.wrapping_add(x),
            tree_config: self.tree_config.with_compute_scale(x),
            ..self.clone()
        }
    }

    /// The 64-tree reference campaign that `bench_report` times and
    /// counts: 2,000 tasks on trees of 10–60 nodes with communication
    /// times in `[1, 20]` and compute scale 500, seed 2003.
    pub fn reference() -> Self {
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

    /// The tree for campaign index `i`.
    pub fn tree(&self, i: usize) -> Tree {
        campaign_tree(&self.tree_config, self.seed, i)
    }

    /// Generates and analyzes tree `i` exactly once; the result is shared
    /// by the Theorem 1 oracle and every simulation run over the tree.
    pub fn prepare(&self, i: usize) -> PreparedTree {
        let tree = self.tree(i);
        let analysis = SteadyState::analyze(&tree);
        PreparedTree {
            index: i,
            tree,
            analysis,
        }
    }

    /// Prepares the whole campaign population in parallel.
    pub fn prepare_all(&self) -> Vec<PreparedTree> {
        (0..self.trees)
            .into_par_iter()
            .map(|i| self.prepare(i))
            .collect()
    }
}

/// The canonical campaign indexing scheme: tree `i` of a population
/// seeded by `seed`. Every experiment that walks a tree population uses
/// this one function, so index `i` names the same platform everywhere.
pub fn campaign_tree(tree_config: &RandomTreeConfig, seed: u64, i: usize) -> Tree {
    tree_config.generate(split_seed(seed, i as u64))
}

/// A campaign tree plus its steady-state analysis, generated once and
/// shared by the Theorem 1 oracle and every protocol variant run over the
/// tree ([`run_variants`] prepares each tree once, runs all its variants
/// and drops it; only the streaming benchmark keeps a prepared population).
#[derive(Clone, Debug)]
pub struct PreparedTree {
    /// Campaign index of the tree.
    pub index: usize,
    /// The generated platform.
    pub tree: Tree,
    /// Theorem 1 analysis of the tree (the oracle side).
    pub analysis: SteadyState,
}

/// Summary of one simulated tree (completion times are reduced to the
/// onset verdict and buffer statistics to keep big campaigns in memory).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeRun {
    /// Campaign index of the tree.
    pub index: usize,
    /// Node count.
    pub nodes: usize,
    /// Tree depth.
    pub depth: usize,
    /// Exact optimal steady-state rate from Theorem 1.
    pub optimal_rate: Rational,
    /// Onset window (None = never reached optimal steady state).
    pub onset: Option<u64>,
    /// Global max buffer-pool size across nodes.
    pub max_buffers: u32,
    /// `(tasks_completed, global max buffers so far)` checkpoints.
    pub checkpoint_max_buffers: Vec<(u64, u32)>,
    /// Size/depth of the ancestor-closed hull of nodes that computed ≥ 1
    /// task (Fig 6's "used nodes").
    pub used: UsedStats,
    /// Wall-clock of the simulated run in timesteps.
    pub end_time: u64,
    /// Simulator effort.
    pub events: u64,
}

impl TreeRun {
    /// Did this run reach the optimal steady-state rate?
    pub fn reached(&self) -> bool {
        self.onset.is_some()
    }
}

/// Runs every configuration of `configs` over every tree of the campaign
/// and summarizes each run: `runs[v][i]` is variant `v` on tree `i`.
pub fn run_variants(campaign: &CampaignConfig, configs: &[SimConfig]) -> Vec<Vec<TreeRun>> {
    run_variants_with(campaign, configs, |run, _| run)
}

/// The one materialized campaign driver: [`run_variants`], keeping
/// `keep(summary, raw result)` of each run. `keep` runs on the worker, so
/// a caller that needs no raw `RunResult` (whose completion times alone
/// are 8 bytes per task) drops each one as soon as it is summarized.
///
/// One parallel pass over the tree indices: a worker prepares tree `i`
/// once ([`CampaignConfig::prepare`]), runs every variant on it in the
/// worker's reused `SimWorkspace` and drops the tree, so no prepared
/// population is ever held. After a worker's first few trees warm the
/// arenas the event loop never allocates (see the engine's `alloc_free`
/// test). Results are identical at any thread count: each run depends
/// only on its tree and config.
pub fn run_variants_with<T: Send>(
    campaign: &CampaignConfig,
    configs: &[SimConfig],
    keep: impl Fn(TreeRun, RunResult) -> T + Sync,
) -> Vec<Vec<T>> {
    let per_tree: Vec<Vec<T>> = (0..campaign.trees)
        .into_par_iter()
        .map_init(SimWorkspace::new, |ws, i| {
            let p = campaign.prepare(i);
            configs
                .iter()
                .map(|cfg| {
                    let result = ws.run(p.tree.clone(), cfg.clone());
                    let run = summarize(i, &p.tree, &p.analysis, &result, campaign.onset);
                    keep(run, result)
                })
                .collect()
        })
        .collect();
    let mut runs: Vec<Vec<T>> = configs
        .iter()
        .map(|_| Vec::with_capacity(campaign.trees))
        .collect();
    for tree_runs in per_tree {
        runs.iter_mut()
            .zip(tree_runs)
            .for_each(|(v, run)| v.push(run));
    }
    runs
}

/// [`run_variants`] over every ratio class population (see
/// [`CampaignConfig::ratio_class`]): `runs[v][c][i]` is variant `v` on
/// tree `i` of class `RATIO_CLASSES[c]`.
pub fn run_ratio_classes(
    campaign: &CampaignConfig,
    configs: &[SimConfig],
) -> Vec<Vec<Vec<TreeRun>>> {
    let mut runs = vec![Vec::new(); configs.len()];
    for x in RATIO_CLASSES {
        let class_runs = run_variants(&campaign.ratio_class(x), configs);
        runs.iter_mut().zip(class_runs).for_each(|(v, r)| v.push(r));
    }
    runs
}

/// What a campaign's simulator did, counted by kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Trace records per [`TraceEvent::kind`]; kinds never recorded are
    /// absent. These count records, not agenda events: one handled event
    /// emits any number of records, and an interruptible transfer
    /// preempted at the instant its work runs out completes inside that
    /// event's service cascade, so its `transfer-complete` record has no
    /// transfer event of its own.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Agenda events handled, summed over the campaign's runs
    /// ([`RunResult::events_processed`]). In a fault-free batch run every
    /// event is a compute completion (one `compute-finish` record each)
    /// or a transfer completion, so their split is `events_total` and
    /// `by_kind["compute-finish"]`.
    pub events_total: u64,
}

/// The sink behind [`event_counts`]: trace records per kind.
#[derive(Default)]
struct KindCounter(BTreeMap<&'static str, u64>);

impl TraceSink for KindCounter {
    fn record(&mut self, _time: Time, event: TraceEvent) {
        *self.0.entry(event.kind()).or_insert(0) += 1;
    }
}

/// Runs `config` over every tree of `campaign` with a counting trace
/// sink and returns the records per kind and the events handled. The
/// counts are exact and independent of thread count and host speed, so
/// they show a change in work per run without timing anything.
pub fn event_counts(campaign: &CampaignConfig, config: &SimConfig) -> EventCounts {
    let per_tree: Vec<(BTreeMap<&'static str, u64>, u64)> = (0..campaign.trees)
        .into_par_iter()
        .map_init(SimWorkspace::new, |ws, i| {
            let ws_in = std::mem::take(ws);
            let sim = Simulation::traced(
                campaign.tree(i),
                config.clone(),
                ws_in,
                KindCounter::default(),
            );
            let (result, ws_out, KindCounter(kinds)) = sim.run_traced();
            *ws = ws_out;
            (kinds, result.events_processed)
        })
        .collect();
    let mut counts = EventCounts::default();
    for (kinds, events) in per_tree {
        for (kind, n) in kinds {
            *counts.by_kind.entry(kind).or_insert(0) += n;
        }
        counts.events_total += events;
    }
    counts
}

/// Summarizes one finished run.
pub fn summarize(
    index: usize,
    tree: &Tree,
    analysis: &SteadyState,
    result: &RunResult,
    onset_cfg: OnsetConfig,
) -> TreeRun {
    let optimal = analysis.optimal_rate();
    let onset = detect_onset(&result.completion_times, &optimal, onset_cfg);
    TreeRun {
        index,
        nodes: tree.len(),
        depth: tree.depth(),
        optimal_rate: optimal,
        onset,
        max_buffers: result.max_buffers(),
        checkpoint_max_buffers: result.checkpoint_max_buffers.clone(),
        used: tree.used_subtree_stats(&result.used_nodes()),
        end_time: result.end_time,
        events: result.events_processed,
    }
}

/// Fraction of runs that reached the optimal steady state.
pub fn fraction_reached(runs: &[TreeRun]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().filter(|r| r.reached()).count() as f64 / runs.len() as f64
}

// ---------------------------------------------------------------------------
// Streaming sharded campaigns
// ---------------------------------------------------------------------------

/// Log-2 histogram bucket of a value: 0 → 0, otherwise
/// `floor(log2(v)) + 1`, saturating into the last bucket.
fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Exact, mergeable aggregate of a campaign — everything the reports
/// derive from a `Vec<TreeRun>`, folded into integer counters so a
/// streamed sharded campaign never materializes per-tree results.
///
/// Like [`bc_engine::RunStatsAccumulator`] (embedded here for the raw
/// engine facts), every field is an integer sum/min/max/histogram, so
/// `merge` is exact, associative, and commutative, and `default()` is
/// the merge identity: a sharded streamed campaign produces
/// **bit-identical** aggregates to folding the materialized
/// [`TreeRun`]s, at any thread count and any shard size. The optimal
/// rate is accumulated in fixed point (microtasks per timestep, rounded
/// from the correctly-rounded `to_f64` of the exact rational) for the
/// same reason — an `f64` sum would be grouping-sensitive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignAccumulator {
    /// Raw engine-level facts (events, end times, buffers, faults).
    pub run_stats: RunStatsAccumulator,
    /// Runs that reached the optimal steady-state rate.
    pub reached: u64,
    /// Sum of onset times over reached runs.
    pub onset_sum: u128,
    /// Largest onset time seen.
    pub onset_max: u64,
    /// Log-2 histogram of onset times (reached runs only).
    pub onset_hist: [u64; HIST_BUCKETS],
    /// Log-2 histogram of per-run global max buffer-pool sizes.
    pub max_buffers_hist: [u64; HIST_BUCKETS],
    /// Sum of node counts.
    pub nodes_sum: u128,
    /// Largest node count.
    pub nodes_max: u64,
    /// Sum of tree depths.
    pub depth_sum: u128,
    /// Largest tree depth.
    pub depth_max: u64,
    /// Sum of used-hull sizes (Fig 6's "used nodes").
    pub used_size_sum: u128,
    /// Sum of used-hull depths.
    pub used_depth_sum: u128,
    /// Sum of optimal rates in fixed point (microtasks per timestep,
    /// `round(rate * 1e6)` per tree).
    pub rate_micros_sum: u128,
}

impl CampaignAccumulator {
    /// The merge identity (an accumulator over zero trees).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trees folded in.
    pub fn trees(&self) -> u64 {
        self.run_stats.runs
    }

    /// Folds one summarized run in. The streaming path and the
    /// materialized path both funnel through this, so their aggregates
    /// agree bit for bit by construction.
    pub fn fold_summary(&mut self, run: &TreeRun, result: &RunResult) {
        self.run_stats.fold(result);
        if let Some(onset) = run.onset {
            self.reached += 1;
            self.onset_sum += onset as u128;
            self.onset_max = self.onset_max.max(onset);
            self.onset_hist[log2_bucket(onset)] += 1;
        }
        self.max_buffers_hist[log2_bucket(run.max_buffers as u64)] += 1;
        self.nodes_sum += run.nodes as u128;
        self.nodes_max = self.nodes_max.max(run.nodes as u64);
        self.depth_sum += run.depth as u128;
        self.depth_max = self.depth_max.max(run.depth as u64);
        self.used_size_sum += run.used.size as u128;
        self.used_depth_sum += run.used.depth as u128;
        self.rate_micros_sum += (run.optimal_rate.to_f64() * 1e6).round() as u128;
    }

    /// Summarizes and folds one raw run (the streaming path: nothing of
    /// the run outlives this call).
    pub fn record(
        &mut self,
        index: usize,
        tree: &Tree,
        analysis: &SteadyState,
        result: &RunResult,
        onset_cfg: OnsetConfig,
    ) {
        let run = summarize(index, tree, analysis, result, onset_cfg);
        self.fold_summary(&run, result);
    }

    /// Merges another accumulator in (exact; associative and
    /// commutative; `default()` is the identity).
    pub fn merge(&mut self, other: &Self) {
        self.run_stats.merge(&other.run_stats);
        self.reached += other.reached;
        self.onset_sum += other.onset_sum;
        self.onset_max = self.onset_max.max(other.onset_max);
        for (a, b) in self.onset_hist.iter_mut().zip(&other.onset_hist) {
            *a += b;
        }
        for (a, b) in self
            .max_buffers_hist
            .iter_mut()
            .zip(&other.max_buffers_hist)
        {
            *a += b;
        }
        self.nodes_sum += other.nodes_sum;
        self.nodes_max = self.nodes_max.max(other.nodes_max);
        self.depth_sum += other.depth_sum;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.used_size_sum += other.used_size_sum;
        self.used_depth_sum += other.used_depth_sum;
        self.rate_micros_sum += other.rate_micros_sum;
    }

    /// Fraction of folded runs that reached the optimal rate.
    pub fn fraction_reached(&self) -> f64 {
        if self.trees() == 0 {
            return 0.0;
        }
        self.reached as f64 / self.trees() as f64
    }

    /// Mean onset time over reached runs (0 when none reached).
    pub fn mean_onset(&self) -> f64 {
        if self.reached == 0 {
            return 0.0;
        }
        self.onset_sum as f64 / self.reached as f64
    }

    /// Mean node count (0 when empty).
    pub fn mean_nodes(&self) -> f64 {
        if self.trees() == 0 {
            return 0.0;
        }
        self.nodes_sum as f64 / self.trees() as f64
    }

    /// Mean optimal rate (tasks per timestep; 0 when empty).
    pub fn mean_optimal_rate(&self) -> f64 {
        if self.trees() == 0 {
            return 0.0;
        }
        self.rate_micros_sum as f64 / 1e6 / self.trees() as f64
    }
}

/// Folds a materialized campaign (`run_variants_with` keeping
/// `(summary, result)` pairs) into an accumulator, tree-index order.
/// This is the reference the streaming path is tested bit-identical
/// against — note it needs the raw `RunResult`s kept alive, which is
/// exactly what the streaming path exists to avoid.
pub fn accumulate_materialized(runs: &[(TreeRun, RunResult)]) -> CampaignAccumulator {
    let mut acc = CampaignAccumulator::new();
    for (run, result) in runs {
        acc.fold_summary(run, result);
    }
    acc
}

/// Runs a campaign in streaming sharded mode: trees are processed in
/// contiguous shards of `shard_size`, each worker folding its shard
/// into a [`CampaignAccumulator`] (per-tree results die immediately),
/// and shard accumulators are merged in shard order. Peak memory is
/// `O(trees / shard_size)` accumulators plus one in-flight tree per
/// worker — sub-linear in tree count — instead of `O(trees)` summaries.
///
/// Results are bit-identical to folding the materialized path's output
/// through the same accumulator, at any thread count and shard size.
pub fn run_campaign_streaming(
    campaign: &CampaignConfig,
    shard_size: usize,
    make_config: impl Fn(u64) -> SimConfig + Sync,
) -> CampaignAccumulator {
    let campaigns = std::slice::from_ref(campaign);
    stream_shards(campaigns, shard_size, |_| make_config(campaign.tasks), None)
        .expect("a sweep without a checkpoint policy does no I/O")
        .accs
        .remove(0)
}

// ---------------------------------------------------------------------------
// Parameter-grid sweeps
// ---------------------------------------------------------------------------

/// A parameter grid over the paper's campaign knobs: tree size `m`,
/// task count `n`, buffer allowance `b`, communication-delay range `d`,
/// and compute scale `x`. The cartesian product of the axes defines the
/// grid's cells; each cell simulates `trees_per_cell` random trees
/// seeded from `split_seed(seed, cell_index)`, so any cell can be
/// re-run independently of the rest of the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignGrid {
    /// Tree-size axis `m` (max nodes; min nodes is `min(10, m)`).
    pub max_nodes: Vec<usize>,
    /// Task-count axis `n`.
    pub tasks: Vec<u64>,
    /// Buffer-allowance axis `b` (the protocol's FB threshold).
    pub buffers: Vec<u32>,
    /// Communication-delay axis `d` (comm times uniform in `[1, d]`).
    pub comm_max: Vec<u64>,
    /// Compute-scale axis `x` (compute times uniform in `[x/100, x]`).
    pub compute_scale: Vec<u64>,
    /// Random trees per cell.
    pub trees_per_cell: usize,
    /// Sweep seed.
    pub seed: u64,
    /// Onset-detection parameters shared by every cell.
    pub onset: OnsetConfig,
}

impl CampaignGrid {
    /// A small default grid: 16 cells spanning tree size, buffers,
    /// delay spread, and compute scale at a fixed task count.
    pub fn default_grid(trees_per_cell: usize, seed: u64) -> Self {
        CampaignGrid {
            max_nodes: vec![30, 120],
            tasks: vec![500],
            buffers: vec![2, 3],
            comm_max: vec![10, 30],
            compute_scale: vec![100, 500],
            trees_per_cell,
            seed,
            // The paper's threshold (300 windows) assumes 10_000-task
            // runs; grid cells run a few hundred tasks, so the startup
            // exclusion is scaled down proportionally.
            onset: OnsetConfig {
                window_threshold: 100,
                crossings: 2,
            },
        }
    }

    /// The grid's cells in canonical (m, n, b, d, x) nested order.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut cells = Vec::new();
        for &m in &self.max_nodes {
            for &n in &self.tasks {
                for &b in &self.buffers {
                    for &d in &self.comm_max {
                        for &x in &self.compute_scale {
                            cells.push(GridCell {
                                index: cells.len(),
                                max_nodes: m,
                                tasks: n,
                                buffers: b,
                                comm_max: d,
                                compute_scale: x,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Total trees the sweep will simulate.
    pub fn total_trees(&self) -> usize {
        self.max_nodes.len()
            * self.tasks.len()
            * self.buffers.len()
            * self.comm_max.len()
            * self.compute_scale.len()
            * self.trees_per_cell
    }

    /// The per-cell campaign: tree `i` of a cell is seeded from the
    /// cell's own `split_seed(grid.seed, cell_index)` stream, so cells
    /// are independent and individually reproducible.
    pub fn cell_campaign(&self, cell: &GridCell) -> CampaignConfig {
        CampaignConfig {
            trees: self.trees_per_cell,
            tasks: cell.tasks,
            seed: split_seed(self.seed, cell.index as u64),
            tree_config: RandomTreeConfig {
                min_nodes: cell.max_nodes.min(10),
                max_nodes: cell.max_nodes,
                comm_min: 1,
                comm_max: cell.comm_max,
                compute_scale: cell.compute_scale,
            },
            onset: self.onset,
        }
    }
}

/// One point of a [`CampaignGrid`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridCell {
    /// Position in the canonical cell order.
    pub index: usize,
    /// Tree-size parameter `m`.
    pub max_nodes: usize,
    /// Task count `n`.
    pub tasks: u64,
    /// Buffer allowance `b`.
    pub buffers: u32,
    /// Communication-delay bound `d`.
    pub comm_max: u64,
    /// Compute scale `x`.
    pub compute_scale: u64,
}

/// Runs a whole grid sweep in streaming sharded mode and returns one
/// accumulator per cell (cell order).
///
/// The (cell, shard) pairs of the entire sweep are flattened into one
/// parallel work queue, so workers stay busy across cell boundaries and
/// each worker's `SimWorkspace` stays thread-affine for the whole
/// sweep. Shard accumulators are merged into their cells in canonical
/// shard order, keeping the per-cell aggregates bit-identical at any
/// thread count.
pub fn run_grid_streaming(
    grid: &CampaignGrid,
    shard_size: usize,
    make_config: impl Fn(&GridCell) -> SimConfig + Sync,
) -> Vec<(GridCell, CampaignAccumulator)> {
    sweep_grid(grid, shard_size, make_config, None)
        .expect("a sweep without a checkpoint policy does no I/O")
        .results
}

// ---------------------------------------------------------------------------
// Durable, resumable streaming
// ---------------------------------------------------------------------------

/// Accumulator-state byte form, fixed-width little-endian in field
/// order (integrity is the `BCCK` container's job).
impl CampaignAccumulator {
    /// Appends the canonical byte form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.run_stats.encode_into(out);
        out.extend_from_slice(&self.reached.to_le_bytes());
        out.extend_from_slice(&self.onset_sum.to_le_bytes());
        out.extend_from_slice(&self.onset_max.to_le_bytes());
        for v in &self.onset_hist {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.max_buffers_hist {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.nodes_sum.to_le_bytes());
        out.extend_from_slice(&self.nodes_max.to_le_bytes());
        out.extend_from_slice(&self.depth_sum.to_le_bytes());
        out.extend_from_slice(&self.depth_max.to_le_bytes());
        out.extend_from_slice(&self.used_size_sum.to_le_bytes());
        out.extend_from_slice(&self.used_depth_sum.to_le_bytes());
        out.extend_from_slice(&self.rate_micros_sum.to_le_bytes());
    }

    /// Decodes one accumulator from the front of `input`, advancing
    /// past the consumed bytes. `None` on truncation.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let run_stats = RunStatsAccumulator::decode_from(input)?;
        let reached = u64le(input)?;
        let onset_sum = u128le(input)?;
        let onset_max = u64le(input)?;
        let mut onset_hist = [0u64; HIST_BUCKETS];
        for v in &mut onset_hist {
            *v = u64le(input)?;
        }
        let mut max_buffers_hist = [0u64; HIST_BUCKETS];
        for v in &mut max_buffers_hist {
            *v = u64le(input)?;
        }
        Some(CampaignAccumulator {
            run_stats,
            reached,
            onset_sum,
            onset_max,
            onset_hist,
            max_buffers_hist,
            nodes_sum: u128le(input)?,
            nodes_max: u64le(input)?,
            depth_sum: u128le(input)?,
            depth_max: u64le(input)?,
            used_size_sum: u128le(input)?,
            used_depth_sum: u128le(input)?,
            rate_micros_sum: u128le(input)?,
        })
    }
}

/// Why a resumable sweep could not start from (or write to) its
/// checkpoint directory.
#[derive(Debug)]
pub enum ResumeError {
    /// The durable store failed (io, corruption with no fallback, ...).
    Checkpoint(CheckpointError),
    /// A verified payload didn't parse as a campaign checkpoint — a
    /// format drift between writer and reader versions.
    Format(&'static str),
    /// The checkpoint belongs to a different sweep (different grid
    /// parameters, seed, or shard size) — resuming would silently mix
    /// incompatible aggregates.
    FingerprintMismatch {
        /// Fingerprint of the sweep being launched.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "resume: {e}"),
            ResumeError::Format(what) => write!(f, "resume: malformed checkpoint ({what})"),
            ResumeError::FingerprintMismatch { expected, found } => write!(
                f,
                "resume: checkpoint is from a different sweep \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

/// Campaign-checkpoint payload format revision.
const CAMPAIGN_CKPT_VERSION: u8 = 1;

/// Durability knobs for a resumable streaming sweep.
#[derive(Debug)]
pub struct CheckpointPolicy {
    /// Directory the generation files live in.
    pub dir: std::path::PathBuf,
    /// Save a generation after every `every_shards` completed
    /// (cell, shard) work items (min 1).
    pub every_shards: usize,
    /// Continue from the newest good generation instead of starting
    /// fresh. Without this, existing checkpoints are ignored (and
    /// overwritten as new generations land).
    pub resume: bool,
    /// Stop (checkpointing first) after this many work items were
    /// processed *in this invocation* — the deterministic stand-in for
    /// a kill, used by the equivalence tests and the chaos harness's
    /// bounded legs. `None` runs to completion.
    pub stop_after_shards: Option<usize>,
    /// Generations to retain (min 1; 2+ recommended so a torn newest
    /// generation can fall back).
    pub keep: usize,
}

impl CheckpointPolicy {
    /// A policy with the defaults the CLI uses: checkpoint every
    /// `every_shards`, keep 2 generations, fresh start.
    pub fn new(dir: impl Into<std::path::PathBuf>, every_shards: usize) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every_shards: every_shards.max(1),
            resume: false,
            stop_after_shards: None,
            keep: 2,
        }
    }

    /// Enable resuming from the newest good generation.
    pub fn resuming(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

/// What a resumable sweep invocation did.
#[derive(Debug)]
pub struct ResumableOutcome {
    /// Per-cell aggregates (final iff `completed`).
    pub results: Vec<(GridCell, CampaignAccumulator)>,
    /// Whether the sweep ran to the end (false = stopped by
    /// `stop_after_shards`; relaunch with `resume` to continue).
    pub completed: bool,
    /// Work items done over all invocations (the cursor).
    pub shards_done: usize,
    /// Total work items in the sweep.
    pub shards_total: usize,
    /// Generation the invocation resumed from, if any.
    pub resumed_from_generation: Option<u64>,
}

/// Fingerprint of a grid sweep's identity: every parameter that shapes
/// the flattened work list or the per-tree runs. Two invocations with
/// equal fingerprints partition identical work identically.
fn grid_fingerprint(grid: &CampaignGrid, shard_size: usize) -> u64 {
    let mut b = Vec::new();
    let axis_u64 = |b: &mut Vec<u8>, vs: &[u64]| {
        b.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        for &v in vs {
            b.extend_from_slice(&v.to_le_bytes());
        }
    };
    axis_u64(
        &mut b,
        &grid.max_nodes.iter().map(|&m| m as u64).collect::<Vec<_>>(),
    );
    axis_u64(&mut b, &grid.tasks);
    axis_u64(
        &mut b,
        &grid.buffers.iter().map(|&v| v as u64).collect::<Vec<_>>(),
    );
    axis_u64(&mut b, &grid.comm_max);
    axis_u64(&mut b, &grid.compute_scale);
    b.extend_from_slice(&(grid.trees_per_cell as u64).to_le_bytes());
    b.extend_from_slice(&grid.seed.to_le_bytes());
    b.extend_from_slice(&grid.onset.window_threshold.to_le_bytes());
    b.extend_from_slice(&grid.onset.crossings.to_le_bytes());
    b.extend_from_slice(&(shard_size as u64).to_le_bytes());
    fnv1a64(&b)
}

/// The checkpoint payload: version, sweep fingerprint, work-list cursor,
/// cell count, then each cell's accumulator in cell order.
fn encode_grid_checkpoint(
    fingerprint: u64,
    cursor: usize,
    accs: &[CampaignAccumulator],
) -> Vec<u8> {
    let mut b = Vec::new();
    b.push(CAMPAIGN_CKPT_VERSION);
    b.extend_from_slice(&fingerprint.to_le_bytes());
    b.extend_from_slice(&(cursor as u64).to_le_bytes());
    b.extend_from_slice(&(accs.len() as u64).to_le_bytes());
    for acc in accs {
        acc.encode_into(&mut b);
    }
    b
}

fn decode_grid_checkpoint(
    mut input: &[u8],
    expected_fingerprint: u64,
    expected_cells: usize,
) -> Result<(usize, Vec<CampaignAccumulator>), ResumeError> {
    let input = &mut input;
    let header_u64 =
        |input: &mut &[u8]| u64le(input).ok_or(ResumeError::Format("truncated header"));
    let (version, rest) = input
        .split_first()
        .ok_or(ResumeError::Format("empty payload"))?;
    *input = rest;
    if *version != CAMPAIGN_CKPT_VERSION {
        return Err(ResumeError::Format("unknown payload version"));
    }
    let found = header_u64(input)?;
    if found != expected_fingerprint {
        return Err(ResumeError::FingerprintMismatch {
            expected: expected_fingerprint,
            found,
        });
    }
    let cursor = header_u64(input)? as usize;
    let n_cells = header_u64(input)? as usize;
    if n_cells != expected_cells {
        return Err(ResumeError::Format("cell count mismatch"));
    }
    let mut accs = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        accs.push(
            CampaignAccumulator::decode_from(input)
                .ok_or(ResumeError::Format("truncated accumulator"))?,
        );
    }
    if !input.is_empty() {
        return Err(ResumeError::Format("trailing bytes"));
    }
    Ok((cursor, accs))
}

/// [`run_grid_streaming`] with durable progress: after every
/// `policy.every_shards` completed (cell, shard) work items the
/// per-cell accumulators and the work-list cursor are written
/// atomically to `policy.dir` (generation files, checksummed — see
/// [`bc_engine::durability`]). A killed sweep relaunched with
/// `policy.resume` picks up at the last checkpointed cursor and
/// produces final per-cell aggregates **bit-identical** to an
/// uninterrupted run: work items are deterministic in their (cell,
/// shard) coordinates alone, and the chunked merge performs the same
/// per-cell merge sequence as the unchunked one (the accumulators'
/// merge being associative with `default()` as identity).
///
/// At most `every_shards` work items are re-simulated after a crash —
/// re-running a shard is idempotent by determinism, so a kill *between*
/// checkpoint boundaries costs duplicated work, never duplicated
/// counts.
pub fn run_grid_streaming_checkpointed(
    grid: &CampaignGrid,
    shard_size: usize,
    make_config: impl Fn(&GridCell) -> SimConfig + Sync,
    policy: &CheckpointPolicy,
) -> Result<ResumableOutcome, ResumeError> {
    sweep_grid(grid, shard_size, make_config, Some(policy))
}

/// Both grid drivers: the grid's cells as campaigns, streamed through
/// [`stream_shards`], checkpointed under the sweep's fingerprint when a
/// policy is given.
fn sweep_grid(
    grid: &CampaignGrid,
    shard_size: usize,
    make_config: impl Fn(&GridCell) -> SimConfig + Sync,
    policy: Option<&CheckpointPolicy>,
) -> Result<ResumableOutcome, ResumeError> {
    let cells = grid.cells();
    let campaigns: Vec<CampaignConfig> = cells.iter().map(|c| grid.cell_campaign(c)).collect();
    let durable = policy.map(|p| (p, grid_fingerprint(grid, shard_size)));
    let progress = stream_shards(
        &campaigns,
        shard_size,
        |ci| make_config(&cells[ci]),
        durable,
    )?;
    Ok(ResumableOutcome {
        completed: progress.cursor == progress.total,
        shards_done: progress.cursor,
        shards_total: progress.total,
        resumed_from_generation: progress.resumed_from_generation,
        results: cells.into_iter().zip(progress.accs).collect(),
    })
}

// ---------------------------------------------------------------------------
// The streaming core
// ---------------------------------------------------------------------------

/// One work item: trees `start..end` of campaign `ci`.
type WorkItem = (usize, usize, usize);

/// Where a streaming run stopped.
struct Progress {
    /// One accumulator per campaign, in campaign order.
    accs: Vec<CampaignAccumulator>,
    /// Work items done over all invocations.
    cursor: usize,
    /// Work items in the whole list.
    total: usize,
    /// Generation the run resumed from, if any.
    resumed_from_generation: Option<u64>,
}

/// The one streaming driver behind [`run_campaign_streaming`],
/// [`run_grid_streaming`] and [`run_grid_streaming_checkpointed`].
///
/// The campaigns are cut into contiguous shards of `shard_size` trees
/// and flattened into one work list in (campaign, shard) order, so
/// workers stay busy across campaign boundaries, and each worker keeps
/// one `SimWorkspace` for its share of a chunk. A work item is
/// deterministic in its coordinates alone. Shard accumulators merge into
/// their campaign in work-list order, which keeps every aggregate
/// bit-identical at any thread count, shard grouping or chunking.
///
/// Without `durable` the whole list is one chunk: one parallel pass.
/// With `(policy, fingerprint)` the list is worked through in chunks of
/// `policy.every_shards`, and after each chunk the accumulators and the
/// cursor are saved atomically as one new generation (see
/// [`bc_engine::durability`]). With `policy.resume` the run starts from
/// the newest good generation, which must carry `fingerprint`.
fn stream_shards(
    campaigns: &[CampaignConfig],
    shard_size: usize,
    make_config: impl Fn(usize) -> SimConfig + Sync,
    durable: Option<(&CheckpointPolicy, u64)>,
) -> Result<Progress, ResumeError> {
    assert!(shard_size >= 1, "shard_size must be at least 1");
    let work: Vec<WorkItem> = campaigns
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            (0..c.trees)
                .step_by(shard_size)
                .map(move |start| (ci, start, (start + shard_size).min(c.trees)))
        })
        .collect();
    let mut progress = Progress {
        accs: vec![CampaignAccumulator::new(); campaigns.len()],
        cursor: 0,
        total: work.len(),
        resumed_from_generation: None,
    };
    let (mut chunk, mut stop, mut store) = (work.len(), None, None);
    if let Some((policy, fingerprint)) = durable {
        let opened =
            CheckpointStore::open(&policy.dir, "grid", CheckpointKind::Campaign, policy.keep)?;
        if policy.resume {
            if let Some(loaded) = opened.load_latest()? {
                let (cursor, accs) =
                    decode_grid_checkpoint(&loaded.payload, fingerprint, campaigns.len())?;
                if cursor > work.len() {
                    return Err(ResumeError::Format("cursor beyond work list"));
                }
                progress.accs = accs;
                progress.cursor = cursor;
                progress.resumed_from_generation = Some(loaded.generation);
            }
        }
        chunk = policy.every_shards.max(1);
        stop = policy.stop_after_shards;
        store = Some((opened, fingerprint));
    }

    let fold_shard = |ws: &mut SimWorkspace, &(ci, start, end): &WorkItem| {
        let campaign = &campaigns[ci];
        let mut acc = CampaignAccumulator::new();
        for i in start..end {
            let p = campaign.prepare(i);
            let result = ws.run(p.tree.clone(), make_config(ci));
            acc.record(i, &p.tree, &p.analysis, &result, campaign.onset);
        }
        (ci, acc)
    };
    let mut done_this_run = 0;
    while progress.cursor < work.len() {
        let mut chunk_end = (progress.cursor + chunk).min(work.len());
        if let Some(stop) = stop {
            let left = stop.saturating_sub(done_this_run);
            if left == 0 {
                break;
            }
            chunk_end = chunk_end.min(progress.cursor + left);
        }
        let shard_accs: Vec<(usize, CampaignAccumulator)> = work[progress.cursor..chunk_end]
            .par_iter()
            .map_init(SimWorkspace::new, fold_shard)
            .collect();
        for (ci, acc) in &shard_accs {
            progress.accs[*ci].merge(acc);
        }
        done_this_run += chunk_end - progress.cursor;
        progress.cursor = chunk_end;
        if let Some((store, fingerprint)) = &mut store {
            store.save(&encode_grid_checkpoint(
                *fingerprint,
                progress.cursor,
                &progress.accs,
            ))?;
        }
    }
    Ok(progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> CampaignConfig {
        CampaignConfig {
            trees: 8,
            tasks: 800,
            seed: 42,
            tree_config: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 30,
                comm_min: 1,
                comm_max: 10,
                compute_scale: 100,
            },
            onset: OnsetConfig {
                window_threshold: 100,
                crossings: 2,
            },
        }
    }

    #[test]
    fn campaign_is_deterministic_and_parallel_safe() {
        let c = tiny_campaign();
        let ic3 = [SimConfig::interruptible(3, c.tasks)];
        let a = run_variants(&c, &ic3).remove(0);
        let b = run_variants(&c, &ic3).remove(0);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.onset, y.onset);
            assert_eq!(x.end_time, y.end_time);
            assert_eq!(x.events, y.events);
        }
    }

    fn materialized_ic3(c: &CampaignConfig) -> Vec<(TreeRun, RunResult)> {
        let ic3 = [SimConfig::interruptible(3, c.tasks)];
        run_variants_with(c, &ic3, |run, result| (run, result)).remove(0)
    }

    #[test]
    fn trees_differ_across_indices() {
        let c = tiny_campaign();
        assert_ne!(
            (c.tree(0).len(), c.tree(0).depth()),
            (c.tree(1).len(), c.tree(1).depth()),
        );
    }

    #[test]
    fn ic3_reaches_optimal_on_most_small_trees() {
        let c = tiny_campaign();
        let runs = run_variants(&c, &[SimConfig::interruptible(3, c.tasks)]).remove(0);
        let frac = fraction_reached(&runs);
        assert!(frac >= 0.5, "IC/FB=3 reached only {frac}");
    }

    #[test]
    fn streaming_matches_materialized_at_every_shard_size() {
        let c = tiny_campaign();
        let materialized = materialized_ic3(&c);
        let reference = accumulate_materialized(&materialized);
        assert_eq!(reference.trees(), 8);
        assert!(reference.fraction_reached() > 0.0);
        for shard_size in [1usize, 3, 8, 64] {
            let streamed =
                run_campaign_streaming(&c, shard_size, |t| SimConfig::interruptible(3, t));
            assert_eq!(
                streamed, reference,
                "streamed aggregate differs at shard_size {shard_size}"
            );
        }
    }

    #[test]
    fn accumulator_merge_is_exact_over_shard_groupings() {
        let c = tiny_campaign();
        let materialized = materialized_ic3(&c);
        let whole = accumulate_materialized(&materialized);
        let (a, b) = materialized.split_at(3);
        let mut left = accumulate_materialized(a);
        let right = accumulate_materialized(b);
        left.merge(&right);
        assert_eq!(left, whole);
        // Identity.
        let mut with_id = whole.clone();
        with_id.merge(&CampaignAccumulator::default());
        assert_eq!(with_id, whole);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bc-campaign-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn accumulator_codec_roundtrips() {
        let c = tiny_campaign();
        let acc = run_campaign_streaming(&c, 3, |t| SimConfig::interruptible(3, t));
        let mut bytes = Vec::new();
        acc.encode_into(&mut bytes);
        let mut input = bytes.as_slice();
        let decoded = CampaignAccumulator::decode_from(&mut input).unwrap();
        assert_eq!(decoded, acc);
        assert!(input.is_empty());
        for cut in 0..bytes.len() {
            let mut short = &bytes[..cut];
            assert!(CampaignAccumulator::decode_from(&mut short).is_none());
        }
    }

    #[test]
    fn checkpointed_resume_rejects_different_sweep() {
        let grid = tiny_grid();
        let cfg = |c: &GridCell| SimConfig::interruptible(c.buffers, c.tasks);
        let dir = ckpt_dir("fingerprint");
        let mut policy = CheckpointPolicy::new(&dir, 1);
        policy.stop_after_shards = Some(1);
        run_grid_streaming_checkpointed(&grid, 2, cfg, &policy).unwrap();
        // Same directory, a different seed or a different shard size:
        // resume must refuse.
        let mut reseeded = grid.clone();
        reseeded.seed ^= 0xDEAD;
        let policy = CheckpointPolicy::new(&dir, 1).resuming(true);
        for (other, shard_size) in [(&reseeded, 2), (&grid, 3)] {
            match run_grid_streaming_checkpointed(other, shard_size, cfg, &policy) {
                Err(ResumeError::FingerprintMismatch { .. }) => {}
                other => panic!("expected FingerprintMismatch, got {other:?}"),
            }
        }
        // The refusals wrote nothing: the original sweep still resumes.
        let full = run_grid_streaming_checkpointed(&grid, 2, cfg, &policy).unwrap();
        assert!(full.completed);
        assert_eq!(full.results, run_grid_streaming(&grid, 2, cfg));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_cells_enumerate_cartesian_product_in_order() {
        let grid = CampaignGrid::default_grid(5, 7);
        let cells = grid.cells();
        assert_eq!(cells.len(), 16);
        assert_eq!(grid.total_trees(), 80);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // Innermost axis (x) varies fastest.
        assert_eq!(cells[0].compute_scale, 100);
        assert_eq!(cells[1].compute_scale, 500);
        assert_eq!(cells[0].comm_max, cells[1].comm_max);
        // Cells get distinct seed streams.
        assert_ne!(
            grid.cell_campaign(&cells[0]).seed,
            grid.cell_campaign(&cells[1]).seed
        );
    }

    fn tiny_grid() -> CampaignGrid {
        CampaignGrid {
            max_nodes: vec![12, 25],
            tasks: vec![400],
            buffers: vec![2, 3],
            comm_max: vec![8],
            compute_scale: vec![100],
            trees_per_cell: 4,
            seed: 99,
            onset: OnsetConfig {
                window_threshold: 50,
                crossings: 2,
            },
        }
    }

    #[test]
    fn grid_sweep_is_deterministic_and_streams_per_cell() {
        let grid = tiny_grid();
        let a = run_grid_streaming(&grid, 2, |c| SimConfig::interruptible(c.buffers, c.tasks));
        let b = run_grid_streaming(&grid, 3, |c| SimConfig::interruptible(c.buffers, c.tasks));
        assert_eq!(a.len(), 4);
        for ((cell_a, acc_a), (cell_b, acc_b)) in a.iter().zip(&b) {
            assert_eq!(cell_a, cell_b);
            assert_eq!(
                acc_a, acc_b,
                "cell {} differs across shard sizes",
                cell_a.index
            );
            assert_eq!(acc_a.trees(), 4);
        }
        // And each cell matches its own standalone streaming campaign.
        for (cell, acc) in &a {
            let standalone = run_campaign_streaming(&grid.cell_campaign(cell), 4, |t| {
                SimConfig::interruptible(cell.buffers, t)
            });
            assert_eq!(&standalone, acc, "cell {} standalone mismatch", cell.index);
        }
    }
}
