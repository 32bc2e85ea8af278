//! Extends the engine's counting-allocator discipline to the streaming
//! campaign loop: folding into a [`CampaignAccumulator`] is *exactly*
//! allocation-free, and a whole streaming sharded campaign allocates
//! O(trees) — per-tree setup (generation, analysis, result summary),
//! never per event. A campaign whose runs process ~8x the events must
//! not allocate meaningfully more than one with short runs.
//!
//! The vendored worker shim runs inline on the calling thread at one
//! worker, so a thread-local counter observes every allocation the
//! streaming engine makes.

use bc_engine::SimConfig;
use bc_experiments::campaign::{
    accumulate_materialized, run_campaign_streaming, run_campaign_with_results,
    CampaignAccumulator, CampaignConfig,
};
use bc_metrics::OnsetConfig;
use bc_platform::RandomTreeConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-init: no lazy initialization, so reading the counter from
    // inside `alloc` cannot itself allocate or recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // The on/off switch is per thread like the counter: the harness runs
    // this file's tests in parallel, and a shared switch would let one
    // test close another's measurement window.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn campaign(tasks: u64) -> CampaignConfig {
    CampaignConfig {
        trees: 12,
        tasks,
        seed: 2003,
        tree_config: RandomTreeConfig {
            min_nodes: 5,
            max_nodes: 40,
            comm_min: 1,
            comm_max: 15,
            compute_scale: 200,
        },
        onset: OnsetConfig {
            window_threshold: 100,
            crossings: 2,
        },
    }
}

/// The accumulator itself is integer arithmetic: merging shard
/// accumulators performs **zero** heap allocations, and folding a run's
/// summary in costs at most a tiny constant (converting an oversized
/// exact rational rate to fixed point can allocate a scratch bignum —
/// nothing that scales with events). This is what lets the streaming
/// engine retire each tree's result immediately without any aggregation
/// cost showing up per event.
#[test]
fn fold_is_constant_and_merge_is_allocation_free() {
    let runs = run_campaign_with_results(&campaign(500), |t| SimConfig::interruptible(3, t));
    let (a, b) = runs.split_at(runs.len() / 2);

    COUNTING.with(|c| c.set(true));
    let fold_before = allocs();
    let mut left = CampaignAccumulator::new();
    for (run, result) in a {
        left.fold_summary(run, result);
    }
    let mut right = CampaignAccumulator::new();
    for (run, result) in b {
        right.fold_summary(run, result);
    }
    let fold_allocs = allocs() - fold_before;

    let merge_before = allocs();
    let mut total = left.clone();
    total.merge(&right);
    let merge_allocs = allocs() - merge_before;
    COUNTING.with(|c| c.set(false));

    assert_eq!(merge_allocs, 0, "accumulator merge allocated");
    assert!(
        fold_allocs <= 4 * runs.len() as u64,
        "fold allocated {fold_allocs} times over {} runs — more than the \
         small per-run constant the rate conversion can justify",
        runs.len()
    );
    assert_eq!(total, accumulate_materialized(&runs));
}

/// End to end: a streaming sharded campaign allocates per *tree*
/// (generation, oracle analysis, summary vectors), not per *event*.
/// Scaling each run's event count ~8x must leave the campaign's
/// allocation count essentially unchanged — the steady-state event loop
/// inside each shard is allocation-free after the workspace arenas warm
/// up, exactly as the engine's `alloc_free` suite proves for single
/// runs.
#[test]
fn streaming_campaign_allocates_per_tree_not_per_event() {
    // One inline worker so the thread-local counter sees the whole run.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .unwrap();

    let measure = |tasks: u64| {
        let c = campaign(tasks);
        // Warm-up pass: libstd and the generator lazily initialize some
        // one-time state (thread RNG, etc.) the first time through.
        let _ = run_campaign_streaming(&c, 4, |t| SimConfig::interruptible(3, t));
        COUNTING.with(|c| c.set(true));
        let before = allocs();
        let acc = run_campaign_streaming(&c, 4, |t| SimConfig::interruptible(3, t));
        let after = allocs();
        COUNTING.with(|c| c.set(false));
        (after - before, acc.run_stats.events)
    };

    let (allocs_short, events_short) = measure(500);
    let (allocs_long, events_long) = measure(4_000);

    // Premise: the long campaign really does far more simulation work,
    // and the counter really is observing the inline worker.
    assert!(
        events_long >= events_short * 4,
        "expected ~8x events, got {events_short} vs {events_long}"
    );
    assert!(
        allocs_short > c_trees(),
        "counter saw almost nothing ({allocs_short} allocations) — \
         streaming no longer runs inline at one worker?"
    );

    // The claim: allocations track trees, not events. Everything that
    // allocates (tree generation, Theorem-1 analysis, per-run summary
    // vectors) happens once per tree; the event loop itself is
    // allocation-free, so 8x the events must not even double the count.
    assert!(
        allocs_long < allocs_short * 2,
        "streaming campaign allocations scaled with events: \
         {allocs_short} allocations over {events_short} events vs \
         {allocs_long} over {events_long}"
    );
}

fn c_trees() -> u64 {
    campaign(500).trees as u64
}
