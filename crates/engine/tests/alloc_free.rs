//! Verifies the campaign-engine acceptance criterion: the steady-state
//! event loop performs **zero heap allocations per event**, and a reused
//! [`SimWorkspace`] makes entire repeat runs allocation-free.
//!
//! A counting global allocator tallies every allocation on this thread;
//! the tests warm the workspace (first runs grow the arenas to their
//! high-water marks), snapshot the counter, then drive thousands more
//! events/runs and assert the counter did not move.

use bc_engine::{NullSink, RingRecorder, SimConfig, SimWorkspace, Simulation};
use bc_platform::{RandomTreeConfig, Tree};
use bc_simcore::split_seed;
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

fn random_tree(seed: u64) -> Tree {
    RandomTreeConfig::default().generate(seed)
}

/// Within one run: once start-up has passed, each further event touches
/// only pre-sized containers.
///
/// Both tests measure the *production* (unchecked) path: checked mode's
/// terminal oracle does exact rational analysis, which allocates, so the
/// configs opt out explicitly (under `debug_assertions` checked would
/// otherwise default on).
#[test]
fn steady_state_loop_is_allocation_free_per_event() {
    for cfg in [
        SimConfig::interruptible(3, 4000).with_checked(false),
        SimConfig::non_interruptible(1, 4000).with_checked(false),
    ] {
        let mut sim = Simulation::with_workspace(random_tree(7), cfg, SimWorkspace::new());
        sim.start();
        // Warm up: completion_times is pre-reserved, but the agenda heap,
        // free list, and per-node queues reach their high-water marks only
        // once the pipeline is saturated.
        while sim.completed() < 2000 {
            assert!(sim.step(), "run ended during warm-up");
        }
        COUNTING.with(|c| c.set(true));
        let before = allocs();
        for _ in 0..5000 {
            if !sim.step() {
                break;
            }
        }
        let after = allocs();
        COUNTING.with(|c| c.set(false));
        assert_eq!(
            after - before,
            0,
            "steady-state event loop allocated ({:?})",
            sim.now()
        );
    }
}

/// The tracing claim: with the default [`NullSink`], instrumentation
/// compiles down to nothing — the explicitly-traced simulation is exactly
/// as allocation-free per event as the untraced one. This is the
/// "zero overhead when off" half of the trace subsystem's contract.
#[test]
fn null_sink_traced_loop_is_allocation_free_per_event() {
    let cfg = SimConfig::interruptible(3, 4000).with_checked(false);
    let mut sim = Simulation::traced(random_tree(7), cfg, SimWorkspace::new(), NullSink);
    sim.start();
    while sim.completed() < 2000 {
        assert!(sim.step(), "run ended during warm-up");
    }
    COUNTING.with(|c| c.set(true));
    let before = allocs();
    for _ in 0..5000 {
        if !sim.step() {
            break;
        }
    }
    let after = allocs();
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        after - before,
        0,
        "NullSink-traced event loop allocated ({:?})",
        sim.now()
    );
}

/// And the "cheap when on" half: a [`RingRecorder`] preallocates its ring
/// at construction, so steady-state recording into it is allocation-free
/// too — safe to leave armed in checked production runs.
#[test]
fn ring_recorder_traced_loop_is_allocation_free_per_event() {
    let cfg = SimConfig::interruptible(3, 4000).with_checked(false);
    let sink = RingRecorder::new(512);
    let mut sim = Simulation::traced(random_tree(7), cfg, SimWorkspace::new(), sink);
    sim.start();
    while sim.completed() < 2000 {
        assert!(sim.step(), "run ended during warm-up");
    }
    COUNTING.with(|c| c.set(true));
    let before = allocs();
    for _ in 0..5000 {
        if !sim.step() {
            break;
        }
    }
    let after = allocs();
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        after - before,
        0,
        "RingRecorder-traced event loop allocated ({:?})",
        sim.now()
    );
}

/// Across runs: after a few campaign iterations warm the workspace,
/// whole simulations (construction included) run without allocating.
#[test]
fn reused_workspace_makes_repeat_runs_allocation_free() {
    let cfg = SimConfig::interruptible(3, 500).with_checked(false);
    let mut ws = SimWorkspace::new();
    let tree = random_tree(split_seed(42, 9));
    // Warm runs on the same tree grow every arena to its final size.
    for _ in 0..3 {
        let r = ws.run(tree.clone(), cfg.clone());
        assert_eq!(r.tasks_completed(), 500);
    }
    let trees: Vec<Tree> = (0..5).map(|_| tree.clone()).collect();
    COUNTING.with(|c| c.set(true));
    let before = allocs();
    for t in trees {
        // `t` is consumed and dropped inside; only `into_result`'s final
        // trace vectors allocate, and those are the product we measure
        // separately below.
        let (result, returned) =
            Simulation::with_workspace(t, cfg.clone(), std::mem::take(&mut ws)).run_reusing();
        ws = returned;
        // RunResult construction allocates its per-node summary vectors
        // (the completion_times Vec is moved, not copied); everything else
        // must be free.
        assert_eq!(result.tasks_completed(), 500);
        drop(result);
    }
    let after = allocs();
    COUNTING.with(|c| c.set(false));
    // Per run: exactly the six per-node summary vectors plus the next
    // run's completion_times/checkpoint reserve — a small constant,
    // independent of event count (~570k events would otherwise show up
    // as tens of thousands of allocations).
    let per_run = (after - before) / 5;
    assert!(
        per_run <= 16,
        "expected only constant per-run result allocations, got {per_run} per run"
    );
}
