//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//! protocol discipline, buffer counts, growth gates, scheduling policies,
//! latency observers, and the two analytic solvers.

use bandwidth_centric::prelude::*;
use bandwidth_centric::steady::lp_optimal_rate;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn tree(seed: u64) -> Tree {
    RandomTreeConfig {
        min_nodes: 40,
        max_nodes: 120,
        comm_min: 1,
        comm_max: 60,
        compute_scale: 3_000,
    }
    .generate(seed)
}

/// IC vs non-IC event throughput on the same platform and workload.
fn ablate_protocol(c: &mut Criterion) {
    let t = tree(1);
    let mut g = c.benchmark_group("protocol");
    for (name, cfg) in [
        ("interruptible_fb3", SimConfig::interruptible(3, 1_500)),
        (
            "non_interruptible_ib1",
            SimConfig::non_interruptible(1, 1_500),
        ),
        (
            "non_interruptible_fb3",
            SimConfig::non_interruptible_fixed(3, 1_500),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(Simulation::new(t.clone(), cfg.clone()).run().end_time))
        });
    }
    g.finish();
}

/// Fixed buffer count: the cost/benefit of FB = 1..4.
fn ablate_buffers(c: &mut Criterion) {
    let t = tree(2);
    let mut g = c.benchmark_group("fixed_buffers");
    for fb in [1u32, 2, 3, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(fb), &fb, |b, &fb| {
            b.iter(|| {
                black_box(
                    Simulation::new(t.clone(), SimConfig::interruptible(fb, 1_500))
                        .run()
                        .end_time,
                )
            })
        });
    }
    g.finish();
}

/// Growth gates for the non-IC protocol.
fn ablate_growth_gate(c: &mut Criterion) {
    let t = tree(3);
    let mut g = c.benchmark_group("growth_gate");
    for (name, gate) in [
        ("every_event", GrowthGate::EveryEvent),
        ("once_per_arrival", GrowthGate::OncePerArrival),
        ("after_pool_filled", GrowthGate::AfterPoolFilled),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = SimConfig::non_interruptible_gated(1, gate, 1_500);
                black_box(Simulation::new(t.clone(), cfg).run().max_buffers())
            })
        });
    }
    g.finish();
}

/// Scheduling policies: bandwidth-centric vs the baselines.
fn ablate_selector(c: &mut Criterion) {
    let t = tree(4);
    let mut g = c.benchmark_group("selector");
    for (name, sel) in [
        ("bandwidth_centric", SelectorKind::BandwidthCentric),
        ("compute_centric", SelectorKind::ComputeCentric),
        ("round_robin", SelectorKind::RoundRobin),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = SimConfig::interruptible(3, 1_500);
                cfg.selector = sel;
                black_box(Simulation::new(t.clone(), cfg).run().end_time)
            })
        });
    }
    g.finish();
}

/// Latency observers: oracle vs measured.
fn ablate_observer(c: &mut Criterion) {
    let t = tree(5);
    let mut g = c.benchmark_group("observer");
    for (name, obs) in [
        ("oracle", ObserverKind::Oracle),
        ("last_sample", ObserverKind::LastSample { initial: 0 }),
        (
            "ema_1_4",
            ObserverKind::Ema {
                initial: 0,
                num: 1,
                den: 4,
            },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = SimConfig::interruptible(3, 1_500);
                cfg.observer = obs;
                black_box(Simulation::new(t.clone(), cfg).run().end_time)
            })
        });
    }
    g.finish();
}

/// The event agenda under a preemption-heavy schedule/cancel/pop mix.
fn ablate_event_queue(c: &mut Criterion) {
    use bandwidth_centric::simcore::Agenda;
    let mut g = c.benchmark_group("event_queue");
    let script: Vec<(u64, bool)> = (0..2_000u64)
        .map(|i| (i * 7919 % 500, i % 3 == 0))
        .collect();
    g.bench_function("heap_agenda", |b| {
        b.iter(|| {
            let mut a = Agenda::new();
            let mut handles = Vec::new();
            for &(delay, cancel) in &script {
                let h = a.schedule(delay, delay);
                if cancel {
                    a.cancel(h);
                } else {
                    handles.push(h);
                }
                if delay % 5 == 0 {
                    black_box(a.next());
                }
            }
            while a.next().is_some() {}
            black_box(handles.len())
        })
    });
    g.finish();
}

/// Analytic solvers: Theorem 1 recursion vs the LP oracle (the reason
/// the closed form exists: orders of magnitude faster).
fn ablate_solvers(c: &mut Criterion) {
    let small = RandomTreeConfig {
        min_nodes: 10,
        max_nodes: 14,
        comm_min: 1,
        comm_max: 10,
        compute_scale: 50,
    }
    .generate(6);
    let mut g = c.benchmark_group("solver");
    g.bench_function("theorem1_recursion", |b| {
        b.iter(|| black_box(SteadyState::analyze(&small).optimal_rate()))
    });
    g.bench_function("lp_simplex_oracle", |b| {
        b.iter(|| black_box(lp_optimal_rate(&small)))
    });
    // The recursion also scales to paper-size trees where the LP cannot.
    let large = RandomTreeConfig::default().generate(7);
    g.bench_function("theorem1_recursion_paper_scale", |b| {
        b.iter(|| black_box(SteadyState::analyze(&large).optimal_rate()))
    });
    g.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablate_protocol, ablate_buffers, ablate_growth_gate,
              ablate_selector, ablate_observer, ablate_event_queue,
              ablate_solvers
);
criterion_main!(ablations);
