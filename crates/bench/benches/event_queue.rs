//! Event-queue ablations for the campaign engine:
//!
//! * `event_key_heap` — the packed-key 4-ary heap against the
//!   `BinaryHeap<Reverse<(u64, u64, u32, u32)>>` it replaced, on the
//!   push/pop mix a simulation produces.
//! * `agenda_impl` — the production tombstone [`Agenda`] under
//!   interruptible-style schedule/cancel/pop churn.
//! * `workspace_reuse` — a full simulation run with a fresh allocation
//!   arena per run versus a reused [`SimWorkspace`].

use bandwidth_centric::prelude::*;
use bandwidth_centric::simcore::{Agenda, PackedEvent, QuadHeap};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Deterministic xorshift stream for workload generation.
fn keys(n: usize) -> Vec<(u64, u64, u32)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100_000, i as u64, (state % 512) as u32)
        })
        .collect()
}

/// Push all keys, then interleave (pop, push, pop) to steady state, then
/// drain — the shape of a simulation's event population over time.
fn bench_heaps(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_key_heap");
    for n in [256usize, 4096] {
        let ks = keys(n);
        g.bench_with_input(BenchmarkId::new("quad_packed", n), &ks, |b, ks| {
            b.iter(|| {
                let mut h = QuadHeap::new();
                for &(t, s, sl) in ks {
                    h.push(PackedEvent::pack(t, s, sl));
                }
                let mut acc = 0u64;
                for &(t, s, sl) in ks {
                    acc ^= h.pop().unwrap().time();
                    h.push(PackedEvent::pack(t.wrapping_add(7), s, sl));
                }
                while let Some(e) = h.pop() {
                    acc ^= e.time();
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("std_binary_tuple", n), &ks, |b, ks| {
            b.iter(|| {
                let mut h: BinaryHeap<Reverse<(u64, u64, u32, u32)>> = BinaryHeap::new();
                for &(t, s, sl) in ks {
                    h.push(Reverse((t, s, sl, 0)));
                }
                let mut acc = 0u64;
                for &(t, s, sl) in ks {
                    acc ^= h.pop().unwrap().0 .0;
                    h.push(Reverse((t.wrapping_add(7), s, sl, 0)));
                }
                while let Some(Reverse((t, ..))) = h.pop() {
                    acc ^= t;
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// Interruptible-communication churn: schedule a wave, cancel most of it
/// (preemptions), pop the rest; repeat.
fn bench_agendas(c: &mut Criterion) {
    let mut g = c.benchmark_group("agenda_impl");
    for pending in [64usize, 512] {
        g.bench_with_input(
            BenchmarkId::new("tombstone_heap", pending),
            &pending,
            |b, &pending| {
                b.iter(|| {
                    let mut a: Agenda<u64> = Agenda::new();
                    let mut acc = 0u64;
                    for round in 0..50u64 {
                        let hs: Vec<_> =
                            (0..pending as u64).map(|i| a.schedule(10 + i, i)).collect();
                        for h in hs.iter().skip(1).step_by(2) {
                            acc ^= a.cancel(*h).unwrap_or(0);
                        }
                        for _ in 0..pending / 2 {
                            acc ^= a.next().map_or(0, |(t, _)| t) + round;
                        }
                    }
                    while let Some((t, _)) = a.next() {
                        acc ^= t;
                    }
                    black_box(acc)
                })
            },
        );
    }
    g.finish();
}

/// The two-tier ladder front-end under three delay profiles. The ladder
/// absorbs schedules landing within 1024 steps of the clock and the
/// 4-ary heap takes the rest, so the same insert/cancel/pop mix is run
/// near-only (ladder-dominated), tier-straddling (merge path hot), and
/// far-heavy (heap-dominated) — a regression in either tier or in the
/// front merge shows up in exactly one profile.
fn bench_agenda_monotonicity(c: &mut Criterion) {
    let profiles: [(&str, u64, u64); 3] = [
        ("near_monotone", 1, 64),
        ("tier_straddling", 1, 4096),
        ("far_heavy", 2048, 100_000),
    ];
    let mut g = c.benchmark_group("agenda_monotonicity");
    for (name, lo, hi) in profiles {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut a: Agenda<u64> = Agenda::new();
                let mut state = 0x243f_6a88_85a3_08d3u64;
                let mut rnd = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut handles = Vec::with_capacity(256);
                for i in 0..256u64 {
                    handles.push(a.schedule(lo + rnd() % (hi - lo + 1), i));
                }
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    let Some((t, v)) = a.next() else { break };
                    acc ^= t.wrapping_add(v);
                    handles.push(a.schedule(lo + rnd() % (hi - lo + 1), i));
                    if i % 3 == 0 {
                        handles.push(a.schedule(lo + rnd() % (hi - lo + 1), i));
                    }
                    if i % 5 == 0 {
                        // Cancel a pseudo-random outstanding handle (may
                        // already be popped; cancel is then a no-op).
                        let h = handles[rnd() as usize % handles.len()];
                        acc ^= a.cancel(h).unwrap_or(0);
                    }
                }
                while let Some((t, _)) = a.next() {
                    acc ^= t;
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// End-to-end: fresh arenas every run vs one warm workspace.
fn bench_workspace_reuse(c: &mut Criterion) {
    let tree = RandomTreeConfig {
        min_nodes: 40,
        max_nodes: 120,
        comm_min: 1,
        comm_max: 60,
        compute_scale: 3_000,
    }
    .generate(3);
    let cfg = SimConfig::interruptible(3, 1_500);
    let mut g = c.benchmark_group("workspace_reuse");
    g.bench_function("fresh_per_run", |b| {
        b.iter(|| black_box(Simulation::new(tree.clone(), cfg.clone()).run().end_time))
    });
    g.bench_function("reused_workspace", |b| {
        let mut ws = SimWorkspace::new();
        b.iter(|| black_box(ws.run(tree.clone(), cfg.clone()).end_time))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_heaps,
    bench_agendas,
    bench_agenda_monotonicity,
    bench_workspace_reuse
);
criterion_main!(benches);
