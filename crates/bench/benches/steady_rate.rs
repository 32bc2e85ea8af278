//! Theorem 1 bottom-up fold benchmarks at campaign scale. The fold's
//! accumulators (`Σ c_i/w_i`, `Σ 1/w_i`) update in place; on shallow
//! trees every step is word arithmetic, and only deep trees whose weights
//! outgrow a word promote to the bignum tier, where the GCDs of each
//! reduction dominate.

use bandwidth_centric::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_analyze_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("steady_rate");
    for (name, cfg) in [
        (
            "shallow_64",
            RandomTreeConfig {
                min_nodes: 60,
                max_nodes: 64,
                comm_min: 1,
                comm_max: 20,
                compute_scale: 100,
            },
        ),
        ("paper_scale", RandomTreeConfig::default()),
    ] {
        let t = cfg.generate(7);
        g.bench_with_input(BenchmarkId::from_parameter(name), &t, |b, t| {
            b.iter(|| black_box(SteadyState::analyze(t).optimal_rate()))
        });
    }
    g.finish();
}

fn bench_population(c: &mut Criterion) {
    // A slice of the paper's tree population (§4.1 generator defaults:
    // ~245 nodes on average at x = 10,000, about half the optima on the
    // bignum tier): analyze 20 trees back to back, the set-up of every
    // campaign figure.
    let cfg = RandomTreeConfig::default();
    let trees: Vec<Tree> = (0..20).map(|s| cfg.generate(s)).collect();
    let mut g = c.benchmark_group("steady_rate_population");
    g.bench_function("analyze_20_trees", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for t in &trees {
                acc += SteadyState::analyze(t).optimal_rate().to_f64();
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(
    name = steady_rate;
    config = Criterion::default().sample_size(15);
    targets = bench_analyze_scaling, bench_population
);
criterion_main!(steady_rate);
