//! One bench per figure of the paper's evaluation. Each runs a
//! miniaturized version of the experiment (the shape-preserving subset):
//! the figure's own variants through the campaign driver, then its
//! builder. Regenerating the full artifact is `cargo run -p
//! bc-experiments --bin figN`.

use bandwidth_centric::prelude::*;
use bc_bench::bench_campaign;
use bc_experiments::campaign::{run_ratio_classes, run_variants};
use bc_experiments::{fig3, fig4, fig5, fig6, fig7};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let campaign = bench_campaign(6, 600);
    c.bench_function("fig3_window_curves", |b| {
        b.iter(|| black_box(fig3::run(black_box(&campaign))))
    });
}

fn bench_fig4(c: &mut Criterion) {
    let campaign = bench_campaign(4, 800);
    c.bench_function("fig4_variant_cdfs", |b| {
        b.iter(|| {
            let configs = fig4::configs(campaign.tasks, GrowthGate::default());
            let runs = run_variants(black_box(&campaign), &configs);
            black_box(fig4::build(&runs, campaign.tasks))
        })
    });
}

fn bench_fig5(c: &mut Criterion) {
    let campaign = bench_campaign(2, 800);
    c.bench_function("fig5_ratio_classes", |b| {
        b.iter(|| {
            let runs = run_ratio_classes(black_box(&campaign), &fig5::configs(campaign.tasks));
            black_box(fig5::build(&runs[0], &runs[1], campaign.tasks))
        })
    });
}

fn bench_fig6(c: &mut Criterion) {
    let campaign = bench_campaign(4, 800);
    c.bench_function("fig6_used_subtrees", |b| {
        b.iter(|| {
            let runs = run_variants(black_box(&campaign), &fig5::configs(campaign.tasks));
            black_box(fig6::build(&runs[0], &runs[1]))
        })
    });
}

fn bench_fig7(c: &mut Criterion) {
    c.bench_function("fig7_adaptability", |b| {
        b.iter(|| black_box(fig7::run(black_box(600), black_box(200))))
    });
}

/// The inner loop every figure rests on: one IC/FB=3 run of a mid-size
/// platform, in events per second.
fn bench_single_run(c: &mut Criterion) {
    let tree = RandomTreeConfig::default().generate(3);
    c.bench_function("single_run_ic3_2000_tasks", |b| {
        b.iter(|| {
            let r = Simulation::new(tree.clone(), SimConfig::interruptible(3, 2_000)).run();
            black_box(r.events_processed)
        })
    });
}

criterion_group!(
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig3, bench_fig4, bench_fig5, bench_fig6, bench_fig7, bench_single_run
);
criterion_main!(figures);
