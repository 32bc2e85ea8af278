//! One bench per table of the paper's evaluation (miniaturized; see the
//! `table1`/`table2` binaries for the full artifacts).

use bandwidth_centric::prelude::GrowthGate;
use bc_bench::bench_campaign;
use bc_experiments::campaign::{run_ratio_classes, run_variants};
use bc_experiments::{fig4, table1, table2};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let campaign = bench_campaign(4, 800);
    c.bench_function("table1_buffer_thresholds", |b| {
        b.iter(|| {
            let configs = fig4::configs(campaign.tasks, GrowthGate::default());
            let mut ic = run_variants(black_box(&campaign), &configs);
            black_box(table1::Table1 {
                nonic: ic.remove(0),
                ic,
            })
        })
    });
}

fn bench_table2(c: &mut Criterion) {
    let campaign = bench_campaign(2, 800);
    c.bench_function("table2_growth_by_ratio_class", |b| {
        b.iter(|| {
            let config = table2::config(GrowthGate::default(), campaign.tasks);
            let runs = run_ratio_classes(black_box(&campaign), &[config]);
            black_box(table2::build(&runs[0], campaign.tasks))
        })
    });
}

criterion_group!(
    name = tables;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_table2
);
criterion_main!(tables);
