//! Microbenchmarks for the two-tier `Rational` representation.
//!
//! Each group pits the inline small-word fast path against the
//! forced-bignum baseline of `bc_experiments::rational_baseline`, which
//! `bench_report` also times to document the measured speedup in
//! `BENCH_rational.json`.
//!
//! `onset_scan` times the comparison the paper campaign makes most: the
//! §4.1 onset scan of a 10,000-task paper-default completion vector
//! against its tree's exact optimal rate, for an optimum on each tier and
//! for a run that reaches it (the scan stops at the onset) and one that
//! does not (every window past 300 is tested).

use bandwidth_centric::engine::{SimConfig, SimWorkspace};
use bandwidth_centric::experiments::campaign::CampaignConfig;
use bandwidth_centric::experiments::rational_baseline::{
    big_add, big_mul, big_sub_mul, small_operands,
};
use bandwidth_centric::metrics::{detect_onset, OnsetConfig};
use bandwidth_centric::rational::Rational;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_add(c: &mut Criterion) {
    // Pairwise ops: every input and result is word-sized, the regime the
    // fast path exists for (an accumulating fold grows lcm-like
    // denominators and degrades both paths to bignum within a few terms).
    let xs = small_operands(256);
    let mut g = c.benchmark_group("rational_add");
    g.bench_function("small_path", |b| {
        b.iter(|| {
            for pair in xs.windows(2) {
                black_box(pair[0].add_ref(&pair[1]));
            }
        })
    });
    g.bench_function("bignum_baseline", |b| {
        b.iter(|| {
            for pair in xs.windows(2) {
                black_box(big_add(&pair[0], &pair[1]));
            }
        })
    });
    g.finish();
}

fn bench_mul(c: &mut Criterion) {
    let xs = small_operands(256);
    let mut g = c.benchmark_group("rational_mul");
    g.bench_function("small_path", |b| {
        b.iter(|| {
            for pair in xs.windows(2) {
                black_box(pair[0].mul_ref(&pair[1]));
            }
        })
    });
    g.bench_function("bignum_baseline", |b| {
        b.iter(|| {
            for pair in xs.windows(2) {
                black_box(big_mul(&pair[0], &pair[1]));
            }
        })
    });
    g.finish();
}

fn bench_fused(c: &mut Criterion) {
    // The simplex inner loop shape: cell -= factor * pivot.
    let xs = small_operands(128);
    let factor = Rational::new(7, 3);
    let mut g = c.benchmark_group("rational_sub_mul");
    g.bench_function("small_path", |b| {
        b.iter(|| {
            let mut row = xs.clone();
            for (cell, pv) in row.iter_mut().zip(xs.iter().rev()) {
                cell.sub_mul_assign_ref(&factor, pv);
            }
            black_box(row)
        })
    });
    g.bench_function("bignum_baseline", |b| {
        b.iter(|| {
            let mut row = xs.clone();
            for (cell, pv) in row.iter_mut().zip(xs.iter().rev()) {
                *cell = big_sub_mul(cell, &factor, pv);
            }
            black_box(row)
        })
    });
    g.finish();
}

fn bench_to_f64(c: &mut Criterion) {
    let xs = small_operands(256);
    let mut g = c.benchmark_group("rational_to_f64");
    g.bench_function("small_path", |b| {
        b.iter(|| {
            let mut s = 0.0f64;
            for x in &xs {
                s += x.to_f64();
            }
            black_box(s)
        })
    });
    g.finish();
}

/// A paper-default campaign tree's optimal rate with the completion
/// times of a run that reaches it and of one that does not.
struct ScanCase {
    optimal: Rational,
    reached: Vec<u64>,
    unreached: Vec<u64>,
}

/// The first tree of the seed-2003 paper population whose optimum is on
/// the requested tier and which IC/FB=3 brings to the optimum while
/// non-IC/IB=1 does not.
fn scan_case(big: bool) -> ScanCase {
    let campaign = CampaignConfig::paper(64, 10_000, 2003);
    let mut ws = SimWorkspace::new();
    (0..campaign.trees)
        .find_map(|i| {
            let p = campaign.prepare(i);
            let optimal = p.analysis.optimal_rate();
            if optimal.is_small() == big {
                return None;
            }
            let mut run = |cfg| ws.run(p.tree.clone(), cfg).completion_times;
            let reached = run(SimConfig::interruptible(3, campaign.tasks));
            let unreached = run(SimConfig::non_interruptible(1, campaign.tasks));
            let onset = |c: &[u64]| detect_onset(c, &optimal, OnsetConfig::default());
            (onset(&reached).is_some() && onset(&unreached).is_none()).then_some(ScanCase {
                optimal,
                reached,
                unreached,
            })
        })
        .expect("the population has a reached/unreached pair on each tier")
}

/// The per-window test the onset scan made before `cmp_ratio`: build
/// `rate · span` as a reduced rational and compare it with `tasks`.
fn reducing_onset(c: &[u64], optimal: &Rational) -> Option<u64> {
    let cfg = OnsetConfig::default();
    let mut seen = 0;
    for x in cfg.window_threshold as usize + 1..=c.len() / 2 {
        let span = c[2 * x - 1] - c[x - 1];
        let lhs = Rational::from_integer(x as i128);
        if span == 0 || lhs >= optimal.mul_ref(&Rational::from_integer(span as i128)) {
            seen += 1;
            if seen >= cfg.crossings {
                return Some(x as u64);
            }
        }
    }
    None
}

fn bench_onset_scan(c: &mut Criterion) {
    let cases = [("small", scan_case(false)), ("big", scan_case(true))];
    let mut g = c.benchmark_group("onset_scan");
    for (tier, case) in &cases {
        for (kind, times) in [("reached", &case.reached), ("unreached", &case.unreached)] {
            g.bench_function(format!("{tier}_{kind}"), |b| {
                b.iter(|| {
                    black_box(detect_onset(
                        black_box(times),
                        &case.optimal,
                        OnsetConfig::default(),
                    ))
                })
            });
        }
    }
    let big = &cases[1].1;
    g.bench_function("big_unreached_reducing_baseline", |b| {
        b.iter(|| black_box(reducing_onset(black_box(&big.unreached), &big.optimal)))
    });
    g.finish();
}

criterion_group!(
    name = rational_ops;
    config = Criterion::default().sample_size(20);
    targets = bench_add, bench_mul, bench_fused, bench_to_f64, bench_onset_scan
);
criterion_main!(rational_ops);
