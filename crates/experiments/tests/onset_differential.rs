//! Differential check of the non-reducing window-rate test on the
//! campaign's real population.
//!
//! `WindowRate::reaches` decides `tasks/span ≥ rate` with
//! `Rational::cmp_ratio`, without building `rate · span` as a reduced
//! rational. This file keeps the reducing comparison as an oracle and
//! runs paper-default trees (10,000 tasks, seed 2003) under IC/FB=3 and
//! non-IC/IB=1: `detect_onset`, `degraded_fraction` and `time_to_rate`
//! must agree with oracle versions built on it, on completion vectors
//! that cover optimal rates on both `Rational` tiers and runs that do
//! and do not reach the optimum.

use bc_engine::{SimConfig, SimWorkspace};
use bc_experiments::campaign::CampaignConfig;
use bc_metrics::{degraded_fraction, detect_onset, time_to_rate, OnsetConfig};
use bc_rational::Rational;

/// `tasks/span ≥ rate`, decided by building `rate · span` as a fully
/// reduced rational and comparing it with `tasks`.
fn reaches_reducing(tasks: u64, span: u64, rate: &Rational) -> bool {
    span == 0
        || Rational::from_integer(tasks as i128)
            >= rate.mul_ref(&Rational::from_integer(span as i128))
}

fn detect_onset_reducing(c: &[u64], optimal: &Rational, cfg: OnsetConfig) -> Option<u64> {
    let mut seen = 0u32;
    for x in 1..=c.len() / 2 {
        if x as u64 <= cfg.window_threshold {
            continue;
        }
        if reaches_reducing(x as u64, c[2 * x - 1] - c[x - 1], optimal) {
            seen += 1;
            if seen >= cfg.crossings {
                return Some(x as u64);
            }
        }
    }
    None
}

fn degraded_fraction_reducing(c: &[u64], chunk: usize, target: &Rational) -> f64 {
    let chunks = c.len() / chunk;
    if chunks == 0 {
        return 0.0;
    }
    let degraded = (0..chunks)
        .filter(|&k| {
            let base = if k == 0 { 0 } else { c[k * chunk - 1] };
            !reaches_reducing(chunk as u64, c[(k + 1) * chunk - 1] - base, target)
        })
        .count();
    degraded as f64 / chunks as f64
}

fn time_to_rate_reducing(c: &[u64], after: u64, target: &Rational, window: usize) -> Option<u64> {
    let idx0 = c.partition_point(|&t| t <= after);
    (idx0 + window - 1..c.len()).find_map(|k| {
        let s = k + 1 - window;
        let base = if s == idx0 { after } else { c[s - 1] };
        reaches_reducing(window as u64, c[k] - base, target).then(|| c[k] - after)
    })
}

#[test]
fn window_scans_match_the_reducing_oracle_on_paper_trees() {
    let campaign = CampaignConfig::paper(12, 10_000, 2003);
    let mut ws = SimWorkspace::new();
    // (tier is big, run reached the optimum) combinations seen.
    let mut seen = [[false; 2]; 2];
    let mut big_trees = Vec::new();
    for i in 0..campaign.trees {
        let p = campaign.prepare(i);
        let optimal = p.analysis.optimal_rate();
        let big = !optimal.is_small();
        if big {
            big_trees.push(i);
        }
        for cfg in [
            SimConfig::interruptible(3, campaign.tasks),
            SimConfig::non_interruptible(1, campaign.tasks),
        ] {
            // The invariant checker is covered elsewhere; keep debug runs short.
            let run = ws.run(p.tree.clone(), cfg.with_checked(false));
            let c = &run.completion_times;
            assert_eq!(c.len(), 10_000);

            let onset = detect_onset(c, &optimal, campaign.onset);
            assert_eq!(
                onset,
                detect_onset_reducing(c, &optimal, campaign.onset),
                "tree {i}: onset"
            );
            seen[usize::from(big)][usize::from(onset.is_some())] = true;

            for chunk in [100, 1_000] {
                assert_eq!(
                    degraded_fraction(c, chunk, &optimal),
                    degraded_fraction_reducing(c, chunk, &optimal),
                    "tree {i}: degraded_fraction, chunk {chunk}"
                );
            }
            for after in [0, c[c.len() / 3]] {
                for window in [100, 500] {
                    assert_eq!(
                        time_to_rate(c, after, &optimal, window),
                        time_to_rate_reducing(c, after, &optimal, window),
                        "tree {i}: time_to_rate after {after}, window {window}"
                    );
                }
            }
        }
    }
    assert!(
        !big_trees.is_empty() && big_trees.len() < campaign.trees,
        "optimal rates on both tiers (big: {big_trees:?})"
    );
    assert!(
        seen.iter().flatten().all(|&s| s),
        "every (tier, reached) combination is covered: {seen:?}"
    );
}
