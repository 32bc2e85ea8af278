//! Pins `run_variants`, the one materialized campaign driver, against a
//! sequential reference loop kept here: per variant and tree, prepare the
//! tree, run it in one `SimWorkspace`, summarize. The driver prepares
//! each tree once for all variants, runs them on parallel workers and
//! transposes the results; none of that may change a single summary.
//! Also pinned: runs over the first `n` trees of a campaign are the first
//! `n` runs over more trees (the figures read such prefixes), and the
//! results do not depend on the worker-thread count.

use bc_core::GrowthGate;
use bc_engine::{SimConfig, SimWorkspace};
use bc_experiments::campaign::{
    run_ratio_classes, run_variants, summarize, CampaignConfig, TreeRun, RATIO_CLASSES,
};
use bc_experiments::{fig4, fig5, table2};
use bc_metrics::OnsetConfig;
use bc_platform::RandomTreeConfig;
use std::sync::{Mutex, MutexGuard};

/// The thread test changes the process-wide worker-pool override; the
/// other tests take the lock too so their counts stay what they set.
static POOL: Mutex<()> = Mutex::new(());

/// Takes [`POOL`], also after another test failed while holding it.
fn pool() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn campaign(trees: usize) -> CampaignConfig {
    CampaignConfig {
        trees,
        tasks: 1_000,
        seed: 2003,
        tree_config: RandomTreeConfig {
            min_nodes: 5,
            max_nodes: 40,
            comm_min: 1,
            comm_max: 20,
            compute_scale: 500,
        },
        onset: OnsetConfig {
            window_threshold: 100,
            crossings: 2,
        },
    }
}

/// The reference: one variant at a time, one tree at a time, one thread.
fn reference(campaign: &CampaignConfig, configs: &[SimConfig]) -> Vec<Vec<TreeRun>> {
    let mut ws = SimWorkspace::new();
    configs
        .iter()
        .map(|cfg| {
            (0..campaign.trees)
                .map(|i| {
                    let p = campaign.prepare(i);
                    let result = ws.run(p.tree.clone(), cfg.clone());
                    summarize(i, &p.tree, &p.analysis, &result, campaign.onset)
                })
                .collect()
        })
        .collect()
}

/// The main population's variants: Fig 4's four.
fn main_configs(tasks: u64) -> Vec<SimConfig> {
    fig4::configs(tasks, GrowthGate::default())
}

/// The class populations' variants: non-IC/IB=1 recording Table 2's
/// checkpoints, and IC/FB=3.
fn class_configs(tasks: u64) -> Vec<SimConfig> {
    vec![
        table2::config(GrowthGate::default(), tasks),
        SimConfig::interruptible(3, tasks),
    ]
}

#[test]
fn driver_matches_the_sequential_reference() {
    let _pool = pool();
    let c = campaign(6);
    let configs = main_configs(c.tasks);
    let runs = run_variants(&c, &configs);
    assert_eq!(runs, reference(&c, &configs));
    assert!(runs.iter().all(|v| v.len() == 6));
    assert!(runs[0]
        .iter()
        .zip(&runs[3])
        .all(|(a, b)| a.index == b.index));

    let configs = class_configs(c.tasks);
    let classes = run_ratio_classes(&c, &configs);
    assert_eq!(classes.len(), configs.len());
    for (k, &x) in RATIO_CLASSES.iter().enumerate() {
        // The class population, written out: compute scale x, seed + x.
        let class = CampaignConfig {
            seed: c.seed + x,
            tree_config: RandomTreeConfig {
                compute_scale: x,
                ..c.tree_config
            },
            ..c.clone()
        };
        let expected = reference(&class, &configs);
        for (v, variant) in classes.iter().enumerate() {
            assert_eq!(variant[k], expected[v], "class x={x}, variant {v}");
        }
    }
    // Table 2's checkpoints were recorded (100 and 1 000 of 1 000 tasks).
    assert!(classes[0][0]
        .iter()
        .all(|r| r.checkpoint_max_buffers.len() == 2));
}

#[test]
fn runs_over_a_prefix_are_a_prefix_of_the_runs() {
    let _pool = pool();
    let (short, long) = (campaign(3), campaign(7));
    let configs = main_configs(short.tasks);
    for (s, l) in run_variants(&short, &configs)
        .iter()
        .zip(run_variants(&long, &configs))
    {
        assert_eq!(s[..], l[..3]);
    }
    let configs = fig5::configs(short.tasks);
    for (s, l) in run_ratio_classes(&short, &configs)
        .iter()
        .zip(run_ratio_classes(&long, &configs))
    {
        for (s, l) in s.iter().zip(&l) {
            assert_eq!(s[..], l[..3]);
        }
    }
}

#[test]
fn driver_is_bit_identical_at_1_2_4_threads() {
    let _pool = pool();
    let c = campaign(9);
    let configs = main_configs(c.tasks);
    let mut baseline = None;
    for threads in [1usize, 2, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .unwrap();
        assert_eq!(rayon::current_num_threads(), threads);
        let runs = run_variants(&c, &configs);
        match &baseline {
            None => baseline = Some(runs),
            Some(b) => assert_eq!(b, &runs, "runs differ at {threads} threads"),
        }
    }
    // Restore automatic sizing; the global override outlives the test.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .unwrap();
}
