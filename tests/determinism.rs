//! Reproducibility guarantees: the entire stack — generator, simulator,
//! campaign — is a pure function of its seeds.

use bandwidth_centric::engine::VecSink;
use bandwidth_centric::experiments::campaign::{run_variants, CampaignConfig};
use bandwidth_centric::metrics::OnsetConfig;
use bandwidth_centric::prelude::*;
use bandwidth_centric::simcore::trace;
use rayon::IntoParallelIterator;

#[test]
fn generator_is_seed_deterministic() {
    let cfg = RandomTreeConfig::default();
    for seed in [0u64, 1, u64::MAX] {
        let a = cfg.generate(seed);
        let b = cfg.generate(seed);
        assert_eq!(
            bandwidth_centric::platform::io::to_json(&a),
            bandwidth_centric::platform::io::to_json(&b)
        );
    }
}

#[test]
fn simulation_traces_are_bit_identical() {
    let tree = RandomTreeConfig::default().generate(42);
    for cfg in [
        SimConfig::interruptible(3, 800),
        SimConfig::non_interruptible(1, 800),
    ] {
        let a = Simulation::new(tree.clone(), cfg.clone()).run();
        let b = Simulation::new(tree.clone(), cfg).run();
        assert_eq!(a.completion_times, b.completion_times);
        assert_eq!(a.tasks_per_node, b.tasks_per_node);
        assert_eq!(a.max_buffers_per_node, b.max_buffers_per_node);
        assert_eq!(a.events_processed, b.events_processed);
    }
}

#[test]
fn campaigns_are_deterministic_under_parallelism() {
    // run_variants uses rayon; per-index seeding must make the output
    // independent of scheduling.
    let campaign = CampaignConfig {
        trees: 12,
        tasks: 600,
        seed: 99,
        tree_config: RandomTreeConfig {
            min_nodes: 5,
            max_nodes: 40,
            comm_min: 1,
            comm_max: 10,
            compute_scale: 200,
        },
        onset: OnsetConfig {
            window_threshold: 100,
            crossings: 2,
        },
    };
    let ic2 = [SimConfig::interruptible(2, campaign.tasks)];
    let a = run_variants(&campaign, &ic2).remove(0);
    let b = run_variants(&campaign, &ic2).remove(0);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.index, y.index);
        assert_eq!(x.onset, y.onset);
        assert_eq!(x.end_time, y.end_time);
        assert_eq!(x.events, y.events);
        assert_eq!(x.optimal_rate, y.optimal_rate);
    }
}

#[test]
fn structured_traces_are_bit_identical_across_thread_counts() {
    // The result-level guarantee above, strengthened to the full event
    // stream: recording a batch of seeded simulations inside worker pools
    // of 1, 2, and 4 threads must produce byte-identical JSONL traces.
    let seeds = [3u64, 17, 42];
    let configs = [
        SimConfig::interruptible(2, 150),
        SimConfig::non_interruptible(1, 150),
    ];
    let cases: Vec<(u64, SimConfig)> = seeds
        .iter()
        .flat_map(|&s| configs.iter().map(move |c| (s, c.clone())))
        .collect();
    let record_all = || -> Vec<String> {
        cases
            .clone()
            .into_par_iter()
            .map(|(seed, cfg)| {
                let tree = RandomTreeConfig {
                    min_nodes: 5,
                    max_nodes: 40,
                    comm_min: 1,
                    comm_max: 10,
                    compute_scale: 200,
                }
                .generate(seed);
                let sim = Simulation::traced(tree, cfg, SimWorkspace::new(), VecSink::new());
                let (_result, _ws, sink) = sim.run_traced();
                trace::to_jsonl(&sink.records)
            })
            .collect()
    };
    let mut baseline: Option<Vec<String>> = None;
    for threads in [1usize, 2, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .unwrap();
        let traces = record_all();
        match &baseline {
            None => baseline = Some(traces),
            Some(b) => {
                for (i, (one, many)) in b.iter().zip(&traces).enumerate() {
                    assert_eq!(
                        one, many,
                        "trace of case {i} differs between 1 and {threads} threads"
                    );
                }
            }
        }
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .unwrap();
}

#[test]
fn different_seeds_produce_different_campaigns() {
    let mk = |seed| CampaignConfig {
        trees: 4,
        tasks: 300,
        seed,
        tree_config: RandomTreeConfig::default(),
        onset: OnsetConfig::default(),
    };
    let ic2 = [SimConfig::interruptible(2, 300)];
    let a = run_variants(&mk(1), &ic2).remove(0);
    let b = run_variants(&mk(2), &ic2).remove(0);
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.end_time != y.end_time || x.nodes != y.nodes),
        "distinct seeds should yield distinct campaigns"
    );
}
