//! Extension experiment: elasticity of the autonomous protocol.
//!
//! §3 argues autonomous scheduling suits overlays that "grow and
//! reconfigure itself dynamically"; §6 defers measuring resilience
//! under "dynamically evolving pools of resources" to future work. This
//! experiment does that measurement: on each random platform a strong
//! subtree joins mid-run and an original subtree later departs (its
//! tasks re-dispatched by the repository). For each of the three
//! topology phases we compare the measured phase rate against that
//! phase's own Theorem 1 optimum.

use bc_engine::{ChangeKind, PlannedChange, SimConfig, Simulation};
use bc_metrics::ascii_table;
use bc_platform::{NodeId, RandomTreeConfig};
use bc_steady::SteadyState;
use rayon::prelude::*;

/// Configuration of the elasticity experiment.
#[derive(Clone, Debug)]
pub struct ElasticityConfig {
    /// Number of random platforms.
    pub trees: usize,
    /// Tasks per run (split across three phases).
    pub tasks: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Base-platform generator.
    pub tree_config: RandomTreeConfig,
    /// The joining worker's uplink and compute times.
    pub join_comm: u64,
    /// Compute time of the joining worker.
    pub join_compute: u64,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        ElasticityConfig {
            trees: 40,
            tasks: 6_000,
            seed: 2003,
            tree_config: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 60,
                comm_min: 1,
                comm_max: 20,
                compute_scale: 300,
            },
            join_comm: 1,
            join_compute: 2,
        }
    }
}

/// Tracking ratios (measured rate / phase optimum) for one platform.
#[derive(Clone, Copy, Debug)]
pub struct TreeElasticity {
    /// Before the join.
    pub base: f64,
    /// After the join, before the departure.
    pub joined: f64,
    /// After the departure.
    pub departed: f64,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Elasticity {
    /// Per-platform tracking ratios.
    pub per_tree: Vec<TreeElasticity>,
}

fn phase_rate(times: &[u64], from: usize, to: usize) -> f64 {
    let span = (times[to - 1] - times[from - 1]).max(1);
    (to - from) as f64 / span as f64
}

fn run_one(cfg: &ElasticityConfig, index: usize) -> TreeElasticity {
    let tree = crate::campaign::campaign_tree(&cfg.tree_config, cfg.seed, index);
    let t_join = cfg.tasks / 3;
    let t_leave = 2 * cfg.tasks / 3;
    // The departing subtree: node 1 (always exists; trees have ≥ 5 nodes).
    let victim = NodeId(1);
    // The joiner attaches under the root; its id is the next arena index.
    let joined_id = NodeId(tree.len() as u32);

    // Reference optima per phase.
    let base_opt = SteadyState::analyze(&tree).optimal_rate().to_f64();
    let mut joined_tree = tree.clone();
    let added = joined_tree.add_child(NodeId::ROOT, cfg.join_comm, cfg.join_compute);
    debug_assert_eq!(added, joined_id);
    let joined_opt = SteadyState::analyze(&joined_tree).optimal_rate().to_f64();
    let departed_tree = joined_tree.without_subtrees(&[victim]);
    let departed_opt = SteadyState::analyze(&departed_tree).optimal_rate().to_f64();

    let sim_cfg = SimConfig::interruptible(3, cfg.tasks)
        .with_change(PlannedChange {
            after_tasks: t_join,
            node: NodeId::ROOT,
            kind: ChangeKind::Join {
                comm: cfg.join_comm,
                compute: cfg.join_compute,
            },
        })
        .with_change(PlannedChange {
            after_tasks: t_leave,
            node: victim,
            kind: ChangeKind::Leave,
        });
    let run = Simulation::new(tree, sim_cfg).run();
    let t = &run.completion_times;
    let n = cfg.tasks as usize;

    // Sample each phase away from its boundaries (re-convergence windows).
    let mid = |a: usize, b: usize| -> (usize, usize) {
        let w = b - a;
        (a + w / 4, b - w / 8)
    };
    let (b0, b1) = mid(1, t_join as usize);
    let (j0, j1) = mid(t_join as usize, t_leave as usize);
    let (d0, d1) = mid(t_leave as usize, n);
    TreeElasticity {
        base: phase_rate(t, b0, b1) / base_opt,
        joined: phase_rate(t, j0, j1) / joined_opt,
        departed: phase_rate(t, d0, d1) / departed_opt,
    }
}

/// Runs the experiment.
pub fn run(cfg: &ElasticityConfig) -> Elasticity {
    let per_tree = (0..cfg.trees)
        .into_par_iter()
        .map(|i| run_one(cfg, i))
        .collect();
    Elasticity { per_tree }
}

fn summarize(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().sum::<f64>() / n;
    let min = values.fold(f64::INFINITY, f64::min);
    (mean, min)
}

/// Renders per-phase tracking statistics.
pub fn render(e: &Elasticity) -> String {
    let mut out = String::new();
    out.push_str(
        "Elasticity — measured phase rate / that phase's Theorem 1 optimum (IC, FB=3)\n\n",
    );
    let rows: Vec<Vec<String>> = [
        (
            "base platform",
            e.per_tree.iter().map(|t| t.base).collect::<Vec<_>>(),
        ),
        ("after join", e.per_tree.iter().map(|t| t.joined).collect()),
        (
            "after departure",
            e.per_tree.iter().map(|t| t.departed).collect(),
        ),
    ]
    .into_iter()
    .map(|(label, vals)| {
        let (mean, min) = summarize(vals.iter().copied());
        vec![
            label.to_string(),
            format!("{:.3}", mean),
            format!("{:.3}", min),
        ]
    })
    .collect();
    out.push_str(&ascii_table(
        &["phase", "mean tracking", "worst tracking"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_tracks_every_topology_phase() {
        let cfg = ElasticityConfig {
            trees: 10,
            tasks: 3_000,
            ..ElasticityConfig::default()
        };
        let e = run(&cfg);
        assert_eq!(e.per_tree.len(), 10);
        let (mean_base, _) = summarize(e.per_tree.iter().map(|t| t.base));
        let (mean_joined, _) = summarize(e.per_tree.iter().map(|t| t.joined));
        let (mean_departed, min_departed) = summarize(e.per_tree.iter().map(|t| t.departed));
        for (label, v) in [
            ("base", mean_base),
            ("joined", mean_joined),
            ("departed", mean_departed),
        ] {
            assert!(
                v > 0.85 && v < 1.05,
                "{label} phase mean tracking {v:.3} out of band"
            );
        }
        assert!(min_departed > 0.6, "worst departed tracking {min_departed}");
        let rendered = render(&e);
        assert!(rendered.contains("after departure"));
    }
}
