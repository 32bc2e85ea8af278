//! Extension experiment: resilience under an unreliable network.
//!
//! §6 of the paper defers fault tolerance to future work; this campaign
//! measures it. Each random platform is run under seeded fault
//! schedules of increasing intensity — request loss, mid-flight
//! transfer aborts, link outages, duplicate deliveries, and abrupt
//! subtree crashes — with the invariant checker on. We report, per
//! intensity tier, the fraction of runs that recover to the *post-fault*
//! platform's Theorem 1 optimal rate, the distribution of recovery
//! times, and the degraded-window fraction, and we demand exact task
//! conservation (lost == reissued) and checker silence in every run.

use bc_engine::{FaultEvent, FaultKind, FaultPlan, RecoveryTuning, SimConfig, Simulation};
use bc_metrics::{ascii_table, degraded_fraction, time_to_rate};
use bc_platform::{NodeId, RandomTreeConfig, Tree};
use bc_simcore::split_seed;
use bc_steady::SteadyState;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fault intensity tiers, ordered mildest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intensity {
    /// One lost request batch, one transfer abort, one leaf crash.
    Low,
    /// Low plus a link outage, duplicate deliveries, and an internal
    /// (subtree) crash.
    Medium,
    /// Two crashes, two outages, two request losses, an abort, and
    /// duplicates.
    High,
}

impl Intensity {
    /// Every tier, mildest first.
    pub const ALL: [Intensity; 3] = [Intensity::Low, Intensity::Medium, Intensity::High];

    /// Human-readable tier name.
    pub fn label(self) -> &'static str {
        match self {
            Intensity::Low => "low",
            Intensity::Medium => "medium",
            Intensity::High => "high",
        }
    }
}

/// Protocol variants the campaign runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Interruptible, 3 fixed buffers (the paper's recommended setting).
    IcFb3,
    /// Non-interruptible, 2 fixed buffers (Fig 7's setting).
    NonIcFb2,
}

impl Variant {
    /// Every variant.
    pub const ALL: [Variant; 2] = [Variant::IcFb3, Variant::NonIcFb2];

    /// Human-readable variant name.
    pub fn label(self) -> &'static str {
        match self {
            Variant::IcFb3 => "ic-fb3",
            Variant::NonIcFb2 => "nonic-fb2",
        }
    }

    fn config(self, tasks: u64) -> SimConfig {
        match self {
            Variant::IcFb3 => SimConfig::interruptible(3, tasks),
            Variant::NonIcFb2 => SimConfig::non_interruptible_fixed(2, tasks),
        }
    }
}

/// Configuration of the resilience campaign.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Number of random platforms.
    pub trees: usize,
    /// Tasks per run.
    pub tasks: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Platform generator.
    pub tree_config: RandomTreeConfig,
    /// Consecutive completions a recovery window must hold the
    /// post-fault optimal rate over.
    pub window: usize,
    /// Completions per degraded-fraction chunk.
    pub chunk: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            trees: 48,
            tasks: 2_000,
            seed: 2003,
            tree_config: RandomTreeConfig {
                min_nodes: 6,
                max_nodes: 20,
                comm_min: 1,
                comm_max: 12,
                compute_scale: 150,
            },
            window: 24,
            chunk: 32,
        }
    }
}

/// Outcome of one faulted run.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Variant the run used.
    pub variant: Variant,
    /// Fault intensity tier.
    pub tier: Intensity,
    /// The run sustained the post-fault optimal rate after the last
    /// scheduled fault.
    pub recovered: bool,
    /// Timesteps from the last scheduled fault to the end of the first
    /// sustained-optimal window (when recovered).
    pub recovery_time: Option<u64>,
    /// Fraction of fixed-size completion chunks below the post-fault
    /// optimal rate.
    pub degraded: f64,
    /// The invariant checker tripped (must never happen).
    pub violation: bool,
    /// Every task is accounted for: all completed, lost == reissued.
    pub conserved: bool,
}

/// Campaign output.
#[derive(Clone, Debug)]
pub struct Resilience {
    /// One outcome per (tree, variant, tier), tree-major.
    pub runs: Vec<RunOutcome>,
}

fn under(tree: &Tree, mut n: NodeId, anc: NodeId) -> bool {
    loop {
        if n == anc {
            return true;
        }
        match tree.parent(n) {
            Some(p) => n = p,
            None => return false,
        }
    }
}

fn pick(nodes: &[NodeId], salt: u64) -> Option<NodeId> {
    if nodes.is_empty() {
        None
    } else {
        Some(nodes[(salt % nodes.len() as u64) as usize])
    }
}

/// Builds the seeded fault schedule for one (tree, tier) pair. Fault
/// times sit at fixed fractions of the fault-free makespan lower bound
/// `tasks / optimal_rate`, so every fault lands mid-run; targets are
/// drawn deterministically from the campaign seed.
pub fn fault_plan_for(
    tree: &Tree,
    tasks: u64,
    seed: u64,
    index: usize,
    tier: Intensity,
) -> FaultPlan {
    let opt = SteadyState::analyze(tree).optimal_rate().to_f64();
    let est = ((tasks as f64 / opt).ceil() as u64).max(200);
    let at = |frac_pct: u64| (est * frac_pct / 100).max(1);
    let salt = split_seed(seed, index as u64);

    let non_root: Vec<NodeId> = tree.ids().skip(1).collect();
    let leaves: Vec<NodeId> = tree.ids().skip(1).filter(|&n| tree.is_leaf(n)).collect();
    let internals: Vec<NodeId> = tree.ids().skip(1).filter(|&n| !tree.is_leaf(n)).collect();

    // Crash victims: an internal node (subtree crash, medium and up) and
    // a leaf outside that subtree, so neither crash shadows the other.
    let internal_victim = pick(&internals, split_seed(salt, 1));
    let free_leaves: Vec<NodeId> = leaves
        .iter()
        .copied()
        .filter(|&l| internal_victim.is_none_or(|v| !under(tree, l, v)))
        .collect();
    let leaf_victim = pick(&free_leaves, split_seed(salt, 2)).or_else(|| pick(&leaves, salt));

    let target = |k: u64| pick(&non_root, split_seed(salt, 10 + k)).expect("non-root node");
    let outage = est.clamp(160, 6_400) / 16;

    let mut faults = vec![
        FaultEvent {
            at: at(15),
            node: target(0),
            kind: FaultKind::RequestLoss { batches: 2 },
        },
        FaultEvent {
            at: at(30),
            node: target(1),
            kind: FaultKind::TransferAbort,
        },
    ];
    if let Some(leaf) = leaf_victim {
        faults.push(FaultEvent {
            at: at(50),
            node: leaf,
            kind: FaultKind::Crash,
        });
    }
    if tier != Intensity::Low {
        faults.push(FaultEvent {
            at: at(25),
            node: target(2),
            kind: FaultKind::LinkOutage { duration: outage },
        });
        faults.push(FaultEvent {
            at: at(40),
            node: target(3),
            kind: FaultKind::DuplicateDelivery { copies: 2 },
        });
        if let Some(v) = internal_victim {
            faults.push(FaultEvent {
                at: at(55),
                node: v,
                kind: FaultKind::Crash,
            });
        }
    }
    if tier == Intensity::High {
        faults.push(FaultEvent {
            at: at(20),
            node: target(4),
            kind: FaultKind::RequestLoss { batches: 3 },
        });
        faults.push(FaultEvent {
            at: at(35),
            node: target(5),
            kind: FaultKind::LinkOutage {
                duration: outage * 2,
            },
        });
        faults.push(FaultEvent {
            at: at(60),
            node: target(6),
            kind: FaultKind::TransferAbort,
        });
    }
    FaultPlan {
        seed: split_seed(salt, 3),
        faults,
        recovery: RecoveryTuning::default(),
    }
}

fn run_one(cfg: &ResilienceConfig, index: usize, variant: Variant, tier: Intensity) -> RunOutcome {
    let tree = crate::campaign::campaign_tree(&cfg.tree_config, cfg.seed, index);
    let plan = fault_plan_for(&tree, cfg.tasks, cfg.seed, index, tier);
    let last_fault = plan.faults.iter().map(|f| f.at).max().unwrap_or(0);
    // The platform left standing after the plan's crashes.
    let crashed: Vec<NodeId> = plan
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::Crash)
        .map(|f| f.node)
        .collect();
    let rate_post = SteadyState::analyze(&tree.without_subtrees(&crashed)).optimal_rate();

    let sim_cfg = variant
        .config(cfg.tasks)
        .with_checked(true)
        .with_fault_plan(plan);
    let run = catch_unwind(AssertUnwindSafe(|| Simulation::new(tree, sim_cfg).run()));
    let Ok(run) = run else {
        return RunOutcome {
            variant,
            tier,
            recovered: false,
            recovery_time: None,
            degraded: 1.0,
            violation: true,
            conserved: false,
        };
    };
    let recovery_time = time_to_rate(&run.completion_times, last_fault, &rate_post, cfg.window);
    RunOutcome {
        variant,
        tier,
        recovered: recovery_time.is_some(),
        recovery_time,
        degraded: degraded_fraction(&run.completion_times, cfg.chunk, &rate_post),
        violation: false,
        conserved: run.completion_times.len() as u64 == cfg.tasks
            && run.faults.tasks_lost == run.faults.tasks_reissued,
    }
}

/// Runs the campaign: every tree × variant × tier, checker on.
pub fn run(cfg: &ResilienceConfig) -> Resilience {
    let grid: Vec<(usize, Variant, Intensity)> = (0..cfg.trees)
        .flat_map(|i| {
            Variant::ALL
                .into_iter()
                .flat_map(move |v| Intensity::ALL.into_iter().map(move |t| (i, v, t)))
        })
        .collect();
    let runs = grid
        .into_par_iter()
        .map(|(i, v, t)| run_one(cfg, i, v, t))
        .collect();
    Resilience { runs }
}

/// Per-(variant, tier) aggregates.
#[derive(Clone, Copy, Debug)]
pub struct TierSummary {
    /// Variant the row covers.
    pub variant: Variant,
    /// Tier the row covers.
    pub tier: Intensity,
    /// Runs in this cell.
    pub runs: usize,
    /// Fraction that recovered to the post-fault optimal rate.
    pub recovered: f64,
    /// Median recovery time over recovered runs.
    pub p50: u64,
    /// 90th-percentile recovery time over recovered runs.
    pub p90: u64,
    /// Worst recovery time over recovered runs.
    pub max: u64,
    /// Mean degraded-chunk fraction.
    pub degraded: f64,
    /// Invariant violations (must be 0).
    pub violations: usize,
    /// Runs that failed exact conservation (must be 0).
    pub unconserved: usize,
}

/// Aggregates the campaign per (variant, tier).
pub fn summarize(r: &Resilience) -> Vec<TierSummary> {
    Variant::ALL
        .into_iter()
        .flat_map(|variant| {
            Intensity::ALL.into_iter().map(move |tier| {
                let cell: Vec<&RunOutcome> = r
                    .runs
                    .iter()
                    .filter(|o| o.variant == variant && o.tier == tier)
                    .collect();
                let mut times: Vec<u64> = cell.iter().filter_map(|o| o.recovery_time).collect();
                times.sort_unstable();
                let pct = |p: usize| {
                    if times.is_empty() {
                        0
                    } else {
                        times[(times.len() - 1) * p / 100]
                    }
                };
                let n = cell.len().max(1);
                TierSummary {
                    variant,
                    tier,
                    runs: cell.len(),
                    recovered: cell.iter().filter(|o| o.recovered).count() as f64 / n as f64,
                    p50: pct(50),
                    p90: pct(90),
                    max: times.last().copied().unwrap_or(0),
                    degraded: cell.iter().map(|o| o.degraded).sum::<f64>() / n as f64,
                    violations: cell.iter().filter(|o| o.violation).count(),
                    unconserved: cell.iter().filter(|o| !o.conserved).count(),
                }
            })
        })
        .collect()
}

/// Renders the per-tier recovery table.
pub fn render(r: &Resilience) -> String {
    let mut out = String::new();
    out.push_str(
        "Resilience — recovery to the post-fault Theorem 1 optimum under seeded faults\n\n",
    );
    let rows: Vec<Vec<String>> = summarize(r)
        .into_iter()
        .map(|s| {
            vec![
                s.variant.label().to_string(),
                s.tier.label().to_string(),
                s.runs.to_string(),
                format!("{:.3}", s.recovered),
                s.p50.to_string(),
                s.p90.to_string(),
                s.max.to_string(),
                format!("{:.3}", s.degraded),
                s.violations.to_string(),
                s.unconserved.to_string(),
            ]
        })
        .collect();
    out.push_str(&ascii_table(
        &[
            "variant",
            "tier",
            "runs",
            "recovered",
            "t50",
            "t90",
            "tmax",
            "degraded",
            "violations",
            "unconserved",
        ],
        &rows,
    ));
    out
}

/// Per-run CSV artifact.
pub fn to_csv(r: &Resilience) -> String {
    let mut out =
        String::from("variant,tier,recovered,recovery_time,degraded,violation,conserved\n");
    for o in &r.runs {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{},{}\n",
            o.variant.label(),
            o.tier.label(),
            o.recovered,
            o.recovery_time.map_or(-1i64, |t| t as i64),
            o.degraded,
            o.violation,
            o.conserved,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_conserves_and_recovers() {
        let cfg = ResilienceConfig {
            trees: 8,
            tasks: 800,
            ..ResilienceConfig::default()
        };
        let r = run(&cfg);
        assert_eq!(r.runs.len(), 8 * Variant::ALL.len() * Intensity::ALL.len());
        for o in &r.runs {
            assert!(!o.violation, "invariant violation under {:?}", o.tier);
            assert!(o.conserved, "conservation broken under {:?}", o.tier);
        }
        let summary = summarize(&r);
        let low_ic = summary
            .iter()
            .find(|s| s.variant == Variant::IcFb3 && s.tier == Intensity::Low)
            .unwrap();
        assert!(
            low_ic.recovered >= 0.75,
            "low-intensity IC recovery {:.2} too rare",
            low_ic.recovered
        );
        let rendered = render(&r);
        assert!(rendered.contains("ic-fb3") && rendered.contains("high"));
        assert!(to_csv(&r).lines().count() == r.runs.len() + 1);
    }

    #[test]
    fn fault_plans_are_deterministic_and_valid() {
        let cfg = ResilienceConfig::default();
        for i in 0..4 {
            let tree = crate::campaign::campaign_tree(&cfg.tree_config, cfg.seed, i);
            for tier in Intensity::ALL {
                let a = fault_plan_for(&tree, cfg.tasks, cfg.seed, i, tier);
                let b = fault_plan_for(&tree, cfg.tasks, cfg.seed, i, tier);
                assert_eq!(a.faults, b.faults);
                assert_eq!(a.seed, b.seed);
                SimConfig::interruptible(3, cfg.tasks)
                    .with_fault_plan(a)
                    .validate(&tree)
                    .expect("generated plan validates");
            }
        }
    }
}
