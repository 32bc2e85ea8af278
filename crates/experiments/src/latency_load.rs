//! Latency under sustained load (EXPERIMENTS.md, "Extension — latency
//! under sustained load").
//!
//! The paper evaluates closed batches: every task sits in the root's
//! repository at t = 0 and the figure of merit is steady-state
//! bandwidth. The open-world extension streams tasks in and asks the
//! queueing question instead: **how does tail latency respond to
//! offered load?** This module sweeps the same seeded platform
//! population at three arrival intensities (the Poisson background gap
//! shrinks while a periodic burst class stays fixed) and reports the
//! exact-rational latency decomposition per intensity, aggregated over
//! the whole population by pooling rank-matched samples.
//!
//! Everything is exact and deterministic: offered load is a
//! [`Rational`], percentiles are nearest-rank integers from
//! [`bc_metrics::LatencySummary`], and the report (and its JSON
//! artifact, committed as `BENCH_latency.json`) is a pure function of
//! `(trees, tasks-per-class, seed)`.

use bc_engine::{
    AdmissionPolicy, ArrivalPlan, ArrivalProcess, SimConfig, SimWorkspace, Simulation, TaskClass,
};
use bc_metrics::{latency_profile, LatencySummary};
use bc_platform::RandomTreeConfig;
use bc_rational::Rational;
use bc_serve::summary_value;
use serde::Value;

/// One arrival intensity in the sweep.
#[derive(Clone, Copy, Debug)]
pub struct Intensity {
    /// Display name ("low" / "medium" / "high").
    pub name: &'static str,
    /// Mean gap of the Poisson background class (smaller = hotter).
    pub mean_gap: u64,
}

/// The three intensities of the committed sweep. The burst class is
/// identical across intensities, so the offered-load axis is exactly
/// the Poisson background rate.
pub const INTENSITIES: [Intensity; 3] = [
    Intensity {
        name: "low",
        mean_gap: 6,
    },
    Intensity {
        name: "medium",
        mean_gap: 3,
    },
    Intensity {
        name: "high",
        mean_gap: 1,
    },
];

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct LatencyLoadConfig {
    /// Platforms per intensity.
    pub trees: usize,
    /// Poisson arrivals per platform (burst arrivals come on top).
    pub tasks: u64,
    /// Population seed.
    pub seed: u64,
    /// Platform shape (defaults mirror the paper's random trees).
    pub tree_cfg: RandomTreeConfig,
    /// Admission queue capacity.
    pub queue_cap: u64,
}

impl Default for LatencyLoadConfig {
    fn default() -> Self {
        LatencyLoadConfig {
            trees: 32,
            tasks: 120,
            seed: 2003,
            tree_cfg: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 12,
                comm_min: 1,
                comm_max: 4,
                compute_scale: 3,
            },
            queue_cap: 8,
        }
    }
}

/// The arrival plan for one intensity: a Poisson background class of
/// unit tasks plus a fixed periodic burst class of 2-unit tasks.
pub fn plan_for(cfg: &LatencyLoadConfig, intensity: Intensity, tree_seed: u64) -> ArrivalPlan {
    ArrivalPlan {
        seed: tree_seed ^ 0x1A7E,
        classes: vec![
            TaskClass {
                name: "background".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson {
                    mean_gap: intensity.mean_gap,
                    count: cfg.tasks,
                },
            },
            TaskClass {
                name: "burst".into(),
                work_units: 2,
                process: ArrivalProcess::Burst {
                    phase: 10,
                    period: 40,
                    size: 3,
                    bursts: 4,
                },
            },
        ],
        queue_cap: cfg.queue_cap,
        policy: AdmissionPolicy::Defer,
    }
}

/// Exact offered load of an intensity's plan, in work units per
/// timestep: `1/mean_gap` from the background class plus the burst
/// class's `units * size / period`.
pub fn offered_load(intensity: Intensity) -> Rational {
    Rational::new(1, intensity.mean_gap as i128) + Rational::new(2 * 3, 40)
}

/// Aggregated results of one intensity across the population.
#[derive(Clone, Debug)]
pub struct IntensityReport {
    /// The intensity swept.
    pub intensity: Intensity,
    /// Offered load in units/timestep (exact).
    pub offered: Rational,
    /// Arrival units submitted / admitted over all trees.
    pub submitted: u64,
    /// Units admitted (Defer policy: equals submitted).
    pub admitted: u64,
    /// Admission deferrals observed (backpressure events).
    pub deferrals: u64,
    /// Largest deferred-queue depth seen on any tree.
    pub peak_deferred: u64,
    /// Pooled admission→completion distribution.
    pub sojourn: LatencySummary,
    /// Pooled admission→dispatch distribution.
    pub queue_wait: LatencySummary,
    /// Pooled dispatch→completion distribution.
    pub service: LatencySummary,
}

/// The full sweep report.
#[derive(Clone, Debug)]
pub struct LatencyLoadReport {
    /// Sweep parameters echoed back.
    pub trees: usize,
    /// Poisson arrivals per platform.
    pub tasks: u64,
    /// Population seed.
    pub seed: u64,
    /// One entry per [`INTENSITIES`] row, in order.
    pub rows: Vec<IntensityReport>,
}

/// Runs the sweep. Single-threaded by design — the whole default sweep
/// is well under a second, and sequential runs reuse one workspace.
pub fn run(cfg: &LatencyLoadConfig) -> LatencyLoadReport {
    let mut ws = SimWorkspace::new();
    let rows = INTENSITIES
        .iter()
        .map(|&intensity| {
            let mut sojourn = Vec::new();
            let mut queue_wait = Vec::new();
            let mut service = Vec::new();
            let (mut submitted, mut admitted, mut deferrals, mut peak) = (0u64, 0u64, 0u64, 0u64);
            for k in 0..cfg.trees {
                let tree_seed = cfg.seed.wrapping_add(k as u64);
                let tree = cfg.tree_cfg.generate(tree_seed);
                let sim_cfg = SimConfig::interruptible(2, 0)
                    .with_arrivals(plan_for(cfg, intensity, tree_seed));
                let sim = Simulation::with_workspace(tree, sim_cfg, std::mem::take(&mut ws));
                let (r, back) = sim.run_reusing();
                ws = back;
                let profile = latency_profile(
                    &r.arrivals.admit_times,
                    &r.arrivals.dispatch_times,
                    &r.completion_times,
                );
                sojourn.extend_from_slice(profile.sojourn.samples());
                queue_wait.extend_from_slice(profile.queue_wait.samples());
                service.extend_from_slice(profile.service.samples());
                submitted += r.arrivals.submitted;
                admitted += r.arrivals.admitted;
                deferrals += r.arrivals.deferrals;
                peak = peak.max(r.arrivals.peak_deferred);
            }
            IntensityReport {
                intensity,
                offered: offered_load(intensity),
                submitted,
                admitted,
                deferrals,
                peak_deferred: peak,
                sojourn: LatencySummary::from_samples(sojourn),
                queue_wait: LatencySummary::from_samples(queue_wait),
                service: LatencySummary::from_samples(service),
            }
        })
        .collect();
    LatencyLoadReport {
        trees: cfg.trees,
        tasks: cfg.tasks,
        seed: cfg.seed,
        rows,
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |n| n.to_string())
}

/// Renders the p99-vs-offered-load table.
pub fn render(report: &LatencyLoadReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "latency under sustained load — {} trees, {} Poisson arrivals each, seed {}\n",
        report.trees, report.tasks, report.seed
    ));
    out.push_str(
        "intensity  offered     sojourn p50/p99/max   queue-wait p50/p99   service p50/p99   deferrals (peak)\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "{:<9}  {:<10}  {:>7}/{:>4}/{:>4}   {:>10}/{:>4}   {:>7}/{:>4}   {:>9} ({})\n",
            row.intensity.name,
            row.offered.to_string(),
            fmt_opt(row.sojourn.p50()),
            fmt_opt(row.sojourn.p99()),
            fmt_opt(row.sojourn.max()),
            fmt_opt(row.queue_wait.p50()),
            fmt_opt(row.queue_wait.p99()),
            fmt_opt(row.service.p50()),
            fmt_opt(row.service.p99()),
            row.deferrals,
            row.peak_deferred,
        ));
    }
    out
}

/// The committed-artifact JSON (`BENCH_latency.json`).
pub fn to_json(report: &LatencyLoadReport) -> String {
    let rows: Vec<Value> = report
        .rows
        .iter()
        .map(|row| {
            serde::object(vec![
                ("intensity", Value::Str(row.intensity.name.into())),
                (
                    "offered_units_per_step",
                    Value::Str(row.offered.to_string()),
                ),
                ("submitted", Value::Int(row.submitted as i128)),
                ("admitted", Value::Int(row.admitted as i128)),
                ("deferrals", Value::Int(row.deferrals as i128)),
                ("peak_deferred", Value::Int(row.peak_deferred as i128)),
                ("sojourn", summary_value(&row.sojourn)),
                ("queue_wait", summary_value(&row.queue_wait)),
                ("service", summary_value(&row.service)),
            ])
        })
        .collect();
    let root = serde::object(vec![
        (
            "experiment",
            Value::Str("latency_under_sustained_load".into()),
        ),
        ("trees", Value::Int(report.trees as i128)),
        ("tasks", Value::Int(report.tasks as i128)),
        ("seed", Value::Int(report.seed as i128)),
        ("intensities", Value::Array(rows)),
    ]);
    serde_json::to_string_pretty(&root).expect("serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LatencyLoadConfig {
        LatencyLoadConfig {
            trees: 6,
            tasks: 40,
            ..LatencyLoadConfig::default()
        }
    }

    /// The sweep is a pure function of its config.
    #[test]
    fn sweep_is_deterministic() {
        let a = run(&small());
        let b = run(&small());
        assert_eq!(to_json(&a), to_json(&b));
    }

    /// Hotter offered load cannot shrink queueing: deferral pressure and
    /// tail sojourn are monotone along the committed intensity ladder.
    #[test]
    fn load_ladder_is_monotone() {
        let r = run(&small());
        assert_eq!(r.rows.len(), 3);
        for w in r.rows.windows(2) {
            assert!(
                w[0].offered < w[1].offered,
                "intensity ladder must increase offered load"
            );
            assert!(
                w[0].deferrals <= w[1].deferrals,
                "hotter load should not reduce backpressure ({} vs {})",
                w[0].deferrals,
                w[1].deferrals
            );
            assert!(
                w[0].sojourn.p99() <= w[1].sojourn.p99(),
                "hotter load should not reduce p99 sojourn"
            );
        }
        // The high tier must actually saturate something, or the sweep
        // is measuring an idle system.
        assert!(r.rows[2].deferrals > 0, "high intensity never deferred");
    }

    /// Every admitted unit completes (Defer policy, fault-free), and the
    /// pooled decomposition covers all of them.
    #[test]
    fn pooled_samples_cover_all_admitted_units() {
        let r = run(&small());
        for row in &r.rows {
            assert_eq!(row.submitted, row.admitted, "Defer must admit everything");
            assert_eq!(row.sojourn.count() as u64, row.admitted);
            assert_eq!(row.queue_wait.count() as u64, row.admitted);
            assert_eq!(row.service.count() as u64, row.admitted);
        }
    }

    /// The artifact JSON parses and round-trips the headline numbers.
    #[test]
    fn artifact_json_is_well_formed() {
        let r = run(&small());
        let v: Value = serde_json::from_str(&to_json(&r)).expect("artifact must parse");
        let Some(Value::Array(rows)) = v.get("intensities") else {
            panic!("no intensities array")
        };
        assert_eq!(rows.len(), 3);
        for (row, rep) in rows.iter().zip(&r.rows) {
            assert_eq!(
                row.get("intensity"),
                Some(&Value::Str(rep.intensity.name.into()))
            );
            let Some(sojourn) = row.get("sojourn") else {
                panic!("no sojourn block")
            };
            assert_eq!(
                sojourn.get("p99"),
                Some(
                    &rep.sojourn
                        .p99()
                        .map_or(Value::Null, |n| Value::Int(n as i128))
                )
            );
        }
    }
}
