//! What-if branching from a mid-run snapshot: run a scenario to a
//! capture point, fork K divergent continuations off the frozen state,
//! and diff their outcomes through the run results and per-node
//! timeline folds.
//!
//! Every invocation carries an implicit `resume` branch (the snapshot
//! continued untweaked); its result is asserted bit-identical to the
//! uninterrupted reference run, so the comparison baseline is proven
//! exact before any perturbed branch is read.
//!
//! Branch flags (each adds one branch; all may repeat):
//!
//! * `--degrade NODE:FACTOR` — multiply the node's uplink comm time.
//! * `--comm NODE:C` / `--compute NODE:W` — set a weight outright.
//! * `--crash NODE[:DT]` — crash the node DT timesteps after capture
//!   (default 10); recovery reissues its in-flight work.
//! * `--outage NODE:DUR[:DT]` — sever the node's uplink for DUR.
//!
//! Without branch flags, a demo pair is derived from the baseline fold:
//! the busiest non-root worker gets its uplink degraded x8 in one
//! branch and crashed in another.
//!
//! See EXPERIMENTS.md ("What-if branching") for the workflow.

use bc_engine::{FaultEvent, FaultKind, RunResult, SimWorkspace, Simulation, WhatIf};
use bc_experiments::cli::{or_exit, CliError, Flags};
use bc_experiments::goldens::{resolve_tree, resolve_variant, TreeSource};
use bc_metrics::fold_timelines;
use bc_platform::NodeId;
use bc_simcore::{TraceRecord, VecSink};
use std::process::ExitCode;

struct Args {
    tree: TreeSource,
    variant: String,
    tasks: u64,
    at: Option<u64>,
    branches: Vec<BranchSpec>,
}

/// One requested divergence, parsed from a branch flag.
enum BranchSpec {
    Degrade { node: u32, factor: u64 },
    Comm { node: u32, c: u64 },
    Compute { node: u32, w: u64 },
    Crash { node: u32, dt: u64 },
    Outage { node: u32, duration: u64, dt: u64 },
}

impl BranchSpec {
    fn label(&self) -> String {
        match *self {
            BranchSpec::Degrade { node, factor } => format!("degrade-{node}-x{factor}"),
            BranchSpec::Comm { node, c } => format!("comm-{node}={c}"),
            BranchSpec::Compute { node, w } => format!("compute-{node}={w}"),
            BranchSpec::Crash { node, dt } => format!("crash-{node}+{dt}"),
            BranchSpec::Outage { node, duration, dt } => format!("outage-{node}-{duration}+{dt}"),
        }
    }

    /// Applies the divergence to a fork in progress.
    fn apply(&self, w: &mut WhatIf) {
        match *self {
            BranchSpec::Degrade { node, factor } => {
                let id = NodeId(node);
                let c = w.tree().comm_time(id).saturating_mul(factor).max(1);
                w.set_comm_time(id, c);
            }
            BranchSpec::Comm { node, c } => w.set_comm_time(NodeId(node), c),
            BranchSpec::Compute { node, w: wt } => w.set_compute_time(NodeId(node), wt),
            BranchSpec::Crash { node, dt } => w.add_fault(FaultEvent {
                at: w.now() + dt,
                node: NodeId(node),
                kind: FaultKind::Crash,
            }),
            BranchSpec::Outage { node, duration, dt } => w.add_fault(FaultEvent {
                at: w.now() + dt,
                node: NodeId(node),
                kind: FaultKind::LinkOutage { duration },
            }),
        }
    }

    /// The non-root node the branch perturbs (for bounds checking).
    fn node(&self) -> u32 {
        match *self {
            BranchSpec::Degrade { node, .. }
            | BranchSpec::Comm { node, .. }
            | BranchSpec::Compute { node, .. }
            | BranchSpec::Crash { node, .. }
            | BranchSpec::Outage { node, .. } => node,
        }
    }
}

const USAGE: &str = "usage: whatif --tree NAME|--spec SPEC --variant NAME [--tasks N] [--at T]\n\
                     \x20             [--degrade NODE:FACTOR] [--comm NODE:C] [--compute NODE:W]\n\
                     \x20             [--crash NODE[:DT]] [--outage NODE:DUR[:DT]]\n\
                     defaults: tasks=120, at=end/3, branches=demo pair off the busiest worker";

fn parse_fields(name: &str, raw: &str, want: usize, defaults: &[u64]) -> Result<Vec<u64>, String> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() > want || parts.len() + defaults.len() < want {
        return Err(format!(
            "{name} takes {want} colon-separated field(s), got {raw:?}"
        ));
    }
    let mut out = Vec::with_capacity(want);
    for p in &parts {
        out.push(
            p.parse::<u64>()
                .map_err(|_| format!("{name}: bad number {p:?} in {raw:?}"))?,
        );
    }
    let missing = want - out.len();
    out.extend_from_slice(&defaults[defaults.len() - missing..]);
    Ok(out)
}

fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let (mut tree, mut spec, mut variant, mut at) = (None, None, None, None);
    let mut tasks = 120;
    let mut branches = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        let mut fields = |name: &str, want: usize, defaults: &[u64]| {
            parse_fields(name, &flags.value(name)?, want, defaults).map_err(CliError::Usage)
        };
        match arg.as_str() {
            "--tree" => tree = Some(flags.value("--tree")?),
            "--spec" => spec = Some(flags.value("--spec")?),
            "--variant" => variant = Some(flags.value("--variant")?),
            "--tasks" => tasks = flags.number::<u64>("--tasks")?.max(1),
            "--at" => {
                let raw = flags.value("--at")?;
                let bad = || CliError::Usage(format!("--at must be a time, got {raw:?}"));
                at = Some(raw.parse::<u64>().map_err(|_| bad())?);
            }
            "--degrade" => {
                let f = fields("--degrade", 2, &[])?;
                branches.push(BranchSpec::Degrade {
                    node: f[0] as u32,
                    factor: f[1].max(1),
                });
            }
            "--comm" => {
                let f = fields("--comm", 2, &[])?;
                branches.push(BranchSpec::Comm {
                    node: f[0] as u32,
                    c: f[1].max(1),
                });
            }
            "--compute" => {
                let f = fields("--compute", 2, &[])?;
                branches.push(BranchSpec::Compute {
                    node: f[0] as u32,
                    w: f[1].max(1),
                });
            }
            "--crash" => {
                let f = fields("--crash", 2, &[10])?;
                branches.push(BranchSpec::Crash {
                    node: f[0] as u32,
                    dt: f[1],
                });
            }
            "--outage" => {
                let f = fields("--outage", 3, &[10])?;
                branches.push(BranchSpec::Outage {
                    node: f[0] as u32,
                    duration: f[1].max(1),
                    dt: f[2],
                });
            }
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::unknown(other)),
        }
    }
    Ok(Args {
        tree: TreeSource::from_flags(tree, spec).map_err(CliError::Usage)?,
        variant: variant.ok_or_else(|| CliError::Usage("--variant is required".into()))?,
        tasks,
        at,
        branches,
    })
}

/// One completed branch, ready to diff.
struct Branch {
    name: String,
    result: RunResult,
    suffix: Vec<TraceRecord>,
}

fn run(args: Args) -> Result<(), String> {
    let tree = resolve_tree(&args.tree)?;
    let cfg = resolve_variant(&args.variant, args.tasks)?.with_checked(false);
    for b in &args.branches {
        let n = b.node() as usize;
        if n == 0 || n >= tree.len() {
            return Err(format!(
                "branch {} targets node {n}, but only workers 1..{} can be perturbed",
                b.label(),
                tree.len()
            ));
        }
    }

    // Uninterrupted reference run (also sizes the default capture point
    // and picks the demo branches' target).
    let (reference, _, ref_sink) = Simulation::traced(
        tree.clone(),
        cfg.clone(),
        SimWorkspace::new(),
        VecSink::new(),
    )
    .run_traced();
    let folds = fold_timelines(&ref_sink.records);

    let branches: Vec<BranchSpec> = if args.branches.is_empty() {
        let busiest = folds
            .iter()
            .enumerate()
            .skip(1)
            .max_by_key(|(_, tl)| tl.tasks_computed)
            .map(|(i, _)| i as u32)
            .unwrap_or(1);
        vec![
            BranchSpec::Degrade {
                node: busiest,
                factor: 8,
            },
            BranchSpec::Crash {
                node: busiest,
                dt: 10,
            },
        ]
    } else {
        args.branches
    };

    // Capture: run a fresh simulation to the fork instant and freeze it.
    let at = args.at.unwrap_or(reference.end_time / 3);
    let mut sim = Simulation::new(tree, cfg);
    sim.run_to_time(at);
    let snap = sim.snapshot();
    println!(
        "captured at t={} ({} events, {}/{} tasks complete); reference ends at t={}",
        snap.now(),
        snap.events_processed(),
        snap.completed(),
        args.tasks,
        reference.end_time
    );

    // The resume branch: the snapshot continued untweaked. Its suffix
    // must land exactly on the reference — the exactness proof that
    // makes every other diff meaningful.
    let mut runs = Vec::new();
    let (res, _, sink) = snap
        .fork_traced(SimWorkspace::new(), VecSink::new(), |_| {})
        .run_traced();
    if res != reference {
        return Err("resume branch diverged from the uninterrupted run".into());
    }
    println!("resume branch is bit-identical to the reference (snapshot exact)");
    runs.push(Branch {
        name: "resume".into(),
        result: res,
        suffix: sink.records,
    });

    for b in &branches {
        let (res, _, sink) = snap
            .fork_traced(SimWorkspace::new(), VecSink::new(), |w| b.apply(w))
            .run_traced();
        runs.push(Branch {
            name: b.label(),
            result: res,
            suffix: sink.records,
        });
    }

    // Headline diff: completion, makespan, recovery work per branch.
    println!("\nbranch                end    Δend  tasks  preempt  transfers  reissued  crashes");
    let base_end = runs[0].result.end_time;
    for b in &runs {
        let r = &b.result;
        let delta = r.end_time as i64 - base_end as i64;
        println!(
            "{:<20} {:>6}  {:>+5}  {:>5}  {:>7}  {:>9}  {:>8}  {:>7}",
            b.name,
            r.end_time,
            delta,
            r.tasks_completed(),
            r.preemptions,
            r.transfers_started,
            r.faults.tasks_reissued,
            r.faults.crashes,
        );
    }

    // Timeline-fold diff: where each branch's post-fork work moved,
    // node by node, against the resume suffix.
    let base_fold = fold_timelines(&runs[0].suffix);
    for b in runs.iter().skip(1) {
        let fold = fold_timelines(&b.suffix);
        let first_div = runs[0]
            .suffix
            .iter()
            .zip(&b.suffix)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| runs[0].suffix.len().min(b.suffix.len()));
        println!(
            "\n{}: suffix diverges from resume at event {} of {}",
            b.name,
            first_div,
            b.suffix.len()
        );
        println!("  node  Δcomputed  Δbusy-comp  Δbusy-link  Δpreempt  Δreqs");
        for i in 0..base_fold.len().max(fold.len()) {
            let z = bc_metrics::NodeTimeline::default();
            let a = base_fold.get(i).unwrap_or(&z);
            let c = fold.get(i).unwrap_or(&z);
            let d = |x: u64, y: u64| y as i64 - x as i64;
            let row = [
                d(a.tasks_computed, c.tasks_computed),
                d(a.busy_compute, c.busy_compute),
                d(a.busy_link, c.busy_link),
                d(a.preemptions, c.preemptions),
                d(a.requests_sent, c.requests_sent),
            ];
            if row.iter().any(|&v| v != 0) {
                println!(
                    "  {i:>4}  {:>+9}  {:>+10}  {:>+10}  {:>+8}  {:>+5}",
                    row[0], row[1], row[2], row[3], row[4]
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(or_exit(try_parse(std::env::args().skip(1)), USAGE)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
