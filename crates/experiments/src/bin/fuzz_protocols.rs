//! Differential protocol fuzzer: random adversarial trees, every
//! protocol variant, per-event invariant checking, terminal rate oracle.
//!
//! Modes:
//!
//! * default — fuzz `--cases` trees (1,000 by default) across all
//!   variants; any failure is shrunk and printed with a reproducer
//!   command; exit 1 if anything failed.
//! * `--smoke` — a CI-sized slice (~60 s budget): a reduced case count
//!   plus the full self-test.
//! * `--self-test` — inject deliberate protocol faults (FB off-by-one,
//!   task leak, swallowed reissue) and verify the checker catches them
//!   and the shrinker minimizes the FB case to ≤ 5 nodes. Exit 1 if the
//!   checker misses.
//! * `--fork-smoke` — exercise fork mode: runs capture periodic
//!   snapshots, and a violation must reproduce identically when only
//!   the suffix after the last snapshot is replayed (also part of
//!   `--smoke`). Exit 1 if the suffix replay disagrees with the full
//!   run.
//! * `--arrival-smoke` — exercise the open-world streaming legs: a
//!   generated arrival plan checked per event, a mid-stream fork whose
//!   suffix replays cleanly, and the `LeakQueuedTask` validation fault
//!   caught as an arrival-conservation violation (also part of
//!   `--smoke`). Exit 1 if any leg disagrees.
//! * `--repro SPEC --variant NAME [--arrivals N] [--fault
//!   fb|leak:N|leakq:N|swallow] [--out DIR]` — re-run one shrunk case
//!   printed by a previous fuzz run (the spec's third `|` segment, when
//!   present, is its fault schedule; `--arrivals` regenerates the
//!   open-world plan of an arrival-leg failure from its seed). Exit 1
//!   while the failure reproduces, 0 once it is fixed. With `--out`, a
//!   failing case also writes `DIR/violation.snap` (the newest verified
//!   `BCSS` snapshot before the violation, or the start state) and
//!   `DIR/violation.trace` (the text trace replayed from it).
//!
//! See EXPERIMENTS.md ("Fuzzing the protocols") for the workflow.

use bc_engine::FaultInjection;
use bc_experiments::cli::{create_out_dir, or_exit, CliError, Flags};
use bc_experiments::fuzz::{
    arrival_smoke, case_config, fork_smoke, fuzz, fuzz_arrival_plan, parse_fault, run_case, shrink,
    trace_tail, variant_by_name, variants, violation_record, with_quiet_panics, CaseSpec, Failure,
    ARRIVAL_VARIANTS, FAULT_PLAN_VARIANTS,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    cases: usize,
    tasks: u64,
    seed: u64,
    smoke: bool,
    self_test: bool,
    fork_smoke: bool,
    arrival_smoke: bool,
    /// `--repro SPEC` and its `--variant NAME`.
    repro: Option<(String, String)>,
    arrivals: Option<u64>,
    fault: Option<FaultInjection>,
    /// `--out DIR`: where `--repro` writes a failing case's record.
    out: Option<PathBuf>,
    threads: Option<usize>,
}

const USAGE: &str = "usage: fuzz_protocols [--cases N] [--tasks N] [--seed N] [--threads N]\n\
                     \x20                     [--smoke] [--self-test] [--fork-smoke] [--arrival-smoke]\n\
                     \x20                     [--repro SPEC --variant NAME [--arrivals N]\n\
                     \x20                      [--fault fb|leak:N|leakq:N|swallow] [--out DIR]]\n\
                     defaults: cases=1000, tasks=250, seed=2003";

fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut out = Args {
        cases: 1000,
        tasks: 250,
        seed: 2003,
        smoke: false,
        self_test: false,
        fork_smoke: false,
        arrival_smoke: false,
        repro: None,
        arrivals: None,
        fault: None,
        out: None,
        threads: None,
    };
    let (mut repro, mut variant) = (None, None);
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--cases" => out.cases = flags.number("--cases")?,
            "--tasks" => out.tasks = flags.number::<u64>("--tasks")?.max(1),
            "--seed" => out.seed = flags.number("--seed")?,
            "--threads" => out.threads = Some(flags.at_least_one("--threads")?),
            "--smoke" => out.smoke = true,
            "--self-test" => out.self_test = true,
            "--fork-smoke" => out.fork_smoke = true,
            "--arrival-smoke" => out.arrival_smoke = true,
            "--repro" => repro = Some(flags.value("--repro")?),
            "--variant" => variant = Some(flags.value("--variant")?),
            "--arrivals" => out.arrivals = Some(flags.number("--arrivals")?),
            "--fault" => {
                out.fault = Some(parse_fault(&flags.value("--fault")?).map_err(CliError::Usage)?)
            }
            "--out" => out.out = Some(PathBuf::from(flags.value("--out")?)),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::unknown(other)),
        }
    }
    out.repro = match (repro, variant) {
        (Some(spec), Some(name)) => Some((spec, name)),
        (Some(_), None) => return Err(CliError::Usage("--repro requires --variant".into())),
        (None, _) => None,
    };
    for (flag, set) in [
        ("--arrivals", out.arrivals.is_some()),
        ("--fault", out.fault.is_some()),
        ("--out", out.out.is_some()),
    ] {
        if set && out.repro.is_none() {
            return Err(CliError::Usage(format!(
                "{flag} only makes sense with --repro"
            )));
        }
    }
    if let Some(dir) = &out.out {
        create_out_dir(dir)?;
    }
    Ok(out)
}

fn print_failures(failures: &[Failure]) {
    for f in failures {
        eprintln!(
            "FAIL case {} [{}]: {}\n  shrunk {} -> {} nodes: {}\n  reproduce: {}",
            f.case,
            f.variant,
            f.message,
            f.original_nodes,
            f.spec.len(),
            f.spec.encode(),
            f.repro_command()
        );
    }
}

/// Injects known bugs and verifies detection + shrinking — the checker
/// checking itself. Returns an error description if the checker missed.
fn self_test(seed: u64, tasks: u64) -> Result<String, String> {
    // FB off-by-one: every variant with a Fixed pool must flag it.
    let (_, fb_failures) =
        with_quiet_panics(|| fuzz(seed, 3, tasks, Some(FaultInjection::FbOffByOne)));
    if fb_failures.is_empty() {
        return Err("FB off-by-one fault went UNDETECTED".into());
    }
    let worst = fb_failures.iter().map(|f| f.spec.len()).max().unwrap();
    if worst > 5 {
        return Err(format!(
            "FB off-by-one reproducer shrunk only to {worst} nodes (want <= 5)"
        ));
    }
    // Task leak: conservation must break before the run deadlocks.
    let (_, leak_failures) = with_quiet_panics(|| {
        fuzz(
            seed,
            2,
            tasks.max(100),
            Some(FaultInjection::LeakTask { every: 5 }),
        )
    });
    if leak_failures.is_empty() {
        return Err("task-leak fault went UNDETECTED".into());
    }
    if !leak_failures
        .iter()
        .any(|f| f.message.contains("task-conservation"))
    {
        return Err(format!(
            "task leak was caught but not as a conservation violation: {}",
            leak_failures[0].message
        ));
    }
    // Swallowed reissue: invisible on a reliable network, so only the
    // fault-plan legs (crashes, aborts) can expose it — as a broken
    // conservation ledger.
    let (_, swallow_failures) = with_quiet_panics(|| {
        fuzz(
            seed,
            6,
            tasks.max(100),
            Some(FaultInjection::SwallowReissue),
        )
    });
    if swallow_failures.is_empty() {
        return Err("swallowed-reissue fault went UNDETECTED".into());
    }
    if !swallow_failures
        .iter()
        .any(|f| f.message.contains("task-conservation"))
    {
        return Err(format!(
            "swallowed reissue was caught but not as a conservation violation: {}",
            swallow_failures[0].message
        ));
    }
    // Queued-task leak: only the open-world legs have an admission
    // queue to corrupt, so exactly they must break arrival conservation.
    let (_, qleak_failures) = with_quiet_panics(|| {
        fuzz(
            seed,
            4,
            tasks.max(100),
            Some(FaultInjection::LeakQueuedTask { every: 1 }),
        )
    });
    if qleak_failures.is_empty() {
        return Err("queued-task-leak fault went UNDETECTED".into());
    }
    if !qleak_failures
        .iter()
        .any(|f| f.message.contains("arrival-conservation") && f.arrival_seed.is_some())
    {
        return Err(format!(
            "queued-task leak was caught but not as an arrival-conservation \
             violation on an open-world leg: {}",
            qleak_failures[0].message
        ));
    }
    Ok(format!(
        "self-test: FB off-by-one caught in {} runs (worst reproducer {} nodes), \
         task leak caught in {} runs, swallowed reissue caught in {} runs, \
         queued-task leak caught in {} open-world runs",
        fb_failures.len(),
        worst,
        leak_failures.len(),
        swallow_failures.len(),
        qleak_failures.len()
    ))
}

/// Writes a failing case's `violation.snap` and `violation.trace` into
/// `dir` (see [`violation_record`]).
fn write_violation(dir: &Path, spec: &CaseSpec, case: &bc_engine::SimConfig) -> Result<(), String> {
    let (snap, trace) = with_quiet_panics(|| violation_record(&spec.to_tree(), case))
        .ok_or("the case's simulation cannot be built; nothing to record")?;
    for (name, bytes) in [
        ("violation.snap", snap.to_bytes()),
        ("violation.trace", trace.into_bytes()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    eprintln!(
        "  (snapshot at event {}; `replay_suffix` on it reproduces the verdict)",
        snap.events_processed()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = or_exit(try_parse(std::env::args().skip(1)), USAGE);
    if let Some(n) = args.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure worker threads");
    }

    // Reproducer mode: one spec, one variant, one verdict.
    if let Some((spec, name)) = &args.repro {
        let spec = match CaseSpec::decode(spec) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(cfg) = variant_by_name(name, args.tasks) else {
            eprintln!(
                "error: unknown variant {name}; known: {}",
                variants(1)
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return ExitCode::from(2);
        };
        // An arrival-leg failure's workload is a pure function of its
        // printed seed; regenerate it so the repro streams the same plan.
        let cfg = match args.arrivals {
            Some(s) => cfg.with_arrivals(fuzz_arrival_plan(s)),
            None => cfg,
        };
        let cfg = match args.fault {
            Some(f) => cfg.with_fault(f),
            None => cfg,
        };
        // The spec's third segment, when present, is a fault schedule;
        // rebuild its plan so the repro runs the exact faulted case.
        let case = case_config(&spec, &cfg);
        return match with_quiet_panics(|| run_case(&spec.to_tree(), &case)) {
            Ok(()) => {
                println!(
                    "PASS: {}-node tree, variant {name}, {} tasks — all invariants hold",
                    spec.len(),
                    args.tasks
                );
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("reproduced: {msg}");
                let shrunk = with_quiet_panics(|| shrink(spec.clone(), &cfg));
                if shrunk != spec {
                    eprintln!("  shrinks further to: {}", shrunk.encode());
                }
                // Event-level post-mortem: the last events of the shrunk
                // case, from a flight-recorder re-run.
                let (_, tail) = with_quiet_panics(|| {
                    trace_tail(&shrunk.to_tree(), &case_config(&shrunk, &cfg), 40)
                });
                eprintln!("trace tail of the shrunk case ({} event(s)):", tail.len());
                for r in &tail {
                    eprintln!("  {r}");
                }
                if let Some(dir) = &args.out {
                    if let Err(e) = write_violation(dir, &spec, &case) {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                }
                ExitCode::FAILURE
            }
        };
    }

    let started = Instant::now();
    let mut ok = true;
    type Check = fn(u64, u64) -> Result<String, String>;
    let checks: [(bool, &str, Check); 3] = [
        (args.self_test, "SELF-TEST FAILED", self_test),
        (args.fork_smoke, "FORK SMOKE FAILED", fork_smoke),
        (args.arrival_smoke, "ARRIVAL SMOKE FAILED", arrival_smoke),
    ];
    for (requested, failed, check) in checks {
        if requested || args.smoke {
            match check(args.seed, args.tasks.min(200)) {
                Ok(msg) => println!("{msg}"),
                Err(msg) => {
                    eprintln!("{failed}: {msg}");
                    ok = false;
                }
            }
        }
    }
    // The check flags on their own run only the checks they name.
    if !args.smoke && (args.self_test || args.fork_smoke || args.arrival_smoke) {
        return ExitCode::from(u8::from(!ok));
    }

    let cases = if args.smoke {
        args.cases.min(180)
    } else {
        args.cases
    };
    let (runs, failures) = with_quiet_panics(|| fuzz(args.seed, cases, args.tasks, None));
    println!(
        "fuzzed {cases} trees x {} variants ({} fault-plan + {} arrival legs each) = \
         {runs} checked runs in {:.1}s: {} violation(s)",
        variants(1).len(),
        FAULT_PLAN_VARIANTS.len(),
        ARRIVAL_VARIANTS.len(),
        started.elapsed().as_secs_f64(),
        failures.len()
    );
    if !failures.is_empty() {
        print_failures(&failures);
        ok = false;
    }
    ExitCode::from(u8::from(!ok))
}
