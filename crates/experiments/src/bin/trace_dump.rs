//! Record, render, and diff structured traces.
//!
//! Modes:
//!
//! * record (default) — run one scenario and emit its trace:
//!   `trace_dump --tree fig1 --variant ic-fb2 [--tasks N]
//!   [--format jsonl|binary|pretty|summary] [--out FILE]`.
//!   `--tree` names a golden platform (see `--list`); `--spec` takes an
//!   explicit `root|parent:comm:compute;...` case spec (the fuzzer's
//!   reproducer format) instead.
//! * `--list` — print the golden trees and the known variants.
//! * `--diff A B` — compare two JSONL trace files; prints the first
//!   divergence with context and exits 1 if they differ.
//!
//! See EXPERIMENTS.md ("Dumping and diffing traces") for the workflow.

use bc_experiments::cli::{or_exit, CliError, Flags};
use bc_experiments::fuzz::variants;
use bc_experiments::goldens::{
    golden_trees, golden_variants, record_trace, resolve_tree, resolve_variant, TreeSource,
    GOLDEN_TASKS,
};
use bc_metrics::{fold_timelines, trace_end_time};
use bc_simcore::trace::{self, TraceRecord};
use std::io::Write;
use std::process::ExitCode;

enum Mode {
    List,
    Diff(String, String),
    Record(Record),
}

/// The record mode's scenario and output.
struct Record {
    tree: TreeSource,
    variant: String,
    tasks: u64,
    format: Format,
    out: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Jsonl,
    Binary,
    Pretty,
    Summary,
}

const USAGE: &str = "usage: trace_dump --tree NAME|--spec SPEC --variant NAME [--tasks N]\n\
                     \x20                 [--format jsonl|binary|pretty|summary] [--out FILE]\n\
                     \x20      trace_dump --list\n\
                     \x20      trace_dump --diff A.jsonl B.jsonl\n\
                     defaults: tasks=40, format=pretty";

fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Mode, CliError> {
    let (mut tree, mut spec, mut variant, mut out) = (None, None, None, None);
    let mut tasks = GOLDEN_TASKS;
    let mut format = Format::Pretty;
    let mut list = false;
    let mut diff = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--tree" => tree = Some(flags.value("--tree")?),
            "--spec" => spec = Some(flags.value("--spec")?),
            "--variant" => variant = Some(flags.value("--variant")?),
            "--tasks" => tasks = flags.number::<u64>("--tasks")?.max(1),
            "--format" => {
                format = match flags.value("--format")?.as_str() {
                    "jsonl" => Format::Jsonl,
                    "binary" => Format::Binary,
                    "pretty" => Format::Pretty,
                    "summary" => Format::Summary,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown format {other:?}; use jsonl, binary, pretty, or summary"
                        )))
                    }
                }
            }
            "--out" => out = Some(flags.value("--out")?),
            "--list" => list = true,
            "--diff" => diff = Some((flags.value("--diff")?, flags.value("--diff")?)),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::unknown(other)),
        }
    }
    if list {
        return Ok(Mode::List);
    }
    if let Some((a, b)) = diff {
        return Ok(Mode::Diff(a, b));
    }
    Ok(Mode::Record(Record {
        tree: TreeSource::from_flags(tree, spec).map_err(CliError::Usage)?,
        variant: variant.ok_or_else(|| CliError::Usage("--variant is required".into()))?,
        tasks,
        format,
        out,
    }))
}

fn list() {
    println!("golden trees (committed traces live in tests/golden/):");
    for (name, tree) in golden_trees() {
        println!("  {name:<10} {} nodes", tree.len());
    }
    println!("golden variants:");
    for (name, _) in golden_variants(1) {
        println!("  {name}");
    }
    println!("further variants (the fuzzer's set):");
    for (name, _) in variants(1) {
        if !golden_variants(1).iter().any(|(g, _)| *g == name) {
            println!("  {name}");
        }
    }
}

fn render(records: &[TraceRecord], format: Format) -> Vec<u8> {
    match format {
        Format::Jsonl => trace::to_jsonl(records).into_bytes(),
        Format::Binary => trace::to_binary(records),
        Format::Pretty => {
            let mut s = String::new();
            for r in records {
                s.push_str(&r.to_string());
                s.push('\n');
            }
            s.into_bytes()
        }
        Format::Summary => {
            let end = trace_end_time(records);
            let mut s = format!(
                "{} event(s), end time {end}\n\
                 node  computed  busy-comp  busy-link  preempt  resume  reqs  high-water\n",
                records.len()
            );
            for (i, tl) in fold_timelines(records).iter().enumerate() {
                s.push_str(&format!(
                    "{i:>4}  {:>8}  {:>9}  {:>9}  {:>7}  {:>6}  {:>4}  {:>10}\n",
                    tl.tasks_computed,
                    tl.busy_compute,
                    tl.busy_link,
                    tl.preemptions,
                    tl.resumes,
                    tl.requests_sent,
                    tl.buffer_high_water,
                ));
            }
            s.into_bytes()
        }
    }
}

/// Prints the first divergence between two traces with surrounding
/// context. Returns true when the traces are identical.
fn diff(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Vec<TraceRecord>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        trace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    let common = a.len().min(b.len());
    let divergence = (0..common).find(|&i| a[i] != b[i]);
    let Some(first) = divergence.or((a.len() != b.len()).then_some(common)) else {
        println!("traces identical: {} event(s)", a.len());
        return Ok(true);
    };
    println!(
        "traces diverge at event {first} ({} vs {} event(s) total)",
        a.len(),
        b.len()
    );
    let ctx_from = first.saturating_sub(3);
    for (i, r) in a.iter().enumerate().take(first).skip(ctx_from) {
        println!("  {i:>6}   {r}");
    }
    let show = |label: &str, t: &[TraceRecord], i: usize| match t.get(i) {
        Some(r) => println!("  {i:>6} {label} {r}"),
        None => println!("  {i:>6} {label} <end of trace>"),
    };
    for i in first..(first + 3).min(common.max(first + 1)) {
        show("A", &a, i);
        show("B", &b, i);
    }
    Ok(false)
}

/// Prints `error: <msg>` and returns the usage-error status.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

fn record(r: &Record) -> ExitCode {
    let scenario =
        resolve_tree(&r.tree).and_then(|t| Ok((t, resolve_variant(&r.variant, r.tasks)?)));
    let (tree, cfg) = match scenario {
        Ok(s) => s,
        Err(msg) => return usage_error(&msg),
    };
    let records = record_trace(&tree, &cfg);
    let bytes = render(&records, r.format);
    match &r.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} event(s) to {path}", records.len());
        }
        None => {
            std::io::stdout()
                .write_all(&bytes)
                .expect("stdout write failed");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match or_exit(try_parse(std::env::args().skip(1)), USAGE) {
        Mode::List => {
            list();
            ExitCode::SUCCESS
        }
        Mode::Diff(a, b) => match diff(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => usage_error(&msg),
        },
        Mode::Record(r) => record(&r),
    }
}
