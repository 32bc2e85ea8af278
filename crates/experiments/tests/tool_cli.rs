//! The experiment tools' command-line contract, through the built
//! binaries: `--help` exits 0 with usage on stdout; an unknown flag or a
//! malformed number exits 2 with `error: …` on stderr and no panic.
//! These contract checks run only parse paths. `fig4` stands for every
//! binary that parses through `cli::parse`. Two small runs pin what the
//! tools report: the record `fuzz_protocols --repro --out` writes, and
//! `bench_report --scaling-smoke`'s speedup failure.
//!
//! The same file pins `trace_dump`'s scenario resolution to the
//! committed golden traces: recording a golden scenario as JSONL must
//! reproduce `tests/golden/<tree>-<variant>.jsonl` byte for byte.

use bc_engine::SimSnapshot;
use bc_experiments::fuzz::replay_suffix;
use bc_experiments::goldens::{golden_trees, golden_variants};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Each tool, with one numeric flag to feed a malformed value.
const TOOLS: [(&str, &str); 7] = [
    (env!("CARGO_BIN_EXE_bench_report"), "--samples"),
    (env!("CARGO_BIN_EXE_analyze"), "--random"),
    (env!("CARGO_BIN_EXE_chaos"), "--seed"),
    (env!("CARGO_BIN_EXE_fuzz_protocols"), "--cases"),
    (env!("CARGO_BIN_EXE_trace_dump"), "--tasks"),
    (env!("CARGO_BIN_EXE_whatif"), "--tasks"),
    (env!("CARGO_BIN_EXE_fig4"), "--trees"),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Asserts the usage-error contract and returns the stderr text.
fn assert_usage_error(exe: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        stderr.starts_with("error:"),
        "{exe} {args:?} stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{exe} {args:?} stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{exe} {args:?} wrote to stdout");
    stderr
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for (exe, flag) in TOOLS {
        let out = run(exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{exe} --help");
        let stdout = text(&out.stdout);
        assert!(stdout.contains(flag), "{exe} --help printed: {stdout}");
        assert!(out.stderr.is_empty(), "{exe} --help wrote to stderr");
    }
}

#[test]
fn unknown_flags_exit_two() {
    for (exe, _) in TOOLS {
        assert_usage_error(exe, &["--bogus"]);
    }
}

#[test]
fn malformed_numbers_exit_two() {
    for (exe, flag) in TOOLS {
        assert_usage_error(exe, &[flag, "x"]);
    }
}

/// A fresh scratch directory for one test, removed and recreated.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bc-tool-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn fuzz_repro_flags_need_repro() {
    let exe = env!("CARGO_BIN_EXE_fuzz_protocols");
    let never = std::env::temp_dir().join(format!("bc-tool-cli-never-{}", std::process::id()));
    let never = never.to_str().expect("utf-8 temp path");
    for (flag, value) in [("--arrivals", "7"), ("--fault", "fb"), ("--out", never)] {
        let args = [flag, value, "--cases", "2", "--tasks", "50"];
        let stderr = assert_usage_error(exe, &args);
        assert!(
            stderr.starts_with(&format!("error: {flag} only makes sense with --repro")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("usage"), "{flag}: {stderr}");
    }
    assert!(
        !Path::new(never).exists(),
        "a rejected --out created its directory"
    );
}

#[test]
fn fuzz_repro_out_writes_a_replayable_violation() {
    let dir = scratch_dir("repro");
    let out = run(
        env!("CARGO_BIN_EXE_fuzz_protocols"),
        &[
            "--repro",
            "5|0:3:2;0:1:4;1:2:2",
            "--variant",
            "ic-fb3",
            "--fault",
            "fb",
            "--out",
            dir.to_str().expect("utf-8 temp path"),
        ],
    );
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let verdict = stderr
        .lines()
        .find_map(|l| l.strip_prefix("reproduced: "))
        .unwrap_or_else(|| panic!("no verdict printed: {stderr}"));
    let bytes = std::fs::read(dir.join("violation.snap")).expect("violation.snap written");
    let snap = SimSnapshot::from_bytes(&bytes).expect("violation.snap decodes");
    assert_eq!(replay_suffix(&snap).0, Err(verdict.to_string()));
    let trace = std::fs::read_to_string(dir.join("violation.trace")).expect("trace written");
    assert!(trace.lines().count() > 0, "empty violation.trace");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scaling_smoke_names_its_real_baseline() {
    let dir = scratch_dir("scaling");
    let out = run(
        env!("CARGO_BIN_EXE_bench_report"),
        &[
            "--scaling-smoke",
            "--scaling-trees",
            "2",
            "--threads",
            "2,4",
            "--samples",
            "1",
            "--assert-threads-speedup",
            "100",
            "--out",
            dir.to_str().expect("utf-8 temp path"),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    if stdout.contains("parallel speedup is not observable here") {
        return; // a one-CPU host skips the assertion
    }
    assert!(
        !out.status.success(),
        "a 100x speedup cannot pass: {stdout}"
    );
    assert!(
        stderr.contains("4-thread wall time is only")
            && stderr.contains("faster than 2 thread(s) (required 100.00x)"),
        "{stderr}"
    );
}

#[test]
fn trace_dump_reproduces_the_golden_traces() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut cases: Vec<(String, &str, String)> = Vec::new();
    for (tree, _) in golden_trees() {
        for (variant, _) in golden_variants(1) {
            cases.push((tree.clone(), variant, format!("{tree}-{variant}.jsonl")));
        }
    }
    // The fuzzer's name for the golden non-IC variant resolves to the
    // same configuration.
    cases.push((
        "fig1".into(),
        "nonic-ib1-every",
        "fig1-nonic-ib1.jsonl".into(),
    ));
    assert_eq!(cases.len(), 17);
    for (tree, variant, file) in cases {
        let out = run(
            env!("CARGO_BIN_EXE_trace_dump"),
            &["--tree", &tree, "--variant", variant, "--format", "jsonl"],
        );
        assert!(
            out.status.success(),
            "{tree} {variant}: {}",
            text(&out.stderr)
        );
        let want = std::fs::read(golden.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(
            out.stdout == want,
            "trace_dump --tree {tree} --variant {variant} differs from {file}"
        );
    }
}
