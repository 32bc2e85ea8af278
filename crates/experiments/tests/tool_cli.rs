//! The experiment tools' command-line contract, through the built
//! binaries: `--help` exits 0 with usage on stdout; an unknown flag or a
//! malformed number exits 2 with `error: …` on stderr and no panic.
//! Only parse paths run, so no binary starts any work. `fig4` stands for
//! every binary that parses through `cli::parse`.
//!
//! The same file pins `trace_dump`'s scenario resolution to the
//! committed golden traces: recording a golden scenario as JSONL must
//! reproduce `tests/golden/<tree>-<variant>.jsonl` byte for byte.

use bc_experiments::goldens::{golden_trees, golden_variants};
use std::path::Path;
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

#[test]
fn fuzz_repro_flags_need_repro() {
    let exe = env!("CARGO_BIN_EXE_fuzz_protocols");
    for (flag, value) in [("--arrivals", "7"), ("--fault", "fb")] {
        let args = [flag, value, "--cases", "2", "--tasks", "50"];
        let stderr = assert_usage_error(exe, &args);
        assert!(
            stderr.starts_with(&format!("error: {flag} only makes sense with --repro")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("usage"), "{flag}: {stderr}");
    }
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
