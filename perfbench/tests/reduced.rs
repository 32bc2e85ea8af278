//! Reduced-size runs of every workload: each named metric is emitted
//! with its unit, and the output fingerprints hold (repeatable per seed,
//! distinct across seeds, identical traced and untraced).

use bc_perfbench::report::Outcome;
use bc_perfbench::{grid, paper, serve, Opts};

const PAPER: paper::Scale = paper::Scale {
    trees: 4,
    tasks: 400,
    setup_reps: 2,
};
const GRID: grid::Scale = grid::Scale { trees_per_cell: 1 };
const SERVE: serve::Scale = serve::Scale {
    max_nodes: 20,
    step_events: 200,
    tasks: 120,
    window: 2,
    window_warm_events: 600,
    window_step_events: 300,
    fingerprint_sessions: 6,
    setup_reps: 2,
};

fn opts(seed: u64, trace: bool, dir: &str) -> Opts {
    Opts {
        seed,
        seconds: 0.05,
        trace,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{dir}-{}", std::process::id())),
    }
}

/// Metric names of one section of the repository's `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn assert_emits(o: &Outcome, section: &str) {
    let want = benchmark_metrics(section);
    assert!(!want.is_empty(), "no metrics listed under {section}");
    let got: Vec<(String, String)> = o
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

fn fingerprint(o: &Outcome) -> String {
    o.notes
        .iter()
        .find(|(k, _)| k == "fingerprint")
        .map(|(_, v)| v.clone())
        .expect("fingerprint noted")
}

fn assert_clean(o: &Outcome) {
    assert!(
        o.correct(),
        "checks {:?}, failed {}/{}",
        o.checks,
        o.failed,
        o.attempted
    );
    assert!(o.attempted >= 1);
}

fn check_workload(name: &str, run: impl Fn(&Opts) -> Outcome) {
    let a = run(&opts(5, false, name));
    assert_clean(&a);
    assert_emits(&a, "end_to_end");
    for m in [
        "throughput_per_s",
        "latency_p50_us",
        "latency_tail_us",
        "setup_s",
        "peak_rss_mib",
    ] {
        assert!(a.get(m).unwrap() > 0.0, "{name}: {m} must be positive");
    }
    let again = run(&opts(5, false, name));
    assert_eq!(
        fingerprint(&a),
        fingerprint(&again),
        "{name}: same seed, same outputs"
    );
    let other = run(&opts(6, false, name));
    assert_ne!(
        fingerprint(&a),
        fingerprint(&other),
        "{name}: the seed drives the inputs"
    );

    let traced = run(&opts(5, true, name));
    assert_clean(&traced);
    assert_emits(&traced, "per_layer");
    assert_eq!(
        fingerprint(&a),
        fingerprint(&traced),
        "{name}: traced run reproduces outputs"
    );
}

/// All three workloads in one test, one after another: each sets the
/// process-wide work-queue thread count, so running them on parallel
/// test threads could let the grid's 1- vs 2-thread check compare one
/// thread count with itself.
#[test]
fn workloads_reduced() {
    check_workload(paper::NAME, |o| paper::run(o, PAPER));
    check_workload(grid::NAME, |o| grid::run(o, GRID));
    check_workload(serve::NAME, |o| serve::run(o, SERVE));
}

#[test]
fn manifest_fingerprint_lookup() {
    let fp = bc_perfbench::recorded_fingerprint(paper::NAME, 2003);
    assert!(fp.is_some_and(|f| f.contains("ic_fb3 events=")));
    assert_eq!(bc_perfbench::recorded_fingerprint(paper::NAME, 1), None);
}
