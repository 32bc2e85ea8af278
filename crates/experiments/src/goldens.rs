//! Golden-trace scenarios: the canonical platform trees × protocol
//! variants whose full event streams are committed under `tests/golden/`
//! and diffed byte-exactly by `tests/golden_traces.rs`.
//!
//! The scenario set covers the paper's reference platforms — the Fig 1(b)
//! tree of §4.2.3 and the first Table 1 campaign trees (the §4.1 random
//! distribution at the campaign seed) — under every protocol variant the
//! paper evaluates: non-interruptible with one growable initial buffer,
//! and interruptible with FB ∈ {1, 2, 3}. A committed trace freezes the
//! *entire temporal behavior* of a run, so any change to scheduling
//! order, tie-breaking, growth timing, or event ordering shows up as a
//! one-line diff in CI — the strongest cheap regression net the
//! deterministic engine admits.
//!
//! Regenerating after an intentional behavior change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_traces
//! ```
//!
//! (see CONTRIBUTING.md — bless only with a review of the diff).
//!
//! The scenario tools (`trace_dump`, `whatif`) resolve their `--tree` /
//! `--spec` and `--variant` flags here too ([`resolve_tree`],
//! [`resolve_variant`]), so a golden name means the same scenario in
//! every tool.

use crate::campaign::campaign_tree;
use crate::fuzz::{variant_by_name, variants, CaseSpec};
use bc_engine::{SimConfig, SimWorkspace, Simulation, VecSink};
use bc_platform::examples::fig1_tree;
use bc_platform::generator::RandomTreeConfig;
use bc_platform::Tree;
use bc_simcore::trace::TraceRecord;

/// Campaign seed the Table 1 golden trees are drawn at (the repo-wide
/// experiment seed).
pub const GOLDEN_SEED: u64 = 2003;

/// Table 1 campaign trees included in the golden set (tree `i` =
/// `campaign_tree(&RandomTreeConfig::default(), GOLDEN_SEED, i)`).
pub const GOLDEN_TABLE1_TREES: usize = 3;

/// Tasks per golden run — small enough to keep committed traces
/// reviewable, large enough that every run reaches steady state past the
/// startup transient.
pub const GOLDEN_TASKS: u64 = 40;

/// The golden platform trees, named: `fig1` plus `table1-<i>`.
pub fn golden_trees() -> Vec<(String, Tree)> {
    let mut out = vec![("fig1".to_string(), fig1_tree())];
    let cfg = RandomTreeConfig::default();
    for i in 0..GOLDEN_TABLE1_TREES {
        out.push((format!("table1-{i}"), campaign_tree(&cfg, GOLDEN_SEED, i)));
    }
    out
}

/// The golden protocol variants: the non-IC protocol (IB=1, growable,
/// §3.1) and the IC protocol at each paper buffer size (§3.2).
pub fn golden_variants(tasks: u64) -> Vec<(&'static str, SimConfig)> {
    vec![
        ("nonic-ib1", SimConfig::non_interruptible(1, tasks)),
        ("ic-fb1", SimConfig::interruptible(1, tasks)),
        ("ic-fb2", SimConfig::interruptible(2, tasks)),
        ("ic-fb3", SimConfig::interruptible(3, tasks)),
    ]
}

/// A scenario tool's platform: `--tree NAME` or `--spec SPEC`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeSource {
    /// A golden tree by name (see [`golden_trees`]).
    Golden(String),
    /// An explicit case spec in [`CaseSpec::encode`]'s format.
    Spec(String),
}

impl TreeSource {
    /// The source from the `--tree` and `--spec` flag values; exactly
    /// one of them must be given.
    pub fn from_flags(tree: Option<String>, spec: Option<String>) -> Result<TreeSource, String> {
        match (tree, spec) {
            (Some(name), None) => Ok(TreeSource::Golden(name)),
            (None, Some(spec)) => Ok(TreeSource::Spec(spec)),
            _ => Err("exactly one of --tree or --spec is required".into()),
        }
    }
}

/// Builds the tree `source` names; an unknown golden name lists the
/// known ones.
pub fn resolve_tree(source: &TreeSource) -> Result<Tree, String> {
    match source {
        TreeSource::Golden(name) => golden_trees()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .ok_or_else(|| {
                let known: Vec<String> = golden_trees().into_iter().map(|(n, _)| n).collect();
                format!("unknown tree {name}; known: {}", known.join(", "))
            }),
        TreeSource::Spec(spec) => Ok(CaseSpec::decode(spec)?.to_tree()),
    }
}

/// The configuration of variant `name` at `tasks` tasks: a golden
/// variant first, then the fuzzer's set (see [`crate::fuzz::variants`]).
/// An unknown name lists every known one.
pub fn resolve_variant(name: &str, tasks: u64) -> Result<SimConfig, String> {
    golden_variants(tasks)
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, c)| c)
        .or_else(|| variant_by_name(name, tasks))
        .ok_or_else(|| {
            let mut known: Vec<&str> = golden_variants(1).iter().map(|(n, _)| *n).collect();
            for (n, _) in variants(1) {
                if !known.contains(&n) {
                    known.push(n);
                }
            }
            format!("unknown variant {name}; known: {}", known.join(", "))
        })
}

/// All `(scenario_name, tree, config)` combinations of the golden set;
/// the committed file is `tests/golden/<scenario_name>.jsonl`.
pub fn golden_scenarios() -> Vec<(String, Tree, SimConfig)> {
    let mut out = Vec::new();
    for (tree_name, tree) in golden_trees() {
        for (variant, cfg) in golden_variants(GOLDEN_TASKS) {
            out.push((format!("{tree_name}-{variant}"), tree.clone(), cfg.clone()));
        }
    }
    out
}

/// Runs one simulation with a recording sink and returns its full trace.
pub fn record_trace(tree: &Tree, cfg: &SimConfig) -> Vec<TraceRecord> {
    let sim = Simulation::traced(
        tree.clone(),
        cfg.clone(),
        SimWorkspace::new(),
        VecSink::new(),
    );
    let (_result, _ws, sink) = sim.run_traced();
    sink.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_simcore::trace;

    #[test]
    fn scenario_set_covers_trees_times_variants() {
        let scenarios = golden_scenarios();
        assert_eq!(scenarios.len(), (1 + GOLDEN_TABLE1_TREES) * 4);
        let names: Vec<&str> = scenarios.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"fig1-nonic-ib1"));
        assert!(names.contains(&"table1-2-ic-fb3"));
    }

    #[test]
    fn recorded_traces_are_reproducible_and_parse_back() {
        let (_, tree, cfg) = golden_scenarios().swap_remove(1); // fig1-ic-fb1
        let a = record_trace(&tree, &cfg);
        let b = record_trace(&tree, &cfg);
        assert_eq!(a, b, "same tree + config must trace identically");
        assert!(!a.is_empty());
        let text = trace::to_jsonl(&a);
        assert_eq!(trace::from_jsonl(&text).unwrap(), a);
    }
}
