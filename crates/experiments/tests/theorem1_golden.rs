//! Golden corpus of the Theorem 1 analysis on the campaign's real
//! population.
//!
//! The first 64 paper-default campaign trees (10,000 tasks, x = 10,000)
//! at seeds 2003 and 7919 are analyzed, and three things are pinned in
//! `fixtures/theorem1_golden.txt`:
//!
//! * the exact `Display` of every tree's `optimal_rate`;
//! * one FNV-1a digest over the `Display` of every `subtree_weight`;
//! * one FNV-1a digest over the `Display` of every per-node rate of the
//!   top-down allocation.
//!
//! The slice holds optima on both `Rational` tiers, so a change to the
//! word-level or the bignum arithmetic (GCD, reduction, reciprocals) that
//! moves any exact value fails here. `BLESS=1` rewrites the fixture; a
//! change that claims identical outputs must pass without it.

use bc_engine::durability::fnv1a64;
use bc_experiments::campaign::CampaignConfig;
use bc_steady::SteadyState;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 2] = [2003, 7919];
const TREES: usize = 64;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/theorem1_golden.txt")
}

/// Renders the corpus in the fixture's format and counts the big-tier
/// optima it contains.
fn render() -> (String, usize) {
    let mut optima = String::new();
    let (mut weights, mut rates) = (String::new(), String::new());
    let mut big = 0;
    for seed in SEEDS {
        let campaign = CampaignConfig::paper(TREES, 10_000, seed);
        for i in 0..TREES {
            let tree = campaign.tree(i);
            let ss = SteadyState::analyze(&tree);
            let alloc = ss.allocate(&tree);
            let optimal = ss.optimal_rate();
            big += usize::from(!optimal.is_small());
            writeln!(optima, "{seed} {i} {optimal}").unwrap();
            for id in tree.ids() {
                writeln!(weights, "{}", ss.subtree_weight(id)).unwrap();
                writeln!(rates, "{}", alloc.node_rate(id)).unwrap();
            }
        }
    }
    let out = format!(
        "subtree_weights_fnv1a {:016x}\nnode_rates_fnv1a {:016x}\n{optima}",
        fnv1a64(weights.as_bytes()),
        fnv1a64(rates.as_bytes()),
    );
    (out, big)
}

#[test]
fn theorem1_outputs_match_the_golden_corpus() {
    let (got, big) = render();
    assert!(
        big > 0 && big < SEEDS.len() * TREES,
        "the slice must hold optima on both tiers ({big} of {} big)",
        SEEDS.len() * TREES
    );
    let path = fixture_path();
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); generate with BLESS=1", path.display()));
    let mut want_lines = want.lines();
    for (k, line) in got.lines().enumerate() {
        assert_eq!(
            Some(line),
            want_lines.next(),
            "line {} of {} differs",
            k + 1,
            path.display()
        );
    }
    assert_eq!(want_lines.next(), None, "fixture has extra lines");
}
