//! Golden event counts of the 64-tree reference campaign
//! ([`CampaignConfig::reference`]).
//!
//! For IC/FB=3 and non-IC/IB=1, `fixtures/event_counts_golden.txt` pins
//! the agenda events handled (`events_total`) and every nonzero count of
//! trace records by kind. These are exact work counts: a change that
//! alters what the simulator does per run, even one that leaves every
//! summary statistic alone, shows up here as a reviewable diff.
//! `BLESS=1` rewrites the fixture; a change that claims identical
//! behaviour must pass without it.

use bc_engine::SimConfig;
use bc_experiments::campaign::{event_counts, CampaignConfig, EventCounts};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/event_counts_golden.txt")
}

#[test]
fn reference_campaign_event_counts_match_the_golden_fixture() {
    let campaign = CampaignConfig::reference();
    let protocols = [
        ("ic_fb3", SimConfig::interruptible(3, campaign.tasks)),
        ("nonic_ib1", SimConfig::non_interruptible(1, campaign.tasks)),
    ];
    let mut got = String::new();
    let mut counted: Vec<EventCounts> = Vec::new();
    for (name, config) in &protocols {
        let counts = event_counts(&campaign, config);
        writeln!(got, "{name} events_total {}", counts.events_total).unwrap();
        for (kind, n) in &counts.by_kind {
            writeln!(got, "{name} {kind} {n}").unwrap();
        }
        counted.push(counts);
    }

    // Every task finishes computing exactly once.
    let tasks = campaign.trees as u64 * campaign.tasks;
    for (counts, (name, _)) in counted.iter().zip(&protocols) {
        assert_eq!(counts.by_kind["compute-finish"], tasks, "{name}");
    }
    // In these fault-free batch runs an event is a compute completion or
    // a transfer completion. IC/FB=3's 445,354 transfer events match the
    // `transfer_done` count of the per-event-kind cycle profile recorded
    // for this campaign (the `kernel_profile` section of an older
    // BENCH_campaign.json, written by a since-deleted build feature). `transfer-complete` records
    // outnumber them: a transfer preempted with no work left completes
    // inside the preempting event, without an event of its own.
    let ic = &counted[0];
    assert_eq!(ic.events_total - ic.by_kind["compute-finish"], 445_354);
    assert!(ic.by_kind["transfer-complete"] > 445_354);

    let path = fixture_path();
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); generate with BLESS=1", path.display()));
    assert_eq!(got, want, "event counts differ from {}", path.display());
}
