//! Golden campaign-checkpoint payload of a stopped grid sweep.
//!
//! A small grid sweep checkpoints after every work item and stops after
//! `STOP_AFTER` of its 8 (cell, shard) items. The newest generation's
//! payload (version, sweep fingerprint, cursor, cell count, per-cell
//! accumulators) is pinned as hex in
//! `fixtures/grid_checkpoint_golden.hex`, so:
//!
//! * a change to the driver that moves any payload byte fails here;
//! * checkpoints written by an earlier build must still resume: the
//!   committed bytes, saved into a fresh store, resume to the same
//!   per-cell aggregates as an uninterrupted `run_grid_streaming`.
//!
//! `BLESS=1` rewrites the fixture; a change that claims identical
//! checkpoints must pass without it.

use bc_engine::durability::{CheckpointKind, CheckpointStore};
use bc_engine::SimConfig;
use bc_experiments::campaign::{
    run_grid_streaming, run_grid_streaming_checkpointed, CampaignGrid, CheckpointPolicy, GridCell,
};
use bc_metrics::OnsetConfig;
use std::path::PathBuf;

const SHARD_SIZE: usize = 2;
const STOP_AFTER: usize = 5;

/// Four cells of three trees each: two shards per cell, so the stop
/// point lands mid-sweep, one work item into the third cell.
fn golden_grid() -> CampaignGrid {
    CampaignGrid {
        max_nodes: vec![10, 20],
        tasks: vec![200],
        buffers: vec![2, 3],
        comm_max: vec![8],
        compute_scale: vec![100],
        trees_per_cell: 3,
        seed: 2003,
        onset: OnsetConfig {
            window_threshold: 50,
            crossings: 2,
        },
    }
}

fn cell_config(c: &GridCell) -> SimConfig {
    SimConfig::interruptible(c.buffers, c.tasks)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/grid_checkpoint_golden.hex")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bc-ckpt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

fn committed_payload() -> Vec<u8> {
    let path = fixture_path();
    let hex = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); generate with BLESS=1", path.display()));
    from_hex(&hex)
}

#[test]
fn stopped_sweep_writes_the_golden_payload() {
    let grid = golden_grid();
    let dir = fresh_dir("write");
    let mut policy = CheckpointPolicy::new(&dir, 1);
    policy.stop_after_shards = Some(STOP_AFTER);
    let outcome = run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cell_config, &policy)
        .expect("stopped sweep");
    assert!(!outcome.completed);
    assert_eq!(outcome.shards_done, STOP_AFTER);
    assert_eq!(outcome.shards_total, 8);

    let store = CheckpointStore::open(&dir, "grid", CheckpointKind::Campaign, 2).unwrap();
    let newest = store.load_latest().unwrap().expect("a saved generation");
    // One generation per work item, numbered from 0.
    assert_eq!(newest.generation, STOP_AFTER as u64 - 1);
    let _ = std::fs::remove_dir_all(&dir);

    let got = to_hex(&newest.payload);
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(fixture_path(), format!("{got}\n")).expect("write fixture");
        return;
    }
    assert_eq!(
        got,
        to_hex(&committed_payload()),
        "the stopped sweep's checkpoint payload differs from the committed golden"
    );
}

#[test]
fn golden_payload_resumes_to_the_uninterrupted_result() {
    let grid = golden_grid();
    let reference = run_grid_streaming(&grid, SHARD_SIZE, cell_config);

    let dir = fresh_dir("resume");
    let mut store = CheckpointStore::open(&dir, "grid", CheckpointKind::Campaign, 2).unwrap();
    let generation = store.save(&committed_payload()).unwrap();

    let policy = CheckpointPolicy::new(&dir, 1).resuming(true);
    let outcome = run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cell_config, &policy)
        .expect("resume from the committed payload");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(outcome.resumed_from_generation, Some(generation));
    assert!(outcome.completed);
    assert_eq!(outcome.shards_done, outcome.shards_total);
    assert_eq!(outcome.results, reference);
}
