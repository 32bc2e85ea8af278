//! Chaos harness: proves the durability layer against *real* process
//! death and *real* disk faults, not just the deterministic
//! `stop_after_shards` stand-in the unit tests use.
//!
//! Legs (all run by default):
//!
//! 1. **Campaign SIGKILL** — spawns a child process (this same binary in
//!    hidden worker mode) running a checkpointed streaming grid sweep,
//!    SIGKILLs it after a seeded-random delay, relaunches with resume,
//!    and repeats until the sweep completes; the final per-cell
//!    aggregates must be **bit-identical** to a clean in-process run.
//! 2. **Disk faults** — truncates and bit-flips the newest checkpoint
//!    generation of a partially-run sweep and asserts detection and
//!    fallback to the previous good generation (still bit-identical);
//!    with every generation corrupted, the failure must be the typed
//!    `NoUsableGeneration` error — never a panic, never silent garbage.
//! 3. **Serve SIGKILL** — spawns the `bc-serve` binary with a
//!    per-line session journal, opens and steps a session, SIGKILLs the
//!    server, relaunches with `--recover`, runs the session to the end,
//!    and asserts the final `done` accounting equals the uninterrupted
//!    in-process run's.
//!
//! ```text
//! chaos [--seed S] [--trees N] [--dir DIR] [--max-kills K] [--skip-serve]
//! ```
//!
//! Exits 0 with a `chaos: all legs passed` summary, or 1 with the
//! failing leg's diagnostics (CI uploads the scratch directory as a
//! failure artifact).

use bc_engine::SimConfig;
use bc_experiments::campaign::{
    run_grid_streaming, run_grid_streaming_checkpointed, CampaignAccumulator, CampaignGrid,
    CheckpointPolicy, GridCell, ResumeError,
};
use bc_experiments::cli::{number, or_exit, CliError, Flags};
use bc_metrics::OnsetConfig;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const SHARD_SIZE: usize = 2;

fn fail(msg: &str) -> ! {
    eprintln!("chaos: FAIL: {msg}");
    std::process::exit(1);
}

/// The swept grid: 4 cells x `trees_per_cell` trees (256 trees at the
/// default 64 — the CI smoke size).
fn chaos_grid(seed: u64, trees_per_cell: usize) -> CampaignGrid {
    CampaignGrid {
        max_nodes: vec![10, 20],
        tasks: vec![200],
        buffers: vec![2, 3],
        comm_max: vec![8],
        compute_scale: vec![100],
        trees_per_cell,
        seed,
        onset: OnsetConfig {
            window_threshold: 50,
            crossings: 2,
        },
    }
}

fn cfg_for(cell: &GridCell) -> SimConfig {
    SimConfig::interruptible(cell.buffers, cell.tasks)
}

/// Canonical byte form of final per-cell aggregates, for exact diffs.
fn encode_cells(cells: &[(GridCell, CampaignAccumulator)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (cell, acc) in cells {
        out.extend((cell.index as u64).to_le_bytes());
        acc.encode_into(&mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Worker mode (the process that gets SIGKILLed)
// ---------------------------------------------------------------------------

/// Runs the checkpointed sweep with resume enabled and, on completion,
/// atomically publishes the aggregate bytes as `result.bin`.
fn worker_sweep(dir: &Path, seed: u64, trees_per_cell: usize) -> ! {
    let grid = chaos_grid(seed, trees_per_cell);
    let policy = CheckpointPolicy::new(dir, 1).resuming(true);
    let outcome = match run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cfg_for, &policy) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("worker: {e}");
            std::process::exit(3);
        }
    };
    if outcome.completed {
        let tmp = dir.join(format!("result.tmp-{}", std::process::id()));
        let final_path = dir.join("result.bin");
        std::fs::write(&tmp, encode_cells(&outcome.results)).expect("worker: write result");
        std::fs::rename(&tmp, &final_path).expect("worker: publish result");
    }
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// Leg 1: campaign SIGKILL
// ---------------------------------------------------------------------------

fn campaign_kill_leg(dir: &Path, seed: u64, trees_per_cell: usize, max_kills: u32) {
    let grid = chaos_grid(seed, trees_per_cell);
    let reference = encode_cells(&run_grid_streaming(&grid, SHARD_SIZE, cfg_for));

    let sweep_dir = dir.join("sweep");
    let _ = std::fs::remove_dir_all(&sweep_dir);
    std::fs::create_dir_all(&sweep_dir).expect("create sweep dir");
    let exe = std::env::current_exe().expect("current_exe");
    let result_path = sweep_dir.join("result.bin");

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A0_5CA0);
    let mut kills = 0u32;
    while !result_path.exists() {
        let mut child = Command::new(&exe)
            .arg("--worker-sweep")
            .arg(&sweep_dir)
            .arg(seed.to_string())
            .arg(trees_per_cell.to_string())
            .spawn()
            .expect("spawn worker");
        if kills < max_kills {
            let delay = rng.random_range(2u64..60);
            std::thread::sleep(std::time::Duration::from_millis(delay));
            match child.try_wait().expect("try_wait") {
                Some(status) => {
                    if !status.success() {
                        fail(&format!("worker exited with {status} before the kill"));
                    }
                }
                None => {
                    // SIGKILL on unix: no destructors, no flushing — the
                    // real thing the atomic checkpoint protocol defends
                    // against.
                    child.kill().expect("kill worker");
                    let _ = child.wait();
                    kills += 1;
                }
            }
        } else {
            let status = child.wait().expect("wait worker");
            if !status.success() {
                fail(&format!("worker exited with {status} on the final run"));
            }
        }
    }
    let got = std::fs::read(&result_path).expect("read worker result");
    if got != reference {
        fail("campaign aggregates after SIGKILL/resume differ from the clean run");
    }
    println!(
        "chaos: campaign leg passed — {} trees, {} SIGKILLs, aggregates bit-identical",
        grid.total_trees(),
        kills
    );
}

// ---------------------------------------------------------------------------
// Leg 2: disk faults on checkpoint files
// ---------------------------------------------------------------------------

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bcc"))
        .collect();
    files.sort();
    files
}

/// Runs a partial sweep, corrupts the newest generation with `mangle`,
/// resumes, and demands fallback-to-previous with bit-identical finals.
fn corrupt_and_resume(
    dir: &Path,
    seed: u64,
    trees_per_cell: usize,
    reference: &[u8],
    what: &str,
    mangle: impl FnOnce(&Path),
) {
    let grid = chaos_grid(seed, trees_per_cell);
    let _ = std::fs::remove_dir_all(dir);
    let mut policy = CheckpointPolicy::new(dir, 1);
    policy.stop_after_shards = Some(5);
    policy.keep = 16;
    run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cfg_for, &policy)
        .unwrap_or_else(|e| fail(&format!("{what}: partial sweep failed: {e}")));

    let files = checkpoint_files(dir);
    if files.is_empty() {
        fail(&format!("{what}: partial sweep left no checkpoints"));
    }
    mangle(files.last().expect("non-empty"));

    let mut policy = CheckpointPolicy::new(dir, 1).resuming(true);
    policy.keep = 16;
    let outcome = run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cfg_for, &policy)
        .unwrap_or_else(|e| fail(&format!("{what}: resume past corruption failed: {e}")));
    if !outcome.completed {
        fail(&format!("{what}: resumed sweep did not complete"));
    }
    if encode_cells(&outcome.results) != reference {
        fail(&format!("{what}: aggregates differ after fallback"));
    }
    println!("chaos: disk-fault leg passed — {what} detected, fell back, bit-identical");
}

fn disk_fault_leg(dir: &Path, seed: u64, trees_per_cell: usize) {
    let grid = chaos_grid(seed, trees_per_cell);
    let reference = encode_cells(&run_grid_streaming(&grid, SHARD_SIZE, cfg_for));
    let fault_dir = dir.join("faults");

    corrupt_and_resume(
        &fault_dir,
        seed,
        trees_per_cell,
        &reference,
        "truncated newest generation",
        |newest| {
            let bytes = std::fs::read(newest).expect("read checkpoint");
            std::fs::write(newest, &bytes[..bytes.len() / 2]).expect("truncate checkpoint");
        },
    );
    corrupt_and_resume(
        &fault_dir,
        seed,
        trees_per_cell,
        &reference,
        "bit-flipped newest generation",
        |newest| {
            let mut bytes = std::fs::read(newest).expect("read checkpoint");
            let at = bytes.len() / 3;
            bytes[at] ^= 0x10;
            std::fs::write(newest, &bytes).expect("flip checkpoint");
        },
    );

    // Every generation corrupt: typed error, no panic, no garbage.
    let _ = std::fs::remove_dir_all(&fault_dir);
    let mut policy = CheckpointPolicy::new(&fault_dir, 1);
    policy.stop_after_shards = Some(5);
    policy.keep = 16;
    run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cfg_for, &policy)
        .unwrap_or_else(|e| fail(&format!("all-corrupt: partial sweep failed: {e}")));
    for file in checkpoint_files(&fault_dir) {
        std::fs::write(&file, b"zero useful bytes").expect("corrupt checkpoint");
    }
    let policy = CheckpointPolicy::new(&fault_dir, 1).resuming(true);
    match run_grid_streaming_checkpointed(&grid, SHARD_SIZE, cfg_for, &policy) {
        Err(ResumeError::Checkpoint(bc_engine::CheckpointError::NoUsableGeneration)) => {
            println!("chaos: disk-fault leg passed — all-corrupt store is a typed error");
        }
        other => fail(&format!(
            "all-corrupt store should be NoUsableGeneration, got {other:?}"
        )),
    }
}

// ---------------------------------------------------------------------------
// Leg 3: serve SIGKILL + --recover
// ---------------------------------------------------------------------------

const SERVE_OPEN: &str = r#"{"cmd":"open","sim":"chaos","tree":{"root_compute":3,"nodes":[[0,2,3],[0,1,4],[1,2,2],[2,1,3]]},"protocol":"ic","buffers":2,"arrivals":{"seed":23,"queue_cap":3,"policy":"defer","classes":[{"name":"tick","units":1,"poisson":{"mean_gap":2,"count":25}},{"name":"surge","units":2,"burst":{"phase":7,"period":15,"size":5,"bursts":3}}]}}"#;
const SERVE_STEP: &str = r#"{"cmd":"step","sim":"chaos","events":40}"#;
const SERVE_RUN: &str = r#"{"cmd":"run","sim":"chaos"}"#;

fn find_done(lines: &[String]) -> Option<&String> {
    lines.iter().find(|l| l.contains("\"ev\":\"done\""))
}

fn serve_kill_leg(dir: &Path, seed: u64) {
    let serve_bin = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("bc-serve");
    if !serve_bin.exists() {
        println!(
            "chaos: serve leg SKIPPED — {} not built (build with `cargo build -p bc-serve`)",
            serve_bin.display()
        );
        return;
    }

    // Uninterrupted reference, in-process through the same Server.
    let mut golden_srv = bc_serve::Server::new();
    let mut golden = golden_srv.handle_line(SERVE_OPEN);
    golden.extend(golden_srv.handle_line(SERVE_STEP));
    golden.extend(golden_srv.handle_line(SERVE_RUN));
    let golden_done =
        find_done(&golden).unwrap_or_else(|| fail("serve: golden run produced no done line"));

    let journal_dir = dir.join("serve-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);

    // First server: open + step, journaling after every line, then die.
    let mut first = Command::new(&serve_bin)
        .arg("--journal")
        .arg(&journal_dir)
        .arg("--journal-every")
        .arg("1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bc-serve");
    {
        let mut stdin = first.stdin.take().expect("serve stdin");
        let stdout = BufReader::new(first.stdout.take().expect("serve stdout"));
        writeln!(stdin, "{SERVE_OPEN}").expect("write open");
        writeln!(stdin, "{SERVE_STEP}").expect("write step");
        stdin.flush().expect("flush serve stdin");
        // The open + step of the golden run produced this many response
        // lines; consume the same number from the child so we know both
        // requests were fully handled before the kill.
        let prefix_lines = {
            let mut probe = bc_serve::Server::new();
            probe.handle_line(SERVE_OPEN).len() + probe.handle_line(SERVE_STEP).len()
        };
        let mut seen = 0usize;
        for line in stdout.lines() {
            line.expect("read serve stdout");
            seen += 1;
            if seen == prefix_lines {
                break;
            }
        }
        // Wait for at least one journal generation, then strike at a
        // seeded-random moment.
        while checkpoint_files(&journal_dir).is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E4E);
        std::thread::sleep(std::time::Duration::from_millis(rng.random_range(1u64..30)));
        first.kill().expect("kill bc-serve");
        let _ = first.wait();
        // stdin drops here; the process is already dead.
    }

    // Second server: recover, run to the end, compare accounting.
    let mut second = Command::new(&serve_bin)
        .arg("--recover")
        .arg(&journal_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("respawn bc-serve");
    {
        let mut stdin = second.stdin.take().expect("serve stdin");
        writeln!(stdin, "{SERVE_RUN}").expect("write run");
        writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").expect("write shutdown");
        stdin.flush().expect("flush serve stdin");
    }
    let stdout = BufReader::new(second.stdout.take().expect("serve stdout"));
    let lines: Vec<String> = stdout.lines().map(|l| l.expect("read recovered")).collect();
    let _ = second.wait();
    if !lines
        .first()
        .is_some_and(|l| l.contains("\"ev\":\"recovered\""))
    {
        fail(&format!("serve: no recovered line, got {lines:?}"));
    }
    let done = find_done(&lines)
        .unwrap_or_else(|| fail(&format!("serve: recovered run has no done line: {lines:?}")));
    if done != golden_done {
        fail(&format!(
            "serve: recovered done accounting diverged\n  golden: {golden_done}\n  got:    {done}"
        ));
    }
    println!("chaos: serve leg passed — SIGKILL + --recover, done accounting identical");
}

// ---------------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------------

const USAGE: &str =
    "usage: chaos [--seed S] [--trees N] [--dir DIR] [--max-kills K] [--skip-serve]";

/// Parses the hidden `--worker-sweep DIR SEED TREES` mode: the
/// checkpointed sweep the campaign leg spawns and kills.
fn parse_worker(args: &[String]) -> Result<(PathBuf, u64, usize), CliError> {
    let [_, dir, seed, trees] = args else {
        return Err(CliError::Usage(
            "--worker-sweep takes DIR SEED TREES".into(),
        ));
    };
    let seed = number("--worker-sweep SEED", seed)?;
    Ok((
        PathBuf::from(dir),
        seed,
        number("--worker-sweep TREES", trees)?,
    ))
}

struct Legs {
    seed: u64,
    trees: usize,
    max_kills: u32,
    dir: Option<PathBuf>,
    skip_serve: bool,
}

fn try_parse(args: Vec<String>) -> Result<Legs, CliError> {
    let mut legs = Legs {
        seed: 42,
        trees: 64,
        max_kills: 25,
        dir: None,
        skip_serve: false,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--seed" => legs.seed = flags.number("--seed")?,
            "--trees" => legs.trees = flags.number("--trees")?,
            "--max-kills" => legs.max_kills = flags.number("--max-kills")?,
            "--dir" => legs.dir = Some(PathBuf::from(flags.value("--dir")?)),
            "--skip-serve" => legs.skip_serve = true,
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::unknown(other)),
        }
    }
    Ok(legs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--worker-sweep") {
        let (dir, seed, trees) = or_exit(parse_worker(&args), USAGE);
        worker_sweep(&dir, seed, trees);
    }
    let legs = or_exit(try_parse(args), USAGE);
    let (seed, trees) = (legs.seed, legs.trees);
    let scratch = legs
        .dir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("bc-chaos-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    println!(
        "chaos: seed {seed}, {} trees, scratch {}",
        trees * 4,
        scratch.display()
    );

    campaign_kill_leg(&scratch, seed, trees, legs.max_kills);
    disk_fault_leg(&scratch, seed, trees);
    if legs.skip_serve {
        println!("chaos: serve leg skipped (--skip-serve)");
    } else {
        serve_kill_leg(&scratch, seed);
    }
    println!("chaos: all legs passed");
}
