//! In-process end-to-end tests for the `bc-serve` server: scripted
//! sessions through [`Server::handle_line`], golden-stream regression,
//! bit-stability across runs and worker-thread counts, pause/resume and
//! snapshot/restore equivalence, and error-path isolation.
//!
//! The scripted sessions in `tests/fixtures/smoke_session.jsonl` and
//! `tests/fixtures/traced_session.jsonl` are the same ones CI pipes
//! through the release binary; the expected byte streams live in
//! `tests/golden/*.golden.jsonl` and are re-blessed with
//! `BLESS=1 cargo test -p bc-serve golden`.

use bc_serve::Server;
use serde::Value;
use std::sync::Mutex;

/// Tests that set the process-wide rayon worker override must not run
/// concurrently within this binary (the vendored shim's `build_global`
/// is a settable global).
static POOL: Mutex<()> = Mutex::new(());

const SMOKE_SCRIPT: &str = include_str!("fixtures/smoke_session.jsonl");

/// Every session traced: IC with an outage and a crash under a name that
/// needs JSON escapes, non-IC, and `defer`/`drop` arrival sessions, each
/// walked through step → pause → resume → snapshot → run-until → run (or
/// `run-all`) → close, plus one session closed while still live.
const TRACED_SCRIPT: &str = include_str!("fixtures/traced_session.jsonl");

/// Feeds a script line-by-line through a fresh server, returning every
/// response line in order.
fn run_script(script: &str) -> Vec<String> {
    let mut server = Server::new();
    let mut out = Vec::new();
    for line in script.lines() {
        out.extend(server.handle_line(line));
        if server.is_shutdown() {
            break;
        }
    }
    out
}

fn set_threads(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap();
}

/// Parses a response line and strips the session name, so results from
/// differently-named sessions can be compared field-for-field.
fn parsed_sans_sim(line: &str) -> Value {
    let v: Value = serde_json::from_str(line).expect("server emitted invalid JSON");
    let Value::Object(fields) = v else {
        panic!("server line is not an object: {line}")
    };
    Value::Object(fields.into_iter().filter(|(k, _)| k != "sim").collect())
}

fn ev_of(line: &str) -> String {
    let v: Value = serde_json::from_str(line).expect("invalid JSON");
    match v.get("ev") {
        Some(Value::Str(s)) => s.clone(),
        _ => panic!("line has no ev: {line}"),
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    let v: Value = serde_json::from_str(line).expect("invalid JSON");
    match v.get(key) {
        Some(Value::Int(n)) => *n as u64,
        other => panic!("field {key}: {other:?} in {line}"),
    }
}

fn field_str(line: &str, key: &str) -> String {
    let v: Value = serde_json::from_str(line).expect("invalid JSON");
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("field {key}: {other:?} in {line}"),
    }
}

// ---------------------------------------------------------------------
// Golden stream + determinism
// ---------------------------------------------------------------------

/// Runs `script` at two worker threads and compares the stream with
/// `tests/golden/<golden>` byte for byte. `BLESS=1` rewrites the golden
/// after an intentional protocol change.
fn check_golden(script: &str, golden: &str) {
    let _guard = POOL.lock().unwrap();
    set_threads(2);
    let got = run_script(script).join("\n") + "\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden missing; run with BLESS=1");
    assert_eq!(
        got,
        want,
        "stream diverged from {}; re-bless only if intentional",
        path.display()
    );
}

/// The scripted smoke session reproduces the committed golden stream
/// byte-for-byte.
#[test]
fn golden_smoke_stream() {
    check_golden(SMOKE_SCRIPT, "smoke_session.golden.jsonl");
}

/// The traced script reproduces its committed golden stream
/// byte-for-byte: every `trace` line (all arrival kinds, the outage and
/// crash kinds, escaped session names) and its position among the
/// `paused`/`snapshot`/`ran`/`done`/`closed` lines.
#[test]
fn golden_traced_stream() {
    check_golden(TRACED_SCRIPT, "traced_session.golden.jsonl");
}

/// The same script yields the same bytes on every run and for every
/// worker-thread count — `run-all` parallelism is invisible on the wire.
#[test]
fn smoke_stream_is_bit_stable_across_runs_and_threads() {
    let _guard = POOL.lock().unwrap();
    set_threads(1);
    let baseline = run_script(SMOKE_SCRIPT);
    assert!(
        baseline.iter().any(|l| ev_of(l) == "done"),
        "script should finish sims"
    );
    set_threads(1);
    assert_eq!(run_script(SMOKE_SCRIPT), baseline, "repeat run diverged");
    for threads in [2usize, 4, 7] {
        set_threads(threads);
        assert_eq!(
            rayon::current_num_threads(),
            threads,
            "thread override not applied"
        );
        assert_eq!(
            run_script(SMOKE_SCRIPT),
            baseline,
            "{threads}-thread run diverged from 1-thread baseline"
        );
    }
}

// ---------------------------------------------------------------------
// Pause / resume and snapshot / restore
// ---------------------------------------------------------------------

const OPEN_WORLD_SPEC: &str = r#"{"cmd":"open","sim":"NAME","tree":{"root_compute":3,"nodes":[[0,2,3],[0,1,4],[1,2,2],[2,1,3]]},"protocol":"ic","buffers":2,"arrivals":{"seed":23,"queue_cap":3,"policy":"defer","classes":[{"name":"tick","units":1,"poisson":{"mean_gap":2,"count":25}},{"name":"surge","units":2,"burst":{"phase":7,"period":15,"size":5,"bursts":3}}]},"trace":TRACE}"#;

fn open_line(name: &str, trace: bool) -> String {
    OPEN_WORLD_SPEC
        .replace("NAME", name)
        .replace("TRACE", if trace { "true" } else { "false" })
}

fn cmd(server: &mut Server, line: &str) -> Vec<String> {
    server.handle_line(line)
}

/// A run interrupted by pause/resume (live state dropped, rebuilt from
/// the snapshot) produces the same trace stream and the same `done`
/// line as the uninterrupted run.
#[test]
fn pause_resume_mid_stream_matches_uninterrupted() {
    let mut plain = Server::new();
    let mut straight = cmd(&mut plain, &open_line("p", true));
    straight.extend(cmd(&mut plain, r#"{"cmd":"run","sim":"p"}"#));

    let mut interrupted = Server::new();
    let mut chopped = cmd(&mut interrupted, &open_line("q", true));
    chopped.extend(cmd(
        &mut interrupted,
        r#"{"cmd":"step","sim":"q","events":25}"#,
    ));
    chopped.extend(cmd(&mut interrupted, r#"{"cmd":"pause","sim":"q"}"#));
    chopped.extend(cmd(&mut interrupted, r#"{"cmd":"resume","sim":"q"}"#));
    chopped.extend(cmd(&mut interrupted, r#"{"cmd":"run","sim":"q"}"#));
    let traces = |lines: &[String]| -> Vec<Value> {
        lines
            .iter()
            .filter(|l| ev_of(l) == "trace")
            .map(|l| parsed_sans_sim(l))
            .collect()
    };
    assert_eq!(
        traces(&straight),
        traces(&chopped),
        "trace stream changed across pause/resume"
    );

    let done = |lines: &[String]| -> Value {
        parsed_sans_sim(lines.iter().find(|l| ev_of(l) == "done").expect("no done"))
    };
    assert_eq!(
        done(&straight),
        done(&chopped),
        "final results changed across pause/resume"
    );
}

/// Snapshot bytes exported from one server rebuild the identical
/// continuation in a different server (untraced restore), including the
/// open-world admission queue.
#[test]
fn snapshot_restore_round_trips_across_servers() {
    let mut origin = Server::new();
    cmd(&mut origin, &open_line("src", false));
    cmd(&mut origin, r#"{"cmd":"step","sim":"src","events":40}"#);
    let snap_lines = cmd(&mut origin, r#"{"cmd":"snapshot","sim":"src"}"#);
    let snap = snap_lines
        .iter()
        .find(|l| ev_of(l) == "snapshot")
        .expect("no snapshot line");
    let hex = field_str(snap, "bytes");
    assert_eq!(field_u64(snap, "len") as usize * 2, hex.len());

    let src_done = cmd(&mut origin, r#"{"cmd":"run","sim":"src"}"#)
        .into_iter()
        .find(|l| ev_of(l) == "done")
        .expect("src never finished");

    let mut replica = Server::new();
    let restored = cmd(
        &mut replica,
        &format!(r#"{{"cmd":"restore","sim":"copy","bytes":"{hex}"}}"#),
    );
    assert_eq!(
        ev_of(&restored[0]),
        "restored",
        "restore failed: {restored:?}"
    );
    assert_eq!(field_u64(&restored[0], "events"), 40);
    let copy_done = cmd(&mut replica, r#"{"cmd":"run","sim":"copy"}"#)
        .into_iter()
        .find(|l| ev_of(l) == "done")
        .expect("copy never finished");

    assert_eq!(
        parsed_sans_sim(&src_done),
        parsed_sans_sim(&copy_done),
        "restored continuation diverged from the original run"
    );
}

/// `run-until` in slices reaches the same final result as a single
/// uninterrupted `run`.
#[test]
fn run_until_slices_match_single_run() {
    let mut sliced = Server::new();
    cmd(&mut sliced, &open_line("s", false));
    let mut done_line = None;
    for t in [10u64, 25, 60, 100_000] {
        for l in cmd(
            &mut sliced,
            &format!(r#"{{"cmd":"run-until","sim":"s","time":{t}}}"#),
        ) {
            if ev_of(&l) == "done" {
                done_line = Some(l);
            }
        }
        if done_line.is_some() {
            break;
        }
    }
    let sliced_done = done_line.expect("sliced run never finished");

    let mut whole = Server::new();
    cmd(&mut whole, &open_line("w", false));
    let whole_done = cmd(&mut whole, r#"{"cmd":"run","sim":"w"}"#)
        .into_iter()
        .find(|l| ev_of(l) == "done")
        .expect("whole run never finished");

    assert_eq!(parsed_sans_sim(&sliced_done), parsed_sans_sim(&whole_done));
}

/// Streaming per-event trace lines does not perturb results: the traced
/// and untraced `done` lines are identical, and only the traced session
/// emits `trace` events.
#[test]
fn trace_flag_does_not_change_results() {
    let run = |trace: bool| -> Vec<String> {
        let mut server = Server::new();
        cmd(&mut server, &open_line("x", trace));
        cmd(&mut server, r#"{"cmd":"run","sim":"x"}"#)
    };
    let traced = run(true);
    let untraced = run(false);
    assert!(traced.iter().filter(|l| ev_of(l) == "trace").count() > 0);
    assert_eq!(untraced.iter().filter(|l| ev_of(l) == "trace").count(), 0);
    let done = |lines: &[String]| -> Value {
        parsed_sans_sim(lines.iter().find(|l| ev_of(l) == "done").expect("no done"))
    };
    assert_eq!(done(&traced), done(&untraced));
}

// ---------------------------------------------------------------------
// Open-world accounting on the wire
// ---------------------------------------------------------------------

/// A drop-policy session with an undersized admission queue reports
/// rejections in its `done` line, and per-class throughput covers every
/// configured class.
#[test]
fn drop_policy_rejections_are_reported() {
    let mut server = Server::new();
    let open = r#"{"cmd":"open","sim":"d","tree":{"root_compute":2,"nodes":[[0,1,2]]},"protocol":"ic","buffers":2,"arrivals":{"seed":5,"queue_cap":2,"policy":"drop","classes":[{"name":"flood","units":1,"burst":{"phase":0,"period":10,"size":8,"bursts":3}}]}}"#;
    let opened = cmd(&mut server, open);
    assert_eq!(ev_of(&opened[0]), "opened", "{opened:?}");
    let done = cmd(&mut server, r#"{"cmd":"run","sim":"d"}"#)
        .into_iter()
        .find(|l| ev_of(l) == "done")
        .expect("no done");
    let v: Value = serde_json::from_str(&done).unwrap();
    let arrivals = v.get("arrivals").expect("no arrivals block");
    let rejected = match arrivals.get("rejected") {
        Some(Value::Int(n)) => *n,
        other => panic!("rejected: {other:?}"),
    };
    assert!(rejected > 0, "undersized drop queue never rejected: {done}");
    let Some(Value::Array(tp)) = v.get("throughput") else {
        panic!("no throughput array: {done}")
    };
    assert_eq!(tp.len(), 1);
    assert_eq!(tp[0].get("class"), Some(&Value::Str("flood".into())));
}

// ---------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------

/// Malformed or misdirected requests each produce exactly one `error`
/// line and leave existing sessions untouched.
#[test]
fn errors_are_isolated_and_sessions_survive() {
    let mut server = Server::new();
    cmd(&mut server, &open_line("keep", false));

    let bad = [
        "{not json",
        r#"{"sim":"keep"}"#,
        r#"{"cmd":"warp","sim":"keep"}"#,
        r#"{"cmd":"step","sim":"ghost"}"#,
        r#"{"cmd":"resume","sim":"keep"}"#,
        r#"{"cmd":"restore","sim":"keep2","bytes":"zz"}"#,
        r#"{"cmd":"restore","sim":"keep3","bytes":"00ff"}"#,
        r#"{"cmd":"open","sim":"keep","tree":{"root_compute":1,"nodes":[]},"tasks":1}"#,
        r#"{"cmd":"open","sim":"nw","tree":{"root_compute":1,"nodes":[]}}"#,
        r#"{"cmd":"open","sim":"bt","tree":{"root_compute":1,"nodes":[[5,1,1]]},"tasks":3}"#,
    ];
    for line in bad {
        let out = cmd(&mut server, line);
        assert_eq!(out.len(), 1, "expected one line for {line}: {out:?}");
        assert_eq!(
            ev_of(&out[0]),
            "error",
            "expected error for {line}: {out:?}"
        );
    }
    // Blank lines are ignored outright.
    assert!(cmd(&mut server, "   ").is_empty());

    // The original session is still live and runs to completion.
    let done = cmd(&mut server, r#"{"cmd":"run","sim":"keep"}"#)
        .into_iter()
        .find(|l| ev_of(l) == "done");
    assert!(done.is_some(), "surviving session failed to run");

    // Post-completion stepping is rejected but the result stays queryable.
    let out = cmd(&mut server, r#"{"cmd":"step","sim":"keep"}"#);
    assert_eq!(ev_of(&out[0]), "error");
    let metrics = cmd(&mut server, r#"{"cmd":"metrics","sim":"keep"}"#);
    assert_eq!(ev_of(&metrics[0]), "metrics");
    assert_eq!(field_str(&metrics[0], "state"), "done");
}

/// Opens whose tree or fault plan names no platform the engine can run:
/// five bad `tree.random` configs, a zero root weight, a zero link
/// weight, a parent that follows its child, and a fault on a node the
/// tree lacks. Each gets exactly one `error` line and no panic (a panic
/// in `handle_line` ends the process and every session in it), and a
/// session already open steps on exactly as on a server that never saw
/// them.
#[test]
fn malformed_opens_get_one_error_line_each() {
    let bad = [
        r#"{"cmd":"open","sim":"bad","tree":{"random":{"seed":7,"min_nodes":0,"max_nodes":9,"comm_min":1,"comm_max":4,"compute_scale":3}},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"random":{"seed":7,"min_nodes":10,"max_nodes":9,"comm_min":1,"comm_max":4,"compute_scale":3}},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"random":{"seed":7,"min_nodes":5,"max_nodes":9,"comm_min":0,"comm_max":4,"compute_scale":3}},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"random":{"seed":7,"min_nodes":5,"max_nodes":9,"comm_min":5,"comm_max":4,"compute_scale":3}},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"random":{"seed":7,"min_nodes":5,"max_nodes":9,"comm_min":1,"comm_max":4,"compute_scale":0}},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"root_compute":0,"nodes":[[0,1,1]]},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"root_compute":2,"nodes":[[0,0,1]]},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"root_compute":2,"nodes":[[0,1,1],[2,1,1]]},"tasks":5}"#,
        r#"{"cmd":"open","sim":"bad","tree":{"root_compute":2,"nodes":[[0,1,1]]},"tasks":5,"faults":[{"kind":"crash","at":3,"node":4}]}"#,
    ];
    let step = r#"{"cmd":"step","sim":"keep","events":40}"#;
    let mut reference = Server::new();
    let mut server = Server::new();
    assert_eq!(
        cmd(&mut server, &open_line("keep", true)),
        cmd(&mut reference, &open_line("keep", true))
    );
    assert_eq!(cmd(&mut server, step), cmd(&mut reference, step));
    for line in bad {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cmd(&mut server, line)))
            .unwrap_or_else(|_| panic!("handle_line panicked on {line}"));
        assert_eq!(out.len(), 1, "expected one line for {line}: {out:?}");
        assert_eq!(
            ev_of(&out[0]),
            "error",
            "expected error for {line}: {out:?}"
        );
    }
    for line in [step, r#"{"cmd":"status"}"#, r#"{"cmd":"run","sim":"keep"}"#] {
        assert_eq!(cmd(&mut server, line), cmd(&mut reference, line), "{line}");
    }
}

// ---------------------------------------------------------------------
// Crash recovery and hardening
// ---------------------------------------------------------------------

/// The kill/recover satellite: journal a traced session mid-run, drop
/// the server (the crash), recover the journal into a fresh server, and
/// pin that the full output stream — pre-kill lines from the first
/// server plus post-recover lines from the second — is **byte-for-byte**
/// identical to the uninterrupted run on one server. Trace records,
/// metric cadence, arrival classes, and the final `done` accounting all
/// have to survive the journal round-trip for this to hold.
#[test]
fn journal_recover_stream_matches_uninterrupted_byte_for_byte() {
    let mut golden_srv = Server::new();
    let mut golden = cmd(&mut golden_srv, &open_line("j", true));
    golden.extend(cmd(
        &mut golden_srv,
        r#"{"cmd":"step","sim":"j","events":30}"#,
    ));
    golden.extend(cmd(&mut golden_srv, r#"{"cmd":"run","sim":"j"}"#));
    assert!(golden.iter().any(|l| ev_of(l) == "done"));

    let mut first = Server::new();
    let mut stream = cmd(&mut first, &open_line("j", true));
    stream.extend(cmd(&mut first, r#"{"cmd":"step","sim":"j","events":30}"#));
    let journal = first.journal_bytes();
    drop(first); // the crash: all live state gone

    let mut second = Server::new();
    let report = second.recover_from_bytes(&journal).expect("recover failed");
    assert_eq!(report.recovered, vec!["j".to_string()]);
    assert!(report.skipped.is_empty());
    stream.extend(cmd(&mut second, r#"{"cmd":"run","sim":"j"}"#));

    assert_eq!(
        stream.join("\n"),
        golden.join("\n"),
        "recovered stream diverged from the uninterrupted run"
    );
}

/// Journaling captures live *and* paused sessions (a paused session
/// comes back paused and resumable) but deliberately drops `done` ones.
#[test]
fn journal_covers_paused_sessions_and_skips_done() {
    let mut server = Server::new();
    cmd(&mut server, &open_line("live", false));
    cmd(&mut server, &open_line("paused", false));
    cmd(&mut server, r#"{"cmd":"step","sim":"paused","events":10}"#);
    cmd(&mut server, r#"{"cmd":"pause","sim":"paused"}"#);
    cmd(&mut server, &open_line("finished", false));
    cmd(&mut server, r#"{"cmd":"run","sim":"finished"}"#);
    let journal = server.journal_bytes();
    drop(server);

    let mut recovered = Server::new();
    let report = recovered.recover_from_bytes(&journal).unwrap();
    assert_eq!(
        report.recovered,
        vec!["live".to_string(), "paused".to_string()]
    );
    let metrics = cmd(&mut recovered, r#"{"cmd":"metrics","sim":"paused"}"#);
    assert_eq!(field_str(&metrics[0], "state"), "paused");
    let resumed = cmd(&mut recovered, r#"{"cmd":"resume","sim":"paused"}"#);
    assert_eq!(ev_of(&resumed[0]), "resumed");
    let gone = cmd(&mut recovered, r#"{"cmd":"metrics","sim":"finished"}"#);
    assert_eq!(ev_of(&gone[0]), "error", "done session should not recover");
}

/// Truncated or bit-flipped journal payloads are rejected or partially
/// skipped — never a panic. (Checksummed integrity is the checkpoint
/// container's job; this pins that the inner decoder is still total.)
#[test]
fn mangled_journal_payloads_never_panic() {
    let mut server = Server::new();
    cmd(&mut server, &open_line("a", true));
    cmd(&mut server, &open_line("b", false));
    cmd(&mut server, r#"{"cmd":"step","sim":"a","events":20}"#);
    let journal = server.journal_bytes();

    for cut in 0..journal.len() {
        let _ = Server::new().recover_from_bytes(&journal[..cut]);
    }
    for at in (0..journal.len()).step_by(7) {
        for bit in [0, 3, 7] {
            let mut bad = journal.clone();
            bad[at] ^= 1 << bit;
            let _ = Server::new().recover_from_bytes(&bad);
        }
    }
}

/// Session admission is bounded: opens beyond the limit get a
/// structured `"session-limit"` error, closing frees a slot, and
/// recovery honours the same bound by skipping the overflow.
#[test]
fn session_limit_is_enforced_with_structured_rejection() {
    let mut server = Server::new();
    server.set_max_sessions(2);
    assert_eq!(
        ev_of(&cmd(&mut server, &open_line("a", false))[0]),
        "opened"
    );
    assert_eq!(
        ev_of(&cmd(&mut server, &open_line("b", false))[0]),
        "opened"
    );
    let rejected = cmd(&mut server, &open_line("c", false));
    assert_eq!(rejected.len(), 1);
    assert_eq!(ev_of(&rejected[0]), "error");
    assert_eq!(field_str(&rejected[0], "code"), "session-limit");
    cmd(&mut server, r#"{"cmd":"close","sim":"a"}"#);
    assert_eq!(
        ev_of(&cmd(&mut server, &open_line("c", false))[0]),
        "opened"
    );

    let journal = server.journal_bytes();
    let mut small = Server::new();
    small.set_max_sessions(1);
    let report = small.recover_from_bytes(&journal).unwrap();
    assert_eq!(report.recovered.len(), 1);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].1, "session limit reached");
}

/// Oversized request lines are rejected with a structured error and the
/// server keeps serving normal lines afterwards.
#[test]
fn oversized_lines_are_rejected_not_buffered() {
    let mut server = Server::new();
    let giant = "x".repeat(bc_serve::MAX_LINE_LEN + 1);
    let out = server.handle_line(&giant);
    assert_eq!(out.len(), 1);
    assert_eq!(ev_of(&out[0]), "error");
    assert_eq!(field_str(&out[0], "code"), "line-too-long");
    // The binary's bounded reader emits this variant for lines it
    // discarded without accumulating; same shape, same code.
    assert_eq!(
        field_str(&bc_serve::oversized_line_error(), "code"),
        "line-too-long"
    );
    assert_eq!(
        ev_of(&cmd(&mut server, &open_line("ok", false))[0]),
        "opened"
    );
}

/// A panic inside one session's operation quarantines that session
/// (structured `"poisoned"` error, state visible in `metrics`) and
/// leaves the server and every other session fully operational.
#[test]
fn panicking_session_is_quarantined_not_fatal() {
    let mut server = Server::new();
    cmd(&mut server, &open_line("sick", true));
    cmd(&mut server, &open_line("healthy", false));

    let out = server.inject_panic("sick");
    assert_eq!(out.len(), 1);
    assert_eq!(ev_of(&out[0]), "error");
    assert_eq!(field_str(&out[0], "code"), "poisoned");

    let step = cmd(&mut server, r#"{"cmd":"step","sim":"sick"}"#);
    assert_eq!(ev_of(&step[0]), "error");
    let metrics = cmd(&mut server, r#"{"cmd":"metrics","sim":"sick"}"#);
    assert_eq!(field_str(&metrics[0], "state"), "poisoned");
    assert_eq!(field_str(&metrics[0], "msg"), "injected fault");

    // The quarantined session is not journaled back to life.
    let journal = server.journal_bytes();
    let mut recovered = Server::new();
    let report = recovered.recover_from_bytes(&journal).unwrap();
    assert_eq!(report.recovered, vec!["healthy".to_string()]);

    // The healthy session and the server itself are unharmed.
    let done = cmd(&mut server, r#"{"cmd":"run","sim":"healthy"}"#)
        .into_iter()
        .find(|l| ev_of(l) == "done");
    assert!(done.is_some(), "healthy session failed after quarantine");
    assert_eq!(
        ev_of(&cmd(&mut server, r#"{"cmd":"close","sim":"sick"}"#)[0]),
        "closed"
    );
}

/// The workspace pool recycles: closing and reopening sessions reuses
/// released workspaces instead of allocating fresh ones.
#[test]
fn workspace_pool_recycles_across_sessions() {
    let mut server = Server::new();
    let spec = |name: &str| {
        format!(
            r#"{{"cmd":"open","sim":"{name}","tree":{{"root_compute":2,"nodes":[[0,1,2]]}},"tasks":6}}"#
        )
    };
    for round in 0..3 {
        let name = format!("r{round}");
        cmd(&mut server, &spec(&name));
        cmd(&mut server, &format!(r#"{{"cmd":"run","sim":"{name}"}}"#));
        cmd(&mut server, &format!(r#"{{"cmd":"close","sim":"{name}"}}"#));
    }
    let status = cmd(&mut server, r#"{"cmd":"status"}"#);
    let v: Value = serde_json::from_str(&status[0]).unwrap();
    let pool = v.get("pool").expect("no pool block");
    let get = |k: &str| match pool.get(k) {
        Some(Value::Int(n)) => *n,
        other => panic!("pool.{k}: {other:?}"),
    };
    assert_eq!(get("created"), 1, "every round should reuse one workspace");
    assert_eq!(get("reused"), 2);
    assert_eq!(get("idle"), 1);
}
