//! `serve_sessions`: `bc-serve` session lifecycles, closed loop, one
//! client driving an in-process `Server` through `handle_line`.
//!
//! The traffic scales up the committed smoke fixture
//! (`crates/serve/tests/fixtures/smoke_session.jsonl`): each session
//! opens one of its three shapes — arrivals (Poisson + burst, `defer`,
//! `metrics_every`), a non-IC batch, or IC with an outage fault and
//! `trace: true` — on a paper-shape random tree, then walks open → step
//! → run-until → pause → resume → snapshot → restore under a new name →
//! metrics → run → run the restored copy → close both. A standing window
//! of long-running sessions is stepped between lifecycles, and `status`
//! is sent every few sessions. `run-all` is never sent, so the workload
//! stays single-threaded.
//!
//! The client sends only verbs that are legal in each session's state
//! as the responses report it (a session that finishes early skips
//! straight to `metrics` and `close`), so any `error` line is a real
//! failure. One operation is one foreground lifecycle; its latency is
//! the sum of its requests' round trips.

use crate::layers::{self, serve_span_name};
use crate::reference::Gauge;
use crate::report::Outcome;
use crate::stats::min_samples_for_tail;
use crate::trace::Tracer;
use crate::{check_fingerprint, emit_end_to_end, paired_loop, timed_loop, Fnv, Opts};
use bc_engine::SimSnapshot;
use bc_serve::proto::{from_hex, parse_request, to_hex};
use bc_serve::Server;
use bc_simcore::split_seed;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "serve_sessions";

/// Tail percentile reported as `latency_tail_us`.
pub const TAIL_PCT: f64 = 95.0;

/// Foreground sessions between `status` requests.
const STATUS_EVERY: usize = 8;

/// Span operation ids: foreground session `k` is `k`; standing-window
/// generation `g` is `WINDOW_OP | g`; the `status` after session `k` is
/// `STATUS_OP | k`.
const WINDOW_OP: u64 = 1 << 62;
const STATUS_OP: u64 = 1 << 61;

/// Session and window sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Largest tree of a session (foreground trees span 10..=this nodes;
    /// standing sessions use this size).
    pub max_nodes: usize,
    /// Events of a lifecycle's `step`.
    pub step_events: u64,
    /// Tasks of a batch session (the traced IC shape runs a tenth, which
    /// keeps its streamed trace to a few MB per session).
    pub tasks: u64,
    /// Standing sessions kept open across lifecycles.
    pub window: usize,
    /// Events each standing session is stepped by when opened (its
    /// standing position, part of set-up).
    pub window_warm_events: u64,
    /// Events a standing session is stepped by after every foreground
    /// lifecycle.
    pub window_step_events: u64,
    /// Foreground sessions the output-stream fingerprint covers.
    pub fingerprint_sessions: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        max_nodes: 200,
        step_events: 5_000,
        tasks: 3_000,
        window: 4,
        window_warm_events: 100_000,
        window_step_events: 20_000,
        fingerprint_sessions: 24,
        setup_reps: 5,
    };
}

/// SplitMix64 stream for the request generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Node count of foreground session `k`: a low-discrepancy walk over
/// `10..=max_nodes` starting at a seed-derived offset, so every run
/// sees nearly the same spread of sizes (snapshot size, and with it the
/// cost of `restore`, grows with the tree) while the trees themselves
/// differ by seed.
fn session_nodes(seed: u64, k: usize, max_nodes: usize) -> usize {
    let span = (max_nodes - 9) as f64;
    let offset = (split_seed(seed, u64::MAX) >> 11) as f64 / (1u64 << 53) as f64;
    let phase = (offset + k as f64 * 0.618_033_988_749_895).fract();
    10 + (phase * span) as usize
}

/// The `open` request of session `name` in fixture shape `shape`, on a
/// paper-shape random tree of exactly `nodes` nodes.
fn open_line(name: &str, shape: usize, nodes: usize, rng: &mut Rng, scale: &Scale) -> String {
    let tree = format!(
        "{{\"random\":{{\"seed\":{},\"min_nodes\":{nodes},\"max_nodes\":{nodes},\"comm_min\":1,\"comm_max\":100,\"compute_scale\":10000}}}}",
        rng.next() >> 1,
    );
    match shape {
        0 => format!(
            "{{\"cmd\":\"open\",\"sim\":\"{name}\",\"tree\":{tree},\"protocol\":\"ic\",\"buffers\":2,\
             \"arrivals\":{{\"seed\":{},\"queue_cap\":32,\"policy\":\"defer\",\"classes\":[\
             {{\"name\":\"small\",\"units\":1,\"poisson\":{{\"mean_gap\":{},\"count\":{}}}}},\
             {{\"name\":\"bulk\",\"units\":3,\"burst\":{{\"phase\":{},\"period\":{},\"size\":{},\"bursts\":4}}}}]}},\
             \"metrics_every\":1024}}",
            rng.next() >> 1,
            rng.range(20, 60),
            scale.tasks / 2,
            rng.range(100, 2_000),
            rng.range(5_000, 20_000),
            scale.tasks / 16,
        ),
        1 => format!(
            "{{\"cmd\":\"open\",\"sim\":\"{name}\",\"tree\":{tree},\"protocol\":\"nonic\",\"buffers\":1,\"tasks\":{}}}",
            scale.tasks
        ),
        _ => format!(
            "{{\"cmd\":\"open\",\"sim\":\"{name}\",\"tree\":{tree},\"protocol\":\"ic\",\"buffers\":2,\"tasks\":{},\
             \"faults\":[{{\"kind\":\"outage\",\"at\":{},\"node\":1,\"duration\":{}}}],\"trace\":true}}",
            scale.tasks / 10,
            rng.range(1_000, 20_000),
            rng.range(1_000, 10_000),
        ),
    }
}

fn cmd(verb: &str, name: &str) -> String {
    format!("{{\"cmd\":\"{verb}\",\"sim\":\"{name}\"}}")
}

/// The line whose event is `ev`, if the response has one.
fn find_ev<'a>(out: &'a [String], ev: &str) -> Option<&'a str> {
    let prefix = format!("{{\"ev\":\"{ev}\"");
    out.iter()
        .find(|l| l.starts_with(&prefix))
        .map(String::as_str)
}

/// The integer field `key` of a response line.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The string field `key` of a response line (no escapes inside).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[at..].find('"')?;
    Some(&line[at..at + len])
}

/// True when a `stepped`/`ran` line says the session is still live.
fn more(line: &str) -> bool {
    line.contains("\"more\":true")
}

/// The client: one server, the output-stream digest, and request
/// accounting.
struct Client<'t> {
    server: Server,
    stream: Fnv,
    errors: u64,
    last_status: Option<(u64, u64)>,
    tr: Option<&'t mut Tracer>,
    /// Snapshot hex strings that did not survive decode + re-encode.
    hex_mismatches: u64,
}

impl<'t> Client<'t> {
    fn new(tr: Option<&'t mut Tracer>) -> Self {
        Client {
            server: Server::new(),
            stream: Fnv::default(),
            errors: 0,
            last_status: None,
            tr,
            hex_mismatches: 0,
        }
    }

    /// Sends one request; returns the response lines and the round trip
    /// in seconds.
    fn send(&mut self, verb: &str, line: &str, op: u64) -> (Vec<String>, f64) {
        let (out, secs) = match self.tr.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let out = self.server.handle_line(line);
                (out, t0.elapsed().as_secs_f64())
            }
            Some(tr) => {
                let id = tr.begin("serve.parse", op);
                let parsed = parse_request(line).is_ok();
                tr.end(id, u8::from(parsed), line.len() as u64);
                let id = tr.begin(serve_span_name(verb), op);
                let t0 = Instant::now();
                let out = self.server.handle_line(line);
                let secs = t0.elapsed().as_secs_f64();
                tr.end(id, 0, 0);
                (out, secs)
            }
        };
        for l in &out {
            self.stream.write(l.as_bytes());
            self.stream.write(b"\n");
            if l.starts_with("{\"ev\":\"error\"") {
                self.errors += 1;
            }
        }
        if verb == "status" {
            if let Some(l) = find_ev(&out, "status") {
                self.last_status = int_field(l, "created").zip(int_field(l, "reused"));
            }
        }
        if verb == "snapshot" && self.tr.is_some() {
            if let Some(hex) = find_ev(&out, "snapshot").and_then(|l| str_field(l, "bytes")) {
                let hex = hex.to_string();
                self.recode_snapshot(&hex, op);
            }
        }
        (out, secs)
    }

    /// Times the snapshot codec layers on a session's snapshot: hex
    /// decode, `BCSS` decode, `BCSS` encode, hex encode — which must give
    /// back the server's hex exactly.
    fn recode_snapshot(&mut self, hex: &str, op: u64) {
        let tr = self.tr.as_deref_mut().expect("traced client");
        let id = tr.begin("serve.hex.decode", op);
        let bytes = from_hex(hex);
        tr.end(id, 0, hex.len() as u64);
        let Ok(bytes) = bytes else {
            self.hex_mismatches += 1;
            return;
        };
        let id = tr.begin("snapshot.decode", op);
        let snap = SimSnapshot::from_bytes(&bytes);
        tr.end(id, 0, bytes.len() as u64);
        let Ok(snap) = snap else {
            self.hex_mismatches += 1;
            return;
        };
        let id = tr.begin("snapshot.encode", op);
        let again = snap.to_bytes();
        tr.end(id, 0, again.len() as u64);
        let id = tr.begin("serve.hex.encode", op);
        let again = to_hex(&again);
        tr.end(id, 0, again.len() as u64);
        if again != hex {
            self.hex_mismatches += 1;
        }
    }

    fn begin_op(&mut self, name: &'static str, op: u64) -> Option<u32> {
        self.tr.as_deref_mut().map(|tr| tr.begin(name, op))
    }

    fn end_op(&mut self, id: Option<u32>) {
        if let (Some(tr), Some(id)) = (self.tr.as_deref_mut(), id) {
            tr.end(id, 0, 0);
        }
    }
}

/// A standing-window session (generation `g` is the `g`-th standing
/// session opened).
struct Standing {
    name: String,
    generation: u64,
}

/// The request generator and its session bookkeeping.
struct Traffic<'t> {
    client: Client<'t>,
    scale: Scale,
    seed: u64,
    window: Vec<Standing>,
    latencies: Vec<f64>,
    failed: u64,
    fingerprint: Option<String>,
    /// Window session replacements opened so far (names stay unique).
    replacements: u64,
}

impl<'t> Traffic<'t> {
    /// Set-up: a fresh server plus the standing window, each session
    /// opened and stepped to its standing position.
    fn setup(seed: u64, scale: Scale, tr: Option<&'t mut Tracer>) -> Self {
        let mut t = Traffic {
            client: Client::new(tr),
            scale,
            seed,
            window: Vec::new(),
            latencies: Vec::new(),
            failed: 0,
            fingerprint: None,
            replacements: 0,
        };
        for j in 0..scale.window {
            let name = format!("w{j}");
            t.open_standing(&name, j as u64);
            t.window.push(Standing {
                name,
                generation: j as u64,
            });
        }
        t
    }

    /// Opens a standing session (always the batch shape on the largest
    /// tree, so it lives for many window steps) and steps it to its
    /// standing position.
    fn open_standing(&mut self, name: &str, generation: u64) {
        let mut rng = Rng(split_seed(self.seed ^ 0x5741_4E44, generation));
        let mut scale = self.scale;
        scale.tasks *= 16;
        let line = open_line(name, 1, scale.max_nodes, &mut rng, &scale);
        let op = WINDOW_OP | generation;
        let span = self.client.begin_op("serve.window", op);
        self.client.send("open", &line, op);
        let step = format!(
            "{{\"cmd\":\"step\",\"sim\":\"{name}\",\"events\":{}}}",
            self.scale.window_warm_events
        );
        self.client.send("step", &step, op);
        self.client.end_op(span);
    }

    /// Steps standing session `j`; a finished one is queried, closed and
    /// replaced.
    fn step_window(&mut self, j: usize) {
        let name = self.window[j].name.clone();
        let op = WINDOW_OP | self.window[j].generation;
        let span = self.client.begin_op("serve.window", op);
        let step = format!(
            "{{\"cmd\":\"step\",\"sim\":\"{name}\",\"events\":{}}}",
            self.scale.window_step_events
        );
        let (out, _) = self.client.send("step", &step, op);
        let live = find_ev(&out, "stepped").is_some_and(more);
        if !live {
            self.client.send("metrics", &cmd("metrics", &name), op);
            self.client.send("close", &cmd("close", &name), op);
        }
        self.client.end_op(span);
        if !live {
            self.replacements += 1;
            let generation = self.scale.window as u64 + self.replacements;
            let name = format!("w{j}-{generation}");
            self.open_standing(&name, generation);
            self.window[j] = Standing { name, generation };
        }
    }

    /// One foreground session lifecycle; returns whether every response
    /// was the expected one.
    fn lifecycle(&mut self, k: usize) -> bool {
        let op = k as u64;
        let name = format!("s{k}");
        let copy = format!("s{k}-r");
        let mut rng = Rng(split_seed(self.seed, op));
        let nodes = session_nodes(self.seed, k, self.scale.max_nodes);
        let open = open_line(&name, k % 3, nodes, &mut rng, &self.scale);
        let until_delta = rng.range(1_000, 5_000);
        let span = self.client.begin_op("serve.session", op);
        let mut rt = 0.0;
        let mut ok = true;
        let mut send = |c: &mut Client, verb: &str, line: &str| {
            let (out, secs) = c.send(verb, line, op);
            rt += secs;
            out
        };

        ok &= find_ev(&send(&mut self.client, "open", &open), "opened").is_some();
        let step = format!(
            "{{\"cmd\":\"step\",\"sim\":\"{name}\",\"events\":{}}}",
            self.scale.step_events
        );
        let out = send(&mut self.client, "step", &step);
        let stepped = find_ev(&out, "stepped");
        ok &= stepped.is_some();
        let mut live = stepped.is_some_and(more);
        if live {
            let t = stepped.and_then(|l| int_field(l, "t")).unwrap_or(0);
            let line = format!(
                "{{\"cmd\":\"run-until\",\"sim\":\"{name}\",\"time\":{}}}",
                t + until_delta
            );
            let out = send(&mut self.client, "run_until", &line);
            let ran = find_ev(&out, "ran");
            ok &= ran.is_some();
            live = ran.is_some_and(more);
        }
        let mut restored = false;
        if live {
            ok &= find_ev(
                &send(&mut self.client, "pause", &cmd("pause", &name)),
                "paused",
            )
            .is_some();
            ok &= find_ev(
                &send(&mut self.client, "resume", &cmd("resume", &name)),
                "resumed",
            )
            .is_some();
            let out = send(&mut self.client, "snapshot", &cmd("snapshot", &name));
            match find_ev(&out, "snapshot").and_then(|l| str_field(l, "bytes")) {
                Some(hex) => {
                    let line =
                        format!("{{\"cmd\":\"restore\",\"sim\":\"{copy}\",\"bytes\":\"{hex}\"}}");
                    restored =
                        find_ev(&send(&mut self.client, "restore", &line), "restored").is_some();
                    ok &= restored;
                }
                None => ok = false,
            }
        }
        ok &= find_ev(
            &send(&mut self.client, "metrics", &cmd("metrics", &name)),
            "metrics",
        )
        .is_some();
        if live {
            let original = find_ev(&send(&mut self.client, "run", &cmd("run", &name)), "done")
                .map(str::to_string);
            ok &= original.is_some();
            if restored {
                let out = send(&mut self.client, "run", &cmd("run", &copy));
                // The restored copy must finish exactly as the original.
                let same = match (find_ev(&out, "done"), &original) {
                    (Some(c), Some(o)) => {
                        c.replacen(
                            &format!("\"sim\":\"{copy}\""),
                            &format!("\"sim\":\"{name}\""),
                            1,
                        ) == *o
                    }
                    _ => false,
                };
                ok &= same;
            }
        }
        ok &= find_ev(
            &send(&mut self.client, "close", &cmd("close", &name)),
            "closed",
        )
        .is_some();
        if restored {
            ok &= find_ev(
                &send(&mut self.client, "close", &cmd("close", &copy)),
                "closed",
            )
            .is_some();
        }
        self.client.end_op(span);
        self.latencies.push(rt);
        ok
    }

    /// Operation `k`: a lifecycle, then one standing-window step, plus a
    /// `status` every few sessions. It fails on an unexpected response or
    /// any `error` line.
    fn op(&mut self, k: usize) {
        let errors_before = self.client.errors;
        let ok = self.lifecycle(k);
        if !self.window.is_empty() {
            let j = k % self.window.len();
            self.step_window(j);
        }
        if (k + 1).is_multiple_of(STATUS_EVERY) {
            self.client
                .send("status", "{\"cmd\":\"status\"}", STATUS_OP | k as u64);
        }
        if !ok || self.client.errors != errors_before {
            self.failed += 1;
        }
        if k + 1 == self.scale.fingerprint_sessions {
            self.fingerprint = Some(self.client.stream.hex());
        }
    }

    fn reuse_ratio(&self) -> f64 {
        match self.client.last_status {
            Some((created, reused)) if created + reused > 0 => {
                reused as f64 / (created + reused) as f64
            }
            _ => 0.0,
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, scale: Scale) -> Outcome {
    let mut o = Outcome::default();
    o.note("loop", "closed, 1 client, in-process Server::handle_line");
    o.note("standing_window", scale.window);
    let min_ops = min_samples_for_tail(TAIL_PCT).max(scale.fingerprint_sessions);

    if !opts.trace {
        let mut gauge = Gauge::default();
        let mut traffic = None;
        for _ in 0..scale.setup_reps.max(1) {
            drop(traffic.take());
            traffic = Some(gauge.setup(|| Traffic::setup(opts.seed, scale, None)));
        }
        let mut t = traffic.expect("at least one set-up");
        let stats = timed_loop(opts, min_ops, &mut gauge, |k| t.op(k));
        o.attempted = stats.ops as u64;
        o.failed = t.failed;
        emit_end_to_end(&mut o, &stats, 1.0, &t.latencies, TAIL_PCT, &gauge);
        o.note("stream_fnv_all", t.client.stream.hex());
        o.check(
            "no_error_lines",
            t.client.errors == 0,
            format!("{} error lines", t.client.errors),
        );
        let fp = t
            .fingerprint
            .clone()
            .expect("loop covers the fingerprint prefix");
        check_fingerprint(&mut o, NAME, opts.seed, &fp);
        return o;
    }

    // Traced run: the same traffic on two servers, one untraced and one
    // traced, operation by operation (no tail percentile here: the loop
    // only needs the fingerprinted prefix).
    let mut plain = Traffic::setup(opts.seed, scale, None);
    let mut tr = Tracer::new(Instant::now());
    let (paired, failed, errors, fp, reuse, hex_bad) = {
        let mut traced = Traffic::setup(opts.seed, scale, Some(&mut tr));
        let paired = paired_loop(opts, scale.fingerprint_sessions, |k, with_spans| {
            if with_spans {
                traced.op(k);
            } else {
                plain.op(k);
            }
        });
        (
            paired,
            traced.failed,
            traced.client.errors,
            traced.fingerprint.clone(),
            traced.reuse_ratio(),
            traced.client.hex_mismatches,
        )
    };
    paired.note(&mut o);
    o.attempted = 2 * paired.ops as u64;
    o.failed = plain.failed + failed + hex_bad;
    o.check(
        "traced_matches_untraced",
        fp.is_some() && fp == plain.fingerprint,
        format!(
            "stream prefix digest traced {fp:?}, untraced {:?}",
            plain.fingerprint
        ),
    );
    o.check(
        "no_error_lines",
        plain.client.errors + errors == 0,
        format!("{} error lines", plain.client.errors + errors),
    );
    o.check(
        "snapshot_recode_exact",
        hex_bad == 0,
        format!("{hex_bad} snapshots changed under hex/BCSS decode + encode"),
    );
    check_fingerprint(&mut o, NAME, opts.seed, fp.as_deref().unwrap_or("missing"));
    layers::emit(
        &mut o,
        &tr,
        &layers::Extras {
            pool_reuse_ratio: reuse,
            serve_errors: plain.client.errors + errors,
            untraced_throughput: paired.untraced_per_s(),
            traced_throughput: paired.traced_per_s(),
            ..Default::default()
        },
    );
    layers::write_spans(&mut o, &tr, opts, NAME);
    o
}
