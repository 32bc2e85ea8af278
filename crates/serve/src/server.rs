//! The session engine behind `bc-serve`: a pure line-in/lines-out state
//! machine multiplexing any number of concurrent simulations over one
//! [`WorkspacePool`].
//!
//! [`Server::handle_line`] is deliberately free of I/O — the binary
//! feeds it stdin lines and prints what comes back, and the e2e tests
//! drive it in-process and compare byte-for-byte against golden
//! streams. Determinism contract: the output lines are a pure function
//! of the request lines, independent of worker-thread count (`run-all`
//! runs sessions in parallel but emits each session's chunk in
//! session-name order).

use crate::pool::WorkspacePool;
use crate::proto::{parse_request, summary_value, to_hex, OpenSpec, Request};
use bc_engine::durability::{take_bytes, take_u64_le};
use bc_engine::{
    RunResult, SimConfig, SimSnapshot, SimWorkspace, Simulation, TraceRecord, TraceSink,
};
use bc_metrics::{latency_profile, per_class_throughput, LatencyProfile};
use bc_simcore::{Time, TraceEvent};
use rayon::IntoParallelIterator;
use serde::{object, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------
// Trace streaming
// ---------------------------------------------------------------------

/// Records the session's simulation keeps until the session drains them
/// into `trace` lines, at the end of every request that steps it.
/// Sessions opened without `"trace":true` still carry one (so every
/// session has the same `Simulation` type and identical semantics) but
/// record nothing.
pub struct StreamSink {
    records: Vec<TraceRecord>,
    enabled: bool,
}

/// Most records [`StreamSink`] hands to a checked-mode failure dump.
const RETAINED_TAIL: usize = 256;

impl StreamSink {
    fn new(enabled: bool) -> Self {
        StreamSink {
            records: Vec::new(),
            enabled,
        }
    }
}

impl TraceSink for StreamSink {
    fn record(&mut self, time: Time, event: TraceEvent) {
        if self.enabled {
            self.records.push(TraceRecord { time, event });
        }
    }

    /// The newest undrained records (at most `RETAINED_TAIL`).
    fn retained(&self, out: &mut Vec<TraceRecord>) {
        let from = self.records.len().saturating_sub(RETAINED_TAIL);
        out.extend_from_slice(&self.records[from..]);
    }
}

/// Moves `records` into `trace` lines for session `name`, oldest first:
/// `{"ev":"trace","sim":<name>,"t":<time>,"text":"<text>"}`, where
/// `text` is [`TraceRecord::write_text`]. The escaped prefix is built
/// once per call; each line is then written in one pass (the text needs
/// no escaping) and allocated once, at its exact length.
fn drain_trace_lines(name: &str, records: &mut Vec<TraceRecord>, out: &mut Vec<String>) {
    if records.is_empty() {
        return;
    }
    let mut prefix = String::from("{\"ev\":\"trace\",\"sim\":");
    prefix.push_str(
        &serde_json::to_string(&Value::Str(name.into())).expect("serialization is infallible"),
    );
    prefix.push_str(",\"t\":");
    out.reserve(records.len());
    let mut line = String::with_capacity(prefix.len() + 128);
    for rec in records.drain(..) {
        line.clear();
        line.push_str(&prefix);
        write!(line, "{}", rec.time).expect("writing to a String cannot fail");
        line.push_str(",\"text\":\"");
        rec.write_text(&mut line);
        line.push_str("\"}");
        // One exact-size copy per line: lines wait in `out` until the
        // request returns, so slack capacity would be held per line.
        out.push(line.as_str().to_owned());
    }
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

enum State {
    /// Engine state in memory, ready to step.
    Live(Box<Simulation<StreamSink>>),
    /// Snapshot-backed: the engine state was captured and dropped.
    Paused(Box<SimSnapshot>),
    /// Finished; the result is kept for metrics queries.
    Done(Box<RunResult>),
    /// Quarantined after a panic inside a session operation; the string
    /// is the panic message. Every further operation except `close` and
    /// `metrics`/`status` is rejected.
    Poisoned(String),
    /// Transient placeholder while ownership moves (never observable).
    Moving,
}

struct Session {
    state: State,
    trace: bool,
    metrics_every: u64,
    next_metric: u64,
    /// Arrival class names, for per-class throughput in `done`/`metrics`.
    classes: Vec<String>,
}

impl Session {
    fn state_name(&self) -> &'static str {
        match self.state {
            State::Live(_) => "live",
            State::Paused(_) => "paused",
            State::Done(_) => "done",
            State::Poisoned(_) => "poisoned",
            State::Moving => unreachable!("transient state escaped"),
        }
    }

    /// Moves the live simulation's recorded trace into output lines.
    /// Every request that steps, starts or snapshots a live simulation
    /// calls this before it replaces the simulation or emits its own
    /// closing line.
    fn drain_trace(&mut self, name: &str, out: &mut Vec<String>) {
        if let State::Live(sim) = &mut self.state {
            drain_trace_lines(name, &mut sim.sink_mut().records, out);
        }
    }

    /// Emits `metric` lines for every `metrics_every` boundary the event
    /// counter has crossed.
    fn drain_metrics(&mut self, name: &str, out: &mut Vec<String>) {
        if self.metrics_every == 0 {
            return;
        }
        if let State::Live(sim) = &self.state {
            while sim.events_processed() >= self.next_metric {
                out.push(line(
                    "metric",
                    Some(name),
                    vec![
                        ("t", Value::Int(sim.now() as i128)),
                        ("events", Value::Int(sim.events_processed() as i128)),
                        ("completed", Value::Int(sim.completed() as i128)),
                    ],
                ));
                self.next_metric += self.metrics_every;
            }
        }
    }

    /// Finishes a `Live` session whose engine reported completion:
    /// builds the `RunResult`, emits the `done` line, and hands the
    /// workspace back for the pool.
    fn finalize(&mut self, name: &str, out: &mut Vec<String>) -> SimWorkspace {
        let State::Live(sim) = std::mem::replace(&mut self.state, State::Moving) else {
            unreachable!("finalize on a non-live session");
        };
        let (result, ws, mut sink) = sim.run_traced();
        drain_trace_lines(name, &mut sink.records, out);
        out.push(done_line(name, &result, &self.classes));
        self.state = State::Done(Box::new(result));
        ws
    }

    /// Steps up to `budget` events, streaming trace/metric lines.
    /// Returns the workspace of a run that finished.
    fn step_n(&mut self, name: &str, budget: u64, out: &mut Vec<String>) -> Option<SimWorkspace> {
        let mut finished = false;
        if let State::Live(sim) = &mut self.state {
            sim.start();
            finished = !(0..budget).all(|_| sim.step());
        }
        self.drain_trace(name, out);
        self.drain_metrics(name, out);
        out.push(line(
            "stepped",
            Some(name),
            with_more(self.progress(), !finished),
        ));
        finished.then(|| self.finalize(name, out))
    }

    /// Runs to completion, streaming metric lines at the configured
    /// cadence (and trace lines at the end of each stride).
    fn run_to_end(&mut self, name: &str, out: &mut Vec<String>) -> Option<SimWorkspace> {
        loop {
            let mut finished = false;
            if let State::Live(sim) = &mut self.state {
                sim.start();
                // Stride to the next metric boundary (or the end) so
                // untraced, unmetered runs stay a tight loop.
                if self.metrics_every == 0 {
                    while sim.step() {}
                    finished = true;
                } else {
                    let target = self.next_metric;
                    while sim.events_processed() < target {
                        if !sim.step() {
                            finished = true;
                            break;
                        }
                    }
                }
            } else {
                return None;
            }
            self.drain_trace(name, out);
            self.drain_metrics(name, out);
            if finished {
                return Some(self.finalize(name, out));
            }
        }
    }

    /// The session's `BCSS` bytes: a live run is captured without
    /// disturbing it, a paused one re-encodes its snapshot. `None` for a
    /// done or poisoned session, which holds no engine state.
    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        match &mut self.state {
            State::Live(sim) => {
                sim.start();
                Some(sim.snapshot().to_bytes())
            }
            State::Paused(snap) => Some(snap.to_bytes()),
            State::Done(_) | State::Poisoned(_) => None,
            State::Moving => unreachable!("transient state escaped"),
        }
    }

    /// Quarantines the session after a panic and returns the `poisoned`
    /// error line that replaces whatever the failed operation emitted.
    fn poison(&mut self, name: &str, payload: Box<dyn std::any::Any + Send>) -> String {
        self.state = State::Poisoned(panic_message(payload));
        err_line_code(
            Some(name),
            "poisoned",
            &format!("sim {name:?} panicked and was quarantined"),
        )
    }

    /// Progress fields of a live session.
    fn progress(&self) -> Vec<(&'static str, Value)> {
        match &self.state {
            State::Live(sim) => vec![
                ("t", Value::Int(sim.now() as i128)),
                ("events", Value::Int(sim.events_processed() as i128)),
                ("completed", Value::Int(sim.completed() as i128)),
            ],
            State::Done(r) => vec![
                ("t", Value::Int(r.end_time as i128)),
                ("events", Value::Int(r.events_processed as i128)),
                ("completed", Value::Int(r.completion_times.len() as i128)),
            ],
            State::Paused(s) => vec![("events", Value::Int(s.events_processed() as i128))],
            State::Poisoned(_) => vec![],
            State::Moving => unreachable!("transient state escaped"),
        }
    }
}

/// Best-effort text of a panic payload for the quarantine error line.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The arrival plan's class names, in plan order (none for a closed
/// batch), for per-class throughput in `done`/`metrics`.
fn class_names(cfg: &SimConfig) -> Vec<String> {
    cfg.arrivals
        .as_ref()
        .map(|p| p.classes.iter().map(|c| c.name.clone()).collect())
        .unwrap_or_default()
}

fn with_more(mut fields: Vec<(&'static str, Value)>, more: bool) -> Vec<(&'static str, Value)> {
    fields.push(("more", Value::Bool(more)));
    fields
}

// ---------------------------------------------------------------------
// Output lines
// ---------------------------------------------------------------------

fn line(ev: &str, sim: Option<&str>, fields: Vec<(&str, Value)>) -> String {
    let mut all = vec![("ev", Value::Str(ev.into()))];
    if let Some(s) = sim {
        all.push(("sim", Value::Str(s.into())));
    }
    all.extend(fields);
    serde_json::to_string(&object(all)).expect("serialization is infallible")
}

fn err_line(sim: Option<&str>, msg: &str) -> String {
    line("error", sim, vec![("msg", Value::Str(msg.into()))])
}

/// The structured error line the binary emits for an oversized stdin
/// line it refused to buffer (the true length is unknown there — the
/// line was discarded in bounded chunks, never accumulated).
pub fn oversized_line_error() -> String {
    err_line_code(
        None,
        "line-too-long",
        &format!(
            "request line exceeds the {}-byte bound",
            crate::proto::MAX_LINE_LEN
        ),
    )
}

/// An `error` line carrying a stable machine-readable `code` alongside
/// the human-readable message. Used for the hardening rejections
/// (`line-too-long`, `session-limit`, `poisoned`) that clients are
/// expected to branch on.
fn err_line_code(sim: Option<&str>, code: &str, msg: &str) -> String {
    line(
        "error",
        sim,
        vec![
            ("code", Value::Str(code.into())),
            ("msg", Value::Str(msg.into())),
        ],
    )
}

fn latency_value(p: &LatencyProfile) -> Value {
    object(vec![
        ("sojourn", summary_value(&p.sojourn)),
        ("queue_wait", summary_value(&p.queue_wait)),
        ("service", summary_value(&p.service)),
    ])
}

fn arrival_values(r: &RunResult, classes: &[String]) -> Vec<(&'static str, Value)> {
    let ar = &r.arrivals;
    let profile = latency_profile(&ar.admit_times, &ar.dispatch_times, &r.completion_times);
    let throughput = per_class_throughput(&ar.completed_per_class, r.end_time);
    vec![
        (
            "arrivals",
            object(vec![
                ("submitted", Value::Int(ar.submitted as i128)),
                ("admitted", Value::Int(ar.admitted as i128)),
                ("rejected", Value::Int(ar.rejected as i128)),
                ("deferrals", Value::Int(ar.deferrals as i128)),
                ("peak_deferred", Value::Int(ar.peak_deferred as i128)),
            ]),
        ),
        ("latency", latency_value(&profile)),
        (
            "throughput",
            Value::Array(
                classes
                    .iter()
                    .zip(ar.completed_per_class.iter().zip(&throughput))
                    .map(|(name, (&completed, rate))| {
                        object(vec![
                            ("class", Value::Str(name.clone())),
                            ("completed", Value::Int(completed as i128)),
                            ("rate", Value::Str(rate.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

fn done_line(name: &str, r: &RunResult, classes: &[String]) -> String {
    let mut fields = vec![
        ("end_time", Value::Int(r.end_time as i128)),
        ("completed", Value::Int(r.completion_times.len() as i128)),
        ("events", Value::Int(r.events_processed as i128)),
        ("preemptions", Value::Int(r.preemptions as i128)),
        ("transfers", Value::Int(r.transfers_started as i128)),
        ("requests", Value::Int(r.requests_sent as i128)),
        (
            "max_buffers",
            Value::Int(r.max_buffers_per_node.iter().copied().max().unwrap_or(0) as i128),
        ),
    ];
    if r.faults.faults_injected > 0 {
        let f = &r.faults;
        fields.push((
            "faults",
            object(vec![
                ("injected", Value::Int(f.faults_injected as i128)),
                ("tasks_lost", Value::Int(f.tasks_lost as i128)),
                ("reissued", Value::Int(f.tasks_reissued as i128)),
                ("retries", Value::Int(f.retries as i128)),
                ("crashes", Value::Int(f.crashes as i128)),
                ("aborts", Value::Int(f.transfer_aborts as i128)),
            ]),
        ));
    }
    if r.arrivals.submitted > 0 {
        fields.extend(arrival_values(r, classes));
    }
    line("done", Some(name), fields)
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// Default bound on concurrently open sessions; see
/// [`Server::set_max_sessions`].
pub const DEFAULT_MAX_SESSIONS: usize = 1024;

/// Version byte of the [`Server::journal_bytes`] payload.
const JOURNAL_VERSION: u8 = 1;

/// What [`Server::recover_from_bytes`] managed to bring back.
#[derive(Debug, Default)]
pub struct RecoverReport {
    /// Session names rehydrated, in journal order.
    pub recovered: Vec<String>,
    /// Sessions that could not be rehydrated, with the reason each was
    /// skipped.
    pub skipped: Vec<(String, String)>,
}

impl RecoverReport {
    fn skip(&mut self, name: String, why: &str) {
        self.skipped.push((name, why.to_string()));
    }
}

/// A multiplexing simulation server; see the module docs.
pub struct Server {
    sessions: BTreeMap<String, Session>,
    pool: WorkspacePool,
    shutdown: bool,
    max_sessions: usize,
}

impl Default for Server {
    fn default() -> Self {
        Self {
            sessions: BTreeMap::new(),
            pool: WorkspacePool::new(),
            shutdown: false,
            max_sessions: DEFAULT_MAX_SESSIONS,
        }
    }
}

impl Server {
    /// A server with no sessions and an empty workspace pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds concurrently open sessions: `open`/`restore` beyond the
    /// bound are rejected with a structured `"session-limit"` error
    /// instead of growing without limit. Zero is clamped to one.
    pub fn set_max_sessions(&mut self, n: usize) {
        self.max_sessions = n.max(1);
    }

    /// True when one more session may be admitted.
    fn admit(&self, name: &str, out: &mut Vec<String>) -> bool {
        if self.sessions.len() >= self.max_sessions {
            out.push(err_line_code(
                Some(name),
                "session-limit",
                &format!(
                    "session limit of {} reached; close a sim first",
                    self.max_sessions
                ),
            ));
            return false;
        }
        true
    }

    /// True once a `shutdown` request was handled; the driving loop
    /// should stop feeding lines.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Handles one request line, returning the response lines in order.
    /// Blank lines are ignored. Never panics on malformed input — bad
    /// requests produce one `error` line and change nothing. Lines over
    /// [`crate::proto::MAX_LINE_LEN`] bytes are rejected outright with a
    /// structured `"line-too-long"` error (the binary additionally caps
    /// its read buffer at the same bound, so an endless line cannot
    /// exhaust memory before it ever reaches this check).
    pub fn handle_line(&mut self, raw: &str) -> Vec<String> {
        if raw.len() > crate::proto::MAX_LINE_LEN {
            return vec![err_line_code(
                None,
                "line-too-long",
                &format!(
                    "request line of {} bytes exceeds the {}-byte bound",
                    raw.len(),
                    crate::proto::MAX_LINE_LEN
                ),
            )];
        }
        let raw = raw.trim();
        if raw.is_empty() {
            return Vec::new();
        }
        let req = match parse_request(raw) {
            Ok(r) => r,
            Err(msg) => return vec![err_line(None, &msg)],
        };
        let mut out = Vec::new();
        match req {
            Request::Open { sim, spec } => self.open(&sim, &spec, &mut out),
            Request::Step { sim, events } => {
                self.with_session(&sim, &mut out, |s, name, out| match s.state {
                    State::Live(_) => Ok(s.step_n(name, events, out)),
                    _ => Err(format!("sim {name:?} is {}, not live", s.state_name())),
                })
            }
            Request::Run { sim } => {
                self.with_session(&sim, &mut out, |s, name, out| match s.state {
                    State::Live(_) => Ok(s.run_to_end(name, out)),
                    _ => Err(format!("sim {name:?} is {}, not live", s.state_name())),
                })
            }
            Request::RunAll => self.run_all(&mut out),
            Request::RunUntil { sim, time } => self.with_session(&sim, &mut out, |s, name, out| {
                let State::Live(sim) = &mut s.state else {
                    return Err(format!("sim {name:?} is {}, not live", s.state_name()));
                };
                let more = sim.run_to_time(time);
                s.drain_trace(name, out);
                s.drain_metrics(name, out);
                let summary = s.progress();
                out.push(line("ran", Some(name), with_more(summary, more)));
                Ok(if more {
                    None
                } else {
                    Some(s.finalize(name, out))
                })
            }),
            Request::Pause { sim } => self.with_session(&sim, &mut out, |s, name, out| {
                let State::Live(sim) = &mut s.state else {
                    return Err(format!("sim {name:?} is {}, not live", s.state_name()));
                };
                sim.start();
                let snap = sim.snapshot();
                let fields = vec![
                    ("t", Value::Int(sim.now() as i128)),
                    ("events", Value::Int(sim.events_processed() as i128)),
                ];
                s.drain_trace(name, out);
                s.state = State::Paused(Box::new(snap));
                out.push(line("paused", Some(name), fields));
                Ok(None)
            }),
            Request::Resume { sim } => match self.sessions.get_mut(&sim) {
                None => out.push(err_line(Some(&sim), &format!("no sim {sim:?}"))),
                Some(s) => {
                    let State::Paused(snap) = &s.state else {
                        out.push(err_line(
                            Some(&sim),
                            &format!("sim {sim:?} is {}, not paused", s.state_name()),
                        ));
                        return out;
                    };
                    let sink = StreamSink::new(s.trace);
                    let live = Simulation::from_snapshot_traced(snap, self.pool.acquire(), sink);
                    let fields = vec![
                        ("t", Value::Int(live.now() as i128)),
                        ("events", Value::Int(live.events_processed() as i128)),
                    ];
                    s.state = State::Live(Box::new(live));
                    out.push(line("resumed", Some(&sim), fields));
                }
            },
            Request::Snapshot { sim } => self.with_session(&sim, &mut out, |s, name, out| {
                let Some(bytes) = s.snapshot_bytes() else {
                    return Err(format!(
                        "sim {name:?} is {}; nothing to snapshot",
                        s.state_name()
                    ));
                };
                s.drain_trace(name, out);
                out.push(line(
                    "snapshot",
                    Some(name),
                    vec![
                        ("len", Value::Int(bytes.len() as i128)),
                        ("bytes", Value::Str(to_hex(&bytes))),
                    ],
                ));
                Ok(None)
            }),
            Request::Restore { sim, bytes } => self.restore(&sim, &bytes, &mut out),
            Request::Metrics { sim } => self.with_session(&sim, &mut out, |s, name, out| {
                let mut fields = vec![("state", Value::Str(s.state_name().into()))];
                fields.extend(s.progress());
                if let State::Done(r) = &s.state {
                    if r.arrivals.submitted > 0 {
                        fields.extend(arrival_values(r, &s.classes));
                    }
                }
                if let State::Poisoned(why) = &s.state {
                    fields.push(("msg", Value::Str(why.clone())));
                }
                out.push(line("metrics", Some(name), fields));
                Ok(None)
            }),
            Request::Status => self.status(&mut out),
            Request::Close { sim } => {
                if self.sessions.remove(&sim).is_some() {
                    out.push(line("closed", Some(&sim), vec![]));
                } else {
                    out.push(err_line(Some(&sim), &format!("no sim {sim:?}")));
                }
            }
            Request::Shutdown => {
                self.shutdown = true;
                out.push(line(
                    "bye",
                    None,
                    vec![("sims", Value::Int(self.sessions.len() as i128))],
                ));
            }
        }
        out
    }

    /// Runs the session closure, routing a missing session or a closure
    /// error to an `error` line and releasing any returned workspace.
    ///
    /// The closure runs inside a `catch_unwind` fence: a panicking
    /// simulation poisons *its own session* (lines it emitted before the
    /// panic are discarded, one `error` line with code `"poisoned"` is
    /// emitted instead) and every other session — and the server itself
    /// — keeps running. The panicking session's workspace is lost to the
    /// pool; the pool simply allocates a fresh one later.
    fn with_session(
        &mut self,
        name: &str,
        out: &mut Vec<String>,
        f: impl FnOnce(&mut Session, &str, &mut Vec<String>) -> Result<Option<SimWorkspace>, String>,
    ) {
        match self.sessions.get_mut(name) {
            None => out.push(err_line(Some(name), &format!("no sim {name:?}"))),
            Some(s) => {
                let emitted = out.len();
                match catch_unwind(AssertUnwindSafe(|| f(s, name, out))) {
                    Ok(Ok(Some(ws))) => self.pool.release(ws),
                    Ok(Ok(None)) => {}
                    Ok(Err(msg)) => out.push(err_line(Some(name), &msg)),
                    Err(payload) => {
                        out.truncate(emitted);
                        out.push(s.poison(name, payload));
                    }
                }
            }
        }
    }

    /// Test-only hook: routes a panic through the same quarantine fence
    /// every session operation uses, so the `catch_unwind` path can be
    /// pinned by integration tests without crafting a genuinely
    /// panicking workload.
    #[doc(hidden)]
    pub fn inject_panic(&mut self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.with_session(name, &mut out, |_, _, _| panic!("injected fault"));
        out
    }

    fn open(&mut self, name: &str, spec: &OpenSpec, out: &mut Vec<String>) {
        if self.sessions.contains_key(name) {
            out.push(err_line(Some(name), &format!("sim {name:?} already open")));
            return;
        }
        if !self.admit(name, out) {
            return;
        }
        let tree = match spec.tree.build() {
            Ok(t) => t,
            Err(msg) => return out.push(err_line(Some(name), &msg)),
        };
        if let Err(msg) = spec.cfg.validate(&tree) {
            return out.push(err_line(Some(name), &msg));
        }
        let nodes = tree.len();
        let sink = StreamSink::new(spec.trace);
        let mut sim = Simulation::traced(tree, spec.cfg.clone(), self.pool.acquire(), sink);
        sim.start();
        let mut session = Session {
            state: State::Live(Box::new(sim)),
            trace: spec.trace,
            metrics_every: spec.metrics_every,
            next_metric: spec.metrics_every.max(1),
            classes: class_names(&spec.cfg),
        };
        out.push(line(
            "opened",
            Some(name),
            vec![
                ("nodes", Value::Int(nodes as i128)),
                ("tasks", Value::Int(spec.cfg.total_tasks as i128)),
                ("open_world", Value::Bool(spec.cfg.arrivals.is_some())),
            ],
        ));
        session.drain_trace(name, out);
        session.drain_metrics(name, out);
        self.sessions.insert(name.to_string(), session);
    }

    fn restore(&mut self, name: &str, bytes: &[u8], out: &mut Vec<String>) {
        if self.sessions.contains_key(name) {
            out.push(err_line(Some(name), &format!("sim {name:?} already open")));
            return;
        }
        if !self.admit(name, out) {
            return;
        }
        let snap = match SimSnapshot::from_bytes(bytes) {
            Ok(s) => s,
            Err(e) => return out.push(err_line(Some(name), &format!("bad snapshot: {e:?}"))),
        };
        // A restored session starts untraced and unmetered; its state
        // (and results) are exactly the captured run's continuation.
        let sink = StreamSink::new(false);
        let classes = class_names(snap.cfg());
        let sim = Simulation::from_snapshot_traced(&snap, self.pool.acquire(), sink);
        let fields = vec![
            ("t", Value::Int(sim.now() as i128)),
            ("events", Value::Int(sim.events_processed() as i128)),
        ];
        self.sessions.insert(
            name.to_string(),
            Session {
                state: State::Live(Box::new(sim)),
                trace: false,
                metrics_every: 0,
                next_metric: 1,
                classes,
            },
        );
        out.push(line("restored", Some(name), fields));
    }

    /// Runs every live session to completion in parallel. Sessions are
    /// simulated concurrently (rayon worker pool), but output chunks
    /// are emitted strictly in session-name order — the worker count is
    /// invisible in the byte stream.
    fn run_all(&mut self, out: &mut Vec<String>) {
        let live: Vec<String> = self
            .sessions
            .iter()
            .filter(|(_, s)| matches!(s.state, State::Live(_)))
            .map(|(name, _)| name.clone())
            .collect();
        let taken: Vec<(String, Session)> = live
            .iter()
            .map(|name| {
                let s = self.sessions.remove(name).expect("listed above");
                (name.clone(), s)
            })
            .collect();
        let ran: Vec<(String, Session, Vec<String>, Option<SimWorkspace>)> = taken
            .into_par_iter()
            .map(|(name, mut s)| {
                // Same quarantine contract as `with_session`, applied
                // inside the worker so one panicking simulation cannot
                // tear down the whole `run-all` round.
                let mut lines = Vec::new();
                match catch_unwind(AssertUnwindSafe(|| s.run_to_end(&name, &mut lines))) {
                    Ok(ws) => (name, s, lines, ws),
                    Err(payload) => {
                        let lines = vec![s.poison(&name, payload)];
                        (name, s, lines, None)
                    }
                }
            })
            .collect();
        let count = ran.len();
        for (name, session, lines, ws) in ran {
            out.extend(lines);
            if let Some(ws) = ws {
                self.pool.release(ws);
            }
            self.sessions.insert(name, session);
        }
        out.push(line(
            "ran-all",
            None,
            vec![("sims", Value::Int(count as i128))],
        ));
    }

    // -----------------------------------------------------------------
    // Crash-recovery journal
    // -----------------------------------------------------------------

    /// Serializes every `live` and `paused` session into one journal
    /// payload (live engine state is captured through the same `BCSS`
    /// snapshot path `pause` uses, without disturbing the run). `done`
    /// and `poisoned` sessions are deliberately not journaled — finished
    /// results are queryable in-process but are not state worth
    /// resurrecting, and a quarantined session must not come back from
    /// the dead on restart.
    ///
    /// The payload carries no checksum or framing magic of its own:
    /// integrity, atomic writes, and generation fallback are the
    /// `bc_engine::durability` container's job (the binary wraps this
    /// payload in a [`CheckpointKind::ServeJournal`] checkpoint).
    ///
    /// [`CheckpointKind::ServeJournal`]: bc_engine::CheckpointKind
    pub fn journal_bytes(&mut self) -> Vec<u8> {
        let mut entries: Vec<(&String, u8, u64, u64, Vec<u8>)> = Vec::new();
        for (name, s) in self.sessions.iter_mut() {
            let live = matches!(s.state, State::Live(_));
            let Some(snap_bytes) = s.snapshot_bytes() else {
                continue;
            };
            let flags = (s.trace as u8) | ((live as u8) << 1);
            entries.push((name, flags, s.metrics_every, s.next_metric, snap_bytes));
        }
        let mut out = vec![JOURNAL_VERSION];
        out.extend((entries.len() as u64).to_le_bytes());
        for (name, flags, every, next, snap) in entries {
            out.extend((name.len() as u64).to_le_bytes());
            out.extend(name.as_bytes());
            out.push(flags);
            out.extend(every.to_le_bytes());
            out.extend(next.to_le_bytes());
            out.extend((snap.len() as u64).to_le_bytes());
            out.extend(snap);
        }
        out
    }

    /// Rebuilds sessions from a [`journal_bytes`](Self::journal_bytes)
    /// payload. Malformed framing is a typed `Err` (never a panic); a
    /// session whose snapshot fails to decode, collides with an existing
    /// name, or panics during rehydration is *skipped* with a reason —
    /// one rotten entry must not block recovery of the rest.
    pub fn recover_from_bytes(&mut self, bytes: &[u8]) -> Result<RecoverReport, String> {
        fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
            take_bytes(input, n).ok_or_else(|| "journal truncated".to_string())
        }
        fn take_u64(input: &mut &[u8]) -> Result<u64, String> {
            take_u64_le(input).ok_or_else(|| "journal truncated".to_string())
        }

        let mut input = bytes;
        let version = *take(&mut input, 1)?.first().unwrap();
        if version != JOURNAL_VERSION {
            return Err(format!("unsupported journal version {version}"));
        }
        let n = take_u64(&mut input)?;
        if n > (1 << 20) {
            return Err(format!("implausible journal session count {n}"));
        }
        let mut report = RecoverReport::default();
        for _ in 0..n {
            let name_len = take_u64(&mut input)? as usize;
            if name_len > crate::proto::MAX_SIM_NAME_LEN {
                return Err(format!("implausible journal name length {name_len}"));
            }
            let name = std::str::from_utf8(take(&mut input, name_len)?)
                .map_err(|_| "journal name is not UTF-8".to_string())?
                .to_string();
            let flags = *take(&mut input, 1)?.first().unwrap();
            let metrics_every = take_u64(&mut input)?;
            let next_metric = take_u64(&mut input)?;
            let snap_len = take_u64(&mut input)? as usize;
            let snap_bytes = take(&mut input, snap_len)?;
            let trace = flags & 1 != 0;
            let was_live = flags & 2 != 0;

            if self.sessions.contains_key(&name) {
                report.skip(name, "name already in use");
                continue;
            }
            if self.sessions.len() >= self.max_sessions {
                report.skip(name, "session limit reached");
                continue;
            }
            let snap = match SimSnapshot::from_bytes(snap_bytes) {
                Ok(s) => s,
                Err(e) => {
                    report.skip(name, &format!("bad snapshot: {e:?}"));
                    continue;
                }
            };
            let classes = class_names(snap.cfg());
            let state = if was_live {
                let sink = StreamSink::new(trace);
                let ws = self.pool.acquire();
                match catch_unwind(AssertUnwindSafe(|| {
                    Simulation::from_snapshot_traced(&snap, ws, sink)
                })) {
                    Ok(sim) => State::Live(Box::new(sim)),
                    Err(payload) => {
                        report.skip(
                            name,
                            &format!("rehydration panic: {}", panic_message(payload)),
                        );
                        continue;
                    }
                }
            } else {
                State::Paused(Box::new(snap))
            };
            self.sessions.insert(
                name.clone(),
                Session {
                    state,
                    trace,
                    metrics_every,
                    next_metric,
                    classes,
                },
            );
            report.recovered.push(name);
        }
        if !input.is_empty() {
            return Err(format!("{} trailing bytes after journal", input.len()));
        }
        Ok(report)
    }

    fn status(&mut self, out: &mut Vec<String>) {
        let sims: Vec<Value> = self
            .sessions
            .iter()
            .map(|(name, s)| {
                let mut fields = vec![
                    ("sim", Value::Str(name.clone())),
                    ("state", Value::Str(s.state_name().into())),
                ];
                fields.extend(s.progress());
                object(fields)
            })
            .collect();
        out.push(line(
            "status",
            None,
            vec![
                ("sims", Value::Array(sims)),
                (
                    "pool",
                    object(vec![
                        ("idle", Value::Int(self.pool.idle() as i128)),
                        ("created", Value::Int(self.pool.created() as i128)),
                        ("reused", Value::Int(self.pool.reused() as i128)),
                    ]),
                ),
            ],
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_SIM_NAME_LEN;

    /// The `trace` line as it was built before the one-pass writer: the
    /// padded `Display` collapsed to single spaces, through `line()`.
    fn oracle_line(name: &str, rec: &TraceRecord) -> String {
        let text = rec.to_string();
        let text: Vec<&str> = text.split_whitespace().collect();
        line(
            "trace",
            Some(name),
            vec![
                ("t", Value::Int(rec.time as i128)),
                ("text", Value::Str(text.join(" "))),
            ],
        )
    }

    fn records() -> Vec<TraceRecord> {
        [
            (0, TraceEvent::ComputeStart { node: 0 }),
            (
                7,
                TraceEvent::TransferStart {
                    node: 1,
                    child: 4,
                    work: 12,
                },
            ),
            (
                1_000_000,
                TraceEvent::TaskDefer {
                    class: 1,
                    units: 3,
                    waiting: 9,
                },
            ),
            (
                u64::MAX,
                TraceEvent::LinkDown {
                    node: u32::MAX,
                    until: u64::MAX,
                },
            ),
        ]
        .into_iter()
        .map(|(time, event)| TraceRecord { time, event })
        .collect()
    }

    #[test]
    fn trace_lines_match_the_value_tree_writer() {
        let long_ascii = "n".repeat(MAX_SIM_NAME_LEN);
        let long_utf8 = "é".repeat(MAX_SIM_NAME_LEN / 2);
        assert_eq!(long_utf8.len(), MAX_SIM_NAME_LEN);
        for name in [
            "q\"uo\\te-é",
            "tab\tnew\nline\r\u{1}\u{1f}",
            "x",
            long_ascii.as_str(),
            long_utf8.as_str(),
        ] {
            let mut recs = records();
            let want: Vec<String> = recs.iter().map(|r| oracle_line(name, r)).collect();
            let mut got = vec!["earlier line".to_string()];
            drain_trace_lines(name, &mut recs, &mut got);
            assert!(recs.is_empty(), "records must be drained");
            assert_eq!(got[0], "earlier line", "existing output is kept");
            assert_eq!(&got[1..], &want[..], "name {name:?}");
        }
    }

    #[test]
    fn stream_sink_retains_the_undrained_tail() {
        let mut sink = StreamSink::new(true);
        for i in 0..(RETAINED_TAIL as u64 + 10) {
            sink.record(i, TraceEvent::ComputeFinish { node: 1 });
        }
        let mut tail = Vec::new();
        sink.retained(&mut tail);
        assert_eq!(tail.len(), RETAINED_TAIL);
        assert_eq!(tail[0].time, 10, "the newest records, oldest first");
        drain_trace_lines("s", &mut sink.records, &mut Vec::new());
        tail.clear();
        sink.retained(&mut tail);
        assert!(tail.is_empty(), "drained records are gone");

        let mut off = StreamSink::new(false);
        off.record(1, TraceEvent::ComputeStart { node: 0 });
        assert!(
            off.records.is_empty(),
            "an untraced session records nothing"
        );
    }
}
