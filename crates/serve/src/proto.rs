//! Wire protocol of the simulation server: JSON-per-line requests in,
//! JSON-per-line events out.
//!
//! Every request is one JSON object with a `"cmd"` field; every output
//! line is one JSON object with an `"ev"` field. The parser is strict
//! about shapes (a malformed request yields one `{"ev":"error"}` line
//! and changes nothing) but tolerant about order — fields may appear in
//! any order, and unknown fields are ignored so clients can annotate
//! requests freely.
//!
//! See DESIGN.md ("Open-world service mode") for the session lifecycle
//! and `bc-serve --help` for a worked example.

use bc_engine::{
    AdmissionPolicy, ArrivalPlan, ArrivalProcess, FaultEvent, FaultKind, FaultPlan, RecoveryTuning,
    SimConfig, TaskClass,
};
use bc_metrics::LatencySummary;
use bc_platform::{NodeId, RandomTreeConfig, Tree};
use serde::Value;

/// Default fault-plan jitter seed when a request schedules faults
/// without picking one.
pub const DEFAULT_FAULT_SEED: u64 = 0xBC5E;

/// Hard bound on an accepted request line, in bytes. Generous enough
/// for a hex-encoded restore of a large mid-run snapshot (hex doubles
/// the byte count), tight enough that a hostile endless line cannot
/// buffer unboundedly: both `Server::handle_line` and the binary's
/// stdin reader enforce it.
pub const MAX_LINE_LEN: usize = 4 << 20;

/// Hard bound on a session name, in bytes.
pub const MAX_SIM_NAME_LEN: usize = 64;

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Create a session from a tree + workload spec.
    Open { sim: String, spec: Box<OpenSpec> },
    /// Advance one session by up to `events` events.
    Step { sim: String, events: u64 },
    /// Run one session to completion.
    Run { sim: String },
    /// Run every live session to completion (in parallel; output is
    /// emitted in session-name order regardless of worker count).
    RunAll,
    /// Run one session until its clock is about to reach `time`.
    RunUntil { sim: String, time: u64 },
    /// Capture a snapshot and drop the live engine state.
    Pause { sim: String },
    /// Rebuild the live engine state from the pause snapshot.
    Resume { sim: String },
    /// Emit the session's serialized snapshot (hex bytes).
    Snapshot { sim: String },
    /// Create a session from serialized snapshot bytes.
    Restore { sim: String, bytes: Vec<u8> },
    /// Emit current progress / final latency metrics.
    Metrics { sim: String },
    /// Emit a one-line inventory of sessions and the workspace pool.
    Status,
    /// Discard a session.
    Close { sim: String },
    /// Stop serving.
    Shutdown,
}

/// Everything an `open` request configures.
#[derive(Debug)]
pub struct OpenSpec {
    /// How to build the platform tree.
    pub tree: TreeSpec,
    /// The assembled engine configuration (validated by the server).
    pub cfg: SimConfig,
    /// Stream per-event trace lines.
    pub trace: bool,
    /// Emit a `metric` event each time this many events elapse (0 = off).
    pub metrics_every: u64,
}

/// A platform tree, either generated or given explicitly.
#[derive(Debug)]
pub enum TreeSpec {
    /// `RandomTreeConfig::generate(seed)`.
    Random { config: RandomTreeConfig, seed: u64 },
    /// Explicit `(parent, comm, compute)` rows in id order (row `k` is
    /// node `k + 1`; parents must precede children).
    Explicit {
        root_compute: u64,
        nodes: Vec<(usize, u64, u64)>,
    },
}

impl TreeSpec {
    /// Builds the tree, or says why the spec names none.
    pub fn build(&self) -> Result<Tree, String> {
        match self {
            TreeSpec::Random { config, seed } => {
                config
                    .validate()
                    .map_err(|e| format!("invalid tree.random: {e}"))?;
                Ok(config.generate(*seed))
            }
            TreeSpec::Explicit {
                root_compute,
                nodes,
            } => Tree::from_rows(*root_compute, nodes).map_err(|e| format!("invalid tree: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Value helpers (the vendored serde shim has no derive)
// ---------------------------------------------------------------------

fn opt<T: serde::Deserialize>(v: &Value, key: &str) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => T::from_value(f)
            .map(Some)
            .map_err(|e| format!("field `{key}`: {e}")),
    }
}

fn req<T: serde::Deserialize>(v: &Value, key: &str) -> Result<T, String> {
    opt(v, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

fn sim_name(v: &Value) -> Result<String, String> {
    let name: String = req(v, "sim")?;
    if name.is_empty() || name.len() > MAX_SIM_NAME_LEN {
        return Err(format!("`sim` must be 1..={MAX_SIM_NAME_LEN} characters"));
    }
    Ok(name)
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

/// Parses one request line. `Err` is a human-readable message for an
/// `{"ev":"error"}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let cmd: String = req(&v, "cmd")?;
    match cmd.as_str() {
        "open" => Ok(Request::Open {
            sim: sim_name(&v)?,
            spec: Box::new(parse_open(&v)?),
        }),
        "step" => Ok(Request::Step {
            sim: sim_name(&v)?,
            events: opt(&v, "events")?.unwrap_or(1).max(1),
        }),
        "run" => Ok(Request::Run { sim: sim_name(&v)? }),
        "run-all" => Ok(Request::RunAll),
        "run-until" => Ok(Request::RunUntil {
            sim: sim_name(&v)?,
            time: req(&v, "time")?,
        }),
        "pause" => Ok(Request::Pause { sim: sim_name(&v)? }),
        "resume" => Ok(Request::Resume { sim: sim_name(&v)? }),
        "snapshot" => Ok(Request::Snapshot { sim: sim_name(&v)? }),
        "restore" => Ok(Request::Restore {
            sim: sim_name(&v)?,
            bytes: from_hex(&req::<String>(&v, "bytes")?)?,
        }),
        "metrics" => Ok(Request::Metrics { sim: sim_name(&v)? }),
        "status" => Ok(Request::Status),
        "close" => Ok(Request::Close { sim: sim_name(&v)? }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

fn parse_open(v: &Value) -> Result<OpenSpec, String> {
    let tree = parse_tree(v.get("tree").ok_or("missing field `tree`")?)?;
    let buffers: u32 = opt(v, "buffers")?.unwrap_or(2);
    let tasks: u64 = opt(v, "tasks")?.unwrap_or(0);
    let protocol: Option<String> = opt(v, "protocol")?;
    let mut cfg = match protocol.as_deref().unwrap_or("ic") {
        "ic" => SimConfig::interruptible(buffers, tasks),
        "nonic" => SimConfig::non_interruptible(buffers, tasks),
        "nonic-fixed" => SimConfig::non_interruptible_fixed(buffers, tasks),
        other => {
            return Err(format!(
                "unknown protocol {other:?}; use ic, nonic, or nonic-fixed"
            ))
        }
    };
    cfg = cfg.with_checked(opt(v, "checked")?.unwrap_or(false));
    if let Some(arr) = v.get("arrivals") {
        cfg = cfg.with_arrivals(parse_arrivals(arr)?);
    } else if tasks == 0 {
        return Err("need `tasks` (closed batch) or `arrivals` (open world)".into());
    }
    if let Some(faults) = v.get("faults") {
        cfg = cfg.with_fault_plan(parse_faults(faults, opt(v, "fault_seed")?)?);
    }
    Ok(OpenSpec {
        tree,
        cfg,
        trace: opt(v, "trace")?.unwrap_or(false),
        metrics_every: opt(v, "metrics_every")?.unwrap_or(0),
    })
}

fn parse_tree(v: &Value) -> Result<TreeSpec, String> {
    if let Some(r) = v.get("random") {
        return Ok(TreeSpec::Random {
            config: RandomTreeConfig {
                min_nodes: req(r, "min_nodes")?,
                max_nodes: req(r, "max_nodes")?,
                comm_min: req(r, "comm_min")?,
                comm_max: req(r, "comm_max")?,
                compute_scale: req(r, "compute_scale")?,
            },
            seed: req(r, "seed")?,
        });
    }
    let rows: Vec<Vec<u64>> = req(v, "nodes")?;
    let mut nodes = Vec::with_capacity(rows.len());
    for (k, row) in rows.iter().enumerate() {
        let [parent, comm, compute] = row.as_slice() else {
            return Err(format!(
                "tree node {} must be [parent, comm, compute]",
                k + 1
            ));
        };
        nodes.push((*parent as usize, *comm, *compute));
    }
    Ok(TreeSpec::Explicit {
        root_compute: req(v, "root_compute")?,
        nodes,
    })
}

fn parse_arrivals(v: &Value) -> Result<ArrivalPlan, String> {
    let policy: String = opt(v, "policy")?.unwrap_or_else(|| "defer".into());
    let policy = match policy.as_str() {
        "defer" => AdmissionPolicy::Defer,
        "drop" => AdmissionPolicy::Drop,
        other => return Err(format!("unknown policy {other:?}; use defer or drop")),
    };
    let Some(Value::Array(classes)) = v.get("classes") else {
        return Err("`arrivals.classes` must be an array".into());
    };
    let classes = classes
        .iter()
        .enumerate()
        .map(|(i, c)| parse_class(c, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ArrivalPlan {
        seed: req(v, "seed")?,
        classes,
        queue_cap: req(v, "queue_cap")?,
        policy,
    })
}

fn parse_class(v: &Value, index: usize) -> Result<TaskClass, String> {
    let process = if let Some(p) = v.get("poisson") {
        ArrivalProcess::Poisson {
            mean_gap: req(p, "mean_gap")?,
            count: req(p, "count")?,
        }
    } else if let Some(b) = v.get("burst") {
        ArrivalProcess::Burst {
            phase: req(b, "phase")?,
            period: req(b, "period")?,
            size: req(b, "size")?,
            bursts: req(b, "bursts")?,
        }
    } else if let Some(t) = v.get("trace") {
        ArrivalProcess::Trace {
            times: serde::Deserialize::from_value(t)
                .map_err(|e| format!("class {index} trace: {e}"))?,
        }
    } else {
        return Err(format!(
            "class {index} needs a `poisson`, `burst`, or `trace` process"
        ));
    };
    Ok(TaskClass {
        name: opt(v, "name")?.unwrap_or_else(|| format!("class{index}")),
        work_units: opt(v, "units")?.unwrap_or(1),
        process,
    })
}

fn parse_faults(v: &Value, seed: Option<u64>) -> Result<FaultPlan, String> {
    let Value::Array(items) = v else {
        return Err("`faults` must be an array".into());
    };
    let mut faults = Vec::with_capacity(items.len());
    for (i, f) in items.iter().enumerate() {
        let kind: String = req(f, "kind")?;
        let kind = match kind.as_str() {
            "outage" => FaultKind::LinkOutage {
                duration: req(f, "duration")?,
            },
            "crash" => FaultKind::Crash,
            "abort" => FaultKind::TransferAbort,
            "request-loss" => FaultKind::RequestLoss {
                batches: req(f, "batches")?,
            },
            "duplicate" => FaultKind::DuplicateDelivery {
                copies: req(f, "copies")?,
            },
            other => {
                return Err(format!(
                    "fault {i}: unknown kind {other:?}; use outage, crash, abort, \
                     request-loss, or duplicate"
                ))
            }
        };
        faults.push(FaultEvent {
            at: req(f, "at")?,
            node: NodeId(req::<u32>(f, "node")?),
            kind,
        });
    }
    Ok(FaultPlan {
        seed: seed.unwrap_or(DEFAULT_FAULT_SEED),
        faults,
        recovery: RecoveryTuning::default(),
    })
}

/// The JSON form of a latency summary, as the `latency` object of an
/// arrival session's `done` and `metrics` lines and `BENCH_latency.json`
/// carry it: the count, the exact mean as a rational string, and the
/// order statistics (`null` when empty).
pub fn summary_value(s: &LatencySummary) -> Value {
    let num = |v: Option<u64>| v.map_or(Value::Null, |n| Value::Int(n as i128));
    serde::object(vec![
        ("count", Value::Int(s.count() as i128)),
        (
            "mean",
            s.mean().map_or(Value::Null, |m| Value::Str(m.to_string())),
        ),
        ("p50", num(s.p50())),
        ("p99", num(s.p99())),
        ("min", num(s.min())),
        ("max", num(s.max())),
    ])
}

// ---------------------------------------------------------------------
// Hex (snapshot bytes on the wire)
// ---------------------------------------------------------------------

/// Lowercase hex encoding of snapshot bytes.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex string has odd length".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| format!("bad hex at byte {i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_engine::Protocol;

    #[test]
    fn parses_a_full_open_request() {
        let line = r#"{"cmd":"open","sim":"a","protocol":"nonic-fixed","buffers":3,
            "tree":{"root_compute":5,"nodes":[[0,2,7],[1,1,3]]},
            "arrivals":{"seed":9,"queue_cap":4,"policy":"drop","classes":[
                {"name":"bg","poisson":{"mean_gap":3,"count":30}},
                {"units":2,"burst":{"phase":10,"period":25,"size":3,"bursts":4}},
                {"trace":[5,17,90]}]},
            "faults":[{"at":40,"node":2,"kind":"outage","duration":12}],
            "trace":true,"metrics_every":64}"#;
        let Request::Open { sim, spec } = parse_request(line).unwrap() else {
            panic!("not an open");
        };
        assert_eq!(sim, "a");
        assert!(spec.trace);
        assert_eq!(spec.metrics_every, 64);
        let tree = spec.tree.build().unwrap();
        assert_eq!(tree.len(), 3);
        assert_eq!(spec.cfg.protocol, Protocol::NonInterruptible);
        let plan = spec.cfg.arrivals.as_ref().unwrap();
        assert_eq!(plan.classes.len(), 3);
        assert_eq!(plan.classes[0].name, "bg");
        assert_eq!(plan.classes[1].work_units, 2);
        assert_eq!(plan.policy, AdmissionPolicy::Drop);
        // `with_arrivals` keeps total_tasks synced to the plan.
        assert_eq!(spec.cfg.total_tasks, plan.total_units());
        let fp = spec.cfg.fault_plan.as_ref().unwrap();
        assert_eq!(fp.faults.len(), 1);
        assert_eq!(fp.seed, DEFAULT_FAULT_SEED);
        spec.cfg.validate(&tree).unwrap();
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("nonsense", "JSON"),
            (r#"{"sim":"a"}"#, "missing field `cmd`"),
            (r#"{"cmd":"warp","sim":"a"}"#, "unknown cmd"),
            (r#"{"cmd":"open","sim":"a"}"#, "missing field `tree`"),
            (r#"{"cmd":"step"}"#, "missing field `sim`"),
            (
                r#"{"cmd":"open","sim":"a","tree":{"root_compute":5,"nodes":[]}}"#,
                "need `tasks`",
            ),
            (
                r#"{"cmd":"open","sim":"a","tasks":5,"protocol":"warp",
                   "tree":{"root_compute":5,"nodes":[]}}"#,
                "unknown protocol",
            ),
            (
                r#"{"cmd":"open","sim":"a","tasks":5,
                   "tree":{"root_compute":5,"nodes":[[2,1,1]]}}"#,
                "does not precede",
            ),
            (r#"{"cmd":"restore","sim":"a","bytes":"xyz"}"#, "hex"),
        ] {
            let err = match parse_request(line) {
                Err(e) => e,
                Ok(r) => {
                    // Tree building is deferred; force it for tree cases.
                    match r {
                        Request::Open { spec, .. } => spec.tree.build().unwrap_err(),
                        other => panic!("accepted {line:?} as {other:?}"),
                    }
                }
            };
            assert!(err.contains(needle), "for {line:?} got {err:?}");
        }
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&bytes);
        assert_eq!(hex.len(), 2 * bytes.len());
        for (b, pair) in bytes.iter().zip(hex.as_bytes().chunks(2)) {
            assert_eq!(pair, format!("{b:02x}").as_bytes(), "byte {b}");
        }
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }
}
