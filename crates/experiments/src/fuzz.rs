//! Differential protocol fuzzing: adversarial random trees, every
//! protocol variant run under the invariant checker, and a greedy
//! shrinker that minimizes failures to a few-node reproducer.
//!
//! The harness drives each case with `checked` *off* and calls the
//! checker's fallible entry points ([`Simulation::verify_invariants`] /
//! [`Simulation::verify_terminal`]) after every step, so a violation
//! surfaces as an `Err` the shrinker can iterate on rather than a panic.
//! Engine panics (deadlock, internal assertions, event-budget blowups)
//! are caught and reported as failures too. Every entry point —
//! [`run_case`], [`trace_tail`], [`run_case_snapshotting`] and
//! [`replay_suffix`] — runs through one private checked loop, the one
//! place a further per-event oracle would be consulted.
//!
//! Reproducers are self-contained: a failing case is shrunk and printed
//! as a `fuzz_protocols --repro <spec> --variant <name>` command whose
//! spec encodes the exact tree (see [`CaseSpec::encode`]), independent
//! of generator seeds or versions. See EXPERIMENTS.md for the workflow.

use bc_core::{GrowthGate, ObserverKind};
use bc_engine::{
    AdmissionPolicy, ArrivalPlan, ArrivalProcess, FaultEvent, FaultInjection, FaultKind, FaultPlan,
    RecoveryTuning, SelectorKind, SimConfig, SimSnapshot, SimWorkspace, Simulation, TaskClass,
};
use bc_platform::{NodeId, Tree};
use bc_simcore::split_seed;
use bc_simcore::trace::{RingRecorder, TraceRecord, TraceSink, VecSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::IntoParallelIterator;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cap on events per fuzz run — far above any legitimate small-tree run,
/// so hitting it is itself a caught failure (runaway simulation).
const FUZZ_MAX_EVENTS: u64 = 5_000_000;

/// Fixed jitter seed every fuzz fault plan uses, so a reproducer spec
/// fully determines the run (the schedule itself is in the spec).
pub const FUZZ_FAULT_SEED: u64 = 0xFA17;

/// Variants the fault-plan legs run under (a subset: both disciplines,
/// fixed and growable pools). Reproduce with the same `--variant` name —
/// the fault schedule rides in the spec's third segment.
pub const FAULT_PLAN_VARIANTS: [&str; 3] = ["ic-fb3", "nonic-ib1-every", "nonic-fb2"];

/// Variants the open-world arrival legs run under. Reproduce with the
/// same `--variant` name plus `--arrivals <seed>` (the whole plan is a
/// pure function of that seed; see [`fuzz_arrival_plan`]).
pub const ARRIVAL_VARIANTS: [&str; 3] = ["ic-fb2", "nonic-ib1-every", "nonic-fb2"];

/// Salt mixed into the campaign seed to derive per-case arrival seeds.
pub const FUZZ_ARRIVAL_SALT: u64 = 0xA881;

/// Deterministically derives an open-world workload from one seed: a
/// Poisson background class plus a bursty class sized so a full burst
/// always overruns the admission queue (every plan exercises the
/// admission gate, not just the happy path). Policy is `Defer` three
/// times in four — backpressure has the richer invariant surface — and
/// `Drop` otherwise.
pub fn fuzz_arrival_plan(arr_seed: u64) -> ArrivalPlan {
    let mut rng = SmallRng::seed_from_u64(arr_seed);
    let width = rng.random_range(1..=2u64);
    let cap = rng.random_range(3..=8u64).max(width);
    // size * width > cap: the burst instant must hit the bound.
    let size = cap / width + 1;
    ArrivalPlan {
        seed: rng.random(),
        classes: vec![
            TaskClass {
                name: "background".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson {
                    mean_gap: rng.random_range(1..=5),
                    count: rng.random_range(15..=40),
                },
            },
            TaskClass {
                name: "burst".into(),
                work_units: width,
                process: ArrivalProcess::Burst {
                    phase: rng.random_range(0..=20),
                    period: rng.random_range(5..=25),
                    size,
                    bursts: rng.random_range(2..=4),
                },
            },
        ],
        queue_cap: cap,
        policy: if rng.random_range(0..4) < 3 {
            AdmissionPolicy::Defer
        } else {
            AdmissionPolicy::Drop
        },
    }
}

// ---------------------------------------------------------------------
// Case specification
// ---------------------------------------------------------------------

/// A platform tree as explicit data: the root's compute time plus, for
/// each further node, its parent id, uplink communication time, and
/// compute time. Spec entry `k` (0-based) is the node with id `k + 1`;
/// parents always precede children, so [`CaseSpec::to_tree`] rebuilds
/// the identical tree, and [`CaseSpec::encode`] makes a reproducer
/// independent of any generator seed or version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseSpec {
    /// Compute time of the repository (node 0).
    pub root_compute: u64,
    /// `(parent_id, comm_time, compute_time)` per non-root node, in id
    /// order (entry `k` is node `k + 1`).
    pub nodes: Vec<(usize, u64, u64)>,
    /// Scheduled environment faults, if the case runs under a fault
    /// plan. Encoded as the spec's third `|` segment, so `--repro`
    /// round-trips the whole schedule.
    pub faults: Vec<FaultEvent>,
}

impl CaseSpec {
    /// Total node count (root included).
    pub fn len(&self) -> usize {
        self.nodes.len() + 1
    }

    /// True when the spec is just the repository.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rebuilds the tree. Panics on a spec that names no valid tree;
    /// [`CaseSpec::decode`] rejects those.
    pub fn to_tree(&self) -> Tree {
        Tree::from_rows(self.root_compute, &self.nodes).expect("invalid CaseSpec tree")
    }

    /// Serializes the spec for a `--repro` command line:
    /// `root_compute|parent:comm:compute;...[|kind:at:node[:arg];...]`.
    /// The fault segment (kinds `l`oss, `a`bort, `o`utage, `c`rash,
    /// `d`uplicate) appears only when the case carries a fault plan, so
    /// fault-free specs encode exactly as before.
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut s = self.root_compute.to_string();
        s.push('|');
        for (k, &(p, c, w)) in self.nodes.iter().enumerate() {
            if k > 0 {
                s.push(';');
            }
            let _ = write!(s, "{p}:{c}:{w}");
        }
        for (k, f) in self.faults.iter().enumerate() {
            s.push(if k == 0 { '|' } else { ';' });
            let (at, n) = (f.at, f.node.0);
            let _ = match f.kind {
                FaultKind::RequestLoss { batches } => write!(s, "l:{at}:{n}:{batches}"),
                FaultKind::TransferAbort => write!(s, "a:{at}:{n}"),
                FaultKind::LinkOutage { duration } => write!(s, "o:{at}:{n}:{duration}"),
                FaultKind::Crash => write!(s, "c:{at}:{n}"),
                FaultKind::DuplicateDelivery { copies } => write!(s, "d:{at}:{n}:{copies}"),
            };
        }
        s
    }

    /// Parses [`CaseSpec::encode`]'s format.
    pub fn decode(s: &str) -> Result<CaseSpec, String> {
        let (root, rest) = s
            .split_once('|')
            .ok_or_else(|| format!("spec {s:?} lacks the root| prefix"))?;
        let (rest, fault_segment) = match rest.split_once('|') {
            Some((nodes, faults)) => (nodes, Some(faults)),
            None => (rest, None),
        };
        let root_compute: u64 = root
            .parse()
            .map_err(|_| format!("bad root compute time {root:?}"))?;
        let mut nodes = Vec::new();
        if !rest.is_empty() {
            for (k, entry) in rest.split(';').enumerate() {
                let mut f = entry.split(':');
                let mut num = |what: &str| {
                    f.next()
                        .ok_or_else(|| format!("node {}: missing {what}", k + 1))?
                        .parse::<u64>()
                        .map_err(|_| format!("node {}: bad {what} in {entry:?}", k + 1))
                };
                nodes.push((num("parent")? as usize, num("comm")?, num("compute")?));
            }
        }
        Tree::from_rows(root_compute, &nodes).map_err(|e| e.to_string())?;
        let mut faults = Vec::new();
        if let Some(seg) = fault_segment {
            for entry in seg.split(';') {
                faults.push(Self::decode_fault(entry, nodes.len())?);
            }
        }
        Ok(CaseSpec {
            root_compute,
            nodes,
            faults,
        })
    }

    /// Parses one `kind:at:node[:arg]` fault entry.
    fn decode_fault(entry: &str, non_root_nodes: usize) -> Result<FaultEvent, String> {
        let mut f = entry.split(':');
        let kind_tag = f.next().unwrap_or_default();
        let mut num = |what: &str| {
            f.next()
                .ok_or_else(|| format!("fault {entry:?}: missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("fault {entry:?}: bad {what}"))
        };
        let at = num("time")?;
        let node = num("node")? as usize;
        if node == 0 || node > non_root_nodes {
            return Err(format!(
                "fault {entry:?}: node {node} is the repository or out of range"
            ));
        }
        let kind = match kind_tag {
            "l" => FaultKind::RequestLoss {
                batches: num("batches")?.max(1) as u32,
            },
            "a" => FaultKind::TransferAbort,
            "o" => FaultKind::LinkOutage {
                duration: num("duration")?.max(1),
            },
            "c" => FaultKind::Crash,
            "d" => FaultKind::DuplicateDelivery {
                copies: num("copies")?.max(1) as u32,
            },
            other => return Err(format!("fault {entry:?}: unknown kind {other:?}")),
        };
        Ok(FaultEvent {
            at,
            node: NodeId(node as u32),
            kind,
        })
    }

    /// The fault plan the spec's schedule describes, with the fixed fuzz
    /// jitter seed and default recovery tuning. `None` when fault-free.
    pub fn to_fault_plan(&self) -> Option<FaultPlan> {
        if self.faults.is_empty() {
            return None;
        }
        Some(FaultPlan {
            seed: FUZZ_FAULT_SEED,
            faults: self.faults.clone(),
            recovery: RecoveryTuning::default(),
        })
    }

    /// True when spec node `k` (id `k + 1`) has no children.
    fn is_leaf(&self, k: usize) -> bool {
        let id = k + 1;
        !self.nodes.iter().any(|&(p, _, _)| p == id)
    }

    /// The spec with leaf `k` removed (ids above it shift down by one).
    /// Faults targeting the removed node are dropped; targets above it
    /// are renumbered along with their nodes.
    fn without_leaf(&self, k: usize) -> CaseSpec {
        let removed = k + 1;
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != k)
            .map(|(_, &(p, c, w))| (if p > removed { p - 1 } else { p }, c, w))
            .collect();
        let faults = self
            .faults
            .iter()
            .filter(|f| f.node.index() != removed)
            .map(|f| FaultEvent {
                node: if f.node.index() > removed {
                    NodeId(f.node.0 - 1)
                } else {
                    f.node
                },
                ..*f
            })
            .collect();
        CaseSpec {
            root_compute: self.root_compute,
            nodes,
            faults,
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial tree shapes
// ---------------------------------------------------------------------

/// The generator's shape families. Each targets a different stress:
/// relay depth, link contention, selector tie-breaking, or the §4.1
/// paper distribution in miniature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Small §4.1-style tree: random parents, mixed weights.
    PaperLike,
    /// A single chain 10–24 deep: every task relays through every node.
    DeepChain,
    /// A flat fan of 8–24 children: maximal outbound-link contention.
    WideFan,
    /// All edges and processors identical: every selector decision ties.
    EqualWeight,
    /// Unit communication, slow processors: the link is never binding.
    UnitComm,
    /// A caterpillar: a spine with a leaf at every level — chains and
    /// fans interleaved.
    Caterpillar,
}

/// All shape families, in the round-robin order the fuzzer uses.
pub const SHAPES: [Shape; 6] = [
    Shape::PaperLike,
    Shape::DeepChain,
    Shape::WideFan,
    Shape::EqualWeight,
    Shape::UnitComm,
    Shape::Caterpillar,
];

/// Deterministically generates fuzz case `index` of a `seed`-keyed
/// population: shape families round-robin, sizes and weights drawn from
/// a per-case split seed.
pub fn generate_case(seed: u64, index: usize) -> CaseSpec {
    let shape = SHAPES[index % SHAPES.len()];
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, index as u64));
    let mut nodes = Vec::new();
    let root_compute;
    match shape {
        Shape::PaperLike => {
            root_compute = rng.random_range(1..=40);
            let n = rng.random_range(5..=23);
            for k in 0..n {
                let parent = rng.random_range(0..=k);
                nodes.push((parent, rng.random_range(1..=12), rng.random_range(1..=40)));
            }
        }
        Shape::DeepChain => {
            root_compute = rng.random_range(1..=30);
            let depth = rng.random_range(10..=24);
            for k in 0..depth {
                nodes.push((k, rng.random_range(1..=6), rng.random_range(1..=30)));
            }
        }
        Shape::WideFan => {
            root_compute = rng.random_range(1..=30);
            let width = rng.random_range(8..=24);
            for _ in 0..width {
                nodes.push((0, rng.random_range(1..=10), rng.random_range(1..=30)));
            }
        }
        Shape::EqualWeight => {
            let c = rng.random_range(1..=5);
            let w = rng.random_range(1..=10);
            root_compute = w;
            let n = rng.random_range(6..=20);
            for k in 0..n {
                let parent = rng.random_range(0..=k);
                nodes.push((parent, c, w));
            }
        }
        Shape::UnitComm => {
            root_compute = rng.random_range(20..=60);
            let n = rng.random_range(6..=20);
            for k in 0..n {
                let parent = rng.random_range(0..=k);
                nodes.push((parent, 1, rng.random_range(20..=60)));
            }
        }
        Shape::Caterpillar => {
            root_compute = rng.random_range(1..=30);
            let levels = rng.random_range(5..=11);
            let mut spine = 0usize;
            for _ in 0..levels {
                nodes.push((spine, rng.random_range(1..=8), rng.random_range(1..=30)));
                spine = nodes.len(); // id of the spine node just pushed
                                     // A leaf hangs off every spine node.
                nodes.push((spine, rng.random_range(1..=8), rng.random_range(1..=30)));
            }
        }
    }
    CaseSpec {
        root_compute,
        nodes,
        faults: Vec::new(),
    }
}

/// Draws a low-intensity fault schedule for fuzz case `index`: one lost
/// request batch, one transfer abort, a leaf crash, and (half the time
/// each) a short link outage or duplicated deliveries. Times sit inside
/// the early makespan of a small-tree run, so the faults actually bite.
pub fn generate_faults(seed: u64, index: usize, spec: &CaseSpec) -> Vec<FaultEvent> {
    let mut rng = SmallRng::seed_from_u64(split_seed(seed ^ FUZZ_FAULT_SEED, index as u64));
    let n = spec.nodes.len();
    if n == 0 {
        return Vec::new();
    }
    let any = |rng: &mut SmallRng| NodeId(rng.random_range(1..=n) as u32);
    let mut faults = vec![
        FaultEvent {
            at: rng.random_range(5..=150),
            node: any(&mut rng),
            kind: FaultKind::RequestLoss {
                batches: rng.random_range(1..=2),
            },
        },
        FaultEvent {
            at: rng.random_range(5..=200),
            node: any(&mut rng),
            kind: FaultKind::TransferAbort,
        },
    ];
    let leaves: Vec<usize> = (0..n).filter(|&k| spec.is_leaf(k)).collect();
    if !leaves.is_empty() {
        let leaf = leaves[rng.random_range(0..leaves.len())];
        faults.push(FaultEvent {
            at: rng.random_range(30..=250),
            node: NodeId(leaf as u32 + 1),
            kind: FaultKind::Crash,
        });
    }
    if rng.random_range(0..2) == 0 {
        faults.push(FaultEvent {
            at: rng.random_range(10..=180),
            node: any(&mut rng),
            kind: FaultKind::LinkOutage {
                duration: rng.random_range(10..=120),
            },
        });
    }
    if rng.random_range(0..2) == 0 {
        faults.push(FaultEvent {
            at: rng.random_range(10..=180),
            node: any(&mut rng),
            kind: FaultKind::DuplicateDelivery {
                copies: rng.random_range(1..=3),
            },
        });
    }
    faults
}

/// The full run configuration for a spec: `base` plus the spec's fault
/// plan, when it carries one. Every fuzz entry point composes configs
/// through this, so shrunk candidates re-derive their plan from the
/// candidate spec (a dropped node takes its faults with it).
pub fn case_config(spec: &CaseSpec, base: &SimConfig) -> SimConfig {
    match spec.to_fault_plan() {
        Some(plan) => base.clone().with_fault_plan(plan),
        None => base.clone(),
    }
}

// ---------------------------------------------------------------------
// Protocol variants
// ---------------------------------------------------------------------

/// Every protocol variant a fuzz case runs under: both disciplines, the
/// paper's buffer sizes, all growth gates, both service orders, the
/// non-oracle observers, and a baseline selector (the invariants — and
/// the rate oracle — must hold for *any* of them).
pub fn variants(tasks: u64) -> Vec<(&'static str, SimConfig)> {
    let mut v: Vec<(&'static str, SimConfig)> = vec![
        ("ic-fb1", SimConfig::interruptible(1, tasks)),
        ("ic-fb2", SimConfig::interruptible(2, tasks)),
        ("ic-fb3", SimConfig::interruptible(3, tasks)),
        ("nonic-ib1-every", SimConfig::non_interruptible(1, tasks)),
        (
            "nonic-ib1-arrival",
            SimConfig::non_interruptible_gated(1, GrowthGate::OncePerArrival, tasks),
        ),
        (
            "nonic-ib1-filled",
            SimConfig::non_interruptible_gated(1, GrowthGate::AfterPoolFilled, tasks),
        ),
        ("nonic-fb2", SimConfig::non_interruptible_fixed(2, tasks)),
    ];
    let mut link_first = SimConfig::interruptible(3, tasks);
    link_first.self_first = false;
    v.push(("ic-fb3-link-first", link_first));
    let mut last_sample = SimConfig::interruptible(2, tasks);
    last_sample.observer = ObserverKind::LastSample { initial: 5 };
    v.push(("ic-fb2-lastsample", last_sample));
    let mut round_robin = SimConfig::interruptible(2, tasks);
    round_robin.selector = SelectorKind::RoundRobin;
    v.push(("ic-fb2-roundrobin", round_robin));
    v
}

/// Looks a variant up by name (for `--repro`).
pub fn variant_by_name(name: &str, tasks: u64) -> Option<SimConfig> {
    variants(tasks)
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, c)| c)
}

/// Parses a `--fault` operand: `fb` (FB off-by-one), `leak:N`, or
/// `swallow` (reissue swallowing; only bites under a fault plan).
pub fn parse_fault(s: &str) -> Result<FaultInjection, String> {
    if s == "fb" {
        return Ok(FaultInjection::FbOffByOne);
    }
    if s == "swallow" {
        return Ok(FaultInjection::SwallowReissue);
    }
    if let Some(n) = s.strip_prefix("leak:") {
        let every: u64 = n.parse().map_err(|_| format!("bad leak period {n:?}"))?;
        if every == 0 {
            return Err("leak period must be >= 1".into());
        }
        return Ok(FaultInjection::LeakTask { every });
    }
    if let Some(n) = s.strip_prefix("leakq:") {
        let every: u64 = n.parse().map_err(|_| format!("bad leakq period {n:?}"))?;
        if every == 0 {
            return Err("leakq period must be >= 1".into());
        }
        return Ok(FaultInjection::LeakQueuedTask { every });
    }
    Err(format!(
        "unknown fault {s:?}; use fb, leak:N, leakq:N, or swallow"
    ))
}

/// Renders a fault back to its `--fault` operand.
pub fn fault_flag(f: FaultInjection) -> String {
    match f {
        FaultInjection::FbOffByOne => "fb".into(),
        FaultInjection::LeakTask { every } => format!("leak:{every}"),
        FaultInjection::SwallowReissue => "swallow".into(),
        FaultInjection::LeakQueuedTask { every } => format!("leakq:{every}"),
    }
}

// ---------------------------------------------------------------------
// Checked execution
// ---------------------------------------------------------------------

/// The one per-event checked loop behind every fuzz entry point. Builds
/// the simulation with `build`, starts it, and consults the invariant
/// checker after start-up and after *every* event, then the terminal
/// differential oracle. `before_step` sees the verified state before
/// each event (fork mode captures its snapshots there). Building and
/// running sit inside one panic fence, so an engine panic (deadlock,
/// internal assertion, event budget, invalid config) becomes an
/// `engine panic: …` verdict. The simulation is returned alongside the
/// verdict, even after a panic, for whatever the caller reads off it
/// (`None` only when building it panicked).
fn checked_run<S: TraceSink>(
    build: impl FnOnce() -> Simulation<S>,
    mut before_step: impl FnMut(&Simulation<S>),
) -> (Result<(), String>, Option<Simulation<S>>) {
    let mut slot = None;
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let sim = slot.insert(build());
        sim.start();
        sim.verify_invariants().map_err(|v| v.to_string())?;
        loop {
            before_step(sim);
            let more = sim.step();
            sim.verify_invariants()
                .map_err(|v| format!("{v} (at t={}, {} completed)", sim.now(), sim.completed()))?;
            if !more {
                break;
            }
        }
        sim.verify_terminal().map_err(|v| v.to_string())
    }));
    let verdict = outcome
        .unwrap_or_else(|payload| Err(format!("engine panic: {}", panic_text(payload.as_ref()))));
    (verdict, slot)
}

/// `cfg` as every fuzz run uses it: checked mode off (the loop checks
/// every event itself) and the fuzz event budget.
fn fuzz_config(cfg: &SimConfig) -> SimConfig {
    let mut cfg = cfg.clone().with_checked(false);
    cfg.max_events = FUZZ_MAX_EVENTS;
    cfg
}

/// Runs one tree under one configuration with the invariant checker
/// consulted after *every* event (stricter than checked mode's amortized
/// sweep), plus the terminal differential oracle. Returns the first
/// violation, or the failure text of any engine panic (deadlock,
/// internal assertion, event budget).
pub fn run_case(tree: &Tree, cfg: &SimConfig) -> Result<(), String> {
    let build = || Simulation::with_workspace(tree.clone(), fuzz_config(cfg), SimWorkspace::new());
    checked_run(build, |_| {}).0
}

/// Re-runs one case exactly like [`run_case`], but with a bounded flight
/// recorder attached: returns the verdict plus the last `keep` trace
/// events leading up to the violation (or the end of a passing run).
/// `fuzz_protocols --repro` prints this tail so a reproducer comes with
/// its own event-level post-mortem.
pub fn trace_tail(
    tree: &Tree,
    cfg: &SimConfig,
    keep: usize,
) -> (Result<(), String>, Vec<TraceRecord>) {
    let ring = RingRecorder::new(keep.max(1));
    let build = || Simulation::traced(tree.clone(), fuzz_config(cfg), SimWorkspace::new(), ring);
    let (verdict, sim) = checked_run(build, |_| {});
    let tail = sim.map_or_else(Vec::new, |mut sim| sim.sink_mut().tail());
    (verdict, tail)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs `f` with panic messages suppressed (the fuzzer expects panics —
/// deadlocks, injected faults — and would otherwise spray backtraces).
/// The previous hook is restored afterward.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev);
    out
}

// ---------------------------------------------------------------------
// Fork mode: periodic snapshots and suffix replay
// ---------------------------------------------------------------------

/// Default events between fork-mode snapshot captures.
pub const FORK_SNAPSHOT_PERIOD: u64 = 256;

/// Outcome of a fork-mode run: the verdict plus the last periodic
/// [`SimSnapshot`] captured at a checker-verified point *before* the
/// verdict, so a failure can be re-examined by replaying only the
/// suffix instead of the whole run.
pub struct ForkRun {
    /// First violation (or panic text), as in [`run_case`].
    pub verdict: Result<(), String>,
    /// The last snapshot captured before the verdict. `None` only when
    /// the run ended (or failed) before the first capture was due.
    pub snapshot: Option<Box<SimSnapshot>>,
    /// Events processed when [`ForkRun::snapshot`] was captured.
    pub snapshot_events: u64,
    /// Events processed by the whole run (up to and including the
    /// failing event, if any).
    pub total_events: u64,
}

/// Runs one case exactly like [`run_case`], additionally capturing a
/// snapshot every `period` events — each taken right after the checker
/// passed, so every capture is a verified-good state. The returned
/// snapshot is the fork point for [`replay_suffix`].
pub fn run_case_snapshotting(tree: &Tree, cfg: &SimConfig, period: u64) -> ForkRun {
    let period = period.max(1);
    let mut snapshot = None;
    let mut snapshot_events = 0;
    let build = || Simulation::with_workspace(tree.clone(), fuzz_config(cfg), SimWorkspace::new());
    let (verdict, sim) = checked_run(build, |sim| {
        if sim.events_processed() >= snapshot_events + period {
            snapshot = Some(Box::new(sim.snapshot()));
            snapshot_events = sim.events_processed();
        }
    });
    ForkRun {
        verdict,
        snapshot,
        snapshot_events,
        total_events: sim.map_or(0, |sim| sim.events_processed()),
    }
}

/// Replays a fork-mode suffix: restores the snapshot and re-checks
/// every remaining event, exactly like [`run_case`] from that point on.
/// Returns the verdict plus the events the replay processed — for a
/// deterministic engine a [`run_case_snapshotting`] failure must
/// reproduce here with an identical message in
/// `total_events - snapshot_events` events.
pub fn replay_suffix(snap: &SimSnapshot) -> (Result<(), String>, u64) {
    let (verdict, sim) = checked_run(|| Simulation::from_snapshot(snap), |_| {});
    let replayed = sim.map_or(0, |sim| sim.events_processed() - snap.events_processed());
    (verdict, replayed)
}

/// A failing case's post-mortem, as `fuzz_protocols --repro --out`
/// writes it: the newest verified snapshot before the verdict (from
/// [`run_case_snapshotting`] at [`FORK_SNAPSHOT_PERIOD`], or the start
/// state when the run failed before the first capture), and the text
/// trace of the suffix replayed from it, one record per line, up to and
/// including the failing event. [`replay_suffix`] on the snapshot
/// reproduces the case's verdict. `None` when the simulation cannot
/// even be built.
pub fn violation_record(tree: &Tree, cfg: &SimConfig) -> Option<(SimSnapshot, String)> {
    let run = run_case_snapshotting(tree, cfg, FORK_SNAPSHOT_PERIOD);
    let snap = match run.snapshot {
        Some(snap) => *snap,
        None => catch_unwind(AssertUnwindSafe(|| {
            Simulation::new(tree.clone(), fuzz_config(cfg)).snapshot()
        }))
        .ok()?,
    };
    let build = || Simulation::from_snapshot_traced(&snap, SimWorkspace::new(), VecSink::new());
    let (_, sim) = checked_run(build, |_| {});
    let records = sim.map_or_else(Vec::new, |mut sim| {
        std::mem::take(&mut sim.sink_mut().records)
    });
    let trace = records.iter().map(|r| format!("{r}\n")).collect();
    Some((snap, trace))
}

/// Runs a case that must pass in fork mode and replays its last
/// snapshot's suffix, which must reach the same clean end in exactly the
/// events it skipped. `what` names the run in the error.
fn clean_fork(tree: &Tree, cfg: &SimConfig, period: u64, what: &str) -> Result<ForkRun, String> {
    let run = run_case_snapshotting(tree, cfg, period);
    run.verdict
        .as_ref()
        .map_err(|e| format!("{what} fork-mode run flagged: {e}"))?;
    let snap = run
        .snapshot
        .as_ref()
        .ok_or_else(|| format!("{what} run ended before the first capture"))?;
    let (verdict, replayed) = replay_suffix(snap);
    verdict.map_err(|e| format!("{what} suffix replay flagged: {e}"))?;
    let skipped = run.total_events - run.snapshot_events;
    if replayed != skipped {
        return Err(format!(
            "{what} suffix replayed {replayed} events, expected {skipped}"
        ));
    }
    Ok(run)
}

/// Fork-mode self-test: a known-bad run's violation must reproduce from
/// the last periodic snapshot's suffix (with an identical message, in
/// fewer events than the whole run), and a faithful run's snapshot must
/// replay cleanly to the end. Returns a summary, or what broke.
pub fn fork_smoke(seed: u64, tasks: u64) -> Result<String, String> {
    let spec = generate_case(seed, 0);
    let tree = spec.to_tree();
    let period = 16;

    // Leg 1: a faithful run — the suffix replays to the same clean end.
    let good_cfg = variant_by_name("ic-fb2", tasks).expect("known variant");
    let good = clean_fork(&tree, &good_cfg, period, "faithful")?;

    // Leg 2: an injected slow task leak — it breaks conservation well
    // after the first captures, and the violation must reproduce from
    // the suffix alone, word for word.
    let bad_cfg = good_cfg.with_fault(FaultInjection::LeakTask { every: 25 });
    let bad = with_quiet_panics(|| run_case_snapshotting(&tree, &bad_cfg, period));
    let message = match &bad.verdict {
        Err(m) => m.clone(),
        Ok(()) => return Err("injected task leak went undetected in fork mode".into()),
    };
    let Some(snap) = bad.snapshot.as_ref() else {
        return Err("failing run produced no snapshot before the violation".into());
    };
    let (verdict, replayed) = with_quiet_panics(|| replay_suffix(snap));
    match verdict {
        Ok(()) => return Err("violation vanished when replayed from the suffix".into()),
        Err(m) if m != message => {
            return Err(format!(
                "suffix replay found a different violation:\n  full run: {message}\n  suffix:   {m}"
            ));
        }
        Err(_) => {}
    }
    if replayed > bad.total_events - bad.snapshot_events {
        return Err(format!(
            "suffix replay took {replayed} events, more than the {} it skipped to",
            bad.total_events - bad.snapshot_events
        ));
    }
    Ok(format!(
        "fork smoke: clean suffix of {replayed_good} event(s) replayed exactly; \
         leak violation reproduced from a snapshot at event {at} of {total} \
         ({replayed} suffix event(s) instead of a full rerun)",
        replayed_good = good.total_events - good.snapshot_events,
        at = bad.snapshot_events,
        total = bad.total_events,
        replayed = replayed,
    ))
}

/// Open-world (streaming) smoke: a generated arrival plan on a generated
/// tree must (1) pass per-event checking end to end, (2) survive a
/// mid-stream fork — snapshot taken while the arrival schedule is still
/// partially consumed, suffix replayed cleanly to the same end — and
/// (3) have its `LeakQueuedTask` checker-validation fault caught as an
/// `arrival-conservation` violation. Returns a summary, or what broke.
pub fn arrival_smoke(seed: u64, tasks: u64) -> Result<String, String> {
    let spec = generate_case(seed, 0);
    let tree = spec.to_tree();
    // Scan for a deferring plan — backpressure is the richer leg (Drop
    // sheds the overrun instead of queueing it), and `LeakQueuedTask`
    // needs deferrals to corrupt. Three in four plans defer, so this
    // terminates almost immediately; it stays a pure function of `seed`.
    let arr_seed = (0u64..16)
        .map(|k| split_seed(seed ^ FUZZ_ARRIVAL_SALT, k))
        .find(|&s| fuzz_arrival_plan(s).policy == AdmissionPolicy::Defer)
        .ok_or("no deferring plan in 16 derived seeds")?;
    let plan = fuzz_arrival_plan(arr_seed);
    let cfg = variant_by_name("ic-fb2", tasks)
        .expect("known variant")
        .with_arrivals(plan);

    // Leg 1: the streamed run passes per-event checking.
    run_case(&tree, &cfg).map_err(|e| format!("faithful streamed run flagged: {e}"))?;

    // Leg 2: mid-stream fork. A small period lands the kept snapshot
    // inside the stream (pending arrivals and, under backpressure, a
    // non-empty admission queue), and the suffix must replay to the
    // same clean end in exactly the events it skipped to.
    let fork = clean_fork(&tree, &cfg, 32, "streamed")?;

    // Leg 3: the checker must catch a leaked queued task immediately.
    let leaky = cfg.with_fault(FaultInjection::LeakQueuedTask { every: 1 });
    match with_quiet_panics(|| run_case(&tree, &leaky)) {
        Ok(()) => return Err("injected queued-task leak went undetected".into()),
        Err(m) if !m.contains("arrival-conservation") => {
            return Err(format!(
                "queued-task leak surfaced as the wrong violation: {m}"
            ));
        }
        Err(_) => {}
    }
    Ok(format!(
        "arrival smoke: streamed run checked per-event; suffix of {replayed} \
         event(s) (fork at event {at} of {total}) replayed exactly; injected \
         queued-task leak caught as arrival-conservation (arrival seed {arr_seed})",
        replayed = fork.total_events - fork.snapshot_events,
        at = fork.snapshot_events,
        total = fork.total_events,
    ))
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily minimizes a failing case: drop scheduled faults, remove
/// leaves (deepest first), and reduce weights to 1, keeping each
/// mutation only if the failure persists under the *same* base
/// configuration (each candidate re-derives its fault plan from its own
/// schedule). Terminates at a local minimum — every single fault drop,
/// leaf removal, or weight reduction makes the failure vanish.
pub fn shrink(spec: CaseSpec, cfg: &SimConfig) -> CaseSpec {
    let fails = |s: &CaseSpec| run_case(&s.to_tree(), &case_config(s, cfg)).is_err();
    debug_assert!(fails(&spec), "shrinking a passing case");
    let mut spec = spec;
    loop {
        let mut progressed = false;
        // Pass 0: drop scheduled faults, one at a time.
        let mut k = spec.faults.len();
        while k > 0 {
            k -= 1;
            let mut cand = spec.clone();
            cand.faults.remove(k);
            if fails(&cand) {
                spec = cand;
                progressed = true;
            }
        }
        // Pass 1: structural — drop leaves, last (deepest-id) first.
        let mut k = spec.nodes.len();
        while k > 0 {
            k -= 1;
            if k < spec.nodes.len() && spec.is_leaf(k) {
                let cand = spec.without_leaf(k);
                if fails(&cand) {
                    spec = cand;
                    progressed = true;
                }
            }
        }
        // Pass 2: weights toward 1.
        if spec.root_compute > 1 {
            let cand = CaseSpec {
                root_compute: 1,
                ..spec.clone()
            };
            if fails(&cand) {
                spec = cand;
                progressed = true;
            }
        }
        for k in 0..spec.nodes.len() {
            // Re-read the node before each attempt: the comm candidate may
            // have just been accepted, and building the compute candidate
            // from stale values would reinflate comm (and oscillate).
            for comm_first in [true, false] {
                let (p, c, w) = spec.nodes[k];
                let replacement = if comm_first { (p, 1, w) } else { (p, c, 1) };
                if replacement != spec.nodes[k] {
                    let mut cand = spec.clone();
                    cand.nodes[k] = replacement;
                    if fails(&cand) {
                        spec = cand;
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            return spec;
        }
    }
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

/// One minimized failure, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Fuzz case index.
    pub case: usize,
    /// Variant name (see [`variants`]).
    pub variant: &'static str,
    /// The violation or panic text of the *original* case.
    pub message: String,
    /// Node count before shrinking.
    pub original_nodes: usize,
    /// The shrunk spec.
    pub spec: CaseSpec,
    /// Task count the case ran with.
    pub tasks: u64,
    /// Injected fault, if any (self-test runs).
    pub fault: Option<FaultInjection>,
    /// Arrival-plan seed, when the failure came from an open-world leg
    /// (the full plan is [`fuzz_arrival_plan`] of this seed).
    pub arrival_seed: Option<u64>,
}

impl Failure {
    /// The copy-paste reproducer command.
    pub fn repro_command(&self) -> String {
        let mut cmd = format!(
            "cargo run --release -p bc-experiments --bin fuzz_protocols -- \
             --repro '{}' --variant {} --tasks {}",
            self.spec.encode(),
            self.variant,
            self.tasks
        );
        if let Some(s) = self.arrival_seed {
            cmd.push_str(&format!(" --arrivals {s}"));
        }
        if let Some(f) = self.fault {
            cmd.push_str(&format!(" --fault {}", fault_flag(f)));
        }
        cmd
    }
}

/// Fuzz `cases` generated trees, each under every protocol variant —
/// fault-free, then under a generated low-intensity fault plan for the
/// [`FAULT_PLAN_VARIANTS`] subset, then under a generated open-world
/// arrival plan for the [`ARRIVAL_VARIANTS`] subset — in parallel.
/// Failures are shrunk before being returned. `fault` injects a
/// deliberate bug into every run (self-test mode).
pub fn fuzz(
    seed: u64,
    cases: usize,
    tasks: u64,
    fault: Option<FaultInjection>,
) -> (u64, Vec<Failure>) {
    let per_case: Vec<(u64, Vec<Failure>)> = (0..cases)
        .into_par_iter()
        .map(|i| {
            let spec = generate_case(seed, i);
            let tree = spec.to_tree();
            let mut runs = 0u64;
            let mut failures = Vec::new();
            let mut check = |spec: &CaseSpec,
                             tree: &Tree,
                             name: &'static str,
                             base: SimConfig,
                             arrival_seed: Option<u64>| {
                let base = match fault {
                    Some(f) => base.with_fault(f),
                    None => base,
                };
                runs += 1;
                if let Err(message) = run_case(tree, &case_config(spec, &base)) {
                    failures.push(Failure {
                        case: i,
                        variant: name,
                        message,
                        original_nodes: spec.len(),
                        spec: shrink(spec.clone(), &base),
                        tasks,
                        fault,
                        arrival_seed,
                    });
                }
            };
            for (name, cfg) in variants(tasks) {
                check(&spec, &tree, name, cfg, None);
            }
            let faulted = CaseSpec {
                faults: generate_faults(seed, i, &spec),
                ..spec.clone()
            };
            for name in FAULT_PLAN_VARIANTS {
                let cfg = variant_by_name(name, tasks).expect("known fault-plan variant");
                check(&faulted, &tree, name, cfg, None);
            }
            // Open-world legs: the same tree fed by a streamed workload
            // (fault-free spec, so the admission-bound invariant stays
            // armed). The plan is a pure function of the arrival seed.
            let arr_seed = split_seed(seed ^ FUZZ_ARRIVAL_SALT, i as u64);
            for name in ARRIVAL_VARIANTS {
                let cfg = variant_by_name(name, tasks)
                    .expect("known arrival variant")
                    .with_arrivals(fuzz_arrival_plan(arr_seed));
                check(&spec, &tree, name, cfg, Some(arr_seed));
            }
            (runs, failures)
        })
        .collect();
    let mut runs = 0;
    let mut failures = Vec::new();
    for (r, f) in per_case {
        runs += r;
        failures.extend(f);
    }
    (runs, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_encoding() {
        for i in 0..24 {
            let spec = generate_case(7, i);
            let decoded = CaseSpec::decode(&spec.encode()).unwrap();
            assert_eq!(decoded, spec);
            spec.to_tree().validate().unwrap();
        }
    }

    #[test]
    fn decode_rejects_malformed_specs() {
        for bad in [
            "", "5", "0|0:1:1", "5|1:1:1", // parent does not precede node 1
            "5|0:0:1", // zero comm
            "5|0:1:x", // non-numeric
            "5|0:1",   // missing field
        ] {
            assert!(CaseSpec::decode(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(CaseSpec::decode("5|").unwrap().len(), 1);
    }

    #[test]
    fn shapes_generate_their_structure() {
        // Deep chains are chains; wide fans are stars.
        let chain = generate_case(3, 1); // SHAPES[1] = DeepChain
        assert!(chain.nodes.iter().enumerate().all(|(k, &(p, _, _))| p == k));
        let fan = generate_case(3, 2); // SHAPES[2] = WideFan
        assert!(fan.nodes.iter().all(|&(p, _, _)| p == 0));
        assert!(fan.len() >= 9);
    }

    #[test]
    fn faulted_specs_roundtrip_through_encoding() {
        for i in 0..24 {
            let mut spec = generate_case(7, i);
            spec.faults = generate_faults(7, i, &spec);
            assert!(!spec.faults.is_empty());
            assert!(spec.encode().matches('|').count() == 2);
            let decoded = CaseSpec::decode(&spec.encode()).unwrap();
            assert_eq!(decoded, spec);
            let plan = decoded.to_fault_plan().unwrap();
            assert_eq!(plan.seed, FUZZ_FAULT_SEED);
            SimConfig::interruptible(3, 100)
                .with_fault_plan(plan)
                .validate(&decoded.to_tree())
                .unwrap();
        }
    }

    #[test]
    fn decode_rejects_malformed_fault_segments() {
        for bad in [
            "5|0:1:1|x:3:1",    // unknown kind
            "5|0:1:1|c:3:0",    // crash of the repository
            "5|0:1:1|c:3:2",    // node out of range
            "5|0:1:1|l:3:1",    // loss without batch count
            "5|0:1:1|o:hi:1:4", // non-numeric time
        ] {
            assert!(CaseSpec::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn dropping_a_leaf_drops_and_renumbers_its_faults() {
        // Chain 0 -> 1 -> 2, faults on both non-root nodes.
        let spec = CaseSpec {
            root_compute: 5,
            nodes: vec![(0, 1, 1), (1, 1, 1)],
            faults: vec![
                FaultEvent {
                    at: 10,
                    node: NodeId(1),
                    kind: FaultKind::TransferAbort,
                },
                FaultEvent {
                    at: 20,
                    node: NodeId(2),
                    kind: FaultKind::Crash,
                },
            ],
        };
        let shrunk = spec.without_leaf(1); // removes node id 2
        assert_eq!(shrunk.nodes.len(), 1);
        assert_eq!(shrunk.faults.len(), 1);
        assert_eq!(shrunk.faults[0].node, NodeId(1));
        // Removing node 1 from a fan renumbers node 2's fault to node 1.
        let fan = CaseSpec {
            root_compute: 5,
            nodes: vec![(0, 1, 1), (0, 1, 1)],
            faults: vec![FaultEvent {
                at: 20,
                node: NodeId(2),
                kind: FaultKind::Crash,
            }],
        };
        let shrunk = fan.without_leaf(0);
        assert_eq!(shrunk.faults[0].node, NodeId(1));
    }

    #[test]
    fn faithful_variants_pass_a_fuzz_slice() {
        let (runs, failures) = fuzz(2003, 12, 120, None);
        assert_eq!(
            runs,
            12 * (variants(1).len() + FAULT_PLAN_VARIANTS.len() + ARRIVAL_VARIANTS.len()) as u64
        );
        assert!(
            failures.is_empty(),
            "faithful protocol flagged: {} ({})",
            failures[0].message,
            failures[0].repro_command()
        );
    }

    #[test]
    fn injected_fb_fault_is_caught_and_shrunk_small() {
        let failures = with_quiet_panics(|| {
            let (_, f) = fuzz(2003, 2, 120, Some(FaultInjection::FbOffByOne));
            f
        });
        assert!(!failures.is_empty(), "FB off-by-one went undetected");
        for f in &failures {
            assert!(
                f.spec.len() <= 5,
                "shrunk reproducer still has {} nodes",
                f.spec.len()
            );
            assert!(f.message.contains("buffer-bound"), "got: {}", f.message);
        }
    }

    #[test]
    fn swallowed_reissue_is_caught_under_fault_plans() {
        // SwallowReissue only bites when an environment fault loses a
        // task — the fault-plan legs provide the crashes and aborts.
        let failures = with_quiet_panics(|| {
            let (_, f) = fuzz(2003, 6, 150, Some(FaultInjection::SwallowReissue));
            f
        });
        assert!(!failures.is_empty(), "swallowed reissue went undetected");
        assert!(
            failures
                .iter()
                .any(|f| f.message.contains("task-conservation")),
            "got: {}",
            failures[0].message
        );
        // The reproducer round-trips its fault schedule.
        let with_faults = failures.iter().find(|f| !f.spec.faults.is_empty());
        if let Some(f) = with_faults {
            let spec = CaseSpec::decode(&f.spec.encode()).unwrap();
            assert_eq!(spec.faults, f.spec.faults);
            assert!(f.repro_command().contains("--fault swallow"));
            let cfg = variant_by_name(f.variant, f.tasks)
                .unwrap()
                .with_fault(FaultInjection::SwallowReissue);
            assert!(
                with_quiet_panics(|| run_case(&spec.to_tree(), &case_config(&spec, &cfg))).is_err()
            );
        }
    }

    #[test]
    fn injected_leak_fault_is_caught() {
        let failures = with_quiet_panics(|| {
            let (_, f) = fuzz(2003, 1, 200, Some(FaultInjection::LeakTask { every: 5 }));
            f
        });
        assert!(!failures.is_empty(), "task leak went undetected");
        assert!(
            failures[0].message.contains("task-conservation"),
            "got: {}",
            failures[0].message
        );
    }

    #[test]
    fn periodic_snapshot_resumes_exactly() {
        // A snapshot kept by a fork-mode run resumes to the result of
        // the run it was captured from.
        let tree = bc_platform::RandomTreeConfig::default().generate(5);
        let cfg = SimConfig::interruptible(2, 200);
        let run = run_case_snapshotting(&tree, &cfg, 64);
        run.verdict.expect("faithful run passes");
        let snap = run.snapshot.expect("periodic capture must have fired");
        assert!(run.snapshot_events >= 64);
        let mut resumed = snap.resume();
        while resumed.step() {}
        assert_eq!(resumed.run(), Simulation::new(tree, cfg).run());
    }

    #[test]
    fn violation_record_replays_to_the_verdict() {
        // The FB off-by-one case fails before the first capture, so its
        // record starts from the start state; the slow leak fails after
        // two captures. Either record's trace ends at the violating event.
        let spec = CaseSpec::decode("5|0:3:2;0:1:4;1:2:2").unwrap();
        let tree = spec.to_tree();
        for (variant, tasks, fault, captured_at) in [
            ("ic-fb3", 250, FaultInjection::FbOffByOne, 0),
            ("ic-fb2", 2000, FaultInjection::LeakTask { every: 300 }, 512),
        ] {
            let cfg = variant_by_name(variant, tasks).unwrap().with_fault(fault);
            let cfg = case_config(&spec, &cfg);
            let verdict = run_case(&tree, &cfg).expect_err("injected fault is caught");
            let (snap, trace) = violation_record(&tree, &cfg).expect("buildable case");
            assert_eq!(snap.events_processed(), captured_at);
            assert_eq!(replay_suffix(&snap).0, Err(verdict));
            let (_, tail) = trace_tail(&tree, &cfg, 1);
            assert_eq!(trace.lines().last(), Some(tail[0].to_string().as_str()));
        }
    }

    #[test]
    fn fork_smoke_validates_suffix_replay() {
        let msg = fork_smoke(2003, 120).expect("fork smoke must pass on a faithful engine");
        assert!(msg.contains("reproduced"), "{msg}");
    }

    #[test]
    fn arrival_smoke_validates_open_world_checking() {
        let msg = arrival_smoke(2003, 120).expect("arrival smoke must pass on a faithful engine");
        assert!(msg.contains("arrival-conservation"), "{msg}");
        assert!(msg.contains("replayed exactly"), "{msg}");
    }

    #[test]
    fn injected_queued_task_leak_is_caught_on_arrival_legs() {
        // `LeakQueuedTask` only bites where there is an admission queue
        // to corrupt — the closed-world legs never defer, so exactly the
        // open-world legs (with a deferring plan) must flag it.
        let failures = with_quiet_panics(|| {
            let (_, f) = fuzz(
                2003,
                4,
                120,
                Some(FaultInjection::LeakQueuedTask { every: 1 }),
            );
            f
        });
        assert!(!failures.is_empty(), "queued-task leak went undetected");
        let flagged = failures
            .iter()
            .find(|f| f.message.contains("arrival-conservation"))
            .expect("leak must surface as arrival-conservation");
        let arr_seed = flagged.arrival_seed.expect("an open-world leg caught it");
        assert!(
            flagged
                .repro_command()
                .contains(&format!("--arrivals {arr_seed}")),
            "{}",
            flagged.repro_command()
        );
        // The reproducer's ingredients rebuild a failing run.
        let cfg = variant_by_name(flagged.variant, flagged.tasks)
            .unwrap()
            .with_arrivals(fuzz_arrival_plan(arr_seed))
            .with_fault(FaultInjection::LeakQueuedTask { every: 1 });
        let spec = CaseSpec::decode(&flagged.spec.encode()).unwrap();
        assert!(with_quiet_panics(|| run_case(&spec.to_tree(), &cfg)).is_err());
    }

    #[test]
    fn suffix_replay_matches_the_full_verdict() {
        // A failing run's violation reproduces word-for-word from the
        // last snapshot; the suffix is shorter than the whole run. The
        // slow leak fails long after the first captures (FB off-by-one
        // would trip before any snapshot exists).
        let spec = generate_case(7, 3);
        let cfg = variant_by_name("ic-fb3", 150)
            .unwrap()
            .with_fault(FaultInjection::LeakTask { every: 30 });
        let fork = with_quiet_panics(|| run_case_snapshotting(&spec.to_tree(), &cfg, 32));
        let message = fork.verdict.expect_err("task leak must be caught");
        let snap = fork.snapshot.expect("snapshot before the violation");
        assert!(fork.snapshot_events < fork.total_events);
        let (verdict, replayed) = with_quiet_panics(|| replay_suffix(&snap));
        assert_eq!(verdict.expect_err("must reproduce"), message);
        assert!(replayed <= fork.total_events - fork.snapshot_events);
    }

    #[test]
    fn trace_tail_accompanies_the_verdict() {
        // A passing run: verdict Ok, tail bounded and ending at the final
        // completion.
        let spec = generate_case(2003, 0);
        let cfg = variant_by_name("ic-fb2", 60).unwrap();
        let (verdict, tail) = trace_tail(&spec.to_tree(), &cfg, 25);
        assert!(verdict.is_ok(), "{verdict:?}");
        assert_eq!(tail.len(), 25);
        assert!(matches!(
            tail.last().unwrap().event,
            bc_simcore::TraceEvent::ComputeFinish { .. }
        ));
        // A faulty run: verdict Err, and the tail still came back even
        // though the failure surfaced mid-run.
        let cfg = cfg.with_fault(FaultInjection::FbOffByOne);
        let (verdict, tail) = with_quiet_panics(|| trace_tail(&spec.to_tree(), &cfg, 25));
        assert!(verdict.is_err());
        assert!(!tail.is_empty());
    }

    #[test]
    fn repro_command_names_the_shrunk_spec() {
        let failures = with_quiet_panics(|| {
            let (_, f) = fuzz(5, 1, 100, Some(FaultInjection::FbOffByOne));
            f
        });
        let cmd = failures[0].repro_command();
        assert!(cmd.contains("--repro"), "{cmd}");
        assert!(cmd.contains("--fault fb"), "{cmd}");
        // The printed spec must itself decode and still fail.
        let spec = CaseSpec::decode(&failures[0].spec.encode()).unwrap();
        let cfg = variant_by_name(failures[0].variant, 100)
            .unwrap()
            .with_fault(FaultInjection::FbOffByOne);
        assert!(run_case(&spec.to_tree(), &cfg).is_err());
    }
}
