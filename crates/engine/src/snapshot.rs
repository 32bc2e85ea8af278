//! Snapshot, restore, and what-if forking of a running simulation.
//!
//! A [`SimSnapshot`] captures the *complete* state of a [`Simulation`]
//! at a quiescent point (between [`Simulation::step`]s): the platform
//! tree, the configuration, every workspace arena — the two-tier agenda
//! including tombstones, drained-bucket heads, slot generations and the
//! free-list order, so outstanding [`bc_simcore::EventHandle`]s stay
//! valid — and every progress cursor. A simulation rebuilt from a
//! snapshot continues **bit-identically**: same `RunResult`, same trace
//! suffix, same panics (the `snapshot_roundtrip` suite proptests this
//! across protocols, fault legs, scripted changes, and arrival legs).
//!
//! Three consumers:
//!
//! * **What-if forking** ([`SimSnapshot::fork`]): branch K divergent
//!   continuations off one mid-run state — degrade a link, inject a
//!   crash — and diff the outcomes through the existing trace folds
//!   (`whatif` binary).
//! * **Fuzzer suffix replay**: `fuzz_protocols` snapshots periodically
//!   and re-confirms failures from the last snapshot, exercising
//!   restore exactness adversarially.
//! * **Checker time travel**: checked mode keeps a periodic snapshot
//!   and, on an invariant violation, emits it plus the replayed trace
//!   suffix leading up to the violation (`BC_SNAPSHOT_DIR` or the
//!   system temp dir).
//!
//! The workspace arenas, the progress cursors and the arrival state are
//! the simulation's own `RunState`, `Progress` and `ArrivalState`
//! structs, cloned on capture and on restore; only the agenda has a
//! snapshot form of its own.
//!
//! Snapshots also serialize to a compact versioned binary format
//! ([`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`]): magic
//! `BCSS`, a format version byte, then LEB128 varints for integers.
//! The format is self-contained (tree and config travel with the
//! state) and re-encoding a decoded snapshot reproduces the input
//! bytes exactly. The layout is written once, as the `wire_struct!` /
//! `wire_enum!` listings at the end of this file (see `crate::wire`):
//! their order *is* the byte layout, so reordering an entry is a format
//! change that needs a `VERSION` bump and re-captured golden fixtures.

use crate::arrivals::{AdmissionPolicy, ArrivalPlan, ArrivalProcess, TaskClass};
use crate::config::{
    ChangeKind, FaultEvent, FaultInjection, FaultKind, FaultPlan, PlannedChange, Protocol,
    RecoveryTuning, SelectorKind, SimConfig,
};
use crate::result::FaultStats;
use crate::sim::{
    ActiveTransfer, ArrivalState, ColdNode, Event, FaultRt, HotNode, Progress, RunState, Sending,
    SimWorkspace, Simulation, SlotTransfer,
};
use crate::wire::{get_n, wire_enum, wire_struct, Rd, Wire};
use bc_core::{
    BufferLedger, BufferPolicy, ChildSelector, GrowthGate, LatencyObserver, LedgerState,
    ObserverKind, ObserverState,
};
use bc_platform::{NodeId, Tree};
use bc_simcore::{AgendaSnapshot, NullSink, SlotSnapshot, Time, TraceSink, VecSink, NEAR_BUCKETS};

// ---------------------------------------------------------------------------
// In-memory snapshot types
// ---------------------------------------------------------------------------

/// Capture of a [`SimWorkspace`]: the agenda's own snapshot and a clone
/// of the run state. The between-steps scratch (service queue, queued
/// flags, candidate list) is empty at any quiescent point and is not
/// captured; restore re-clears it.
#[derive(Clone)]
pub(crate) struct WorkspaceSnapshot {
    pub(crate) agenda: AgendaSnapshot<Event>,
    pub(crate) st: RunState,
}

/// Complete mid-run state of a [`Simulation`], captured by
/// [`Simulation::snapshot`]. Self-contained: the tree and configuration
/// travel with the runtime state, so a snapshot can be serialized,
/// shipped, and resumed elsewhere.
#[derive(Clone)]
pub struct SimSnapshot {
    pub(crate) tree: Tree,
    pub(crate) cfg: SimConfig,
    pub(crate) ws: WorkspaceSnapshot,
    pub(crate) cur: Progress,
    /// The arrival runtime's state; `Some` exactly when `cfg.arrivals`
    /// is (the schedule is regenerated from the plan on restore).
    pub(crate) arrivals: Option<ArrivalState>,
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("nodes", &self.tree.len())
            .field("now", &self.ws.agenda.now)
            .field("events_processed", &self.cur.events_processed)
            .field("completed", &self.cur.completed)
            .field("finished", &self.cur.finished)
            .finish_non_exhaustive()
    }
}

impl SimSnapshot {
    /// Simulation time at capture.
    pub fn now(&self) -> Time {
        self.ws.agenda.now
    }

    /// Events processed up to capture.
    pub fn events_processed(&self) -> u64 {
        self.cur.events_processed
    }

    /// Tasks completed up to capture.
    pub fn completed(&self) -> u64 {
        self.cur.completed
    }

    /// The platform tree as of capture (scripted changes applied).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The run configuration.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Builds the unmodified continuation — shorthand for
    /// [`Simulation::from_snapshot`].
    pub fn resume(&self) -> Simulation {
        Simulation::from_snapshot(self)
    }

    /// Builds a what-if branch: clones this snapshot, lets `tweak`
    /// perturb it through a [`WhatIf`], and returns the divergent
    /// continuation. The original snapshot is untouched, so K branches
    /// can be forked off the same capture.
    pub fn fork(&self, tweak: impl FnOnce(&mut WhatIf)) -> Simulation {
        self.fork_traced(SimWorkspace::new(), NullSink, tweak)
    }

    /// [`SimSnapshot::fork`] with a caller-supplied workspace and trace
    /// sink, for branches whose divergence is diffed through trace folds.
    pub fn fork_traced<S: TraceSink>(
        &self,
        ws: SimWorkspace,
        sink: S,
        tweak: impl FnOnce(&mut WhatIf),
    ) -> Simulation<S> {
        let mut what_if = WhatIf {
            snap: self.clone(),
            touched: Vec::new(),
            injected: Vec::new(),
        };
        tweak(&mut what_if);
        let WhatIf {
            snap,
            touched,
            injected,
        } = what_if;
        let mut sim = Simulation::from_snapshot_traced(&snap, ws, sink);
        sim.apply_fork_edits(&touched, &injected);
        sim
    }
}

/// Mutator handed to [`SimSnapshot::fork`] closures: the supported
/// divergence axes of a what-if branch. Weight changes follow the exact
/// semantics of a scripted [`ChangeKind`] applied at the fork instant
/// (in-flight work keeps its old duration; the neighborhood is
/// re-examined under the new weights); injected faults join the fault
/// plan and strike at their scheduled time (clamped to the fork
/// instant if already past).
pub struct WhatIf {
    snap: SimSnapshot,
    touched: Vec<usize>,
    injected: Vec<FaultEvent>,
}

impl WhatIf {
    /// Simulation time of the fork point.
    pub fn now(&self) -> Time {
        self.snap.now()
    }

    /// The branch's platform tree (pre-tweak weights until set below).
    pub fn tree(&self) -> &Tree {
        &self.snap.tree
    }

    /// Sets the edge weight `c_node` from the fork instant on, exactly
    /// like a scripted [`ChangeKind::CommTime`].
    pub fn set_comm_time(&mut self, node: NodeId, c: u64) {
        self.set_weight(node, ChangeKind::CommTime(c));
    }

    /// Sets the compute weight `w_node` from the fork instant on,
    /// exactly like a scripted [`ChangeKind::ComputeTime`].
    pub fn set_compute_time(&mut self, node: NodeId, w: u64) {
        self.set_weight(node, ChangeKind::ComputeTime(w));
    }

    fn set_weight(&mut self, node: NodeId, kind: ChangeKind) {
        let snap = &mut self.snap;
        if let Some(p) = snap.ws.st.set_weight(&mut snap.tree, node, kind) {
            self.touched.push(p);
        }
        self.touched.push(node.index());
        self.register_change(node, kind);
    }

    /// Records an already-applied weight tweak in the branch's change
    /// script, just before the cursor: the branch configuration then
    /// documents that its platform mutated mid-run (so the terminal
    /// theory oracle, which requires a static platform, knows to stand
    /// down — exactly as for a scripted change).
    fn register_change(&mut self, node: NodeId, kind: ChangeKind) {
        let idx = self.snap.cur.next_change;
        self.snap.cfg.changes.insert(
            idx,
            PlannedChange {
                after_tasks: self.snap.cur.completed,
                node,
                kind,
            },
        );
        self.snap.cur.next_change += 1;
    }

    /// Schedules an additional environment fault on the branch. Faults
    /// dated before the fork instant strike immediately. If the
    /// captured run had no fault plan, a default-tuned one is
    /// materialized and the branch runs the fault-aware event loop.
    pub fn add_fault(&mut self, fault: FaultEvent) {
        assert!(
            fault.node.index() < self.snap.ws.st.hot.len(),
            "fault targets unknown node {}",
            fault.node
        );
        self.injected.push(fault);
    }
}

// ---------------------------------------------------------------------------
// Workspace capture / restore
// ---------------------------------------------------------------------------

impl SimWorkspace {
    /// Captures every runtime container verbatim. Must be called at a
    /// quiescent point (the between-steps scratch is empty and is not
    /// captured).
    pub(crate) fn snapshot(&self) -> WorkspaceSnapshot {
        // The candidate scratch is cleared at its next use (not after),
        // so it may hold stale content here; only the service queue
        // proves quiescence.
        debug_assert!(
            self.service_queue.is_empty(),
            "workspace snapshot requires quiescence (between steps)"
        );
        WorkspaceSnapshot {
            agenda: self.agenda.snapshot(),
            st: self.st.clone(),
        }
    }

    /// Overwrites this workspace with a captured state, reusing the
    /// agenda's and the scratch containers' allocations.
    pub(crate) fn restore(&mut self, s: &WorkspaceSnapshot) {
        self.agenda.restore(&s.agenda);
        self.st = s.st.clone();
        self.clear_scratch(s.st.hot.len());
    }
}

// ---------------------------------------------------------------------------
// Checker time travel
// ---------------------------------------------------------------------------

/// Checked-mode flight recorder: a periodic full snapshot so an
/// invariant violation can be replayed from just before it. Lives
/// behind `cfg.checked`; the unchecked hot path never touches it.
pub(crate) struct TimeTravel {
    /// Events between captures (`BC_TIME_TRAVEL_PERIOD`, default 32768 —
    /// large enough that short checked tests never capture at all).
    pub(crate) period: u64,
    /// The newest capture and the event count it was taken at.
    pub(crate) last: Option<(Box<SimSnapshot>, u64)>,
}

impl TimeTravel {
    pub(crate) fn from_env() -> TimeTravel {
        let period = std::env::var("BC_TIME_TRAVEL_PERIOD")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&p: &u64| p > 0)
            .unwrap_or(32_768);
        TimeTravel { period, last: None }
    }
}

impl<S: TraceSink> Simulation<S> {
    /// Turns on (or re-tunes) periodic time-travel snapshots: every
    /// `period` events the simulation keeps a full [`SimSnapshot`], and
    /// a checked-mode invariant violation dumps the newest one plus the
    /// replayed trace suffix leading up to the violation. Checked mode
    /// arms this automatically with a large period; tests and the
    /// fuzzer use a small one.
    pub fn enable_time_travel(&mut self, period: u64) {
        assert!(period > 0, "time-travel period must be positive");
        match &mut self.time_travel {
            Some(tt) => tt.period = period,
            None => {
                self.time_travel = Some(Box::new(TimeTravel { period, last: None }));
            }
        }
    }

    /// The newest periodic snapshot and the event count it was taken at,
    /// if time travel is armed and a capture has happened.
    pub fn last_time_travel_snapshot(&self) -> Option<(&SimSnapshot, u64)> {
        self.time_travel
            .as_deref()
            .and_then(|tt| tt.last.as_ref().map(|(s, at)| (s.as_ref(), *at)))
    }

    /// Checked-tick hook: captures a periodic snapshot when one is due.
    /// Called *after* the invariant sweep, so only verified-good states
    /// are kept.
    pub(crate) fn time_travel_tick(&mut self) {
        let due = match self.time_travel.as_deref() {
            Some(tt) => {
                let since = match &tt.last {
                    Some((_, at)) => self.cur.events_processed.saturating_sub(*at),
                    None => self.cur.events_processed,
                };
                since >= tt.period && !self.cur.finished
            }
            None => false,
        };
        if due {
            let snap = Box::new(self.snapshot());
            let at = self.cur.events_processed;
            if let Some(tt) = self.time_travel.as_deref_mut() {
                tt.last = Some((snap, at));
            }
        }
    }

    /// Violation read-out: writes the newest periodic snapshot and the
    /// trace suffix replayed from it (checker off, stopping just before
    /// the violating event) to `BC_SNAPSHOT_DIR` or the system temp
    /// dir. Prints the paths to stderr; best-effort — IO errors only
    /// warn.
    pub(crate) fn dump_time_travel(&self) {
        let Some(tt) = self.time_travel.as_deref() else {
            return;
        };
        let Some((snap, at)) = &tt.last else {
            eprintln!(
                "time travel: no snapshot captured yet (period {}, violation at event {})",
                tt.period, self.cur.events_processed
            );
            return;
        };
        let dir = std::env::var_os("BC_SNAPSHOT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let stem = format!(
            "bc-violation-{}-{}",
            std::process::id(),
            self.cur.events_processed
        );
        let snap_path = dir.join(format!("{stem}.snap"));
        match std::fs::write(&snap_path, snap.to_bytes()) {
            Ok(()) => eprintln!(
                "time travel: snapshot at event {at} (t={}) written to {}",
                snap.now(),
                snap_path.display()
            ),
            Err(e) => eprintln!("time travel: could not write {}: {e}", snap_path.display()),
        }
        // Replay the suffix up to just before the violating event, with
        // the checker off so the replay itself cannot re-panic; shield
        // against the underlying bug blowing up earlier than the check
        // did.
        let target = self.cur.events_processed.saturating_sub(1);
        let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut branch = (**snap).clone();
            branch.cfg.checked = false;
            let mut sim =
                Simulation::from_snapshot_traced(&branch, SimWorkspace::new(), VecSink::new());
            while sim.cur.events_processed < target && sim.step() {}
            sim.sink.records
        }));
        match replay {
            Ok(records) => {
                let trace_path = dir.join(format!("{stem}.trace"));
                let mut text = String::new();
                for r in &records {
                    text.push_str(&r.to_string());
                    text.push('\n');
                }
                match std::fs::write(&trace_path, text) {
                    Ok(()) => eprintln!(
                        "time travel: {} replayed suffix event(s) written to {}",
                        records.len(),
                        trace_path.display()
                    ),
                    Err(e) => {
                        eprintln!("time travel: could not write {}: {e}", trace_path.display())
                    }
                }
            }
            Err(_) => eprintln!("time travel: suffix replay itself panicked before event {target}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary serialization
// ---------------------------------------------------------------------------

/// Why [`SimSnapshot::from_bytes`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended mid-field.
    Truncated,
    /// The `BCSS` magic is missing — not a snapshot.
    BadMagic,
    /// A snapshot from a newer (or corrupt) format revision.
    UnsupportedVersion(u8),
    /// A structural consistency check failed.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "missing BCSS magic"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const MAGIC: &[u8; 4] = b"BCSS";
// v2: open-world arrivals (config plan, `Arrival` event tag, cursor layer).
// Three v2 fields outlive the removed event-elision mechanism and stay
// reserved so old snapshots still decode: the config flag byte, the
// cursor's elided-event varint, and event tag 1.
const VERSION: u8 = 2;

impl SimSnapshot {
    /// Serializes to the versioned binary snapshot format (see the
    /// module docs). Deterministic: equal snapshots yield equal bytes,
    /// and re-encoding a decoded snapshot reproduces its input.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(256);
        b.extend_from_slice(MAGIC);
        b.push(VERSION);
        self.put(&mut b);
        b
    }

    /// Decodes a snapshot serialized by [`SimSnapshot::to_bytes`].
    /// Structural consistency (magic, version, tags, lengths, CSR
    /// shape) is verified; semantic validity — that the state is one a
    /// real run can reach — is trusted, as with any checkpoint file.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapshotError> {
        if bytes.get(..MAGIC.len()) != Some(&MAGIC[..]) {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = Rd::new(&bytes[MAGIC.len()..]);
        let version = u8::get(&mut r)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let snap = SimSnapshot::get(&mut r)?;
        if !r.at_end() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// The BCSS layout
// ---------------------------------------------------------------------------
//
// After the magic and the version byte, a snapshot is one `SimSnapshot`
// record. Every listing below is the byte layout of its record: entries
// are written in the order listed, by the encodings of `crate::wire`.
// Reordering, adding or removing an entry changes the format: bump
// `VERSION` and re-capture the golden fixtures under
// `crates/engine/tests/fixtures/`.

wire_struct!(SimSnapshot { tree, cfg, ws, cur, arrivals } check snapshot_consistent);

fn snapshot_consistent(s: &SimSnapshot) -> Result<(), SnapshotError> {
    if s.ws.st.hot.len() != s.tree.len() {
        return Err(SnapshotError::Corrupt("arena size != tree size"));
    }
    // Restore unwraps the pairing of an arrival plan and its state.
    if s.cfg.arrivals.is_some() != s.arrivals.is_some() {
        return Err(SnapshotError::Corrupt("arrival plan/cursor mismatch"));
    }
    Ok(())
}

/// The tree: node count and root weight, then each non-root node's
/// parent, edge weight and compute weight, in id order. Re-adding the
/// nodes in id order reproduces the child lists, which are in id order
/// by construction.
impl Wire for Tree {
    const MIN: usize = 2;
    fn put(&self, b: &mut Vec<u8>) {
        self.len().put(b);
        self.root().compute_time.put(b);
        for id in self.ids().skip(1) {
            let node = self.node(id);
            node.parent.expect("non-root has parent").put(b);
            node.comm_time.put(b);
            node.compute_time.put(b);
        }
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let n = r.len_capped(1)?;
        if n == 0 {
            return Err(SnapshotError::Corrupt("empty tree"));
        }
        let root_w = u64::get(r)?;
        if root_w == 0 {
            return Err(SnapshotError::Corrupt("zero compute weight"));
        }
        let mut tree = Tree::new(root_w);
        for id in 1..n {
            let parent = NodeId::get(r)?;
            let (comm, compute) = (u64::get(r)?, u64::get(r)?);
            if parent.index() >= id {
                return Err(SnapshotError::Corrupt("parent does not precede child"));
            }
            if comm == 0 || compute == 0 {
                return Err(SnapshotError::Corrupt("zero edge/compute weight"));
            }
            tree.add_child(parent, comm, compute);
        }
        Ok(tree)
    }
}

impl Wire for NodeId {
    const MIN: usize = 1;
    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        u32::get(r).map(NodeId)
    }
}

// ----- configuration --------------------------------------------------------

wire_struct!(SimConfig {
    protocol,
    buffers,
    selector,
    observer,
    self_first,
    total_tasks,
    checkpoints,
    changes,
    max_events,
    checked,
    // The removed event-elision flag, written as its old default.
    reserved true,
    fault as InjectionSlot,
    fault_plan,
    arrivals,
});

wire_enum!(Protocol, "protocol tag out of range" {
    0 => NonInterruptible,
    1 => Interruptible,
});

wire_enum!(BufferPolicy, "buffer policy tag out of range" {
    0 => Fixed(k),
    1 => Growable { initial, cap, gate, decay_after },
});

wire_enum!(GrowthGate, "growth gate out of range" {
    0 => EveryEvent,
    1 => OncePerArrival,
    2 => AfterPoolFilled,
});

wire_enum!(SelectorKind, "selector tag out of range" {
    0 => BandwidthCentric,
    1 => ComputeCentric,
    2 => RoundRobin,
});

wire_enum!(ObserverKind, "observer tag out of range" {
    0 => Oracle,
    1 => LastSample { initial },
    2 => Ema { initial, num, den },
} check ema_weight_valid);

fn ema_weight_valid(kind: &ObserverKind) -> Result<(), SnapshotError> {
    match *kind {
        ObserverKind::Ema { num, den, .. } if num == 0 || den == 0 || num > den => {
            Err(SnapshotError::Corrupt("EMA weight out of range"))
        }
        _ => Ok(()),
    }
}

wire_struct!(PlannedChange {
    after_tasks,
    node,
    kind,
});

wire_enum!(ChangeKind, "change tag out of range" {
    0 => CommTime(c),
    1 => ComputeTime(w),
    2 => Join { comm, compute },
    3 => Leave,
});

wire_enum!(FaultInjection, "fault-injection tag out of range" {
    1 => FbOffByOne,
    2 => LeakTask { every },
    3 => SwallowReissue,
    4 => LeakQueuedTask { every },
});

/// `SimConfig::fault` has no presence tag: 0 means no injection, and
/// the injections' own tags start at 1.
struct InjectionSlot(Option<FaultInjection>);

impl Wire for InjectionSlot {
    const MIN: usize = 1;
    fn put(&self, b: &mut Vec<u8>) {
        match &self.0 {
            None => b.push(0),
            Some(f) => f.put(b),
        }
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        if r.peek()? == 0 {
            u8::get(r)?;
            return Ok(InjectionSlot(None));
        }
        FaultInjection::get(r).map(|f| InjectionSlot(Some(f)))
    }
}

wire_struct!(FaultPlan {
    seed,
    faults,
    recovery,
});

wire_struct!(FaultEvent { at, node, kind });

wire_enum!(FaultKind, "fault kind out of range" {
    0 => RequestLoss { batches },
    1 => TransferAbort,
    2 => LinkOutage { duration },
    3 => Crash,
    4 => DuplicateDelivery { copies },
});

wire_struct!(RecoveryTuning {
    request_timeout,
    backoff_cap,
    max_retries,
    missed_ack_threshold,
    reissue_delay,
});

wire_struct!(ArrivalPlan {
    seed,
    classes,
    queue_cap,
    policy,
});

wire_struct!(TaskClass {
    name,
    work_units,
    process,
});

wire_enum!(ArrivalProcess, "arrival process tag out of range" {
    0 => Poisson { mean_gap, count },
    1 => Burst { phase, period, size, bursts },
    2 => Trace { times },
});

wire_enum!(AdmissionPolicy, "admission policy tag out of range" {
    0 => Drop,
    1 => Defer,
});

// ----- workspace --------------------------------------------------------------

wire_struct!(WorkspaceSnapshot { agenda, st });

// Per-node arrays take their length from `hot`, per-edge arrays from
// `kid_node`; neither carries a prefix of its own.
wire_struct!(RunState {
    hot,
    cold[hot.len()],
    sending[hot.len()],
    active[hot.len()],
    faults[hot.len()],
    parent_of[hot.len()] as ParentLink,
    child_pos[hot.len()],
    kid_start[hot.len() + 1],
    kid_node,
    kid_pending[kid_node.len()],
    kid_slot[kid_node.len()],
    kid_comm[kid_node.len()],
    kid_compute[kid_node.len()],
    kid_missed[kid_node.len()],
    pending_sum[hot.len()],
    slots_used[hot.len()],
    kid_gone[kid_node.len()],
    completion_times,
    checkpoint_records,
} check csr_consistent);

fn csr_consistent(st: &RunState) -> Result<(), SnapshotError> {
    let starts = &st.kid_start;
    if starts.first() != Some(&0)
        || starts.last().map(|&end| end as usize) != Some(st.kid_node.len())
        || starts.windows(2).any(|w| w[0] > w[1])
    {
        return Err(SnapshotError::Corrupt("CSR row offsets inconsistent"));
    }
    if st.kid_node.iter().any(|&k| k as usize >= st.hot.len()) {
        return Err(SnapshotError::Corrupt("child node out of range"));
    }
    Ok(())
}

/// A `parent_of` entry: `parent + 1`, or 0 at the root.
struct ParentLink(Option<usize>);

impl Wire for ParentLink {
    const MIN: usize = 1;
    fn put(&self, b: &mut Vec<u8>) {
        self.0.map_or(0, |p| p + 1).put(b);
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        Ok(ParentLink(usize::get(r)?.checked_sub(1)))
    }
}

// Both agenda tiers verbatim: tombstones, bucket drain heads, slot
// generations and the free-list order all decide future handle
// assignment and pop order.
wire_struct!(AgendaSnapshot<Event> {
    heap,
    buckets,
    slots,
    free,
    now,
    seq,
    live,
    near_live,
    near_entries,
    far_dead,
} check agenda_consistent);

fn agenda_consistent(a: &AgendaSnapshot<Event>) -> Result<(), SnapshotError> {
    for (index, head, entries) in &a.buckets {
        if *index as usize >= NEAR_BUCKETS {
            return Err(SnapshotError::Corrupt("bucket index out of range"));
        }
        if *head as usize > entries.len() {
            return Err(SnapshotError::Corrupt("bucket head past entries"));
        }
    }
    if a.free.iter().any(|&f| f as usize >= a.slots.len()) {
        return Err(SnapshotError::Corrupt("free slot out of range"));
    }
    Ok(())
}

wire_struct!(SlotSnapshot<Event> { generation, in_far, payload });

// Tag 1 was a removed compute-chain macro-event; only a mid-chain
// capture from an older build carries it.
wire_enum!(Event, "event tag out of range", reserved 1 => "reserved event tag 1" {
    0 => ComputeDone { node },
    2 => SendDone { node },
    3 => TransferDone { node },
    4 => Fault { index },
    5 => OutageEnd { node },
    6 => RequestTimeout { node },
    7 => Reissue { count },
    8 => Arrival,
});

wire_struct!(HotNode {
    ledger,
    computing_since,
    tasks_computed,
    busy_compute,
    busy_link,
    departed,
    crashed,
});

impl Wire for BufferLedger {
    const MIN: usize = LedgerState::MIN;
    fn put(&self, b: &mut Vec<u8>) {
        self.state().put(b);
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        LedgerState::get(r).map(BufferLedger::from_state)
    }
}

wire_struct!(LedgerState {
    policy,
    capacity,
    held,
    covered,
    max_capacity,
    peak_held,
    filled_since_growth,
    grown_since_arrival,
});

wire_struct!(ColdNode {
    observer,
    selector,
    preemptions,
    last_pressure,
});

/// The observer: its kind and per-child estimates, then one sample
/// count per estimate with no second length prefix.
impl Wire for LatencyObserver {
    const MIN: usize = 2;
    fn put(&self, b: &mut Vec<u8>) {
        let o = self.state();
        o.kind.put(b);
        o.estimates.put(b);
        o.samples.iter().for_each(|s| s.put(b));
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let kind = ObserverKind::get(r)?;
        let estimates: Vec<u64> = Vec::get(r)?;
        let samples = get_n(r, estimates.len())?;
        Ok(LatencyObserver::from_state(ObserverState {
            kind,
            estimates,
            samples,
        }))
    }
}

wire_enum!(ChildSelector, "selector tag out of range" {
    0 => BandwidthCentric,
    1 => ComputeCentric,
    2 => RoundRobin { cursor },
});

wire_struct!(Sending {
    child_pos,
    started_at,
    handle,
});

wire_struct!(ActiveTransfer {
    child_pos,
    started_at,
    remaining_at_start,
    handle,
});

wire_struct!(FaultRt {
    orphaned,
    lost_requests,
    pending_nacks,
    retry,
    timeout,
    outage_until,
    drop_batches,
    dup_deliveries,
});

wire_struct!(SlotTransfer {
    remaining,
    total,
    started,
});

// ----- progress cursors -----------------------------------------------------

wire_struct!(Progress {
    remaining,
    completed,
    next_checkpoint,
    next_change,
    events_processed,
    preemptions,
    transfers_started,
    requests_sent,
    started,
    finished,
    check_last_now,
    events_since_sweep,
    faulty_deliveries,
    fault_active,
    recovery,
    fault_seed,
    dead_threshold,
    lost_pending,
    fstats,
    // The removed elided-event counter.
    reserved 0u64,
    finish_target,
});

wire_struct!(FaultStats {
    faults_injected,
    tasks_lost,
    tasks_reissued,
    requests_dropped,
    retries,
    gave_up,
    crashes,
    transfer_aborts,
    children_declared_dead,
    children_revived,
    duplicates_dropped,
    last_crash_time,
});

wire_struct!(ArrivalState {
    cursor,
    deferred,
    deferred_units,
    submitted,
    admitted,
    rejected,
    deferrals,
    peak_deferred,
    leak_tick,
    admit_times,
    dispatch_times,
    admit_class,
    admitted_per_class,
} check admit_logs_aligned);

fn admit_logs_aligned(a: &ArrivalState) -> Result<(), SnapshotError> {
    if a.admit_class.len() != a.admit_times.len() {
        return Err(SnapshotError::Corrupt("admit class/time length mismatch"));
    }
    Ok(())
}
