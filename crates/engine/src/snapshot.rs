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
//! Snapshots also serialize to a compact versioned binary format
//! ([`SimSnapshot::to_bytes`] / [`SimSnapshot::from_bytes`]): magic
//! `BCSS`, a format version byte, then LEB128 varints for integers.
//! The format is self-contained (tree and config travel with the
//! state) and re-encoding a decoded snapshot reproduces the input
//! bytes exactly.

use crate::arrivals::{AdmissionPolicy, ArrivalPlan, ArrivalProcess, TaskClass};
use crate::config::{
    ChangeKind, FaultEvent, FaultInjection, FaultKind, FaultPlan, PlannedChange, Protocol,
    RecoveryTuning, SelectorKind, SimConfig,
};
use crate::result::FaultStats;
use crate::sim::{
    ActiveTransfer, ColdNode, Event, FaultRt, HotNode, Sending, SimWorkspace, Simulation,
    SlotTransfer,
};
use bc_core::{
    BufferLedger, BufferPolicy, ChildSelector, GrowthGate, LatencyObserver, LedgerState,
    ObserverKind, ObserverState,
};
use bc_platform::{NodeId, Tree};
use bc_simcore::{
    AgendaSnapshot, EventHandle, NullSink, PackedEvent, SlotSnapshot, Time, TraceSink, VecSink,
};

/// Near-tier calendar size of the kernel agenda — bucket indices in a
/// serialized snapshot must stay below this (mirrors
/// `bc_simcore::agenda::NEAR_BUCKETS`).
const NEAR_BUCKETS: u32 = 1024;

// ---------------------------------------------------------------------------
// In-memory snapshot types
// ---------------------------------------------------------------------------

/// Verbatim capture of a [`SimWorkspace`]'s runtime containers. The
/// between-steps scratch (service queue, queued flags, candidate list)
/// is empty at any quiescent point and is not captured; restore
/// re-clears it.
#[derive(Clone)]
pub struct WorkspaceSnapshot {
    pub(crate) agenda: AgendaSnapshot<Event>,
    pub(crate) hot: Vec<HotNode>,
    pub(crate) cold: Vec<ColdNode>,
    pub(crate) sending: Vec<Option<Sending>>,
    pub(crate) active: Vec<Option<ActiveTransfer>>,
    pub(crate) faults: Vec<FaultRt>,
    pub(crate) parent_of: Vec<Option<usize>>,
    pub(crate) child_pos: Vec<usize>,
    pub(crate) kid_start: Vec<u32>,
    pub(crate) kid_node: Vec<u32>,
    pub(crate) kid_pending: Vec<u32>,
    pub(crate) kid_slot: Vec<Option<SlotTransfer>>,
    pub(crate) kid_comm: Vec<u64>,
    pub(crate) kid_compute: Vec<u64>,
    pub(crate) kid_missed: Vec<u8>,
    pub(crate) pending_sum: Vec<u32>,
    pub(crate) slots_used: Vec<u32>,
    pub(crate) kid_gone: Vec<bool>,
    pub(crate) completion_times: Vec<Time>,
    pub(crate) checkpoint_records: Vec<(u64, u32)>,
}

/// The progress cursors of a [`Simulation`] — everything that is not a
/// workspace container, the tree, or the configuration.
#[derive(Clone)]
pub(crate) struct CursorSnapshot {
    pub(crate) remaining: u64,
    pub(crate) completed: u64,
    pub(crate) next_checkpoint: u64,
    pub(crate) next_change: u64,
    pub(crate) events_processed: u64,
    pub(crate) preemptions: u64,
    pub(crate) transfers_started: u64,
    pub(crate) requests_sent: u64,
    pub(crate) started: bool,
    pub(crate) finished: bool,
    pub(crate) check_last_now: Time,
    pub(crate) events_since_sweep: u32,
    pub(crate) faulty_deliveries: u64,
    pub(crate) fault_active: bool,
    pub(crate) recovery: RecoveryTuning,
    pub(crate) fault_seed: u64,
    pub(crate) dead_threshold: u8,
    pub(crate) lost_pending: u64,
    pub(crate) fstats: FaultStats,
    pub(crate) finish_target: u64,
    pub(crate) arrivals: Option<ArrivalCursor>,
}

/// Open-world arrival runtime state at capture — everything except the
/// pregenerated schedule, which is a pure function of the configuration
/// and is regenerated on restore (bit-identically, by design).
#[derive(Clone)]
pub(crate) struct ArrivalCursor {
    pub(crate) cursor: u64,
    pub(crate) deferred: Vec<u32>,
    pub(crate) deferred_units: u64,
    pub(crate) submitted: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) deferrals: u64,
    pub(crate) peak_deferred: u64,
    pub(crate) leak_tick: u64,
    pub(crate) admit_times: Vec<Time>,
    pub(crate) dispatch_times: Vec<Time>,
    pub(crate) admit_class: Vec<u32>,
    pub(crate) admitted_per_class: Vec<u64>,
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
    pub(crate) cur: CursorSnapshot,
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
        self.snap.tree.set_comm_time(node, c);
        let i = node.index();
        let ws = &mut self.snap.ws;
        if let Some(p) = ws.parent_of[i] {
            if ws.cold[p].observer.is_oracle() {
                let k = ws.kid_start[p] as usize + ws.child_pos[i];
                ws.kid_comm[k] = c;
            }
            self.touched.push(p);
        }
        self.touched.push(i);
        self.register_change(node, ChangeKind::CommTime(c));
    }

    /// Sets the compute weight `w_node` from the fork instant on,
    /// exactly like a scripted [`ChangeKind::ComputeTime`].
    pub fn set_compute_time(&mut self, node: NodeId, w: u64) {
        self.snap.tree.set_compute_time(node, w);
        let i = node.index();
        let ws = &mut self.snap.ws;
        if let Some(p) = ws.parent_of[i] {
            let k = ws.kid_start[p] as usize + ws.child_pos[i];
            ws.kid_compute[k] = w;
            self.touched.push(p);
        }
        self.touched.push(i);
        self.register_change(node, ChangeKind::ComputeTime(w));
    }

    /// Records an already-applied weight tweak in the branch's change
    /// script, just before the cursor: the branch configuration then
    /// documents that its platform mutated mid-run (so the terminal
    /// theory oracle, which requires a static platform, knows to stand
    /// down — exactly as for a scripted change).
    fn register_change(&mut self, node: NodeId, kind: ChangeKind) {
        let idx = self.snap.cur.next_change as usize;
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
            fault.node.index() < self.snap.ws.hot.len(),
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
    pub fn snapshot(&self) -> WorkspaceSnapshot {
        // The candidate scratch is cleared at its next use (not after),
        // so it may hold stale content here; only the service queue
        // proves quiescence.
        debug_assert!(
            self.service_queue.is_empty(),
            "workspace snapshot requires quiescence (between steps)"
        );
        WorkspaceSnapshot {
            agenda: self.agenda.snapshot(),
            hot: self.hot.clone(),
            cold: self.cold.clone(),
            sending: self.sending.clone(),
            active: self.active.clone(),
            faults: self.faults.clone(),
            parent_of: self.parent_of.clone(),
            child_pos: self.child_pos.clone(),
            kid_start: self.kid_start.clone(),
            kid_node: self.kid_node.clone(),
            kid_pending: self.kid_pending.clone(),
            kid_slot: self.kid_slot.clone(),
            kid_comm: self.kid_comm.clone(),
            kid_compute: self.kid_compute.clone(),
            kid_missed: self.kid_missed.clone(),
            pending_sum: self.pending_sum.clone(),
            slots_used: self.slots_used.clone(),
            kid_gone: self.kid_gone.clone(),
            completion_times: self.completion_times.clone(),
            checkpoint_records: self.checkpoint_records.clone(),
        }
    }

    /// Overwrites this workspace with a captured state, reusing existing
    /// allocations where possible. The scratch containers are re-cleared
    /// to their quiescent (empty) state.
    pub fn restore(&mut self, s: &WorkspaceSnapshot) {
        self.agenda.restore(&s.agenda);
        self.hot.clone_from(&s.hot);
        self.cold.clone_from(&s.cold);
        self.sending.clone_from(&s.sending);
        self.active.clone_from(&s.active);
        self.faults.clone_from(&s.faults);
        self.parent_of.clone_from(&s.parent_of);
        self.child_pos.clone_from(&s.child_pos);
        self.kid_start.clone_from(&s.kid_start);
        self.kid_node.clone_from(&s.kid_node);
        self.kid_pending.clone_from(&s.kid_pending);
        self.kid_slot.clone_from(&s.kid_slot);
        self.kid_comm.clone_from(&s.kid_comm);
        self.kid_compute.clone_from(&s.kid_compute);
        self.kid_missed.clone_from(&s.kid_missed);
        self.pending_sum.clone_from(&s.pending_sum);
        self.slots_used.clone_from(&s.slots_used);
        self.kid_gone.clone_from(&s.kid_gone);
        self.completion_times.clone_from(&s.completion_times);
        self.checkpoint_records.clone_from(&s.checkpoint_records);
        self.service_queue.clear();
        self.queued.clear();
        self.queued.resize(s.hot.len(), false);
        self.candidates.clear();
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
                    Some((_, at)) => self.events_processed.saturating_sub(*at),
                    None => self.events_processed,
                };
                since >= tt.period && !self.finished
            }
            None => false,
        };
        if due {
            let snap = Box::new(self.snapshot());
            let at = self.events_processed;
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
                tt.period, self.events_processed
            );
            return;
        };
        let dir = std::env::var_os("BC_SNAPSHOT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let stem = format!(
            "bc-violation-{}-{}",
            std::process::id(),
            self.events_processed
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
        let target = self.events_processed.saturating_sub(1);
        let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut branch = (**snap).clone();
            branch.cfg.checked = false;
            let mut sim =
                Simulation::from_snapshot_traced(&branch, SimWorkspace::new(), VecSink::new());
            while sim.events_processed < target && sim.step() {}
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

fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(v as u8);
}

/// LEB128 varint (unsigned).
fn put_v(b: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            b.push(byte);
            return;
        }
        b.push(byte | 0x80);
    }
}

fn put_u128(b: &mut Vec<u8>, v: u128) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_v(b: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put_v(b, v);
        }
    }
}

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let v = *self.buf.get(self.pos).ok_or(SnapshotError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }

    fn v(&mut self) -> Result<u64, SnapshotError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(SnapshotError::Corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn v32(&mut self) -> Result<u32, SnapshotError> {
        u32::try_from(self.v()?).map_err(|_| SnapshotError::Corrupt("u32 out of range"))
    }

    fn vus(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.v()?).map_err(|_| SnapshotError::Corrupt("usize out of range"))
    }

    fn u128(&mut self) -> Result<u128, SnapshotError> {
        let end = self.pos.checked_add(16).ok_or(SnapshotError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u128::from_le_bytes(bytes.try_into().expect("16 bytes")))
    }

    fn opt_v(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(self.v()?),
            _ => return Err(SnapshotError::Corrupt("option tag out of range")),
        })
    }

    /// Guard for length prefixes of multi-byte records: a hostile length
    /// can never exceed the bytes actually remaining.
    fn len_capped(&mut self, min_record: usize) -> Result<usize, SnapshotError> {
        let len = self.vus()?;
        let left = self.buf.len() - self.pos;
        if len > left / min_record.max(1) {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let n = self.len_capped(1)?;
        let end = self.pos + n; // len_capped bounds n by the remainder
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| SnapshotError::Corrupt("string not UTF-8"))?;
        self.pos = end;
        Ok(s.to_owned())
    }
}

fn put_handle(b: &mut Vec<u8>, h: EventHandle) {
    let (slot, generation) = h.raw_parts();
    put_v(b, slot as u64);
    put_v(b, generation as u64);
}

fn get_handle(r: &mut Rd) -> Result<EventHandle, SnapshotError> {
    let slot = r.v32()?;
    let generation = r.v32()?;
    Ok(EventHandle::from_raw_parts(slot, generation))
}

fn put_event(b: &mut Vec<u8>, e: &Event) {
    match *e {
        Event::ComputeDone { node } => {
            put_u8(b, 0);
            put_v(b, node as u64);
        }
        Event::SendDone { node } => {
            put_u8(b, 2);
            put_v(b, node as u64);
        }
        Event::TransferDone { node } => {
            put_u8(b, 3);
            put_v(b, node as u64);
        }
        Event::Fault { index } => {
            put_u8(b, 4);
            put_v(b, index as u64);
        }
        Event::OutageEnd { node } => {
            put_u8(b, 5);
            put_v(b, node as u64);
        }
        Event::RequestTimeout { node } => {
            put_u8(b, 6);
            put_v(b, node as u64);
        }
        Event::Reissue { count } => {
            put_u8(b, 7);
            put_v(b, count);
        }
        Event::Arrival => put_u8(b, 8),
    }
}

fn get_event(r: &mut Rd) -> Result<Event, SnapshotError> {
    Ok(match r.u8()? {
        0 => Event::ComputeDone { node: r.vus()? },
        // Tag 1 is reserved: it was a removed compute-chain macro-event,
        // so only a mid-chain capture from an older build carries it.
        1 => return Err(SnapshotError::Corrupt("reserved event tag 1")),
        2 => Event::SendDone { node: r.vus()? },
        3 => Event::TransferDone { node: r.vus()? },
        4 => Event::Fault { index: r.vus()? },
        5 => Event::OutageEnd { node: r.vus()? },
        6 => Event::RequestTimeout { node: r.vus()? },
        7 => Event::Reissue { count: r.v()? },
        8 => Event::Arrival,
        _ => return Err(SnapshotError::Corrupt("event tag out of range")),
    })
}

fn put_buffer_policy(b: &mut Vec<u8>, p: &BufferPolicy) {
    match *p {
        BufferPolicy::Fixed(k) => {
            put_u8(b, 0);
            put_v(b, k as u64);
        }
        BufferPolicy::Growable {
            initial,
            cap,
            gate,
            decay_after,
        } => {
            put_u8(b, 1);
            put_v(b, initial as u64);
            put_opt_v(b, cap.map(u64::from));
            put_u8(
                b,
                match gate {
                    GrowthGate::EveryEvent => 0,
                    GrowthGate::OncePerArrival => 1,
                    GrowthGate::AfterPoolFilled => 2,
                },
            );
            put_opt_v(b, decay_after);
        }
    }
}

fn get_buffer_policy(r: &mut Rd) -> Result<BufferPolicy, SnapshotError> {
    Ok(match r.u8()? {
        0 => BufferPolicy::Fixed(r.v32()?),
        1 => {
            let initial = r.v32()?;
            let cap = match r.opt_v()? {
                None => None,
                Some(v) => {
                    Some(u32::try_from(v).map_err(|_| SnapshotError::Corrupt("cap out of range"))?)
                }
            };
            let gate = match r.u8()? {
                0 => GrowthGate::EveryEvent,
                1 => GrowthGate::OncePerArrival,
                2 => GrowthGate::AfterPoolFilled,
                _ => return Err(SnapshotError::Corrupt("growth gate out of range")),
            };
            let decay_after = r.opt_v()?;
            BufferPolicy::Growable {
                initial,
                cap,
                gate,
                decay_after,
            }
        }
        _ => return Err(SnapshotError::Corrupt("buffer policy tag out of range")),
    })
}

fn put_observer_kind(b: &mut Vec<u8>, k: &ObserverKind) {
    match *k {
        ObserverKind::Oracle => put_u8(b, 0),
        ObserverKind::LastSample { initial } => {
            put_u8(b, 1);
            put_v(b, initial);
        }
        ObserverKind::Ema { initial, num, den } => {
            put_u8(b, 2);
            put_v(b, initial);
            put_v(b, num as u64);
            put_v(b, den as u64);
        }
    }
}

fn get_observer_kind(r: &mut Rd) -> Result<ObserverKind, SnapshotError> {
    Ok(match r.u8()? {
        0 => ObserverKind::Oracle,
        1 => ObserverKind::LastSample { initial: r.v()? },
        2 => {
            let initial = r.v()?;
            let num = r.v32()?;
            let den = r.v32()?;
            if num == 0 || den == 0 || num > den {
                return Err(SnapshotError::Corrupt("EMA weight out of range"));
            }
            ObserverKind::Ema { initial, num, den }
        }
        _ => return Err(SnapshotError::Corrupt("observer tag out of range")),
    })
}

fn put_fault_kind(b: &mut Vec<u8>, k: &FaultKind) {
    match *k {
        FaultKind::RequestLoss { batches } => {
            put_u8(b, 0);
            put_v(b, batches as u64);
        }
        FaultKind::TransferAbort => put_u8(b, 1),
        FaultKind::LinkOutage { duration } => {
            put_u8(b, 2);
            put_v(b, duration);
        }
        FaultKind::Crash => put_u8(b, 3),
        FaultKind::DuplicateDelivery { copies } => {
            put_u8(b, 4);
            put_v(b, copies as u64);
        }
    }
}

fn get_fault_kind(r: &mut Rd) -> Result<FaultKind, SnapshotError> {
    Ok(match r.u8()? {
        0 => FaultKind::RequestLoss { batches: r.v32()? },
        1 => FaultKind::TransferAbort,
        2 => FaultKind::LinkOutage { duration: r.v()? },
        3 => FaultKind::Crash,
        4 => FaultKind::DuplicateDelivery { copies: r.v32()? },
        _ => return Err(SnapshotError::Corrupt("fault kind out of range")),
    })
}

fn put_recovery(b: &mut Vec<u8>, t: &RecoveryTuning) {
    put_v(b, t.request_timeout);
    put_v(b, t.backoff_cap as u64);
    put_v(b, t.max_retries as u64);
    put_u8(b, t.missed_ack_threshold);
    put_v(b, t.reissue_delay);
}

fn get_recovery(r: &mut Rd) -> Result<RecoveryTuning, SnapshotError> {
    Ok(RecoveryTuning {
        request_timeout: r.v()?,
        backoff_cap: r.v32()?,
        max_retries: r.v32()?,
        missed_ack_threshold: r.u8()?,
        reissue_delay: r.v()?,
    })
}

fn put_tree(b: &mut Vec<u8>, tree: &Tree) {
    put_v(b, tree.len() as u64);
    put_v(b, tree.root().compute_time);
    for id in tree.ids().skip(1) {
        let node = tree.node(id);
        put_v(b, node.parent.expect("non-root has parent").index() as u64);
        put_v(b, node.comm_time);
        put_v(b, node.compute_time);
    }
}

fn get_tree(r: &mut Rd) -> Result<Tree, SnapshotError> {
    let n = r.len_capped(1)?;
    if n == 0 {
        return Err(SnapshotError::Corrupt("empty tree"));
    }
    let root_w = r.v()?;
    if root_w == 0 {
        return Err(SnapshotError::Corrupt("zero compute weight"));
    }
    let mut tree = Tree::new(root_w);
    for id in 1..n {
        let parent = r.vus()?;
        let comm = r.v()?;
        let compute = r.v()?;
        if parent >= id {
            return Err(SnapshotError::Corrupt("parent does not precede child"));
        }
        if comm == 0 || compute == 0 {
            return Err(SnapshotError::Corrupt("zero edge/compute weight"));
        }
        // `add_child` appends ids in order, so reconstructing in id
        // order reproduces the original child lists (which are in id
        // order by construction).
        tree.add_child(NodeId(parent as u32), comm, compute);
    }
    Ok(tree)
}

fn put_cfg(b: &mut Vec<u8>, cfg: &SimConfig) {
    put_u8(
        b,
        match cfg.protocol {
            Protocol::NonInterruptible => 0,
            Protocol::Interruptible => 1,
        },
    );
    put_buffer_policy(b, &cfg.buffers);
    put_u8(
        b,
        match cfg.selector {
            SelectorKind::BandwidthCentric => 0,
            SelectorKind::ComputeCentric => 1,
            SelectorKind::RoundRobin => 2,
        },
    );
    put_observer_kind(b, &cfg.observer);
    put_bool(b, cfg.self_first);
    put_v(b, cfg.total_tasks);
    put_v(b, cfg.checkpoints.len() as u64);
    for &c in &cfg.checkpoints {
        put_v(b, c);
    }
    put_v(b, cfg.changes.len() as u64);
    for ch in &cfg.changes {
        put_v(b, ch.after_tasks);
        put_v(b, ch.node.index() as u64);
        match ch.kind {
            ChangeKind::CommTime(c) => {
                put_u8(b, 0);
                put_v(b, c);
            }
            ChangeKind::ComputeTime(w) => {
                put_u8(b, 1);
                put_v(b, w);
            }
            ChangeKind::Join { comm, compute } => {
                put_u8(b, 2);
                put_v(b, comm);
                put_v(b, compute);
            }
            ChangeKind::Leave => put_u8(b, 3),
        }
    }
    put_v(b, cfg.max_events);
    put_bool(b, cfg.checked);
    // Reserved: the removed event-elision flag, written as its old
    // default so the v2 layout is unchanged.
    put_bool(b, true);
    match &cfg.fault {
        None => put_u8(b, 0),
        Some(FaultInjection::FbOffByOne) => put_u8(b, 1),
        Some(FaultInjection::LeakTask { every }) => {
            put_u8(b, 2);
            put_v(b, *every);
        }
        Some(FaultInjection::SwallowReissue) => put_u8(b, 3),
        Some(FaultInjection::LeakQueuedTask { every }) => {
            put_u8(b, 4);
            put_v(b, *every);
        }
    }
    match &cfg.fault_plan {
        None => put_u8(b, 0),
        Some(plan) => {
            put_u8(b, 1);
            put_v(b, plan.seed);
            put_v(b, plan.faults.len() as u64);
            for f in &plan.faults {
                put_v(b, f.at);
                put_v(b, f.node.index() as u64);
                put_fault_kind(b, &f.kind);
            }
            put_recovery(b, &plan.recovery);
        }
    }
    match &cfg.arrivals {
        None => put_u8(b, 0),
        Some(plan) => {
            put_u8(b, 1);
            put_arrival_plan(b, plan);
        }
    }
}

fn put_arrival_plan(b: &mut Vec<u8>, plan: &ArrivalPlan) {
    put_v(b, plan.seed);
    put_v(b, plan.classes.len() as u64);
    for class in &plan.classes {
        put_v(b, class.name.len() as u64);
        b.extend_from_slice(class.name.as_bytes());
        put_v(b, class.work_units);
        match &class.process {
            ArrivalProcess::Poisson { mean_gap, count } => {
                put_u8(b, 0);
                put_v(b, *mean_gap);
                put_v(b, *count);
            }
            ArrivalProcess::Burst {
                phase,
                period,
                size,
                bursts,
            } => {
                put_u8(b, 1);
                put_v(b, *phase);
                put_v(b, *period);
                put_v(b, *size);
                put_v(b, *bursts);
            }
            ArrivalProcess::Trace { times } => {
                put_u8(b, 2);
                put_v(b, times.len() as u64);
                for &t in times {
                    put_v(b, t);
                }
            }
        }
    }
    put_v(b, plan.queue_cap);
    put_u8(
        b,
        match plan.policy {
            AdmissionPolicy::Drop => 0,
            AdmissionPolicy::Defer => 1,
        },
    );
}

fn get_arrival_plan(r: &mut Rd) -> Result<ArrivalPlan, SnapshotError> {
    let seed = r.v()?;
    let mut classes = Vec::with_capacity(r.len_capped(3)?);
    for _ in 0..classes.capacity() {
        let name = r.string()?;
        let work_units = r.v()?;
        let process = match r.u8()? {
            0 => ArrivalProcess::Poisson {
                mean_gap: r.v()?,
                count: r.v()?,
            },
            1 => ArrivalProcess::Burst {
                phase: r.v()?,
                period: r.v()?,
                size: r.v()?,
                bursts: r.v()?,
            },
            2 => {
                let mut times = Vec::with_capacity(r.len_capped(1)?);
                for _ in 0..times.capacity() {
                    times.push(r.v()?);
                }
                ArrivalProcess::Trace { times }
            }
            _ => return Err(SnapshotError::Corrupt("arrival process tag out of range")),
        };
        classes.push(TaskClass {
            name,
            work_units,
            process,
        });
    }
    let queue_cap = r.v()?;
    let policy = match r.u8()? {
        0 => AdmissionPolicy::Drop,
        1 => AdmissionPolicy::Defer,
        _ => return Err(SnapshotError::Corrupt("admission policy tag out of range")),
    };
    Ok(ArrivalPlan {
        seed,
        classes,
        queue_cap,
        policy,
    })
}

fn put_arrival_cursor(b: &mut Vec<u8>, c: &ArrivalCursor) {
    put_v(b, c.cursor);
    put_v(b, c.deferred.len() as u64);
    for &d in &c.deferred {
        put_v(b, d as u64);
    }
    put_v(b, c.deferred_units);
    put_v(b, c.submitted);
    put_v(b, c.admitted);
    put_v(b, c.rejected);
    put_v(b, c.deferrals);
    put_v(b, c.peak_deferred);
    put_v(b, c.leak_tick);
    put_v(b, c.admit_times.len() as u64);
    for &t in &c.admit_times {
        put_v(b, t);
    }
    put_v(b, c.dispatch_times.len() as u64);
    for &t in &c.dispatch_times {
        put_v(b, t);
    }
    // admit_class has admit_times's length by construction; no second
    // prefix needed, but keep one so the record is self-describing.
    put_v(b, c.admit_class.len() as u64);
    for &cl in &c.admit_class {
        put_v(b, cl as u64);
    }
    put_v(b, c.admitted_per_class.len() as u64);
    for &n in &c.admitted_per_class {
        put_v(b, n);
    }
}

fn get_arrival_cursor(r: &mut Rd) -> Result<ArrivalCursor, SnapshotError> {
    let cursor = r.v()?;
    let mut deferred = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..deferred.capacity() {
        deferred.push(r.v32()?);
    }
    let deferred_units = r.v()?;
    let submitted = r.v()?;
    let admitted = r.v()?;
    let rejected = r.v()?;
    let deferrals = r.v()?;
    let peak_deferred = r.v()?;
    let leak_tick = r.v()?;
    let mut admit_times = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..admit_times.capacity() {
        admit_times.push(r.v()?);
    }
    let mut dispatch_times = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..dispatch_times.capacity() {
        dispatch_times.push(r.v()?);
    }
    let mut admit_class = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..admit_class.capacity() {
        admit_class.push(r.v32()?);
    }
    if admit_class.len() != admit_times.len() {
        return Err(SnapshotError::Corrupt("admit class/time length mismatch"));
    }
    let mut admitted_per_class = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..admitted_per_class.capacity() {
        admitted_per_class.push(r.v()?);
    }
    Ok(ArrivalCursor {
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
    })
}

fn get_cfg(r: &mut Rd) -> Result<SimConfig, SnapshotError> {
    let protocol = match r.u8()? {
        0 => Protocol::NonInterruptible,
        1 => Protocol::Interruptible,
        _ => return Err(SnapshotError::Corrupt("protocol tag out of range")),
    };
    let buffers = get_buffer_policy(r)?;
    let selector = match r.u8()? {
        0 => SelectorKind::BandwidthCentric,
        1 => SelectorKind::ComputeCentric,
        2 => SelectorKind::RoundRobin,
        _ => return Err(SnapshotError::Corrupt("selector tag out of range")),
    };
    let observer = get_observer_kind(r)?;
    let self_first = r.bool()?;
    let total_tasks = r.v()?;
    let mut checkpoints = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..checkpoints.capacity() {
        checkpoints.push(r.v()?);
    }
    let mut changes = Vec::with_capacity(r.len_capped(3)?);
    for _ in 0..changes.capacity() {
        let after_tasks = r.v()?;
        let node = NodeId(r.v32()?);
        let kind = match r.u8()? {
            0 => ChangeKind::CommTime(r.v()?),
            1 => ChangeKind::ComputeTime(r.v()?),
            2 => ChangeKind::Join {
                comm: r.v()?,
                compute: r.v()?,
            },
            3 => ChangeKind::Leave,
            _ => return Err(SnapshotError::Corrupt("change tag out of range")),
        };
        changes.push(PlannedChange {
            after_tasks,
            node,
            kind,
        });
    }
    let max_events = r.v()?;
    let checked = r.bool()?;
    let _reserved_elision_flag = r.bool()?;
    let fault = match r.u8()? {
        0 => None,
        1 => Some(FaultInjection::FbOffByOne),
        2 => Some(FaultInjection::LeakTask { every: r.v()? }),
        3 => Some(FaultInjection::SwallowReissue),
        4 => Some(FaultInjection::LeakQueuedTask { every: r.v()? }),
        _ => return Err(SnapshotError::Corrupt("fault-injection tag out of range")),
    };
    let fault_plan = match r.u8()? {
        0 => None,
        1 => {
            let seed = r.v()?;
            let mut faults = Vec::with_capacity(r.len_capped(3)?);
            for _ in 0..faults.capacity() {
                let at = r.v()?;
                let node = NodeId(r.v32()?);
                let kind = get_fault_kind(r)?;
                faults.push(FaultEvent { at, node, kind });
            }
            let recovery = get_recovery(r)?;
            Some(FaultPlan {
                seed,
                faults,
                recovery,
            })
        }
        _ => return Err(SnapshotError::Corrupt("fault-plan tag out of range")),
    };
    let arrivals = match r.u8()? {
        0 => None,
        1 => Some(get_arrival_plan(r)?),
        _ => return Err(SnapshotError::Corrupt("arrival-plan tag out of range")),
    };
    Ok(SimConfig {
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
        fault,
        fault_plan,
        arrivals,
    })
}

fn put_ledger(b: &mut Vec<u8>, s: &LedgerState) {
    put_buffer_policy(b, &s.policy);
    put_v(b, s.capacity as u64);
    put_v(b, s.held as u64);
    put_v(b, s.covered as u64);
    put_v(b, s.max_capacity as u64);
    put_v(b, s.peak_held as u64);
    put_bool(b, s.filled_since_growth);
    put_bool(b, s.grown_since_arrival);
}

fn get_ledger(r: &mut Rd) -> Result<LedgerState, SnapshotError> {
    Ok(LedgerState {
        policy: get_buffer_policy(r)?,
        capacity: r.v32()?,
        held: r.v32()?,
        covered: r.v32()?,
        max_capacity: r.v32()?,
        peak_held: r.v32()?,
        filled_since_growth: r.bool()?,
        grown_since_arrival: r.bool()?,
    })
}

fn put_ws(b: &mut Vec<u8>, ws: &WorkspaceSnapshot) {
    // Agenda: both tiers verbatim (tombstones, bucket drain heads, slot
    // generations, and free-list order are all part of the state — they
    // decide future handle assignment and pop order).
    let a = &ws.agenda;
    put_v(b, a.heap.len() as u64);
    for e in &a.heap {
        put_u128(b, e.raw());
    }
    put_v(b, a.buckets.len() as u64);
    for (index, head, entries) in &a.buckets {
        put_v(b, *index as u64);
        put_v(b, *head as u64);
        put_v(b, entries.len() as u64);
        for e in entries {
            put_u128(b, e.raw());
        }
    }
    put_v(b, a.slots.len() as u64);
    for s in &a.slots {
        put_v(b, s.generation as u64);
        put_bool(b, s.in_far);
        match &s.payload {
            None => put_u8(b, 0),
            Some(e) => {
                put_u8(b, 1);
                put_event(b, e);
            }
        }
    }
    put_v(b, a.free.len() as u64);
    for &f in &a.free {
        put_v(b, f as u64);
    }
    put_v(b, a.now);
    put_v(b, a.seq);
    put_v(b, a.live);
    put_v(b, a.near_live);
    put_v(b, a.near_entries);
    put_v(b, a.far_dead);

    put_v(b, ws.hot.len() as u64);
    for h in &ws.hot {
        match &h.ledger {
            None => put_u8(b, 0),
            Some(l) => {
                put_u8(b, 1);
                put_ledger(b, &l.state());
            }
        }
        put_opt_v(b, h.computing_since);
        put_v(b, h.tasks_computed);
        put_v(b, h.busy_compute);
        put_v(b, h.busy_link);
        put_bool(b, h.departed);
        put_bool(b, h.crashed);
    }
    for c in &ws.cold {
        let o = c.observer.state();
        put_observer_kind(b, &o.kind);
        put_v(b, o.estimates.len() as u64);
        for &e in &o.estimates {
            put_v(b, e);
        }
        for &s in &o.samples {
            put_v(b, s);
        }
        match c.selector {
            ChildSelector::BandwidthCentric => put_u8(b, 0),
            ChildSelector::ComputeCentric => put_u8(b, 1),
            ChildSelector::RoundRobin { cursor } => {
                put_u8(b, 2);
                put_v(b, cursor as u64);
            }
        }
        put_v(b, c.preemptions);
        put_v(b, c.last_pressure);
    }
    for s in &ws.sending {
        match s {
            None => put_u8(b, 0),
            Some(s) => {
                put_u8(b, 1);
                put_v(b, s.child_pos as u64);
                put_v(b, s.started_at);
                put_handle(b, s.handle);
            }
        }
    }
    for a in &ws.active {
        match a {
            None => put_u8(b, 0),
            Some(a) => {
                put_u8(b, 1);
                put_v(b, a.child_pos as u64);
                put_v(b, a.started_at);
                put_v(b, a.remaining_at_start);
                put_handle(b, a.handle);
            }
        }
    }
    for f in &ws.faults {
        put_bool(b, f.orphaned);
        put_v(b, f.lost_requests as u64);
        put_v(b, f.pending_nacks as u64);
        put_v(b, f.retry as u64);
        match f.timeout {
            None => put_u8(b, 0),
            Some(h) => {
                put_u8(b, 1);
                put_handle(b, h);
            }
        }
        put_v(b, f.outage_until);
        put_v(b, f.drop_batches as u64);
        put_v(b, f.dup_deliveries as u64);
    }
    for p in &ws.parent_of {
        put_v(b, p.map_or(0, |p| p as u64 + 1));
    }
    for &c in &ws.child_pos {
        put_v(b, c as u64);
    }
    for &k in &ws.kid_start {
        put_v(b, k as u64);
    }
    put_v(b, ws.kid_node.len() as u64);
    for &k in &ws.kid_node {
        put_v(b, k as u64);
    }
    for &k in &ws.kid_pending {
        put_v(b, k as u64);
    }
    for s in &ws.kid_slot {
        match s {
            None => put_u8(b, 0),
            Some(s) => {
                put_u8(b, 1);
                put_v(b, s.remaining);
                put_v(b, s.total);
                put_bool(b, s.started);
            }
        }
    }
    for &k in &ws.kid_comm {
        put_v(b, k);
    }
    for &k in &ws.kid_compute {
        put_v(b, k);
    }
    b.extend_from_slice(&ws.kid_missed);
    for &p in &ws.pending_sum {
        put_v(b, p as u64);
    }
    for &s in &ws.slots_used {
        put_v(b, s as u64);
    }
    for &g in &ws.kid_gone {
        put_bool(b, g);
    }
    put_v(b, ws.completion_times.len() as u64);
    for &t in &ws.completion_times {
        put_v(b, t);
    }
    put_v(b, ws.checkpoint_records.len() as u64);
    for &(tasks, max) in &ws.checkpoint_records {
        put_v(b, tasks);
        put_v(b, max as u64);
    }
}

fn get_ws(r: &mut Rd) -> Result<WorkspaceSnapshot, SnapshotError> {
    let mut heap = Vec::with_capacity(r.len_capped(16)?);
    for _ in 0..heap.capacity() {
        heap.push(PackedEvent::from_raw(r.u128()?));
    }
    let mut buckets = Vec::with_capacity(r.len_capped(3)?);
    for _ in 0..buckets.capacity() {
        let index = r.v32()?;
        if index >= NEAR_BUCKETS {
            return Err(SnapshotError::Corrupt("bucket index out of range"));
        }
        let head = r.v32()?;
        let mut entries = Vec::with_capacity(r.len_capped(16)?);
        for _ in 0..entries.capacity() {
            entries.push(PackedEvent::from_raw(r.u128()?));
        }
        if head as usize > entries.len() {
            return Err(SnapshotError::Corrupt("bucket head past entries"));
        }
        buckets.push((index, head, entries));
    }
    let mut slots = Vec::with_capacity(r.len_capped(3)?);
    for _ in 0..slots.capacity() {
        let generation = r.v32()?;
        let in_far = r.bool()?;
        let payload = match r.u8()? {
            0 => None,
            1 => Some(get_event(r)?),
            _ => return Err(SnapshotError::Corrupt("slot payload tag out of range")),
        };
        slots.push(SlotSnapshot {
            generation,
            in_far,
            payload,
        });
    }
    let mut free = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..free.capacity() {
        let f = r.v32()?;
        if f as usize >= slots.len() {
            return Err(SnapshotError::Corrupt("free slot out of range"));
        }
        free.push(f);
    }
    let agenda = AgendaSnapshot {
        heap,
        buckets,
        slots,
        free,
        now: r.v()?,
        seq: r.v()?,
        live: r.v()?,
        near_live: r.v()?,
        near_entries: r.v()?,
        far_dead: r.v()?,
    };

    let n = r.len_capped(7)?;
    let mut hot = Vec::with_capacity(n);
    for _ in 0..n {
        let ledger = match r.u8()? {
            0 => None,
            1 => Some(BufferLedger::from_state(get_ledger(r)?)),
            _ => return Err(SnapshotError::Corrupt("ledger tag out of range")),
        };
        hot.push(HotNode {
            ledger,
            computing_since: r.opt_v()?,
            tasks_computed: r.v()?,
            busy_compute: r.v()?,
            busy_link: r.v()?,
            departed: r.bool()?,
            crashed: r.bool()?,
        });
    }
    let mut cold = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = get_observer_kind(r)?;
        let kids = r.len_capped(1)?;
        let mut estimates = Vec::with_capacity(kids);
        for _ in 0..kids {
            estimates.push(r.v()?);
        }
        let mut samples = Vec::with_capacity(kids);
        for _ in 0..kids {
            samples.push(r.v()?);
        }
        let observer = LatencyObserver::from_state(ObserverState {
            kind,
            estimates,
            samples,
        });
        let selector = match r.u8()? {
            0 => ChildSelector::BandwidthCentric,
            1 => ChildSelector::ComputeCentric,
            2 => ChildSelector::RoundRobin {
                cursor: r.v()? as usize,
            },
            _ => return Err(SnapshotError::Corrupt("selector tag out of range")),
        };
        cold.push(ColdNode {
            observer,
            selector,
            preemptions: r.v()?,
            last_pressure: r.v()?,
        });
    }
    let mut sending = Vec::with_capacity(n);
    for _ in 0..n {
        sending.push(match r.u8()? {
            0 => None,
            1 => Some(Sending {
                child_pos: r.vus()?,
                started_at: r.v()?,
                handle: get_handle(r)?,
            }),
            _ => return Err(SnapshotError::Corrupt("sending tag out of range")),
        });
    }
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        active.push(match r.u8()? {
            0 => None,
            1 => Some(ActiveTransfer {
                child_pos: r.vus()?,
                started_at: r.v()?,
                remaining_at_start: r.v()?,
                handle: get_handle(r)?,
            }),
            _ => return Err(SnapshotError::Corrupt("active tag out of range")),
        });
    }
    let mut faults = Vec::with_capacity(n);
    for _ in 0..n {
        faults.push(FaultRt {
            orphaned: r.bool()?,
            lost_requests: r.v32()?,
            pending_nacks: r.v32()?,
            retry: r.v32()?,
            timeout: match r.u8()? {
                0 => None,
                1 => Some(get_handle(r)?),
                _ => return Err(SnapshotError::Corrupt("timeout tag out of range")),
            },
            outage_until: r.v()?,
            drop_batches: r.v32()?,
            dup_deliveries: r.v32()?,
        });
    }
    let mut parent_of = Vec::with_capacity(n);
    for _ in 0..n {
        let p = r.v()?;
        parent_of.push(if p == 0 { None } else { Some(p as usize - 1) });
    }
    let mut child_pos = Vec::with_capacity(n);
    for _ in 0..n {
        child_pos.push(r.vus()?);
    }
    let mut kid_start = Vec::with_capacity(n + 1);
    for _ in 0..n + 1 {
        kid_start.push(r.v32()?);
    }
    let kids_total = r.len_capped(1)?;
    if kid_start.first() != Some(&0)
        || kid_start.last() != Some(&(kids_total as u32))
        || kid_start.windows(2).any(|w| w[0] > w[1])
    {
        return Err(SnapshotError::Corrupt("CSR row offsets inconsistent"));
    }
    let mut kid_node = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        let k = r.v32()?;
        if k as usize >= n {
            return Err(SnapshotError::Corrupt("child node out of range"));
        }
        kid_node.push(k);
    }
    let mut kid_pending = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        kid_pending.push(r.v32()?);
    }
    let mut kid_slot = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        kid_slot.push(match r.u8()? {
            0 => None,
            1 => Some(SlotTransfer {
                remaining: r.v()?,
                total: r.v()?,
                started: r.bool()?,
            }),
            _ => return Err(SnapshotError::Corrupt("kid slot tag out of range")),
        });
    }
    let mut kid_comm = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        kid_comm.push(r.v()?);
    }
    let mut kid_compute = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        kid_compute.push(r.v()?);
    }
    let mut kid_missed = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        kid_missed.push(r.u8()?);
    }
    let mut pending_sum = Vec::with_capacity(n);
    for _ in 0..n {
        pending_sum.push(r.v32()?);
    }
    let mut slots_used = Vec::with_capacity(n);
    for _ in 0..n {
        slots_used.push(r.v32()?);
    }
    let mut kid_gone = Vec::with_capacity(kids_total);
    for _ in 0..kids_total {
        kid_gone.push(r.bool()?);
    }
    let mut completion_times = Vec::with_capacity(r.len_capped(1)?);
    for _ in 0..completion_times.capacity() {
        completion_times.push(r.v()?);
    }
    let mut checkpoint_records = Vec::with_capacity(r.len_capped(2)?);
    for _ in 0..checkpoint_records.capacity() {
        let tasks = r.v()?;
        let max = r.v32()?;
        checkpoint_records.push((tasks, max));
    }
    Ok(WorkspaceSnapshot {
        agenda,
        hot,
        cold,
        sending,
        active,
        faults,
        parent_of,
        child_pos,
        kid_start,
        kid_node,
        kid_pending,
        kid_slot,
        kid_comm,
        kid_compute,
        kid_missed,
        pending_sum,
        slots_used,
        kid_gone,
        completion_times,
        checkpoint_records,
    })
}

fn put_fstats(b: &mut Vec<u8>, s: &FaultStats) {
    put_v(b, s.faults_injected);
    put_v(b, s.tasks_lost);
    put_v(b, s.tasks_reissued);
    put_v(b, s.requests_dropped);
    put_v(b, s.retries);
    put_v(b, s.gave_up);
    put_v(b, s.crashes);
    put_v(b, s.transfer_aborts);
    put_v(b, s.children_declared_dead);
    put_v(b, s.children_revived);
    put_v(b, s.duplicates_dropped);
    put_opt_v(b, s.last_crash_time);
}

fn get_fstats(r: &mut Rd) -> Result<FaultStats, SnapshotError> {
    Ok(FaultStats {
        faults_injected: r.v()?,
        tasks_lost: r.v()?,
        tasks_reissued: r.v()?,
        requests_dropped: r.v()?,
        retries: r.v()?,
        gave_up: r.v()?,
        crashes: r.v()?,
        transfer_aborts: r.v()?,
        children_declared_dead: r.v()?,
        children_revived: r.v()?,
        duplicates_dropped: r.v()?,
        last_crash_time: r.opt_v()?,
    })
}

impl SimSnapshot {
    /// Serializes to the versioned binary snapshot format (see the
    /// module docs). Deterministic: equal snapshots yield equal bytes,
    /// and re-encoding a decoded snapshot reproduces its input.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(256);
        b.extend_from_slice(MAGIC);
        put_u8(&mut b, VERSION);
        put_tree(&mut b, &self.tree);
        put_cfg(&mut b, &self.cfg);
        put_ws(&mut b, &self.ws);
        let c = &self.cur;
        put_v(&mut b, c.remaining);
        put_v(&mut b, c.completed);
        put_v(&mut b, c.next_checkpoint);
        put_v(&mut b, c.next_change);
        put_v(&mut b, c.events_processed);
        put_v(&mut b, c.preemptions);
        put_v(&mut b, c.transfers_started);
        put_v(&mut b, c.requests_sent);
        put_bool(&mut b, c.started);
        put_bool(&mut b, c.finished);
        put_v(&mut b, c.check_last_now);
        put_v(&mut b, c.events_since_sweep as u64);
        put_v(&mut b, c.faulty_deliveries);
        put_bool(&mut b, c.fault_active);
        put_recovery(&mut b, &c.recovery);
        put_v(&mut b, c.fault_seed);
        put_u8(&mut b, c.dead_threshold);
        put_v(&mut b, c.lost_pending);
        put_fstats(&mut b, &c.fstats);
        // Reserved: the removed elided-event counter.
        put_v(&mut b, 0);
        put_v(&mut b, c.finish_target);
        match &c.arrivals {
            None => put_u8(&mut b, 0),
            Some(ar) => {
                put_u8(&mut b, 1);
                put_arrival_cursor(&mut b, ar);
            }
        }
        b
    }

    /// Decodes a snapshot serialized by [`SimSnapshot::to_bytes`].
    /// Structural consistency (magic, version, tags, lengths, CSR
    /// shape) is verified; semantic validity — that the state is one a
    /// real run can reach — is trusted, as with any checkpoint file.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapshotError> {
        let mut r = Rd { buf: bytes, pos: 0 };
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = r.u8().map_err(|_| SnapshotError::BadMagic)?;
        }
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let tree = get_tree(&mut r)?;
        let cfg = get_cfg(&mut r)?;
        let ws = get_ws(&mut r)?;
        if ws.hot.len() != tree.len() {
            return Err(SnapshotError::Corrupt("arena size != tree size"));
        }
        let cur = CursorSnapshot {
            remaining: r.v()?,
            completed: r.v()?,
            next_checkpoint: r.v()?,
            next_change: r.v()?,
            events_processed: r.v()?,
            preemptions: r.v()?,
            transfers_started: r.v()?,
            requests_sent: r.v()?,
            started: r.bool()?,
            finished: r.bool()?,
            check_last_now: r.v()?,
            events_since_sweep: r.v32()?,
            faulty_deliveries: r.v()?,
            fault_active: r.bool()?,
            recovery: get_recovery(&mut r)?,
            fault_seed: r.v()?,
            dead_threshold: r.u8()?,
            lost_pending: r.v()?,
            fstats: get_fstats(&mut r)?,
            // Skips the reserved elided-event counter.
            finish_target: r.v().and_then(|_| r.v())?,
            arrivals: match r.u8()? {
                0 => None,
                1 => Some(get_arrival_cursor(&mut r)?),
                _ => return Err(SnapshotError::Corrupt("arrival-cursor tag out of range")),
            },
        };
        if r.pos != bytes.len() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        // Cross-layer consistency: an arrival plan in the config must come
        // with cursor state and vice versa — restore unwraps the pairing.
        if cfg.arrivals.is_some() != cur.arrivals.is_some() {
            return Err(SnapshotError::Corrupt("arrival plan/cursor mismatch"));
        }
        Ok(SimSnapshot { tree, cfg, ws, cur })
    }
}
