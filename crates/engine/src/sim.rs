//! The event-driven protocol simulator.
//!
//! One [`Simulation`] runs one application (a finite count of identical,
//! independent tasks) over one platform tree under one protocol
//! configuration. The base model of §2.1 is enforced structurally: each
//! node owns three independent resources — a processor (one task at a
//! time), an inbound link from its parent (the parent serializes sends,
//! so at most one task is ever inbound), and an outbound link shared by
//! its children (one active transmission at a time).
//!
//! ## Protocol flow (both variants)
//!
//! * A node keeps one outstanding request to its parent per uncovered
//!   empty buffer; requests are instantaneous control messages.
//! * Buffers empty at compute *start* and send *start* (§3.1), which is
//!   also the moment the freed buffer is re-requested.
//! * **Non-interruptible**: the outbound link serves one transfer to
//!   completion; buffer growth follows the three §3.1 rules.
//! * **Interruptible**: a delegated task moves into the destination
//!   child's transfer slot; the link always transmits the slot of the
//!   highest-priority occupied child, preempting (shelving) lower-priority
//!   partial transfers, which resume where they left off (§3.2).
//!
//! ## Wind-down and accounting
//!
//! The root dispenses exactly `total_tasks` tasks; the run ends at the
//! `total_tasks`-th completion. A task "completes" when its computation
//! finishes (the edge weight folds the result's return trip into the
//! downward transfer; see DESIGN.md).
//!
//! ## Hot/cold state split (see DESIGN.md, "Event-kernel anatomy")
//!
//! Per-node runtime state is split by access frequency. [`HotNode`]
//! holds only what the fault-free event loop touches on (nearly) every
//! event — the ledger, the compute timer, the busy-time accumulators and
//! the liveness bits — in ~1.5 cache lines (the old monolithic node
//! record spanned more than five). Per-*child* protocol state lives in
//! flat CSR arrays on the workspace (`kid_*`): node `i`'s children
//! occupy the contiguous index range `kid_start[i]..kid_start[i+1]`, so
//! the candidate-building loops of child selection and link reconciling
//! stream over dense parallel arrays instead of chasing per-node `Vec`s
//! and re-deriving estimates through the observer on every pass
//! (`kid_comm` caches the estimate; it is refreshed at the few sites
//! where an estimate can change). Everything only rare paths read —
//! observer, selector, preemption counts, decay timestamps — lives in
//! [`ColdNode`], and fault-recovery state stays in [`FaultRt`] behind
//! the `fault_active` gate as before.
//!
//! ## Workspace reuse (campaign engine)
//!
//! All of a simulation's runtime containers — agenda, per-node state,
//! topology arrays, scratch buffers — live in a [`SimWorkspace`]. A
//! campaign worker constructs each simulation
//! [with the same workspace](Simulation::with_workspace) and takes it
//! back from [`Simulation::run_reusing`], so after the first few runs
//! warm the capacities, subsequent runs perform **no steady-state heap
//! allocation at all** (verified by the `alloc_free` integration test).

use crate::arrivals::{AdmissionPolicy, Arrival};
use crate::config::{
    ChangeKind, FaultEvent, FaultInjection, FaultKind, FaultPlan, Protocol, RecoveryTuning,
    SelectorKind, SimConfig,
};
use crate::result::{ArrivalStats, FaultStats, RunResult};
use crate::snapshot::{SimSnapshot, TimeTravel};
use bc_core::{BufferLedger, BufferPolicy, ChildInfo, ChildSelector, GrowthEvent, LatencyObserver};
use bc_platform::{NodeId, Tree};
use bc_simcore::{split_seed, Agenda, EventHandle, NullSink, Time, TraceEvent, TraceSink};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    ComputeDone {
        node: usize,
    },
    /// Non-interruptible send completion.
    SendDone {
        node: usize,
    },
    /// Interruptible active-transfer completion.
    TransferDone {
        node: usize,
    },
    /// A scheduled environment fault strikes (index into the plan).
    Fault {
        index: usize,
    },
    /// `node`'s uplink outage window ends; deferred nacks resolve.
    OutageEnd {
        node: usize,
    },
    /// `node`'s request timeout fires: any lost requests are withdrawn
    /// and re-issued with backoff.
    RequestTimeout {
        node: usize,
    },
    /// The repository's detection latency elapsed: `count` lost tasks
    /// re-enter the remaining pool.
    Reissue {
        count: u64,
    },
    /// Open-world mode: the arrival cursor reached its next instant.
    /// The handler injects every arrival due now and re-chains itself,
    /// so the agenda never holds more than one pending arrival.
    Arrival,
}

impl Event {
    /// Profiler kind index (must match `profile::KIND_NAMES` order).
    #[cfg(feature = "profile")]
    fn kind(&self) -> usize {
        match self {
            Event::ComputeDone { .. } => 0,
            Event::SendDone { .. } => 1,
            Event::TransferDone { .. } => 2,
            Event::Fault { .. } => 3,
            Event::OutageEnd { .. } => 4,
            Event::RequestTimeout { .. } => 5,
            Event::Reissue { .. } => 6,
            Event::Arrival => 7,
        }
    }
}

/// How an aborted transfer's negative acknowledgement reaches the
/// intended receiver.
#[derive(Clone, Copy)]
enum Nack {
    /// The child is live with its uplink up: it re-requests immediately.
    Instant,
    /// The child's uplink is down: the nack resolves at the outage's end.
    Deferred,
    /// The child crashed: there is no one to notify.
    None,
}

/// Non-IC: the single in-flight outbound transfer.
#[derive(Clone)]
pub(crate) struct Sending {
    pub(crate) child_pos: usize,
    pub(crate) started_at: Time,
    pub(crate) handle: EventHandle,
}

/// IC: a task parked in (or transmitting from) a per-child transfer slot.
#[derive(Clone)]
pub(crate) struct SlotTransfer {
    /// Transmission work left, in timesteps.
    pub(crate) remaining: u64,
    /// Total transmission work (the edge weight at delegation time) —
    /// reported to the latency observer on completion.
    pub(crate) total: u64,
    /// Whether this transfer has ever transmitted (distinguishes a first
    /// activation from a resume when a preemption landed at elapsed 0).
    pub(crate) started: bool,
}

/// IC: the currently transmitting slot.
#[derive(Clone)]
pub(crate) struct ActiveTransfer {
    pub(crate) child_pos: usize,
    pub(crate) started_at: Time,
    pub(crate) remaining_at_start: u64,
    pub(crate) handle: EventHandle,
}

/// Per-node *hot* runtime state: exactly the fields the fault-free event
/// loop reads or writes on (nearly) every event involving the node.
/// Everything per-child lives in the workspace's flat `kid_*` CSR
/// arrays; everything rarely touched lives in [`ColdNode`].
#[derive(Clone)]
pub(crate) struct HotNode {
    /// Buffer ledger; `None` at the root (the repository draws from the
    /// task source directly).
    pub(crate) ledger: Option<BufferLedger>,
    /// Start time of the in-progress computation, if any.
    pub(crate) computing_since: Option<Time>,
    pub(crate) tasks_computed: u64,
    /// Accumulated processor busy time.
    pub(crate) busy_compute: u64,
    /// Accumulated outbound-link busy (transmitting) time.
    pub(crate) busy_link: u64,
    /// True once the node has left the overlay (dynamic-topology
    /// extension); departed nodes ignore events and are never selected.
    pub(crate) departed: bool,
    /// True once the node died abruptly (fault model). Unlike `departed`,
    /// a crash is *not* globally known: the parent keeps its pending
    /// requests and keeps delegating until missed acks cross the
    /// threshold.
    pub(crate) crashed: bool,
}

impl HotNode {
    fn fresh(index: usize, cfg: &SimConfig) -> HotNode {
        HotNode {
            ledger: (index != 0).then(|| BufferLedger::new(effective_buffers(cfg))),
            computing_since: None,
            tasks_computed: 0,
            busy_compute: 0,
            busy_link: 0,
            departed: false,
            crashed: false,
        }
    }
}

/// Per-node *cold* runtime state: consulted once per completed transfer
/// (observer), per service pass (selector), or only on rare extension
/// paths (decay, preemption accounting). Kept out of [`HotNode`] so the
/// per-event working set stays small.
#[derive(Clone)]
pub(crate) struct ColdNode {
    pub(crate) observer: LatencyObserver,
    pub(crate) selector: ChildSelector,
    /// Preemptions performed on this node's outbound link.
    pub(crate) preemptions: u64,
    /// Last time a growth rule fired (drives the optional decay
    /// extension).
    pub(crate) last_pressure: Time,
}

impl ColdNode {
    fn fresh(kids: usize, cfg: &SimConfig) -> ColdNode {
        ColdNode {
            observer: LatencyObserver::new(cfg.observer, kids),
            selector: make_selector(cfg.selector),
            preemptions: 0,
            last_pressure: 0,
        }
    }

    /// Reinitializes for a new run, keeping the observer's capacity.
    fn reset(&mut self, kids: usize, cfg: &SimConfig) {
        self.observer.reset(cfg.observer, kids);
        self.selector = make_selector(cfg.selector);
        self.preemptions = 0;
        self.last_pressure = 0;
    }
}

fn make_selector(kind: SelectorKind) -> ChildSelector {
    match kind {
        SelectorKind::BandwidthCentric => ChildSelector::BandwidthCentric,
        SelectorKind::ComputeCentric => ChildSelector::ComputeCentric,
        SelectorKind::RoundRobin => ChildSelector::round_robin(),
    }
}

/// The buffer policy nodes are actually built with: the configured one,
/// unless the `FbOffByOne` checker-validation fault inflates it.
fn effective_buffers(cfg: &SimConfig) -> BufferPolicy {
    match cfg.fault {
        Some(FaultInjection::FbOffByOne) => match cfg.buffers {
            BufferPolicy::Fixed(k) => BufferPolicy::Fixed(k + 1),
            BufferPolicy::Growable {
                initial,
                cap,
                gate,
                decay_after,
            } => BufferPolicy::Growable {
                initial: initial + 1,
                cap,
                gate,
                decay_after,
            },
        },
        _ => cfg.buffers,
    }
}

/// Per-node fault-recovery state, kept out of [`HotNode`] on purpose:
/// the fault-free hot path never reads it (every access is behind the
/// `fault_active` gate or inside fault event handlers), and folding
/// these bytes into the hot record measurably slows fault-free campaigns
/// by growing the per-node working set. Per-child missed-ack counters
/// live in the workspace's `kid_missed` CSR array.
#[derive(Clone, Default)]
pub(crate) struct FaultRt {
    /// The node exhausted its request retries and presumes its parent
    /// dead; it stops requesting (a successful delivery revives it).
    pub(crate) orphaned: bool,
    /// Requests sent but lost in the network — covered at this node,
    /// unknown to the parent. Withdrawn and re-sent when the request
    /// timeout fires.
    pub(crate) lost_requests: u32,
    /// Negative acknowledgements (aborted inbound transfers or discarded
    /// pending requests) that cannot reach this node while its uplink is
    /// down; resolved at the outage's end.
    pub(crate) pending_nacks: u32,
    /// Consecutive fruitless request retries.
    pub(crate) retry: u32,
    /// The armed request-timeout event, if any.
    pub(crate) timeout: Option<EventHandle>,
    /// The node's uplink is down until this instant.
    pub(crate) outage_until: Time,
    /// Request batches from this node still to be dropped.
    pub(crate) drop_batches: u32,
    /// Deliveries into this node still to be duplicated.
    pub(crate) dup_deliveries: u32,
}

/// Open-world arrival runtime: the pregenerated schedule and the
/// admission bound copied out of the plan, plus the mutable
/// [`ArrivalState`]. Boxed on the [`Simulation`] and `None` in batch
/// mode, so the closed-world hot path carries one dead pointer and the
/// `AR = false` monomorphization compiles every touch point out.
pub(crate) struct ArrivalRt {
    /// The plan's pregenerated sorted schedule (regenerated, not
    /// serialized, on snapshot restore — it is a pure function of the
    /// configuration).
    pub(crate) schedule: Vec<Arrival>,
    /// Admission bound and policy, copied out of the plan.
    pub(crate) queue_cap: u64,
    pub(crate) policy: AdmissionPolicy,
    pub(crate) state: ArrivalState,
}

/// The part of the arrival runtime a run changes: the injection cursor,
/// the deferred (backpressured) queue, and the admission / latency
/// accounting. A [`SimSnapshot`] stores a clone of it.
#[derive(Clone)]
pub(crate) struct ArrivalState {
    /// Next schedule entry to inject.
    pub(crate) cursor: usize,
    /// Deferred arrivals (schedule indices), FIFO.
    pub(crate) deferred: VecDeque<u32>,
    /// Unit tasks currently sitting in `deferred`.
    pub(crate) deferred_units: u64,
    /// Accounting (see [`ArrivalStats`] for semantics).
    pub(crate) submitted: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) deferrals: u64,
    pub(crate) peak_deferred: u64,
    /// `LeakQueuedTask` checker-validation fault: deferrals counted
    /// toward the leak period.
    pub(crate) leak_tick: u64,
    /// Per-admitted-unit admission timestamps, admission order.
    pub(crate) admit_times: Vec<Time>,
    /// Per-unit root-dispatch timestamps, dispatch order.
    pub(crate) dispatch_times: Vec<Time>,
    /// Class of each admitted unit, admission order (drives the
    /// per-class completion attribution).
    pub(crate) admit_class: Vec<u32>,
    pub(crate) admitted_per_class: Vec<u64>,
}

impl ArrivalRt {
    fn new(plan: &crate::arrivals::ArrivalPlan) -> Box<ArrivalRt> {
        Box::new(ArrivalRt {
            schedule: plan.schedule(),
            queue_cap: plan.queue_cap,
            policy: plan.policy,
            state: ArrivalState {
                cursor: 0,
                deferred: VecDeque::new(),
                deferred_units: 0,
                submitted: 0,
                admitted: 0,
                rejected: 0,
                deferrals: 0,
                peak_deferred: 0,
                leak_tick: 0,
                admit_times: Vec::new(),
                dispatch_times: Vec::new(),
                admit_class: Vec::new(),
                admitted_per_class: vec![0; plan.classes.len()],
            },
        })
    }
}

/// Reusable simulation runtime state: every container a run needs, kept
/// between runs with capacity intact.
///
/// One workspace serves one worker thread: construct simulations with
/// [`Simulation::with_workspace`], get the workspace back from
/// [`Simulation::run_reusing`], and the steady-state event loop stops
/// allocating after the first few runs warm the arenas.
///
/// Child-indexed protocol state uses a CSR layout: node `i`'s children
/// occupy indices `kid_start[i]..kid_start[i+1]` of the parallel
/// `kid_*` arrays. Joins splice into the parent's row (rare, O(total
/// children)); the hot-path loops get dense sequential scans.
#[derive(Default)]
pub struct SimWorkspace {
    pub(crate) agenda: Agenda<Event>,
    /// Hot per-node state (see [`HotNode`]).
    pub(crate) hot: Vec<HotNode>,
    /// Cold per-node state, parallel to `hot` (see [`ColdNode`]).
    pub(crate) cold: Vec<ColdNode>,
    /// Non-IC: the single in-flight outbound transfer, per node.
    pub(crate) sending: Vec<Option<Sending>>,
    /// IC: the currently transmitting slot, per node.
    pub(crate) active: Vec<Option<ActiveTransfer>>,
    /// Per-node fault-recovery state, parallel to `hot` (see
    /// [`FaultRt`] for why it is a separate array).
    pub(crate) faults: Vec<FaultRt>,
    pub(crate) parent_of: Vec<Option<usize>>,
    /// Position of node `i` within its parent's child list.
    pub(crate) child_pos: Vec<usize>,
    /// CSR row offsets: node `i`'s children are entries
    /// `kid_start[i]..kid_start[i+1]` of the `kid_*` arrays below.
    pub(crate) kid_start: Vec<u32>,
    /// Child node index per entry.
    pub(crate) kid_node: Vec<u32>,
    /// Outstanding requests from that child.
    pub(crate) kid_pending: Vec<u32>,
    /// IC transfer slot toward that child.
    pub(crate) kid_slot: Vec<Option<SlotTransfer>>,
    /// Cached communication estimate for that child: the true edge
    /// weight under an oracle observer, the observer's current estimate
    /// otherwise. Refreshed wherever the estimate can change (observe
    /// sites, scripted weight changes, joins).
    pub(crate) kid_comm: Vec<u64>,
    /// Cached compute weight of that child (scripted changes refresh it).
    pub(crate) kid_compute: Vec<u64>,
    /// Consecutive missed acks toward that child (fault model).
    pub(crate) kid_missed: Vec<u8>,
    /// Per-node sum of `kid_pending` over the node's row — lets the hot
    /// path answer "any child requesting?" without scanning the row.
    pub(crate) pending_sum: Vec<u32>,
    /// Per-node count of occupied `kid_slot` entries — lets
    /// `reconcile_link` skip the candidate scan when the active transfer
    /// is the only occupied slot (the overwhelmingly common case).
    pub(crate) slots_used: Vec<u32>,
    /// Whether that child has departed — mirrors the child's
    /// `HotNode::departed` so candidate loops never touch the child's
    /// cache lines.
    pub(crate) kid_gone: Vec<bool>,
    pub(crate) service_queue: VecDeque<usize>,
    pub(crate) queued: Vec<bool>,
    pub(crate) completion_times: Vec<Time>,
    pub(crate) checkpoint_records: Vec<(u64, u32)>,
    /// Scratch for candidate lists (child selection / link reconciling);
    /// taken and restored around each use so the event loop never
    /// allocates.
    pub(crate) candidates: Vec<ChildInfo>,
}

impl SimWorkspace {
    /// An empty workspace (allocations happen lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: run one simulation in this workspace. Equivalent to
    /// `Simulation::with_workspace` + `run_reusing`, with the workspace
    /// automatically returned to `self`.
    pub fn run(&mut self, tree: Tree, cfg: SimConfig) -> RunResult {
        let ws = std::mem::take(self);
        let (result, ws) = Simulation::with_workspace(tree, cfg, ws).run_reusing();
        *self = ws;
        result
    }

    /// CSR entry range of node `i`'s children.
    #[inline(always)]
    pub(crate) fn krange(&self, i: usize) -> std::ops::Range<usize> {
        self.kid_start[i] as usize..self.kid_start[i + 1] as usize
    }

    /// Node index of `i`'s child at position `pos`.
    #[inline(always)]
    pub(crate) fn kid(&self, i: usize, pos: usize) -> usize {
        self.kid_node[self.kid_start[i] as usize + pos] as usize
    }
}

/// The progress cursors of a [`Simulation`]: every piece of run state
/// that is not the tree, the configuration, a workspace container, or
/// the arrival runtime. A [`SimSnapshot`] stores a clone of it.
#[derive(Clone)]
pub(crate) struct Progress {
    /// Tasks the root has not yet dispensed (to itself or a child). In
    /// open-world mode this is the *admitted* queue — the quantity the
    /// admission bound caps — and starts at 0.
    pub(crate) remaining: u64,
    pub(crate) completed: u64,
    /// Completion count that ends the run: `total_tasks`, minus (in
    /// open-world `Drop` mode) every rejected unit. Counting unarrived
    /// units keeps the check `completed >= finish_target` exact — it can
    /// only fire once everything submittable has been served.
    pub(crate) finish_target: u64,
    pub(crate) next_checkpoint: usize,
    pub(crate) next_change: usize,
    pub(crate) events_processed: u64,
    /// Preemptions performed (interruptible protocol only).
    pub(crate) preemptions: u64,
    /// Task transfers started (both protocols).
    pub(crate) transfers_started: u64,
    /// Request messages sent upward.
    pub(crate) requests_sent: u64,
    pub(crate) started: bool,
    pub(crate) finished: bool,
    /// Checked mode: last event time seen by the checker (monotonicity).
    pub(crate) check_last_now: Time,
    /// Checked mode: events since the last full invariant sweep.
    pub(crate) events_since_sweep: u32,
    /// Fault injection only: deliveries counted toward `LeakTask`.
    pub(crate) faulty_deliveries: u64,
    /// True iff a fault plan is configured — the single gate keeping the
    /// recovery plumbing off the fault-free hot path.
    pub(crate) fault_active: bool,
    /// Recovery tuning (default when no plan; never read then).
    pub(crate) recovery: RecoveryTuning,
    /// Jitter seed from the fault plan.
    pub(crate) fault_seed: u64,
    /// Missed-ack threshold; `u8::MAX` without a plan so no child is ever
    /// presumed dead on the fault-free path.
    pub(crate) dead_threshold: u8,
    /// Tasks destroyed by faults and not yet reissued by the repository
    /// (the conservation ledger's lost term).
    pub(crate) lost_pending: u64,
    /// Fault/recovery accounting for the run result.
    pub(crate) fstats: FaultStats,
}

/// A configured simulation, ready to [`run`](Simulation::run).
///
/// Generic over its [`TraceSink`]: the default [`NullSink`] has
/// `ENABLED = false`, so every instrumentation site monomorphizes to
/// nothing and the untraced event loop is byte-for-byte the pre-tracing
/// one (the `alloc_free` test proves it stays allocation-free). Pass a
/// real sink via [`Simulation::traced`] to capture the full event
/// stream.
pub struct Simulation<S: TraceSink = NullSink> {
    pub(crate) tree: Tree,
    pub(crate) cfg: SimConfig,
    pub(crate) ws: SimWorkspace,
    pub(crate) sink: S,
    /// Progress cursors (see [`Progress`]).
    pub(crate) cur: Progress,
    /// Checked-mode time travel: periodic snapshots so an invariant
    /// violation can be replayed from just before it (see
    /// `snapshot.rs`). `None` whenever checked mode is off, so the
    /// campaign hot path never touches it.
    pub(crate) time_travel: Option<Box<TimeTravel>>,
    /// Open-world arrival runtime; `None` in batch mode (always mirrors
    /// `cfg.arrivals.is_some()`, like `fault_active` mirrors the plan).
    pub(crate) arrivals: Option<Box<ArrivalRt>>,
}

impl Simulation {
    /// Builds a simulation with a fresh workspace. Panics on invalid
    /// configuration or tree (programming errors; experiment inputs are
    /// validated upstream).
    pub fn new(tree: Tree, cfg: SimConfig) -> Self {
        Self::with_workspace(tree, cfg, SimWorkspace::new())
    }

    /// Builds a simulation reusing `ws`'s allocations (returned by
    /// [`Simulation::run_reusing`]). Any state from a previous run is
    /// cleared; capacities are kept.
    pub fn with_workspace(tree: Tree, cfg: SimConfig, ws: SimWorkspace) -> Self {
        Simulation::traced(tree, cfg, ws, NullSink)
    }
}

/// Calls `$sim.$method::<FA, IC, AR>()` with the const parameters that
/// mirror the simulation's runtime mode: whether a fault plan is active,
/// the protocol, and whether an arrival plan is active. This is the one
/// place that triple is mapped onto the monomorphized event loop (see
/// [`Simulation::step_mono`]).
macro_rules! mono {
    ($sim:expr, $method:ident) => {
        match (
            $sim.cur.fault_active,
            $sim.cfg.protocol,
            $sim.arrivals.is_some(),
        ) {
            (false, Protocol::Interruptible, false) => $sim.$method::<false, true, false>(),
            (false, Protocol::NonInterruptible, false) => $sim.$method::<false, false, false>(),
            (true, Protocol::Interruptible, false) => $sim.$method::<true, true, false>(),
            (true, Protocol::NonInterruptible, false) => $sim.$method::<true, false, false>(),
            (false, Protocol::Interruptible, true) => $sim.$method::<false, true, true>(),
            (false, Protocol::NonInterruptible, true) => $sim.$method::<false, false, true>(),
            (true, Protocol::Interruptible, true) => $sim.$method::<true, true, true>(),
            (true, Protocol::NonInterruptible, true) => $sim.$method::<true, false, true>(),
        }
    };
}

impl<S: TraceSink> Simulation<S> {
    /// Builds a simulation whose event loop streams every protocol event
    /// into `sink` (see [`TraceEvent`] for the taxonomy). Run it with
    /// [`Simulation::run_traced`] to get the sink back.
    pub fn traced(tree: Tree, cfg: SimConfig, mut ws: SimWorkspace, sink: S) -> Simulation<S> {
        cfg.validate().expect("invalid SimConfig");
        tree.validate().expect("invalid Tree");
        let n = tree.len();
        if let Some(plan) = &cfg.fault_plan {
            for f in &plan.faults {
                assert!(
                    f.node.index() < n,
                    "fault targets unknown node {} (tree has {n})",
                    f.node
                );
            }
        }

        ws.agenda.reset();
        ws.service_queue.clear();
        ws.queued.clear();
        ws.queued.resize(n, false);
        ws.completion_times.clear();
        ws.completion_times.reserve(cfg.total_tasks as usize);
        ws.checkpoint_records.clear();
        ws.checkpoint_records.reserve(cfg.checkpoints.len());
        ws.candidates.clear();

        // Topology + CSR child tables.
        ws.parent_of.clear();
        ws.parent_of.resize(n, None);
        ws.child_pos.clear();
        ws.child_pos.resize(n, 0);
        ws.kid_start.clear();
        ws.kid_node.clear();
        ws.kid_start.push(0);
        for id in tree.ids() {
            for (pos, &ch) in tree.children(id).iter().enumerate() {
                ws.parent_of[ch.index()] = Some(id.index());
                ws.child_pos[ch.index()] = pos;
                ws.kid_node.push(ch.index() as u32);
            }
            ws.kid_start.push(ws.kid_node.len() as u32);
        }
        let kids_total = ws.kid_node.len();
        ws.kid_pending.clear();
        ws.kid_pending.resize(kids_total, 0);
        ws.kid_slot.clear();
        ws.kid_slot.resize_with(kids_total, || None);
        ws.kid_missed.clear();
        ws.kid_missed.resize(kids_total, 0);
        ws.pending_sum.clear();
        ws.pending_sum.resize(n, 0);
        ws.slots_used.clear();
        ws.slots_used.resize(n, 0);
        ws.kid_gone.clear();
        ws.kid_gone.resize(kids_total, false);
        ws.kid_compute.clear();
        ws.kid_compute
            .extend(ws.kid_node.iter().map(|&c| tree.compute_time(NodeId(c))));

        // Per-node runtime state, rebuilt in place where possible.
        ws.hot.clear();
        for i in 0..n {
            ws.hot.push(HotNode::fresh(i, &cfg));
        }
        let reusable = ws.cold.len().min(n);
        for i in 0..reusable {
            let kids = (ws.kid_start[i + 1] - ws.kid_start[i]) as usize;
            ws.cold[i].reset(kids, &cfg);
        }
        for i in reusable..n {
            let kids = (ws.kid_start[i + 1] - ws.kid_start[i]) as usize;
            ws.cold.push(ColdNode::fresh(kids, &cfg));
        }
        ws.cold.truncate(n);
        ws.sending.clear();
        ws.sending.resize_with(n, || None);
        ws.active.clear();
        ws.active.resize_with(n, || None);
        for f in ws.faults.iter_mut().take(n) {
            *f = FaultRt::default();
        }
        while ws.faults.len() < n {
            ws.faults.push(FaultRt::default());
        }
        ws.faults.truncate(n);

        // Estimate cache: the exact value `ChildInfo` used to derive on
        // every candidate build.
        ws.kid_comm.clear();
        for i in 0..n {
            let oracle = ws.cold[i].observer.is_oracle();
            let r = ws.kid_start[i] as usize..ws.kid_start[i + 1] as usize;
            for (pos, &c) in ws.kid_node[r].iter().enumerate() {
                ws.kid_comm.push(if oracle {
                    tree.comm_time(NodeId(c))
                } else {
                    ws.cold[i].observer.estimate(pos)
                });
            }
        }

        let arrivals = cfg.arrivals.as_ref().map(ArrivalRt::new);
        let remaining = if arrivals.is_some() {
            0
        } else {
            cfg.total_tasks
        };
        let finish_target = cfg.total_tasks;
        let fault_active = cfg.fault_plan.is_some();
        let recovery = cfg
            .fault_plan
            .as_ref()
            .map_or_else(RecoveryTuning::default, |p| p.recovery);
        let fault_seed = cfg.fault_plan.as_ref().map_or(0, |p| p.seed);
        let dead_threshold = if fault_active {
            recovery.missed_ack_threshold
        } else {
            u8::MAX
        };
        let time_travel = cfg.checked.then(|| Box::new(TimeTravel::from_env()));
        Simulation {
            tree,
            cfg,
            ws,
            sink,
            cur: Progress {
                remaining,
                completed: 0,
                finish_target,
                next_checkpoint: 0,
                next_change: 0,
                events_processed: 0,
                preemptions: 0,
                transfers_started: 0,
                requests_sent: 0,
                started: false,
                finished: false,
                check_last_now: 0,
                events_since_sweep: 0,
                faulty_deliveries: 0,
                fault_active,
                recovery,
                fault_seed,
                dead_threshold,
                lost_pending: 0,
                fstats: FaultStats::default(),
            },
            time_travel,
            arrivals,
        }
    }

    /// Start-up: every node issues its initial requests; the cascade
    /// reaches the root, which begins computing and sending. Idempotent;
    /// [`Simulation::step`] calls it automatically.
    pub fn start(&mut self) {
        if self.cur.started {
            return;
        }
        self.cur.started = true;
        // start() runs at t=0, so scheduling by delay places each fault
        // at its absolute time.
        if let Some(plan) = &self.cfg.fault_plan {
            for (index, f) in plan.faults.iter().enumerate() {
                self.ws.agenda.schedule(f.at, Event::Fault { index });
            }
        }
        if let Some(ar) = &self.arrivals {
            if let Some(first) = ar.schedule.first() {
                self.ws.agenda.schedule(first.at, Event::Arrival);
            }
        }
        for i in 0..self.ws.hot.len() {
            self.enqueue(i);
        }
        mono!(self, drain)
    }

    /// Processes exactly one event (plus the resulting service cascade).
    /// Returns `false` once the final task has completed. Panics on
    /// deadlock (empty agenda before the last completion) or event-budget
    /// exhaustion, like [`Simulation::run`].
    pub fn step(&mut self) -> bool {
        mono!(self, step_mono)
    }

    /// [`Simulation::step`], monomorphized on whether a fault plan is
    /// active, on the protocol, and on whether an arrival plan is
    /// active. The `FA = false` instantiation compiles every recovery
    /// gate out of the event loop, keeping the fault-free hot path at
    /// its pre-fault-model cost; `IC` compiles the other discipline's
    /// link path out of the service cascade; `AR = false` compiles the
    /// open-world admission/latency plumbing out the same way. They
    /// always mirror `self.cur.fault_active` / `self.cfg.protocol` /
    /// `self.arrivals.is_some()`.
    fn step_mono<const FA: bool, const IC: bool, const AR: bool>(&mut self) -> bool {
        self.start();
        if self.cur.finished {
            return false;
        }
        let Some((_, ev)) = self.ws.agenda.next() else {
            panic!(
                "simulation deadlock: {}/{} tasks completed with an empty agenda",
                self.cur.completed, self.cfg.total_tasks
            );
        };
        self.cur.events_processed += 1;
        assert!(
            self.cur.events_processed <= self.cfg.max_events,
            "event budget exceeded ({}); runaway simulation",
            self.cfg.max_events
        );
        #[cfg(feature = "profile")]
        let (pk, pt) = (ev.kind(), crate::profile::start());
        self.handle::<FA, AR>(ev);
        self.drain::<FA, IC, AR>();
        #[cfg(feature = "profile")]
        crate::profile::record(pk, pt);
        if self.cfg.checked {
            self.checked_tick();
        }
        !self.cur.finished
    }

    /// Runs to the final task completion and returns the trace.
    pub fn run(self) -> RunResult {
        self.run_reusing().0
    }

    /// Runs to completion, returning the trace *and* the workspace so
    /// the next simulation can reuse its allocations.
    pub fn run_reusing(self) -> (RunResult, SimWorkspace) {
        let (result, ws, _sink) = self.run_traced();
        (result, ws)
    }

    /// Runs to completion, returning the result, the workspace, and the
    /// trace sink (with whatever it recorded).
    pub fn run_traced(mut self) -> (RunResult, SimWorkspace, S) {
        self.start();
        mono!(self, run_mono);
        self.into_result()
    }

    /// The run loop of one [`Simulation::step_mono`] instantiation.
    fn run_mono<const FA: bool, const IC: bool, const AR: bool>(&mut self) {
        while self.step_mono::<FA, IC, AR>() {}
    }

    /// The simulator's one trace tap: every instrumentation site funnels
    /// through here, stamped with the agenda clock. With the default
    /// [`NullSink`] the branch is statically false and the whole call —
    /// including the caller's argument computation, which is also guarded
    /// on `S::ENABLED` — compiles away.
    #[inline(always)]
    fn emit(&mut self, event: TraceEvent) {
        if S::ENABLED {
            self.sink.record(self.ws.agenda.now(), event);
        }
    }

    fn into_result(mut self) -> (RunResult, SimWorkspace, S) {
        let completion_times = std::mem::take(&mut self.ws.completion_times);
        let checkpoint_records = std::mem::take(&mut self.ws.checkpoint_records);
        let end_time = completion_times.last().copied().unwrap_or(0);
        let result = RunResult {
            end_time,
            tasks_per_node: self.ws.hot.iter().map(|n| n.tasks_computed).collect(),
            max_buffers_per_node: self
                .ws
                .hot
                .iter()
                .map(|n| n.ledger.as_ref().map_or(0, |l| l.max_capacity()))
                .collect(),
            final_buffers_per_node: self
                .ws
                .hot
                .iter()
                .map(|n| n.ledger.as_ref().map_or(0, |l| l.capacity()))
                .collect(),
            peak_held_per_node: self
                .ws
                .hot
                .iter()
                .map(|n| n.ledger.as_ref().map_or(0, |l| l.peak_held()))
                .collect(),
            busy_compute_per_node: self.ws.hot.iter().map(|n| n.busy_compute).collect(),
            busy_link_per_node: self.ws.hot.iter().map(|n| n.busy_link).collect(),
            preemptions_per_node: self.ws.cold.iter().map(|c| c.preemptions).collect(),
            checkpoint_max_buffers: checkpoint_records,
            events_processed: self.cur.events_processed,
            preemptions: self.cur.preemptions,
            transfers_started: self.cur.transfers_started,
            requests_sent: self.cur.requests_sent,
            faults: self.cur.fstats.clone(),
            arrivals: match self.arrivals.take() {
                Some(rt) => {
                    let ar = rt.state;
                    let mut completed_per_class = vec![0u64; ar.admitted_per_class.len()];
                    // Completions are matched to classes in admission order
                    // (units are interchangeable; exact when fault-free).
                    let served = (completion_times.len()).min(ar.admit_class.len());
                    for &class in &ar.admit_class[..served] {
                        completed_per_class[class as usize] += 1;
                    }
                    ArrivalStats {
                        submitted: ar.submitted,
                        admitted: ar.admitted,
                        rejected: ar.rejected,
                        deferrals: ar.deferrals,
                        peak_deferred: ar.peak_deferred,
                        admit_times: ar.admit_times,
                        dispatch_times: ar.dispatch_times,
                        completed_per_class,
                        admitted_per_class: ar.admitted_per_class,
                    }
                }
                None => ArrivalStats::default(),
            },
            completion_times,
        };
        (result, self.ws, self.sink)
    }

    // ----- event handling -------------------------------------------------

    fn handle<const FA: bool, const AR: bool>(&mut self, ev: Event) {
        let node = match ev {
            Event::ComputeDone { node }
            | Event::SendDone { node }
            | Event::TransferDone { node } => node,
            Event::Fault { index } => return self.on_fault(index),
            Event::OutageEnd { node } => return self.on_outage_end(node),
            Event::RequestTimeout { node } => return self.on_request_timeout(node),
            Event::Reissue { count } => return self.on_reissue(count),
            Event::Arrival => {
                debug_assert!(AR, "Arrival event without an arrival plan");
                return self.on_arrival();
            }
        };
        if self.ws.hot[node].departed || (FA && self.ws.hot[node].crashed) {
            // Stale event of a node that left (task already reclaimed) or
            // crashed (task already in the lost ledger).
            return;
        }
        match ev {
            Event::ComputeDone { node } => self.on_compute_done::<AR>(node),
            Event::SendDone { node } => self.on_send_done::<FA>(node),
            Event::TransferDone { node } => self.on_transfer_done::<FA>(node),
            _ => unreachable!("dispatched above"),
        }
    }

    fn on_compute_done<const AR: bool>(&mut self, i: usize) {
        let started = self.ws.hot[i]
            .computing_since
            .take()
            .expect("ComputeDone on idle processor");
        self.ws.hot[i].busy_compute += self.ws.agenda.now() - started;
        self.ws.hot[i].tasks_computed += 1;
        self.emit(TraceEvent::ComputeFinish { node: i as u32 });
        self.record_completion::<AR>();
        if self.cur.finished {
            return;
        }
        // §3.1 growth rule 3: computation completed with all buffers empty.
        let now = self.ws.agenda.now();
        if let Some(ledger) = &mut self.ws.hot[i].ledger {
            if ledger.try_grow(GrowthEvent::ComputeCompleted, true) {
                self.ws.cold[i].last_pressure = now;
            }
        }
        self.enqueue(i);
    }

    fn on_send_done<const FA: bool>(&mut self, i: usize) {
        let s = self.ws.sending[i]
            .take()
            .expect("SendDone without in-flight send");
        let now = self.ws.agenda.now();
        let duration = now - s.started_at;
        self.ws.hot[i].busy_link += duration;
        let child = self.ws.kid(i, s.child_pos);
        if FA && self.delivery_blocked(child) {
            // The receiver is dead or its link is dark: the sender
            // observes the reset, the task is lost. No latency sample —
            // nothing was delivered.
            self.on_delivery_failed(i, s.child_pos, child);
            self.enqueue(i);
            return;
        }
        self.ws.cold[i].observer.observe(s.child_pos, duration);
        self.refresh_kid_comm(i, s.child_pos);
        self.emit(TraceEvent::TransferComplete {
            node: i as u32,
            child: child as u32,
            work: duration,
        });
        self.deliver::<FA>(child);
        // §3.1 growth rule 2: send completed, buffers empty, child request
        // outstanding.
        let pressure = self.has_child_requests(i);
        if let Some(ledger) = &mut self.ws.hot[i].ledger {
            if ledger.try_grow(GrowthEvent::SendCompleted, pressure) {
                self.ws.cold[i].last_pressure = now;
            }
        }
        self.enqueue(i);
    }

    fn on_transfer_done<const FA: bool>(&mut self, i: usize) {
        let a = self.ws.active[i]
            .take()
            .expect("TransferDone without active transfer");
        self.ws.hot[i].busy_link += self.ws.agenda.now() - a.started_at;
        // The event firing means the remaining work ran to zero.
        let k = self.ws.kid_start[i] as usize + a.child_pos;
        self.ws.kid_slot[k]
            .as_mut()
            .expect("active transfer without slot")
            .remaining = 0;
        self.finish_slot::<FA>(i, a.child_pos);
        // Growth rule 2 applies to completed communications in general.
        let pressure = self.has_child_requests(i);
        let now = self.ws.agenda.now();
        if let Some(ledger) = &mut self.ws.hot[i].ledger {
            if ledger.try_grow(GrowthEvent::SendCompleted, pressure) {
                self.ws.cold[i].last_pressure = now;
            }
        }
        self.reconcile_link::<FA>(i);
        self.enqueue(i);
    }

    /// Completes the (already inactive) transfer in `child_pos`'s slot:
    /// records the observation and delivers the task.
    fn finish_slot<const FA: bool>(&mut self, i: usize, child_pos: usize) {
        let k = self.ws.kid_start[i] as usize + child_pos;
        let t = self.ws.kid_slot[k]
            .take()
            .expect("completing an empty slot");
        self.ws.slots_used[i] -= 1;
        debug_assert_eq!(
            t.remaining, 0,
            "transfer completed with {} timesteps of work left",
            t.remaining
        );
        let child = self.ws.kid_node[k] as usize;
        if FA && self.delivery_blocked(child) {
            self.on_delivery_failed(i, child_pos, child);
            return;
        }
        self.ws.cold[i].observer.observe(child_pos, t.total);
        self.refresh_kid_comm(i, child_pos);
        self.emit(TraceEvent::TransferComplete {
            node: i as u32,
            child: child as u32,
            work: t.total,
        });
        self.deliver::<FA>(child);
    }

    fn deliver<const FA: bool>(&mut self, child: usize) {
        if FA && self.ws.faults[child].orphaned {
            // The node had presumed its parent dead; a delivery proves
            // otherwise and it resumes requesting.
            self.ws.faults[child].orphaned = false;
            self.ws.faults[child].retry = 0;
        }
        let ledger = self.ws.hot[child]
            .ledger
            .as_mut()
            .expect("delivery to the root");
        ledger.task_arrived();
        if S::ENABLED {
            let (held, capacity) = (ledger.held(), ledger.capacity());
            self.emit(TraceEvent::BufferAcquire {
                node: child as u32,
                held,
                capacity,
            });
        }
        let ledger = self.ws.hot[child]
            .ledger
            .as_mut()
            .expect("delivery to the root");
        if let Some(FaultInjection::LeakTask { every }) = self.cfg.fault {
            self.cur.faulty_deliveries += 1;
            if self.cur.faulty_deliveries.is_multiple_of(every) {
                // The injected bug: the task vanishes from the buffer
                // without being computed or forwarded.
                ledger.take_task();
            }
        }
        if FA && self.ws.faults[child].dup_deliveries > 0 {
            // The network delivered a second copy of the task; the node
            // recognizes it by identity and drops it without touching the
            // ledger (at-least-once network, at-most-once buffer).
            self.ws.faults[child].dup_deliveries -= 1;
            self.cur.fstats.duplicates_dropped += 1;
            self.emit(TraceEvent::DuplicateDrop { node: child as u32 });
        }
        self.enqueue(child);
    }

    fn record_completion<const AR: bool>(&mut self) {
        let now = self.ws.agenda.now();
        self.cur.completed += 1;
        self.ws.completion_times.push(now);
        while self.cur.next_checkpoint < self.cfg.checkpoints.len()
            && self.cur.completed >= self.cfg.checkpoints[self.cur.next_checkpoint]
        {
            let max = self
                .ws
                .hot
                .iter()
                .map(|n| n.ledger.as_ref().map_or(0, |l| l.max_capacity()))
                .max()
                .unwrap_or(0);
            self.ws
                .checkpoint_records
                .push((self.cfg.checkpoints[self.cur.next_checkpoint], max));
            self.cur.next_checkpoint += 1;
        }
        while self.cur.next_change < self.cfg.changes.len()
            && self.cfg.changes[self.cur.next_change].after_tasks <= self.cur.completed
        {
            let ch = self.cfg.changes[self.cur.next_change];
            self.cur.next_change += 1;
            match ch.kind {
                ChangeKind::CommTime(c) => {
                    self.tree.set_comm_time(ch.node, c);
                    let i = ch.node.index();
                    if let Some(p) = self.ws.parent_of[i] {
                        if self.ws.cold[p].observer.is_oracle() {
                            let k = self.ws.kid_start[p] as usize + self.ws.child_pos[i];
                            self.ws.kid_comm[k] = c;
                        }
                    }
                }
                ChangeKind::ComputeTime(w) => {
                    self.tree.set_compute_time(ch.node, w);
                    let i = ch.node.index();
                    if let Some(p) = self.ws.parent_of[i] {
                        let k = self.ws.kid_start[p] as usize + self.ws.child_pos[i];
                        self.ws.kid_compute[k] = w;
                    }
                }
                ChangeKind::Join { comm, compute } => {
                    self.apply_join(ch.node, comm, compute);
                    continue;
                }
                ChangeKind::Leave => {
                    self.apply_leave(ch.node);
                    continue;
                }
            }
            // Re-examine the neighborhood under the new weights. In-flight
            // work keeps its old duration (a transfer/computation started
            // under the old conditions finishes under them).
            self.enqueue(ch.node.index());
            if let Some(p) = self.ws.parent_of[ch.node.index()] {
                self.enqueue(p);
            }
        }
        if AR {
            // A completion will shortly free queue room (the dispatch
            // already did): re-admit deferred arrivals up to the bound.
            self.drain_deferred();
        }
        if self.cur.completed >= self.cur.finish_target {
            self.cur.finished = true;
        }
    }

    // ----- dynamic topology (extension) -------------------------------------

    /// A new node joins under `parent` — §3's scalability property in
    /// action: the parent only gains one more child to prioritize; no
    /// other node learns anything.
    fn apply_join(&mut self, parent: NodeId, comm: u64, compute: u64) {
        let p = parent.index();
        if p >= self.ws.hot.len() || self.ws.hot[p].departed || self.ws.hot[p].crashed {
            // The contact node is unknown or gone before the newcomer
            // arrived; in a real overlay the join simply fails.
            self.emit(TraceEvent::JoinDenied { parent: parent.0 });
            return;
        }
        let id = self.tree.add_child(parent, comm, compute);
        let i = id.index();
        debug_assert_eq!(i, self.ws.hot.len());
        self.ws.parent_of.push(Some(p));
        let pos = (self.ws.kid_start[p + 1] - self.ws.kid_start[p]) as usize;
        self.ws.child_pos.push(pos);
        // Splice the newcomer into the parent's CSR row. Joins are rare
        // scripted events; the O(total children) shift stays off the hot
        // path.
        let at = self.ws.kid_start[p + 1] as usize;
        self.ws.kid_node.insert(at, i as u32);
        self.ws.kid_pending.insert(at, 0);
        self.ws.kid_slot.insert(at, None);
        self.ws.kid_missed.insert(at, 0);
        self.ws.kid_gone.insert(at, false);
        self.ws.kid_compute.insert(at, compute);
        self.ws.cold[p].observer.add_child();
        let est = if self.ws.cold[p].observer.is_oracle() {
            comm
        } else {
            self.ws.cold[p].observer.estimate(pos)
        };
        self.ws.kid_comm.insert(at, est);
        for s in self.ws.kid_start[p + 1..].iter_mut() {
            *s += 1;
        }
        let end = *self.ws.kid_start.last().expect("kid_start is non-empty");
        self.ws.kid_start.push(end); // the newcomer has no children yet
        self.ws.hot.push(HotNode::fresh(i, &self.cfg));
        let mut cold = ColdNode::fresh(0, &self.cfg);
        cold.last_pressure = self.ws.agenda.now();
        self.ws.cold.push(cold);
        self.ws.sending.push(None);
        self.ws.active.push(None);
        self.ws.pending_sum.push(0);
        self.ws.slots_used.push(0);
        self.ws.faults.push(FaultRt::default());
        self.ws.queued.push(false);
        self.emit(TraceEvent::NodeJoin {
            node: i as u32,
            parent: p as u32,
        });
        // The newcomer requests its initial tasks; the parent re-evaluates.
        self.enqueue(i);
        self.enqueue(p);
    }

    /// The subtree rooted at `node` departs. Every task it holds — in
    /// buffers, on a processor, or in flight toward it — returns to the
    /// repository for re-dispatch.
    fn apply_leave(&mut self, node: NodeId) {
        let d0 = node.index();
        assert!(d0 < self.ws.hot.len(), "leave of unknown node {node}");
        assert!(d0 != 0, "the repository cannot leave");
        if self.ws.hot[d0].departed || self.ws.hot[d0].crashed {
            return; // already gone (a crash reclaimed nothing — the
                    // tasks are in the lost ledger, not handed back)
        }
        // Reclaim from the boundary edge: the still-present parent may be
        // mid-transfer toward the departing subtree root.
        let mut reclaimed: u64 = 0;
        let p = self.ws.parent_of[d0].expect("non-root has parent");
        let pos = self.ws.child_pos[d0];
        let kp = self.ws.kid_start[p] as usize + pos;
        let denied = self.ws.kid_pending[kp];
        self.ws.kid_pending[kp] = 0;
        self.ws.pending_sum[p] -= denied;
        if S::ENABLED && denied > 0 {
            self.emit(TraceEvent::RequestDeny {
                node: p as u32,
                child: d0 as u32,
                count: denied,
            });
        }
        if let Some(sending) = &self.ws.sending[p] {
            if sending.child_pos == pos {
                let s = self.ws.sending[p].take().expect("checked above");
                self.ws.hot[p].busy_link += self.ws.agenda.now() - s.started_at;
                self.ws.agenda.cancel(s.handle);
                reclaimed += 1;
            }
        }
        if let Some(active) = &self.ws.active[p] {
            if active.child_pos == pos {
                let a = self.ws.active[p].take().expect("checked above");
                self.ws.hot[p].busy_link += self.ws.agenda.now() - a.started_at;
                self.ws.agenda.cancel(a.handle);
            }
        }
        if self.ws.kid_slot[kp].take().is_some() {
            self.ws.slots_used[p] -= 1;
            reclaimed += 1;
        }

        // Walk the departing subtree, reclaiming everything it holds. A
        // branch that departed earlier was already reclaimed then (its
        // ledger still reports its old holdings) and must not be counted
        // again; its whole subtree is departed, so don't descend either.
        let mut stack = vec![d0];
        while let Some(d) = stack.pop() {
            if self.ws.hot[d].departed || self.ws.hot[d].crashed {
                // A crashed branch's holdings are in the lost ledger, not
                // reclaimable; its whole subtree is crashed too.
                continue;
            }
            let r = self.ws.krange(d);
            stack.extend(self.ws.kid_node[r.clone()].iter().map(|&c| c as usize));
            self.ws.hot[d].departed = true;
            if self.ws.hot[d].computing_since.take().is_some() {
                reclaimed += 1; // its ComputeDone event will be ignored
            }
            if self.ws.sending[d].take().is_some() {
                reclaimed += 1; // SendDone ignored; task vanishes with d
            }
            self.ws.active[d] = None;
            reclaimed += self.ws.kid_slot[r.clone()]
                .iter_mut()
                .filter_map(Option::take)
                .count() as u64;
            self.ws.slots_used[d] = 0;
            reclaimed += self.ws.hot[d].ledger.as_ref().map_or(0, |l| l.held()) as u64;
            self.ws.kid_pending[r].iter_mut().for_each(|q| *q = 0);
            self.ws.pending_sum[d] = 0;
            // Mirror the departure into the parent's candidate filter.
            if let Some(pp) = self.ws.parent_of[d] {
                let k = self.ws.kid_start[pp] as usize + self.ws.child_pos[d];
                self.ws.kid_gone[k] = true;
            }
        }

        self.emit(TraceEvent::NodeLeave {
            node: d0 as u32,
            reclaimed,
        });
        self.cur.remaining += reclaimed;
        // The parent's link may have freed; the repository has new work.
        if matches!(self.cfg.protocol, Protocol::Interruptible) {
            if self.cur.fault_active {
                self.reconcile_link::<true>(p);
            } else {
                self.reconcile_link::<false>(p);
            }
        }
        self.enqueue(p);
        self.enqueue(0);
    }

    // ----- service pass ---------------------------------------------------

    fn enqueue(&mut self, i: usize) {
        if !self.ws.queued[i] {
            self.ws.queued[i] = true;
            self.ws.service_queue.push_back(i);
        }
    }

    fn drain<const FA: bool, const IC: bool, const AR: bool>(&mut self) {
        debug_assert_eq!(IC, self.cfg.protocol == Protocol::Interruptible);
        while let Some(i) = self.ws.service_queue.pop_front() {
            self.ws.queued[i] = false;
            if self.cur.finished {
                continue;
            }
            self.service::<FA, IC, AR>(i);
        }
    }

    fn service<const FA: bool, const IC: bool, const AR: bool>(&mut self, i: usize) {
        if self.ws.hot[i].departed || (FA && self.ws.hot[i].crashed) {
            return;
        }
        if self.cfg.self_first {
            self.fill_processor::<AR>(i);
            self.fill_link::<FA, IC, AR>(i);
        } else {
            self.fill_link::<FA, IC, AR>(i);
            self.fill_processor::<AR>(i);
        }
        self.issue_requests::<FA>(i);
    }

    fn fill_processor<const AR: bool>(&mut self, i: usize) {
        if self.ws.hot[i].computing_since.is_some() || !self.take_task::<AR>(i) {
            return;
        }
        self.ws.hot[i].computing_since = Some(self.ws.agenda.now());
        self.emit(TraceEvent::ComputeStart { node: i as u32 });
        let w = self.tree.compute_time(NodeId(i as u32));
        self.ws.agenda.schedule(w, Event::ComputeDone { node: i });
    }

    /// Takes one task for local use (compute or send start). Returns false
    /// if none is available. Applies §3.1 growth rule 1 on the transition
    /// to empty. Under `AR`, a root take is a *dispatch*: the unit leaves
    /// the admission queue and its wait ends (latency accounting).
    fn take_task<const AR: bool>(&mut self, i: usize) -> bool {
        if i == 0 {
            if self.cur.remaining == 0 {
                return false;
            }
            self.cur.remaining -= 1;
            if AR {
                let now = self.ws.agenda.now();
                let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
                ar.state.dispatch_times.push(now);
            }
            return true;
        }
        let pressure = self.has_child_requests(i);
        let now = self.ws.agenda.now();
        let ledger = self.ws.hot[i].ledger.as_mut().expect("non-root has ledger");
        if ledger.held() == 0 {
            return false;
        }
        ledger.take_task();
        // Occupancy at the instant of removal, before any growth below.
        let (held, capacity) = (ledger.held(), ledger.capacity());
        if ledger.try_grow(GrowthEvent::ChildRequestPressure, pressure) {
            self.ws.cold[i].last_pressure = now;
        }
        if S::ENABLED {
            self.emit(TraceEvent::BufferRelease {
                node: i as u32,
                held,
                capacity,
            });
        }
        true
    }

    fn has_task(&self, i: usize) -> bool {
        if i == 0 {
            self.cur.remaining > 0
        } else {
            self.ws.hot[i].ledger.as_ref().is_some_and(|l| l.held() > 0)
        }
    }

    fn has_child_requests(&self, i: usize) -> bool {
        self.ws.pending_sum[i] > 0
    }

    /// The selection view of `i`'s child at `pos`, read straight from the
    /// CSR caches (`kid_comm` holds exactly what the observer/tree would
    /// say; see its field docs).
    #[inline(always)]
    fn child_info(&self, i: usize, pos: usize) -> ChildInfo {
        let k = self.ws.kid_start[i] as usize + pos;
        ChildInfo {
            index: pos,
            comm_estimate: self.ws.kid_comm[k],
            compute_estimate: self.ws.kid_compute[k],
        }
    }

    /// Re-derives the cached comm estimate for `i`'s child at `pos` after
    /// an observation landed.
    #[inline(always)]
    fn refresh_kid_comm(&mut self, i: usize, pos: usize) {
        let ob = &self.ws.cold[i].observer;
        if !ob.is_oracle() {
            let k = self.ws.kid_start[i] as usize + pos;
            self.ws.kid_comm[k] = ob.estimate(pos);
        }
    }

    fn fill_link<const FA: bool, const IC: bool, const AR: bool>(&mut self, i: usize) {
        if self.ws.kid_start[i + 1] == self.ws.kid_start[i] {
            return; // leaves have no outbound link work, ever
        }
        if IC {
            self.fill_slots::<FA, AR>(i);
            self.reconcile_link::<FA>(i);
        } else {
            self.fill_link_nonic::<FA, AR>(i);
        }
    }

    fn fill_link_nonic<const FA: bool, const AR: bool>(&mut self, i: usize) {
        if self.ws.sending[i].is_some() || self.ws.pending_sum[i] == 0 || !self.has_task(i) {
            return;
        }
        let mut candidates = std::mem::take(&mut self.ws.candidates);
        candidates.clear();
        for (pos, k) in self.ws.krange(i).enumerate() {
            if self.ws.kid_pending[k] > 0
                && (!FA || self.ws.kid_missed[k] < self.cur.dead_threshold)
                && !self.ws.kid_gone[k]
            {
                candidates.push(ChildInfo {
                    index: pos,
                    comm_estimate: self.ws.kid_comm[k],
                    compute_estimate: self.ws.kid_compute[k],
                });
            }
        }
        let chosen = self.ws.cold[i].selector.select(&candidates);
        self.ws.candidates = candidates;
        let Some(pos) = chosen else {
            return;
        };
        if !self.take_task::<AR>(i) {
            return;
        }
        let k = self.ws.kid_start[i] as usize + pos;
        self.ws.kid_pending[k] -= 1;
        self.ws.pending_sum[i] -= 1;
        let child = self.ws.kid_node[k] as usize;
        let c = self.tree.comm_time(NodeId(child as u32));
        let now = self.ws.agenda.now();
        self.cur.transfers_started += 1;
        self.emit(TraceEvent::TransferStart {
            node: i as u32,
            child: child as u32,
            work: c,
        });
        let handle = self.ws.agenda.schedule(c, Event::SendDone { node: i });
        self.ws.sending[i] = Some(Sending {
            child_pos: pos,
            started_at: now,
            handle,
        });
    }

    /// IC: delegate buffered tasks into empty slots of requesting
    /// children, best-priority first, while tasks last.
    fn fill_slots<const FA: bool, const AR: bool>(&mut self, i: usize) {
        if self.ws.pending_sum[i] == 0 {
            return; // no requesting child, so no candidate either
        }
        let mut candidates = std::mem::take(&mut self.ws.candidates);
        loop {
            if self.ws.pending_sum[i] == 0 || !self.has_task(i) {
                break;
            }
            candidates.clear();
            for (pos, k) in self.ws.krange(i).enumerate() {
                if self.ws.kid_pending[k] > 0
                    && self.ws.kid_slot[k].is_none()
                    && (!FA || self.ws.kid_missed[k] < self.cur.dead_threshold)
                    && !self.ws.kid_gone[k]
                {
                    candidates.push(ChildInfo {
                        index: pos,
                        comm_estimate: self.ws.kid_comm[k],
                        compute_estimate: self.ws.kid_compute[k],
                    });
                }
            }
            let Some(pos) = self.ws.cold[i].selector.select(&candidates) else {
                break;
            };
            if !self.take_task::<AR>(i) {
                break;
            }
            let k = self.ws.kid_start[i] as usize + pos;
            self.ws.kid_pending[k] -= 1;
            self.ws.pending_sum[i] -= 1;
            self.cur.transfers_started += 1;
            let child = self.ws.kid_node[k] as usize;
            let c = self.tree.comm_time(NodeId(child as u32));
            self.ws.kid_slot[k] = Some(SlotTransfer {
                remaining: c,
                total: c,
                started: false,
            });
            self.ws.slots_used[i] += 1;
        }
        self.ws.candidates = candidates;
    }

    /// IC: ensure the link transmits the highest-priority occupied slot,
    /// preempting if a better slot appeared (§3.2).
    fn reconcile_link<const FA: bool>(&mut self, i: usize) {
        // Fast paths on the occupancy count: nothing to transmit, or the
        // active transfer is the only occupied slot (then the full scan
        // below would find best == active and do nothing).
        let used = self.ws.slots_used[i];
        if used == 0 {
            debug_assert!(self.ws.active[i].is_none(), "active without slots");
            return;
        }
        if used == 1 && self.ws.active[i].is_some() {
            return;
        }
        let mut candidates = std::mem::take(&mut self.ws.candidates);
        candidates.clear();
        for (pos, k) in self.ws.krange(i).enumerate() {
            if self.ws.kid_slot[k].is_some() {
                candidates.push(ChildInfo {
                    index: pos,
                    comm_estimate: self.ws.kid_comm[k],
                    compute_estimate: self.ws.kid_compute[k],
                });
            }
        }
        let best = self.ws.cold[i].selector.best(&candidates);
        self.ws.candidates = candidates;
        match (&self.ws.active[i], best) {
            (_, None) => {
                debug_assert!(self.ws.active[i].is_none(), "active without slots");
            }
            (None, Some(b)) => self.activate(i, b),
            (Some(a), Some(b)) if b != a.child_pos => {
                let a_info = self.child_info(i, a.child_pos);
                let b_info = self.child_info(i, b);
                if self.ws.cold[i].selector.outranks(&b_info, &a_info) {
                    self.preempt::<FA>(i);
                    // The preempted transfer may have completed at this
                    // exact instant; re-rank rather than assuming `b`.
                    self.reconcile_link::<FA>(i);
                }
            }
            _ => {}
        }
    }

    fn activate(&mut self, i: usize, pos: usize) {
        debug_assert!(self.ws.active[i].is_none());
        let k = self.ws.kid_start[i] as usize + pos;
        let slot = self.ws.kid_slot[k]
            .as_mut()
            .expect("activating an empty slot");
        let remaining = slot.remaining;
        let first = !slot.started;
        let total = slot.total;
        slot.started = true;
        if S::ENABLED {
            let child = self.ws.kid_node[k];
            self.emit(if first {
                TraceEvent::TransferStart {
                    node: i as u32,
                    child,
                    work: total,
                }
            } else {
                TraceEvent::TransferResume {
                    node: i as u32,
                    child,
                    remaining,
                }
            });
        }
        let now = self.ws.agenda.now();
        let handle = self
            .ws
            .agenda
            .schedule(remaining, Event::TransferDone { node: i });
        self.ws.active[i] = Some(ActiveTransfer {
            child_pos: pos,
            started_at: now,
            remaining_at_start: remaining,
            handle,
        });
    }

    /// Shelves the active transfer (or finishes it inline if it has
    /// exactly zero work left at this instant).
    fn preempt<const FA: bool>(&mut self, i: usize) {
        self.cur.preemptions += 1;
        self.ws.cold[i].preemptions += 1;
        let a = self.ws.active[i].take().expect("preempting idle link");
        self.ws.agenda.cancel(a.handle);
        let elapsed = self.ws.agenda.now() - a.started_at;
        self.ws.hot[i].busy_link += elapsed;
        let remaining = a
            .remaining_at_start
            .checked_sub(elapsed)
            .expect("transfer ran past its completion");
        let k = self.ws.kid_start[i] as usize + a.child_pos;
        let slot = self.ws.kid_slot[k]
            .as_mut()
            .expect("active transfer without slot");
        slot.remaining = remaining;
        if S::ENABLED {
            let child = self.ws.kid_node[k];
            self.emit(TraceEvent::TransferPreempt {
                node: i as u32,
                child,
                remaining,
            });
        }
        if remaining == 0 {
            self.finish_slot::<FA>(i, a.child_pos);
        }
    }

    // ----- requests -------------------------------------------------------

    fn issue_requests<const FA: bool>(&mut self, i: usize) {
        if i == 0 {
            return;
        }
        let now = self.ws.agenda.now();
        // Decay (extension): reclaim an idle grown buffer after a quiet
        // window, before covering it with a fresh request.
        let last_pressure = self.ws.cold[i].last_pressure;
        if let Some(ledger) = &mut self.ws.hot[i].ledger {
            if let Some(window) = ledger.decay_after() {
                if now.saturating_sub(last_pressure) >= window && ledger.try_shrink() {
                    self.ws.cold[i].last_pressure = now;
                }
            }
        }
        let ledger = self.ws.hot[i].ledger.as_mut().expect("non-root has ledger");
        let n = ledger.uncovered();
        if n == 0 {
            return;
        }
        if FA && self.ws.faults[i].orphaned {
            // Retry budget exhausted: presumed-dead parent, stop asking.
            return;
        }
        let ledger = self.ws.hot[i].ledger.as_mut().expect("non-root has ledger");
        ledger.note_requests_sent(n);
        self.cur.requests_sent += n as u64;
        self.emit(TraceEvent::Request {
            node: i as u32,
            count: n,
        });
        let parent = self.ws.parent_of[i].expect("non-root has parent");
        let pos = self.ws.child_pos[i];
        if FA && self.request_lost(i, parent) {
            // The batch vanished in the network: still covered here (the
            // node believes it asked), unknown to the parent. The timeout
            // withdraws and re-sends it.
            self.ws.faults[i].lost_requests += n;
            self.cur.fstats.requests_dropped += n as u64;
            self.emit(TraceEvent::RequestLoss {
                node: i as u32,
                count: n,
            });
            self.arm_request_timeout(i);
            return;
        }
        // Delivered — requests are instantaneous control messages, so
        // delivery doubles as the acknowledgement.
        if FA {
            self.ws.faults[i].retry = 0;
        }
        let k = self.ws.kid_start[parent] as usize + pos;
        self.ws.kid_pending[k] += n;
        self.ws.pending_sum[parent] += n;
        if FA && self.ws.kid_missed[k] >= self.cur.dead_threshold {
            // Heard from a child previously presumed dead: revise.
            self.ws.kid_missed[k] = 0;
            self.cur.fstats.children_revived += 1;
            self.emit(TraceEvent::ChildRevived {
                node: parent as u32,
                child: i as u32,
            });
        }
        self.enqueue(parent);
    }

    // ----- fault model & recovery (extension) -------------------------------

    /// A scheduled environment fault strikes.
    #[cold]
    #[inline(never)]
    fn on_fault(&mut self, index: usize) {
        let f = self
            .cfg
            .fault_plan
            .as_ref()
            .expect("fault without plan")
            .faults[index];
        self.cur.fstats.faults_injected += 1;
        let node = f.node.index();
        match f.kind {
            FaultKind::RequestLoss { batches } => {
                if !self.ws.hot[node].departed && !self.ws.hot[node].crashed {
                    self.ws.faults[node].drop_batches += batches;
                }
            }
            FaultKind::DuplicateDelivery { copies } => {
                if !self.ws.hot[node].departed && !self.ws.hot[node].crashed {
                    self.ws.faults[node].dup_deliveries += copies;
                }
            }
            FaultKind::TransferAbort => self.abort_boundary(node, Nack::Instant),
            FaultKind::LinkOutage { duration } => self.on_link_outage(node, duration),
            FaultKind::Crash => self.apply_crash(node),
        }
    }

    /// Whether `i`'s uplink is currently inside an outage window.
    fn link_down(&self, i: usize) -> bool {
        self.ws.faults[i].outage_until > self.ws.agenda.now()
    }

    /// Whether a completing transfer toward `child` can actually land.
    fn delivery_blocked(&self, child: usize) -> bool {
        self.ws.hot[child].crashed || self.link_down(child)
    }

    /// A transfer from `i` toward child position `pos` completed its
    /// transmission but could not be delivered (receiver crashed or its
    /// link is dark): the task is lost and the sender notices the missed
    /// acknowledgement.
    #[cold]
    #[inline(never)]
    fn on_delivery_failed(&mut self, i: usize, pos: usize, child: usize) {
        self.emit(TraceEvent::TransferAbort {
            node: i as u32,
            child: child as u32,
        });
        self.cur.fstats.transfer_aborts += 1;
        self.lose_tasks(1);
        self.note_missed_ack(i, pos);
        let c = &self.ws.hot[child];
        if !c.crashed && !c.departed {
            // Live but unreachable: the covering request is voided when
            // the link comes back.
            self.ws.faults[child].pending_nacks += 1;
        }
    }

    /// Tears down the in-flight transfer (if any) from `child`'s parent
    /// toward `child`. Parked IC slots are left alone — they fail at
    /// delivery time if the child is still unreachable then.
    #[cold]
    #[inline(never)]
    fn abort_boundary(&mut self, child: usize, nack: Nack) {
        if self.ws.hot[child].departed {
            return;
        }
        let Some(p) = self.ws.parent_of[child] else {
            return;
        };
        if self.ws.hot[p].departed || self.ws.hot[p].crashed {
            return;
        }
        let pos = self.ws.child_pos[child];
        let now = self.ws.agenda.now();
        let mut aborted = false;
        if let Some(s) = &self.ws.sending[p] {
            if s.child_pos == pos {
                let s = self.ws.sending[p].take().expect("checked above");
                self.ws.hot[p].busy_link += now - s.started_at;
                self.ws.agenda.cancel(s.handle);
                aborted = true;
            }
        }
        if let Some(a) = &self.ws.active[p] {
            if a.child_pos == pos {
                let a = self.ws.active[p].take().expect("checked above");
                self.ws.hot[p].busy_link += now - a.started_at;
                self.ws.agenda.cancel(a.handle);
                let k = self.ws.kid_start[p] as usize + pos;
                let t = self.ws.kid_slot[k].take();
                debug_assert!(t.is_some(), "active transfer without slot");
                self.ws.slots_used[p] -= 1;
                aborted = true;
            }
        }
        if !aborted {
            return;
        }
        self.emit(TraceEvent::TransferAbort {
            node: p as u32,
            child: child as u32,
        });
        self.cur.fstats.transfer_aborts += 1;
        self.lose_tasks(1);
        self.note_missed_ack(p, pos);
        match nack {
            Nack::Instant => {
                // The child sees its inbound transfer reset: the covering
                // request is void, so it re-requests immediately.
                self.ws.hot[child]
                    .ledger
                    .as_mut()
                    .expect("non-root has ledger")
                    .uncover(1);
                self.enqueue(child);
            }
            Nack::Deferred => self.ws.faults[child].pending_nacks += 1,
            Nack::None => {}
        }
        if matches!(self.cfg.protocol, Protocol::Interruptible) {
            // Faults are the only path here, so the plan is active.
            self.reconcile_link::<true>(p);
        }
        self.enqueue(p);
    }

    /// `node`'s uplink goes dark for `duration` timesteps. Overlapping
    /// outages extend the window to the furthest end.
    #[cold]
    #[inline(never)]
    fn on_link_outage(&mut self, node: usize, duration: u64) {
        if self.ws.hot[node].departed || self.ws.hot[node].crashed {
            return;
        }
        let until = self.ws.agenda.now() + duration;
        if until > self.ws.faults[node].outage_until {
            self.ws.faults[node].outage_until = until;
            self.ws.agenda.schedule(duration, Event::OutageEnd { node });
        }
        self.emit(TraceEvent::LinkDown {
            node: node as u32,
            until: self.ws.faults[node].outage_until,
        });
        // Anything mid-flight toward the node is torn down; the nack
        // cannot cross the dark link until the outage ends.
        self.abort_boundary(node, Nack::Deferred);
    }

    /// `node`'s outage window ended: deferred nacks resolve and the node
    /// re-requests for the newly voided coverage.
    #[cold]
    #[inline(never)]
    fn on_outage_end(&mut self, node: usize) {
        if self.ws.hot[node].departed || self.ws.hot[node].crashed {
            return;
        }
        if self.ws.agenda.now() < self.ws.faults[node].outage_until {
            return; // superseded by a longer overlapping outage
        }
        let k = self.ws.faults[node].pending_nacks;
        self.ws.faults[node].pending_nacks = 0;
        if k > 0 {
            self.ws.hot[node]
                .ledger
                .as_mut()
                .expect("non-root has ledger")
                .uncover(k);
        }
        self.emit(TraceEvent::LinkUp { node: node as u32 });
        self.enqueue(node);
    }

    /// The subtree rooted at `d0` dies abruptly. Unlike a graceful
    /// [`apply_leave`](Self::apply_leave), nothing is handed back: every
    /// task the subtree holds is destroyed and enters the repository's
    /// reissue ledger after the detection latency, and the parent is NOT
    /// told — it keeps its pending requests and keeps delegating until
    /// missed acks cross the threshold (locality: no global knowledge).
    #[cold]
    #[inline(never)]
    fn apply_crash(&mut self, d0: usize) {
        if self.ws.hot[d0].departed || self.ws.hot[d0].crashed {
            return;
        }
        // The boundary in-flight transfer aborts immediately: the sender's
        // link observes the reset (one missed ack right away).
        self.abort_boundary(d0, Nack::None);
        let mut lost: u64 = 0;
        let mut stack = vec![d0];
        while let Some(d) = stack.pop() {
            if self.ws.hot[d].departed || self.ws.hot[d].crashed {
                // Already-gone branches hold nothing (reclaimed or lost
                // when they went); don't descend or count them again.
                continue;
            }
            let r = self.ws.krange(d);
            stack.extend(self.ws.kid_node[r.clone()].iter().map(|&c| c as usize));
            self.ws.hot[d].crashed = true;
            let timeout = self.ws.faults[d].timeout.take();
            if self.ws.hot[d].computing_since.take().is_some() {
                lost += 1;
            }
            let sending = self.ws.sending[d].take();
            if sending.is_some() {
                lost += 1;
            }
            let active = self.ws.active[d].take();
            lost += self.ws.kid_slot[r.clone()]
                .iter_mut()
                .filter_map(Option::take)
                .count() as u64;
            self.ws.slots_used[d] = 0;
            lost += self.ws.hot[d].ledger.as_ref().map_or(0, |l| l.held()) as u64;
            self.ws.kid_pending[r].iter_mut().for_each(|q| *q = 0);
            self.ws.pending_sum[d] = 0;
            if let Some(h) = timeout {
                self.ws.agenda.cancel(h);
            }
            if let Some(s) = sending {
                self.ws.agenda.cancel(s.handle);
            }
            if let Some(a) = active {
                self.ws.agenda.cancel(a.handle);
            }
        }
        self.emit(TraceEvent::NodeCrash {
            node: d0 as u32,
            lost,
        });
        self.cur.fstats.crashes += 1;
        self.cur.fstats.last_crash_time = Some(self.ws.agenda.now());
        self.lose_tasks(lost);
    }

    /// `n` tasks were destroyed by a fault: they enter the lost ledger and
    /// the repository re-injects them after the detection latency.
    #[cold]
    #[inline(never)]
    fn lose_tasks(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.cur.lost_pending += n;
        self.cur.fstats.tasks_lost += n;
        self.ws
            .agenda
            .schedule(self.cur.recovery.reissue_delay, Event::Reissue { count: n });
    }

    /// The repository's detection latency elapsed: `count` lost tasks
    /// re-enter the remaining pool (exactly once — conservation holds).
    #[cold]
    #[inline(never)]
    fn on_reissue(&mut self, count: u64) {
        debug_assert!(self.cur.lost_pending >= count, "reissue of untracked tasks");
        self.cur.lost_pending -= count;
        if matches!(self.cfg.fault, Some(FaultInjection::SwallowReissue)) {
            // The injected bug: the repository forgets the lost tasks.
            // Task conservation breaks and the checker must say so.
            return;
        }
        self.cur.remaining += count;
        self.cur.fstats.tasks_reissued += count;
        self.emit(TraceEvent::TaskReissue { count });
        self.enqueue(0);
    }

    // ----- open-world arrivals (extension) ----------------------------------

    /// The arrival cursor's chained event fired: inject every arrival
    /// due now, then re-chain for the next instant. Arrivals are rare
    /// relative to protocol events, so this stays off the inline path.
    #[cold]
    #[inline(never)]
    fn on_arrival(&mut self) {
        let now = self.ws.agenda.now();
        loop {
            let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
            let Some(&a) = ar.schedule.get(ar.state.cursor) else {
                return; // schedule exhausted; no re-chain
            };
            if a.at > now {
                self.ws.agenda.schedule(a.at - now, Event::Arrival);
                return;
            }
            let idx = ar.state.cursor as u32;
            ar.state.cursor += 1;
            ar.state.submitted += a.units;
            self.emit(TraceEvent::TaskArrival {
                class: a.class,
                units: a.units,
            });
            self.submit_arrival(a, idx);
        }
    }

    /// Admission control for one arrival: admit within the queue bound,
    /// otherwise shed (`Drop`) or backpressure (`Defer`).
    fn submit_arrival(&mut self, a: Arrival, idx: u32) {
        let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
        if self.cur.remaining + a.units <= ar.queue_cap {
            self.admit_units(a.class, a.units);
            return;
        }
        match ar.policy {
            AdmissionPolicy::Drop => {
                ar.state.rejected += a.units;
                self.cur.finish_target -= a.units;
                self.emit(TraceEvent::TaskReject {
                    class: a.class,
                    units: a.units,
                });
                // The shed units may have been the last outstanding work.
                if self.cur.completed >= self.cur.finish_target {
                    self.cur.finished = true;
                }
            }
            AdmissionPolicy::Defer => {
                if let Some(FaultInjection::LeakQueuedTask { every }) = self.cfg.fault {
                    ar.state.leak_tick += 1;
                    if ar.state.leak_tick.is_multiple_of(every) {
                        // The injected bug: the arrival is counted as
                        // submitted but silently dropped — neither queued,
                        // admitted, nor rejected. Open-world conservation
                        // breaks and the checker must say so.
                        return;
                    }
                }
                ar.state.deferred.push_back(idx);
                ar.state.deferred_units += a.units;
                ar.state.deferrals += 1;
                ar.state.peak_deferred = ar.state.peak_deferred.max(ar.state.deferred_units);
                let waiting = ar.state.deferred_units;
                self.emit(TraceEvent::TaskDefer {
                    class: a.class,
                    units: a.units,
                    waiting,
                });
            }
        }
    }

    /// `units` tasks of `class` enter the repository queue.
    fn admit_units(&mut self, class: u32, units: u64) {
        let now = self.ws.agenda.now();
        self.cur.remaining += units;
        let queued = self.cur.remaining;
        let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
        ar.state.admitted += units;
        ar.state.admitted_per_class[class as usize] += units;
        for _ in 0..units {
            ar.state.admit_times.push(now);
            ar.state.admit_class.push(class);
        }
        self.emit(TraceEvent::TaskAdmit {
            class,
            units,
            queued,
        });
        self.enqueue(0);
    }

    /// Re-admits deferred arrivals while the queue bound allows (called
    /// at each completion in open-world mode — dispatches have already
    /// freed the room by then).
    #[cold]
    #[inline(never)]
    fn drain_deferred(&mut self) {
        loop {
            let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
            let Some(&idx) = ar.state.deferred.front() else {
                return;
            };
            let a = ar.schedule[idx as usize];
            if self.cur.remaining + a.units > ar.queue_cap {
                return;
            }
            ar.state.deferred.pop_front();
            ar.state.deferred_units -= a.units;
            self.admit_units(a.class, a.units);
        }
    }

    /// `i`'s request timeout fired: withdraw any lost requests and re-send
    /// them, or give up after the retry budget (a later successful
    /// delivery revives the node).
    #[cold]
    #[inline(never)]
    fn on_request_timeout(&mut self, i: usize) {
        self.ws.faults[i].timeout = None;
        if self.ws.hot[i].departed || self.ws.hot[i].crashed {
            return;
        }
        let lost = self.ws.faults[i].lost_requests;
        if lost == 0 {
            // Everything sent since arming was acknowledged.
            self.ws.faults[i].retry = 0;
            return;
        }
        self.ws.faults[i].retry += 1;
        let retry = self.ws.faults[i].retry;
        self.ws.faults[i].lost_requests = 0;
        self.ws.hot[i]
            .ledger
            .as_mut()
            .expect("non-root has ledger")
            .uncover(lost);
        if retry > self.cur.recovery.max_retries {
            self.ws.faults[i].orphaned = true;
            self.cur.fstats.gave_up += 1;
            return;
        }
        self.cur.fstats.retries += 1;
        self.emit(TraceEvent::RequestRetry {
            node: i as u32,
            retry,
            count: lost,
        });
        self.enqueue(i);
    }

    /// Arms `i`'s request timeout (one outstanding at a time) with
    /// exponential backoff and deterministic seeded jitter.
    #[cold]
    #[inline(never)]
    fn arm_request_timeout(&mut self, i: usize) {
        if self.ws.faults[i].timeout.is_some() {
            return;
        }
        let retry = self.ws.faults[i].retry;
        let base = self.cur.recovery.request_timeout;
        let shift = retry.min(self.cur.recovery.backoff_cap).min(32);
        let jitter =
            split_seed(self.cur.fault_seed, ((i as u64) << 32) | retry as u64) % (base / 4 + 1);
        let deadline = base.saturating_mul(1u64 << shift).saturating_add(jitter);
        let handle = self
            .ws
            .agenda
            .schedule(deadline, Event::RequestTimeout { node: i });
        self.ws.faults[i].timeout = Some(handle);
    }

    /// A transfer from `i` toward child position `pos` went unacknowledged;
    /// at the threshold the child is presumed dead.
    #[cold]
    #[inline(never)]
    fn note_missed_ack(&mut self, i: usize, pos: usize) {
        let k = self.ws.kid_start[i] as usize + pos;
        if self.ws.kid_missed[k] >= self.cur.dead_threshold {
            return;
        }
        self.ws.kid_missed[k] += 1;
        if self.ws.kid_missed[k] >= self.cur.dead_threshold {
            self.declare_dead(i, pos);
        }
    }

    /// `i` declares child position `pos` dead: its outstanding requests are
    /// discarded and it stops being a delegation candidate until it is
    /// heard from again. The belief may be wrong (outage, not crash) — a
    /// live child must not starve on requests the parent silently dropped,
    /// so it is nacked like an aborted transfer.
    #[cold]
    #[inline(never)]
    fn declare_dead(&mut self, i: usize, pos: usize) {
        let k = self.ws.kid_start[i] as usize + pos;
        let child = self.ws.kid_node[k] as usize;
        self.cur.fstats.children_declared_dead += 1;
        self.emit(TraceEvent::ChildDead {
            node: i as u32,
            child: child as u32,
        });
        let denied = self.ws.kid_pending[k];
        if denied == 0 {
            return;
        }
        self.ws.kid_pending[k] = 0;
        self.ws.pending_sum[i] -= denied;
        self.emit(TraceEvent::RequestDeny {
            node: i as u32,
            child: child as u32,
            count: denied,
        });
        if self.ws.hot[child].crashed || self.ws.hot[child].departed {
            return;
        }
        if self.link_down(child) {
            self.ws.faults[child].pending_nacks += denied;
        } else {
            self.ws.hot[child]
                .ledger
                .as_mut()
                .expect("non-root has ledger")
                .uncover(denied);
            self.enqueue(child);
        }
    }

    /// Whether the request batch `i` is sending right now gets lost
    /// (scheduled drop, dark uplink, or dead parent).
    #[cold]
    #[inline(never)]
    fn request_lost(&mut self, i: usize, parent: usize) -> bool {
        if self.ws.faults[i].drop_batches > 0 {
            self.ws.faults[i].drop_batches -= 1;
            return true;
        }
        self.link_down(i) || self.ws.hot[parent].crashed
    }

    // ----- introspection (for tests) ---------------------------------------

    /// Tasks completed so far.
    pub fn completed(&self) -> u64 {
        self.cur.completed
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.ws.agenda.now()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.cur.events_processed
    }

    /// The trace sink, for callers that drain what it recorded between
    /// steps rather than only after [`Simulation::run_traced`].
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    // ----- snapshot / restore (see `snapshot.rs`) ---------------------------

    /// Captures the complete mid-run state. Valid at any quiescent
    /// point: before the first [`Simulation::step`], between steps, or
    /// after the run finished. The snapshot is independent of this
    /// simulation — see [`SimSnapshot`] for resuming, forking, and
    /// serialization.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            tree: self.tree.clone(),
            cfg: self.cfg.clone(),
            ws: self.ws.snapshot(),
            cur: self.cur.clone(),
            arrivals: self.arrivals.as_deref().map(|ar| ar.state.clone()),
        }
    }

    /// Rebuilds the captured run from `snap`, reusing `ws`'s
    /// allocations and streaming the continuation into `sink`. The
    /// continuation behaves exactly as the captured run would have:
    /// same `RunResult`, same trace suffix, same event counts.
    pub fn from_snapshot_traced(
        snap: &SimSnapshot,
        mut ws: SimWorkspace,
        sink: S,
    ) -> Simulation<S> {
        ws.restore(&snap.ws);
        // The arrival schedule is a pure function of the plan, so the
        // restore regenerates it and puts the captured state back.
        let arrivals = snap.cfg.arrivals.as_ref().map(|plan| {
            let mut rt = ArrivalRt::new(plan);
            rt.state = snap
                .arrivals
                .clone()
                .expect("arrival plan without arrival state");
            rt
        });
        Simulation {
            tree: snap.tree.clone(),
            cfg: snap.cfg.clone(),
            ws,
            sink,
            cur: snap.cur.clone(),
            time_travel: snap.cfg.checked.then(|| Box::new(TimeTravel::from_env())),
            arrivals,
        }
    }

    /// Runs until the clock is about to reach `t`: processes every
    /// event scheduled strictly before `t`, leaving events at or after
    /// `t` pending. Returns `false` if the run finished first.
    pub fn run_to_time(&mut self, t: Time) -> bool {
        self.start();
        while !self.cur.finished {
            match self.ws.agenda.peek_time() {
                Some(next) if next < t => {
                    if !self.step() {
                        return false;
                    }
                }
                _ => return true,
            }
        }
        false
    }

    /// Applies a what-if fork's recorded edits (see
    /// [`SimSnapshot::fork`]): schedules newly injected faults and
    /// re-examines weight-changed neighborhoods, exactly like scripted
    /// changes applied at the fork instant. On a pre-start snapshot the
    /// plan faults and the full service pass are deferred to `start`.
    pub(crate) fn apply_fork_edits(&mut self, touched: &[usize], injected: &[FaultEvent]) {
        if !injected.is_empty() {
            let n = self.ws.hot.len();
            for f in injected {
                assert!(
                    f.node.index() < n,
                    "fault targets unknown node {} (tree has {n})",
                    f.node
                );
            }
            let now = self.ws.agenda.now();
            let plan = self.cfg.fault_plan.get_or_insert_with(FaultPlan::default);
            let base = plan.faults.len();
            plan.faults.extend_from_slice(injected);
            let (seed, recovery) = (plan.seed, plan.recovery);
            if !self.cur.fault_active {
                self.cur.fault_active = true;
                self.cur.recovery = recovery;
                self.cur.fault_seed = seed;
                self.cur.dead_threshold = recovery.missed_ack_threshold;
            }
            if self.cur.started {
                for (j, f) in injected.iter().enumerate() {
                    self.ws
                        .agenda
                        .schedule(f.at.saturating_sub(now), Event::Fault { index: base + j });
                }
            }
        }
        if !self.cur.started || self.cur.finished {
            return;
        }
        for &i in touched {
            if i < self.ws.hot.len() {
                self.enqueue(i);
            }
        }
        mono!(self, drain)
    }
}

impl Simulation {
    /// Rebuilds the captured run from `snap` with a fresh workspace and
    /// no tracing — the plain continuation.
    pub fn from_snapshot(snap: &SimSnapshot) -> Simulation {
        Simulation::from_snapshot_traced(snap, SimWorkspace::new(), NullSink)
    }

    /// [`Simulation::from_snapshot`] reusing `ws`'s allocations.
    pub fn from_snapshot_with(snap: &SimSnapshot, ws: SimWorkspace) -> Simulation {
        Simulation::from_snapshot_traced(snap, ws, NullSink)
    }
}
