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
//! Per-node runtime state is split by access frequency. `HotNode`
//! holds only what the fault-free event loop touches on (nearly) every
//! event — the ledger, the compute timer, the busy-time accumulators and
//! the liveness bits — in ~1.5 cache lines (the old monolithic node
//! record spanned more than five). Per-*child* protocol state lives in
//! flat CSR arrays on the workspace (`kid_*`): node `i`'s children
//! occupy the contiguous index range `kid_start[i]..kid_start[i+1]`, so
//! the one row scan behind child selection and link reconciling
//! streams over dense parallel arrays instead of chasing per-node `Vec`s
//! and re-deriving estimates through the observer on every pass
//! (`kid_comm` caches the estimate; it is refreshed at the few sites
//! where an estimate can change). Everything only rare paths read —
//! observer, selector, preemption counts, decay timestamps — lives in
//! `ColdNode`, and fault-recovery state stays in `FaultRt` behind
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
//! Everything in the workspace but the agenda and the between-steps
//! scratch is one cloneable `RunState`, so a snapshot captures it with a
//! clone and a restore assigns the clone back.
//!
//! ## Layout
//!
//! This file holds the types, [`Simulation`], the step loop, event
//! dispatch and the result. The service cascade is in `sim/service.rs`,
//! faults and recovery in `sim/faults.rs`, open-world admission in
//! `sim/admission.rs`, and joins, leaves and scripted weight changes in
//! `sim/topology.rs`.

use crate::arrivals::{AdmissionPolicy, Arrival};
use crate::config::{
    ChangeKind, FaultEvent, FaultInjection, FaultPlan, Protocol, RecoveryTuning, SelectorKind,
    SimConfig,
};
use crate::result::{ArrivalStats, FaultStats, RunResult};
use crate::snapshot::SimSnapshot;
use bc_core::{BufferLedger, BufferPolicy, ChildSelector, GrowthEvent, LatencyObserver};
use bc_platform::{NodeId, Tree};
use bc_simcore::{Agenda, EventHandle, NullSink, Time, TraceEvent, TraceSink};
use std::collections::VecDeque;

mod admission;
mod faults;
mod service;
mod topology;

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
    /// The buffer ledger of a non-root node.
    #[inline(always)]
    pub(crate) fn ledger_mut(&mut self) -> &mut BufferLedger {
        self.ledger.as_mut().expect("non-root has ledger")
    }

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
#[derive(Default)]
pub struct SimWorkspace {
    pub(crate) agenda: Agenda<Event>,
    /// Every other container a snapshot captures (see [`RunState`]).
    pub(crate) st: RunState,
    /// Between-steps scratch, empty at every quiescent point and never
    /// captured: the service pass's FIFO and its membership flags.
    pub(crate) service_queue: VecDeque<usize>,
    pub(crate) queued: Vec<bool>,
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

    /// Puts the between-steps scratch in its quiescent (empty) state for
    /// `n` nodes.
    pub(crate) fn clear_scratch(&mut self, n: usize) {
        self.service_queue.clear();
        refill(&mut self.queued, n, false);
    }
}

/// The run state a workspace holds besides the agenda: per-node state,
/// topology, per-child CSR rows and the completion log. A snapshot is a
/// clone of it; its `wire_struct!` listing in `snapshot.rs` is the
/// `BCSS` layout.
///
/// Child-indexed protocol state uses a CSR layout: node `i`'s children
/// occupy indices `kid_start[i]..kid_start[i+1]` of the parallel
/// `kid_*` arrays. Joins splice into the parent's row (rare, O(total
/// children)); the hot-path loops get dense sequential scans.
#[derive(Clone, Default)]
pub(crate) struct RunState {
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
    /// sites, weight changes, joins).
    pub(crate) kid_comm: Vec<u64>,
    /// Cached compute weight of that child (weight changes refresh it).
    pub(crate) kid_compute: Vec<u64>,
    /// Consecutive missed acks toward that child (fault model).
    pub(crate) kid_missed: Vec<u8>,
    /// Per-node sum of `kid_pending` over the node's row — lets the hot
    /// path answer "any child requesting?" without scanning the row.
    pub(crate) pending_sum: Vec<u32>,
    /// Per-node count of occupied `kid_slot` entries — lets
    /// `reconcile_link` skip the row scan when the active transfer
    /// is the only occupied slot (the overwhelmingly common case).
    pub(crate) slots_used: Vec<u32>,
    /// Whether that child has departed — mirrors the child's
    /// `HotNode::departed` so the row scan never touches the child's
    /// cache lines.
    pub(crate) kid_gone: Vec<bool>,
    pub(crate) completion_times: Vec<Time>,
    pub(crate) checkpoint_records: Vec<(u64, u32)>,
}

/// `v` becomes `n` copies of `x`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

impl RunState {
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

    /// Rebuilds the state for a fresh run of `cfg` over `tree` in place,
    /// keeping every container's capacity (what makes repeat runs in one
    /// workspace allocation-free).
    fn reset(&mut self, tree: &Tree, cfg: &SimConfig) {
        let n = tree.len();
        self.completion_times.clear();
        self.completion_times.reserve(cfg.total_tasks as usize);
        self.checkpoint_records.clear();
        self.checkpoint_records.reserve(cfg.checkpoints.len());

        // Topology + CSR child tables.
        refill(&mut self.parent_of, n, None);
        refill(&mut self.child_pos, n, 0);
        self.kid_start.clear();
        self.kid_node.clear();
        self.kid_start.push(0);
        for id in tree.ids() {
            for (pos, &ch) in tree.children(id).iter().enumerate() {
                self.parent_of[ch.index()] = Some(id.index());
                self.child_pos[ch.index()] = pos;
                self.kid_node.push(ch.index() as u32);
            }
            self.kid_start.push(self.kid_node.len() as u32);
        }
        let kids_total = self.kid_node.len();
        refill(&mut self.kid_pending, kids_total, 0);
        refill(&mut self.kid_slot, kids_total, None);
        refill(&mut self.kid_missed, kids_total, 0);
        refill(&mut self.pending_sum, n, 0);
        refill(&mut self.slots_used, n, 0);
        refill(&mut self.kid_gone, kids_total, false);
        self.kid_compute.clear();
        self.kid_compute
            .extend(self.kid_node.iter().map(|&c| tree.compute_time(NodeId(c))));

        // Per-node runtime state, rebuilt in place where possible.
        self.hot.clear();
        self.hot.extend((0..n).map(|i| HotNode::fresh(i, cfg)));
        let reusable = self.cold.len().min(n);
        for i in 0..reusable {
            let kids = self.krange(i).len();
            self.cold[i].reset(kids, cfg);
        }
        for i in reusable..n {
            let kids = self.krange(i).len();
            self.cold.push(ColdNode::fresh(kids, cfg));
        }
        self.cold.truncate(n);
        refill(&mut self.sending, n, None);
        refill(&mut self.active, n, None);
        refill(&mut self.faults, n, FaultRt::default());

        // Estimate cache: what the observer (or, under the oracle, the
        // tree) says for each child, read by every row scan.
        self.kid_comm.clear();
        for i in 0..n {
            let observer = &self.cold[i].observer;
            for (pos, &c) in self.kid_node[self.krange(i)].iter().enumerate() {
                self.kid_comm.push(if observer.is_oracle() {
                    tree.comm_time(NodeId(c))
                } else {
                    observer.estimate(pos)
                });
            }
        }
    }

    /// A join: splices the newcomer (the next node id) into `p`'s CSR
    /// row and appends its per-node state. Joins are rare scripted
    /// events; the O(total children) shift stays off the hot path.
    fn join_child(&mut self, p: usize, comm: u64, compute: u64, cfg: &SimConfig, now: Time) {
        let i = self.hot.len();
        self.parent_of.push(Some(p));
        let pos = self.krange(p).len();
        self.child_pos.push(pos);
        let at = self.kid_start[p + 1] as usize;
        self.kid_node.insert(at, i as u32);
        self.kid_pending.insert(at, 0);
        self.kid_slot.insert(at, None);
        self.kid_missed.insert(at, 0);
        self.kid_gone.insert(at, false);
        self.kid_compute.insert(at, compute);
        let observer = &mut self.cold[p].observer;
        observer.add_child();
        let est = if observer.is_oracle() {
            comm
        } else {
            observer.estimate(pos)
        };
        self.kid_comm.insert(at, est);
        for s in self.kid_start[p + 1..].iter_mut() {
            *s += 1;
        }
        let end = *self.kid_start.last().expect("kid_start is non-empty");
        self.kid_start.push(end); // the newcomer has no children yet
        self.hot.push(HotNode::fresh(i, cfg));
        let mut cold = ColdNode::fresh(0, cfg);
        cold.last_pressure = now;
        self.cold.push(cold);
        self.sending.push(None);
        self.active.push(None);
        self.pending_sum.push(0);
        self.slots_used.push(0);
        self.faults.push(FaultRt::default());
    }

    /// The nodes of `d0`'s subtree that are still present, in walk
    /// order. A departed or crashed branch is skipped whole: it gave up
    /// its holdings when it went, and its subtree went with it.
    fn live_subtree(&self, d0: usize) -> Vec<usize> {
        let (mut live, mut stack) = (Vec::new(), vec![d0]);
        while let Some(d) = stack.pop() {
            if !self.hot[d].departed && !self.hot[d].crashed {
                live.push(d);
                stack.extend(self.kid_node[self.krange(d)].iter().map(|&c| c as usize));
            }
        }
        live
    }

    /// Empties node `d` for a leave or a crash: takes every task it holds
    /// (computing, sending, parked in its IC slots, buffered) and clears
    /// its children's pending requests. Returns the task count and the
    /// taken in-flight records, whose events the caller cancels or lets
    /// go stale.
    fn take_holdings(&mut self, d: usize) -> (u64, Option<Sending>, Option<ActiveTransfer>) {
        let r = self.krange(d);
        let sending = self.sending[d].take();
        let slots = self.kid_slot[r.clone()].iter_mut().filter_map(Option::take);
        let held = slots.count() as u64
            + u64::from(sending.is_some())
            + u64::from(self.hot[d].computing_since.take().is_some())
            + self.hot[d].ledger.as_ref().map_or(0, |l| l.held()) as u64;
        self.slots_used[d] = 0;
        self.kid_pending[r].iter_mut().for_each(|q| *q = 0);
        self.pending_sum[d] = 0;
        (held, sending, self.active[d].take())
    }

    /// A weight change (`CommTime` or `ComputeTime`): edits `tree` and
    /// refreshes the parent row's cached copy of the weight. In-flight
    /// work keeps its old duration. Returns the node's parent, whose
    /// neighborhood the caller re-examines along with the node's.
    pub(crate) fn set_weight(
        &mut self,
        tree: &mut Tree,
        node: NodeId,
        kind: ChangeKind,
    ) -> Option<usize> {
        let i = node.index();
        let parent = self.parent_of[i];
        let k = parent.map(|p| self.kid_start[p] as usize + self.child_pos[i]);
        match kind {
            ChangeKind::CommTime(c) => {
                tree.set_comm_time(node, c);
                if let (Some(p), Some(k)) = (parent, k) {
                    if self.cold[p].observer.is_oracle() {
                        self.kid_comm[k] = c;
                    }
                }
            }
            ChangeKind::ComputeTime(w) => {
                tree.set_compute_time(node, w);
                if let Some(k) = k {
                    self.kid_compute[k] = w;
                }
            }
            ChangeKind::Join { .. } | ChangeKind::Leave => unreachable!("not a weight change"),
        }
        parent
    }
}

/// The progress cursors of a [`Simulation`]: every piece of run state
/// that is not the tree, the configuration, a workspace container, or
/// the arrival runtime. A [`SimSnapshot`] stores a clone of it.
#[derive(Clone, Default)]
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

    /// Rebuilds the captured run from `snap` with a fresh workspace and
    /// no tracing — the plain continuation.
    pub fn from_snapshot(snap: &SimSnapshot) -> Simulation {
        Simulation::from_snapshot_traced(snap, SimWorkspace::new(), NullSink)
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
    /// [`Simulation::run_traced`] to get the sink back. Panics where
    /// [`SimConfig::validate`] or [`Tree::validate`] fails.
    pub fn traced(tree: Tree, cfg: SimConfig, mut ws: SimWorkspace, sink: S) -> Simulation<S> {
        cfg.validate(&tree).expect("invalid SimConfig");
        tree.validate().expect("invalid Tree");
        let n = tree.len();

        ws.agenda.reset();
        ws.clear_scratch(n);
        ws.st.reset(&tree, &cfg);

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
        Simulation {
            tree,
            cfg,
            ws,
            sink,
            cur: Progress {
                remaining,
                finish_target,
                fault_active,
                recovery,
                fault_seed,
                dead_threshold,
                ..Progress::default()
            },
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
        for i in 0..self.ws.st.hot.len() {
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
        self.handle::<FA, AR>(ev);
        self.drain::<FA, IC, AR>();
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
        let completion_times = std::mem::take(&mut self.ws.st.completion_times);
        let checkpoint_records = std::mem::take(&mut self.ws.st.checkpoint_records);
        let end_time = completion_times.last().copied().unwrap_or(0);
        let hot = &self.ws.st.hot;
        let per_ledger = |stat: fn(&BufferLedger) -> u32| -> Vec<u32> {
            hot.iter()
                .map(|n| n.ledger.as_ref().map_or(0, stat))
                .collect()
        };
        let result = RunResult {
            end_time,
            tasks_per_node: hot.iter().map(|n| n.tasks_computed).collect(),
            max_buffers_per_node: per_ledger(BufferLedger::max_capacity),
            final_buffers_per_node: per_ledger(BufferLedger::capacity),
            peak_held_per_node: per_ledger(BufferLedger::peak_held),
            busy_compute_per_node: hot.iter().map(|n| n.busy_compute).collect(),
            busy_link_per_node: hot.iter().map(|n| n.busy_link).collect(),
            preemptions_per_node: self.ws.st.cold.iter().map(|c| c.preemptions).collect(),
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
        if self.ws.st.hot[node].departed || (FA && self.ws.st.hot[node].crashed) {
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
        let started = self.ws.st.hot[i]
            .computing_since
            .take()
            .expect("ComputeDone on idle processor");
        self.ws.st.hot[i].busy_compute += self.ws.agenda.now() - started;
        self.ws.st.hot[i].tasks_computed += 1;
        self.emit(TraceEvent::ComputeFinish { node: i as u32 });
        self.record_completion::<AR>();
        if self.cur.finished {
            return;
        }
        // §3.1 growth rule 3: computation completed with all buffers empty.
        self.try_grow(i, GrowthEvent::ComputeCompleted, true);
        self.enqueue(i);
    }

    fn on_send_done<const FA: bool>(&mut self, i: usize) {
        let s = self.ws.st.sending[i]
            .take()
            .expect("SendDone without in-flight send");
        let now = self.ws.agenda.now();
        let duration = now - s.started_at;
        self.ws.st.hot[i].busy_link += duration;
        let child = self.ws.st.kid(i, s.child_pos);
        if FA && self.delivery_blocked(child) {
            // The receiver is dead or its link is dark: the sender
            // observes the reset, the task is lost. No latency sample —
            // nothing was delivered.
            self.on_delivery_failed(i, s.child_pos, child);
            self.enqueue(i);
            return;
        }
        self.ws.st.cold[i].observer.observe(s.child_pos, duration);
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
        self.try_grow(i, GrowthEvent::SendCompleted, pressure);
        self.enqueue(i);
    }

    fn on_transfer_done<const FA: bool>(&mut self, i: usize) {
        let a = self.ws.st.active[i]
            .take()
            .expect("TransferDone without active transfer");
        self.ws.st.hot[i].busy_link += self.ws.agenda.now() - a.started_at;
        // The event firing means the remaining work ran to zero.
        let k = self.ws.st.kid_start[i] as usize + a.child_pos;
        self.ws.st.kid_slot[k]
            .as_mut()
            .expect("active transfer without slot")
            .remaining = 0;
        self.finish_slot::<FA>(i, a.child_pos);
        // Growth rule 2 applies to completed communications in general.
        let pressure = self.has_child_requests(i);
        self.try_grow(i, GrowthEvent::SendCompleted, pressure);
        self.reconcile_link::<FA>(i);
        self.enqueue(i);
    }

    /// A §3.1 growth event at node `i`: the ledger grows if its policy
    /// allows, and a growth stamps the pressure time that decay waits out.
    #[inline(always)]
    fn try_grow(&mut self, i: usize, event: GrowthEvent, pressure: bool) {
        let now = self.ws.agenda.now();
        if let Some(ledger) = &mut self.ws.st.hot[i].ledger {
            if ledger.try_grow(event, pressure) {
                self.ws.st.cold[i].last_pressure = now;
            }
        }
    }

    /// Completes the (already inactive) transfer in `child_pos`'s slot:
    /// records the observation and delivers the task.
    fn finish_slot<const FA: bool>(&mut self, i: usize, child_pos: usize) {
        let k = self.ws.st.kid_start[i] as usize + child_pos;
        let t = self.ws.st.kid_slot[k]
            .take()
            .expect("completing an empty slot");
        self.ws.st.slots_used[i] -= 1;
        debug_assert_eq!(
            t.remaining, 0,
            "transfer completed with {} timesteps of work left",
            t.remaining
        );
        let child = self.ws.st.kid_node[k] as usize;
        if FA && self.delivery_blocked(child) {
            self.on_delivery_failed(i, child_pos, child);
            return;
        }
        self.ws.st.cold[i].observer.observe(child_pos, t.total);
        self.refresh_kid_comm(i, child_pos);
        self.emit(TraceEvent::TransferComplete {
            node: i as u32,
            child: child as u32,
            work: t.total,
        });
        self.deliver::<FA>(child);
    }

    fn deliver<const FA: bool>(&mut self, child: usize) {
        if FA && self.ws.st.faults[child].orphaned {
            // The node had presumed its parent dead; a delivery proves
            // otherwise and it resumes requesting.
            self.ws.st.faults[child].orphaned = false;
            self.ws.st.faults[child].retry = 0;
        }
        let ledger = self.ws.st.hot[child].ledger_mut();
        ledger.task_arrived();
        if S::ENABLED {
            let (held, capacity) = (ledger.held(), ledger.capacity());
            self.emit(TraceEvent::BufferAcquire {
                node: child as u32,
                held,
                capacity,
            });
        }
        let ledger = self.ws.st.hot[child].ledger_mut();
        if let Some(FaultInjection::LeakTask { every }) = self.cfg.fault {
            self.cur.faulty_deliveries += 1;
            if self.cur.faulty_deliveries.is_multiple_of(every) {
                // The injected bug: the task vanishes from the buffer
                // without being computed or forwarded.
                ledger.take_task();
            }
        }
        if FA && self.ws.st.faults[child].dup_deliveries > 0 {
            // The network delivered a second copy of the task; the node
            // recognizes it by identity and drops it without touching the
            // ledger (at-least-once network, at-most-once buffer).
            self.ws.st.faults[child].dup_deliveries -= 1;
            self.cur.fstats.duplicates_dropped += 1;
            self.emit(TraceEvent::DuplicateDrop { node: child as u32 });
        }
        self.enqueue(child);
    }

    /// Stops `p`'s transmission toward child position `pos`, if one is
    /// in flight: books its busy time and cancels its completion event.
    /// Returns whether a non-IC send and whether an IC active transfer
    /// stopped.
    fn stop_transfer_to(&mut self, p: usize, pos: usize) -> (bool, bool) {
        let now = self.ws.agenda.now();
        let st = &mut self.ws.st;
        let sent = st.sending[p].take_if(|s| s.child_pos == pos);
        let active = st.active[p].take_if(|a| a.child_pos == pos);
        let stopped = [
            sent.as_ref().map(|s| (s.started_at, s.handle)),
            active.as_ref().map(|a| (a.started_at, a.handle)),
        ];
        for (started_at, handle) in stopped.into_iter().flatten() {
            st.hot[p].busy_link += now - started_at;
            self.ws.agenda.cancel(handle);
        }
        (sent.is_some(), active.is_some())
    }

    fn record_completion<const AR: bool>(&mut self) {
        let now = self.ws.agenda.now();
        self.cur.completed += 1;
        self.ws.st.completion_times.push(now);
        while self.cur.next_checkpoint < self.cfg.checkpoints.len()
            && self.cur.completed >= self.cfg.checkpoints[self.cur.next_checkpoint]
        {
            let max = self
                .ws
                .st
                .hot
                .iter()
                .map(|n| n.ledger.as_ref().map_or(0, |l| l.max_capacity()))
                .max()
                .unwrap_or(0);
            self.ws
                .st
                .checkpoint_records
                .push((self.cfg.checkpoints[self.cur.next_checkpoint], max));
            self.cur.next_checkpoint += 1;
        }
        self.apply_due_changes();
        if AR {
            // A completion will shortly free queue room (the dispatch
            // already did): re-admit deferred arrivals up to the bound.
            self.drain_deferred();
        }
        if self.cur.completed >= self.cur.finish_target {
            self.cur.finished = true;
        }
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
            if i < self.ws.st.hot.len() {
                self.enqueue(i);
            }
        }
        mono!(self, drain)
    }
}
