//! Checked simulation mode: the protocol-rule invariant checker.
//!
//! The simulator's results are only as meaningful as its fidelity to the
//! protocol rules of §3 — bounded buffers, one outstanding request per
//! uncovered empty buffer, non-preemption under the non-interruptible
//! discipline, task conservation. This module re-derives those rules from
//! the runtime state and verifies them *while a run executes*, entirely
//! read-only: results are bit-identical with checking on or off.
//!
//! ## What is checked
//!
//! After every event cascade (each [`Simulation::step`]):
//!
//! * **Monotone time** — the agenda clock never moves backward (O(1)).
//!
//! Every `max(32, nodes)` events, and once at termination, a full sweep
//! ([`Simulation::verify_invariants`]) re-derives:
//!
//! * **Task conservation** — tasks dispensed by the repository are
//!   accounted for exactly: `total = remaining + buffered + computing +
//!   in-flight + completed`, skipping departed subtrees (their holdings
//!   were reclaimed into `remaining`).
//! * **Buffer legality** — each non-root node holds at most `capacity`
//!   tasks, `held + covered ≤ capacity`, and a [`BufferPolicy::Fixed`]
//!   pool has exactly the configured FB capacity, forever (the §3.2
//!   bound the paper's Table 2 buffer counts rest on).
//! * **Coverage coherence** — a child's `covered` count equals the
//!   requests pending at its parent plus tasks in flight toward it; this
//!   is the distributed-protocol claim that request messages are never
//!   lost, duplicated, or double-served.
//! * **Protocol structure** — non-IC nodes never use transfer slots or
//!   preempt; IC nodes never use the single-send path; an active
//!   transfer always transmits an occupied slot of a live child and its
//!   completion event is pending in the agenda.
//! * **Row caches** — every cache the hot path reads instead of
//!   re-deriving (`pending_sum`, `slots_used`, and per child `kid_comm`,
//!   `kid_compute`, `kid_gone`) equals what it caches.
//! * **Work conservation** — after a service cascade no resource idles
//!   with work available: a node holding a buffered task is computing,
//!   and an IC node with occupied slots is transmitting.
//!
//! At termination, [`Simulation::verify_terminal`] cross-checks the
//! whole run against the independent steady-state theory (when no
//! mid-run platform changes occurred): per-node busy time must equal
//! `w_i · tasks_i` exactly, and the achieved rate `N / T` must not
//! exceed the Theorem 1 optimal rate — which is sound for *any*
//! protocol, because the realized per-node rates `x_i(T)/T` form a
//! feasible point of the steady-state LP. On small trees (≤ 16 nodes)
//! the Theorem 1 fold is additionally cross-checked against the
//! `bc-steady` LP simplex oracle, closing the differential loop of the
//! `fuzz_protocols` harness.
//!
//! ## Cost
//!
//! The per-event work is two comparisons; the sweep is O(nodes) and
//! amortizes to O(1) per event. Checked mode defaults **on** under
//! `debug_assertions` (the whole test suite runs checked) and **off**
//! in release campaigns; see the committed `BENCH_campaign.json` budget.
//! The terminal oracle allocates (exact rational arithmetic), so the
//! `alloc_free` tests opt out explicitly.

use crate::config::Protocol;
use crate::sim::Simulation;
use bc_core::BufferPolicy;
use bc_platform::{NodeId, Tree};
use bc_rational::Rational;
use bc_simcore::{TraceRecord, TraceSink};
use bc_steady::{lp_optimal_rate, SteadyState};
use std::fmt;

/// Largest tree for which the terminal check also runs the LP simplex
/// oracle against the Theorem 1 fold (exact rational simplex is
/// super-linear; small trees are where fuzz shrinking lands anyway).
const LP_CROSS_CHECK_MAX_NODES: usize = 16;

/// A detected violation of a protocol invariant.
///
/// Produced by [`Simulation::verify_invariants`] /
/// [`Simulation::verify_terminal`]; checked mode panics with its
/// [`Display`](fmt::Display) rendering at the first violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Stable identifier of the failed check (e.g. `task-conservation`).
    pub check: &'static str,
    /// Human-readable detail, including the offending values.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated [{}]: {}", self.check, self.message)
    }
}

impl std::error::Error for InvariantViolation {}

fn fail(check: &'static str, message: String) -> Result<(), InvariantViolation> {
    Err(InvariantViolation { check, message })
}

impl<S: TraceSink> Simulation<S> {
    /// Checked-mode hook, run after each event's service cascade: O(1)
    /// time-monotonicity plus an amortized full sweep. Panics on the
    /// first violation (a violation means the simulator itself is wrong;
    /// there is nothing for a caller to handle), after dumping whatever
    /// the trace sink retains — with a [`bc_simcore::RingRecorder`]
    /// attached, the last events leading up to the violation.
    pub(crate) fn checked_tick(&mut self) {
        let now = self.ws.agenda.now();
        if now < self.cur.check_last_now {
            self.dump_trace_tail();
            self.dump_time_travel();
            panic!(
                "invariant violated [monotone-time]: agenda moved backward ({} -> {})",
                self.cur.check_last_now, now
            );
        }
        self.cur.check_last_now = now;
        self.cur.events_since_sweep += 1;
        let sweep_due = self.cur.events_since_sweep >= (self.ws.st.hot.len() as u32).max(32);
        if sweep_due || self.cur.finished {
            self.cur.events_since_sweep = 0;
            if let Err(v) = self.verify_invariants() {
                self.dump_trace_tail();
                self.dump_time_travel();
                panic!(
                    "checked mode: {v} (at t={now}, event {})",
                    self.cur.events_processed
                );
            }
            // The state just passed a full sweep — keep a periodic
            // snapshot of it for time travel (see `snapshot.rs`).
            self.time_travel_tick();
        }
        if self.cur.finished {
            if let Err(v) = self.verify_terminal() {
                self.dump_trace_tail();
                self.dump_time_travel();
                panic!("checked mode: {v}");
            }
        }
    }

    /// Prints the sink's retained event tail to stderr — the flight
    /// recorder read-out accompanying a checked-mode panic. A no-op with
    /// the default [`bc_simcore::NullSink`] (nothing was recorded).
    fn dump_trace_tail(&self) {
        if !S::ENABLED {
            return;
        }
        let mut tail: Vec<TraceRecord> = Vec::new();
        self.sink.retained(&mut tail);
        if tail.is_empty() {
            return;
        }
        eprintln!(
            "--- trace tail: last {} event(s) before the violation ---",
            tail.len()
        );
        for r in &tail {
            eprintln!("{r}");
        }
        eprintln!("--- end trace tail ---");
    }

    /// Full invariant sweep over the current runtime state. Valid at any
    /// quiescent point (after [`Simulation::step`] returns — i.e. after
    /// the service cascade has drained). Read-only.
    pub fn verify_invariants(&self) -> Result<(), InvariantViolation> {
        self.check_quiescent()?;
        self.check_task_conservation()?;
        for i in 0..self.ws.st.hot.len() {
            if self.ws.st.hot[i].departed || self.ws.st.hot[i].crashed {
                continue;
            }
            self.check_buffer_legality(i)?;
            self.check_coverage(i)?;
            self.check_protocol_structure(i)?;
            self.check_row_caches(i)?;
            if !self.cur.finished {
                self.check_work_conservation(i)?;
            }
        }
        Ok(())
    }

    /// The service queue must be fully drained between events; a node
    /// marked queued while the queue is empty would never be serviced.
    fn check_quiescent(&self) -> Result<(), InvariantViolation> {
        if !self.ws.service_queue.is_empty() {
            return fail(
                "quiescence",
                format!(
                    "service queue holds {} entries between events",
                    self.ws.service_queue.len()
                ),
            );
        }
        if let Some(i) = self.ws.queued.iter().position(|&q| q) {
            return fail(
                "quiescence",
                format!("node {i} flagged queued with an empty service queue"),
            );
        }
        Ok(())
    }

    /// Every dispensed task is somewhere: undispensed at the root, in a
    /// buffer, on a processor, in flight on a link (non-IC send or IC
    /// slot), destroyed by a fault and awaiting reissue, or completed.
    /// Departed subtrees hold nothing (reclaimed into `remaining`);
    /// crashed subtrees hold nothing (their holdings moved into the lost
    /// ledger at crash time). A transfer toward a *crashed* child is legal
    /// — the parent has no global knowledge and learns by missed acks —
    /// but one toward a *departed* child is a simulator bug (a graceful
    /// leave disentangles the boundary synchronously).
    fn check_task_conservation(&self) -> Result<(), InvariantViolation> {
        let mut buffered: u64 = 0;
        let mut computing: u64 = 0;
        let mut in_flight: u64 = 0;
        let mut computed_sum: u64 = 0;
        for (i, n) in self.ws.st.hot.iter().enumerate() {
            computed_sum += n.tasks_computed;
            if n.departed || n.crashed {
                continue;
            }
            if let Some(l) = &n.ledger {
                buffered += u64::from(l.held());
            }
            computing += u64::from(n.computing_since.is_some());
            if let Some(s) = &self.ws.st.sending[i] {
                let child = self.ws.st.kid(i, s.child_pos);
                if self.ws.st.hot[child].departed {
                    return fail(
                        "task-conservation",
                        format!("node {i} is sending to departed child {child}"),
                    );
                }
                in_flight += 1;
            }
            for k in self.ws.st.krange(i) {
                if self.ws.st.kid_slot[k].is_some() {
                    let child = self.ws.st.kid_node[k] as usize;
                    if self.ws.st.hot[child].departed {
                        return fail(
                            "task-conservation",
                            format!("node {i} holds a slot transfer for departed child {child}"),
                        );
                    }
                    in_flight += 1;
                }
            }
        }
        if computed_sum != self.cur.completed {
            return fail(
                "task-conservation",
                format!(
                    "per-node completions sum to {computed_sum} but the global counter says {}",
                    self.cur.completed
                ),
            );
        }
        // Open world: the closed pool is what admission let in so far;
        // batch mode injects everything up front.
        let injected = match self.arrivals.as_deref() {
            Some(ar) => ar.state.admitted,
            None => self.cfg.total_tasks,
        };
        let accounted = self.cur.remaining
            + buffered
            + computing
            + in_flight
            + self.cur.lost_pending
            + self.cur.completed;
        if accounted != injected {
            return fail(
                "task-conservation",
                format!(
                    "{injected} tasks injected but {accounted} accounted for \
                     (remaining {} + buffered {buffered} + computing {computing} \
                     + in-flight {in_flight} + lost {} + completed {})",
                    self.cur.remaining, self.cur.lost_pending, self.cur.completed
                ),
            );
        }
        self.check_arrival_accounting()
    }

    /// Open-world submission ledger: every unit the arrival process has
    /// submitted is admitted, waiting deferred, or rejected — nothing
    /// vanishes at the admission gate. The admission bound itself is
    /// checked when no fault plan or scripted change can legitimately
    /// push the queue past it (reissue and leave-reclaim re-inject tasks
    /// straight into `remaining`, bypassing admission by design).
    fn check_arrival_accounting(&self) -> Result<(), InvariantViolation> {
        let Some(ar) = self.arrivals.as_deref() else {
            return Ok(());
        };
        let due: u64 = ar.schedule[..ar.state.cursor].iter().map(|a| a.units).sum();
        if ar.state.submitted != due {
            return fail(
                "arrival-conservation",
                format!(
                    "cursor passed {due} scheduled units but {} were submitted",
                    ar.state.submitted
                ),
            );
        }
        if ar.state.submitted != ar.state.admitted + ar.state.deferred_units + ar.state.rejected {
            return fail(
                "arrival-conservation",
                format!(
                    "{} units submitted but only {} admitted + {} deferred + {} rejected",
                    ar.state.submitted,
                    ar.state.admitted,
                    ar.state.deferred_units,
                    ar.state.rejected
                ),
            );
        }
        let backlog: u64 = ar
            .state
            .deferred
            .iter()
            .map(|&i| ar.schedule[i as usize].units)
            .sum();
        if backlog != ar.state.deferred_units {
            return fail(
                "arrival-conservation",
                format!(
                    "deferred queue holds {backlog} units but the counter says {}",
                    ar.state.deferred_units
                ),
            );
        }
        if self.cfg.fault_plan.is_none()
            && self.cfg.changes.is_empty()
            && self.cur.remaining > ar.queue_cap
        {
            return fail(
                "admission-bound",
                format!(
                    "repository queue holds {} units past the admission cap {}",
                    self.cur.remaining, ar.queue_cap
                ),
            );
        }
        Ok(())
    }

    /// Buffer-bound legality at node `i` (§3.1/§3.2): holdings and
    /// coverage within capacity, and a fixed pool pinned to the
    /// *configured* FB — compared against `cfg.buffers`, not the
    /// ledger's own policy, so a mis-provisioned pool cannot vouch for
    /// itself.
    fn check_buffer_legality(&self, i: usize) -> Result<(), InvariantViolation> {
        let Some(l) = &self.ws.st.hot[i].ledger else {
            return Ok(()); // the root buffers nothing
        };
        if l.held() > l.capacity() {
            return fail(
                "buffer-bound",
                format!(
                    "node {i} holds {} tasks in {} buffers",
                    l.held(),
                    l.capacity()
                ),
            );
        }
        if u64::from(l.held()) + u64::from(l.covered()) > u64::from(l.capacity()) {
            return fail(
                "buffer-bound",
                format!(
                    "node {i}: held {} + covered {} exceeds capacity {}",
                    l.held(),
                    l.covered(),
                    l.capacity()
                ),
            );
        }
        match self.cfg.buffers {
            BufferPolicy::Fixed(fb) => {
                if l.capacity() != fb || l.max_capacity() != fb {
                    return fail(
                        "buffer-bound",
                        format!(
                            "node {i}: fixed pool of {fb} buffers has capacity {} (max ever {})",
                            l.capacity(),
                            l.max_capacity()
                        ),
                    );
                }
            }
            BufferPolicy::Growable { initial, cap, .. } => {
                if l.capacity() < initial.min(l.max_capacity()) {
                    return fail(
                        "buffer-bound",
                        format!(
                            "node {i}: growable pool shrank to {} below initial {initial}",
                            l.capacity()
                        ),
                    );
                }
                if let Some(cap) = cap {
                    if l.max_capacity() > cap {
                        return fail(
                            "buffer-bound",
                            format!(
                                "node {i}: pool reached {} past its cap {cap}",
                                l.max_capacity()
                            ),
                        );
                    }
                }
            }
        }
        if l.peak_held() > l.max_capacity() {
            return fail(
                "buffer-bound",
                format!(
                    "node {i}: peak holdings {} exceed peak capacity {}",
                    l.peak_held(),
                    l.max_capacity()
                ),
            );
        }
        Ok(())
    }

    /// Coverage coherence at non-root node `i`: its `covered` count must
    /// equal the requests still pending at its parent plus tasks in
    /// flight toward it (one non-IC send, or one occupied IC slot).
    /// Requests are instantaneous control messages, so this holds at
    /// every quiescent point. Under a fault plan two more terms appear:
    /// requests lost in the network (covered here, unknown to the parent,
    /// pending the retry timeout) and undeliverable negative
    /// acknowledgements (the covering request was voided by an abort or
    /// denial the node cannot hear about while its uplink is down).
    /// A node whose parent crashed cannot be reconciled against the dead
    /// parent's state — it keeps its covered requests and starves, which
    /// is the accepted fate of an unreachable subtree.
    fn check_coverage(&self, i: usize) -> Result<(), InvariantViolation> {
        let Some(l) = &self.ws.st.hot[i].ledger else {
            return Ok(());
        };
        let p = self.ws.st.parent_of[i].expect("non-root has parent");
        let pos = self.ws.st.child_pos[i];
        if self.ws.st.hot[p].crashed {
            return Ok(());
        }
        let k = self.ws.st.kid_start[p] as usize + pos;
        let pending = self.ws.st.kid_pending[k];
        let inbound = match self.cfg.protocol {
            Protocol::NonInterruptible => u32::from(
                self.ws.st.sending[p]
                    .as_ref()
                    .is_some_and(|s| s.child_pos == pos),
            ),
            Protocol::Interruptible => u32::from(self.ws.st.kid_slot[k].is_some()),
        };
        let me = &self.ws.st.faults[i];
        let unheard = me.lost_requests + me.pending_nacks;
        if l.covered() != pending + inbound + unheard {
            return fail(
                "coverage-coherence",
                format!(
                    "node {i} has {} covered buffers but its parent {p} sees \
                     {pending} pending requests + {inbound} in flight \
                     (+ {} lost requests + {} pending nacks)",
                    l.covered(),
                    me.lost_requests,
                    me.pending_nacks
                ),
            );
        }
        Ok(())
    }

    /// Per-protocol structural rules at node `i`.
    fn check_protocol_structure(&self, i: usize) -> Result<(), InvariantViolation> {
        let now = self.ws.agenda.now();
        let n = &self.ws.st.hot[i];
        if let Some(since) = n.computing_since {
            if since > now {
                return fail(
                    "protocol-structure",
                    format!("node {i} started computing at {since}, after now {now}"),
                );
            }
        }
        // A departed child must be fully disentangled from its parent.
        for k in self.ws.st.krange(i) {
            let child = self.ws.st.kid_node[k] as usize;
            if self.ws.st.hot[child].departed && self.ws.st.kid_pending[k] != 0 {
                return fail(
                    "protocol-structure",
                    format!(
                        "node {i} still records {} requests from departed child {child}",
                        self.ws.st.kid_pending[k]
                    ),
                );
            }
        }
        match self.cfg.protocol {
            Protocol::NonInterruptible => {
                if self.ws.st.active[i].is_some()
                    || self.ws.st.kid_slot[self.ws.st.krange(i)]
                        .iter()
                        .any(Option::is_some)
                {
                    return fail(
                        "protocol-structure",
                        format!("non-interruptible node {i} uses transfer slots"),
                    );
                }
                if self.cur.preemptions != 0 {
                    return fail(
                        "protocol-structure",
                        format!(
                            "non-interruptible run performed {} preemptions",
                            self.cur.preemptions
                        ),
                    );
                }
                if let Some(s) = &self.ws.st.sending[i] {
                    if s.started_at > now {
                        return fail(
                            "protocol-structure",
                            format!("node {i} send started at {}, after now {now}", s.started_at),
                        );
                    }
                    if !self.ws.agenda.is_pending(s.handle) {
                        return fail(
                            "protocol-structure",
                            format!("node {i} in-flight send has no pending SendDone event"),
                        );
                    }
                }
            }
            Protocol::Interruptible => {
                if self.ws.st.sending[i].is_some() {
                    return fail(
                        "protocol-structure",
                        format!("interruptible node {i} uses the single-send path"),
                    );
                }
                if let Some(a) = &self.ws.st.active[i] {
                    let slots = &self.ws.st.kid_slot[self.ws.st.krange(i)];
                    let Some(slot) = slots.get(a.child_pos).and_then(Option::as_ref) else {
                        return fail(
                            "protocol-structure",
                            format!(
                                "node {i} transmits slot {} which holds no transfer",
                                a.child_pos
                            ),
                        );
                    };
                    if a.remaining_at_start != slot.remaining {
                        return fail(
                            "protocol-structure",
                            format!(
                                "node {i} active transfer disagrees with its slot \
                                 ({} vs {} timesteps left)",
                                a.remaining_at_start, slot.remaining
                            ),
                        );
                    }
                    if now.saturating_sub(a.started_at) > a.remaining_at_start || a.started_at > now
                    {
                        return fail(
                            "protocol-structure",
                            format!(
                                "node {i} transfer started at {} with {} timesteps of work \
                                 is still active at {now}",
                                a.started_at, a.remaining_at_start
                            ),
                        );
                    }
                    if !self.ws.agenda.is_pending(a.handle) {
                        return fail(
                            "protocol-structure",
                            format!("node {i} active transfer has no pending TransferDone event"),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// The caches the hot path reads instead of re-deriving must equal
    /// what they cache — a drifted cache would silently skip or misrank
    /// delegations. Per node: `pending_sum` and `slots_used` against a
    /// scan of the CSR row. Per row entry: `kid_comm` against the tree
    /// (oracle observer) or the observer's estimate, `kid_compute`
    /// against the tree, `kid_gone` against the child's own record.
    fn check_row_caches(&self, i: usize) -> Result<(), InvariantViolation> {
        let st = &self.ws.st;
        let r = st.krange(i);
        let sum: u32 = st.kid_pending[r.clone()].iter().sum();
        if sum != st.pending_sum[i] {
            return fail(
                "row-cache",
                format!(
                    "node {i} caches {} pending child requests but its row sums to {sum}",
                    st.pending_sum[i]
                ),
            );
        }
        let used = st.kid_slot[r.clone()]
            .iter()
            .filter(|s| s.is_some())
            .count() as u32;
        if used != st.slots_used[i] {
            return fail(
                "row-cache",
                format!(
                    "node {i} caches {} occupied slots but its row holds {used}",
                    st.slots_used[i]
                ),
            );
        }
        let observer = &st.cold[i].observer;
        for (pos, k) in r.enumerate() {
            let child = NodeId(st.kid_node[k]);
            let comm = if observer.is_oracle() {
                self.tree.comm_time(child)
            } else {
                observer.estimate(pos)
            };
            let derived = (
                comm,
                self.tree.compute_time(child),
                st.hot[child.index()].departed,
            );
            let cached = (st.kid_comm[k], st.kid_compute[k], st.kid_gone[k]);
            if cached != derived {
                return fail(
                    "row-cache",
                    format!(
                        "node {i} caches (comm, compute, gone) = {cached:?} for child {child} \
                         but derives {derived:?}"
                    ),
                );
            }
        }
        Ok(())
    }

    /// Work conservation at node `i` after a drained cascade: no resource
    /// idles with work available. Only meaningful mid-run (wind-down
    /// stops servicing).
    fn check_work_conservation(&self, i: usize) -> Result<(), InvariantViolation> {
        let n = &self.ws.st.hot[i];
        let has_task = if i == 0 {
            self.cur.remaining > 0
        } else {
            n.ledger.as_ref().is_some_and(|l| l.held() > 0)
        };
        if has_task && n.computing_since.is_none() {
            return fail(
                "work-conservation",
                format!("node {i} holds a task but its processor is idle"),
            );
        }
        if matches!(self.cfg.protocol, Protocol::Interruptible)
            && self.ws.st.active[i].is_none()
            && self.ws.st.kid_slot[self.ws.st.krange(i)]
                .iter()
                .any(Option::is_some)
        {
            return fail(
                "work-conservation",
                format!("node {i} has occupied transfer slots but an idle link"),
            );
        }
        Ok(())
    }

    /// Terminal cross-checks, valid once the run has finished (before the
    /// result is extracted): completion accounting, exact busy-time
    /// reconciliation, and the differential rate oracle against the
    /// Theorem 1 fold (plus the LP simplex on small trees). The
    /// theory-based checks require a static platform and are skipped when
    /// `cfg.changes` scripted mid-run mutations.
    pub fn verify_terminal(&self) -> Result<(), InvariantViolation> {
        // Open world: every submitted unit must be served or rejected —
        // `Drop` sheds, everything else completes. Batch: all of them.
        let must_complete = match self.arrivals.as_deref() {
            Some(ar) => self.cfg.total_tasks - ar.state.rejected,
            None => self.cfg.total_tasks,
        };
        if !self.cur.finished || self.cur.completed != must_complete {
            return fail(
                "terminal",
                format!(
                    "terminal check on an unfinished run ({}/{must_complete} tasks)",
                    self.cur.completed
                ),
            );
        }
        if let Some(ar) = self.arrivals.as_deref() {
            if ar.state.cursor != ar.schedule.len() {
                return fail(
                    "terminal",
                    format!(
                        "run finished with {} of {} scheduled arrivals submitted",
                        ar.state.cursor,
                        ar.schedule.len()
                    ),
                );
            }
            if !ar.state.deferred.is_empty() {
                return fail(
                    "terminal",
                    format!(
                        "run finished with {} deferred units still waiting",
                        ar.state.deferred_units
                    ),
                );
            }
            if ar.state.submitted != self.cfg.total_tasks {
                return fail(
                    "terminal",
                    format!(
                        "{} units submitted of the {} the plan generates",
                        ar.state.submitted, self.cfg.total_tasks
                    ),
                );
            }
        }
        let times = &self.ws.st.completion_times;
        if times.len() as u64 != self.cur.completed {
            return fail(
                "terminal",
                format!(
                    "{} completion timestamps recorded for {} completions",
                    times.len(),
                    self.cur.completed
                ),
            );
        }
        if times.windows(2).any(|w| w[0] > w[1]) {
            return fail("terminal", "completion times are not monotone".into());
        }
        if !self.cfg.changes.is_empty() {
            return Ok(()); // platform mutated mid-run; theory inapplicable
        }
        if self.arrivals.is_some() {
            // Arrival-limited throughput: the steady-state rate oracles
            // assume work is always available, which an open workload
            // does not guarantee (and a fully shed run completes zero
            // tasks). Busy-time reconciliation is protocol-level and
            // still checked above via task conservation.
            return Ok(());
        }
        let end_time = *times.last().expect("total_tasks >= 1");
        for (i, n) in self.ws.st.hot.iter().enumerate() {
            let w = u128::from(self.tree.compute_time(NodeId(i as u32)));
            let expected = w * u128::from(n.tasks_computed);
            if u128::from(n.busy_compute) != expected {
                return fail(
                    "terminal",
                    format!(
                        "node {i} computed {} tasks of weight {w} but logged {} busy timesteps",
                        n.tasks_computed, n.busy_compute
                    ),
                );
            }
            if n.busy_compute > end_time || n.busy_link > end_time {
                return fail(
                    "terminal",
                    format!(
                        "node {i} busy times ({} compute, {} link) exceed the makespan {end_time}",
                        n.busy_compute, n.busy_link
                    ),
                );
            }
        }
        // Differential oracle: the realized rates x_i(T)/T are a feasible
        // point of the steady-state LP (w_i·x_i ≤ T per processor, the
        // serialized link bounds per edge), so N/T can never exceed the
        // optimal rate — for any protocol, scheduling order, or tie-break.
        let ss = SteadyState::analyze(&self.tree);
        let optimal = ss.optimal_rate();
        let achieved = Rational::new(self.cur.completed as i128, end_time as i128);
        if achieved > optimal {
            return fail(
                "rate-oracle",
                format!(
                    "achieved rate {}/{end_time} exceeds the Theorem 1 optimum {optimal} \
                     — the simulator computed tasks faster than the platform allows",
                    self.cur.completed
                ),
            );
        }
        if self.tree.len() <= LP_CROSS_CHECK_MAX_NODES {
            let lp = lp_optimal_rate(&self.tree);
            if lp != optimal {
                return fail(
                    "rate-oracle",
                    format!(
                        "Theorem 1 fold says {optimal} but the LP simplex says {lp} \
                         for the same {} -node tree",
                        self.tree.len()
                    ),
                );
            }
        }
        // Post-fault recovery oracle: once the last crash has happened the
        // platform is the surviving tree, whose Theorem 1 rate bounds the
        // tail throughput. Tasks already in the pipeline at the crash
        // (buffered, computing, or inbound at each surviving node) may
        // complete on top of that, so the bound carries a pipeline-depth
        // slack — far below the campaign's task counts, so a simulator
        // that kept "computing" on crashed capacity still trips it.
        if let Some(last_crash) = self.cur.fstats.last_crash_time {
            let surv = self.surviving_tree();
            let rate_post = SteadyState::analyze(&surv).optimal_rate();
            let span = end_time.saturating_sub(last_crash);
            let after = times.iter().filter(|&&t| t > last_crash).count() as u64;
            let mut slack: u64 = 2;
            for (i, n) in self.ws.st.hot.iter().enumerate() {
                if i == 0 || n.departed || n.crashed {
                    continue;
                }
                slack += u64::from(n.ledger.as_ref().map_or(0, |l| l.max_capacity())) + 2;
            }
            let bound = rate_post.clone() * Rational::new(span as i128, 1)
                + Rational::from_integer(slack as i128);
            if Rational::from_integer(after as i128) > bound {
                return fail(
                    "rate-oracle",
                    format!(
                        "{after} completions in the {span}-timestep window after the last \
                         crash (t={last_crash}) exceed the surviving tree's optimal rate \
                         {rate_post} plus pipeline slack {slack}"
                    ),
                );
            }
        }
        Ok(())
    }

    /// The platform left standing after all faults: the original tree
    /// minus crashed (and departed) subtrees, rebuilt in preorder with
    /// child order preserved. Only meaningful on a statically configured
    /// run (no scripted changes), which is the only place it is called.
    fn surviving_tree(&self) -> Tree {
        let mut surv = Tree::new(self.tree.compute_time(NodeId::ROOT));
        let mut map = vec![NodeId::ROOT; self.ws.st.hot.len()];
        let mut stack = vec![0usize];
        while let Some(d) = stack.pop() {
            for &c in &self.ws.st.kid_node[self.ws.st.krange(d)] {
                let c = c as usize;
                if self.ws.st.hot[c].crashed || self.ws.st.hot[c].departed {
                    continue;
                }
                let id = NodeId(c as u32);
                map[c] =
                    surv.add_child(map[d], self.tree.comm_time(id), self.tree.compute_time(id));
                stack.push(c);
            }
        }
        surv
    }
}
