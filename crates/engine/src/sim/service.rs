//! The service cascade: the FIFO service pass over queued nodes, which
//! fills each node's processor and outbound link (child selection, IC
//! slot delegation, link reconciling and preemption) and issues its
//! requests upward.

use super::{ActiveTransfer, Event, Sending, Simulation, SlotTransfer};
use crate::config::Protocol;
use bc_core::{ChildInfo, GrowthEvent};
use bc_platform::NodeId;
use bc_simcore::{TraceEvent, TraceSink};

impl<S: TraceSink> Simulation<S> {
    pub(super) fn enqueue(&mut self, i: usize) {
        if !self.ws.queued[i] {
            self.ws.queued[i] = true;
            self.ws.service_queue.push_back(i);
        }
    }

    pub(super) fn drain<const FA: bool, const IC: bool, const AR: bool>(&mut self) {
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
        if self.ws.st.hot[i].departed || (FA && self.ws.st.hot[i].crashed) {
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
        if self.ws.st.hot[i].computing_since.is_some() || !self.take_task::<AR>(i) {
            return;
        }
        self.ws.st.hot[i].computing_since = Some(self.ws.agenda.now());
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
        let ledger = self.ws.st.hot[i].ledger_mut();
        if ledger.held() == 0 {
            return false;
        }
        ledger.take_task();
        // Occupancy at the instant of removal, before any growth below.
        let (held, capacity) = (ledger.held(), ledger.capacity());
        if ledger.try_grow(GrowthEvent::ChildRequestPressure, pressure) {
            self.ws.st.cold[i].last_pressure = now;
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
            self.ws.st.hot[i]
                .ledger
                .as_ref()
                .is_some_and(|l| l.held() > 0)
        }
    }

    pub(super) fn has_child_requests(&self, i: usize) -> bool {
        self.ws.st.pending_sum[i] > 0
    }

    /// The selection view of `i`'s child at `pos`, read straight from the
    /// CSR caches (`kid_comm` holds exactly what the observer/tree would
    /// say; see its field docs).
    #[inline(always)]
    fn child_info(&self, i: usize, pos: usize) -> ChildInfo {
        let k = self.ws.st.kid_start[i] as usize + pos;
        ChildInfo {
            index: pos,
            comm_estimate: self.ws.st.kid_comm[k],
            compute_estimate: self.ws.st.kid_compute[k],
        }
    }

    /// Re-derives the cached comm estimate for `i`'s child at `pos` after
    /// an observation landed.
    #[inline(always)]
    pub(super) fn refresh_kid_comm(&mut self, i: usize, pos: usize) {
        let ob = &self.ws.st.cold[i].observer;
        if !ob.is_oracle() {
            let k = self.ws.st.kid_start[i] as usize + pos;
            self.ws.st.kid_comm[k] = ob.estimate(pos);
        }
    }

    fn fill_link<const FA: bool, const IC: bool, const AR: bool>(&mut self, i: usize) {
        if self.ws.st.kid_start[i + 1] == self.ws.st.kid_start[i] {
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
        if self.ws.st.sending[i].is_some() || self.ws.st.pending_sum[i] == 0 || !self.has_task(i) {
            return;
        }
        let mut candidates = std::mem::take(&mut self.ws.candidates);
        candidates.clear();
        for (pos, k) in self.ws.st.krange(i).enumerate() {
            if self.ws.st.kid_pending[k] > 0
                && (!FA || self.ws.st.kid_missed[k] < self.cur.dead_threshold)
                && !self.ws.st.kid_gone[k]
            {
                candidates.push(ChildInfo {
                    index: pos,
                    comm_estimate: self.ws.st.kid_comm[k],
                    compute_estimate: self.ws.st.kid_compute[k],
                });
            }
        }
        let chosen = self.ws.st.cold[i].selector.select(&candidates);
        self.ws.candidates = candidates;
        let Some(pos) = chosen else {
            return;
        };
        if !self.take_task::<AR>(i) {
            return;
        }
        let k = self.ws.st.kid_start[i] as usize + pos;
        self.ws.st.kid_pending[k] -= 1;
        self.ws.st.pending_sum[i] -= 1;
        let child = self.ws.st.kid_node[k] as usize;
        let c = self.tree.comm_time(NodeId(child as u32));
        let now = self.ws.agenda.now();
        self.cur.transfers_started += 1;
        self.emit(TraceEvent::TransferStart {
            node: i as u32,
            child: child as u32,
            work: c,
        });
        let handle = self.ws.agenda.schedule(c, Event::SendDone { node: i });
        self.ws.st.sending[i] = Some(Sending {
            child_pos: pos,
            started_at: now,
            handle,
        });
    }

    /// IC: delegate buffered tasks into empty slots of requesting
    /// children, best-priority first, while tasks last.
    fn fill_slots<const FA: bool, const AR: bool>(&mut self, i: usize) {
        if self.ws.st.pending_sum[i] == 0 {
            return; // no requesting child, so no candidate either
        }
        let mut candidates = std::mem::take(&mut self.ws.candidates);
        loop {
            if self.ws.st.pending_sum[i] == 0 || !self.has_task(i) {
                break;
            }
            candidates.clear();
            for (pos, k) in self.ws.st.krange(i).enumerate() {
                if self.ws.st.kid_pending[k] > 0
                    && self.ws.st.kid_slot[k].is_none()
                    && (!FA || self.ws.st.kid_missed[k] < self.cur.dead_threshold)
                    && !self.ws.st.kid_gone[k]
                {
                    candidates.push(ChildInfo {
                        index: pos,
                        comm_estimate: self.ws.st.kid_comm[k],
                        compute_estimate: self.ws.st.kid_compute[k],
                    });
                }
            }
            let Some(pos) = self.ws.st.cold[i].selector.select(&candidates) else {
                break;
            };
            if !self.take_task::<AR>(i) {
                break;
            }
            let k = self.ws.st.kid_start[i] as usize + pos;
            self.ws.st.kid_pending[k] -= 1;
            self.ws.st.pending_sum[i] -= 1;
            self.cur.transfers_started += 1;
            let child = self.ws.st.kid_node[k] as usize;
            let c = self.tree.comm_time(NodeId(child as u32));
            self.ws.st.kid_slot[k] = Some(SlotTransfer {
                remaining: c,
                total: c,
                started: false,
            });
            self.ws.st.slots_used[i] += 1;
        }
        self.ws.candidates = candidates;
    }

    /// IC: ensure the link transmits the highest-priority occupied slot,
    /// preempting if a better slot appeared (§3.2).
    pub(super) fn reconcile_link<const FA: bool>(&mut self, i: usize) {
        // Fast paths on the occupancy count: nothing to transmit, or the
        // active transfer is the only occupied slot (then the full scan
        // below would find best == active and do nothing).
        let used = self.ws.st.slots_used[i];
        if used == 0 {
            debug_assert!(self.ws.st.active[i].is_none(), "active without slots");
            return;
        }
        if used == 1 && self.ws.st.active[i].is_some() {
            return;
        }
        let mut candidates = std::mem::take(&mut self.ws.candidates);
        candidates.clear();
        for (pos, k) in self.ws.st.krange(i).enumerate() {
            if self.ws.st.kid_slot[k].is_some() {
                candidates.push(ChildInfo {
                    index: pos,
                    comm_estimate: self.ws.st.kid_comm[k],
                    compute_estimate: self.ws.st.kid_compute[k],
                });
            }
        }
        let best = self.ws.st.cold[i].selector.best(&candidates);
        self.ws.candidates = candidates;
        match (&self.ws.st.active[i], best) {
            (_, None) => {
                debug_assert!(self.ws.st.active[i].is_none(), "active without slots");
            }
            (None, Some(b)) => self.activate(i, b),
            (Some(a), Some(b)) if b != a.child_pos => {
                let a_info = self.child_info(i, a.child_pos);
                let b_info = self.child_info(i, b);
                if self.ws.st.cold[i].selector.outranks(&b_info, &a_info) {
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
        debug_assert!(self.ws.st.active[i].is_none());
        let k = self.ws.st.kid_start[i] as usize + pos;
        let slot = self.ws.st.kid_slot[k]
            .as_mut()
            .expect("activating an empty slot");
        let remaining = slot.remaining;
        let first = !slot.started;
        let total = slot.total;
        slot.started = true;
        if S::ENABLED {
            let child = self.ws.st.kid_node[k];
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
        self.ws.st.active[i] = Some(ActiveTransfer {
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
        self.ws.st.cold[i].preemptions += 1;
        let a = self.ws.st.active[i].take().expect("preempting idle link");
        self.ws.agenda.cancel(a.handle);
        let elapsed = self.ws.agenda.now() - a.started_at;
        self.ws.st.hot[i].busy_link += elapsed;
        let remaining = a
            .remaining_at_start
            .checked_sub(elapsed)
            .expect("transfer ran past its completion");
        let k = self.ws.st.kid_start[i] as usize + a.child_pos;
        let slot = self.ws.st.kid_slot[k]
            .as_mut()
            .expect("active transfer without slot");
        slot.remaining = remaining;
        if S::ENABLED {
            let child = self.ws.st.kid_node[k];
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
        let last_pressure = self.ws.st.cold[i].last_pressure;
        if let Some(ledger) = &mut self.ws.st.hot[i].ledger {
            if let Some(window) = ledger.decay_after() {
                if now.saturating_sub(last_pressure) >= window && ledger.try_shrink() {
                    self.ws.st.cold[i].last_pressure = now;
                }
            }
        }
        let ledger = self.ws.st.hot[i].ledger_mut();
        let n = ledger.uncovered();
        if n == 0 {
            return;
        }
        if FA && self.ws.st.faults[i].orphaned {
            // Retry budget exhausted: presumed-dead parent, stop asking.
            return;
        }
        let ledger = self.ws.st.hot[i].ledger_mut();
        ledger.note_requests_sent(n);
        self.cur.requests_sent += n as u64;
        self.emit(TraceEvent::Request {
            node: i as u32,
            count: n,
        });
        let parent = self.ws.st.parent_of[i].expect("non-root has parent");
        let pos = self.ws.st.child_pos[i];
        if FA && self.request_lost(i, parent) {
            // The batch vanished in the network: still covered here (the
            // node believes it asked), unknown to the parent. The timeout
            // withdraws and re-sends it.
            self.ws.st.faults[i].lost_requests += n;
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
            self.ws.st.faults[i].retry = 0;
        }
        let k = self.ws.st.kid_start[parent] as usize + pos;
        self.ws.st.kid_pending[k] += n;
        self.ws.st.pending_sum[parent] += n;
        if FA && self.ws.st.kid_missed[k] >= self.cur.dead_threshold {
            // Heard from a child previously presumed dead: revise.
            self.ws.st.kid_missed[k] = 0;
            self.cur.fstats.children_revived += 1;
            self.emit(TraceEvent::ChildRevived {
                node: parent as u32,
                child: i as u32,
            });
        }
        self.enqueue(parent);
    }
}
