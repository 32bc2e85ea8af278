//! The fault model and recovery (extension): scheduled environment
//! faults, aborted transfers and their nacks, crashes, request
//! timeouts with backoff, missed-ack death detection, and reissue of
//! lost tasks.

use super::{Event, Simulation};
use crate::config::{FaultInjection, FaultKind, Protocol};
use bc_simcore::{split_seed, TraceEvent, TraceSink};

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

impl<S: TraceSink> Simulation<S> {
    /// A scheduled environment fault strikes.
    #[cold]
    #[inline(never)]
    pub(super) fn on_fault(&mut self, index: usize) {
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
                if !self.ws.st.hot[node].departed && !self.ws.st.hot[node].crashed {
                    self.ws.st.faults[node].drop_batches += batches;
                }
            }
            FaultKind::DuplicateDelivery { copies } => {
                if !self.ws.st.hot[node].departed && !self.ws.st.hot[node].crashed {
                    self.ws.st.faults[node].dup_deliveries += copies;
                }
            }
            FaultKind::TransferAbort => self.abort_boundary(node, Nack::Instant),
            FaultKind::LinkOutage { duration } => self.on_link_outage(node, duration),
            FaultKind::Crash => self.apply_crash(node),
        }
    }

    /// Whether `i`'s uplink is currently inside an outage window.
    fn link_down(&self, i: usize) -> bool {
        self.ws.st.faults[i].outage_until > self.ws.agenda.now()
    }

    /// Whether a completing transfer toward `child` can actually land.
    pub(super) fn delivery_blocked(&self, child: usize) -> bool {
        self.ws.st.hot[child].crashed || self.link_down(child)
    }

    /// A transfer from `i` toward child position `pos` completed its
    /// transmission but could not be delivered (receiver crashed or its
    /// link is dark): the task is lost and the sender notices the missed
    /// acknowledgement.
    #[cold]
    #[inline(never)]
    pub(super) fn on_delivery_failed(&mut self, i: usize, pos: usize, child: usize) {
        self.emit(TraceEvent::TransferAbort {
            node: i as u32,
            child: child as u32,
        });
        self.cur.fstats.transfer_aborts += 1;
        self.lose_tasks(1);
        self.note_missed_ack(i, pos);
        let c = &self.ws.st.hot[child];
        if !c.crashed && !c.departed {
            // Live but unreachable: the covering request is voided when
            // the link comes back.
            self.ws.st.faults[child].pending_nacks += 1;
        }
    }

    /// Tears down the in-flight transfer (if any) from `child`'s parent
    /// toward `child`. Parked IC slots are left alone — they fail at
    /// delivery time if the child is still unreachable then.
    #[cold]
    #[inline(never)]
    fn abort_boundary(&mut self, child: usize, nack: Nack) {
        if self.ws.st.hot[child].departed {
            return;
        }
        let Some(p) = self.ws.st.parent_of[child] else {
            return;
        };
        if self.ws.st.hot[p].departed || self.ws.st.hot[p].crashed {
            return;
        }
        let pos = self.ws.st.child_pos[child];
        let (sent, active) = self.stop_transfer_to(p, pos);
        if active {
            let k = self.ws.st.kid_start[p] as usize + pos;
            let t = self.ws.st.kid_slot[k].take();
            debug_assert!(t.is_some(), "active transfer without slot");
            self.ws.st.slots_used[p] -= 1;
        }
        if !sent && !active {
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
                self.ws.st.hot[child].ledger_mut().uncover(1);
                self.enqueue(child);
            }
            Nack::Deferred => self.ws.st.faults[child].pending_nacks += 1,
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
        if self.ws.st.hot[node].departed || self.ws.st.hot[node].crashed {
            return;
        }
        let until = self.ws.agenda.now() + duration;
        if until > self.ws.st.faults[node].outage_until {
            self.ws.st.faults[node].outage_until = until;
            self.ws.agenda.schedule(duration, Event::OutageEnd { node });
        }
        self.emit(TraceEvent::LinkDown {
            node: node as u32,
            until: self.ws.st.faults[node].outage_until,
        });
        // Anything mid-flight toward the node is torn down; the nack
        // cannot cross the dark link until the outage ends.
        self.abort_boundary(node, Nack::Deferred);
    }

    /// `node`'s outage window ended: deferred nacks resolve and the node
    /// re-requests for the newly voided coverage.
    #[cold]
    #[inline(never)]
    pub(super) fn on_outage_end(&mut self, node: usize) {
        if self.ws.st.hot[node].departed || self.ws.st.hot[node].crashed {
            return;
        }
        if self.ws.agenda.now() < self.ws.st.faults[node].outage_until {
            return; // superseded by a longer overlapping outage
        }
        let k = self.ws.st.faults[node].pending_nacks;
        self.ws.st.faults[node].pending_nacks = 0;
        if k > 0 {
            self.ws.st.hot[node].ledger_mut().uncover(k);
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
        if self.ws.st.hot[d0].departed || self.ws.st.hot[d0].crashed {
            return;
        }
        // The boundary in-flight transfer aborts immediately: the sender's
        // link observes the reset (one missed ack right away).
        self.abort_boundary(d0, Nack::None);
        let mut lost: u64 = 0;
        for d in self.ws.st.live_subtree(d0) {
            self.ws.st.hot[d].crashed = true;
            let timeout = self.ws.st.faults[d].timeout.take();
            let (held, sending, active) = self.ws.st.take_holdings(d);
            lost += held;
            let handles = [timeout, sending.map(|s| s.handle), active.map(|a| a.handle)];
            for h in handles.into_iter().flatten() {
                self.ws.agenda.cancel(h);
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
    pub(super) fn on_reissue(&mut self, count: u64) {
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

    /// `i`'s request timeout fired: withdraw any lost requests and re-send
    /// them, or give up after the retry budget (a later successful
    /// delivery revives the node).
    #[cold]
    #[inline(never)]
    pub(super) fn on_request_timeout(&mut self, i: usize) {
        self.ws.st.faults[i].timeout = None;
        if self.ws.st.hot[i].departed || self.ws.st.hot[i].crashed {
            return;
        }
        let lost = self.ws.st.faults[i].lost_requests;
        if lost == 0 {
            // Everything sent since arming was acknowledged.
            self.ws.st.faults[i].retry = 0;
            return;
        }
        self.ws.st.faults[i].retry += 1;
        let retry = self.ws.st.faults[i].retry;
        self.ws.st.faults[i].lost_requests = 0;
        self.ws.st.hot[i].ledger_mut().uncover(lost);
        if retry > self.cur.recovery.max_retries {
            self.ws.st.faults[i].orphaned = true;
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
    pub(super) fn arm_request_timeout(&mut self, i: usize) {
        if self.ws.st.faults[i].timeout.is_some() {
            return;
        }
        let retry = self.ws.st.faults[i].retry;
        let base = self.cur.recovery.request_timeout;
        let shift = retry.min(self.cur.recovery.backoff_cap).min(32);
        let jitter =
            split_seed(self.cur.fault_seed, ((i as u64) << 32) | retry as u64) % (base / 4 + 1);
        let deadline = base.saturating_mul(1u64 << shift).saturating_add(jitter);
        let handle = self
            .ws
            .agenda
            .schedule(deadline, Event::RequestTimeout { node: i });
        self.ws.st.faults[i].timeout = Some(handle);
    }

    /// A transfer from `i` toward child position `pos` went unacknowledged;
    /// at the threshold the child is presumed dead.
    #[cold]
    #[inline(never)]
    fn note_missed_ack(&mut self, i: usize, pos: usize) {
        let k = self.ws.st.kid_start[i] as usize + pos;
        if self.ws.st.kid_missed[k] >= self.cur.dead_threshold {
            return;
        }
        self.ws.st.kid_missed[k] += 1;
        if self.ws.st.kid_missed[k] >= self.cur.dead_threshold {
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
        let k = self.ws.st.kid_start[i] as usize + pos;
        let child = self.ws.st.kid_node[k] as usize;
        self.cur.fstats.children_declared_dead += 1;
        self.emit(TraceEvent::ChildDead {
            node: i as u32,
            child: child as u32,
        });
        let denied = self.ws.st.kid_pending[k];
        if denied == 0 {
            return;
        }
        self.ws.st.kid_pending[k] = 0;
        self.ws.st.pending_sum[i] -= denied;
        self.emit(TraceEvent::RequestDeny {
            node: i as u32,
            child: child as u32,
            count: denied,
        });
        if self.ws.st.hot[child].crashed || self.ws.st.hot[child].departed {
            return;
        }
        if self.link_down(child) {
            self.ws.st.faults[child].pending_nacks += denied;
        } else {
            self.ws.st.hot[child].ledger_mut().uncover(denied);
            self.enqueue(child);
        }
    }

    /// Whether the request batch `i` is sending right now gets lost
    /// (scheduled drop, dark uplink, or dead parent).
    #[cold]
    #[inline(never)]
    pub(super) fn request_lost(&mut self, i: usize, parent: usize) -> bool {
        if self.ws.st.faults[i].drop_batches > 0 {
            self.ws.st.faults[i].drop_batches -= 1;
            return true;
        }
        self.link_down(i) || self.ws.st.hot[parent].crashed
    }
}
