//! Dynamic topology and scripted weight changes (extension): joins,
//! graceful leaves, and `ChangeKind` weight edits applied at their
//! completion counts.

use super::Simulation;
use crate::config::{ChangeKind, Protocol};
use bc_platform::NodeId;
use bc_simcore::{TraceEvent, TraceSink};

impl<S: TraceSink> Simulation<S> {
    /// Applies every scripted change that is due at the current
    /// completion count.
    pub(super) fn apply_due_changes(&mut self) {
        while self.cur.next_change < self.cfg.changes.len()
            && self.cfg.changes[self.cur.next_change].after_tasks <= self.cur.completed
        {
            let ch = self.cfg.changes[self.cur.next_change];
            self.cur.next_change += 1;
            match ch.kind {
                ChangeKind::Join { comm, compute } => self.apply_join(ch.node, comm, compute),
                ChangeKind::Leave => self.apply_leave(ch.node),
                weight => {
                    let parent = self.ws.st.set_weight(&mut self.tree, ch.node, weight);
                    // Re-examine the neighborhood under the new weights.
                    self.enqueue(ch.node.index());
                    if let Some(p) = parent {
                        self.enqueue(p);
                    }
                }
            }
        }
    }

    /// A new node joins under `parent` — §3's scalability property in
    /// action: the parent only gains one more child to prioritize; no
    /// other node learns anything.
    fn apply_join(&mut self, parent: NodeId, comm: u64, compute: u64) {
        let p = parent.index();
        if p >= self.ws.st.hot.len() || self.ws.st.hot[p].departed || self.ws.st.hot[p].crashed {
            // The contact node is unknown or gone before the newcomer
            // arrived; in a real overlay the join simply fails.
            self.emit(TraceEvent::JoinDenied { parent: parent.0 });
            return;
        }
        let id = self.tree.add_child(parent, comm, compute);
        let i = id.index();
        debug_assert_eq!(i, self.ws.st.hot.len());
        let now = self.ws.agenda.now();
        self.ws.st.join_child(p, comm, compute, &self.cfg, now);
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
        assert!(d0 < self.ws.st.hot.len(), "leave of unknown node {node}");
        assert!(d0 != 0, "the repository cannot leave");
        if self.ws.st.hot[d0].departed || self.ws.st.hot[d0].crashed {
            return; // already gone (a crash reclaimed nothing — the
                    // tasks are in the lost ledger, not handed back)
        }
        // Reclaim from the boundary edge: the still-present parent may be
        // mid-transfer toward the departing subtree root.
        let mut reclaimed: u64 = 0;
        let p = self.ws.st.parent_of[d0].expect("non-root has parent");
        let pos = self.ws.st.child_pos[d0];
        let kp = self.ws.st.kid_start[p] as usize + pos;
        let denied = self.ws.st.kid_pending[kp];
        self.ws.st.kid_pending[kp] = 0;
        self.ws.st.pending_sum[p] -= denied;
        if S::ENABLED && denied > 0 {
            self.emit(TraceEvent::RequestDeny {
                node: p as u32,
                child: d0 as u32,
                count: denied,
            });
        }
        let (sent, _) = self.stop_transfer_to(p, pos);
        reclaimed += u64::from(sent);
        if self.ws.st.kid_slot[kp].take().is_some() {
            self.ws.st.slots_used[p] -= 1;
            reclaimed += 1;
        }

        // Walk the departing subtree, reclaiming everything it holds. A
        // branch that departed earlier was already reclaimed then (its
        // ledger still reports its old holdings) and must not be counted
        // again; its whole subtree is departed, so don't descend either.
        for d in self.ws.st.live_subtree(d0) {
            // The departed node's pending ComputeDone / SendDone events
            // are ignored when they fire.
            reclaimed += self.ws.st.take_holdings(d).0;
            self.ws.st.hot[d].departed = true;
            // Mirror the departure into the parent's candidate filter.
            if let Some(pp) = self.ws.st.parent_of[d] {
                let k = self.ws.st.kid_start[pp] as usize + self.ws.st.child_pos[d];
                self.ws.st.kid_gone[k] = true;
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
}
