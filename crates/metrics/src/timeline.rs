//! Per-node timelines folded from a structured trace.
//!
//! A [`bc_simcore::trace`] event stream is the full temporal record of a
//! run; this module reduces it to per-node [`NodeTimeline`]s — busy/idle
//! span totals, preemption/resume counts, buffer high-water marks — the
//! derived view `trace_dump --format summary` prints and the
//! reconciliation tests compare against the engine's own `RunResult`
//! accounting (the two are produced by independent code paths, so their
//! exact agreement is evidence both are right).
//!
//! The fold is single-pass and tolerant of truncated traces (a
//! `RingRecorder` tail): spans left open when the records end are counted
//! in [`NodeTimeline::open_spans`] instead of silently inflating busy
//! time.

use bc_simcore::trace::{TraceEvent, TraceRecord};
use bc_simcore::Time;

/// Everything a trace says about one node, reduced to counters and span
/// totals (node = arena index; entry 0 is the repository).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeTimeline {
    /// Total timesteps the processor spent computing (closed
    /// compute-start → compute-finish spans).
    pub busy_compute: u64,
    /// Total timesteps the outbound link spent transmitting (spans opened
    /// by transfer-start/resume, closed by preempt/complete).
    pub busy_link: u64,
    /// Tasks this node finished computing (compute-finish count).
    pub tasks_computed: u64,
    /// Tasks delivered into this node's buffers (buffer-acquire count).
    pub tasks_received: u64,
    /// Transfers this node started toward children.
    pub transfers_started: u64,
    /// Transfers this node completed toward children.
    pub transfers_completed: u64,
    /// Times this node's link preempted its active transfer.
    pub preemptions: u64,
    /// Times a shelved transfer resumed on this node's link.
    pub resumes: u64,
    /// Request messages this node sent its parent.
    pub requests_sent: u64,
    /// Requests from departed children this node discarded unserved.
    pub requests_denied: u64,
    /// Peak simultaneous buffer occupancy observed in the stream.
    pub buffer_high_water: u32,
    /// Largest buffer-pool capacity observed in the stream.
    pub max_capacity: u32,
    /// Buffer occupancy after the node's last buffer event.
    pub final_held: u32,
    /// Join time, if the node joined mid-run.
    pub joined_at: Option<Time>,
    /// Leave time, if the node departed mid-run.
    pub left_at: Option<Time>,
    /// Compute/transmit spans still open when the records ended — 0 for a
    /// complete trace of a finished run; nonzero only for truncated
    /// (ring-buffer) tails.
    pub open_spans: u32,
}

/// Time of the last record (the makespan, for a complete trace of a
/// finished run — the final event is the last task's compute-finish).
pub fn trace_end_time(records: &[TraceRecord]) -> Time {
    records.last().map_or(0, |r| r.time)
}

/// Folds a trace into per-node timelines, indexed by arena index (the
/// vector covers every node mentioned by any event).
pub fn fold_timelines(records: &[TraceRecord]) -> Vec<NodeTimeline> {
    // Per-node open-span state: when the current compute / transmit span
    // began. The link transmits at most one transfer at a time, so one
    // open span per node suffices for both resources.
    let mut timelines: Vec<NodeTimeline> = Vec::new();
    let mut compute_open: Vec<Option<Time>> = Vec::new();
    let mut link_open: Vec<Option<Time>> = Vec::new();
    let ensure = |timelines: &mut Vec<NodeTimeline>,
                  compute_open: &mut Vec<Option<Time>>,
                  link_open: &mut Vec<Option<Time>>,
                  node: u32| {
        let need = node as usize + 1;
        if timelines.len() < need {
            timelines.resize_with(need, NodeTimeline::default);
            compute_open.resize(need, None);
            link_open.resize(need, None);
        }
    };
    for r in records {
        let i = r.event.node() as usize;
        ensure(
            &mut timelines,
            &mut compute_open,
            &mut link_open,
            r.event.node(),
        );
        match r.event {
            TraceEvent::ComputeStart { .. } => {
                // A start over an open span only happens in truncated
                // tails that lost the matching finish.
                if compute_open[i].replace(r.time).is_some() {
                    timelines[i].open_spans += 1;
                }
            }
            TraceEvent::ComputeFinish { .. } => {
                timelines[i].tasks_computed += 1;
                if let Some(began) = compute_open[i].take() {
                    timelines[i].busy_compute += r.time - began;
                } else {
                    timelines[i].open_spans += 1; // finish without a start
                }
            }
            TraceEvent::TransferStart { .. } => {
                timelines[i].transfers_started += 1;
                if link_open[i].replace(r.time).is_some() {
                    timelines[i].open_spans += 1;
                }
            }
            TraceEvent::TransferResume { .. } => {
                timelines[i].resumes += 1;
                if link_open[i].replace(r.time).is_some() {
                    timelines[i].open_spans += 1;
                }
            }
            TraceEvent::TransferPreempt { .. } => {
                timelines[i].preemptions += 1;
                if let Some(began) = link_open[i].take() {
                    timelines[i].busy_link += r.time - began;
                } else {
                    timelines[i].open_spans += 1;
                }
            }
            TraceEvent::TransferComplete { .. } => {
                timelines[i].transfers_completed += 1;
                // After a preempt-at-zero-remaining the span was already
                // closed by the preempt; the completion adds no time.
                if let Some(began) = link_open[i].take() {
                    timelines[i].busy_link += r.time - began;
                }
            }
            TraceEvent::BufferAcquire { held, capacity, .. } => {
                timelines[i].tasks_received += 1;
                timelines[i].buffer_high_water = timelines[i].buffer_high_water.max(held);
                timelines[i].max_capacity = timelines[i].max_capacity.max(capacity);
                timelines[i].final_held = held;
            }
            TraceEvent::BufferRelease { held, capacity, .. } => {
                timelines[i].buffer_high_water = timelines[i].buffer_high_water.max(held);
                timelines[i].max_capacity = timelines[i].max_capacity.max(capacity);
                timelines[i].final_held = held;
            }
            TraceEvent::Request { count, .. } => {
                timelines[i].requests_sent += u64::from(count);
            }
            TraceEvent::RequestDeny { count, .. } => {
                timelines[i].requests_denied += u64::from(count);
            }
            TraceEvent::NodeJoin { node, parent } => {
                ensure(
                    &mut timelines,
                    &mut compute_open,
                    &mut link_open,
                    parent.max(node),
                );
                timelines[node as usize].joined_at = Some(r.time);
            }
            TraceEvent::NodeLeave { node, .. } => {
                timelines[node as usize].left_at = Some(r.time);
                // Whatever the departed node was doing stops counting.
                compute_open[node as usize] = None;
                link_open[node as usize] = None;
            }
            TraceEvent::TransferAbort { .. } => {
                // The sender transmitted until the reset; the span closes
                // here but delivers nothing.
                if let Some(began) = link_open[i].take() {
                    timelines[i].busy_link += r.time - began;
                }
            }
            TraceEvent::NodeCrash { node, .. } => {
                timelines[node as usize].left_at = Some(r.time);
                compute_open[node as usize] = None;
                link_open[node as usize] = None;
            }
            // Fault/recovery bookkeeping events carry no span state.
            TraceEvent::RequestLoss { .. }
            | TraceEvent::RequestRetry { .. }
            | TraceEvent::LinkDown { .. }
            | TraceEvent::LinkUp { .. }
            | TraceEvent::TaskReissue { .. }
            | TraceEvent::ChildDead { .. }
            | TraceEvent::ChildRevived { .. }
            | TraceEvent::DuplicateDrop { .. }
            | TraceEvent::JoinDenied { .. }
            | TraceEvent::TaskArrival { .. }
            | TraceEvent::TaskAdmit { .. }
            | TraceEvent::TaskReject { .. }
            | TraceEvent::TaskDefer { .. } => {}
        }
    }
    for i in 0..timelines.len() {
        timelines[i].open_spans +=
            u32::from(compute_open[i].is_some()) + u32::from(link_open[i].is_some());
    }
    timelines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: Time, event: TraceEvent) -> TraceRecord {
        TraceRecord { time, event }
    }

    #[test]
    fn folds_compute_and_link_spans() {
        let records = vec![
            rec(0, TraceEvent::Request { node: 1, count: 2 }),
            rec(
                0,
                TraceEvent::TransferStart {
                    node: 0,
                    child: 1,
                    work: 3,
                },
            ),
            rec(
                3,
                TraceEvent::TransferComplete {
                    node: 0,
                    child: 1,
                    work: 3,
                },
            ),
            rec(
                3,
                TraceEvent::BufferAcquire {
                    node: 1,
                    held: 1,
                    capacity: 2,
                },
            ),
            rec(
                3,
                TraceEvent::BufferRelease {
                    node: 1,
                    held: 0,
                    capacity: 2,
                },
            ),
            rec(3, TraceEvent::ComputeStart { node: 1 }),
            rec(8, TraceEvent::ComputeFinish { node: 1 }),
        ];
        let tl = fold_timelines(&records);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].busy_link, 3);
        assert_eq!(tl[0].transfers_started, 1);
        assert_eq!(tl[0].transfers_completed, 1);
        assert_eq!(tl[1].busy_compute, 5);
        assert_eq!(tl[1].tasks_computed, 1);
        assert_eq!(tl[1].tasks_received, 1);
        assert_eq!(tl[1].requests_sent, 2);
        assert_eq!(tl[1].buffer_high_water, 1);
        assert_eq!(tl[1].max_capacity, 2);
        assert_eq!(tl[1].final_held, 0);
        assert_eq!(tl[1].open_spans, 0);
        assert_eq!(trace_end_time(&records), 8);
    }

    #[test]
    fn preempt_resume_spans_add_up() {
        // Transmit 2 of 5, shelve for 4, resume and finish the last 3.
        let records = vec![
            rec(
                0,
                TraceEvent::TransferStart {
                    node: 0,
                    child: 2,
                    work: 5,
                },
            ),
            rec(
                2,
                TraceEvent::TransferPreempt {
                    node: 0,
                    child: 2,
                    remaining: 3,
                },
            ),
            rec(
                2,
                TraceEvent::TransferStart {
                    node: 0,
                    child: 1,
                    work: 4,
                },
            ),
            rec(
                6,
                TraceEvent::TransferComplete {
                    node: 0,
                    child: 1,
                    work: 4,
                },
            ),
            rec(
                6,
                TraceEvent::TransferResume {
                    node: 0,
                    child: 2,
                    remaining: 3,
                },
            ),
            rec(
                9,
                TraceEvent::TransferComplete {
                    node: 0,
                    child: 2,
                    work: 5,
                },
            ),
        ];
        let tl = fold_timelines(&records);
        assert_eq!(tl[0].busy_link, 2 + 4 + 3);
        assert_eq!(tl[0].preemptions, 1);
        assert_eq!(tl[0].resumes, 1);
        assert_eq!(tl[0].transfers_started, 2);
        assert_eq!(tl[0].transfers_completed, 2);
        assert_eq!(tl[0].open_spans, 0);
    }

    #[test]
    fn preempt_at_zero_then_complete_counts_once() {
        let records = vec![
            rec(
                0,
                TraceEvent::TransferStart {
                    node: 0,
                    child: 1,
                    work: 4,
                },
            ),
            rec(
                4,
                TraceEvent::TransferPreempt {
                    node: 0,
                    child: 1,
                    remaining: 0,
                },
            ),
            rec(
                4,
                TraceEvent::TransferComplete {
                    node: 0,
                    child: 1,
                    work: 4,
                },
            ),
        ];
        let tl = fold_timelines(&records);
        assert_eq!(tl[0].busy_link, 4, "the completion must not double-count");
        assert_eq!(tl[0].open_spans, 0);
    }

    #[test]
    fn truncated_tail_reports_open_spans() {
        // A ring tail that lost the compute-start and keeps an unfinished
        // transfer open at the end.
        let records = vec![
            rec(7, TraceEvent::ComputeFinish { node: 1 }),
            rec(
                8,
                TraceEvent::TransferStart {
                    node: 0,
                    child: 1,
                    work: 9,
                },
            ),
        ];
        let tl = fold_timelines(&records);
        assert_eq!(tl[1].tasks_computed, 1);
        assert_eq!(tl[1].busy_compute, 0, "orphan finish adds no span");
        assert_eq!(tl[1].open_spans, 1);
        assert_eq!(tl[0].open_spans, 1, "unfinished transfer is flagged");
    }

    #[test]
    fn join_and_leave_are_stamped() {
        let records = vec![
            rec(5, TraceEvent::NodeJoin { node: 3, parent: 0 }),
            rec(
                9,
                TraceEvent::NodeLeave {
                    node: 3,
                    reclaimed: 2,
                },
            ),
        ];
        let tl = fold_timelines(&records);
        assert_eq!(tl.len(), 4);
        assert_eq!(tl[3].joined_at, Some(5));
        assert_eq!(tl[3].left_at, Some(9));
    }

    #[test]
    fn empty_trace_folds_to_nothing() {
        assert!(fold_timelines(&[]).is_empty());
        assert_eq!(trace_end_time(&[]), 0);
    }
}
