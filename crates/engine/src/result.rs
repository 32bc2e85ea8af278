//! Outputs of a simulation run.

use bc_simcore::Time;

/// Fault-and-recovery accounting of one run. All zero (and
/// `last_crash_time` `None`) when no fault plan was configured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Scheduled faults that actually fired before the run finished.
    pub faults_injected: u64,
    /// Tasks destroyed by crashes and aborted transfers.
    pub tasks_lost: u64,
    /// Lost tasks the repository re-injected into the remaining pool.
    pub tasks_reissued: u64,
    /// Request messages lost in the network.
    pub requests_dropped: u64,
    /// Request-timeout retries fired.
    pub retries: u64,
    /// Nodes that exhausted their retries and presumed their parent dead.
    pub gave_up: u64,
    /// Crash faults applied (subtree roots, not subtree node counts).
    pub crashes: u64,
    /// In-flight transfers torn down (by aborts, outages, or delivery to
    /// a crashed child).
    pub transfer_aborts: u64,
    /// Children declared dead after the missed-ack threshold.
    pub children_declared_dead: u64,
    /// Declared-dead children that turned out to be alive and rejoined.
    pub children_revived: u64,
    /// Duplicated deliveries recognized and dropped.
    pub duplicates_dropped: u64,
    /// Time of the last crash fault applied, if any — the start of the
    /// post-fault window the terminal oracle measures recovery over.
    pub last_crash_time: Option<Time>,
}

/// Open-world arrival/admission accounting of one run, plus the raw
/// per-unit timestamps the latency metrics derive sojourn/service/wait
/// distributions from. All empty/zero when no [`crate::ArrivalPlan`]
/// was configured, so batch results are unaffected.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrivalStats {
    /// Unit tasks submitted by the arrival process (admitted or not).
    pub submitted: u64,
    /// Unit tasks admitted into the repository queue.
    pub admitted: u64,
    /// Unit tasks rejected by the `Drop` admission policy.
    pub rejected: u64,
    /// Arrivals that had to wait in the deferred queue (backpressure
    /// engagements, `Defer` policy).
    pub deferrals: u64,
    /// Peak deferred-queue depth, in unit tasks.
    pub peak_deferred: u64,
    /// `admit_times[k]` = timestep the `(k+1)`-th admitted unit entered
    /// the repository queue (admission order).
    pub admit_times: Vec<Time>,
    /// `dispatch_times[k]` = timestep the `(k+1)`-th unit left the
    /// repository queue (taken by the root's processor or sent to a
    /// child), in dispatch order. Under faults, reissued units dispatch
    /// again, so this can be longer than `admit_times`.
    pub dispatch_times: Vec<Time>,
    /// Per-class completed unit counts (class order of the plan). Exact
    /// only in fault-free runs — completions are matched to classes in
    /// admission order (units are interchangeable; see DESIGN.md
    /// "Open-world service mode").
    pub completed_per_class: Vec<u64>,
    /// Per-class admitted unit counts (class order of the plan).
    pub admitted_per_class: Vec<u64>,
}

/// Everything the experiment harness needs from one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// `completion_times[k]` = timestep at which the `(k+1)`-th task
    /// completed (completions are globally ordered by the event loop).
    pub completion_times: Vec<Time>,
    /// Time of the last completion.
    pub end_time: Time,
    /// Tasks computed by each node (arena order).
    pub tasks_per_node: Vec<u64>,
    /// Per-node high-water buffer-pool size (the paper's "buffers used").
    /// Entry 0 (the root, which has no buffer pool) is 0.
    pub max_buffers_per_node: Vec<u32>,
    /// Per-node pool size at the end of the run (differs from the max
    /// only when buffer decay is enabled).
    pub final_buffers_per_node: Vec<u32>,
    /// Per-node peak simultaneously-held task count.
    pub peak_held_per_node: Vec<u32>,
    /// Per-node accumulated processor busy time (timesteps).
    pub busy_compute_per_node: Vec<u64>,
    /// Per-node accumulated outbound-link transmitting time (timesteps).
    pub busy_link_per_node: Vec<u64>,
    /// Per-node outbound-link preemption count (all zero under non-IC).
    pub preemptions_per_node: Vec<u64>,
    /// `(tasks_completed, global max buffers so far)` at each configured
    /// checkpoint (Table 2).
    pub checkpoint_max_buffers: Vec<(u64, u32)>,
    /// Discrete events processed (simulation effort, for the benches).
    pub events_processed: u64,
    /// Transfers preempted (interruptible protocol; 0 under non-IC).
    pub preemptions: u64,
    /// Task transfers started toward children.
    pub transfers_started: u64,
    /// Request control messages sent upward.
    pub requests_sent: u64,
    /// Fault/recovery accounting (all zero without a fault plan).
    pub faults: FaultStats,
    /// Open-world arrival accounting (all empty without an arrival plan).
    pub arrivals: ArrivalStats,
}

impl RunResult {
    /// Tasks completed over the whole run.
    pub fn tasks_completed(&self) -> u64 {
        self.completion_times.len() as u64
    }

    /// Which nodes computed at least one task — Fig 6's "used nodes".
    pub fn used_nodes(&self) -> Vec<bool> {
        self.tasks_per_node.iter().map(|&t| t > 0).collect()
    }

    /// Largest buffer pool any node ever reached.
    pub fn max_buffers(&self) -> u32 {
        self.max_buffers_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Per-node measured compute rate over the whole run (tasks per
    /// timestep) — comparable to the theory's optimal allocation.
    pub fn node_rate(&self, node: usize) -> f64 {
        if self.end_time == 0 {
            return 0.0;
        }
        self.tasks_per_node[node] as f64 / self.end_time as f64
    }

    /// Mean throughput over the entire run (tasks per timestep), as a
    /// float for reporting.
    pub fn overall_rate(&self) -> f64 {
        if self.end_time == 0 {
            return 0.0;
        }
        self.tasks_completed() as f64 / self.end_time as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            completion_times: vec![2, 4, 6, 8],
            end_time: 8,
            tasks_per_node: vec![2, 2, 0],
            max_buffers_per_node: vec![0, 3, 1],
            final_buffers_per_node: vec![0, 3, 1],
            peak_held_per_node: vec![0, 2, 1],
            busy_compute_per_node: vec![4, 4, 0],
            busy_link_per_node: vec![6, 0, 0],
            preemptions_per_node: vec![1, 0, 0],
            checkpoint_max_buffers: vec![(2, 2), (4, 3)],
            events_processed: 42,
            preemptions: 1,
            transfers_started: 2,
            requests_sent: 3,
            faults: FaultStats::default(),
            arrivals: ArrivalStats::default(),
        }
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.tasks_completed(), 4);
        assert_eq!(r.used_nodes(), vec![true, true, false]);
        assert_eq!(r.max_buffers(), 3);
        assert!((r.overall_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_accessors() {
        let r = sample();
        assert!((r.node_rate(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_time_rate() {
        let mut r = sample();
        r.end_time = 0;
        assert_eq!(r.overall_rate(), 0.0);
    }
}
