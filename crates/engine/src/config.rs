//! Simulation configuration: protocol variant, buffer policy, scheduling
//! policy, observation mode, workload size, and planned platform changes.

use crate::arrivals::ArrivalPlan;
use bc_core::{BufferPolicy, GrowthGate, ObserverKind};
use bc_platform::NodeId;

/// Communication discipline (§3.1 vs §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// §3.1: a started transfer always runs to completion.
    NonInterruptible,
    /// §3.2: a request from a higher-priority child preempts the transfer
    /// to a lower-priority child; the partial transfer is shelved in a
    /// per-child slot and later resumed where it left off.
    Interruptible,
}

/// Which child-selection policy nodes use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectorKind {
    /// The paper's policy: prioritize by communication time.
    BandwidthCentric,
    /// Baseline: prioritize by the child's computation time.
    ComputeCentric,
    /// Baseline: round-robin over requesting children.
    RoundRobin,
}

/// A scripted platform mutation (the §4.2.3 adaptability experiment and
/// the dynamic-overlay extension): applied as soon as `after_tasks`
/// tasks have completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedChange {
    /// Completion count that triggers the change.
    pub after_tasks: u64,
    /// The node the change targets. For [`ChangeKind::Join`] this is the
    /// *parent* the new node attaches under; for [`ChangeKind::Leave`]
    /// the root of the departing subtree; otherwise the node whose
    /// weight changes.
    pub node: NodeId,
    /// What changes.
    pub kind: ChangeKind,
}

/// The mutable quantity of a [`PlannedChange`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// Set `c_node` (communication contention).
    CommTime(u64),
    /// Set `w_node` (processor contention).
    ComputeTime(u64),
    /// A new node joins the overlay under `node` — the §3 scalability
    /// property ("it is very straightforward to add subtrees of nodes
    /// below any currently connected node"). The joined node's id is the
    /// next arena index, deterministically, so later changes can target
    /// it.
    Join {
        /// Edge weight of the new uplink.
        comm: u64,
        /// The new node's compute time.
        compute: u64,
    },
    /// The subtree rooted at `node` departs. Tasks it held (buffered,
    /// computing, or in flight toward it) return to the repository for
    /// re-dispatch — the master-reissue semantics of volunteer-computing
    /// systems.
    Leave,
}

/// A deliberately wrong protocol behavior, injected to validate that the
/// checked simulation mode (see [`crate::invariants`]) actually catches
/// protocol-rule violations. Never enabled by experiments; the
/// `fuzz_protocols` harness uses it to self-test its detector and
/// shrinker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultInjection {
    /// Every non-root node builds its buffer pool one larger than the
    /// policy allows — the classic FB bound off-by-one. Violates buffer
    /// legality as soon as the extra buffer is provisioned.
    FbOffByOne,
    /// Every `every`-th delivered task silently vanishes from the
    /// receiving buffer (a lost-task bug). Violates task conservation at
    /// the next checker sweep.
    LeakTask {
        /// Leak period, in deliveries (≥ 1).
        every: u64,
    },
    /// The repository forgets a reissue: tasks lost to a fault are removed
    /// from the reissue ledger without re-entering the remaining pool.
    /// Only meaningful together with a [`FaultPlan`]; violates task
    /// conservation at the next checker sweep, which is how the ledger
    /// extension proves it watches the recovery path.
    SwallowReissue,
    /// The repository drops every `every`-th *deferred* arrival on
    /// admission instead of queueing it (without counting it rejected) —
    /// a lost-submission bug in the open-world admission path. Only
    /// meaningful together with an [`ArrivalPlan`]; violates the
    /// open-world conservation term `submitted == done + in_flight +
    /// queued + rejected` at the next checker sweep, proving the
    /// arrival leg of the checker actually fires.
    LeakQueuedTask {
        /// Leak period, in deferred arrivals (≥ 1).
        every: u64,
    },
}

/// One scheduled environment fault (absolute simulation time). Unlike
/// [`FaultInjection`] — deliberate *protocol* bugs the checker must catch
/// — these model the *network and node failures the protocol is expected
/// to recover from*; the checker stays silent on a correct recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time the fault strikes.
    pub at: u64,
    /// The node whose uplink (or self, for `Crash`) is hit. Never the
    /// repository.
    pub node: NodeId,
    /// What breaks.
    pub kind: FaultKind,
}

/// The fault taxonomy of the unreliable-network model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The next `batches` request batches sent by `node` vanish in the
    /// network: the parent never learns of them, the child's request
    /// timeout eventually fires and re-issues them with backoff.
    RequestLoss {
        /// Request batches to drop (≥ 1).
        batches: u32,
    },
    /// The in-flight task transfer on `node`'s uplink (if any) is torn
    /// down: the task is lost, the sender observes the reset, the
    /// repository reissues the task after its detection latency.
    TransferAbort,
    /// `node`'s uplink goes dark for `duration` timesteps: requests sent
    /// during the window are lost, in-flight and arriving transfers abort,
    /// and negative acknowledgements are deferred to the window's end.
    LinkOutage {
        /// Outage length, in timesteps (≥ 1).
        duration: u64,
    },
    /// The subtree rooted at `node` dies abruptly — no goodbye, all
    /// buffered/computing/in-flight tasks inside it destroyed. Its parent
    /// discovers the death through missed acknowledgements; the destroyed
    /// tasks are reissued at the repository.
    Crash,
    /// The next `copies` deliveries into `node` each arrive twice (an
    /// at-least-once network); the duplicate copy must be recognized by
    /// task identity and dropped.
    DuplicateDelivery {
        /// Deliveries to duplicate (≥ 1).
        copies: u32,
    },
}

/// Timeout/retry/reissue tuning of the recovery protocol. All quantities
/// are sim-time timesteps or counts; defaults are the calibrated choices
/// documented in DESIGN.md ("Fault model & recovery").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryTuning {
    /// Base request timeout: a node with unacknowledged (lost) requests
    /// re-issues them this many timesteps after sending (plus backoff and
    /// jitter).
    pub request_timeout: u64,
    /// Exponential backoff cap: retry `r` waits `request_timeout << min(r,
    /// backoff_cap)` plus jitter.
    pub backoff_cap: u32,
    /// Consecutive fruitless retries after which a node presumes its
    /// parent dead and stops requesting (a later successful delivery
    /// revives it).
    pub max_retries: u32,
    /// Consecutive transfer failures toward a child after which the parent
    /// presumes it dead, discards its pending requests, and stops
    /// delegating to it (a later request from the child revives it).
    pub missed_ack_threshold: u8,
    /// Repository-side detection latency: lost tasks re-enter the
    /// remaining pool this many timesteps after being lost.
    pub reissue_delay: u64,
}

impl Default for RecoveryTuning {
    fn default() -> Self {
        RecoveryTuning {
            request_timeout: 32,
            backoff_cap: 6,
            max_retries: 5,
            missed_ack_threshold: 2,
            reissue_delay: 48,
        }
    }
}

/// A seeded, schedulable plan of environment faults for one run. The plan
/// is part of the configuration, so a faulted run is exactly as
/// deterministic and reproducible as a fault-free one: the seed feeds
/// only the retry jitter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the deterministic retry jitter.
    pub seed: u64,
    /// The scheduled faults (any order; the engine schedules each at its
    /// absolute time).
    pub faults: Vec<FaultEvent>,
    /// Recovery-protocol tuning.
    pub recovery: RecoveryTuning,
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Communication discipline.
    pub protocol: Protocol,
    /// Buffer sizing at every non-root node.
    pub buffers: BufferPolicy,
    /// Child-selection policy.
    pub selector: SelectorKind,
    /// How nodes estimate per-child communication times.
    pub observer: ObserverKind,
    /// Feed the local processor before children when both want the same
    /// buffered task (the default; delegating to self costs no link time).
    pub self_first: bool,
    /// Number of application tasks.
    pub total_tasks: u64,
    /// Completion counts at which the global buffer high-water mark is
    /// snapshotted (Table 2).
    pub checkpoints: Vec<u64>,
    /// Scripted platform mutations, sorted by `after_tasks`.
    pub changes: Vec<PlannedChange>,
    /// Safety valve: abort (panic) if the event count exceeds this.
    pub max_events: u64,
    /// Checked simulation mode: re-derive and verify the protocol
    /// invariants (task conservation, buffer-bound legality, coverage
    /// coherence, monotone time, terminal rate ≤ the Theorem 1 optimum)
    /// while the run executes, panicking on the first violation. The
    /// checker is read-only — results are bit-identical either way.
    ///
    /// Defaults **on** under `debug_assertions` (so the whole test suite
    /// runs checked), **off** in release campaigns; a release run opts in
    /// with [`SimConfig::with_checked`] (`bc-serve` takes `"checked":true`).
    /// See DESIGN.md "Invariants & checked mode" for what each invariant
    /// encodes and what checking costs.
    ///
    /// On a violation, the panic is preceded by whatever the simulation's
    /// trace sink retains — run with a `bc_simcore::RingRecorder` (as
    /// `fuzz_protocols --repro` does) to get the last events leading up
    /// to the failure.
    pub checked: bool,
    /// Deliberate protocol fault, for validating the checker itself.
    /// `None` (always, outside checker tests) = faithful protocol.
    pub fault: Option<FaultInjection>,
    /// Scheduled environment faults (unreliable network / crash model)
    /// the protocol must recover from. `None` = perfectly reliable
    /// network, and the recovery plumbing stays entirely off the hot
    /// path.
    pub fault_plan: Option<FaultPlan>,
    /// Open-world streaming workload (see [`crate::arrivals`]). `None` =
    /// the paper's closed batch of `total_tasks` tasks, and the arrival
    /// plumbing stays entirely off the hot path (its own `const`
    /// monomorphization leg, like the fault split). When set,
    /// `total_tasks` must equal the plan's total unit count —
    /// [`SimConfig::with_arrivals`] maintains this.
    pub arrivals: Option<ArrivalPlan>,
}

impl SimConfig {
    /// The paper's interruptible protocol with `fb` fixed buffers per node.
    pub fn interruptible(fb: u32, total_tasks: u64) -> Self {
        SimConfig {
            protocol: Protocol::Interruptible,
            buffers: BufferPolicy::Fixed(fb),
            ..Self::base(total_tasks)
        }
    }

    /// The paper's non-interruptible protocol with `ib` initial buffers
    /// and unbounded growth. The default growth gate is the calibrated
    /// choice (see DESIGN.md); use [`SimConfig::non_interruptible_gated`]
    /// to ablate.
    pub fn non_interruptible(ib: u32, total_tasks: u64) -> Self {
        Self::non_interruptible_gated(ib, GrowthGate::default(), total_tasks)
    }

    /// Non-interruptible with an explicit growth gate.
    pub fn non_interruptible_gated(ib: u32, gate: GrowthGate, total_tasks: u64) -> Self {
        SimConfig {
            protocol: Protocol::NonInterruptible,
            buffers: BufferPolicy::Growable {
                initial: ib,
                cap: None,
                gate,
                decay_after: None,
            },
            ..Self::base(total_tasks)
        }
    }

    /// Non-interruptible with a *fixed* pool (Fig 7 uses non-IC, FB=2).
    pub fn non_interruptible_fixed(fb: u32, total_tasks: u64) -> Self {
        SimConfig {
            protocol: Protocol::NonInterruptible,
            buffers: BufferPolicy::Fixed(fb),
            ..Self::base(total_tasks)
        }
    }

    fn base(total_tasks: u64) -> Self {
        SimConfig {
            protocol: Protocol::Interruptible,
            buffers: BufferPolicy::Fixed(3),
            selector: SelectorKind::BandwidthCentric,
            observer: ObserverKind::Oracle,
            self_first: true,
            total_tasks,
            checkpoints: Vec::new(),
            changes: Vec::new(),
            max_events: 500_000_000,
            checked: cfg!(debug_assertions),
            fault: None,
            fault_plan: None,
            arrivals: None,
        }
    }

    /// Enables or disables checked simulation mode (see
    /// [`SimConfig::checked`]).
    pub fn with_checked(mut self, checked: bool) -> Self {
        self.checked = checked;
        self
    }

    /// Injects a deliberate protocol fault (checker validation only).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Schedules environment faults for the run (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Switches the run to the open-world streaming workload described
    /// by `plan` (see [`crate::arrivals`]). `total_tasks` is set to the
    /// plan's total unit count so the closed-world accounting (results,
    /// oracles) stays meaningful; with a `Drop` admission policy the run
    /// finishes when every *admitted* unit completes.
    pub fn with_arrivals(mut self, plan: ArrivalPlan) -> Self {
        self.total_tasks = plan.total_units();
        self.arrivals = Some(plan);
        self
    }

    /// Adds a scripted change (keeps `changes` sorted by trigger count).
    pub fn with_change(mut self, change: PlannedChange) -> Self {
        self.changes.push(change);
        self.changes.sort_by_key(|c| c.after_tasks);
        self
    }

    /// Sets the Table-2 style snapshot checkpoints.
    pub fn with_checkpoints(mut self, checkpoints: Vec<u64>) -> Self {
        self.checkpoints = checkpoints;
        self.checkpoints.sort_unstable();
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_tasks == 0 {
            return Err("total_tasks must be >= 1".into());
        }
        if let Some(FaultInjection::LeakTask { every: 0 }) = self.fault {
            return Err("LeakTask fault needs every >= 1".into());
        }
        if let Some(FaultInjection::LeakQueuedTask { every: 0 }) = self.fault {
            return Err("LeakQueuedTask fault needs every >= 1".into());
        }
        if self.buffers.initial() == 0 {
            return Err("buffer pools must start with >= 1 buffer".into());
        }
        for c in &self.changes {
            match c.kind {
                ChangeKind::CommTime(0) => return Err("change to comm_time 0".into()),
                ChangeKind::ComputeTime(0) => return Err("change to compute_time 0".into()),
                ChangeKind::Join { comm: 0, .. } => return Err("join with comm_time 0".into()),
                ChangeKind::Join { compute: 0, .. } => {
                    return Err("join with compute_time 0".into())
                }
                ChangeKind::Leave if c.node == NodeId::ROOT => {
                    return Err("the repository cannot leave".into())
                }
                _ => {}
            }
        }
        if let Some(plan) = &self.fault_plan {
            if plan.recovery.request_timeout == 0 {
                return Err("request_timeout must be >= 1".into());
            }
            if plan.recovery.missed_ack_threshold == 0 {
                return Err("missed_ack_threshold must be >= 1".into());
            }
            for f in &plan.faults {
                if f.node == NodeId::ROOT {
                    return Err("faults cannot target the repository".into());
                }
                match f.kind {
                    FaultKind::RequestLoss { batches: 0 } => {
                        return Err("RequestLoss needs batches >= 1".into())
                    }
                    FaultKind::LinkOutage { duration: 0 } => {
                        return Err("LinkOutage needs duration >= 1".into())
                    }
                    FaultKind::DuplicateDelivery { copies: 0 } => {
                        return Err("DuplicateDelivery needs copies >= 1".into())
                    }
                    _ => {}
                }
            }
        }
        if let Some(plan) = &self.arrivals {
            plan.validate()?;
            if self.total_tasks != plan.total_units() {
                return Err(format!(
                    "total_tasks ({}) must equal the arrival plan's unit count ({})",
                    self.total_tasks,
                    plan.total_units()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let ic = SimConfig::interruptible(3, 1000);
        assert_eq!(ic.protocol, Protocol::Interruptible);
        assert_eq!(ic.buffers, BufferPolicy::Fixed(3));
        ic.validate().unwrap();

        let nic = SimConfig::non_interruptible(1, 1000);
        assert_eq!(nic.protocol, Protocol::NonInterruptible);
        assert!(nic.buffers.growable());
        nic.validate().unwrap();

        let fixed = SimConfig::non_interruptible_fixed(2, 1000);
        assert_eq!(fixed.protocol, Protocol::NonInterruptible);
        assert_eq!(fixed.buffers, BufferPolicy::Fixed(2));
    }

    #[test]
    fn changes_sorted() {
        let cfg = SimConfig::interruptible(3, 100)
            .with_change(PlannedChange {
                after_tasks: 50,
                node: NodeId(1),
                kind: ChangeKind::CommTime(3),
            })
            .with_change(PlannedChange {
                after_tasks: 20,
                node: NodeId(1),
                kind: ChangeKind::ComputeTime(1),
            });
        assert_eq!(cfg.changes[0].after_tasks, 20);
        assert_eq!(cfg.changes[1].after_tasks, 50);
    }

    #[test]
    fn topology_change_validation() {
        let ok = SimConfig::interruptible(2, 10).with_change(PlannedChange {
            after_tasks: 5,
            node: NodeId::ROOT,
            kind: ChangeKind::Join {
                comm: 2,
                compute: 7,
            },
        });
        ok.validate().unwrap();
        let bad = SimConfig::interruptible(2, 10).with_change(PlannedChange {
            after_tasks: 5,
            node: NodeId::ROOT,
            kind: ChangeKind::Join {
                comm: 0,
                compute: 7,
            },
        });
        assert!(bad.validate().is_err());
        let bad = SimConfig::interruptible(2, 10).with_change(PlannedChange {
            after_tasks: 5,
            node: NodeId::ROOT,
            kind: ChangeKind::Leave,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn checked_mode_and_fault_knobs() {
        // Checked defaults on under debug_assertions (every debug test run)
        // and off as shipped — this test runs in both profiles.
        let cfg = SimConfig::interruptible(3, 10);
        assert_eq!(cfg.checked, cfg!(debug_assertions));
        assert_eq!(cfg.fault, None);
        let cfg = cfg.with_checked(false);
        assert!(!cfg.checked);
        let cfg = cfg.with_fault(FaultInjection::FbOffByOne);
        assert_eq!(cfg.fault, Some(FaultInjection::FbOffByOne));
        cfg.validate().unwrap();
        assert!(SimConfig::interruptible(3, 10)
            .with_fault(FaultInjection::LeakTask { every: 0 })
            .validate()
            .is_err());
    }

    #[test]
    fn fault_plan_validation() {
        let plan = |kind, node| FaultPlan {
            seed: 7,
            faults: vec![FaultEvent { at: 10, node, kind }],
            recovery: RecoveryTuning::default(),
        };
        SimConfig::interruptible(3, 10)
            .with_fault_plan(plan(FaultKind::Crash, NodeId(1)))
            .validate()
            .unwrap();
        assert!(SimConfig::interruptible(3, 10)
            .with_fault_plan(plan(FaultKind::Crash, NodeId::ROOT))
            .validate()
            .is_err());
        assert!(SimConfig::interruptible(3, 10)
            .with_fault_plan(plan(FaultKind::RequestLoss { batches: 0 }, NodeId(1)))
            .validate()
            .is_err());
        assert!(SimConfig::interruptible(3, 10)
            .with_fault_plan(plan(FaultKind::LinkOutage { duration: 0 }, NodeId(1)))
            .validate()
            .is_err());
        assert!(SimConfig::interruptible(3, 10)
            .with_fault_plan(plan(FaultKind::DuplicateDelivery { copies: 0 }, NodeId(1)))
            .validate()
            .is_err());
        let mut degenerate = FaultPlan::default();
        degenerate.recovery.request_timeout = 0;
        assert!(SimConfig::interruptible(3, 10)
            .with_fault_plan(degenerate)
            .validate()
            .is_err());
    }

    #[test]
    fn arrival_plan_wiring() {
        use crate::arrivals::ArrivalPlan;
        let plan = ArrivalPlan::poisson(5, 4, 30, 6);
        let cfg = SimConfig::interruptible(3, 1).with_arrivals(plan.clone());
        assert_eq!(cfg.total_tasks, plan.total_units());
        cfg.validate().unwrap();
        // Desynchronized total_tasks is rejected.
        let mut bad = SimConfig::interruptible(3, 1).with_arrivals(plan);
        bad.total_tasks = 7;
        assert!(bad.validate().is_err());
        // The new self-test fault validates like the others.
        assert!(SimConfig::interruptible(3, 10)
            .with_fault(FaultInjection::LeakQueuedTask { every: 0 })
            .validate()
            .is_err());
        SimConfig::interruptible(3, 10)
            .with_fault(FaultInjection::LeakQueuedTask { every: 2 })
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_configs() {
        assert!(SimConfig::interruptible(3, 0).validate().is_err());
        assert!(SimConfig::interruptible(0, 10).validate().is_err());
        let bad = SimConfig::interruptible(1, 10).with_change(PlannedChange {
            after_tasks: 1,
            node: NodeId(1),
            kind: ChangeKind::CommTime(0),
        });
        assert!(bad.validate().is_err());
    }
}
