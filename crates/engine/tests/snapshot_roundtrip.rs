//! Snapshot exactness: a simulation restored from a mid-run
//! [`SimSnapshot`] — directly or through the serialized binary form —
//! must continue **bit-identically**: the same `RunResult` (which
//! embeds `FaultStats`), the same trace suffix, the same event counts.
//! Proptested over random platforms × protocol variants × fault legs ×
//! scripted-change legs × arrival legs × random capture points, plus
//! v2 fixtures captured by an older build that must still decode.

use bc_core::{BufferPolicy, GrowthGate, ObserverKind};
use bc_engine::{
    AdmissionPolicy, ArrivalPlan, ArrivalProcess, ChangeKind, FaultEvent, FaultInjection,
    FaultKind, FaultPlan, PlannedChange, RunResult, SelectorKind, SimConfig, SimSnapshot,
    SimWorkspace, Simulation, SnapshotError, TaskClass,
};
use bc_platform::{NodeId, RandomTreeConfig, Tree};
use bc_simcore::VecSink;
use proptest::prelude::*;

/// Protocol variants the round trip must hold for (both disciplines,
/// fixed and growable buffers, every selector family, a measuring
/// observer).
fn variants(tasks: u64) -> Vec<(&'static str, SimConfig)> {
    let mut v = vec![
        ("ic-fb2", SimConfig::interruptible(2, tasks)),
        ("nonic-fb2", SimConfig::non_interruptible_fixed(2, tasks)),
        ("nonic-ib1", SimConfig::non_interruptible(1, tasks)),
    ];
    let mut rr = SimConfig::interruptible(3, tasks);
    rr.selector = SelectorKind::RoundRobin;
    v.push(("ic-fb3-rr", rr));
    let mut ob = SimConfig::interruptible(3, tasks);
    ob.observer = ObserverKind::Ema {
        initial: 4,
        num: 1,
        den: 2,
    };
    v.push(("ic-fb3-ema", ob));
    v
}

/// A fault plan hitting several recovery paths (request loss, outage,
/// crash) so the capture lands amid armed timeouts, pending nacks, and
/// lost-task ledgers.
fn fault_plan(nodes: usize) -> FaultPlan {
    let mid = ((nodes / 2).max(1)) as u32;
    let last = ((nodes - 1).max(1)) as u32;
    FaultPlan {
        seed: 23,
        faults: vec![
            FaultEvent {
                at: 30,
                node: NodeId(mid),
                kind: FaultKind::RequestLoss { batches: 1 },
            },
            FaultEvent {
                at: 70,
                node: NodeId(last),
                kind: FaultKind::LinkOutage { duration: 30 },
            },
            FaultEvent {
                at: 140,
                node: NodeId(mid),
                kind: FaultKind::Crash,
            },
        ],
        recovery: Default::default(),
    }
}

/// Scripted platform changes (weight shifts, a join, a leave) so the
/// capture can land with the change cursor mid-script and the tree
/// mutated away from its original shape.
fn change_script(nodes: usize) -> Vec<PlannedChange> {
    let mid = NodeId(((nodes / 2).max(1)) as u32);
    vec![
        PlannedChange {
            after_tasks: 5,
            node: mid,
            kind: ChangeKind::CommTime(7),
        },
        PlannedChange {
            after_tasks: 12,
            node: NodeId(0),
            kind: ChangeKind::Join {
                comm: 3,
                compute: 6,
            },
        },
        PlannedChange {
            after_tasks: 25,
            node: mid,
            kind: ChangeKind::Leave,
        },
    ]
}

/// An open-world workload whose bursts overrun the admission queue, so
/// mid-run captures land with pending arrivals and (under `Defer`) a
/// non-empty deferred queue — the `ArrivalState` layer of the snapshot
/// is exercised in anger, not just in its empty state.
fn arrival_plan(policy: AdmissionPolicy) -> ArrivalPlan {
    ArrivalPlan {
        seed: 31,
        classes: vec![
            TaskClass {
                name: "background".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson {
                    mean_gap: 3,
                    count: 25,
                },
            },
            TaskClass {
                name: "burst".into(),
                work_units: 3,
                process: ArrivalProcess::Burst {
                    phase: 8,
                    period: 20,
                    size: 2,
                    bursts: 5,
                },
            },
        ],
        queue_cap: 4,
        policy,
    }
}

/// Steps to completion and returns the result (keeping the terminal
/// oracle in the loop).
fn finish(mut sim: Simulation) -> RunResult {
    while sim.step() {}
    sim.verify_terminal().expect("terminal oracle");
    sim.run()
}

/// Reference run plus a mid-run snapshot after `k` events (capped to
/// the run's length).
fn run_and_capture(tree: Tree, cfg: SimConfig, k: u64) -> (RunResult, SimSnapshot) {
    let mut sim = Simulation::new(tree, cfg);
    let mut stepped = 0u64;
    while stepped < k && sim.step() {
        stepped += 1;
    }
    let snap = sim.snapshot();
    (finish(sim), snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `restore(snapshot(t))` then run-to-completion is bit-identical
    /// to never snapshotting, across the full variant matrix — both
    /// restoring the in-memory snapshot and round-tripping it through
    /// the serialized form. The serialized form itself must re-encode
    /// byte-identically after decoding. Legs 3/4 run the open-world
    /// arrival layer (Defer and Drop), so captures land with pending
    /// arrivals and deferred backlogs.
    #[test]
    fn restore_continues_bit_identically(
        seed in 0u64..1_000_000,
        k in 0u64..600,
        leg in 0u8..5,
    ) {
        let gen = RandomTreeConfig {
            min_nodes: 2,
            max_nodes: 14,
            comm_min: 1,
            comm_max: 9,
            compute_scale: 40,
        };
        let tree = gen.generate(seed);
        for (name, cfg) in variants(60) {
            let mut cfg = cfg.with_checked(false);
            match leg {
                1 => cfg = cfg.with_fault_plan(fault_plan(tree.len())),
                2 => { cfg.changes = change_script(tree.len()); }
                3 => cfg = cfg.with_arrivals(arrival_plan(AdmissionPolicy::Defer)),
                4 => cfg = cfg.with_arrivals(arrival_plan(AdmissionPolicy::Drop)),
                _ => {}
            }
            cfg = cfg.with_checkpoints(vec![10, 30]);
            let (reference, snap) = run_and_capture(tree.clone(), cfg, k);

            // In-memory restore.
            let restored = finish(snap.resume());
            prop_assert_eq!(&restored, &reference, "in-memory restore diverged ({})", name);

            // Serialized round trip: decode(encode(s)) restores the same
            // run, and re-encoding reproduces the bytes.
            let bytes = snap.to_bytes();
            let decoded = SimSnapshot::from_bytes(&bytes).expect("decode own snapshot");
            prop_assert_eq!(decoded.to_bytes(), bytes, "re-encode not byte-identical ({})", name);
            let redone = finish(Simulation::from_snapshot(&decoded));
            prop_assert_eq!(&redone, &reference, "serialized restore diverged ({})", name);
        }
    }

    /// The trace suffix of a restored continuation is bit-identical to
    /// the corresponding tail of an uninterrupted traced run.
    #[test]
    fn trace_suffix_is_bit_identical(
        seed in 0u64..1_000_000,
        k in 0u64..400,
        leg in 0u8..3,
    ) {
        let gen = RandomTreeConfig {
            min_nodes: 2,
            max_nodes: 10,
            comm_min: 1,
            comm_max: 8,
            compute_scale: 25,
        };
        let tree = gen.generate(seed);
        let mut cfg = SimConfig::interruptible(2, 50).with_checked(false);
        match leg {
            1 => cfg = cfg.with_fault_plan(fault_plan(tree.len())),
            // The restored stream must replay admission decisions
            // (arrival/admit/defer events) bit-identically too.
            2 => cfg = cfg.with_arrivals(arrival_plan(AdmissionPolicy::Defer)),
            _ => {}
        }
        let mut sim = Simulation::traced(tree, cfg, SimWorkspace::new(), VecSink::new());
        let mut stepped = 0u64;
        while stepped < k && sim.step() {
            stepped += 1;
        }
        let snap = sim.snapshot();
        let (_res, _ws, sink) = sim.run_traced();
        let full = sink.records;

        let branch = Simulation::from_snapshot_traced(&snap, SimWorkspace::new(), VecSink::new());
        let (_res2, _ws2, sink2) = branch.run_traced();
        let suffix = sink2.records;
        prop_assert!(suffix.len() <= full.len());
        prop_assert_eq!(&full[full.len() - suffix.len()..], &suffix[..],
            "restored trace suffix diverged");
    }
}

/// Exhaustive mid-stream sweep for the arrival layer: snapshot after
/// *every* event of an overloaded `Defer` run, restore each, and demand
/// the exact reference result. Some captures necessarily land with a
/// non-empty deferred queue and arrivals still pending (the run's
/// deferral count proves backpressure engaged), so the `ArrivalState`
/// state — cursor, deferred indices, per-class ledgers — must round-trip
/// through both the in-memory and the serialized path.
#[test]
fn arrival_snapshots_restore_exactly_at_every_event() {
    let tree = RandomTreeConfig::default().generate(17);
    let cfg = SimConfig::interruptible(2, 1)
        .with_arrivals(arrival_plan(AdmissionPolicy::Defer))
        .with_checked(false);
    let reference = finish(Simulation::new(tree.clone(), cfg.clone()));
    assert!(
        reference.arrivals.deferrals > 0,
        "workload must engage backpressure for this sweep to mean anything"
    );
    let mut sim = Simulation::new(tree, cfg);
    let mut event = 0u64;
    loop {
        let snap = sim.snapshot();
        assert_eq!(
            finish(snap.resume()),
            reference,
            "in-memory restore diverged at event {event}"
        );
        // Serialize every 7th capture (the cursor layer moves every few
        // events; encoding all ~1k would only slow the suite down).
        if event.is_multiple_of(7) {
            let bytes = snap.to_bytes();
            let decoded = SimSnapshot::from_bytes(&bytes).expect("decode own snapshot");
            assert_eq!(decoded.to_bytes(), bytes, "re-encode at event {event}");
            assert_eq!(
                finish(decoded.resume()),
                reference,
                "serialized restore diverged at event {event}"
            );
        }
        if !sim.step() {
            break;
        }
        event += 1;
    }
}

/// A pre-start snapshot (taken before the first step) restores to the
/// exact full run, including fault-plan scheduling done by `start`.
#[test]
fn pre_start_snapshot_restores_full_run() {
    let gen = RandomTreeConfig::default();
    let tree = gen.generate(7);
    let cfg = SimConfig::interruptible(3, 80)
        .with_checked(false)
        .with_fault_plan(fault_plan(tree.len()));
    let sim = Simulation::new(tree.clone(), cfg.clone());
    let snap = sim.snapshot();
    let reference = finish(sim);
    assert_eq!(finish(snap.resume()), reference);
    let decoded = SimSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    assert_eq!(finish(decoded.resume()), reference);
}

/// A post-finish snapshot restores to a finished simulation whose
/// result equals the original's.
#[test]
fn finished_snapshot_round_trips() {
    let tree = RandomTreeConfig::default().generate(11);
    let mut sim = Simulation::new(tree, SimConfig::interruptible(2, 40).with_checked(false));
    while sim.step() {}
    let snap = sim.snapshot();
    let reference = sim.run();
    let branch = snap.resume();
    assert_eq!(finish(branch), reference);
}

/// Forking with no tweaks is exactly `resume`; forking K branches off
/// one snapshot leaves the snapshot (and each other) untouched.
#[test]
fn fork_without_tweaks_is_resume() {
    let tree = RandomTreeConfig::default().generate(3);
    let cfg = SimConfig::interruptible(2, 60).with_checked(false);
    let (reference, snap) = run_and_capture(tree, cfg, 100);
    let a = finish(snap.fork(|_| {}));
    let b = finish(snap.resume());
    let c = finish(snap.fork(|_| {}));
    assert_eq!(a, reference);
    assert_eq!(b, reference);
    assert_eq!(c, reference);
}

/// What-if branches diverge as specified and still complete all tasks:
/// a degraded edge and an injected crash both finish (recovery
/// reissues), while the unperturbed branch equals the reference.
#[test]
fn whatif_branches_diverge_and_complete() {
    let mut tree = Tree::new(50);
    let a = tree.add_child(NodeId::ROOT, 2, 8);
    let _b = tree.add_child(NodeId::ROOT, 3, 9);
    let cfg = SimConfig::interruptible(2, 120).with_checked(true);
    let (reference, snap) = run_and_capture(tree, cfg, 150);

    let baseline = finish(snap.fork(|_| {}));
    assert_eq!(baseline, reference);

    let degraded = finish(snap.fork(|w| w.set_comm_time(a, 40)));
    assert_eq!(degraded.tasks_completed(), 120);
    assert_ne!(
        degraded, reference,
        "degrading a live edge mid-run must change the outcome"
    );

    let crashed = finish(snap.fork(|w| {
        w.add_fault(FaultEvent {
            at: w.now() + 10,
            node: a,
            kind: FaultKind::Crash,
        })
    }));
    assert_eq!(crashed.tasks_completed(), 120);
    assert!(crashed.faults.crashes >= 1, "injected crash must strike");
    assert!(crashed.end_time >= reference.end_time);
}

/// Checked-mode time travel keeps a periodic snapshot that resumes to
/// the same result as the run it was captured from.
#[test]
fn time_travel_snapshot_resumes_exactly() {
    let tree = RandomTreeConfig::default().generate(5);
    let cfg = SimConfig::interruptible(2, 200).with_checked(true);
    let mut sim = Simulation::new(tree, cfg);
    sim.enable_time_travel(64);
    while sim.step() {}
    let (snap, at) = sim
        .last_time_travel_snapshot()
        .expect("periodic capture must have fired");
    assert!(at >= 64);
    let resumed = snap.clone();
    let reference = sim.run();
    assert_eq!(finish(resumed.resume()), reference);
}

/// Malformed input is rejected, never panics.
#[test]
fn from_bytes_rejects_garbage() {
    assert_eq!(
        SimSnapshot::from_bytes(b"").unwrap_err(),
        SnapshotError::BadMagic
    );
    assert_eq!(
        SimSnapshot::from_bytes(b"NOPE\x01").unwrap_err(),
        SnapshotError::BadMagic
    );
    assert_eq!(
        SimSnapshot::from_bytes(b"BCSS\x63").unwrap_err(),
        SnapshotError::UnsupportedVersion(0x63)
    );
    let tree = RandomTreeConfig::default().generate(1);
    let sim = Simulation::new(tree, SimConfig::interruptible(2, 10).with_checked(false));
    let bytes = sim.snapshot().to_bytes();
    // Any truncation of a valid snapshot must fail cleanly.
    for cut in [5, bytes.len() / 2, bytes.len() - 1] {
        assert!(SimSnapshot::from_bytes(&bytes[..cut]).is_err());
    }
}

/// Decodes a committed hex fixture.
fn fixture(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// The run the committed v2 fixtures were captured from: an untraced
/// lone repository (`w = 7`) computing 500 tasks under IC/FB=3. Older
/// builds collapsed its whole run into one 500-long compute-chain
/// macro-event.
fn fixture_run() -> (Tree, SimConfig) {
    (
        Tree::new(7),
        SimConfig::interruptible(3, 500).with_checked(false),
    )
}

/// A v2 snapshot captured mid-chain by an older build holds event tag 1
/// in its agenda. The tag is reserved now, so decoding is a typed
/// `Corrupt` error, never a panic.
#[test]
fn v2_mid_chain_capture_is_rejected() {
    let bytes = fixture(include_str!("fixtures/bcss_v2_mid_chain.hex"));
    assert_eq!(
        SimSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::Corrupt("reserved event tag 1")
    );
}

/// v2 snapshots from an older build still restore bit-exactly: one
/// captured after a compute chain (non-zero reserved elided-event
/// counter) and one captured with the old elision flag off (reserved
/// config byte 0). Re-encoding canonicalizes exactly those two fields.
#[test]
fn v2_captures_with_reserved_fields_restore_exactly() {
    let (tree, cfg) = fixture_run();
    let reference = finish(Simulation::new(tree, cfg));

    let post_chain = fixture(include_str!("fixtures/bcss_v2_post_chain.hex"));
    let snap = SimSnapshot::from_bytes(&post_chain).expect("decode post-chain fixture");
    assert_eq!(snap.completed(), 500);
    assert_eq!(finish(snap.resume()), reference);
    // The counter's two-byte varint (499) re-encodes as a one-byte 0.
    assert_eq!(snap.to_bytes().len(), post_chain.len() - 1);

    let flag_off = fixture(include_str!("fixtures/bcss_v2_elision_off.hex"));
    let snap = SimSnapshot::from_bytes(&flag_off).expect("decode flag-off fixture");
    assert_eq!(snap.events_processed(), 200);
    assert_eq!(finish(snap.resume()), reference);
    // Only the reserved config byte changes: 0 becomes the canonical 1.
    let canonical = snap.to_bytes();
    assert_eq!(canonical.len(), flag_off.len());
    let diffs: Vec<(u8, u8)> = flag_off
        .iter()
        .zip(&canonical)
        .filter(|(a, b)| a != b)
        .map(|(&a, &b)| (a, b))
        .collect();
    assert_eq!(diffs, [(0, 1)]);
}

// ---------------------------------------------------------------------------
// Golden BCSS corpus
// ---------------------------------------------------------------------------

/// Where a golden capture is taken: after a number of events, or just
/// before the clock reaches a time.
#[derive(Clone, Copy)]
enum At {
    Events(u64),
    Time(u64),
}

/// One committed golden snapshot: a deterministic run, its capture
/// point, and whether the run completes (fault injections that lose
/// tasks end in a deadlock panic instead).
struct Golden {
    name: &'static str,
    tree: Tree,
    cfg: SimConfig,
    at: At,
    finishes: bool,
}

impl Golden {
    fn capture(&self) -> Simulation {
        let mut sim = Simulation::new(self.tree.clone(), self.cfg.clone());
        match self.at {
            At::Events(k) => {
                let mut stepped = 0;
                while stepped < k && sim.step() {
                    stepped += 1;
                }
            }
            At::Time(t) => {
                sim.run_to_time(t);
            }
        }
        sim
    }

    fn path(&self) -> String {
        format!(
            "{}/tests/fixtures/bcss_golden_{}.hex",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        )
    }
}

/// Six nodes, two levels, distinct weights on every edge so the
/// selectors disagree.
fn golden_tree() -> Tree {
    let mut tree = Tree::new(5);
    let a = tree.add_child(NodeId::ROOT, 2, 6);
    tree.add_child(NodeId::ROOT, 3, 9);
    tree.add_child(NodeId::ROOT, 1, 20);
    tree.add_child(a, 2, 7);
    tree.add_child(a, 4, 5);
    tree
}

fn growable(gate: GrowthGate, cap: Option<u32>, decay_after: Option<u64>) -> BufferPolicy {
    BufferPolicy::Growable {
        initial: 1,
        cap,
        gate,
        decay_after,
    }
}

/// Three task classes, one per arrival process, sized to overrun a
/// queue of 3 at every burst.
fn golden_arrivals(policy: AdmissionPolicy) -> ArrivalPlan {
    ArrivalPlan {
        seed: 77,
        classes: vec![
            TaskClass {
                name: "poisson".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson {
                    mean_gap: 3,
                    count: 12,
                },
            },
            TaskClass {
                name: "burst".into(),
                work_units: 2,
                process: ArrivalProcess::Burst {
                    phase: 5,
                    period: 15,
                    size: 8,
                    bursts: 3,
                },
            },
            TaskClass {
                name: "trace".into(),
                work_units: 1,
                process: ArrivalProcess::Trace {
                    times: vec![1, 2, 40, 41],
                },
            },
        ],
        queue_cap: 3,
        policy,
    }
}

/// Every fault kind, timed so a capture at t = 30 holds a pending
/// fault, an outage end, an armed request timeout and a pending
/// reissue in its agenda.
fn golden_faults() -> FaultPlan {
    let fault = |at, node, kind| FaultEvent {
        at,
        node: NodeId(node),
        kind,
    };
    FaultPlan {
        seed: 5,
        faults: vec![
            fault(10, 4, FaultKind::RequestLoss { batches: 2 }),
            fault(12, 1, FaultKind::DuplicateDelivery { copies: 2 }),
            fault(15, 2, FaultKind::TransferAbort),
            fault(20, 5, FaultKind::LinkOutage { duration: 40 }),
            fault(25, 3, FaultKind::Crash),
            fault(90, 2, FaultKind::TransferAbort),
        ],
        recovery: Default::default(),
    }
}

/// The golden captures. Between them they hold every `Event` variant in
/// a live agenda, both protocols, fixed and growable buffers under each
/// growth gate, every observer, every selector (round robin with a moved
/// cursor), every change kind, fault injection, fault kind, arrival
/// process and admission policy.
fn golden_corpus() -> Vec<Golden> {
    let tree = golden_tree();
    let mut out = Vec::new();

    // IC, fixed buffers, checked mode, the whole change script.
    let mut cfg = SimConfig::interruptible(2, 60)
        .with_checked(true)
        .with_checkpoints(vec![5, 20]);
    for (after_tasks, node, kind) in [
        (3, 1, ChangeKind::CommTime(5)),
        (6, 2, ChangeKind::ComputeTime(4)),
        (
            9,
            3,
            ChangeKind::Join {
                comm: 2,
                compute: 8,
            },
        ),
        (40, 4, ChangeKind::Leave),
    ] {
        cfg = cfg.with_change(PlannedChange {
            after_tasks,
            node: NodeId(node),
            kind,
        });
    }
    out.push(Golden {
        name: "ic_fixed_changes",
        tree: tree.clone(),
        cfg,
        at: At::Events(50),
        finishes: true,
    });

    // Non-IC, every-event growth with cap and decay, round robin over
    // last-sample estimates, children served before self.
    let mut cfg = SimConfig::non_interruptible(1, 50).with_checked(false);
    cfg.buffers = growable(GrowthGate::EveryEvent, Some(4), Some(40));
    cfg.selector = SelectorKind::RoundRobin;
    cfg.observer = ObserverKind::LastSample { initial: 3 };
    cfg.self_first = false;
    out.push(Golden {
        name: "nonic_every_event_rr",
        tree: tree.clone(),
        cfg,
        at: At::Events(83),
        finishes: true,
    });

    // Non-IC, once-per-arrival growth, compute-centric over EMA
    // estimates.
    let mut cfg = SimConfig::non_interruptible(1, 50).with_checked(false);
    cfg.buffers = growable(GrowthGate::OncePerArrival, None, None);
    cfg.selector = SelectorKind::ComputeCentric;
    cfg.observer = ObserverKind::Ema {
        initial: 4,
        num: 1,
        den: 3,
    };
    out.push(Golden {
        name: "nonic_once_per_arrival_ema",
        tree: tree.clone(),
        cfg,
        at: At::Events(70),
        finishes: true,
    });

    // Non-IC, after-pool-filled growth, every fault kind mid-recovery.
    let mut cfg = SimConfig::non_interruptible(1, 60)
        .with_checked(false)
        .with_fault_plan(golden_faults());
    cfg.buffers = growable(GrowthGate::AfterPoolFilled, None, None);
    out.push(Golden {
        name: "nonic_faults_mid_recovery",
        tree: tree.clone(),
        cfg,
        at: At::Time(30),
        finishes: true,
    });

    // IC under the same fault plan.
    out.push(Golden {
        name: "ic_faults_mid_recovery",
        tree: tree.clone(),
        cfg: SimConfig::interruptible(3, 60)
            .with_checked(false)
            .with_fault_plan(golden_faults()),
        at: At::Time(30),
        finishes: true,
    });

    // Open world: all three arrival processes, deferred and dropped.
    out.push(Golden {
        name: "ic_arrivals_defer",
        tree: tree.clone(),
        cfg: SimConfig::interruptible(2, 1)
            .with_checked(false)
            .with_arrivals(golden_arrivals(AdmissionPolicy::Defer)),
        at: At::Time(20),
        finishes: true,
    });
    out.push(Golden {
        name: "nonic_arrivals_drop",
        tree: tree.clone(),
        cfg: SimConfig::non_interruptible_fixed(2, 1)
            .with_checked(false)
            .with_arrivals(golden_arrivals(AdmissionPolicy::Drop)),
        at: At::Time(20),
        finishes: true,
    });

    // The four checker-validation fault injections.
    out.push(Golden {
        name: "inject_fb_off_by_one",
        tree: tree.clone(),
        cfg: SimConfig::interruptible(2, 40)
            .with_checked(false)
            .with_fault(FaultInjection::FbOffByOne),
        at: At::Events(60),
        finishes: true,
    });
    out.push(Golden {
        name: "inject_leak_task",
        tree: tree.clone(),
        cfg: SimConfig::interruptible(2, 40)
            .with_checked(false)
            .with_fault(FaultInjection::LeakTask { every: 4 }),
        at: At::Events(40),
        finishes: false,
    });
    out.push(Golden {
        name: "inject_swallow_reissue",
        tree: tree.clone(),
        cfg: SimConfig::interruptible(2, 60)
            .with_checked(false)
            .with_fault_plan(golden_faults())
            .with_fault(FaultInjection::SwallowReissue),
        at: At::Time(30),
        finishes: false,
    });
    out.push(Golden {
        name: "inject_leak_queued_task",
        tree,
        cfg: SimConfig::interruptible(2, 1)
            .with_checked(false)
            .with_arrivals(golden_arrivals(AdmissionPolicy::Defer))
            .with_fault(FaultInjection::LeakQueuedTask { every: 2 }),
        at: At::Time(20),
        finishes: false,
    });
    out
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The committed golden corpus pins the `BCSS` layout: re-capturing
/// each run reproduces its fixture byte for byte, decoding and
/// re-encoding a fixture is the identity, and a fixture restored from
/// its bytes continues exactly like the uninterrupted run.
#[test]
fn golden_corpus_is_byte_stable() {
    for g in golden_corpus() {
        let fixture_hex = std::fs::read_to_string(g.path())
            .unwrap_or_else(|e| panic!("{}: missing fixture: {e}", g.name));
        let committed = fixture(&fixture_hex);

        let sim = g.capture();
        let bytes = sim.snapshot().to_bytes();
        assert_eq!(
            to_hex(&bytes),
            fixture_hex.trim(),
            "{}: re-capture differs from the committed fixture",
            g.name
        );

        let decoded = SimSnapshot::from_bytes(&committed)
            .unwrap_or_else(|e| panic!("{}: fixture does not decode: {e}", g.name));
        assert_eq!(
            decoded.to_bytes(),
            committed,
            "{}: decode -> encode is not the identity",
            g.name
        );

        if g.finishes {
            let reference = finish(sim);
            assert_eq!(
                finish(decoded.resume()),
                reference,
                "{}: restored fixture diverged from the uninterrupted run",
                g.name
            );
        } else {
            // The run ends in a deadlock panic; compare a stretch of it.
            let mut original = sim;
            let mut resumed = decoded.resume();
            for _ in 0..16 {
                original.step();
                resumed.step();
            }
            assert_eq!(
                resumed.snapshot().to_bytes(),
                original.snapshot().to_bytes(),
                "{}: restored fixture diverged from the uninterrupted run",
                g.name
            );
        }
    }
}
