//! Decoder fuzz corpus: `SimSnapshot::from_bytes` is *total* — every
//! byte string, however hostile, maps to `Ok` or a typed
//! [`SnapshotError`]. No panic, no unwinding, no unbounded allocation.
//!
//! Three adversaries, all seeded and deterministic:
//!  1. pure noise (random bytes, with and without a valid header),
//!  2. truncation (every prefix of real snapshots),
//!  3. mutation (bit-flips and random splices of real snapshots).
//!
//! Plus a regression pin for the one latent decode→restore panic this
//! corpus flushed out: bytes whose *config* carries an arrival plan but
//! whose *cursor* layer does not (or vice versa) used to decode `Ok` and
//! then panic inside `from_snapshot_traced`; they are now rejected as
//! `Corrupt` at decode time.

use bc_engine::{
    AdmissionPolicy, ArrivalPlan, ArrivalProcess, FaultEvent, FaultKind, FaultPlan, SimConfig,
    SimSnapshot, Simulation, SnapshotError, TaskClass,
};
use bc_platform::{NodeId, RandomTreeConfig};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Decode arbitrary bytes; if the decoder accepts them, the canonical
/// form must re-encode without panicking (we don't demand restore
/// safety for semantically impossible states, only decode totality).
fn probe(bytes: &[u8]) -> Result<(), SnapshotError> {
    SimSnapshot::from_bytes(bytes).map(|snap| {
        let _ = snap.to_bytes();
    })
}

/// A small corpus of genuine snapshots covering the format's layers:
/// plain runs, fault plans mid-flight, and open-world arrivals (the
/// arrival-cursor tail), captured at several event depths — plus the
/// committed golden fixtures (`tests/fixtures/bcss_golden_*.hex`), which
/// between them carry every event, enum and option tag of the format.
fn corpus() -> Vec<Vec<u8>> {
    let mut out = golden_fixtures();
    assert!(out.len() >= 10, "golden fixtures missing");
    for seed in [3u64, 41] {
        let gen = RandomTreeConfig {
            min_nodes: 2,
            max_nodes: 12,
            comm_min: 1,
            comm_max: 8,
            compute_scale: 30,
        };
        let tree = gen.generate(seed);
        let plain = SimConfig::interruptible(2, 40).with_checked(false);
        let faulty = SimConfig::non_interruptible(1, 40)
            .with_checked(false)
            .with_fault_plan(FaultPlan {
                seed: 7,
                faults: vec![FaultEvent {
                    at: 25,
                    node: NodeId(((tree.len() - 1).max(1)) as u32),
                    kind: FaultKind::Crash,
                }],
                recovery: Default::default(),
            });
        let open = SimConfig::interruptible(3, 30)
            .with_checked(false)
            .with_arrivals(ArrivalPlan {
                seed: 11,
                classes: vec![TaskClass {
                    name: "bg".into(),
                    work_units: 1,
                    process: ArrivalProcess::Poisson {
                        mean_gap: 4,
                        count: 20,
                    },
                }],
                queue_cap: 3,
                policy: AdmissionPolicy::Defer,
            });
        for cfg in [plain, faulty, open] {
            for k in [0u64, 17, 90] {
                let mut sim = Simulation::new(tree.clone(), cfg.clone());
                let mut stepped = 0;
                while stepped < k && sim.step() {
                    stepped += 1;
                }
                out.push(sim.snapshot().to_bytes());
            }
        }
    }
    out
}

/// The committed golden `BCSS` fixtures, decoded from hex, in name
/// order.
fn golden_fixtures() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("bcss_golden_"))
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let hex = std::fs::read_to_string(p).expect("read fixture");
            let hex = hex.trim();
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
                .collect()
        })
        .collect()
}

#[test]
fn random_noise_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xF022);
    for _ in 0..4000 {
        let len = rng.random_range(0..512usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.random::<u32>() as u8).collect();
        let _ = probe(&bytes);
        // Again with a valid header so the fuzz reaches the tree/config/
        // workspace decoders instead of dying on the magic check.
        if bytes.len() >= 5 {
            bytes[..4].copy_from_slice(b"BCSS");
            bytes[4] = 2;
        }
        let _ = probe(&bytes);
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for bytes in corpus() {
        for cut in 0..bytes.len() {
            assert!(
                probe(&bytes[..cut]).is_err(),
                "prefix of length {cut}/{} decoded as a full snapshot",
                bytes.len()
            );
        }
    }
}

#[test]
fn bit_flips_never_panic() {
    for bytes in corpus() {
        for i in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                // A flip in a free integer field can still decode; the
                // contract under attack is totality, not rejection.
                let _ = probe(&bad);
            }
        }
    }
}

#[test]
fn random_splices_never_panic() {
    let corpus = corpus();
    let mut rng = SmallRng::seed_from_u64(0x5CAB);
    for bytes in &corpus {
        for _ in 0..300 {
            let mut bad = bytes.clone();
            let at = rng.random_range(0..bad.len());
            let span = rng.random_range(1..32usize).min(bad.len() - at);
            for b in &mut bad[at..at + span] {
                *b = rng.random::<u32>() as u8;
            }
            let _ = probe(&bad);
            // Also splice-and-truncate: torn tail plus garbage body.
            let keep = rng.random_range(0..bad.len());
            bad.truncate(keep);
            let _ = probe(&bad);
        }
    }
}

/// Regression: an arrival *plan* in the config without arrival *cursor*
/// state is structurally inconsistent — restoring such a snapshot used
/// to panic (`expect("arrival plan without cursor state")`). The
/// decoder must reject it. We forge the bytes by taking a real
/// open-world snapshot (whose arrival cursor is the final field) and
/// rewriting the cursor tag to "absent" at each plausible tail
/// position: at least one forgery reaches the consistency check, and
/// every forgery must fail without panicking.
#[test]
fn arrival_plan_without_cursor_is_rejected() {
    let tree = RandomTreeConfig::default().generate(9);
    let cfg = SimConfig::interruptible(2, 20)
        .with_checked(false)
        .with_arrivals(ArrivalPlan {
            seed: 5,
            classes: vec![TaskClass {
                name: "only".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson {
                    mean_gap: 5,
                    count: 10,
                },
            }],
            queue_cap: 2,
            policy: AdmissionPolicy::Drop,
        });
    let sim = Simulation::new(tree, cfg);
    let bytes = sim.snapshot().to_bytes();

    let mut hit_mismatch = false;
    for tag_pos in (0..bytes.len()).rev() {
        // Pretend the arrival-cursor tag lives at `tag_pos`: set it to 0
        // (absent) and drop the cursor payload that followed.
        let mut forged = bytes[..tag_pos + 1].to_vec();
        forged[tag_pos] = 0;
        match probe(&forged) {
            // A zero landing *inside* the cursor payload can still parse
            // as a structurally valid (differently valued) cursor — fine.
            Ok(()) => {}
            Err(SnapshotError::Corrupt("arrival plan/cursor mismatch")) => hit_mismatch = true,
            Err(_) => {}
        }
    }
    assert!(
        hit_mismatch,
        "no forgery reached the plan/cursor consistency check"
    );
}
