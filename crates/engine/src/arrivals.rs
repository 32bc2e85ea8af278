//! Open-world workload model: streaming task arrival at the repository.
//!
//! The paper studies a *closed* batch of `N` identical tasks sitting at
//! the repository when the simulation starts. Production workloads are
//! *open*: requests arrive continuously, in several classes, and the
//! repository must admit or shed them under a bounded queue. An
//! [`ArrivalPlan`] describes such a workload as a set of task classes,
//! each with its own arrival process (Poisson-like, bursty, or replayed
//! from an explicit trace) and its own size in unit tasks.
//!
//! Determinism is the design center: the whole plan is **pregenerated**
//! into a sorted [`Arrival`] schedule by [`ArrivalPlan::schedule`] using
//! only the plan's seed and integer arithmetic (no floats, no platform
//! `libm`), so the same plan yields the same byte-identical arrival
//! sequence on every thread count, entry point, and architecture. The
//! engine walks the schedule with a cursor and a single chained agenda
//! event — the agenda never holds more than one pending arrival.
//!
//! Discrete time makes "Poisson" precise as its discrete analog: a
//! Bernoulli process whose geometric inter-arrival gaps have the
//! requested mean. Gaps are sampled by exact inversion in Q32
//! fixed-point (see `geometric_gap`), which is why no float ever
//! enters the schedule.

use bc_simcore::split_seed;

/// How the repository reacts to an arrival that would overflow the
/// bounded admission queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Shed load: the arrival is rejected and counted, never served.
    Drop,
    /// Backpressure: the arrival waits in a deferred queue and is
    /// admitted as soon as the backlog drains below the cap.
    Defer,
}

/// One class of tasks in the open workload. Classes model applications
/// with distinct costs: a class arrival submits `work_units` unit tasks
/// at once (the kernel's identical-task invariant is preserved by
/// expressing a heavy request as a batch of unit tasks — a compound
/// arrival process).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskClass {
    /// Display name (streamed in metrics, not used by the engine).
    pub name: String,
    /// Unit tasks submitted per arrival of this class (≥ 1).
    pub work_units: u64,
    /// When arrivals of this class occur.
    pub process: ArrivalProcess,
}

/// The arrival process of one [`TaskClass`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Discrete-time Poisson: `count` arrivals separated by geometric
    /// gaps with mean `mean_gap` (≥ 1), sampled from the plan seed.
    Poisson {
        /// Mean inter-arrival gap in timesteps (≥ 1).
        mean_gap: u64,
        /// Number of arrivals this class generates (≥ 1).
        count: u64,
    },
    /// Periodic bursts: at `phase + k * period` for `k < bursts`, `size`
    /// arrivals strike at the same instant.
    Burst {
        /// Time of the first burst.
        phase: u64,
        /// Gap between bursts (≥ 1).
        period: u64,
        /// Arrivals per burst (≥ 1).
        size: u64,
        /// Number of bursts (≥ 1).
        bursts: u64,
    },
    /// Replay of an explicit trace of arrival instants (need not be
    /// sorted; the merged schedule is).
    Trace {
        /// Arrival instants (one arrival each).
        times: Vec<u64>,
    },
}

/// A fully specified open workload: classes, seed, and the repository's
/// admission bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalPlan {
    /// Seed for the Poisson gap sampling (each class stretches it with
    /// [`split_seed`], so classes are independent streams).
    pub seed: u64,
    /// The task classes (≥ 1).
    pub classes: Vec<TaskClass>,
    /// Admission-queue bound, in unit tasks (≥ 1): the repository never
    /// holds more than this many admitted-but-undispatched units.
    pub queue_cap: u64,
    /// What happens to arrivals past the bound.
    pub policy: AdmissionPolicy,
}

/// One pregenerated arrival: `units` unit tasks of class `class` submit
/// at time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant.
    pub at: u64,
    /// Index into [`ArrivalPlan::classes`].
    pub class: u32,
    /// Unit tasks submitted (the class's `work_units`).
    pub units: u64,
}

/// A geometric gap with mean `mean_gap`, by exact inversion in Q32
/// fixed-point: the smallest `k ≥ 1` with `(1 − 1/mean_gap)^k ≤ u` for
/// `u` uniform in `(0, 1]`. Integer-only, so bit-identical everywhere.
fn geometric_gap(mean_gap: u64, rng: &mut u64, index: &mut u64) -> u64 {
    if mean_gap <= 1 {
        return 1;
    }
    // (1 − p) in Q32, with p = 1/mean_gap.
    let q: u64 = (((1u128 << 32) * (mean_gap as u128 - 1)) / mean_gap as u128) as u64;
    // u uniform in (0, 2^32]; split_seed stretches the class stream.
    let draw = split_seed(*rng, *index);
    *index += 1;
    let u = (draw >> 32).max(1);
    let mut acc = q;
    let mut k = 1u64;
    // Expected mean_gap iterations; schedule generation only, never hot.
    while acc > u {
        acc = ((acc as u128 * q as u128) >> 32) as u64;
        k += 1;
    }
    k
}

impl ArrivalPlan {
    /// Total unit tasks the plan submits (admitted or not).
    pub fn total_units(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.work_units * c.arrival_count())
            .sum()
    }

    /// Pregenerates the full, sorted arrival schedule. Deterministic in
    /// the plan alone; ties sort by `(time, class index, sequence)` so
    /// the merge order is total.
    pub fn schedule(&self) -> Vec<Arrival> {
        let mut all: Vec<(u64, u32, u64)> = Vec::new();
        for (ci, class) in self.classes.iter().enumerate() {
            let mut seq = 0u64;
            let mut push = |at: u64, seq: &mut u64| {
                all.push((at, ci as u32, *seq));
                *seq += 1;
            };
            match &class.process {
                ArrivalProcess::Poisson { mean_gap, count } => {
                    let mut stream = split_seed(self.seed, ci as u64 + 1);
                    let mut index = 0u64;
                    let mut t = 0u64;
                    for _ in 0..*count {
                        t = t.saturating_add(geometric_gap(*mean_gap, &mut stream, &mut index));
                        push(t, &mut seq);
                    }
                }
                ArrivalProcess::Burst {
                    phase,
                    period,
                    size,
                    bursts,
                } => {
                    for b in 0..*bursts {
                        let at = phase.saturating_add(b.saturating_mul(*period));
                        for _ in 0..*size {
                            push(at, &mut seq);
                        }
                    }
                }
                ArrivalProcess::Trace { times } => {
                    for &at in times {
                        push(at, &mut seq);
                    }
                }
            }
        }
        // Trace times may be unsorted; the merge must still be total.
        all.sort_unstable();
        all.into_iter()
            .map(|(at, class, _)| Arrival {
                at,
                class,
                units: self.classes[class as usize].work_units,
            })
            .collect()
    }

    /// Validates internal consistency (called from `SimConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("arrival plan needs >= 1 task class".into());
        }
        if self.queue_cap == 0 {
            return Err("admission queue cap must be >= 1".into());
        }
        for class in &self.classes {
            if class.work_units == 0 {
                return Err(format!("class '{}' needs work_units >= 1", class.name));
            }
            if class.work_units > self.queue_cap {
                // A deferred arrival wider than the cap could never be
                // admitted: the backpressure queue would wedge forever.
                return Err(format!(
                    "class '{}' work_units {} exceeds queue cap {}",
                    class.name, class.work_units, self.queue_cap
                ));
            }
            match &class.process {
                ArrivalProcess::Poisson { mean_gap, count } => {
                    if *mean_gap == 0 {
                        return Err(format!("class '{}' needs mean_gap >= 1", class.name));
                    }
                    if *count == 0 {
                        return Err(format!("class '{}' needs count >= 1", class.name));
                    }
                }
                ArrivalProcess::Burst {
                    period,
                    size,
                    bursts,
                    ..
                } => {
                    if *period == 0 || *size == 0 || *bursts == 0 {
                        return Err(format!(
                            "class '{}' burst needs period, size, bursts >= 1",
                            class.name
                        ));
                    }
                }
                ArrivalProcess::Trace { times } => {
                    if times.is_empty() {
                        return Err(format!("class '{}' trace is empty", class.name));
                    }
                }
            }
        }
        if self.total_units() == 0 {
            return Err("arrival plan submits zero unit tasks".into());
        }
        Ok(())
    }
}

impl TaskClass {
    /// Number of arrivals this class generates.
    pub fn arrival_count(&self) -> u64 {
        match &self.process {
            ArrivalProcess::Poisson { count, .. } => *count,
            ArrivalProcess::Burst { size, bursts, .. } => size * bursts,
            ArrivalProcess::Trace { times } => times.len() as u64,
        }
    }
}

/// Convenience constructors used throughout the tests and the server.
impl ArrivalPlan {
    /// A single-class Poisson plan with unit tasks, `Defer` admission.
    pub fn poisson(seed: u64, mean_gap: u64, count: u64, queue_cap: u64) -> Self {
        ArrivalPlan {
            seed,
            classes: vec![TaskClass {
                name: "poisson".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson { mean_gap, count },
            }],
            queue_cap,
            policy: AdmissionPolicy::Defer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ArrivalPlan {
        ArrivalPlan {
            seed: 42,
            classes: vec![
                TaskClass {
                    name: "small".into(),
                    work_units: 1,
                    process: ArrivalProcess::Poisson {
                        mean_gap: 5,
                        count: 20,
                    },
                },
                TaskClass {
                    name: "heavy".into(),
                    work_units: 3,
                    process: ArrivalProcess::Burst {
                        phase: 10,
                        period: 25,
                        size: 2,
                        bursts: 4,
                    },
                },
                TaskClass {
                    name: "replay".into(),
                    work_units: 2,
                    process: ArrivalProcess::Trace {
                        times: vec![7, 3, 3, 50],
                    },
                },
            ],
            queue_cap: 8,
            policy: AdmissionPolicy::Defer,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let p = plan();
        let a = p.schedule();
        let b = p.schedule();
        assert_eq!(a, b, "same plan must regenerate bit-identically");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert_eq!(a.len() as u64, 20 + 8 + 4);
    }

    #[test]
    fn total_units_counts_classes() {
        // 20·1 poisson + 8·3 burst + 4·2 trace.
        assert_eq!(plan().total_units(), 20 + 24 + 8);
        let units: u64 = plan().schedule().iter().map(|a| a.units).sum();
        assert_eq!(units, plan().total_units());
    }

    #[test]
    fn seed_changes_poisson_stream_only() {
        let mut p2 = plan();
        p2.seed = 43;
        let a = plan().schedule();
        let b = p2.schedule();
        assert_ne!(a, b, "different seeds must differ");
        let bursts_a: Vec<_> = a.iter().filter(|x| x.class == 1).collect();
        let bursts_b: Vec<_> = b.iter().filter(|x| x.class == 1).collect();
        assert_eq!(bursts_a, bursts_b, "burst classes are seed-independent");
    }

    #[test]
    fn geometric_gap_mean_is_close() {
        // Empirical mean of the Q32 inversion tracks the requested mean
        // (coarse bound; this is a sanity check, not a statistics test).
        let mut stream = 7u64;
        let mut index = 0u64;
        let n = 4000u64;
        let sum: u64 = (0..n)
            .map(|_| geometric_gap(10, &mut stream, &mut index))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((8.0..12.0).contains(&mean), "mean {mean} drifted from 10");
    }

    #[test]
    fn validation_rejects_degenerate_plans() {
        let mut p = plan();
        p.queue_cap = 0;
        assert!(p.validate().is_err());
        let mut p = plan();
        p.classes.clear();
        assert!(p.validate().is_err());
        let mut p = plan();
        p.classes[0].work_units = 0;
        assert!(p.validate().is_err());
        let mut p = plan();
        p.classes[0].process = ArrivalProcess::Poisson {
            mean_gap: 0,
            count: 5,
        };
        assert!(p.validate().is_err());
        let mut p = plan();
        p.classes[2].process = ArrivalProcess::Trace { times: vec![] };
        assert!(p.validate().is_err());
        let mut p = plan();
        p.classes[1].work_units = p.queue_cap + 1;
        assert!(p.validate().is_err(), "class wider than the cap wedges");
        plan().validate().unwrap();
    }
}
