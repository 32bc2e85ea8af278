//! A fixed reference kernel that gauges how fast the host runs while a
//! workload runs, so that timings can be scaled to one host speed.
//!
//! The benchmark shares its machine with other guests. Their load
//! changes how fast the host runs this guest's CPUs, for minutes at a
//! time and without showing up as steal time: on a 2-vCPU Xeon KVM guest
//! the same 800 paper-campaign operations have taken from 14 to 23 s of
//! process CPU time. The reference kernel is code of the benchmark's
//! own, which no change to the program touches: a small discrete-event
//! loop (binary-heap agenda, 128 KiB of node state, short-lived
//! allocations), the same mix of work as the simulations the workloads
//! run. A run slices it after each set-up repetition and between timed
//! operations. The speed factor of a stretch of the run follows from the
//! median time of the slices around it (see [`ELASTICITY`]), and every
//! end-to-end timing is divided by the factor of the stretch it was
//! measured in.

use crate::stats::median;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Node records in the kernel's state (32 bytes each: 128 KiB).
const NODES: usize = 4096;

/// Events one slice processes.
const EVENTS: usize = 20_000;

/// Seconds of timed loop between two slices.
pub const SLICE_EVERY_S: f64 = 0.05;

/// Slices run after each set-up repetition.
pub const SLICES_PER_SETUP: usize = 3;

/// An operation is scaled by the slices that started within this many
/// seconds of it, so that changes of host speed within a run are
/// followed.
pub const WINDOW_S: f64 = 0.25;

/// The slice time that defines the reference host speed: timings are
/// reported as they would read on a host where one slice takes this
/// long. On a 2-vCPU Xeon KVM guest, median slice times have ranged
/// from about 0.8 to 1.6 ms.
pub const NOMINAL_SLICE_S: f64 = 1.2e-3;

/// How much harder than the kernel the workloads are hit when the host
/// slows: across the changes of host speed seen on a 2-vCPU Xeon KVM
/// guest, workload times grew as the kernel's slice time to about this
/// power (1.30 to 1.35 on every workload; one noisier serve_sessions
/// sample read 1.67). A factor is `(slice time / nominal) ^ ELASTICITY`.
pub const ELASTICITY: f64 = 1.3;

/// The speed factor a median slice time stands for.
fn factor_of(slice_s: f64) -> f64 {
    (slice_s / NOMINAL_SLICE_S).powf(ELASTICITY)
}

/// Reusable state of one kernel; every slice does identical work.
struct Kernel {
    nodes: Vec<[u64; 4]>,
    agenda: BinaryHeap<Reverse<(u64, u32)>>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            nodes: vec![[0; 4]; NODES],
            agenda: BinaryHeap::with_capacity(512),
        }
    }

    /// Runs one slice and returns its wall time in seconds.
    fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        self.nodes.iter_mut().for_each(|n| *n = [0; 4]);
        self.agenda.clear();
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for node in 0..256 {
            self.agenda.push(Reverse((xorshift(&mut rng) % 1024, node)));
        }
        let mut sink = 0u64;
        for _ in 0..EVENTS {
            let Reverse((time, node)) = self.agenda.pop().expect("agenda never drains");
            let r = xorshift(&mut rng);
            let n = &mut self.nodes[(node as usize * 16 + (r as usize & 15)) % NODES];
            n[0] += 1;
            if r & 3 == 0 {
                n[1] = n[1].wrapping_add(time);
            } else {
                n[2] ^= r;
            }
            if r.is_multiple_of(32) {
                let buf: Vec<u64> = n
                    .iter()
                    .cycle()
                    .take(64 + (r >> 58) as usize)
                    .copied()
                    .collect();
                sink = sink.wrapping_add(buf.iter().sum::<u64>());
            }
            n[3] = n[3].wrapping_add(sink);
            let next = (node + (r >> 60) as u32 + 1) % 256;
            self.agenda.push(Reverse((time + 1 + (r >> 56), next)));
        }
        std::hint::black_box(&self.nodes);
        t0.elapsed().as_secs_f64()
    }
}

/// One run's host-speed gauge: the kernel, every slice so far with the
/// time it ran, and the set-up times.
///
/// Slices run on the calling thread only. Sliced on two fresh threads
/// at once, the kernel read anywhere from as fast as on one thread to
/// 2.7 times slower (the two did not reliably get a CPU each), so the
/// two-thread `grid_sweep` is gauged by one CPU's speed too.
pub struct Gauge {
    kernel: Kernel,
    origin: Instant,
    /// `(seconds since origin at the slice's start, slice time)`, in
    /// time order.
    slices: Vec<(f64, f64)>,
    /// `(measured, scaled)` seconds of each set-up repetition.
    setups: Vec<(f64, f64)>,
}

impl Default for Gauge {
    /// A gauge with no slices yet; its clock starts now.
    fn default() -> Self {
        Gauge {
            kernel: Kernel::new(),
            origin: Instant::now(),
            slices: Vec::new(),
            setups: Vec::new(),
        }
    }
}

impl Gauge {
    /// Seconds since the gauge was made: the clock that places
    /// operations and slices on one time line.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs one slice and records its time.
    pub fn slice(&mut self) {
        let at = self.now();
        let time = self.kernel.slice();
        self.slices.push((at, time));
    }

    /// Times one set-up repetition, then runs [`SLICES_PER_SETUP`]
    /// slices and scales the repetition's time by their median.
    pub fn setup<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = work();
        let measured = t0.elapsed().as_secs_f64();
        let first = self.slices.len();
        for _ in 0..SLICES_PER_SETUP {
            self.slice();
        }
        let times: Vec<f64> = self.slices[first..].iter().map(|s| s.1).collect();
        self.setups
            .push((measured, measured / factor_of(median(&times))));
        out
    }

    /// Median `(measured, scaled)` time of the set-up repetitions.
    pub fn setup_s(&self) -> (f64, f64) {
        let measured: Vec<f64> = self.setups.iter().map(|s| s.0).collect();
        let scaled: Vec<f64> = self.setups.iter().map(|s| s.1).collect();
        (median(&measured), median(&scaled))
    }

    /// How much slower than the reference speed the host ran around
    /// `[from, to]` (gauge time): the median time of the slices that
    /// started within [`WINDOW_S`] of that interval (the nearest slice
    /// when none did), as a factor.
    pub fn factor_between(&self, from: f64, to: f64) -> f64 {
        let lo = self.slices.partition_point(|s| s.0 < from - WINDOW_S);
        let hi = self.slices.partition_point(|s| s.0 <= to + WINDOW_S);
        let near: Vec<f64> = if lo < hi {
            self.slices[lo..hi].iter().map(|s| s.1).collect()
        } else {
            let nearest = self
                .slices
                .iter()
                .min_by(|a, b| (a.0 - from).abs().total_cmp(&(b.0 - from).abs()))
                .expect("every run slices after its set-up");
            vec![nearest.1]
        };
        factor_of(median(&near))
    }

    /// Records the gauge as provenance.
    pub fn note(&self, o: &mut crate::report::Outcome) {
        let times: Vec<f64> = self.slices.iter().map(|s| s.1).collect();
        o.note(
            "host_speed",
            format!(
                "{} reference slices: median {:.1} us, \
                 25th-75th percentile {:.1}-{:.1} us (nominal {:.0} us)",
                times.len(),
                median(&times) * 1e6,
                percentile_of(&times, 25.0) * 1e6,
                percentile_of(&times, 75.0) * 1e6,
                NOMINAL_SLICE_S * 1e6,
            ),
        );
    }
}

fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::percentile(&v, p)
}
