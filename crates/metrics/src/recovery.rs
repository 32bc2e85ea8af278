//! Recovery metrics for fault-injected runs.
//!
//! A faulted run's completion sequence has structure the growing window
//! of §4.1 smears out: a healthy prefix, a degraded window while the
//! protocol detects and repairs the damage, and (ideally) a recovered
//! tail at the post-fault platform's optimal rate. These helpers measure
//! that structure from the completion times alone. Every chunk and
//! window is a [`WindowRate`], tested with the same comparison the onset
//! heuristic uses: `target ≤ tasks/span` decided by
//! [`Rational::cmp_ratio`], one cross-multiplication with no rational
//! built, no reduction and no GCD — exact, never a float tolerance.

use crate::windows::WindowRate;
use bc_rational::Rational;

/// Fixed-size chunk throughput: chunk `k` covers completions
/// `[k·chunk, (k+1)·chunk)` and its rate is `chunk / span` over the
/// chunk's completion interval (the first chunk measures from t=0, when
/// the run starts). A trailing partial chunk is dropped. Reuses
/// [`WindowRate`] so the exact [`WindowRate::reaches`] test applies;
/// `window` holds the chunk index.
pub fn chunk_rates(completions: &[u64], chunk: usize) -> Vec<WindowRate> {
    assert!(chunk >= 1, "chunk must be >= 1");
    let n = completions.len();
    (0..n / chunk)
        .map(|k| {
            let base = if k == 0 {
                0
            } else {
                completions[k * chunk - 1]
            };
            WindowRate {
                window: k as u64,
                tasks: chunk as u64,
                span: completions[(k + 1) * chunk - 1] - base,
            }
        })
        .collect()
}

/// Fraction of fixed-size chunks whose throughput fails to reach
/// `target` — the run's degraded-window rate. 0.0 for a run that held
/// the target throughout (and, vacuously, for one shorter than a chunk).
pub fn degraded_fraction(completions: &[u64], chunk: usize, target: &Rational) -> f64 {
    let chunks = chunk_rates(completions, chunk);
    if chunks.is_empty() {
        return 0.0;
    }
    let degraded = chunks.iter().filter(|c| !c.reaches(target)).count();
    degraded as f64 / chunks.len() as f64
}

/// Time from `after` until the run first sustains `target` throughput
/// again: the earliest instant at which `window` consecutive
/// completions, all strictly later than `after`, averaged at least
/// `target` tasks per timestep (the first such window is measured from
/// `after` itself, so detection latency counts against recovery).
/// `None` if the run never recovers before finishing.
pub fn time_to_rate(
    completions: &[u64],
    after: u64,
    target: &Rational,
    window: usize,
) -> Option<u64> {
    assert!(window >= 1, "window must be >= 1");
    let idx0 = completions.partition_point(|&t| t <= after);
    for k in idx0..completions.len() {
        let Some(s) = (k + 1).checked_sub(window) else {
            continue;
        };
        if s < idx0 {
            continue;
        }
        let base = if s == idx0 { after } else { completions[s - 1] };
        let w = WindowRate {
            window: k as u64,
            tasks: window as u64,
            span: completions[k] - base,
        };
        if w.reaches(target) {
            return Some(completions[k] - after);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One task every 4 timesteps, then a 100-step stall, then one task
    /// every 2 timesteps.
    fn stall_then_sprint() -> Vec<u64> {
        let mut t: Vec<u64> = (1..=10).map(|k| 4 * k).collect(); // 4..40
        t.extend((1..=20).map(|k| 140 + 2 * k)); // 142..180
        t
    }

    #[test]
    fn chunks_cover_disjoint_intervals() {
        let times: Vec<u64> = (1..=20).map(|k| 4 * k).collect();
        let chunks = chunk_rates(&times, 5);
        assert_eq!(chunks.len(), 4);
        for (k, c) in chunks.iter().enumerate() {
            assert_eq!(c.window, k as u64);
            assert_eq!(c.tasks, 5);
            assert_eq!(c.span, 20);
            assert!(c.reaches(&Rational::new(1, 4)));
        }
    }

    #[test]
    fn partial_tail_chunk_is_dropped() {
        let times: Vec<u64> = (1..=13).map(|k| 4 * k).collect();
        assert_eq!(chunk_rates(&times, 5).len(), 2);
    }

    #[test]
    fn degraded_fraction_flags_the_stall() {
        let times = stall_then_sprint();
        // Chunks of 10: chunk 0 is the healthy 1/4 prefix, chunk 1
        // swallows the stall, chunk 2 is the sprint.
        let f = degraded_fraction(&times, 10, &Rational::new(1, 4));
        assert!((f - 1.0 / 3.0).abs() < 1e-12, "got {f}");
        assert_eq!(degraded_fraction(&times, 10, &Rational::new(1, 1000)), 0.0);
    }

    #[test]
    fn time_to_rate_measures_from_after() {
        let times = stall_then_sprint();
        // After the stall begins (t=40), the first 5 completions all
        // land by t=150, but measured from t=40 the span is 110 — not
        // yet 1/2. Recovery to 1/2 happens once enough 2-step
        // completions amortize the detection gap... never, in fact,
        // for a window anchored at t=40 — so anchor later.
        let d = time_to_rate(&times, 140, &Rational::new(1, 2), 5).expect("sprint reaches 1/2");
        assert_eq!(d, 10); // five tasks, two steps each, from t=140
                           // From t=40 the 102-step gap is charged to the first window:
                           // 5 tasks over 112 steps misses 1/2, but a later window of
                           // pure sprint completions clears it.
        let d = time_to_rate(&times, 40, &Rational::new(1, 2), 5).expect("recovers eventually");
        assert_eq!(d, 152 - 40); // window [142..152] spans 10 steps
    }

    #[test]
    fn unreached_target_is_none() {
        let times: Vec<u64> = (1..=50).map(|k| 4 * k).collect();
        assert_eq!(time_to_rate(&times, 0, &Rational::new(1, 3), 10), None);
        assert_eq!(time_to_rate(&times, 500, &Rational::new(1, 4), 10), None);
    }

    #[test]
    fn reached_immediately_counts_window_end() {
        let times: Vec<u64> = (1..=50).map(|k| 4 * k).collect();
        let d = time_to_rate(&times, 0, &Rational::new(1, 4), 10).expect("uniform rate holds");
        assert_eq!(d, 40);
    }
}
