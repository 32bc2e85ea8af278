//! The paper's empirical onset-of-optimal-steady-state detector (§4.1):
//!
//! > "We arbitrarily say that the tree has reached optimal steady state if
//! > its rate goes over the optimal steady-state rate twice after window
//! > 300. We say that the onset of optimal steady state occurs when the
//! > rate goes over the optimal steady-state rate for the second time
//! > after window 300."

use crate::windows::WindowRate;
use bc_rational::Rational;

/// Parameters of the onset heuristic. Defaults are the paper's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnsetConfig {
    /// Windows at or below this index are ignored (startup noise).
    pub window_threshold: u64,
    /// The n-th crossing after the threshold marks the onset.
    pub crossings: u32,
}

impl Default for OnsetConfig {
    fn default() -> Self {
        OnsetConfig {
            window_threshold: 300,
            crossings: 2,
        }
    }
}

/// Returns the window index at which the onset occurred, or `None` if the
/// tree never (detectably) reached its optimal steady-state rate.
///
/// The returned index is the Fig 4 x-coordinate ("number of tasks
/// completed at the beginning of the window").
///
/// Only windows past the threshold are formed, one at a time straight
/// from `completions`; each is tested with the exact, non-reducing
/// [`WindowRate::reaches`].
pub fn detect_onset(completions: &[u64], optimal: &Rational, cfg: OnsetConfig) -> Option<u64> {
    let first = usize::try_from(cfg.window_threshold.saturating_add(1)).unwrap_or(usize::MAX);
    let mut seen = 0u32;
    for x in first..=completions.len() / 2 {
        let w = WindowRate::at(completions, x);
        if w.reaches(optimal) {
            seen += 1;
            if seen >= cfg.crossings {
                return Some(w.window);
            }
        }
    }
    None
}

/// Builds the Fig 4 style cumulative curve: for each probe `x`, the
/// fraction of runs whose onset window is ≤ `x` (runs that never reach
/// the optimum count toward no probe).
pub fn onset_cdf(onsets: &[Option<u64>], probes: &[u64]) -> Vec<(u64, f64)> {
    let n = onsets.len().max(1) as f64;
    probes
        .iter()
        .map(|&x| {
            let reached = onsets.iter().filter(|o| o.is_some_and(|w| w <= x)).count();
            (x, reached as f64 / n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completion times at exactly `rate = 1/period` per step.
    fn steady(n: u64, period: u64) -> Vec<u64> {
        (1..=n).map(|k| k * period).collect()
    }

    #[test]
    fn steady_run_at_optimal_is_detected() {
        let times = steady(1000, 3);
        let onset = detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default());
        // First two qualifying windows after 300 are 301 and 302.
        assert_eq!(onset, Some(302));
    }

    #[test]
    fn sub_optimal_run_is_rejected() {
        let times = steady(1000, 4); // rate 1/4 < optimal 1/3
        assert_eq!(
            detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default()),
            None
        );
    }

    #[test]
    fn startup_spikes_before_threshold_ignored() {
        // A burst start (100 instant tasks) then a slow tail: early
        // windows are far above optimal but must not count.
        let mut times = vec![1u64; 100];
        let mut t = 1;
        for _ in 0..900u64 {
            t += 100; // far below optimal afterwards
            times.push(t);
        }
        assert_eq!(
            detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default()),
            None
        );
    }

    #[test]
    fn threshold_and_crossings_are_configurable() {
        let times = steady(100, 3);
        let cfg = OnsetConfig {
            window_threshold: 10,
            crossings: 2,
        };
        assert_eq!(detect_onset(&times, &Rational::new(1, 3), cfg), Some(12));
        let one = OnsetConfig {
            window_threshold: 10,
            crossings: 1,
        };
        assert_eq!(detect_onset(&times, &Rational::new(1, 3), one), Some(11));
    }

    #[test]
    fn short_run_cannot_cross_threshold() {
        // N = 400 → windows up to 200 only; threshold 300 unreachable.
        let times = steady(400, 3);
        assert_eq!(
            detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default()),
            None
        );
    }

    #[test]
    fn cdf_counts_cumulatively() {
        let onsets = vec![Some(310), Some(500), None, Some(2000)];
        let curve = onset_cdf(&onsets, &[300, 400, 1000, 3000]);
        assert_eq!(curve[0], (300, 0.0));
        assert_eq!(curve[1], (400, 0.25));
        assert_eq!(curve[2], (1000, 0.5));
        assert_eq!(curve[3], (3000, 0.75));
    }

    #[test]
    fn cdf_of_empty_input_is_zero() {
        assert_eq!(onset_cdf(&[], &[100])[0], (100, 0.0));
    }
}
