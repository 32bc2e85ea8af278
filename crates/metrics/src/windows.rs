//! The sliding growing window of §4.1.
//!
//! > "the y-axis value at point x on the x-axis represents the average
//! > rate between the time t_x when task x is completed and time t_2x
//! > when task 2x is completed. Thus, it is (2x − x)/(t_2x − t_x)."
//!
//! Rates are kept as exact integer pairs (tasks, span). [`WindowRate::reaches`]
//! decides `tasks/span ≥ optimal` with [`Rational::cmp_ratio`]: one
//! cross-multiplication of the optimum's reduced parts by the two words,
//! with no rational built, no reduction and no GCD, so the verdict is
//! exact — never a float tolerance — and a bignum optimum costs one
//! single-limb product per side.

use bc_rational::Rational;
use std::cmp::Ordering;

/// One window's measured throughput: `tasks / span` tasks per timestep,
/// over the completion interval `[t_x, t_2x]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowRate {
    /// The window index `x` (tasks completed at the window's start).
    pub window: u64,
    /// Numerator: tasks completed inside the window (= `x`).
    pub tasks: u64,
    /// Denominator: `t_2x − t_x` timesteps (can be 0 when many tasks
    /// complete at one instant; such a window trivially exceeds any
    /// finite rate).
    pub span: u64,
}

impl WindowRate {
    /// Window `x` (`1 ≤ x ≤ N/2`) of the global completion-time sequence
    /// (`completions[k]` = time of the `(k+1)`-th completion).
    pub fn at(completions: &[u64], x: usize) -> WindowRate {
        WindowRate {
            window: x as u64,
            tasks: x as u64,
            span: completions[2 * x - 1] - completions[x - 1],
        }
    }

    /// True if this window's rate is at least `rate` ("goes over" in the
    /// paper's onset heuristic; meeting the optimum exactly counts, since
    /// no window can exceed a rate it only asymptotically approaches).
    pub fn reaches(&self, rate: &Rational) -> bool {
        self.span == 0 || rate.cmp_ratio(self.tasks, self.span) != Ordering::Greater
    }

    /// The rate as a float (plotting only).
    pub fn as_f64(&self) -> f64 {
        if self.span == 0 {
            f64::INFINITY
        } else {
            self.tasks as f64 / self.span as f64
        }
    }
}

/// Computes every window `x = 1 ..= N/2` from the global completion-time
/// sequence (`completions[k]` = time of the `(k+1)`-th completion).
pub fn window_rates(completions: &[u64]) -> Vec<WindowRate> {
    (1..=completions.len() / 2)
        .map(|x| WindowRate::at(completions, x))
        .collect()
}

/// Normalized rate curve for plotting (Fig 3): `(window, rate/optimal)`.
pub fn normalized_curve(completions: &[u64], optimal: &Rational) -> Vec<(u64, f64)> {
    let optimal = optimal.to_f64();
    (1..=completions.len() / 2)
        .map(|x| {
            let w = WindowRate::at(completions, x);
            (w.window, w.as_f64() / optimal)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_completions_give_uniform_rate() {
        // One task every 4 timesteps.
        let times: Vec<u64> = (1..=20).map(|k| 4 * k).collect();
        let rates = window_rates(&times);
        assert_eq!(rates.len(), 10);
        for w in &rates {
            assert_eq!(w.tasks, w.window);
            assert_eq!(w.span, 4 * w.window);
            assert!(w.reaches(&Rational::new(1, 4)));
            assert!(!w.reaches(&Rational::new(1, 3)));
            assert!((w.as_f64() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn window_bounds_match_paper_definition() {
        let times = vec![10, 20, 40, 80];
        let rates = window_rates(&times);
        // x=1: [t_1, t_2] = [10, 20] → 1 task / 10 steps.
        assert_eq!(
            rates[0],
            WindowRate {
                window: 1,
                tasks: 1,
                span: 10
            }
        );
        // x=2: [t_2, t_4] = [20, 80] → 2 tasks / 60 steps.
        assert_eq!(
            rates[1],
            WindowRate {
                window: 2,
                tasks: 2,
                span: 60
            }
        );
    }

    #[test]
    fn zero_span_window_reaches_everything() {
        let w = WindowRate {
            window: 3,
            tasks: 3,
            span: 0,
        };
        assert!(w.reaches(&Rational::from_integer(1_000_000)));
        assert!(w.as_f64().is_infinite());
    }

    #[test]
    fn exact_equality_counts_as_reaching() {
        let w = WindowRate {
            window: 5,
            tasks: 5,
            span: 10,
        };
        assert!(w.reaches(&Rational::new(1, 2)));
        assert!(!w.reaches(&Rational::new(51, 100)));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(window_rates(&[]).is_empty());
        assert!(window_rates(&[5]).is_empty());
        assert_eq!(window_rates(&[5, 9]).len(), 1);
    }

    #[test]
    fn normalized_curve_is_one_at_optimal() {
        let times: Vec<u64> = (1..=100).map(|k| 2 * k).collect();
        let curve = normalized_curve(&times, &Rational::new(1, 2));
        for (_, v) in curve {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }
}
