//! Edge cases of the §4.1 measurement pipeline: degenerate inputs that
//! campaign code can legitimately produce (empty runs, one-task runs,
//! runs whose every window ties the optimum exactly).

use bc_metrics::{detect_onset, normalized_curve, onset_cdf, window_rates, OnsetConfig};
use bc_rational::Rational;

#[test]
fn onset_cdf_of_no_runs_is_zero_everywhere() {
    // The `max(1)` divisor guard must yield 0.0 fractions, not NaN.
    let curve = onset_cdf(&[], &[0, 100, u64::MAX]);
    assert_eq!(curve, vec![(0, 0.0), (100, 0.0), (u64::MAX, 0.0)]);
    for (_, f) in curve {
        assert!(f == 0.0 && !f.is_nan());
    }
}

#[test]
fn onset_cdf_of_no_probes_is_empty() {
    assert!(onset_cdf(&[Some(400), None], &[]).is_empty());
}

#[test]
fn onset_cdf_of_all_unreached_runs_stays_zero() {
    let curve = onset_cdf(&[None, None, None], &[500, 5_000]);
    assert_eq!(curve, vec![(500, 0.0), (5_000, 0.0)]);
}

#[test]
fn window_rates_need_two_completions() {
    assert!(window_rates(&[]).is_empty());
    assert!(window_rates(&[42]).is_empty());
    // Two completions give exactly the x = 1 window [t_1, t_2].
    let rates = window_rates(&[10, 25]);
    assert_eq!(rates.len(), 1);
    assert_eq!((rates[0].window, rates[0].tasks, rates[0].span), (1, 1, 15));
}

#[test]
fn normalized_curve_mirrors_window_rates_on_tiny_inputs() {
    let optimal = Rational::new(1, 3);
    assert!(normalized_curve(&[], &optimal).is_empty());
    assert!(normalized_curve(&[7], &optimal).is_empty());
    let curve = normalized_curve(&[3, 6], &optimal);
    assert_eq!(curve.len(), 1);
    let (window, value) = curve[0];
    assert_eq!(window, 1);
    assert!((value - 1.0).abs() < 1e-12); // 1 task / 3 steps, optimal 1/3
}

#[test]
fn detect_onset_counts_exact_ties_as_crossings() {
    // Every window's rate equals the optimum exactly: 1 task per 6 steps.
    // "Goes over" includes meeting it (WindowRate::reaches is >=), so the
    // onset is the second qualifying window past the threshold.
    let times: Vec<u64> = (1..=1000).map(|k| 6 * k).collect();
    let optimal = Rational::new(1, 6);
    assert_eq!(
        detect_onset(&times, &optimal, OnsetConfig::default()),
        Some(302)
    );
    // A hair above the optimum, the same ties all fail.
    let above = Rational::new(1_000_001, 6_000_000);
    assert_eq!(detect_onset(&times, &above, OnsetConfig::default()), None);
}

#[test]
fn detect_onset_on_empty_or_single_completion_is_none() {
    let optimal = Rational::new(1, 2);
    assert_eq!(detect_onset(&[], &optimal, OnsetConfig::default()), None);
    assert_eq!(detect_onset(&[9], &optimal, OnsetConfig::default()), None);
}
