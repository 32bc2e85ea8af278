//! Order statistics over latency samples and run-level summaries.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly above the nearest-rank `p` percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Latency summary of one workload's operations, in microseconds.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Operations measured.
    pub samples: usize,
    /// Median.
    pub p50_us: f64,
    /// The workload's fixed tail percentile.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail_us: f64,
    /// Samples beyond the tail percentile (at least 10 by construction).
    pub beyond_tail: usize,
}

impl Latency {
    /// Summarizes latencies given in seconds.
    pub fn from_secs(samples_s: &[f64], tail_pct: f64) -> Latency {
        let mut us: Vec<f64> = samples_s.iter().map(|s| s * 1e6).collect();
        us.sort_by(f64::total_cmp);
        Latency {
            samples: us.len(),
            p50_us: percentile(&us, 50.0),
            tail_pct,
            tail_us: percentile(&us, tail_pct),
            beyond_tail: samples_beyond(us.len(), tail_pct),
        }
    }
}

/// The smallest sample count at which `tail_pct` has ten samples beyond
/// it; every workload runs at least this many operations.
pub fn min_samples_for_tail(tail_pct: f64) -> usize {
    let mut n = 10;
    while samples_beyond(n, tail_pct) < 10 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(min_samples_for_tail(90.0), 100);
        assert_eq!(min_samples_for_tail(95.0), 200);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
