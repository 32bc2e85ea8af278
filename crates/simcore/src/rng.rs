//! Deterministic seed derivation.
//!
//! The experiment campaign runs tens of thousands of independent
//! simulations in parallel; each one derives its own seed from the
//! campaign seed and its index so that results are reproducible
//! regardless of thread scheduling, chunking, or partial re-runs.

/// SplitMix64 step — the standard way to stretch one `u64` seed into many
/// well-decorrelated ones.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
    }

    #[test]
    fn indices_decorrelate() {
        let seeds: Vec<u64> = (0..1000).map(|i| split_seed(99, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "collision in 1000 derivations");
    }

    #[test]
    fn campaign_seeds_decorrelate() {
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }
}
