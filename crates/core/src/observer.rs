//! Local measurement of per-child communication times.
//!
//! §3: *"Each node can measure the time it takes to communicate a task to
//! each of its children, the time it takes to compute a task by itself,
//! and the time it takes for each child node to have an empty buffer."*
//!
//! The simulator can either hand nodes the true current edge weight
//! ("oracle" — what a deployment with perfect instantaneous measurement
//! would see) or make them learn from observed transfer durations. The
//! measured variants are what give the protocol its adaptivity: when a
//! link degrades, the next completed transfer updates the estimate and the
//! priority order follows.

/// How a node estimates the communication time to its children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObserverKind {
    /// Read the true current value each time (instant adaptation; the
    /// default for the reproduction campaign).
    Oracle,
    /// Remember the last observed transfer duration; `initial` is used
    /// before any observation.
    LastSample {
        /// Estimate before the first observation.
        initial: u64,
    },
    /// Exponential moving average with weight `num/den` on the new sample:
    /// `est ← (num·sample + (den−num)·est) / den`.
    Ema {
        /// Estimate before the first observation.
        initial: u64,
        /// Numerator of the new-sample weight.
        num: u32,
        /// Denominator of the new-sample weight (≥ num, > 0).
        den: u32,
    },
}

/// Per-child communication-time estimates for one node.
#[derive(Clone, Debug)]
pub struct LatencyObserver {
    kind: ObserverKind,
    estimates: Vec<u64>,
    samples: Vec<u64>,
}

/// A verbatim dump of a [`LatencyObserver`]'s internal state, for
/// snapshot serialization (capture via [`LatencyObserver::state`],
/// rebuild via [`LatencyObserver::from_state`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObserverState {
    /// Estimation strategy.
    pub kind: ObserverKind,
    /// Per-child current estimates.
    pub estimates: Vec<u64>,
    /// Per-child observation counts.
    pub samples: Vec<u64>,
}

impl LatencyObserver {
    /// Captures the complete internal state (see [`ObserverState`]).
    pub fn state(&self) -> ObserverState {
        ObserverState {
            kind: self.kind,
            estimates: self.estimates.clone(),
            samples: self.samples.clone(),
        }
    }

    /// Rebuilds an observer from a captured [`ObserverState`],
    /// bit-identical to the observer it was captured from.
    pub fn from_state(s: ObserverState) -> Self {
        LatencyObserver {
            kind: s.kind,
            estimates: s.estimates,
            samples: s.samples,
        }
    }

    /// Creates an observer for `children` children.
    pub fn new(kind: ObserverKind, children: usize) -> Self {
        if let ObserverKind::Ema { num, den, .. } = kind {
            assert!(
                den > 0 && num > 0 && num <= den,
                "EMA weight must be in (0, 1]"
            );
        }
        let initial = match kind {
            ObserverKind::Oracle => 0,
            ObserverKind::LastSample { initial } | ObserverKind::Ema { initial, .. } => initial,
        };
        LatencyObserver {
            kind,
            estimates: vec![initial; children],
            samples: vec![0; children],
        }
    }

    /// Reinitializes in place for a new run, keeping the vectors'
    /// capacity (the engine's workspace reuse relies on this being
    /// allocation-free once capacities are warm).
    pub fn reset(&mut self, kind: ObserverKind, children: usize) {
        if let ObserverKind::Ema { num, den, .. } = kind {
            assert!(
                den > 0 && num > 0 && num <= den,
                "EMA weight must be in (0, 1]"
            );
        }
        let initial = match kind {
            ObserverKind::Oracle => 0,
            ObserverKind::LastSample { initial } | ObserverKind::Ema { initial, .. } => initial,
        };
        self.kind = kind;
        self.estimates.clear();
        self.estimates.resize(children, initial);
        self.samples.clear();
        self.samples.resize(children, 0);
    }

    /// Whether the engine should bypass estimates and read true weights.
    #[inline]
    pub fn is_oracle(&self) -> bool {
        matches!(self.kind, ObserverKind::Oracle)
    }

    /// Registers one more child (a node joined the overlay under this
    /// parent); its estimate starts at the observer's initial value.
    pub fn add_child(&mut self) {
        let initial = match self.kind {
            ObserverKind::Oracle => 0,
            ObserverKind::LastSample { initial } | ObserverKind::Ema { initial, .. } => initial,
        };
        self.estimates.push(initial);
        self.samples.push(0);
    }

    /// Records a completed transfer to `child` that took `duration`.
    #[inline]
    pub fn observe(&mut self, child: usize, duration: u64) {
        self.samples[child] += 1;
        match self.kind {
            ObserverKind::Oracle => {}
            ObserverKind::LastSample { .. } => self.estimates[child] = duration,
            ObserverKind::Ema { num, den, .. } => {
                let est = self.estimates[child];
                if self.samples[child] == 1 {
                    self.estimates[child] = duration;
                } else {
                    let num = num as u128;
                    let den = den as u128;
                    let blended = (num * duration as u128 + (den - num) * est as u128) / den;
                    self.estimates[child] = blended as u64;
                }
            }
        }
    }

    /// Current estimate for `child`. Meaningless for oracle observers
    /// (the engine substitutes the true weight).
    #[inline]
    pub fn estimate(&self, child: usize) -> u64 {
        self.estimates[child]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_sample_tracks_latest() {
        let mut o = LatencyObserver::new(ObserverKind::LastSample { initial: 0 }, 2);
        assert_eq!(o.estimate(0), 0);
        o.observe(0, 7);
        assert_eq!(o.estimate(0), 7);
        o.observe(0, 3);
        assert_eq!(o.estimate(0), 3);
        // Other children unaffected.
        assert_eq!(o.estimate(1), 0);
    }

    #[test]
    fn ema_blends() {
        // Weight 1/2: first sample snaps, later ones average.
        let mut o = LatencyObserver::new(
            ObserverKind::Ema {
                initial: 0,
                num: 1,
                den: 2,
            },
            1,
        );
        o.observe(0, 8);
        assert_eq!(o.estimate(0), 8);
        o.observe(0, 4);
        assert_eq!(o.estimate(0), 6);
        o.observe(0, 6);
        assert_eq!(o.estimate(0), 6);
    }

    #[test]
    fn ema_converges_to_changed_latency() {
        let mut o = LatencyObserver::new(
            ObserverKind::Ema {
                initial: 0,
                num: 1,
                den: 2,
            },
            1,
        );
        for _ in 0..10 {
            o.observe(0, 10);
        }
        assert_eq!(o.estimate(0), 10);
        for _ in 0..30 {
            o.observe(0, 40);
        }
        assert!(o.estimate(0) >= 39, "est = {}", o.estimate(0));
    }

    #[test]
    fn children_can_join_later() {
        let mut o = LatencyObserver::new(ObserverKind::LastSample { initial: 9 }, 1);
        o.observe(0, 5);
        o.add_child();
        assert_eq!(o.estimate(1), 9);
        o.observe(1, 2);
        assert_eq!(o.estimate(1), 2);
        // Existing child unaffected.
        assert_eq!(o.estimate(0), 5);
    }

    #[test]
    fn oracle_is_flagged() {
        let o = LatencyObserver::new(ObserverKind::Oracle, 3);
        assert!(o.is_oracle());
        let o = LatencyObserver::new(ObserverKind::LastSample { initial: 0 }, 3);
        assert!(!o.is_oracle());
    }

    #[test]
    #[should_panic(expected = "EMA weight")]
    fn bad_ema_weight_rejected() {
        let _ = LatencyObserver::new(
            ObserverKind::Ema {
                initial: 0,
                num: 3,
                den: 2,
            },
            1,
        );
    }
}
