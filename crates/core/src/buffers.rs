//! Buffer accounting and the §3.1 growth rules.
//!
//! A *buffer* holds one received-but-unassigned task. Buffers empty when
//! the task starts computing locally or starts moving toward a child
//! (§3.1), and the protocol keeps one outstanding request toward the
//! parent per uncovered empty buffer ("a child requests a task from a node
//! when the child has an empty buffer").

/// How often the §3.1 growth rules are allowed to actually fire.
///
/// The paper states *which events* permit growth but not how often; it
/// only notes the chosen combination "allowed almost every node to grow
/// its necessary buffers, while discouraging over-growth". These gates
/// span that design space (and are ablated in the benches — see
/// DESIGN.md for the calibration against Fig 4 / Table 2):
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GrowthGate {
    /// Fire on every qualifying event. Most aggressive: starved relay
    /// nodes grow continuously.
    #[default]
    EveryEvent,
    /// At most one growth per task received from the parent.
    OncePerArrival,
    /// Only after the pool has completely filled since the last growth —
    /// i.e. capacity was demonstrably the binding constraint. Growth
    /// self-limits once capacity exceeds what the inflow can stock.
    AfterPoolFilled,
}

/// How a node's buffer pool is sized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Interruptible-communication runs: a fixed pool (the paper's FB).
    Fixed(u32),
    /// Non-interruptible runs: start at `initial`, grow per the §3.1
    /// rules, optionally capped, optionally decaying back toward
    /// `initial` (the paper notes decay as desirable future work).
    Growable {
        /// Starting pool size (the paper's IB).
        initial: u32,
        /// Hard cap on growth (None = unbounded, as in the paper's runs).
        cap: Option<u32>,
        /// How often the growth rules may fire.
        gate: GrowthGate,
        /// If set, one buffer is reclaimed after this many timesteps
        /// without growth pressure (extension; see DESIGN.md).
        decay_after: Option<u64>,
    },
}

impl BufferPolicy {
    /// Initial pool size.
    pub fn initial(&self) -> u32 {
        match *self {
            BufferPolicy::Fixed(k) => k,
            BufferPolicy::Growable { initial, .. } => initial,
        }
    }

    /// True if the pool may grow.
    pub fn growable(&self) -> bool {
        matches!(self, BufferPolicy::Growable { .. })
    }
}

/// The protocol events after which §3.1 allows growing a buffer:
///
/// 1. all buffers became empty while a child request is outstanding;
/// 2. a send to a child completed, a child request is outstanding, and
///    all buffers are empty;
/// 3. a computation completed and all buffers are empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthEvent {
    /// A request from a child arrived (or remained outstanding) while the
    /// buffers are empty — rule 1.
    ChildRequestPressure,
    /// The node completed the communication of a task to a child — rule 2.
    SendCompleted,
    /// The node completed the computation of a task — rule 3.
    ComputeCompleted,
}

/// Per-node buffer ledger: capacity, holdings, and coverage of empty
/// buffers by requests/in-flight deliveries.
#[derive(Clone, Debug)]
pub struct BufferLedger {
    policy: BufferPolicy,
    capacity: u32,
    held: u32,
    /// Empty buffers already covered by an outstanding request to the
    /// parent or an in-flight delivery from it.
    covered: u32,
    max_capacity: u32,
    peak_held: u32,
    /// For [`GrowthGate::AfterPoolFilled`]: pool filled since last growth.
    filled_since_growth: bool,
    /// For [`GrowthGate::OncePerArrival`]: grew since the last arrival.
    grown_since_arrival: bool,
}

/// A verbatim dump of a [`BufferLedger`]'s internal state, for snapshot
/// serialization. Fields are public by design; the only supported uses
/// are [`BufferLedger::state`] → encode and decode →
/// [`BufferLedger::from_state`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerState {
    /// Sizing policy.
    pub policy: BufferPolicy,
    /// Current pool capacity.
    pub capacity: u32,
    /// Tasks currently held.
    pub held: u32,
    /// Empty buffers covered by an outstanding request or delivery.
    pub covered: u32,
    /// High-water pool capacity.
    pub max_capacity: u32,
    /// High-water held count.
    pub peak_held: u32,
    /// `AfterPoolFilled` gate latch.
    pub filled_since_growth: bool,
    /// `OncePerArrival` gate latch.
    pub grown_since_arrival: bool,
}

impl BufferLedger {
    /// Captures the complete internal state (see [`LedgerState`]).
    pub fn state(&self) -> LedgerState {
        LedgerState {
            policy: self.policy,
            capacity: self.capacity,
            held: self.held,
            covered: self.covered,
            max_capacity: self.max_capacity,
            peak_held: self.peak_held,
            filled_since_growth: self.filled_since_growth,
            grown_since_arrival: self.grown_since_arrival,
        }
    }

    /// Rebuilds a ledger from a captured [`LedgerState`], bit-identical
    /// to the ledger it was captured from.
    pub fn from_state(s: LedgerState) -> Self {
        BufferLedger {
            policy: s.policy,
            capacity: s.capacity,
            held: s.held,
            covered: s.covered,
            max_capacity: s.max_capacity,
            peak_held: s.peak_held,
            filled_since_growth: s.filled_since_growth,
            grown_since_arrival: s.grown_since_arrival,
        }
    }

    /// A ledger with the policy's initial capacity, empty and uncovered.
    pub fn new(policy: BufferPolicy) -> Self {
        let capacity = policy.initial();
        BufferLedger {
            policy,
            capacity,
            held: 0,
            covered: 0,
            max_capacity: capacity,
            peak_held: 0,
            filled_since_growth: false,
            grown_since_arrival: false,
        }
    }

    /// Current pool size.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Tasks currently held.
    #[inline]
    pub fn held(&self) -> u32 {
        self.held
    }

    /// True if no tasks are held ("buffers all empty" in §3.1's wording).
    #[inline]
    pub fn all_empty(&self) -> bool {
        self.held == 0
    }

    /// Empty buffers not yet covered by a request/in-flight delivery —
    /// the number of new requests the node should send to its parent.
    #[inline]
    pub fn uncovered(&self) -> u32 {
        self.capacity - self.held - self.covered
    }

    /// Empty buffers covered by an outstanding request to the parent or
    /// an in-flight delivery from it. The engine's invariant checker
    /// cross-checks this against the parent's request ledger: `covered`
    /// must always equal requests pending at the parent plus tasks in
    /// flight toward this node.
    pub fn covered(&self) -> u32 {
        self.covered
    }

    /// The sizing policy this ledger was built with.
    pub fn policy(&self) -> &BufferPolicy {
        &self.policy
    }

    /// Largest capacity ever reached (the paper's "number of buffers
    /// used", Tables 1 and 2).
    pub fn max_capacity(&self) -> u32 {
        self.max_capacity
    }

    /// Largest number of tasks simultaneously held.
    pub fn peak_held(&self) -> u32 {
        self.peak_held
    }

    /// Marks `n` empty buffers as covered by freshly sent requests.
    #[inline]
    pub fn note_requests_sent(&mut self, n: u32) {
        assert!(n <= self.uncovered(), "over-requesting");
        self.covered += n;
    }

    /// A task from the parent arrived: occupy a covered buffer.
    #[inline]
    pub fn task_arrived(&mut self) {
        assert!(self.covered > 0, "delivery without coverage");
        assert!(self.held < self.capacity, "buffer overflow");
        self.covered -= 1;
        self.held += 1;
        self.peak_held = self.peak_held.max(self.held);
        if self.held == self.capacity {
            self.filled_since_growth = true;
        }
        self.grown_since_arrival = false;
    }

    /// Takes a task out of the pool (compute start or send start).
    /// The freed buffer becomes uncovered; the caller re-requests.
    #[inline]
    pub fn take_task(&mut self) {
        assert!(self.held > 0, "taking from empty buffers");
        self.held -= 1;
    }

    /// Releases `n` covered buffers back to uncovered: the requests (or
    /// in-flight deliveries) covering them are known lost — a request
    /// timeout fired, a transfer aborted, or a deferred negative
    /// acknowledgement resolved. The caller re-requests.
    pub fn uncover(&mut self, n: u32) {
        assert!(n <= self.covered, "uncovering more than covered");
        self.covered -= n;
    }

    /// Applies a §3.1 growth rule. Returns true if a buffer was grown
    /// (the caller should then send a request to cover it).
    #[inline]
    pub fn try_grow(&mut self, event: GrowthEvent, child_requests_outstanding: bool) -> bool {
        let BufferPolicy::Growable { cap, gate, .. } = self.policy else {
            return false;
        };
        if let Some(cap) = cap {
            if self.capacity >= cap {
                return false;
            }
        }
        let rule_allows = match event {
            // Rules 1 and 2 require an outstanding child request.
            GrowthEvent::ChildRequestPressure | GrowthEvent::SendCompleted => {
                self.all_empty() && child_requests_outstanding
            }
            // Rule 3 requires only empty buffers.
            GrowthEvent::ComputeCompleted => self.all_empty(),
        };
        if !rule_allows {
            return false;
        }
        match gate {
            GrowthGate::EveryEvent => {}
            GrowthGate::OncePerArrival => {
                if self.grown_since_arrival {
                    return false;
                }
            }
            GrowthGate::AfterPoolFilled => {
                if !self.filled_since_growth {
                    return false;
                }
            }
        }
        self.filled_since_growth = false;
        self.grown_since_arrival = true;
        // Growing is only useful if the new buffer is actually uncovered
        // afterward; it always is, since capacity rises by one.
        self.capacity += 1;
        self.max_capacity = self.max_capacity.max(self.capacity);
        true
    }

    /// Decay (extension): reclaims one unused buffer if the pool is above
    /// its initial size and at least one buffer is empty and uncovered.
    /// Returns true if a buffer was reclaimed.
    #[inline]
    pub fn try_shrink(&mut self) -> bool {
        let BufferPolicy::Growable {
            initial,
            decay_after: Some(_),
            ..
        } = self.policy
        else {
            return false;
        };
        if self.capacity > initial && self.uncovered() > 0 {
            self.capacity -= 1;
            true
        } else {
            false
        }
    }

    /// The decay window, if the policy has one.
    #[inline]
    pub fn decay_after(&self) -> Option<u64> {
        match self.policy {
            BufferPolicy::Growable { decay_after, .. } => decay_after,
            BufferPolicy::Fixed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn growable(initial: u32) -> BufferLedger {
        BufferLedger::new(BufferPolicy::Growable {
            initial,
            cap: None,
            gate: GrowthGate::EveryEvent,
            decay_after: None,
        })
    }

    #[test]
    fn initial_state() {
        let l = BufferLedger::new(BufferPolicy::Fixed(3));
        assert_eq!(l.capacity(), 3);
        assert_eq!(l.held(), 0);
        assert_eq!(l.uncovered(), 3);
        assert!(l.all_empty());
    }

    #[test]
    fn request_delivery_cycle() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(2));
        l.note_requests_sent(2);
        assert_eq!(l.uncovered(), 0);
        l.task_arrived();
        assert_eq!(l.held(), 1);
        assert_eq!(l.uncovered(), 0); // one held + one still covered
        l.take_task();
        assert_eq!(l.uncovered(), 1); // freed buffer needs a new request
        l.note_requests_sent(1);
        assert_eq!(l.uncovered(), 0);
    }

    #[test]
    #[should_panic(expected = "over-requesting")]
    fn cannot_over_request() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(1));
        l.note_requests_sent(2);
    }

    #[test]
    fn uncover_releases_lost_coverage() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(3));
        l.note_requests_sent(3);
        assert_eq!(l.uncovered(), 0);
        // Two of the three requests were lost in the network; a timeout
        // withdraws them so they can be re-sent.
        l.uncover(2);
        assert_eq!(l.covered(), 1);
        assert_eq!(l.uncovered(), 2);
        l.note_requests_sent(2);
        assert_eq!(l.uncovered(), 0);
    }

    #[test]
    #[should_panic(expected = "uncovering more than covered")]
    fn cannot_uncover_below_zero() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(2));
        l.note_requests_sent(1);
        l.uncover(2);
    }

    #[test]
    #[should_panic(expected = "delivery without coverage")]
    fn cannot_deliver_uncovered() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(1));
        l.task_arrived();
    }

    #[test]
    fn fixed_pool_never_grows() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(1));
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, true));
        assert_eq!(l.capacity(), 1);
    }

    #[test]
    fn growth_rule_1_needs_pressure() {
        let mut l = growable(1);
        assert!(!l.try_grow(GrowthEvent::ChildRequestPressure, false));
        assert!(l.try_grow(GrowthEvent::ChildRequestPressure, true));
        assert_eq!(l.capacity(), 2);
        assert_eq!(l.max_capacity(), 2);
    }

    #[test]
    fn growth_rules_need_empty_buffers() {
        let mut l = growable(1);
        l.note_requests_sent(1);
        l.task_arrived(); // now holding one task
        assert!(!l.try_grow(GrowthEvent::ChildRequestPressure, true));
        assert!(!l.try_grow(GrowthEvent::SendCompleted, true));
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, true));
    }

    #[test]
    fn growth_rule_3_without_child_requests() {
        let mut l = growable(1);
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert_eq!(l.capacity(), 2);
    }

    #[test]
    fn cap_limits_growth() {
        let mut l = BufferLedger::new(BufferPolicy::Growable {
            initial: 1,
            cap: Some(2),
            gate: GrowthGate::EveryEvent,
            decay_after: None,
        });
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert_eq!(l.capacity(), 2);
    }

    #[test]
    fn peak_held_tracks_high_water() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(3));
        l.note_requests_sent(3);
        l.task_arrived();
        l.task_arrived();
        l.take_task();
        l.task_arrived();
        assert_eq!(l.peak_held(), 2);
    }

    #[test]
    fn shrink_requires_decay_policy_and_slack() {
        let mut l = BufferLedger::new(BufferPolicy::Growable {
            initial: 1,
            cap: None,
            gate: GrowthGate::EveryEvent,
            decay_after: Some(100),
        });
        assert!(!l.try_shrink(), "cannot shrink below initial");
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert_eq!(l.capacity(), 2);
        assert!(l.try_shrink());
        assert_eq!(l.capacity(), 1);
        // Without decay configured, shrink is a no-op.
        let mut l = growable(1);
        l.try_grow(GrowthEvent::ComputeCompleted, false);
        assert!(!l.try_shrink());
    }

    #[test]
    fn once_per_arrival_gate_throttles() {
        let mut l = BufferLedger::new(BufferPolicy::Growable {
            initial: 1,
            cap: None,
            gate: GrowthGate::OncePerArrival,
            decay_after: None,
        });
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, false));
        // An arrival re-arms the gate.
        l.note_requests_sent(1);
        l.task_arrived();
        l.take_task();
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert_eq!(l.capacity(), 3);
    }

    #[test]
    fn after_pool_filled_gate_requires_evidence() {
        let mut l = BufferLedger::new(BufferPolicy::Growable {
            initial: 1,
            cap: None,
            gate: GrowthGate::AfterPoolFilled,
            decay_after: None,
        });
        // Never filled: no growth no matter how many events fire.
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, false));
        // Fill the single buffer, drain it, and growth is justified once.
        l.note_requests_sent(1);
        l.task_arrived();
        l.take_task();
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert_eq!(l.capacity(), 2);
        // Now the pool must fill to 2 before the next growth.
        l.note_requests_sent(2);
        l.task_arrived();
        assert!(!l.try_grow(GrowthEvent::ComputeCompleted, false));
        l.task_arrived();
        l.take_task();
        l.take_task();
        assert!(l.try_grow(GrowthEvent::ComputeCompleted, false));
        assert_eq!(l.capacity(), 3);
    }

    #[test]
    fn covered_tracks_requests_and_deliveries() {
        let mut l = BufferLedger::new(BufferPolicy::Fixed(2));
        assert_eq!(l.covered(), 0);
        l.note_requests_sent(2);
        assert_eq!(l.covered(), 2);
        l.task_arrived();
        assert_eq!(l.covered(), 1);
        assert_eq!(*l.policy(), BufferPolicy::Fixed(2));
    }

    #[test]
    fn grown_buffer_is_uncovered() {
        let mut l = growable(1);
        l.note_requests_sent(1);
        assert_eq!(l.uncovered(), 0);
        assert!(l.try_grow(GrowthEvent::ChildRequestPressure, true));
        assert_eq!(l.uncovered(), 1);
    }
}
