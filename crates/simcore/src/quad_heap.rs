//! A cache-friendly 4-ary min-heap over packed event keys.
//!
//! The agenda's hot loop is `push`/`pop` of `(time, seq, slot)` triples.
//! A `std::collections::BinaryHeap<Reverse<(u64, u64, u32, u32)>>` keeps
//! 24-byte entries and touches ~log2(n) scattered cache lines per
//! operation. This heap packs each entry into a single `u128` — time in
//! the high 64 bits, then the tie-breaking sequence number, then the slot
//! index — so ordering is one integer comparison, entries are 16 bytes
//! (4 per cache line), and the 4-ary layout halves the tree depth:
//! sift-down inspects 4 children sitting in at most two cache lines.
//!
//! Key layout (most significant first): `time:64 | seq:44 | slot:20`.
//! 2^44 scheduled events per agenda and 2^20 concurrent slots are far
//! above anything a simulation reaches (the engine's event valve is 5·10^8
//! per *run*, and slots track concurrent events, which are O(nodes));
//! both limits are asserted at pack time.

/// Bits reserved for the tie-breaking sequence number.
pub const SEQ_BITS: u32 = 44;
/// Bits reserved for the slot index.
pub const SLOT_BITS: u32 = 20;

/// Largest representable sequence number.
pub const MAX_SEQ: u64 = (1 << SEQ_BITS) - 1;
/// Largest representable slot index.
pub const MAX_SLOT: u32 = (1 << SLOT_BITS) - 1;

/// One heap entry: `(time, seq, slot)` packed into a `u128` whose integer
/// order equals the lexicographic event order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedEvent(u128);

impl PackedEvent {
    /// Packs an event key. Panics if `seq` or `slot` exceed their fields
    /// (unreachable in practice; see module docs).
    ///
    /// The bound checks are unconditional: an overflowing `seq` or `slot`
    /// would silently wrap into the neighboring bit fields and corrupt
    /// global event ordering, which in a release campaign would mean
    /// wrong results rather than a crash. Both branches are never taken,
    /// so they predict perfectly.
    #[inline]
    pub fn pack(time: u64, seq: u64, slot: u32) -> Self {
        assert!(seq <= MAX_SEQ, "agenda sequence number overflow");
        assert!(slot <= MAX_SLOT, "agenda slot index overflow");
        PackedEvent(
            ((time as u128) << (SEQ_BITS + SLOT_BITS))
                | ((seq as u128) << SLOT_BITS)
                | slot as u128,
        )
    }

    /// The event's firing time.
    #[inline]
    pub fn time(self) -> u64 {
        (self.0 >> (SEQ_BITS + SLOT_BITS)) as u64
    }

    /// The tie-breaking sequence number.
    #[inline]
    pub fn seq(self) -> u64 {
        ((self.0 >> SLOT_BITS) as u64) & MAX_SEQ
    }

    /// The slot index.
    #[inline]
    pub fn slot(self) -> u32 {
        (self.0 as u32) & MAX_SLOT
    }

    /// The raw packed key, for verbatim serialization (snapshots). The
    /// bit layout is part of the snapshot format: `time:64 | seq:44 |
    /// slot:20`, most significant first.
    #[inline]
    pub fn raw(self) -> u128 {
        self.0
    }

    /// Rebuilds an entry from a raw packed key previously obtained via
    /// [`PackedEvent::raw`]. No validation: the key is trusted to have
    /// been produced by `pack` (snapshot decode paths validate the
    /// container, not each key).
    #[inline]
    pub fn from_raw(raw: u128) -> Self {
        PackedEvent(raw)
    }
}

/// A 4-ary min-heap of [`PackedEvent`]s backed by a flat `Vec`.
#[derive(Default)]
pub struct QuadHeap {
    data: Vec<PackedEvent>,
}

const ARITY: usize = 4;

impl QuadHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (live + tombstones; the agenda tracks liveness).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops all entries, retaining the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The smallest entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<PackedEvent> {
        self.data.first().copied()
    }

    /// The backing array in heap layout (not sorted order). Captured
    /// verbatim by agenda snapshots so a restore reproduces the exact
    /// array — and therefore the exact future pop/sift behavior — of the
    /// moment the snapshot was taken.
    pub fn entries(&self) -> &[PackedEvent] {
        &self.data
    }

    /// Replaces the backing array verbatim, retaining the allocation.
    /// `entries` must be a heap-ordered array previously obtained from
    /// [`QuadHeap::entries`]; no heapify is performed, so a restore is
    /// exact rather than merely equivalent.
    pub fn restore_from(&mut self, entries: &[PackedEvent]) {
        self.data.clear();
        self.data.extend_from_slice(entries);
    }

    /// Inserts an entry.
    #[inline]
    pub fn push(&mut self, e: PackedEvent) {
        self.data.push(e);
        self.sift_up(self.data.len() - 1);
    }

    /// Removes and returns the smallest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<PackedEvent> {
        let last = self.data.pop()?;
        if self.data.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.data[0], last);
        self.sift_down(0);
        Some(top)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let e = self.data[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.data[parent] <= e {
                break;
            }
            self.data[i] = self.data[parent];
            i = parent;
        }
        self.data[i] = e;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        let e = self.data[i];
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            // Smallest of up to four children — one or two cache lines.
            let mut min_c = first;
            let mut min_v = self.data[first];
            let end = (first + ARITY).min(n);
            for c in first + 1..end {
                if self.data[c] < min_v {
                    min_c = c;
                    min_v = self.data[c];
                }
            }
            if e <= min_v {
                break;
            }
            self.data[i] = min_v;
            i = min_c;
        }
        self.data[i] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pack_roundtrip() {
        for (t, s, sl) in [
            (0u64, 0u64, 0u32),
            (1, 2, 3),
            (u64::MAX, MAX_SEQ, MAX_SLOT),
            (123_456_789_000, 44, 1 << 19),
        ] {
            let e = PackedEvent::pack(t, s, sl);
            assert_eq!((e.time(), e.seq(), e.slot()), (t, s, sl));
        }
    }

    // The two overflow guards must hold in release builds too: a wrapped
    // field would corrupt neighboring bits (and thus event order) rather
    // than fail. These run under `cargo test --release` in CI.

    #[test]
    #[should_panic(expected = "sequence number overflow")]
    fn seq_overflow_panics_even_in_release() {
        let _ = PackedEvent::pack(0, MAX_SEQ + 1, 0);
    }

    #[test]
    #[should_panic(expected = "slot index overflow")]
    fn slot_overflow_panics_even_in_release() {
        let _ = PackedEvent::pack(0, 0, MAX_SLOT + 1);
    }

    #[test]
    fn max_fields_do_not_bleed_into_neighbors() {
        // Saturated low fields must not perturb higher ones.
        let e = PackedEvent::pack(7, MAX_SEQ, MAX_SLOT);
        assert_eq!(e.time(), 7);
        assert_eq!(e.seq(), MAX_SEQ);
        assert_eq!(e.slot(), MAX_SLOT);
        let f = PackedEvent::pack(7, 0, MAX_SLOT);
        assert_eq!(f.seq(), 0, "slot bits leaked into seq");
        assert!(f < e);
    }

    #[test]
    fn order_is_time_then_seq() {
        let a = PackedEvent::pack(5, 100, MAX_SLOT);
        let b = PackedEvent::pack(6, 0, 0);
        assert!(a < b, "earlier time wins regardless of seq/slot");
        let c = PackedEvent::pack(5, 101, 0);
        assert!(a < c, "equal times order by seq");
    }

    #[test]
    fn pops_sorted() {
        let mut h = QuadHeap::new();
        let mut state = 88172645463325252u64;
        let mut keys = Vec::new();
        for i in 0..2000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = PackedEvent::pack(state % 1000, i, (i % 64) as u32);
            keys.push(e);
            h.push(e);
        }
        keys.sort();
        let mut popped = Vec::new();
        while let Some(e) = h.pop() {
            popped.push(e);
        }
        assert_eq!(popped, keys);
    }

    #[test]
    fn matches_std_binary_heap_under_interleaving() {
        let mut quad = QuadHeap::new();
        let mut bin: BinaryHeap<Reverse<PackedEvent>> = BinaryHeap::new();
        let mut state = 0x243F6A8885A308D3u64;
        for i in 0..5000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !state.is_multiple_of(3) {
                let e = PackedEvent::pack(state % 512, i, (state % 100) as u32);
                quad.push(e);
                bin.push(Reverse(e));
            } else {
                assert_eq!(quad.pop(), bin.pop().map(|Reverse(e)| e));
            }
            assert_eq!(quad.peek(), bin.peek().map(|&Reverse(e)| e));
            assert_eq!(quad.len(), bin.len());
        }
        while let Some(e) = quad.pop() {
            assert_eq!(Some(e), bin.pop().map(|Reverse(e)| e));
        }
        assert!(bin.is_empty());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut h = QuadHeap::new();
        for i in 0..100u64 {
            h.push(PackedEvent::pack(i, i, 0));
        }
        let cap = h.data.capacity();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.data.capacity(), cap);
    }
}
