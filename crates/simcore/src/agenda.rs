//! The event agenda: a deterministic discrete-event scheduler.
//!
//! Replaces the role SimGrid played in the paper's evaluation. Design
//! points that matter for reproducibility:
//!
//! * **Total determinism.** Events at equal times pop in scheduling order
//!   (a monotone sequence number breaks ties), so a simulation is a pure
//!   function of its inputs. The experiment campaign relies on this: every
//!   figure regenerates bit-for-bit from the same seeds.
//! * **O(log n) cancellation.** Interruptible communication cancels and
//!   reschedules transfer-completion events constantly; cancellation here
//!   is a generation bump plus lazy removal at pop time, the standard
//!   "tombstone" technique.
//! * **Integer time.** All paper parameters are integer timesteps and
//!   preemptions happen at event times, so `u64` time is exact — no float
//!   drift anywhere in the simulator.
//!
//! ## Two-tier ladder front-end
//!
//! Most events a protocol run schedules land a short delay ahead:
//! transfer completions are one edge weight out (1–100 timesteps under
//! §4.1's parameters), and request handling is immediate. Compute
//! completions are one node weight out, which at §4.1's default
//! computation scale `x = 10,000` is 100–10,000 timesteps. A
//! binary/4-ary heap pays O(log n) sift work per operation for ordering
//! generality the short delays never use. The agenda therefore splits
//! by horizon:
//!
//! * **Near tier** — a calendar of [`NEAR_BUCKETS`] one-timestep buckets
//!   covering `[now, now + NEAR_BUCKETS)`. An event due `< NEAR_BUCKETS`
//!   from now is appended to the bucket of its timestamp (`time mod
//!   NEAR_BUCKETS`): O(1) insert. Because the global sequence number is
//!   monotone, a bucket's append order *is* its `(time, seq)` order, so
//!   popping walks an occupancy bitmap to the first non-empty bucket and
//!   takes its front entry: O(1) amortized, a couple of cache lines.
//! * **Far tier** — everything at or beyond the window goes to the packed
//!   4-ary heap ([`crate::quad_heap`]) exactly as before: compute
//!   completions on nodes of weight ≥ [`NEAR_BUCKETS`], scripted faults
//!   and recovery timeouts. The far tier is not rare on the paper's
//!   workload. On the 400-tree `paper_campaign` benchmark (seed 2003,
//!   IC/FB=3 and non-IC/IB=1) 6.6 % of all schedules go to the heap,
//!   0.068 per event. Every one of them is a compute completion, and
//!   together they are 57 % of all compute completions (0.12 per event).
//!   An event never migrates: by the time the clock brings its due time
//!   inside the window it simply wins the front comparison below.
//!
//! Each pop compares the near front against the far front **by full
//! packed key** — the same `time:64 | seq:44 | slot:20` `u128` either
//! tier stores — so the merged order is bit-exactly the order the
//! single-heap agenda produced (golden traces do not move).
//!
//! Tombstones exist in both tiers. Near tombstones are skimmed when
//! their bucket reaches the front and compacted wholesale when they
//! outnumber live near entries (interruptible-communication churn
//! cancels mostly short-horizon events); far tombstones purge on the
//! heap-local ratio, not the global live count, so a cancel-heavy near
//! tier can no longer force pointless heap rebuilds (and vice versa).

use crate::quad_heap::{PackedEvent, QuadHeap, MAX_SEQ, MAX_SLOT};

/// Simulation time in integer timesteps.
pub type Time = u64;

/// Width of the near-tier calendar window, in timesteps (one bucket per
/// timestep). Power of two so the bucket index is a mask. 1024 covers
/// every transfer delay under §4.1's parameters (edge weights 1–100) but
/// only the node weights below 1024, while the default computation scale
/// gives node weights of 100–10,000; about 57 % of the paper campaign's
/// compute completions therefore take the far heap (see the module
/// docs). Longer delays are merely slower there, never wrong. The width
/// is part of the `BCSS` snapshot layout (near-bucket indices are
/// validated against it), so changing it is a format change.
pub const NEAR_BUCKETS: usize = 1024;
/// Bitmap words backing the bucket-occupancy index.
const NEAR_WORDS: usize = NEAR_BUCKETS / 64;
/// Near-tier compaction floor (mirrors the far tier's 64-entry floor).
const NEAR_PURGE_FLOOR: usize = 64;

/// Handle to a scheduled event; survives the event firing (becomes stale).
///
/// ## Generation arithmetic
///
/// Slot generations advance with `wrapping_add(1)` **everywhere** —
/// cancel, fire, and [`Agenda::reset`] — and are compared only for
/// equality, never ordered. Wrapping is sound because a slot is recycled
/// only after its single outstanding entry leaves its tier, so a
/// stale handle can only resurrect if the *same slot* runs through all
/// 2^32 generations while the handle is retained; no simulation holds a
/// handle across four billion reuses of one slot (handles live for one
/// transfer). A saturating or panicking `+= 1` would instead make
/// extremely long release campaigns abort (or, with overflow checks off,
/// silently reuse generation values with no documented reasoning).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    generation: u32,
}

impl EventHandle {
    /// `(slot, generation)`, for snapshot serialization. Meaningful only
    /// against the agenda state captured alongside it.
    #[inline]
    pub fn raw_parts(self) -> (u32, u32) {
        (self.slot, self.generation)
    }

    /// Rebuilds a handle from [`EventHandle::raw_parts`] output. A handle
    /// forged against the wrong agenda state is merely stale (cancel
    /// returns `None`), never unsafe.
    #[inline]
    pub fn from_raw_parts(slot: u32, generation: u32) -> Self {
        EventHandle { slot, generation }
    }
}

struct Slot<E> {
    generation: u32,
    /// Which tier holds this slot's outstanding entry (meaningful only
    /// while the payload is present). Events never migrate, so the flag
    /// set at schedule time stays correct for the entry's whole life.
    in_far: bool,
    payload: Option<E>,
}

/// One near-tier calendar bucket: entries appended in seq order, drained
/// front-to-back via `head` (cleared for reuse once fully drained).
#[derive(Default)]
struct Bucket {
    entries: Vec<PackedEvent>,
    head: usize,
}

/// A discrete-event agenda over payload type `E`.
///
/// Pending events live in one of two tiers (see the module docs): a
/// bucket calendar for the near window and a packed-key 4-ary heap for
/// the far future. Both store the same `u128` key ordered by `(time,
/// seq)` with the slot index in the low bits. A slot has at most one
/// outstanding entry at a time (slots are recycled only after their
/// entry leaves its tier), so liveness at pop time is just "does the
/// slot still hold a payload" — generations exist only to invalidate
/// stale [`EventHandle`]s.
pub struct Agenda<E> {
    /// Far tier: events due `>= NEAR_BUCKETS` from their scheduling time.
    heap: QuadHeap,
    /// Near tier: `buckets[t % NEAR_BUCKETS]` holds the events due at
    /// `t` for `t` in `[now, now + NEAR_BUCKETS)`. Allocated on first
    /// use, reused forever after.
    buckets: Vec<Bucket>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty,
    /// counting tombstones until they are skimmed).
    bits: [u64; NEAR_WORDS],
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    now: Time,
    seq: u64,
    live: usize,
    /// Live (non-cancelled) entries in the near tier.
    near_live: usize,
    /// Total entries (live + tombstones) across all near buckets.
    near_entries: usize,
    /// Tombstones currently in the far heap.
    far_dead: usize,
}

impl<E> Default for Agenda<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Agenda<E> {
    /// An empty agenda at time 0.
    pub fn new() -> Self {
        Agenda {
            heap: QuadHeap::new(),
            buckets: Vec::new(),
            bits: [0; NEAR_WORDS],
            slots: Vec::new(),
            free: Vec::new(),
            now: 0,
            seq: 0,
            live: 0,
            near_live: 0,
            near_entries: 0,
            far_dead: 0,
        }
    }

    /// Returns the agenda to its initial state (time 0, nothing pending)
    /// while keeping every allocation — heap arena, calendar buckets,
    /// slot table, free list. The campaign engine calls this between
    /// simulations so the steady-state event loop never reallocates
    /// across the thousands of runs one worker executes.
    ///
    /// Handles issued before the reset are invalidated (their slots'
    /// generations advance), so a stale handle can never cancel an event
    /// scheduled after the reset.
    pub fn reset(&mut self) {
        self.heap.clear();
        for b in &mut self.buckets {
            b.entries.clear();
            b.head = 0;
        }
        self.bits = [0; NEAR_WORDS];
        self.free.clear();
        for s in &mut self.slots {
            s.generation = s.generation.wrapping_add(1);
            s.payload = None; // drops the payload, keeps the slot
        }
        // Refill the free list so post-reset slot assignment runs 0, 1, 2…
        // exactly like a fresh agenda.
        self.free.extend((0..self.slots.len() as u32).rev());
        self.now = 0;
        self.seq = 0;
        self.live = 0;
        self.near_live = 0;
        self.near_entries = 0;
        self.far_dead = 0;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` to fire `delay` timesteps from now.
    #[inline]
    pub fn schedule(&mut self, delay: Time, payload: E) -> EventHandle {
        let time = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule_at(time, payload)
    }

    /// Schedules `payload` at an absolute time (≥ now).
    pub fn schedule_at(&mut self, time: Time, payload: E) -> EventHandle {
        assert!(time >= self.now, "cannot schedule into the past");
        let in_far = time - self.now >= NEAR_BUCKETS as Time;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.payload = Some(payload);
                sl.in_far = in_far;
                s
            }
            None => {
                assert!(
                    self.slots.len() <= MAX_SLOT as usize,
                    "agenda slot table overflow (> 2^20 concurrent events)"
                );
                self.slots.push(Slot {
                    generation: 0,
                    in_far,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.seq += 1;
        assert!(self.seq <= MAX_SEQ, "agenda sequence number overflow");
        let key = PackedEvent::pack(time, self.seq, slot);
        if in_far {
            self.heap.push(key);
        } else {
            if self.buckets.is_empty() {
                self.buckets.resize_with(NEAR_BUCKETS, Bucket::default);
            }
            let b = time as usize & (NEAR_BUCKETS - 1);
            // Monotone seq ⇒ appends keep the bucket in (time, seq) order
            // (all live entries of one bucket share one timestamp; see
            // the module docs).
            self.buckets[b].entries.push(key);
            self.bits[b / 64] |= 1u64 << (b % 64);
            self.near_live += 1;
            self.near_entries += 1;
        }
        self.live += 1;
        EventHandle { slot, generation }
    }

    /// Cancels a pending event, returning its payload. Returns `None` if
    /// the event already fired or was already cancelled (both are normal
    /// in protocol code; not an error).
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let slot = self.slots.get_mut(handle.slot as usize)?;
        if slot.generation != handle.generation || slot.payload.is_none() {
            return None;
        }
        // Wrapping: see the generation-arithmetic note on [`EventHandle`].
        slot.generation = slot.generation.wrapping_add(1);
        self.live -= 1;
        // The entry remains in its tier as a tombstone; reuse of the slot
        // is deferred until the tombstone leaves the tier, so neither
        // tier ever refers to a recycled slot with a matching generation.
        let payload = slot.payload.take();
        if slot.in_far {
            // Compact when far tombstones dominate the far tier. The
            // ratio is heap-local on purpose: near-tier churn must not
            // trigger (pointless) heap rebuilds, and a tombstone-choked
            // heap must compact even while thousands of near events are
            // live. The 2× threshold amortizes the O(n) rebuild; the
            // size floor keeps tiny heaps on the simple path.
            self.far_dead += 1;
            if self.heap.len() > 64 && self.far_dead * 2 > self.heap.len() {
                self.purge_far_tombstones();
            }
        } else {
            // Near tombstones are skimmed for free when their bucket
            // reaches the front; the sweep below only matters when churn
            // cancels faster than the clock drains (it reclaims slots
            // and keeps bucket scans short).
            self.near_live -= 1;
            let dead = self.near_entries - self.near_live;
            if dead > NEAR_PURGE_FLOOR && dead > 2 * self.near_live {
                self.sweep_near_tombstones();
            }
        }
        payload
    }

    /// Number of retained entries across both tiers, live plus tombstones
    /// (capacity introspection for tests and benchmarks).
    pub fn heap_entries(&self) -> usize {
        self.heap.len() + self.near_entries
    }

    /// Rebuilds the far heap keeping only live entries, freeing the slots
    /// of dropped tombstones. Safe because each slot has at most one
    /// outstanding entry (a slot is never reused until its previous
    /// entry leaves its tier).
    fn purge_far_tombstones(&mut self) {
        let slots = &self.slots;
        let free = &mut self.free;
        self.heap.retain(|entry| {
            let slot = entry.slot();
            if slots[slot as usize].payload.is_some() {
                true
            } else {
                free.push(slot);
                false
            }
        });
        self.far_dead = 0;
    }

    /// Compacts every near bucket in place, dropping tombstones (freeing
    /// their slots) and clearing the occupancy bit of emptied buckets.
    /// Entry order within a bucket is preserved, so the merged pop order
    /// is untouched.
    fn sweep_near_tombstones(&mut self) {
        let slots = &self.slots;
        let free = &mut self.free;
        let mut total = 0;
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.entries.is_empty() {
                continue;
            }
            let head = std::mem::take(&mut bucket.head);
            let mut kept = 0;
            bucket.entries.retain(|&e| {
                // Entries before the drain head already left the tier
                // (their slots were recycled at pop/skim time); drop them
                // without touching the free list.
                if kept < head {
                    kept += 1;
                    return false;
                }
                if slots[e.slot() as usize].payload.is_some() {
                    true
                } else {
                    free.push(e.slot());
                    false
                }
            });
            if bucket.entries.is_empty() {
                self.bits[b / 64] &= !(1u64 << (b % 64));
            }
            total += bucket.entries.len();
        }
        self.near_entries = total;
        debug_assert_eq!(self.near_entries, self.near_live);
    }

    /// True if the handle still refers to a pending event.
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.slots
            .get(handle.slot as usize)
            .is_some_and(|s| s.generation == handle.generation && s.payload.is_some())
    }

    /// Time of the next pending event without firing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        let near = self.near_front();
        let far = self.far_front();
        match (near, far) {
            (Some(n), Some(f)) => Some(n.min(f).time()),
            (Some(n), None) => Some(n.time()),
            (None, Some(f)) => Some(f.time()),
            (None, None) => None,
        }
    }

    /// Pops the next event, advancing the clock to its time.
    #[allow(clippy::should_implement_trait)] // a DES agenda is not an Iterator: popping mutates the clock
    pub fn next(&mut self) -> Option<(Time, E)> {
        let near = self.near_front();
        let far = self.far_front();
        // Full-key comparison: time first, then the global seq — the
        // exact order the single-heap agenda produced.
        let entry = match (near, far) {
            (Some(n), Some(f)) => {
                if n < f {
                    self.pop_near(n)
                } else {
                    self.heap.pop().expect("far front exists");
                    f
                }
            }
            (Some(n), None) => self.pop_near(n),
            (None, Some(f)) => {
                self.heap.pop().expect("far front exists");
                f
            }
            (None, None) => return None,
        };
        let slot = entry.slot();
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("front entries are live");
        // Wrapping: see the generation-arithmetic note on [`EventHandle`].
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        let time = entry.time();
        debug_assert!(time >= self.now, "agenda produced time travel");
        self.now = time;
        Some((time, payload))
    }

    /// Removes `entry` — the near front just returned by
    /// [`Self::near_front`] — from its bucket.
    #[inline]
    fn pop_near(&mut self, entry: PackedEvent) -> PackedEvent {
        let b = entry.time() as usize & (NEAR_BUCKETS - 1);
        let bucket = &mut self.buckets[b];
        debug_assert_eq!(bucket.entries[bucket.head], entry);
        bucket.head += 1;
        self.near_entries -= 1;
        self.near_live -= 1;
        if bucket.head == bucket.entries.len() {
            bucket.entries.clear();
            bucket.head = 0;
            self.bits[b / 64] &= !(1u64 << (b % 64));
        }
        entry
    }

    /// The smallest live near-tier entry, skimming tombstones off bucket
    /// fronts (recycling their slots) along the way.
    fn near_front(&mut self) -> Option<PackedEvent> {
        loop {
            if self.near_live == 0 {
                if self.near_entries > 0 {
                    // All-dead near tier: reclaim the tombstones' slots
                    // now (the single-heap agenda freed them at pop
                    // time). Amortized free — the sweep zeroes
                    // `near_entries`, so it cannot run twice in a row.
                    self.sweep_near_tombstones();
                }
                return None;
            }
            let b = self.first_bucket()?;
            let bucket = &mut self.buckets[b];
            while let Some(&e) = bucket.entries.get(bucket.head) {
                let slot = e.slot();
                if self.slots[slot as usize].payload.is_some() {
                    return Some(e);
                }
                // Skim the tombstone: the entry leaves the tier, so its
                // slot recycles now.
                bucket.head += 1;
                self.near_entries -= 1;
                self.free.push(slot);
            }
            bucket.entries.clear();
            bucket.head = 0;
            self.bits[b / 64] &= !(1u64 << (b % 64));
        }
    }

    /// Index of the first occupied bucket in circular window order from
    /// `now` (every live near entry's time is in `[now, now +
    /// NEAR_BUCKETS)`, so circular order from `now` is time order).
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        let start = self.now as usize & (NEAR_BUCKETS - 1);
        let (sw, sb) = (start / 64, start % 64);
        let w = self.bits[sw] & (!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        for k in 1..NEAR_WORDS {
            let wi = (sw + k) % NEAR_WORDS;
            let w = self.bits[wi];
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        // Wrapped all the way: the bits of the start word before `start`.
        let w = self.bits[sw] & !(!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        None
    }

    /// The smallest live far-tier entry, popping tombstones (recycling
    /// their slots) off the heap top along the way.
    fn far_front(&mut self) -> Option<PackedEvent> {
        while let Some(entry) = self.heap.peek() {
            let slot = entry.slot();
            if self.slots[slot as usize].payload.is_some() {
                return Some(entry);
            }
            self.heap.pop();
            self.far_dead -= 1;
            self.free.push(slot);
        }
        None
    }
}

/// One slot of an [`AgendaSnapshot`]: the slot's generation (handles
/// issued against it stay valid across a restore), which tier holds its
/// outstanding entry, and the payload (`None` = free or tombstoned).
#[derive(Clone, Debug)]
pub struct SlotSnapshot<E> {
    /// Generation counter at capture time.
    pub generation: u32,
    /// Tier of the slot's outstanding entry (meaningful only with a
    /// payload present).
    pub in_far: bool,
    /// The pending payload, if the slot holds a live entry.
    pub payload: Option<E>,
}

/// A complete deep capture of an [`Agenda`]: both tiers verbatim
/// (including tombstones and intra-bucket drain heads), the slot table
/// with generations, the free-list order, and every cursor (`now`,
/// `seq`, liveness counters).
///
/// Restoring reproduces the agenda's observable *and* internal state
/// exactly: outstanding [`EventHandle`]s captured alongside the snapshot
/// remain valid, future slot assignment draws from the same free-list
/// order, and the pop sequence (a full packed-key merge of the two
/// tiers) is bit-identical to the uninterrupted agenda's. The fields are
/// public so an embedding engine can serialize them; treat the contents
/// as opaque otherwise.
#[derive(Clone, Debug)]
pub struct AgendaSnapshot<E> {
    /// Far-tier heap array, verbatim heap layout (not sorted).
    pub heap: Vec<PackedEvent>,
    /// Non-empty near buckets as `(bucket index, drain head, entries)`.
    /// Entries before the head already left the tier; they are retained
    /// so the restored bucket is byte-equal to the captured one.
    pub buckets: Vec<(u32, u32, Vec<PackedEvent>)>,
    /// Slot table, index-aligned with the captured agenda's.
    pub slots: Vec<SlotSnapshot<E>>,
    /// Free slot indices, in pop order (last entry is assigned next).
    pub free: Vec<u32>,
    /// Simulation clock at capture time.
    pub now: Time,
    /// Monotone scheduling sequence counter.
    pub seq: u64,
    /// Pending (non-cancelled) events across both tiers.
    pub live: u64,
    /// Live entries in the near tier.
    pub near_live: u64,
    /// Near-tier entries including tombstones.
    pub near_entries: u64,
    /// Far-tier tombstone count.
    pub far_dead: u64,
}

impl<E: Clone> Agenda<E> {
    /// Captures the agenda's complete state (see [`AgendaSnapshot`]).
    pub fn snapshot(&self) -> AgendaSnapshot<E> {
        AgendaSnapshot {
            heap: self.heap.entries().to_vec(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.entries.is_empty())
                .map(|(i, b)| (i as u32, b.head as u32, b.entries.clone()))
                .collect(),
            slots: self
                .slots
                .iter()
                .map(|s| SlotSnapshot {
                    generation: s.generation,
                    in_far: s.in_far,
                    payload: s.payload.clone(),
                })
                .collect(),
            free: self.free.clone(),
            now: self.now,
            seq: self.seq,
            live: self.live as u64,
            near_live: self.near_live as u64,
            near_entries: self.near_entries as u64,
            far_dead: self.far_dead as u64,
        }
    }

    /// Restores the agenda to a previously captured state, retaining
    /// allocations where possible. Everything scheduled since the capture
    /// is discarded; handles issued before the capture become exactly as
    /// valid as they were at capture time.
    pub fn restore(&mut self, snap: &AgendaSnapshot<E>) {
        self.heap.restore_from(&snap.heap);
        for b in &mut self.buckets {
            b.entries.clear();
            b.head = 0;
        }
        self.bits = [0; NEAR_WORDS];
        if !snap.buckets.is_empty() && self.buckets.is_empty() {
            self.buckets.resize_with(NEAR_BUCKETS, Bucket::default);
        }
        for &(i, head, ref entries) in &snap.buckets {
            let b = &mut self.buckets[i as usize];
            b.entries.extend_from_slice(entries);
            b.head = head as usize;
            self.bits[i as usize / 64] |= 1u64 << (i as usize % 64);
        }
        self.slots.truncate(snap.slots.len());
        for (dst, src) in self.slots.iter_mut().zip(&snap.slots) {
            dst.generation = src.generation;
            dst.in_far = src.in_far;
            dst.payload = src.payload.clone();
        }
        for src in &snap.slots[self.slots.len()..] {
            self.slots.push(Slot {
                generation: src.generation,
                in_far: src.in_far,
                payload: src.payload.clone(),
            });
        }
        self.free.clear();
        self.free.extend_from_slice(&snap.free);
        self.now = snap.now;
        self.seq = snap.seq;
        self.live = snap.live as usize;
        self.near_live = snap.near_live as usize;
        self.near_entries = snap.near_entries as usize;
        self.far_dead = snap.far_dead as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut a = Agenda::new();
        a.schedule(30, "c");
        a.schedule(10, "a");
        a.schedule(20, "b");
        assert_eq!(a.next(), Some((10, "a")));
        assert_eq!(a.next(), Some((20, "b")));
        assert_eq!(a.next(), Some((30, "c")));
        assert_eq!(a.next(), None);
        assert_eq!(a.now(), 30);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut a = Agenda::new();
        for i in 0..100 {
            a.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(a.next(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut a = Agenda::new();
        a.schedule(10, 1);
        assert_eq!(a.next(), Some((10, 1)));
        a.schedule(0, 2); // same instant is allowed
        assert_eq!(a.next(), Some((10, 2)));
        a.schedule(5, 3);
        assert_eq!(a.next(), Some((15, 3)));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut a = Agenda::new();
        a.schedule(10, 1);
        a.next();
        a.schedule_at(5, 2);
    }

    #[test]
    fn cancel_returns_payload_once() {
        let mut a = Agenda::new();
        let h = a.schedule(10, "x");
        assert_eq!(a.cancel(h), Some("x"));
        assert_eq!(a.cancel(h), None);
        assert_eq!(a.next(), None);
        assert!(a.is_empty());
    }

    #[test]
    fn stale_handle_after_fire() {
        let mut a = Agenda::new();
        let h = a.schedule(1, "x");
        assert!(a.is_pending(h));
        assert_eq!(a.next(), Some((1, "x")));
        assert!(!a.is_pending(h));
        assert_eq!(a.cancel(h), None);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_handles() {
        let mut a = Agenda::new();
        let h1 = a.schedule(10, 1);
        assert_eq!(a.cancel(h1), Some(1));
        // Force the tombstone out and reuse the slot.
        a.schedule(1, 2);
        assert_eq!(a.next(), Some((1, 2)));
        let _h2 = a.schedule(5, 3);
        // The old handle must stay dead even though its slot may be live
        // again.
        assert_eq!(a.cancel(h1), None);
        assert!(!a.is_pending(h1));
        assert_eq!(a.next(), Some((6, 3)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut a = Agenda::new();
        let h = a.schedule(5, 1);
        a.schedule(10, 2);
        a.cancel(h);
        assert_eq!(a.peek_time(), Some(10));
        assert_eq!(a.next(), Some((10, 2)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut a = Agenda::new();
        let h1 = a.schedule(1, 1);
        let _h2 = a.schedule(2, 2);
        assert_eq!(a.len(), 2);
        a.cancel(h1);
        assert_eq!(a.len(), 1);
        a.next();
        assert_eq!(a.len(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn purge_compacts_tombstone_heavy_tiers() {
        // Half the events land in the near window, half in the far heap;
        // cancelling almost all of them must compact BOTH tiers (neither
        // tier's tombstones may linger until pop time).
        let mut a = Agenda::new();
        let handles: Vec<_> = (0..1000u64)
            .map(|i| a.schedule(10 + i * 4, i)) // delays 10..4006 straddle the window
            .collect();
        for &h in &handles[..990] {
            a.cancel(h);
        }
        assert_eq!(a.len(), 10);
        assert!(
            a.heap_entries() <= 2 * a.len().max(64),
            "tiers kept {} entries for {} live events",
            a.heap_entries(),
            a.len()
        );
        // Cancelled handles stay dead, live events still fire in order,
        // and freed slots are reusable.
        assert_eq!(a.cancel(handles[0]), None);
        let h = a.schedule(1, 5000);
        assert_eq!(a.next(), Some((1, 5000)));
        assert!(!a.is_pending(h));
        let mut fired = Vec::new();
        while let Some((_, v)) = a.next() {
            fired.push(v);
        }
        assert_eq!(fired, (990..1000).collect::<Vec<_>>());
    }

    #[test]
    fn far_purge_is_heap_local() {
        // A tombstone-choked far heap must compact even while plenty of
        // near events stay live (the old global-ratio heuristic would
        // never fire here).
        let mut a = Agenda::new();
        for i in 0..500u64 {
            a.schedule(1 + (i % 800), i); // near tier, all live
        }
        let far: Vec<_> = (0..200u64).map(|i| a.schedule(5000 + i, i)).collect();
        for &h in &far[..199] {
            a.cancel(h);
        }
        assert!(
            a.heap_entries() <= 501 + 2 * 199,
            "far tombstones lingered: {} entries",
            a.heap_entries()
        );
        let mut fired = 0;
        while a.next().is_some() {
            fired += 1;
        }
        assert_eq!(fired, 501);
    }

    #[test]
    fn purge_preserves_cancel_reschedule_semantics() {
        // Heavy churn crossing the purge threshold repeatedly.
        let mut a = Agenda::new();
        let mut pending = Vec::new();
        for round in 0..20u64 {
            for i in 0..100u64 {
                pending.push(a.schedule(1000 + round * 100 + i, round * 100 + i));
            }
            // Cancel ~95% of what's pending.
            let keep = pending.len() / 20;
            for h in pending.drain(keep..) {
                a.cancel(h);
            }
        }
        let live = a.len();
        let mut fired = Vec::new();
        while let Some((t, v)) = a.next() {
            fired.push((t, v));
        }
        assert_eq!(fired.len(), live);
        assert!(fired.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
    }

    #[test]
    fn near_far_merge_preserves_global_seq_order() {
        // An event scheduled into the far heap early must still outrank a
        // near event scheduled later at the SAME time (smaller seq wins),
        // and vice versa — the tie-break must not depend on the tier.
        let mut a = Agenda::new();
        a.schedule(2000, "far-first"); // seq 1, far tier (2000 - 0 >= window)
        a.schedule(1500, "mid"); // seq 2, far tier
        assert_eq!(a.next(), Some((1500, "mid"))); // clock to 1500
        a.schedule_at(2000, "near-second"); // seq 3, near tier (500 out)
        assert_eq!(a.next(), Some((2000, "far-first")));
        assert_eq!(a.next(), Some((2000, "near-second")));
    }

    #[test]
    fn window_boundary_and_wraparound() {
        // Delays straddling the window boundary, popped across several
        // window generations, stay globally ordered.
        let mut a = Agenda::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..300u64 {
            let delay = (i * 37) % 2100; // 0..2100: near, boundary, far
            a.schedule_at(t + delay, (t + delay, i));
            expect.push((t + delay, i));
            if i % 5 == 0 {
                // Fire one event to advance the clock irregularly.
                if let Some((nt, _)) = a.next() {
                    t = nt;
                    expect.sort();
                    expect.remove(0);
                }
            }
        }
        expect.sort();
        let mut fired = Vec::new();
        while let Some((_, v)) = a.next() {
            fired.push(v);
        }
        assert_eq!(fired, expect);
    }

    #[test]
    fn bucket_reuse_across_epochs() {
        // The same bucket index serves time t and t + NEAR_BUCKETS once
        // the window slides; stale tombstones left in the bucket must not
        // confuse the new epoch's entries.
        let mut a = Agenda::new();
        let h = a.schedule(5, "old"); // bucket 5
        a.schedule(6, "live");
        a.cancel(h); // tombstone stays in bucket 5
        assert_eq!(a.next(), Some((6, "live")));
        // Clock at 6; schedule at 5 + NEAR_BUCKETS (same bucket index 5).
        let t2 = 5 + NEAR_BUCKETS as u64;
        a.schedule_at(t2, "new-epoch");
        assert_eq!(a.next(), Some((t2, "new-epoch")));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn horizon_boundary_lands_in_heap_tier() {
        // Regression guard for the ladder horizon off-by-one: an event
        // scheduled at exactly `now + NEAR_BUCKETS` must take the far
        // heap. If the boundary check ever became `>`, the entry would
        // wrap into bucket `now & (NEAR_BUCKETS-1)` — a bucket the clock
        // has already drained this epoch — and pop *before* nearer
        // events, breaking time order.
        let mut a = Agenda::new();
        a.schedule(5, 0u64);
        assert_eq!(a.next(), Some((5, 0))); // now = 5, bucket 5 drained
        let now = a.now();
        let w = NEAR_BUCKETS as u64;
        a.schedule_at(now + w, 2); // exactly at the horizon: far tier
        a.schedule_at(now + w - 1, 1); // last near bucket
        a.schedule_at(now + w + 1, 3); // past the horizon: far tier
        a.schedule_at(now + 1, 0); // front of the window
        assert_eq!(a.next(), Some((now + 1, 0)));
        assert_eq!(a.next(), Some((now + w - 1, 1)));
        assert_eq!(a.next(), Some((now + w, 2)));
        assert_eq!(a.next(), Some((now + w + 1, 3)));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn horizon_straddle_after_partial_drain() {
        // The drained-slot wrap scenario spelled out: drain deep into the
        // window, then schedule a batch straddling the (moved) horizon
        // and verify the merged order is globally sorted with schedule
        // order breaking ties.
        let mut a = Agenda::new();
        for i in 0..64u64 {
            a.schedule(1 + i * 13, i);
        }
        for _ in 0..48 {
            a.next();
        }
        let now = a.now();
        let w = NEAR_BUCKETS as u64;
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for (j, off) in [w, 0, w - 1, w + 7, 1, w, 2 * w, w - 1]
            .into_iter()
            .enumerate()
        {
            a.schedule_at(now + off, 1000 + j as u64);
            expect.push((now + off, 1000 + j as u64));
        }
        let mut fired = Vec::new();
        while let Some((t, v)) = a.next() {
            if v >= 1000 {
                fired.push((t, v));
            }
        }
        // Stable by time: equal times keep schedule order (monotone seq).
        expect.sort_by_key(|&(t, _)| t);
        assert_eq!(fired, expect);
    }

    #[test]
    fn snapshot_restore_is_exact_under_churn() {
        // Drive an agenda through schedule/cancel/pop churn, snapshot it
        // mid-flight, then check the restored copy pops the bit-identical
        // remaining sequence — into both a fresh agenda and a dirty
        // reused one.
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next_rng = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut a: Agenda<u64> = Agenda::new();
        let mut handles = Vec::new();
        for i in 0..600u64 {
            let r = next_rng();
            match r % 10 {
                0..=5 => {
                    let delay = r % 2300; // spans near, boundary, far
                    handles.push(a.schedule(delay, i));
                }
                6..=7 => {
                    if !handles.is_empty() {
                        let h = handles.swap_remove((r as usize / 16) % handles.len());
                        a.cancel(h);
                    }
                }
                _ => {
                    a.next();
                }
            }
        }
        let snap = a.snapshot();

        // Reference: drain the original to completion.
        let mut reference = Vec::new();
        while let Some(ev) = a.next() {
            reference.push(ev);
        }

        // Fresh restore.
        let mut fresh: Agenda<u64> = Agenda::new();
        fresh.restore(&snap);
        assert_eq!(fresh.now(), snap.now);
        assert_eq!(fresh.len() as u64, snap.live);
        let mut replayed = Vec::new();
        while let Some(ev) = fresh.next() {
            replayed.push(ev);
        }
        assert_eq!(replayed, reference);

        // Dirty-reuse restore: a workspace agenda mid-churn.
        let mut dirty: Agenda<u64> = Agenda::new();
        for i in 0..300u64 {
            let h = dirty.schedule(i % 1500, i);
            if i % 3 == 0 {
                dirty.cancel(h);
            }
            if i % 7 == 0 {
                dirty.next();
            }
        }
        dirty.restore(&snap);
        let mut replayed = Vec::new();
        while let Some(ev) = dirty.next() {
            replayed.push(ev);
        }
        assert_eq!(replayed, reference);
    }

    #[test]
    fn snapshot_preserves_handles_and_free_order() {
        let mut a: Agenda<&str> = Agenda::new();
        let _h0 = a.schedule(3, "fires");
        let h1 = a.schedule(50, "cancel-after-restore");
        let h2 = a.schedule(2000, "far-cancel-after-restore");
        let h3 = a.schedule(7, "stale");
        a.cancel(h3); // tombstone + freed generation before the capture
        let snap = a.snapshot();

        let mut b: Agenda<&str> = Agenda::new();
        b.restore(&snap);
        // Pre-capture handles stay exactly as valid as they were.
        assert!(b.is_pending(h1));
        assert!(b.is_pending(h2));
        assert!(!b.is_pending(h3));
        assert_eq!(b.cancel(h1), Some("cancel-after-restore"));
        assert_eq!(b.cancel(h2), Some("far-cancel-after-restore"));
        assert_eq!(b.cancel(h3), None);
        assert_eq!(b.next(), Some((3, "fires")));
        assert_eq!(b.next(), None);

        // Post-restore slot assignment draws the same free-list order as
        // the original would: schedule in both and compare raw handles.
        let mut c: Agenda<&str> = Agenda::new();
        c.restore(&snap);
        let ha = a.schedule(4, "x");
        let hc = c.schedule(4, "x");
        assert_eq!(ha.raw_parts(), hc.raw_parts());
    }

    #[test]
    fn reset_restores_fresh_semantics_and_keeps_capacity() {
        let mut a = Agenda::new();
        let handles: Vec<_> = (0..200u64).map(|i| a.schedule(10 + i * 10, i)).collect();
        for &h in &handles[..50] {
            a.cancel(h);
        }
        a.next();
        a.reset();
        assert_eq!(a.now(), 0);
        assert!(a.is_empty());
        assert_eq!(a.heap_entries(), 0);
        assert_eq!(a.next(), None);
        // Stale pre-reset handles must not resurrect post-reset events.
        let h = a.schedule(5, 999);
        for &old in &handles {
            assert_eq!(a.cancel(old), None);
        }
        assert!(a.is_pending(h));
        assert_eq!(a.next(), Some((5, 999)));
        // Full post-reset lifecycle still works.
        for i in 0..100u64 {
            a.schedule(i, i);
        }
        let mut fired = Vec::new();
        while let Some((_, v)) = a.next() {
            fired.push(v);
        }
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn generation_reuse_storm_across_wrap_boundary() {
        // Force slot 0's generation to the top of the u32 range, then run
        // a cancel/fire/reset storm across the wrap. Handles from before
        // each bump must stay dead, handles from after must stay live —
        // equality-only comparison means the wrap itself is invisible.
        let mut a: Agenda<u64> = Agenda::new();
        let h0 = a.schedule(1, 0);
        assert_eq!(a.cancel(h0), Some(0)); // slot 0 exists, tombstoned
        assert_eq!(a.next(), None); // tombstone skimmed, slot 0 free
        a.slots[0].generation = u32::MAX - 3;

        let mut stale: Vec<EventHandle> = Vec::new();
        for i in 0..8u64 {
            // Each round reuses slot 0 (the only free slot): schedule,
            // verify, then cancel — bumping the generation through
            // MAX-3, MAX-2, MAX-1, MAX, 0, 1, …
            let h = a.schedule(10 + i, i);
            assert_eq!(h.slot, 0, "storm must exercise one slot");
            assert!(a.is_pending(h));
            // Every previously issued handle must remain dead.
            for &old in &stale {
                assert!(!a.is_pending(old), "stale handle revived at round {i}");
                assert_eq!(a.cancel(old), None);
            }
            assert!(
                a.is_pending(h),
                "stale cancels must not kill the live event"
            );
            assert_eq!(a.cancel(h), Some(i));
            assert_eq!(a.next(), None); // drain the tombstone
            stale.push(h);
        }
        assert!(
            a.slots[0].generation < u32::MAX - 3,
            "generation must have wrapped, got {}",
            a.slots[0].generation
        );

        // Firing (not cancelling) across the boundary behaves the same.
        a.slots[0].generation = u32::MAX;
        let h = a.schedule(5, 99);
        assert_eq!(h.generation, u32::MAX);
        assert_eq!(a.next(), Some((5, 99)));
        assert_eq!(a.slots[0].generation, 0, "fire wraps MAX -> 0");
        assert!(!a.is_pending(h));
        assert_eq!(a.cancel(h), None);

        // reset() keeps using the same wrapping scheme.
        a.slots[0].generation = u32::MAX;
        let h = a.schedule(5, 7);
        a.reset();
        assert!(!a.is_pending(h));
        assert_eq!(a.cancel(h), None);
        let h2 = a.schedule(1, 8);
        assert_eq!(h2.generation, 0, "reset wraps MAX -> 0");
        assert_eq!(a.next(), Some((1, 8)));
    }

    #[test]
    fn interleaved_cancel_reschedule_storm() {
        // Emulates interruptible-communication churn: repeatedly cancel
        // and reschedule, checking order integrity throughout.
        let mut a = Agenda::new();
        let mut handles = Vec::new();
        for i in 0..50u64 {
            handles.push(a.schedule(100 + i, i));
        }
        // Cancel evens, reschedule them later.
        for (i, &h) in handles.iter().enumerate() {
            if i % 2 == 0 {
                let v = a.cancel(h).unwrap();
                a.schedule(200 + v, v);
            }
        }
        let mut fired = Vec::new();
        while let Some((_, v)) = a.next() {
            fired.push(v);
        }
        assert_eq!(fired.len(), 50);
        // Odds first (at 100+i), then evens (at 200+i), each in order.
        let odds: Vec<u64> = fired[..25].to_vec();
        assert!(odds.iter().all(|v| v % 2 == 1));
        assert!(odds.windows(2).all(|w| w[0] < w[1]));
        let evens: Vec<u64> = fired[25..].to_vec();
        assert!(evens.iter().all(|v| v % 2 == 0));
        assert!(evens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn matches_reference_model_under_random_churn() {
        // Differential test: the two-tier agenda against a sorted-vec
        // reference, under schedule/cancel/pop churn spanning both tiers.
        let mut a = Agenda::new();
        let mut reference: Vec<(u64, u64, u64)> = Vec::new(); // (time, seq, val)
        let mut handles: Vec<(EventHandle, u64)> = Vec::new(); // (handle, seq)
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut seq = 0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..5000u64 {
            match rng() % 10 {
                0..=5 => {
                    let delay = match rng() % 3 {
                        0 => rng() % 30,        // dense near
                        1 => 900 + rng() % 300, // boundary straddle
                        _ => rng() % 5000,      // anywhere
                    };
                    seq += 1;
                    let h = a.schedule(delay, step);
                    reference.push((a.now() + delay, seq, step));
                    handles.push((h, seq));
                }
                6..=7 => {
                    if !handles.is_empty() {
                        let k = (rng() % handles.len() as u64) as usize;
                        let (h, s) = handles.swap_remove(k);
                        let cancelled = a.cancel(h);
                        let pos = reference.iter().position(|&(_, rs, _)| rs == s);
                        match pos {
                            Some(p) => {
                                assert!(cancelled.is_some());
                                reference.remove(p);
                            }
                            None => assert!(cancelled.is_none()),
                        }
                    }
                }
                _ => {
                    reference.sort();
                    let expect = if reference.is_empty() {
                        None
                    } else {
                        let (t, _, v) = reference.remove(0);
                        Some((t, v))
                    };
                    assert_eq!(a.next(), expect, "divergence at step {step}");
                }
            }
            assert_eq!(a.len(), reference.len(), "live count at step {step}");
        }
        reference.sort();
        for &(t, _, v) in &reference {
            assert_eq!(a.next(), Some((t, v)));
        }
        assert_eq!(a.next(), None);
    }
}
