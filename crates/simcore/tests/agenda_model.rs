//! Model-based test of the agenda: the production [`Agenda`] (bucket
//! calendar plus packed-key 4-ary heap, tombstone cancellation,
//! slot/generation recycling) against a deliberately naive reference — a
//! sorted `Vec` of `(time, seq)` entries with none of those mechanisms.
//!
//! The interleavings are weighted to stress exactly the machinery the
//! reference lacks: cancel storms that leave tombstones behind, slot
//! reuse after fire/cancel (generation bumps), and mid-stream `reset()`.

use bc_simcore::Agenda;
use proptest::prelude::*;

/// The reference: entries sorted by (time, seq); cancellation removes the
/// entry outright, so there are no tombstones, slots, or generations to
/// get wrong.
#[derive(Default)]
struct ModelAgenda {
    /// `(time, seq, value)`, kept sorted ascending.
    entries: Vec<(u64, u64, u64)>,
    /// Due times of cancelled events: the real agenda may still hold
    /// them as tombstones, but never once they are due.
    cancelled: Vec<u64>,
    now: u64,
    seq: u64,
}

impl ModelAgenda {
    fn schedule(&mut self, delay: u64, value: u64) -> u64 {
        self.seq += 1;
        let key = (self.now + delay, self.seq, value);
        let pos = self.entries.partition_point(|e| *e < key);
        self.entries.insert(pos, key);
        self.seq
    }

    fn cancel(&mut self, seq: u64) -> Option<u64> {
        let i = self.entries.iter().position(|e| e.1 == seq)?;
        let (time, _, value) = self.entries.remove(i);
        self.cancelled.push(time);
        Some(value)
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.entries.is_empty() {
            return None;
        }
        let (time, _, value) = self.entries.remove(0);
        self.now = time;
        Some((time, value))
    }

    /// Scheduled events not yet fired and not yet due (`time >= now`),
    /// cancelled ones included: the most entries the real agenda may
    /// retain.
    fn not_yet_due(&self) -> usize {
        let cancelled = self.cancelled.iter().filter(|&&t| t >= self.now).count();
        self.entries.len() + cancelled
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.cancelled.clear();
        self.now = 0;
        self.seq = 0;
    }
}

/// Entries the real agenda retains, live plus tombstones, read off a
/// snapshot: the heap length plus each bucket's entries after its drain
/// head.
fn retained(a: &Agenda<u64>) -> usize {
    let s = a.snapshot();
    let near: usize = s
        .buckets
        .iter()
        .map(|(_, head, e)| e.len() - *head as usize)
        .sum();
    s.heap.len() + near
}

#[derive(Clone, Debug)]
enum Op {
    Schedule {
        delay: u64,
    },
    /// Cancel the pending handle at this (wrapped) index.
    Cancel {
        pick: usize,
    },
    /// Re-cancel an old, already-dead handle: must be a no-op even if the
    /// slot has been recycled by later schedules (generation reuse).
    CancelStale {
        pick: usize,
    },
    Pop,
    /// Schedule `n` events then cancel them all, leaving `n` tombstones.
    CancelStorm {
        n: usize,
    },
    Reset,
}

/// Decodes a weighted `(code, arg)` pair into an op: 8/22 schedule (a
/// quarter of them past the near window, into the far heap), 4/22
/// cancel, 2/22 stale cancel, 6/22 pop, 1/22 storm, 1/22 reset.
fn decode(code: u8, arg: u64) -> Op {
    match code {
        0..=5 => Op::Schedule { delay: arg },
        6..=7 => Op::Schedule {
            delay: 1000 + arg * 40,
        },
        8..=11 => Op::Cancel { pick: arg as usize },
        12..=13 => Op::CancelStale { pick: arg as usize },
        14..=19 => Op::Pop,
        20 => Op::CancelStorm {
            n: 65 + (arg as usize) % 135,
        },
        _ => Op::Reset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn agenda_matches_sorted_vec_model(raw in prop::collection::vec((0u8..22, 0u64..100), 1..120)) {
        let ops = raw.into_iter().map(|(code, arg)| decode(code, arg));
        let mut real: Agenda<u64> = Agenda::new();
        let mut model = ModelAgenda::default();
        // Parallel arrays: real handle and model seq for each live-ish
        // scheduled event; dead ones move to `stale`.
        let mut handles = Vec::new();
        let mut stale = Vec::new();
        let mut next_value = 0u64;

        for op in ops {
            match op {
                Op::Schedule { delay } => {
                    next_value += 1;
                    let h = real.schedule(delay, next_value);
                    let m = model.schedule(delay, next_value);
                    handles.push((h, m));
                }
                Op::Cancel { pick } if !handles.is_empty() => {
                    let i = pick % handles.len();
                    let (h, m) = handles.swap_remove(i);
                    prop_assert_eq!(real.cancel(h), model.cancel(m));
                    stale.push(h);
                }
                Op::CancelStale { pick } if !stale.is_empty() => {
                    let h = stale[pick % stale.len()];
                    // However the slot was recycled since, the old handle
                    // must stay dead.
                    prop_assert_eq!(real.cancel(h), None);
                    prop_assert!(!real.is_pending(h));
                }
                Op::Cancel { .. } | Op::CancelStale { .. } => {}
                Op::Pop => {
                    prop_assert_eq!(real.next(), model.next());
                    prop_assert_eq!(real.now(), model.now);
                }
                Op::CancelStorm { n } => {
                    let mut storm = Vec::with_capacity(n);
                    for _ in 0..n {
                        next_value += 1;
                        let h = real.schedule(50, next_value);
                        let m = model.schedule(50, next_value);
                        storm.push((h, m));
                    }
                    for (h, m) in storm {
                        prop_assert_eq!(real.cancel(h), model.cancel(m));
                        stale.push(h);
                    }
                    // Tombstones wait to be reached, but never past their
                    // due time.
                    prop_assert!(
                        retained(&real) <= model.not_yet_due(),
                        "agenda retained {} entries for {} events not yet due",
                        retained(&real),
                        model.not_yet_due()
                    );
                }
                Op::Reset => {
                    real.reset();
                    model.reset();
                    stale.extend(handles.drain(..).map(|(h, _)| h));
                }
            }
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert_eq!(real.is_empty(), model.entries.is_empty());
            prop_assert!(retained(&real) <= model.not_yet_due());
        }

        // Drain to the end: identical tails.
        loop {
            let a = real.next();
            let b = model.next();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
