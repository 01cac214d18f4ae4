//! The completion timing wheel: in-flight (issued, not yet completed)
//! operations filed by completion cycle.
//!
//! Every modeled latency is small and bounded — the worst case is the
//! full miss path (L1 + L2 + L3 + memory, ≈260 cycles) — so a ring of
//! [`WHEEL_SLOTS`] buckets indexed by `done_at mod WHEEL_SLOTS` holds
//! every event less than one lap out, and the writeback stage drains
//! exactly one bucket per cycle in O(due) with no comparisons. This
//! replaces a `BinaryHeap` ordered by `(done_at, seq)`: the heap paid
//! `O(log n)` sift per push/pop and, worse, an `O(n)` rebuild on every
//! recovery to drop squashed entries. The wheel never removes on
//! recovery at all — squashed events stay in their buckets and are
//! rejected at drain time by the ROB's generation check (the same
//! staleness protocol the scheduler's wakeup handles use), which is
//! cheaper than eagerly filtering and keeps recovery O(squashed).

/// Where a completing load takes its value from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LoadSrc {
    /// Read functional memory at completion.
    Mem,
    /// Forwarded from an in-flight store.
    Fwd(u32),
}

/// One in-flight operation, filed under its completion cycle (24
/// bytes: the wheel holds every issued operation until it completes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inflight {
    /// Dispatch identity of the issuing instruction. Slots and sequence
    /// numbers are reused after a recovery, so a drained event only
    /// completes the live ROB entry whose generation still matches —
    /// a stale event for a squashed entry is dropped. Among live
    /// entries, uid order is age order.
    pub uid: u64,
    /// ROB slot of the issuing instruction.
    pub slot: u32,
    /// Load address, generated at issue (0 for non-loads): writeback
    /// reads it here instead of looking the load up in the LSQ.
    pub addr: u32,
    /// Load value source (`None` for non-loads).
    pub load_src: Option<LoadSrc>,
}

/// Bucket count; must exceed the largest modeled completion latency
/// (the full miss path is ≈260 cycles) and be a power of two.
const WHEEL_SLOTS: usize = 512;

/// The timing wheel itself.
#[derive(Debug)]
pub(crate) struct CompletionWheel {
    /// `buckets[done_at % WHEEL_SLOTS]`, drained once per cycle.
    buckets: Vec<Vec<Inflight>>,
    /// Events scheduled a full lap or more ahead, with their completion
    /// cycles (none of the modeled latencies reach this; kept so an
    /// oversized latency is merely slow instead of wrong).
    overflow: Vec<(u64, Inflight)>,
    /// Live event count, *including* squashed events not yet drained
    /// (diagnostics only — the watchdog report and debug snapshots).
    len: usize,
}

impl CompletionWheel {
    /// An empty wheel.
    pub fn new() -> CompletionWheel {
        CompletionWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Number of undrained events (squashed-but-undrained included).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Files an event due at `done_at`. `now` is the current cycle;
    /// `done_at` must be in the future (issue always schedules at least
    /// one cycle of latency).
    #[inline]
    pub fn push(&mut self, now: u64, done_at: u64, ev: Inflight) {
        debug_assert!(done_at > now);
        self.len += 1;
        if (done_at - now) as usize >= WHEEL_SLOTS {
            self.overflow.push((done_at, ev));
        } else {
            self.buckets[(done_at as usize) & (WHEEL_SLOTS - 1)].push(ev);
        }
    }

    /// Drains every event due at `now` into `out` (order unspecified —
    /// the writeback stage puts them in age order; they usually already
    /// are). Must be called
    /// for every cycle value exactly once, which the in-order `step()`
    /// loop guarantees.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Inflight>) {
        let bucket = &mut self.buckets[(now as usize) & (WHEEL_SLOTS - 1)];
        self.len -= bucket.len();
        out.append(bucket);
        if !self.overflow.is_empty() {
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].0 <= now {
                    out.push(self.overflow.swap_remove(i).1);
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Drops every event (the `LoseCompletion` injected fault). Bucket
    /// allocations are kept.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Files an event for ROB slot `slot` due at `done_at`.
    fn file(w: &mut CompletionWheel, now: u64, slot: u32, done_at: u64) {
        w.push(now, done_at, Inflight { uid: u64::from(slot), slot, addr: 0, load_src: None });
    }

    fn drain(w: &mut CompletionWheel, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.drain_due(now, &mut out);
        let mut slots: Vec<u32> = out.iter().map(|e| e.slot).collect();
        slots.sort_unstable();
        slots
    }

    #[test]
    fn inflight_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Inflight>(), 24);
    }

    #[test]
    fn events_fire_exactly_at_their_cycle() {
        let mut w = CompletionWheel::new();
        file(&mut w, 10, 1, 11);
        file(&mut w, 10, 2, 13);
        file(&mut w, 10, 3, 11);
        assert_eq!(w.len(), 3);
        assert_eq!(drain(&mut w, 11), vec![1, 3]);
        assert_eq!(drain(&mut w, 12), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 13), vec![2]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn wrap_around_keeps_laps_separate() {
        let mut w = CompletionWheel::new();
        // Two events one lap apart in wheel position but pushed at
        // times where each lands within its own horizon.
        file(&mut w, 0, 1, 5);
        assert_eq!(drain(&mut w, 5), vec![1]);
        let later = 5 + WHEEL_SLOTS as u64;
        file(&mut w, later - 3, 2, later);
        assert_eq!(drain(&mut w, later), vec![2]);
    }

    #[test]
    fn overflow_horizon_still_fires() {
        let mut w = CompletionWheel::new();
        let far = 10 + WHEEL_SLOTS as u64 * 2;
        file(&mut w, 10, 7, far);
        assert_eq!(w.len(), 1);
        // Nothing fires while the event is beyond the horizon.
        assert_eq!(drain(&mut w, far - 1), Vec::<u32>::new());
        assert_eq!(drain(&mut w, far), vec![7]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut w = CompletionWheel::new();
        file(&mut w, 0, 1, 3);
        file(&mut w, 0, 2, 1000);
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(drain(&mut w, 3), Vec::<u32>::new());
    }
}
