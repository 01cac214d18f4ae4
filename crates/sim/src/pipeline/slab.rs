//! Slab primitives for the data-oriented pipeline core: generational
//! slot handles and packed slot bitsets.
//!
//! The ROB and LSQ are structure-of-arrays ring slabs (see [`super::rob`]
//! and [`super::lsq`]); structures that need to refer to an individual
//! in-flight instruction *across* cycles (the scheduler's wakeup lists)
//! do so through a [`SlotHandle`]: a slot index plus the generation the
//! slab stamped on that slot when the entry was pushed. Slots are
//! recycled aggressively (sequence numbers rewind on recovery), so a
//! handle is only honoured when its generation still matches — a stale
//! handle to a squashed-and-reused slot is rejected instead of touching
//! the wrong instruction.

/// A generational reference to a slab slot.
///
/// `gen` is the dispatch identity (`uid`) of the entry the handle was
/// created for; uids are never reused, so `gen` equality identifies
/// "the same dynamic instruction" even though `slot` indices and
/// sequence numbers are both recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotHandle {
    /// Physical slot index in the slab.
    pub slot: u32,
    /// Generation stamped on the slot when this handle was issued.
    pub gen: u64,
}

/// A packed bitset over slab slots.
///
/// Backs the scheduler's ready set (one bit per ROB slot) and supports
/// the age-ordered select walk ([`RingWalk`]): set bits are enumerated
/// in *ring* order starting from the ROB head slot, which — because ROB
/// sequence numbers are contiguous and slots are `seq mod capacity` —
/// is exactly ascending age. Scanning packed words with
/// `trailing_zeros`/`w &= w - 1` replaces the old sorted-`Vec`
/// insert/remove (each an `O(n)` memmove) with `O(1)` bit flips.
#[derive(Debug, Clone)]
pub(crate) struct SlotBits {
    words: Box<[u64]>,
}

impl SlotBits {
    /// An empty bitset covering `cap` slots (rounded up to whole
    /// 64-bit words).
    pub fn new(cap: usize) -> SlotBits {
        SlotBits { words: vec![0u64; cap.div_ceil(64).max(1)].into_boxed_slice() }
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// True when no bit is set.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A lazy walk over the set bits of a [`SlotBits`] in ring order from
/// a start slot: `start, start+1, …, cap-1, 0, …, start-1`. With
/// `start` = the ROB head slot this is ascending sequence-number (age)
/// order, the select order the scheduler contract requires.
///
/// The walk copies one word at a time, when it reaches it, and yields
/// one slot per [`RingWalk::next`] call, so select stops scanning as
/// soon as its issue budget is spent. It reads the bitset as it was
/// when the walk began as long as the caller only clears bits it has
/// already been handed (select clears the slot it issues).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingWalk {
    /// Set bits of the current word not yet yielded.
    word: u64,
    /// Index of the current word.
    wi: usize,
    /// Words still to load; the last is the start word again.
    left: usize,
    /// The start word's bits below `start`, walked last.
    below_start: u64,
}

impl RingWalk {
    /// A walk over `bits` starting at slot `start`.
    pub fn new(bits: &SlotBits, start: usize) -> RingWalk {
        let (wi, sb) = (start / 64, start % 64);
        RingWalk {
            word: bits.words[wi] & (u64::MAX << sb),
            wi,
            left: bits.words.len(),
            below_start: !(u64::MAX << sb),
        }
    }

    /// The next set slot in ring order, or `None` once the walk is back
    /// at its start.
    #[inline]
    pub fn next(&mut self, bits: &SlotBits) -> Option<usize> {
        while self.word == 0 {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            self.wi = if self.wi + 1 == bits.words.len() { 0 } else { self.wi + 1 };
            self.word = bits.words[self.wi];
            if self.left == 0 {
                self.word &= self.below_start;
            }
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.wi * 64 + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_get() {
        let mut b = SlotBits::new(200);
        assert!(b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(199);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(199));
        assert!(!b.get(1) && !b.get(198));
        b.clear(63);
        assert!(!b.get(63));
        assert!(!b.is_empty());
        b.clear_all();
        assert!(b.is_empty());
    }

    /// The first `k` slots of the walk from `start`.
    fn walked(bits: &SlotBits, start: usize, k: usize) -> Vec<u32> {
        let mut walk = RingWalk::new(bits, start);
        (0..k).map_while(|_| walk.next(bits)).map(|s| s as u32).collect()
    }

    fn collected(bits: &SlotBits, start: usize) -> Vec<u32> {
        walked(bits, start, usize::MAX)
    }

    #[test]
    fn ring_order_from_zero_is_ascending() {
        let mut b = SlotBits::new(256);
        for i in [3usize, 64, 65, 130, 255] {
            b.set(i);
        }
        assert_eq!(collected(&b, 0), vec![3, 64, 65, 130, 255]);
    }

    #[test]
    fn ring_order_wraps_at_start() {
        let mut b = SlotBits::new(128);
        for i in [2usize, 63, 70, 100] {
            b.set(i);
        }
        // Start inside the set: everything >= 70 first, then the wrap.
        assert_eq!(collected(&b, 70), vec![70, 100, 2, 63]);
        // Start on a word boundary.
        assert_eq!(collected(&b, 64), vec![70, 100, 2, 63]);
        // Start just past a set bit excludes it until the wrap.
        assert_eq!(collected(&b, 71), vec![100, 2, 63, 70]);
    }

    #[test]
    fn ring_order_exhaustive_small() {
        // Cross-check the word-scanning walk against a naive loop for
        // every start position over a fixed pattern.
        let cap = 192;
        let mut b = SlotBits::new(cap);
        for i in (0..cap).filter(|i| i % 7 == 0 || i % 31 == 3) {
            b.set(i);
        }
        for start in 0..cap {
            let naive: Vec<u32> =
                (0..cap).map(|k| ((start + k) % cap) as u32).filter(|&s| b.get(s as usize)).collect();
            assert_eq!(collected(&b, start), naive, "start={start}");
            // Stopping after k visits (select's budget running out)
            // yields exactly the first k slots of the full walk.
            for k in 0..=naive.len() {
                assert_eq!(walked(&b, start, k), naive[..k], "start={start} k={k}");
            }
        }
    }

    #[test]
    fn walk_ignores_bits_cleared_behind_it() {
        // Select clears each slot it issues; the rest of the walk is
        // the ready set as it was when the walk began.
        let cap = 256;
        let mut b = SlotBits::new(cap);
        for i in [5usize, 64, 200, 201, 3] {
            b.set(i);
        }
        let mut walk = RingWalk::new(&b, 200);
        let mut seen = Vec::new();
        while let Some(s) = walk.next(&b) {
            b.clear(s);
            seen.push(s);
        }
        assert_eq!(seen, vec![200, 201, 3, 5, 64]);
        assert!(b.is_empty());
    }
}
