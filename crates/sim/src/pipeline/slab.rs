//! Slab primitives for the data-oriented pipeline core: generational
//! slot handles, packed slot bitsets with word-wide ring-range updates,
//! and a fixed power-of-two FIFO ring.
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
///
/// The set is also a ring of `len` slots: [`SlotBits::set_range`] and
/// [`SlotBits::clear_range`] update a run of consecutive slots that may
/// wrap from slot `len - 1` to slot 0 a 64-bit word at a time, which is
/// how recovery clears a squashed ROB range and marks STRAIGHT's
/// squashed RP range ready.
#[derive(Debug, Clone)]
pub(crate) struct SlotBits {
    words: Box<[u64]>,
    /// Ring length in slots (the range operations wrap here).
    len: usize,
}

impl SlotBits {
    /// An empty bitset covering `cap` slots (rounded up to whole
    /// 64-bit words).
    pub fn new(cap: usize) -> SlotBits {
        SlotBits { words: vec![0u64; cap.div_ceil(64).max(1)].into_boxed_slice(), len: cap }
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

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets the `n` ring-consecutive slots `start, start + 1, …`
    /// (wrapping at the ring length).
    #[inline]
    pub fn set_range(&mut self, start: usize, n: usize) {
        self.ring_range(start, n, |w, m| *w |= m);
    }

    /// Clears the `n` ring-consecutive slots `start, start + 1, …`
    /// (wrapping at the ring length).
    #[inline]
    pub fn clear_range(&mut self, start: usize, n: usize) {
        self.ring_range(start, n, |w, m| *w &= !m);
    }

    /// Applies `f(word, mask)` over a ring range: at most two linear
    /// runs, one before the wrap and one after it.
    #[inline]
    fn ring_range(&mut self, start: usize, n: usize, f: impl Fn(&mut u64, u64)) {
        debug_assert!(start < self.len && n <= self.len, "range {start}+{n} on a {}-slot ring", self.len);
        let first = n.min(self.len - start);
        self.linear_range(start, start + first, &f);
        self.linear_range(0, n - first, &f);
    }

    /// Applies `f(word, mask)` to the words covering slots `lo..hi`,
    /// each with the mask of its slots in the run.
    #[inline]
    fn linear_range(&mut self, lo: usize, hi: usize, f: &impl Fn(&mut u64, u64)) {
        if lo >= hi {
            return;
        }
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        let lo_mask = u64::MAX << (lo % 64);
        let hi_mask = u64::MAX >> (63 - (hi - 1) % 64);
        if wl == wh {
            f(&mut self.words[wl], lo_mask & hi_mask);
            return;
        }
        f(&mut self.words[wl], lo_mask);
        for w in &mut self.words[wl + 1..wh] {
            f(w, u64::MAX);
        }
        f(&mut self.words[wh], hi_mask);
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

/// A FIFO ring of `Copy` values over a power-of-two buffer, so the wrap
/// is a mask. The SS free list and the front-end queue use it: both are
/// bounded by the machine (every physical register; the front-end
/// depth), so the buffer is sized once. A push onto a full ring doubles
/// the buffer instead of overwriting, which no modeled structure does.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    buf: Box<[T]>,
    head: usize,
    len: usize,
}

impl<T: Copy + Default> Ring<T> {
    /// An empty ring holding at least `cap` values before it grows.
    pub fn with_capacity(cap: usize) -> Ring<T> {
        Ring { buf: vec![T::default(); cap.next_power_of_two().max(1)].into_boxed_slice(), head: 0, len: 0 }
    }

    /// Number of queued values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The oldest value.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    /// Appends a value at the back.
    #[inline]
    pub fn push_back(&mut self, v: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let i = (self.head + self.len) & (self.buf.len() - 1);
        self.buf[i] = v;
        self.len += 1;
    }

    /// Removes and returns the oldest value.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        Some(v)
    }

    /// Drops every value.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The queued values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(|k| self.buf[(self.head + k) & (self.buf.len() - 1)])
    }

    /// Doubles the buffer, moving the queued values to its start.
    #[cold]
    fn grow(&mut self) {
        let mut buf: Vec<T> = self.iter().collect();
        buf.resize(2 * self.buf.len(), T::default());
        self.buf = buf.into_boxed_slice();
        self.head = 0;
    }
}

/// Rings are equal when they queue the same values in the same order,
/// wherever those sit in the buffer.
impl<T: Copy + Default + PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Ring<T>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
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

    /// The word-wide ring-range updates agree with a naive per-slot
    /// loop at every start and length, wrap included, on ROB-sized
    /// sets and on a 96-register file whose ring ends mid-word.
    #[test]
    fn ring_ranges_match_a_naive_loop() {
        for cap in [64usize, 128, 256, 96] {
            // A background pattern, so a range that touches a slot it
            // should not shows up in either direction.
            let mut base = SlotBits::new(cap);
            for i in (0..cap).filter(|i| i % 3 == 0 || i % 11 == 5) {
                base.set(i);
            }
            for start in 0..cap {
                for n in 0..=cap {
                    let (mut set, mut cleared) = (base.clone(), base.clone());
                    set.set_range(start, n);
                    cleared.clear_range(start, n);
                    let (mut set_ref, mut cleared_ref) = (base.clone(), base.clone());
                    for k in 0..n {
                        set_ref.set((start + k) % cap);
                        cleared_ref.clear((start + k) % cap);
                    }
                    assert_eq!(set.words, set_ref.words, "set cap={cap} start={start} n={n}");
                    assert_eq!(cleared.words, cleared_ref.words, "clear cap={cap} start={start} n={n}");
                    let ones = (0..cap).filter(|&i| set_ref.get(i)).count();
                    assert_eq!(set.count_ones(), ones, "count cap={cap} start={start} n={n}");
                }
            }
        }
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

    /// A small seeded generator for the ring tests (xorshift64*).
    fn next_rand(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Under seeded random pushes, pops and clears, the ring queues the
    /// same values as a `VecDeque`, across wraps and growth: sized like
    /// a 2-way free list (64 values) and like a front-end queue (16
    /// entries of a 32-byte struct).
    #[test]
    fn rings_match_a_vecdeque_under_random_push_pop() {
        use std::collections::VecDeque;

        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Entry {
            ready_at: u64,
            pc: u32,
            slot: u32,
            predicted_next: u32,
            cp: u64,
        }

        fn check<T: Copy + Default + PartialEq + std::fmt::Debug>(
            cap: usize,
            seed: u64,
            make: impl Fn(u64) -> T,
        ) {
            let mut state = seed;
            let (mut ring, mut reference) = (Ring::<T>::with_capacity(cap), VecDeque::new());
            for step in 0..20_000 {
                let r = next_rand(&mut state);
                // Pushes outnumber pops until the ring is full, so it
                // wraps at its capacity; past it a rare push overfills
                // it and it grows.
                let push_odds = if reference.len() < cap { 8 } else { 1 };
                if r % 16 < push_odds {
                    let v = make(r);
                    ring.push_back(v);
                    reference.push_back(v);
                } else if r % 16 < 15 {
                    assert_eq!(ring.pop_front(), reference.pop_front(), "seed {seed} step {step}");
                } else if r % 512 == 15 {
                    ring.clear();
                    reference.clear();
                }
                assert_eq!(ring.len(), reference.len(), "seed {seed} step {step}");
                assert_eq!(ring.front(), reference.front(), "seed {seed} step {step}");
            }
            assert!(ring.iter().eq(reference.iter().copied()), "seed {seed}");
        }

        for seed in 1..=8u64 {
            check(64, seed, |r| r as u16);
            check(16, seed, |r| Entry {
                ready_at: r,
                pc: r as u32,
                slot: (r >> 32) as u32,
                predicted_next: (r >> 16) as u32,
                cp: !r,
            });
        }
    }
}
