//! The load/store queue as two structure-of-arrays ring slabs.
//!
//! Loads and stores live in separate age-ordered rings (both ascending
//! by sequence number), so occupancy checks are O(1) and the ordered
//! scans (older stores for a load, younger loads for a store) walk only
//! the relevant half with early exit. Each field is a flat column: the
//! hot forwarding scan streams over `seq`/`addr` words instead of
//! striding 40-byte entries, and optional fields (`addr`, `data`,
//! `fwd_src`) are split into a value column plus a presence flag so the
//! scan reads no stale payloads.
//!
//! An entry is found by index, not by sequence number: dispatch keeps
//! the physical index [`LsqRing::push_back`] returns in the ROB's
//! `lsq_idx` column, and an index stays valid while its entry lives,
//! because entries leave only from the front at commit (commit retires
//! in order, so the committing memory op is always the oldest in its
//! ring) and by tail truncation at recovery. Nothing is ever removed
//! from the middle, so no entry moves.

use straight_isa::MemWidth;

/// Byte-interval overlap of two accesses. Ends are computed in u64:
/// an access butting against the top of the 32-bit address space
/// (e.g. a wrong-path wild store at `0xffff_ffff`) must not wrap its
/// end around to a small value — a wrapped end of 0 made such an
/// access overlap nothing, silently skipping forwarding/violation
/// checks against it.
#[inline]
pub(crate) fn overlap(a_addr: u32, a_w: MemWidth, b_addr: u32, b_w: MemWidth) -> bool {
    let a_end = u64::from(a_addr) + u64::from(a_w.bytes());
    let b_end = u64::from(b_addr) + u64::from(b_w.bytes());
    u64::from(a_addr) < b_end && u64::from(b_addr) < a_end
}

/// Result of the older-store scan a load performs at issue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OlderStoreScan {
    /// Some older store has not generated its address yet.
    pub unknown_older: bool,
    /// The load cannot issue this cycle: an older overlapping store
    /// either partially overlaps (must drain at commit) or fully
    /// matches with its data still pending.
    pub blocked: bool,
    /// Youngest older fully-matching store with data available, as
    /// `(seq, data)` — the store-to-load forwarding source.
    pub best: Option<(u64, u32)>,
}

/// A borrowed view of one LSQ entry, assembled from the columns.
/// Returned by [`LsqRing::pop_front`] for the commit-time drain; the
/// identity fields are read only by the test-gated visitors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LsqRef {
    #[cfg_attr(not(test), allow(dead_code))]
    pub seq: u64,
    pub pc: u32,
    pub width: MemWidth,
    pub addr: Option<u32>,
    pub data: Option<u32>,
    pub speculative: bool,
    #[cfg_attr(not(test), allow(dead_code))]
    pub fwd_src: Option<u64>,
}

/// One age-ordered ring (loads or stores) in structure-of-arrays form.
#[derive(Debug)]
pub(crate) struct LsqRing {
    mask: usize,
    head: usize,
    len: usize,
    seq: Box<[u64]>,
    pc: Box<[u32]>,
    width: Box<[MemWidth]>,
    addr: Box<[u32]>,
    addr_known: Box<[bool]>,
    data: Box<[u32]>,
    data_known: Box<[bool]>,
    speculative: Box<[bool]>,
    fwd_src: Box<[u64]>,
    fwd_known: Box<[bool]>,
}

impl LsqRing {
    fn new(capacity: usize) -> LsqRing {
        let cap = capacity.next_power_of_two().max(4);
        LsqRing {
            mask: cap - 1,
            head: 0,
            len: 0,
            seq: vec![0u64; cap].into_boxed_slice(),
            pc: vec![0u32; cap].into_boxed_slice(),
            width: vec![MemWidth::W; cap].into_boxed_slice(),
            addr: vec![0u32; cap].into_boxed_slice(),
            addr_known: vec![false; cap].into_boxed_slice(),
            data: vec![0u32; cap].into_boxed_slice(),
            data_known: vec![false; cap].into_boxed_slice(),
            speculative: vec![false; cap].into_boxed_slice(),
            fwd_src: vec![0u64; cap].into_boxed_slice(),
            fwd_known: vec![false; cap].into_boxed_slice(),
        }
    }

    /// Occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Physical index of logical position `pos` (0 = oldest).
    #[inline]
    fn at(&self, pos: usize) -> usize {
        (self.head + pos) & self.mask
    }

    /// Appends a fresh entry (dispatch) and returns its physical index,
    /// which stays valid until the entry leaves the ring. Sequence
    /// numbers must arrive ascending, which dispatch order guarantees.
    pub fn push_back(&mut self, seq: u64, pc: u32, width: MemWidth) -> u32 {
        debug_assert!(self.len <= self.mask, "LSQ ring overfull");
        debug_assert!(self.len == 0 || self.seq[self.at(self.len - 1)] < seq);
        let i = self.at(self.len);
        self.seq[i] = seq;
        self.pc[i] = pc;
        self.width[i] = width;
        self.addr_known[i] = false;
        self.data_known[i] = false;
        self.speculative[i] = false;
        self.fwd_known[i] = false;
        self.len += 1;
        i as u32
    }

    /// True when physical index `i` holds a live entry.
    #[inline]
    fn is_live(&self, i: usize) -> bool {
        i.wrapping_sub(self.head) & self.mask < self.len
    }

    /// Sequence number of the live entry at index `i` (`None` when the
    /// index is outside the live window): the recovery guard checks a
    /// ROB entry's stored index against it.
    #[cfg(any(test, debug_assertions))]
    pub fn seq_at(&self, i: u32) -> Option<u64> {
        let i = i as usize;
        (i <= self.mask && self.is_live(i)).then(|| self.seq[i])
    }

    /// Assembles a full view of the entry for `seq`.
    #[cfg(test)]
    pub fn get(&self, seq: u64) -> Option<LsqRef> {
        (0..self.len).map(|pos| self.at(pos)).find(|&i| self.seq[i] == seq).map(|i| self.view(i))
    }

    #[inline]
    fn view(&self, i: usize) -> LsqRef {
        LsqRef {
            seq: self.seq[i],
            pc: self.pc[i],
            width: self.width[i],
            addr: self.addr_known[i].then(|| self.addr[i]),
            data: self.data_known[i].then(|| self.data[i]),
            speculative: self.speculative[i],
            fwd_src: self.fwd_known[i].then(|| self.fwd_src[i]),
        }
    }

    /// True when the entry at index `i` has generated its address.
    #[inline]
    pub fn addr_known(&self, i: u32) -> bool {
        debug_assert!(self.is_live(i as usize), "LSQ index {i} is not live");
        self.addr_known[i as usize]
    }

    /// The forwarding decision for a load of `addr`/`width` with
    /// sequence number `seq` against all older stores (this must be
    /// the store ring). Equivalent to a [`LsqRing::for_each_older`]
    /// walk, but reads the scanned columns directly — the hot
    /// store-to-load forwarding path materializes no entry views.
    pub fn scan_older_stores(&self, seq: u64, addr: u32, width: MemWidth) -> OlderStoreScan {
        let mut scan = OlderStoreScan { unknown_older: false, blocked: false, best: None };
        for pos in 0..self.len {
            let i = self.at(pos);
            if self.seq[i] >= seq {
                break;
            }
            if !self.addr_known[i] {
                scan.unknown_older = true;
                continue;
            }
            let (sa, sw) = (self.addr[i], self.width[i]);
            if !overlap(sa, sw, addr, width) {
                continue;
            }
            if sa == addr && sw == width && self.data_known[i] {
                // Forwardable full match; the ring ascends, so the
                // youngest match wins by overwriting.
                scan.best = Some((self.seq[i], self.data[i]));
            } else {
                // Partial overlap (must drain at commit) or data
                // still pending: the load cannot issue this cycle.
                scan.blocked = true;
                return scan;
            }
        }
        scan
    }

    /// The oldest younger executed load whose address overlaps a store
    /// of `addr`/`width` at `seq` (this must be the load ring),
    /// returning its `(seq, pc)` — the memory-order violation victim.
    /// Loads that forwarded from a store *younger* than `seq` already
    /// read the correct, newer value and are skipped.
    pub fn find_violation_victim(&self, seq: u64, addr: u32, width: MemWidth) -> Option<(u64, u32)> {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.seq[self.at(mid)] <= seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        for pos in lo..self.len {
            let i = self.at(pos);
            if self.addr_known[i]
                && overlap(addr, width, self.addr[i], self.width[i])
                && (!self.fwd_known[i] || self.fwd_src[i] < seq)
            {
                return Some((self.seq[i], self.pc[i]));
            }
        }
        None
    }

    /// Records a store's generated address at index `i`.
    #[inline]
    pub fn set_addr(&mut self, i: u32, addr: u32) {
        let i = i as usize;
        debug_assert!(self.is_live(i), "LSQ index {i} is not live");
        self.addr[i] = addr;
        self.addr_known[i] = true;
    }

    /// Records a store's data at index `i` once its value operand is
    /// ready.
    #[inline]
    pub fn set_data(&mut self, i: u32, data: u32) {
        let i = i as usize;
        debug_assert!(self.is_live(i), "LSQ index {i} is not live");
        self.data[i] = data;
        self.data_known[i] = true;
    }

    /// Records a load's execution bookkeeping at index `i`: address,
    /// whether older store addresses were still unknown, and the
    /// forwarding source.
    #[inline]
    pub fn set_load_exec(&mut self, i: u32, addr: u32, speculative: bool, fwd_src: Option<u64>) {
        let i = i as usize;
        debug_assert!(self.is_live(i), "LSQ index {i} is not live");
        self.addr[i] = addr;
        self.addr_known[i] = true;
        self.speculative[i] = speculative;
        match fwd_src {
            Some(s) => {
                self.fwd_src[i] = s;
                self.fwd_known[i] = true;
            }
            None => self.fwd_known[i] = false,
        }
    }

    /// Removes the oldest entry, which must be `seq`'s, and returns its
    /// view. Commit retires in order, so the committing memory op is
    /// always at the front; `None` (and a debug assertion) otherwise.
    pub fn pop_front(&mut self, seq: u64) -> Option<LsqRef> {
        debug_assert!(self.len > 0 && self.seq[self.head] == seq, "LSQ front is not seq {seq}");
        if self.len == 0 || self.seq[self.head] != seq {
            return None;
        }
        let out = self.view(self.head);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(out)
    }

    /// Drops every entry younger than `boundary` (recovery).
    pub fn squash_younger(&mut self, boundary: u64) {
        while self.len > 0 && self.seq[self.at(self.len - 1)] > boundary {
            self.len -= 1;
        }
    }

    /// Iterates entries older than `seq` in age order (oldest first).
    /// The ring is ascending, so this is a prefix walk with early
    /// exit. The pipeline's own scans use the specialized column
    /// walks ([`LsqRing::scan_older_stores`] and friends); this
    /// generic visitor remains for tests.
    #[cfg(test)]
    pub fn for_each_older(&self, seq: u64, mut f: impl FnMut(LsqRef) -> bool) {
        for pos in 0..self.len {
            let i = self.at(pos);
            if self.seq[i] >= seq {
                break;
            }
            if !f(self.view(i)) {
                break;
            }
        }
    }

    /// Iterates entries younger than `seq` in age order (oldest
    /// first), starting at the first younger position via binary
    /// search. Like [`LsqRing::for_each_older`], tests only.
    #[cfg(test)]
    pub fn for_each_younger(&self, seq: u64, mut f: impl FnMut(LsqRef) -> bool) {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.seq[self.at(mid)] <= seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        for pos in lo..self.len {
            if !f(self.view(self.at(pos))) {
                break;
            }
        }
    }
}

/// The split load/store queue.
#[derive(Debug)]
pub(crate) struct LsqSlab {
    /// Load ring.
    pub loads: LsqRing,
    /// Store ring.
    pub stores: LsqRing,
}

impl LsqSlab {
    /// Rings sized for the configured load/store queue capacities.
    pub fn new(ld_capacity: usize, st_capacity: usize) -> LsqSlab {
        LsqSlab { loads: LsqRing::new(ld_capacity), stores: LsqRing::new(st_capacity) }
    }

    /// Total occupancy (both rings).
    pub fn len(&self) -> usize {
        self.loads.len() + self.stores.len()
    }

    /// Drops every entry younger than `boundary` from both rings.
    pub fn squash_younger(&mut self, boundary: u64) {
        self.loads.squash_younger(boundary);
        self.stores.squash_younger(boundary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(r: &LsqRing) -> Vec<u64> {
        let mut out = Vec::new();
        r.for_each_younger(0, |e| {
            out.push(e.seq);
            true
        });
        // for_each_younger(0) misses seq 0 itself; cover it.
        let mut all = Vec::new();
        r.for_each_older(u64::MAX, |e| {
            all.push(e.seq);
            true
        });
        assert!(out.len() <= all.len());
        all
    }

    #[test]
    fn push_find_remove_front() {
        let mut r = LsqRing::new(8);
        for s in [2u64, 5, 9] {
            r.push_back(s, 0x100 + s as u32, MemWidth::W);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(5).unwrap().pc, 0x105);
        assert!(r.get(3).is_none());
        let front = r.pop_front(2).unwrap();
        assert_eq!(front.seq, 2);
        assert_eq!(seqs(&r), vec![5, 9]);
    }

    #[test]
    fn indices_stay_valid_across_ring_wrap() {
        let mut r = LsqRing::new(4); // physical capacity 4, mask 3
        // Advance the head so the live window wraps the ring edge.
        for s in 0..3u64 {
            r.push_back(s, 0, MemWidth::W);
        }
        r.pop_front(0);
        r.pop_front(1);
        let idx: Vec<u32> =
            [3u64, 4, 5].iter().map(|&s| r.push_back(s, s as u32 * 10, MemWidth::W)).collect();
        assert_eq!(seqs(&r), vec![2, 3, 4, 5]);
        assert_eq!(idx, vec![3, 0, 1], "the window wraps the ring edge");
        // Each index reaches its own entry, on both sides of the wrap,
        // and keeps doing so while older entries leave the front.
        for (&i, s) in idx.iter().zip(3u64..) {
            assert_eq!(r.seq_at(i), Some(s));
            r.set_addr(i, s as u32 * 100);
        }
        r.set_data(idx[1], 0x44);
        r.pop_front(2);
        r.pop_front(3);
        let e4 = r.get(4).unwrap();
        assert_eq!((e4.pc, e4.addr, e4.data), (40, Some(400), Some(0x44)));
        assert!(r.addr_known(idx[2]));
        // Indices of entries that left are no longer live.
        assert_eq!(r.seq_at(idx[0]), None);
        assert_eq!(r.seq_at(2), None);
        assert_eq!(r.pop_front(4).unwrap().addr, Some(400));
    }

    #[test]
    fn squash_younger_truncates_tail() {
        let mut r = LsqRing::new(8);
        for s in [1u64, 4, 6, 9] {
            r.push_back(s, 0, MemWidth::W);
        }
        r.squash_younger(5);
        assert_eq!(seqs(&r), vec![1, 4]);
        r.squash_younger(0);
        assert_eq!(r.len(), 0);
        // Reusable after a full squash.
        r.push_back(2, 0, MemWidth::B);
        assert_eq!(r.get(2).unwrap().width, MemWidth::B);
    }

    #[test]
    fn ordered_scans_clip_to_the_relevant_half() {
        let mut r = LsqRing::new(8);
        for s in [2u64, 4, 6, 8] {
            r.push_back(s, 0, MemWidth::W);
        }
        let mut older = Vec::new();
        r.for_each_older(6, |e| {
            older.push(e.seq);
            true
        });
        assert_eq!(older, vec![2, 4]);
        let mut younger = Vec::new();
        r.for_each_younger(4, |e| {
            younger.push(e.seq);
            true
        });
        assert_eq!(younger, vec![6, 8]);
        // Early exit stops the walk.
        let mut first = Vec::new();
        r.for_each_younger(2, |e| {
            first.push(e.seq);
            false
        });
        assert_eq!(first, vec![4]);
    }

    #[test]
    fn overlap_at_top_of_address_space_does_not_wrap() {
        // Regression test: the interval ends were computed with
        // `u32::wrapping_add`, so an access touching `0xffff_ffff`
        // wrapped its end to ~0 and overlapped nothing. Such
        // addresses are reachable on the wrong path (wild speculative
        // stores), where the LSQ still must see the conflict.
        assert!(overlap(0xffff_fffe, MemWidth::W, 0xffff_ffff, MemWidth::B));
        assert!(overlap(0xffff_ffff, MemWidth::B, 0xffff_fffc, MemWidth::W));
        assert!(overlap(0xffff_ffff, MemWidth::B, 0xffff_ffff, MemWidth::B));
        // Adjacent but disjoint accesses still do not overlap.
        assert!(!overlap(0xffff_fff8, MemWidth::W, 0xffff_fffc, MemWidth::W));
        assert!(!overlap(0xffff_fffc, MemWidth::W, 0x0000_0000, MemWidth::W));
        // And the everyday cases are unchanged.
        assert!(overlap(0x100, MemWidth::W, 0x102, MemWidth::H));
        assert!(!overlap(0x100, MemWidth::W, 0x104, MemWidth::W));
    }

    #[test]
    fn older_store_scan_matches_the_view_walk() {
        // The specialized column scan must agree with an equivalent
        // for_each_older walk over assembled views, across the
        // interesting store states: unknown address, partial overlap,
        // full match with/without data, and a younger full match.
        let mut r = LsqRing::new(8);
        // `at[s]` is the ring index of seq `s` (1..=5).
        let at: Vec<u32> =
            (0..=5u64).map(|s| if s == 0 { 0 } else { r.push_back(s, 0, MemWidth::W) }).collect();
        r.set_addr(at[1], 0x100); // full match, no data yet
        // seq 2: address unknown
        r.set_addr(at[3], 0x200); // disjoint
        r.set_addr(at[4], 0x100);
        r.set_data(at[4], 0xbeef); // forwardable full match
        r.set_addr(at[5], 0x100);
        r.set_data(at[5], 0xdead); // younger than the load: out of scope

        // Load at seq 5 (strictly older stores are 1..=4): seq 1
        // blocks (full match, data pending).
        let scan = r.scan_older_stores(5, 0x100, MemWidth::W);
        assert!(scan.blocked);

        // Give seq 1 its data: now forwardable, and the youngest
        // match (seq 4) wins; seq 2's unknown address is flagged.
        r.set_data(at[1], 0x1111);
        let scan = r.scan_older_stores(5, 0x100, MemWidth::W);
        assert!(!scan.blocked);
        assert!(scan.unknown_older);
        assert_eq!(scan.best, Some((4, 0xbeef)));

        // A partially overlapping older store blocks.
        let scan = r.scan_older_stores(5, 0x102, MemWidth::H);
        assert!(scan.blocked);

        // Loads with no overlapping older stores see a clean scan.
        let scan = r.scan_older_stores(5, 0x300, MemWidth::W);
        assert!(!scan.blocked);
        assert_eq!(scan.best, None);
    }

    #[test]
    fn violation_victim_is_oldest_younger_executed_overlap() {
        let mut r = LsqRing::new(8);
        let at: Vec<u32> =
            [2u64, 4, 6, 8].iter().map(|&s| r.push_back(s, s as u32 * 10, MemWidth::W)).collect();
        // seq 4: executed at 0x100 (no forwarding).
        r.set_load_exec(at[1], 0x100, false, None);
        // seq 6: executed at 0x100, forwarded from store seq 5.
        r.set_load_exec(at[2], 0x100, false, Some(5));
        // seq 8: executed at 0x100, forwarded from store seq 1.
        r.set_load_exec(at[3], 0x100, false, Some(1));

        // A store at seq 3 writing 0x100: the oldest younger executed
        // overlapping load is seq 4.
        assert_eq!(r.find_violation_victim(3, 0x100, MemWidth::W), Some((4, 40)));
        // A store at seq 5: seq 6 forwarded from seq 5 itself, so it
        // already read this store's (correct) value and is safe; seq 8
        // forwarded from the older seq 1 and is the victim.
        assert_eq!(r.find_violation_victim(5, 0x100, MemWidth::W), Some((8, 80)));
        // Disjoint store address: no victim.
        assert_eq!(r.find_violation_victim(3, 0x400, MemWidth::W), None);
    }

    #[test]
    fn optional_fields_default_absent() {
        let mut r = LsqRing::new(8);
        let i = r.push_back(1, 0, MemWidth::W);
        let e = r.get(1).unwrap();
        assert_eq!(e.addr, None);
        assert_eq!(e.data, None);
        assert_eq!(e.fwd_src, None);
        assert!(!e.speculative);
        r.set_load_exec(i, 0x80, true, Some(0));
        let e = r.get(1).unwrap();
        assert_eq!(e.addr, Some(0x80));
        assert!(e.speculative);
        assert_eq!(e.fwd_src, Some(0));
    }
}
