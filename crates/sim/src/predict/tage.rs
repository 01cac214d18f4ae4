//! An 8-component TAGE predictor (Seznec, "A new case for the TAGE
//! branch predictor", MICRO 2011) — the configuration Figure 14 of the
//! STRAIGHT paper swaps in for gshare.
//!
//! One bimodal base table plus seven tagged components with
//! geometrically increasing history lengths. Each tagged entry holds a
//! partial tag, a 3-bit signed counter, and a 2-bit useful counter.
//!
//! The index and tag hashes fold each component's history down to
//! 10, 9 and 8 bits. Those folds live in circular folded-history
//! registers (Seznec & Michaud, "A case for (partially) TAgged
//! GEometric history length branch prediction", JILP 2006), updated in
//! O(1) per outcome instead of refolded from the raw history.

use super::DirectionPredictor;

const NUM_TAGGED: usize = 7;
const HIST_LENGTHS: [u32; NUM_TAGGED] = [5, 9, 15, 25, 44, 76, 130];
const TAGGED_BITS: u32 = 10; // 1 K entries per component
const TAG_BITS: u32 = 9;
const BASE_BITS: u32 = 13; // 8 K bimodal entries
/// Fold widths kept per component: the index hash, and the two tag
/// hashes.
const FOLD_WIDTHS: [u32; 3] = [TAGGED_BITS, TAG_BITS, TAG_BITS - 1];
/// Outcomes kept in the packed shift register: the longest history.
const HIST_BITS: u32 = HIST_LENGTHS[NUM_TAGGED - 1];
const HIST_WORDS: usize = HIST_BITS.div_ceil(64) as usize;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaggedEntry {
    tag: u16,
    ctr: i8, // -4..=3
    useful: u8,
}

/// How one folded register absorbs a new outcome.
///
/// The fold of the newest `len` outcomes XORs `width`-bit chunks; in
/// each full chunk the newest bit sits at position `width - 1`, and
/// the partial tail chunk of `len % width` bits is right-aligned. A
/// push shifts every outcome one age older, which for all bits but
/// three is a right rotation of the register by one. The three are
/// the incoming outcome, the outcome crossing from the last full chunk
/// into the tail (the rotation leaves it at the top instead of the
/// tail's top), and the outcome that falls out (the rotation leaves it
/// at the top).
#[derive(Debug, Clone, Copy)]
struct FoldSpec {
    width: u32,
    /// Where the incoming outcome lands.
    in_mask: u16,
    /// Age, before the push, of the outcome crossing into the tail.
    cross_age: u32,
    /// The two positions the crossing outcome moves between; zero when
    /// `len` is a multiple of `width` or shorter than it.
    cross_mask: u16,
    /// Age, before the push, of the outcome that falls out.
    out_age: u32,
}

const fn fold_spec(len: u32, width: u32) -> FoldSpec {
    let full = len / width;
    let tail = len % width;
    let top = 1 << (width - 1);
    let crosses = full > 0 && tail > 0;
    FoldSpec {
        width,
        in_mask: if full > 0 { top } else { 1 << (tail - 1) },
        cross_age: if crosses { full * width - 1 } else { 0 },
        cross_mask: if crosses { top | 1 << (tail - 1) } else { 0 },
        out_age: len - 1,
    }
}

const FOLD_SPECS: [[FoldSpec; FOLD_WIDTHS.len()]; NUM_TAGGED] = {
    let mut specs = [[fold_spec(1, 1); FOLD_WIDTHS.len()]; NUM_TAGGED];
    let mut comp = 0;
    while comp < NUM_TAGGED {
        let mut k = 0;
        while k < FOLD_WIDTHS.len() {
            specs[comp][k] = fold_spec(HIST_LENGTHS[comp], FOLD_WIDTHS[k]);
            k += 1;
        }
        comp += 1;
    }
    specs
};

/// Global history: the last [`HIST_BITS`] outcomes and every
/// component's folds of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct History {
    /// Bit `age` of the little-endian word array is the outcome `age`
    /// pushes ago (0 = newest).
    bits: [u64; HIST_WORDS],
    /// `folds[comp][k]` folds the newest `HIST_LENGTHS[comp]` outcomes
    /// to `FOLD_WIDTHS[k]` bits.
    folds: [[u16; FOLD_WIDTHS.len()]; NUM_TAGGED],
}

impl History {
    fn push(&mut self, taken: bool) {
        let bits = self.bits;
        let bit = |age: u32| ((bits[(age / 64) as usize] >> (age % 64)) & 1) as u16;
        for (folds, specs) in self.folds.iter_mut().zip(&FOLD_SPECS) {
            for (f, s) in folds.iter_mut().zip(specs) {
                let rotated = (*f >> 1) | ((*f & 1) << (s.width - 1));
                *f = rotated
                    ^ (u16::from(taken) * s.in_mask)
                    ^ (bit(s.cross_age) * s.cross_mask)
                    ^ (bit(s.out_age) << (s.width - 1));
            }
        }
        let mut carry = u64::from(taken);
        for w in &mut self.bits {
            (*w, carry) = ((*w << 1) | carry, *w >> 63);
        }
        self.bits[HIST_WORDS - 1] &= u64::MAX >> (HIST_WORDS as u32 * 64 - HIST_BITS);
    }

    /// Per tagged component, the (index, tag) this history selects for
    /// the branch at `pc`.
    fn slots(&self, pc: u32) -> [(usize, u16); NUM_TAGGED] {
        std::array::from_fn(|comp| {
            let [fi, f1, f2] = self.folds[comp].map(u32::from);
            let idx = ((pc >> 2) ^ (pc >> (2 + comp as u32 + 1))) ^ fi;
            let tag = (pc >> 2) ^ f1 ^ (f2 << 1);
            ((idx & ((1 << TAGGED_BITS) - 1)) as usize, (tag & ((1 << TAG_BITS) - 1)) as u16)
        })
    }
}

/// The TAGE predictor with speculative global history and squash
/// repair.
#[derive(Debug)]
pub struct Tage {
    base: Vec<u8>,
    tagged: Vec<Vec<TaggedEntry>>,
    /// Retire-consistent history, restored on squash.
    history: History,
    /// Speculative history, pushed with each prediction.
    spec_history: History,
    /// Deterministic LFSR for the allocation tie-breaking.
    rng: u32,
    /// Periodic useful-bit reset counter.
    tick: u32,
}

impl Tage {
    /// Builds an empty predictor.
    #[must_use]
    pub fn new() -> Tage {
        Tage {
            base: vec![1; 1 << BASE_BITS],
            tagged: vec![vec![TaggedEntry::default(); 1 << TAGGED_BITS]; NUM_TAGGED],
            history: History::default(),
            spec_history: History::default(),
            rng: 0x1234_5678,
            tick: 0,
        }
    }

    fn next_rand(&mut self) -> u32 {
        // xorshift32
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng = x;
        x
    }

    fn base_index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << BASE_BITS) - 1)) as usize
    }

    /// (provider component or None=base, prediction, alternate pred).
    fn lookup(&self, pc: u32, slots: &[(usize, u16); NUM_TAGGED]) -> (Option<usize>, bool, bool) {
        let base = self.base[self.base_index(pc)] >= 2;
        let entry = |comp: usize| &self.tagged[comp][slots[comp].0];
        let taken = |comp: usize| entry(comp).ctr >= 0;
        // Search longest history first.
        let mut hits = (0..NUM_TAGGED).rev().filter(|&comp| entry(comp).tag == slots[comp].1);
        match hits.next() {
            Some(provider) => (Some(provider), taken(provider), hits.next().map_or(base, taken)),
            None => (None, base, base),
        }
    }
}

impl Default for Tage {
    fn default() -> Self {
        Tage::new()
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u32) -> bool {
        let (_, pred, _) = self.lookup(pc, &self.spec_history.slots(pc));
        self.spec_history.push(pred);
        pred
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let slots = self.history.slots(pc);
        let (provider, pred, alt) = self.lookup(pc, &slots);
        match provider {
            Some(comp) => {
                let (idx, tag) = slots[comp];
                let e = &mut self.tagged[comp][idx];
                debug_assert_eq!(e.tag, tag);
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if pred != alt {
                    if pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }
        // Allocate on misprediction in a longer component.
        if pred != taken {
            let start = provider.map_or(0, |p| p + 1);
            if start < NUM_TAGGED {
                // Find a not-useful entry among the longer components,
                // preferring shorter ones with a random skip.
                let skip = (self.next_rand() & 1 == 1) && NUM_TAGGED - start > 1;
                let free = (start + usize::from(skip)..NUM_TAGGED)
                    .find(|&comp| self.tagged[comp][slots[comp].0].useful == 0);
                match free {
                    Some(comp) => {
                        let (idx, tag) = slots[comp];
                        self.tagged[comp][idx] =
                            TaggedEntry { tag, ctr: if taken { 0 } else { -1 }, useful: 0 };
                    }
                    None => {
                        for (table, &(idx, _)) in self.tagged.iter_mut().zip(&slots).skip(start) {
                            table[idx].useful = table[idx].useful.saturating_sub(1);
                        }
                    }
                }
            }
        }
        // Periodic graceful useful-bit aging.
        self.tick += 1;
        if self.tick.is_multiple_of(256 * 1024) {
            for comp in &mut self.tagged {
                for e in comp.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
        self.history.push(taken);
    }

    fn recover(&mut self) {
        self.spec_history = self.history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use straight_isa::rng::SplitMix64;

    const MAX_HIST: usize = 160;

    /// The bit-serial TAGE this module's folded-history version
    /// replaced, kept unchanged as the reference model.
    #[derive(Debug)]
    struct RefTage {
        base: Vec<u8>,
        tagged: Vec<Vec<TaggedEntry>>,
        /// Global history bits, newest at index 0.
        history: Vec<bool>,
        spec_history: Vec<bool>,
        /// Deterministic LFSR for the allocation tie-breaking.
        rng: u32,
        /// Periodic useful-bit reset counter.
        tick: u32,
    }

    impl RefTage {
        /// Builds an empty predictor.
        #[must_use]
        fn new() -> RefTage {
            RefTage {
                base: vec![1; 1 << BASE_BITS],
                tagged: vec![vec![TaggedEntry::default(); 1 << TAGGED_BITS]; NUM_TAGGED],
                history: vec![false; MAX_HIST],
                spec_history: vec![false; MAX_HIST],
                rng: 0x1234_5678,
                tick: 0,
            }
        }

        fn next_rand(&mut self) -> u32 {
            // xorshift32
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            self.rng = x;
            x
        }

        /// Folded history hash over the first `len` bits.
        fn fold(history: &[bool], len: u32, out_bits: u32) -> u32 {
            let mut acc = 0u32;
            let mut chunk = 0u32;
            let mut nbits = 0;
            for &b in history.iter().take(len as usize) {
                chunk = (chunk << 1) | u32::from(b);
                nbits += 1;
                if nbits == out_bits {
                    acc ^= chunk;
                    chunk = 0;
                    nbits = 0;
                }
            }
            acc ^= chunk;
            acc & ((1 << out_bits) - 1)
        }

        fn tagged_index(&self, pc: u32, comp: usize, history: &[bool]) -> usize {
            let h = Self::fold(history, HIST_LENGTHS[comp], TAGGED_BITS);
            ((((pc >> 2) ^ (pc >> (2 + comp as u32 + 1))) ^ h) & ((1 << TAGGED_BITS) - 1))
                as usize
        }

        fn tag_of(&self, pc: u32, comp: usize, history: &[bool]) -> u16 {
            let h1 = Self::fold(history, HIST_LENGTHS[comp], TAG_BITS);
            let h2 = Self::fold(history, HIST_LENGTHS[comp], TAG_BITS - 1) << 1;
            (((pc >> 2) ^ h1 ^ h2) & ((1 << TAG_BITS) - 1)) as u16
        }

        fn base_index(&self, pc: u32) -> usize {
            ((pc >> 2) & ((1 << BASE_BITS) - 1)) as usize
        }

        /// (provider component or None=base, prediction, alternate pred).
        fn lookup(&self, pc: u32, history: &[bool]) -> (Option<usize>, bool, bool) {
            let mut provider = None;
            let mut alt: Option<bool> = None;
            let mut pred = self.base[self.base_index(pc)] >= 2;
            // Search longest history first.
            for comp in (0..NUM_TAGGED).rev() {
                let idx = self.tagged_index(pc, comp, history);
                let e = &self.tagged[comp][idx];
                if e.tag == self.tag_of(pc, comp, history) {
                    if provider.is_none() {
                        provider = Some(comp);
                        pred = e.ctr >= 0;
                    } else if alt.is_none() {
                        alt = Some(e.ctr >= 0);
                    }
                }
            }
            let alt = alt.unwrap_or(self.base[self.base_index(pc)] >= 2);
            (provider, pred, alt)
        }

        fn push_history(history: &mut Vec<bool>, taken: bool) {
            history.insert(0, taken);
            history.truncate(MAX_HIST);
        }
    }

    impl DirectionPredictor for RefTage {
        fn predict(&mut self, pc: u32) -> bool {
            let (_, pred, _) = self.lookup(pc, &self.spec_history.clone());
            Self::push_history(&mut self.spec_history, pred);
            pred
        }

        fn update(&mut self, pc: u32, taken: bool) {
            let history = self.history.clone();
            let (provider, pred, alt) = self.lookup(pc, &history);
            match provider {
                Some(comp) => {
                    let idx = self.tagged_index(pc, comp, &history);
                    let tag = self.tag_of(pc, comp, &history);
                    let e = &mut self.tagged[comp][idx];
                    debug_assert_eq!(e.tag, tag);
                    e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                    if pred != alt {
                        if pred == taken {
                            e.useful = (e.useful + 1).min(3);
                        } else {
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
                None => {
                    let idx = self.base_index(pc);
                    let c = &mut self.base[idx];
                    if taken {
                        *c = (*c + 1).min(3);
                    } else {
                        *c = c.saturating_sub(1);
                    }
                }
            }
            // Allocate on misprediction in a longer component.
            if pred != taken {
                let start = provider.map(|p| p + 1).unwrap_or(0);
                if start < NUM_TAGGED {
                    // Find a not-useful entry among the longer components,
                    // preferring shorter ones with a random skip.
                    let mut allocated = false;
                    let skip = (self.next_rand() & 1) as usize;
                    let mut candidates: Vec<usize> = (start..NUM_TAGGED).collect();
                    if candidates.len() > 1 && skip == 1 {
                        candidates.remove(0);
                    }
                    for comp in candidates {
                        let idx = self.tagged_index(pc, comp, &history);
                        if self.tagged[comp][idx].useful == 0 {
                            let tag = self.tag_of(pc, comp, &history);
                            self.tagged[comp][idx] =
                                TaggedEntry { tag, ctr: if taken { 0 } else { -1 }, useful: 0 };
                            allocated = true;
                            break;
                        }
                    }
                    if !allocated {
                        for comp in start..NUM_TAGGED {
                            let idx = self.tagged_index(pc, comp, &history);
                            let e = &mut self.tagged[comp][idx];
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
            }
            // Periodic graceful useful-bit aging.
            self.tick += 1;
            if self.tick.is_multiple_of(256 * 1024) {
                for comp in &mut self.tagged {
                    for e in comp.iter_mut() {
                        e.useful >>= 1;
                    }
                }
            }
            Self::push_history(&mut self.history, taken);
        }

        fn recover(&mut self) {
            self.spec_history = self.history.clone();
        }
    }

    /// Every folded register of `h` equals the oracle fold of `bits`
    /// (newest first).
    fn assert_folds_match(h: &History, bits: &[bool], step: usize) {
        for (comp, &len) in HIST_LENGTHS.iter().enumerate() {
            for (k, &width) in FOLD_WIDTHS.iter().enumerate() {
                assert_eq!(
                    u32::from(h.folds[comp][k]),
                    RefTage::fold(bits, len, width),
                    "step {step}: fold of {len} outcomes to {width} bits"
                );
            }
        }
    }

    #[test]
    fn folded_registers_match_the_bit_serial_fold_after_every_push() {
        let mut rng = SplitMix64::new(0x7a6e);
        let mut h = History::default();
        let mut bits = vec![false; MAX_HIST];
        for step in 0..5000 {
            // Runs of mostly-taken or mostly-not-taken outcomes, so the
            // registers also see long constant stretches.
            let taken = rng.chance(if (step / 200) % 2 == 0 { 9 } else { 1 }, 10);
            h.push(taken);
            bits.insert(0, taken);
            bits.truncate(MAX_HIST);
            assert_folds_match(&h, &bits, step);
            for (age, &b) in bits.iter().enumerate().take(HIST_BITS as usize) {
                let word = h.bits[age / 64] >> (age % 64);
                assert_eq!(word & 1 == 1, b, "step {step}: outcome {age}");
            }
        }
    }

    #[test]
    fn matches_the_bit_serial_reference_model() {
        const PCS: [u32; 8] = [0x400, 0x404, 0x4a0, 0x1000, 0x1ffc, 0x2040, 0x8000, 0x8004];
        let mut rng = SplitMix64::new(0x5eed_7a6e);
        let mut t = Tage::new();
        let mut r = RefTage::new();
        // Fetched, not yet retired branches: (pc, fetch prediction).
        let mut inflight: std::collections::VecDeque<(u32, bool)> = Default::default();
        let mut visits = [0u32; PCS.len()];
        let mut mispredicts = 0;
        for step in 0..20_000 {
            if inflight.len() < 12 && (inflight.is_empty() || rng.chance(3, 5)) {
                let pc = PCS[rng.below(PCS.len() as u64) as usize];
                let p = t.predict(pc);
                assert_eq!(p, r.predict(pc), "step {step}: prediction for {pc:#x}");
                inflight.push_back((pc, p));
            } else if let Some((pc, p)) = inflight.pop_front() {
                // Each PC follows its own periodic pattern, with noise.
                let slot = PCS.iter().position(|&x| x == pc).unwrap_or(0);
                visits[slot] += 1;
                let period = 2 + slot as u32 * 3;
                let taken = (visits[slot] % period != 0) ^ rng.chance(1, 20);
                t.update(pc, taken);
                r.update(pc, taken);
                if p != taken {
                    mispredicts += 1;
                    inflight.clear();
                    t.recover();
                    r.recover();
                }
            } else {
                // A squash for another reason (say a memory-order
                // violation) with branches still in flight.
                inflight.clear();
                t.recover();
                r.recover();
            }
            if step % 1000 == 0 {
                assert_folds_match(&t.spec_history, &r.spec_history, step);
                assert_folds_match(&t.history, &r.history, step);
            }
        }
        assert!(mispredicts > 100, "the stream must exercise allocation: {mispredicts}");
        assert_eq!(t.base, r.base, "bimodal table");
        assert_eq!(t.tagged, r.tagged, "tagged components");
        assert_eq!((t.rng, t.tick), (r.rng, r.tick), "allocation RNG and aging tick");
    }

    #[test]
    fn learns_a_bias() {
        let mut t = Tage::new();
        for _ in 0..16 {
            let _ = t.predict(0x400);
            t.update(0x400, true);
        }
        assert!(t.predict(0x400));
    }

    #[test]
    fn learns_long_period_pattern_better_than_gshare_style_history() {
        // Period-24 pattern: 23 taken, 1 not-taken — the long-history
        // components should capture it.
        let mut t = Tage::new();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..24 * 400 {
            let outcome = i % 24 != 23;
            let p = t.predict(0x800);
            if i >= 24 * 200 {
                total += 1;
                if p == outcome {
                    correct += 1;
                }
            }
            t.update(0x800, outcome);
            if p != outcome {
                t.recover(); // pipeline repairs history on mispredicts
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.97, "TAGE accuracy on period-24 pattern: {acc}");
    }

    #[test]
    fn recover_restores_history() {
        let mut t = Tage::new();
        let p = t.predict(0x100);
        let _ = t.predict(0x104);
        t.recover();
        assert_eq!(t.spec_history, t.history);
        t.update(0x100, p);
    }

    #[test]
    fn fold_is_stable_and_bounded() {
        let h = vec![true; 64];
        let f = RefTage::fold(&h, 44, 10);
        assert!(f < 1024);
        assert_eq!(f, RefTage::fold(&h, 44, 10));
    }
}
