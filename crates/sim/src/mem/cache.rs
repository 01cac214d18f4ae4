//! A timing-only set-associative cache (tags + LRU, no data: the
//! simulator keeps functional data in flat memory).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total size in bytes.
    pub size: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheCfg {
    /// 32 KiB, 4-way, 64 B lines, 4-cycle hit — the paper's L1 config.
    #[must_use]
    pub fn l1() -> CacheCfg {
        CacheCfg { size: 32 * 1024, ways: 4, line: 64, hit_latency: 4 }
    }

    /// 256 KiB, 4-way, 64 B lines, 12-cycle hit — the paper's L2.
    #[must_use]
    pub fn l2() -> CacheCfg {
        CacheCfg { size: 256 * 1024, ways: 4, line: 64, hit_latency: 12 }
    }

    /// 2 MiB, 4-way, 64 B lines, 42-cycle hit — the paper's L3
    /// (4-way models only).
    #[must_use]
    pub fn l3() -> CacheCfg {
        CacheCfg { size: 2 * 1024 * 1024, ways: 4, line: 64, hit_latency: 42 }
    }
}

/// One cache level: tag array with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheCfg,
    /// `log2(line)` — addresses shift right by this for the line
    /// number (hot path: avoids a hardware divide per access).
    line_shift: u32,
    /// `sets - 1` — line numbers mask to the set index.
    set_mask: u32,
    /// `tags[set * ways + way]` = the resident line's number;
    /// `u32::MAX` = invalid. Lines are at least 2 bytes, so a line
    /// number is at most `u32::MAX >> 1` and never collides with it.
    tags: Vec<u32>,
    /// Last-use stamp per way (larger = more recent; 0 = never used).
    /// Stamp LRU keeps `touch` to a single store instead of aging the
    /// whole set on every access. Stamps of a set's valid ways are
    /// unique, so its min-stamp way is exactly the least recently used
    /// one. Replacement only ever compares stamps within one set, so
    /// when `tick` reaches `u32::MAX` [`Cache::renumber`] rewrites each
    /// set's stamps to their ranks and the decisions stay exact at
    /// any run length.
    stamp: Vec<u32>,
    /// Next stamp value; starts at 1 so 0 marks never-touched ways.
    tick: u32,
    /// Accesses and misses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `ways * line`, line size / set count not a power of two, or a
    /// line of one byte).
    #[must_use]
    pub fn new(cfg: CacheCfg) -> Cache {
        let sets = cfg.size / (cfg.ways * cfg.line);
        assert!(sets > 0 && sets.is_power_of_two(), "bad cache geometry {cfg:?}");
        assert!(cfg.line >= 2 && cfg.line.is_power_of_two(), "bad cache line size {cfg:?}");
        Cache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![u32::MAX; (sets * cfg.ways) as usize],
            stamp: vec![0; (sets * cfg.ways) as usize],
            tick: 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// The level's configuration.
    #[must_use]
    pub fn cfg(&self) -> CacheCfg {
        self.cfg
    }

    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let line_addr = addr >> self.line_shift;
        (line_addr & self.set_mask, line_addr)
    }

    /// Looks up `addr`, updating LRU; returns true on hit. Misses
    /// allocate (the fill is assumed to complete with the access).
    pub fn access(&mut self, addr: u32) -> bool {
        self.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = (set * self.cfg.ways) as usize;
        let ways = self.cfg.ways as usize;
        let slot = self.tags[base..base + ways].iter().position(|&t| t == tag);
        match slot {
            Some(w) => {
                self.touch(base + w);
                true
            }
            None => {
                self.misses += 1;
                // Minimum stamp = least recently used. Stamps of valid
                // ways are unique within a set, so ties only occur
                // among never-touched ways (stamp 0), where the choice
                // cannot change the resident tag set.
                let victim = (0..ways).min_by_key(|&w| self.stamp[base + w]).unwrap_or(0);
                self.tags[base + victim] = tag;
                self.touch(base + victim);
                false
            }
        }
    }

    /// Probes without updating state.
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = (set * self.cfg.ways) as usize;
        self.tags[base..base + self.cfg.ways as usize].contains(&tag)
    }

    fn touch(&mut self, way_index: usize) {
        if self.tick == u32::MAX {
            self.renumber();
        }
        self.stamp[way_index] = self.tick;
        self.tick += 1;
    }

    /// Rewrites each set's stamps to their ranks, keeping their order:
    /// never-used ways stay 0 and the valid ways get `1..=ways`. The
    /// next stamp, `ways + 1`, is then above every stamp again.
    fn renumber(&mut self) {
        let ways = self.cfg.ways as usize;
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for set in self.stamp.chunks_exact_mut(ways) {
            order.clear();
            order.extend((0..ways).filter(|&w| set[w] != 0));
            order.sort_unstable_by_key(|&w| set[w]);
            for (rank, &w) in (1..).zip(&order) {
                set[w] = rank;
            }
        }
        self.tick = self.cfg.ways + 1;
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line(&self) -> u32 {
        self.cfg.line
    }

    /// The line number containing `addr` (divide-free).
    #[must_use]
    pub fn line_number(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 16 B lines.
        Cache::new(CacheCfg { size: 64, ways: 2, line: 16, hit_latency: 1 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10c)); // same line
        assert_eq!(c.misses, 1);
        assert_eq!(c.accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: 0x000, 0x020, 0x040 (3 lines into 2 ways).
        assert!(!c.access(0x000));
        assert!(!c.access(0x020));
        assert!(c.access(0x000)); // refresh 0x000
        assert!(!c.access(0x040)); // evicts 0x020
        assert!(c.access(0x000));
        assert!(!c.access(0x020)); // was evicted
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny();
        c.access(0x000);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert_eq!(c.accesses, 1);
    }

    #[test]
    fn invalid_ways_fill_before_any_eviction() {
        // Never-touched ways carry stamp 0, below any real stamp, so
        // misses must consume every invalid way before evicting a
        // resident line.
        let mut c = tiny();
        assert!(!c.access(0x000));
        assert!(!c.access(0x020)); // must fill way 2, not evict 0x000
        assert!(c.access(0x000));
        assert!(c.access(0x020));
        assert_eq!(c.misses, 2);
    }

    /// The hit/miss sequence of `accesses` random addresses over a
    /// few sets' worth of lines, from a cache whose stamps start at
    /// `tick`.
    fn hit_sequence(tick: u32, accesses: usize) -> Vec<bool> {
        // 4 sets, 4 ways, 16 B lines; 64 lines compete for 16 ways.
        let mut c = Cache::new(CacheCfg { size: 256, ways: 4, line: 16, hit_latency: 1 });
        c.tick = tick;
        let mut rng = straight_isa::rng::SplitMix64::new(0x5eed);
        (0..accesses).map(|_| c.access(rng.below(64) as u32 * 16)).collect()
    }

    #[test]
    fn stamp_renumbering_keeps_lru_exact() {
        // The tick wraps after 5,000 accesses, when every set is full,
        // so each set's order must survive the renumbering.
        let wrapped = hit_sequence(u32::MAX - 5_000, 10_000);
        assert_eq!(wrapped, hit_sequence(1, 10_000));
        assert!(wrapped.contains(&true) && wrapped.contains(&false));
    }

    #[test]
    #[should_panic(expected = "bad cache line size")]
    fn one_byte_lines_are_rejected() {
        let _ = Cache::new(CacheCfg { size: 64, ways: 2, line: 1, hit_latency: 1 });
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        assert!(!c.access(0x000)); // set 0
        assert!(!c.access(0x010)); // set 1
        assert!(c.access(0x000));
        assert!(c.access(0x010));
    }
}
