//! The multi-level hierarchy: L1I + L1D backed by a shared L2, an
//! optional L3, fixed-latency main memory, and a stream prefetcher on
//! the data side (Section V-A lists the stream prefetcher among the
//! modeled ILP features).

use super::cache::{Cache, CacheCfg};

/// Hierarchy configuration (Table I rows).
#[derive(Debug, Clone, Copy)]
pub struct HierarchyCfg {
    /// Instruction L1.
    pub l1i: CacheCfg,
    /// Data L1.
    pub l1d: CacheCfg,
    /// Unified L2.
    pub l2: CacheCfg,
    /// Optional unified L3 (the paper's 4-way models only).
    pub l3: Option<CacheCfg>,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
    /// Stream-prefetcher depth (lines fetched ahead on a detected
    /// stream); 0 disables.
    pub prefetch_depth: u32,
}

impl HierarchyCfg {
    /// The paper's 2-way model: no L3.
    #[must_use]
    pub fn two_way() -> HierarchyCfg {
        HierarchyCfg {
            l1i: CacheCfg::l1(),
            l1d: CacheCfg::l1(),
            l2: CacheCfg::l2(),
            l3: None,
            mem_latency: 200,
            prefetch_depth: 2,
        }
    }

    /// The paper's 4-way model: with the 2 MiB L3.
    #[must_use]
    pub fn four_way() -> HierarchyCfg {
        HierarchyCfg { l3: Some(CacheCfg::l3()), ..HierarchyCfg::two_way() }
    }
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1I accesses / misses.
    pub l1i: (u64, u64),
    /// L1D accesses / misses.
    pub l1d: (u64, u64),
    /// L2 accesses / misses.
    pub l2: (u64, u64),
    /// L3 accesses / misses.
    pub l3: (u64, u64),
    /// Prefetches issued.
    pub prefetches: u64,
}

// Each cache level serializes as a two-element `[accesses, misses]`
// array.
straight_json::json_record!(MemStats { l1i, l1d, l2, l3, prefetches });

/// Simple next-line stream detector: tracks a few recent miss
/// streams; two consecutive line misses arm a stream that prefetches
/// ahead.
#[derive(Debug, Clone)]
struct StreamPrefetcher {
    depth: u32,
    /// (last line, armed) per tracked stream.
    streams: Vec<(u32, bool)>,
}

impl StreamPrefetcher {
    fn new(depth: u32) -> StreamPrefetcher {
        StreamPrefetcher { depth, streams: vec![(u32::MAX, false); 8] }
    }

    /// On an L1D miss of `line`: true when an armed stream matched, in
    /// which case the caller prefetches the next `depth` lines. (The
    /// prefetch set is always the contiguous range `line+1 ..= line+depth`,
    /// so no allocation is needed to communicate it.)
    fn on_miss(&mut self, line: u32) -> bool {
        if self.depth == 0 {
            return false;
        }
        // An existing stream expecting this line?
        for s in &mut self.streams {
            if s.0 != u32::MAX && s.0.wrapping_add(1) == line {
                s.0 = line;
                s.1 = true;
                return true;
            }
        }
        // Start tracking a new stream (round-robin victim).
        self.streams.rotate_right(1);
        self.streams[0] = (line, false);
        false
    }
}

/// The full timing hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    mem_latency: u32,
    prefetcher: StreamPrefetcher,
    prefetches: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    #[must_use]
    pub fn new(cfg: HierarchyCfg) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: cfg.l3.map(Cache::new),
            mem_latency: cfg.mem_latency,
            prefetcher: StreamPrefetcher::new(cfg.prefetch_depth),
            prefetches: 0,
        }
    }

    /// Latency below L1 (L2 → L3 → memory).
    fn below_l1(&mut self, addr: u32) -> u32 {
        if self.l2.access(addr) {
            return self.l2.cfg().hit_latency;
        }
        let l2_lat = self.l2.cfg().hit_latency;
        if let Some(l3) = &mut self.l3 {
            if l3.access(addr) {
                return l2_lat + l3.cfg().hit_latency;
            }
            return l2_lat + l3.cfg().hit_latency + self.mem_latency;
        }
        l2_lat + self.mem_latency
    }

    /// Instruction fetch of the line containing `addr`; returns the
    /// total latency. The L1I hit latency itself is folded into the
    /// front-end pipeline depth, so a hit reports 0 extra cycles.
    pub fn fetch_access(&mut self, addr: u32) -> u32 {
        if self.l1i.access(addr) {
            0
        } else {
            self.below_l1(addr)
        }
    }

    /// Data access; returns total latency including the L1D hit
    /// latency. Misses train the stream prefetcher.
    pub fn data_access(&mut self, addr: u32) -> u32 {
        let l1_lat = self.l1d.cfg().hit_latency;
        if self.l1d.access(addr) {
            return l1_lat;
        }
        let extra = self.below_l1(addr);
        let line = self.l1d.line_number(addr);
        if self.prefetcher.on_miss(line) {
            for k in 1..=self.prefetcher.depth {
                let pf_addr = (line + k).wrapping_mul(self.l1d.line());
                if !self.l1d.probe(pf_addr) {
                    self.l1d.access(pf_addr);
                    self.l2.access(pf_addr);
                    self.prefetches += 1;
                }
            }
        }
        l1_lat + extra
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: (self.l1i.accesses, self.l1i.misses),
            l1d: (self.l1d.accesses, self.l1d.misses),
            l2: (self.l2.accesses, self.l2.misses),
            l3: self.l3.as_ref().map(|c| (c.accesses, c.misses)).unwrap_or((0, 0)),
            prefetches: self.prefetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_costs_full_path_then_hits() {
        let mut h = Hierarchy::new(HierarchyCfg::two_way());
        let first = h.data_access(0x2000);
        assert_eq!(first, 4 + 12 + 200);
        let second = h.data_access(0x2000);
        assert_eq!(second, 4);
    }

    #[test]
    fn l3_shortens_the_path() {
        let mut h2 = Hierarchy::new(HierarchyCfg::two_way());
        let mut h4 = Hierarchy::new(HierarchyCfg::four_way());
        // Fill L3/L2, evict from L2 by touching many distinct lines
        // mapping to the same L2 sets.
        let a = 0x10000;
        h2.data_access(a);
        h4.data_access(a);
        // Evict `a` from L1D+L2 via eight 64 KiB-strided conflicting
        // lines (all land in `a`'s L2 set but in distinct L3 sets, so
        // `a` survives in the L3).
        for k in 1..=8u32 {
            h2.data_access(a + k * 64 * 1024);
            h4.data_access(a + k * 64 * 1024);
        }
        let lat2 = h2.data_access(a);
        let lat4 = h4.data_access(a);
        assert!(lat4 < lat2, "L3 should help: {lat4} vs {lat2}");
    }

    #[test]
    fn stream_prefetcher_hides_sequential_misses() {
        let mut with = Hierarchy::new(HierarchyCfg::two_way());
        let mut without = Hierarchy::new(HierarchyCfg { prefetch_depth: 0, ..HierarchyCfg::two_way() });
        let mut lat_with = 0u64;
        let mut lat_without = 0u64;
        for i in 0..256u32 {
            lat_with += u64::from(with.data_access(0x4_0000 + i * 64));
            lat_without += u64::from(without.data_access(0x4_0000 + i * 64));
        }
        assert!(lat_with < lat_without, "prefetching should reduce latency: {lat_with} vs {lat_without}");
        assert!(with.stats().prefetches > 0);
    }

    #[test]
    fn fetch_hits_are_free_extra() {
        let mut h = Hierarchy::new(HierarchyCfg::two_way());
        assert!(h.fetch_access(0x1000) > 0);
        assert_eq!(h.fetch_access(0x1000), 0);
        assert_eq!(h.stats().l1i.0, 2);
    }
}
