//! Architectural emulator checkpoints.
//!
//! A [`Checkpoint`] captures everything needed to resume execution of
//! an image mid-stream: PC, dynamic instruction count, the ISA's
//! register state (the STRAIGHT result ring + SP, or the 32 RV32
//! registers), console/exit state, statistics, and — instead of the
//! whole 4 MiB address space — only the memory pages that differ from
//! the pristine image. Both emulators track dirtied pages as they
//! store (a `DirtyMap` page bitset), so snapshotting is proportional to the
//! touched working set. Restoring into a live emulator is proportional
//! to it too: only pages dirty in the emulator or in the checkpoint are
//! rewritten, each from the checkpoint or else from the pristine image.
//!
//! Two checkpoints are the same state exactly when they are `==` (the
//! dirty pages are kept in canonical ascending order). Checkpoints are
//! the hand-off format for sampled simulation: the cycle-accurate
//! core's `Core::resume_from` restores its memory with the same
//! `Checkpoint::restore_pages` the emulators use and seeds its
//! physical register file and RP/RMT state from one.

use straight_asm::{Image, ImageIsa, MEM_SIZE};

use super::sys::SysState;
use super::EmuStats;

/// Dirty-page granule. Aligned stores never straddle a page (the
/// widest access is 4 bytes, alignment-checked before writing), so a
/// store dirties exactly one page.
pub(crate) const PAGE_SIZE: usize = 4096;
/// Number of granules covering the simulated address space.
pub(crate) const PAGE_COUNT: usize = MEM_SIZE as usize / PAGE_SIZE;

/// A bitset over the memory pages an emulator has stored to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirtyMap {
    bits: [u64; PAGE_COUNT / 64],
}

impl DirtyMap {
    pub(crate) fn new() -> DirtyMap {
        DirtyMap { bits: [0; PAGE_COUNT / 64] }
    }

    /// Marks the page containing `addr` dirty.
    #[inline]
    pub(crate) fn mark(&mut self, addr: usize) {
        let page = addr / PAGE_SIZE;
        self.bits[page / 64] |= 1u64 << (page % 64);
    }

    fn is_dirty(&self, page: usize) -> bool {
        self.bits[page / 64] & (1u64 << (page % 64)) != 0
    }

    fn set(&mut self, page: usize) {
        self.bits[page / 64] |= 1u64 << (page % 64);
    }
}

/// One dirtied page: its index and its full contents at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirtyPage {
    pub(crate) index: u32,
    pub(crate) bytes: Vec<u8>,
}

/// ISA-specific register state of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArchSnap {
    /// STRAIGHT: the stack pointer and the full result ring (indexed
    /// by executed count modulo the ring size).
    Straight {
        sp: u32,
        ring: Vec<u32>,
    },
    /// RV32IM: the 32 architectural registers.
    Riscv {
        regs: [u32; 32],
    },
}

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was taken on the other ISA's emulator.
    IsaMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::IsaMismatch => {
                write!(f, "checkpoint ISA does not match this emulator")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A complete architectural snapshot (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) pc: u32,
    pub(crate) executed: u64,
    pub(crate) arch: ArchSnap,
    pub(crate) sys: SysState,
    pub(crate) stats: EmuStats,
    /// Dirty pages in ascending index order (canonical).
    pub(crate) pages: Vec<DirtyPage>,
}

impl Checkpoint {
    /// PC at which execution resumes.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Dynamic instructions executed before the snapshot.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The ISA this checkpoint belongs to.
    #[must_use]
    pub fn isa(&self) -> ImageIsa {
        match self.arch {
            ArchSnap::Straight { .. } => ImageIsa::Straight,
            ArchSnap::Riscv { .. } => ImageIsa::Riscv,
        }
    }

    /// Console output captured up to the snapshot.
    #[must_use]
    pub fn stdout(&self) -> &str {
        &self.sys.stdout
    }

    /// Number of dirty memory pages carried.
    #[must_use]
    pub fn dirty_pages(&self) -> usize {
        self.pages.len()
    }

    /// Rebuilds the dirty map matching this checkpoint's pages.
    fn dirty_map(&self) -> DirtyMap {
        let mut map = DirtyMap::new();
        for page in &self.pages {
            map.set(page.index as usize);
        }
        map
    }

    /// Rewinds a live emulator's memory `mem` of `image`, whose
    /// stored-to pages `dirty` marks, to this checkpoint's memory. Both
    /// emulators restore through it, and so does `Core::resume_from`,
    /// whose freshly loaded memory has no dirty page. Only pages dirty
    /// on either side are rewritten: to the checkpoint's bytes where it
    /// carries the page, else to the pristine image bytes. Every other
    /// page already holds the image on both sides.
    pub(crate) fn restore_pages(&self, image: &Image, mem: &mut [u8], dirty: &mut DirtyMap) {
        let target = self.dirty_map();
        let mut saved = self.pages.iter().peekable();
        for (word, (&live, &want)) in dirty.bits.iter().zip(&target.bits).enumerate() {
            let mut bits = live | want;
            while bits != 0 {
                let page = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let dst = &mut mem[page * PAGE_SIZE..(page + 1) * PAGE_SIZE];
                match saved.next_if(|p| p.index as usize == page) {
                    Some(p) => dst.copy_from_slice(&p.bytes),
                    None => pristine_page(image, page, dst),
                }
            }
        }
        *dirty = target;
    }

    /// Canonical byte serialization: every field in a fixed
    /// little-endian layout, dirty pages in ascending order. Its length
    /// is the checkpoint size `perfbench` reports.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"STCP");
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.extend_from_slice(&self.executed.to_le_bytes());
        match &self.arch {
            ArchSnap::Straight { sp, ring } => {
                out.push(0);
                out.extend_from_slice(&sp.to_le_bytes());
                out.extend_from_slice(&(ring.len() as u32).to_le_bytes());
                for v in ring {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            ArchSnap::Riscv { regs } => {
                out.push(1);
                for v in regs {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.sys.stdout.len() as u32).to_le_bytes());
        out.extend_from_slice(self.sys.stdout.as_bytes());
        match self.sys.exit_code {
            Some(code) => {
                out.push(1);
                out.extend_from_slice(&code.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.stats.retired.to_le_bytes());
        for (name, n) in self.stats.kinds.nonzero() {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        out.extend_from_slice(&(self.stats.dist_hist.len() as u32).to_le_bytes());
        for v in &self.stats.dist_hist {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for page in &self.pages {
            out.extend_from_slice(&page.index.to_le_bytes());
            out.extend_from_slice(&page.bytes);
        }
        out
    }
}

/// Writes page `page` of `image` loaded into zeroed memory (what
/// `Image::load_into` leaves there) into `dst`.
fn pristine_page(image: &Image, page: usize, dst: &mut [u8]) {
    let base = page * PAGE_SIZE;
    let end = base + PAGE_SIZE;
    dst.fill(0);
    let code_base = image.code_base as usize;
    for addr in base.max(code_base)..end.min(image.code_end() as usize) {
        let off = addr - code_base;
        dst[addr - base] = image.code[off / 4].to_le_bytes()[off % 4];
    }
    let data_base = image.data_base as usize;
    let (lo, hi) = (base.max(data_base), end.min(data_base + image.data.len()));
    if lo < hi {
        dst[lo - base..hi - base].copy_from_slice(&image.data[lo - data_base..hi - data_base]);
    }
}

/// Collects the dirty pages of `mem` in canonical (ascending) order.
pub(crate) fn collect_pages(dirty: &DirtyMap, mem: &[u8]) -> Vec<DirtyPage> {
    (0..PAGE_COUNT)
        .filter(|&p| dirty.is_dirty(p))
        .map(|p| DirtyPage {
            index: p as u32,
            bytes: mem[p * PAGE_SIZE..(p + 1) * PAGE_SIZE].to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_map_marks_and_collects() {
        let mut map = DirtyMap::new();
        let mut mem = vec![0u8; MEM_SIZE as usize];
        mem[5000] = 0xab;
        map.mark(5000);
        mem[MEM_SIZE as usize - 1] = 0xcd;
        map.mark(MEM_SIZE as usize - 1);
        let pages = collect_pages(&map, &mem);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].index, 1);
        assert_eq!(pages[0].bytes[5000 - PAGE_SIZE], 0xab);
        assert_eq!(pages[1].index as usize, PAGE_COUNT - 1);
        assert_eq!(pages[1].bytes[PAGE_SIZE - 1], 0xcd);
    }

    #[test]
    fn pristine_pages_match_a_loaded_image() {
        // Code and data both straddle page boundaries, and a code word
        // straddles one too.
        let image = Image {
            isa: ImageIsa::Riscv,
            entry: 0x1000,
            code_base: 0x1ffe,
            code: (0..5000u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect(),
            data_base: 0x7ffd,
            data: (0..9000u32).map(|i| (i % 251) as u8 + 1).collect(),
            symbols: Default::default(),
        };
        let mut mem = vec![0u8; MEM_SIZE as usize];
        image.load_into(&mut mem);
        let mut page_bytes = vec![0xffu8; PAGE_SIZE];
        for page in 0..PAGE_COUNT {
            pristine_page(&image, page, &mut page_bytes);
            assert_eq!(page_bytes, mem[page * PAGE_SIZE..(page + 1) * PAGE_SIZE], "page {page}");
        }
    }

    #[test]
    fn serialization_is_injective_on_state() {
        let base = Checkpoint {
            pc: 0x1000,
            executed: 7,
            arch: ArchSnap::Riscv { regs: [0; 32] },
            sys: SysState::default(),
            stats: EmuStats::default(),
            pages: vec![],
        };
        let mut other = base.clone();
        assert_eq!(base.to_bytes(), other.to_bytes());
        other.executed = 8;
        assert_ne!(base.to_bytes(), other.to_bytes());
    }
}
