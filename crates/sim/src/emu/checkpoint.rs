//! Architectural emulator checkpoints.
//!
//! A [`Checkpoint`] captures everything needed to resume execution of
//! an image mid-stream: PC, dynamic instruction count, the ISA's
//! register state (SP and the live tail of the STRAIGHT result ring,
//! or the 32 RV32 registers), console/exit state, statistics, and —
//! instead of the whole 4 MiB address space — only the memory pages
//! stored to since the image was loaded. Every executor's memory is a
//! sparse `memops::Memory` that keeps its own dirty-page set as it
//! stores, so snapshotting (`Memory::collect_pages`) is proportional to
//! the touched working set. Restoring (`Memory::restore_pages`) is
//! proportional to it too: only pages dirty in the live memory or in
//! the checkpoint are rewritten, each from the checkpoint or else from
//! the pristine image.
//!
//! A STRAIGHT operand names its producer by distance, and no word of
//! an image's code reads further back than the image's *reach*, its
//! largest source distance (at most 31 for a d=31 build). A result
//! older than that is dead, so a STRAIGHT checkpoint keeps only the
//! last `min(reach, executed)` results instead of the emulator's whole
//! 1024-slot ring. A restore puts them back at their ring slots, and
//! refuses ([`CheckpointError::RingTooShort`]) a checkpoint that
//! carries fewer results than the restoring image can read.
//!
//! Checkpoints share unchanged bytes:
//! [`checkpoint_after`](super::ExecBackend::checkpoint_after) takes
//! the checkpoint before it, and each 256-byte block (`BLOCK`) of a
//! dirty page whose bytes equal that checkpoint's copy shares its
//! buffer (an `Arc`) instead of copying it again. Nothing writes through a
//! checkpoint, so sharing is invisible: an executor's live memory
//! keeps its own 4 KiB pages, and a restore copies the saved blocks
//! into them. A sampled cell keeps a grid of checkpoints of one run,
//! where most of each dirty page (data that a phase of the program no
//! longer writes, stack below the live frames) stays the same from one
//! checkpoint to the next.
//!
//! Two checkpoints are the same state exactly when they are `==` (the
//! dirty pages are kept in canonical ascending order). Checkpoints are
//! the hand-off format for sampled simulation: the cycle-accurate
//! core's `Core::resume_from` restores its memory with the same
//! `Memory::restore_pages` the emulators use and seeds its physical
//! register file and RP/RMT state from one.

use std::sync::Arc;

use straight_asm::ImageIsa;

use super::memops::PAGE_SIZE;
use super::sys::SysState;
use super::EmuStats;

/// Copy-on-write granule of a saved page: a checkpoint shares each
/// `BLOCK`-byte block that equals the previous checkpoint's copy.
pub(crate) const BLOCK: usize = 256;

/// One dirtied page: its index and its full contents at snapshot time,
/// in [`BLOCK`]-byte blocks, each possibly shared with other
/// checkpoints (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirtyPage {
    pub(crate) index: u32,
    pub(crate) blocks: [Arc<[u8; BLOCK]>; PAGE_SIZE / BLOCK],
}

impl DirtyPage {
    /// Copies the saved bytes into `page`.
    pub(crate) fn copy_to(&self, page: &mut [u8; PAGE_SIZE]) {
        for (dst, block) in page.chunks_exact_mut(BLOCK).zip(&self.blocks) {
            dst.copy_from_slice(&block[..]);
        }
    }
}

/// ISA-specific register state of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArchSnap {
    /// STRAIGHT: the stack pointer and the last `ring.len()` results,
    /// oldest first, so `ring[ring.len() - d]` is the value at distance
    /// `d`. The length is `min(reach, executed)` for the image's reach
    /// (see the module docs).
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
    /// The STRAIGHT checkpoint carries fewer results than the restoring
    /// image's code can read back (a checkpoint of an image with a
    /// shorter reach).
    RingTooShort {
        /// Results the checkpoint carries.
        carried: u32,
        /// Results the restoring image can read: its reach, or the
        /// executed count when that is smaller.
        needed: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::IsaMismatch => {
                write!(f, "checkpoint ISA does not match this emulator")
            }
            CheckpointError::RingTooShort { carried, needed } => write!(
                f,
                "checkpoint carries {carried} STRAIGHT results, the image reads {needed} back"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Checks that a STRAIGHT ring snapshot `ring` taken after `executed`
/// instructions holds every result an image of reach `reach` can read.
pub(crate) fn check_ring(ring: &[u32], reach: u16, executed: u64) -> Result<(), CheckpointError> {
    let needed = u64::from(reach).min(executed);
    if (ring.len() as u64) < needed {
        let (carried, needed) = (ring.len() as u32, needed as u32);
        return Err(CheckpointError::RingTooShort { carried, needed });
    }
    Ok(())
}

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
            for block in &page.blocks {
                out.extend_from_slice(&block[..]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use straight_asm::MEM_SIZE;
    use straight_isa::MemWidth;

    use super::*;
    use crate::emu::memops::tests::{assert_pages_match, empty, loaded, straddling_image};
    use crate::emu::memops::{self, Memory, PAGE_COUNT, PAGE_SIZE};

    const BLOCKS: usize = PAGE_SIZE / BLOCK;

    /// The page a checkpoint saved, reassembled from its blocks.
    fn saved(page: &DirtyPage) -> [u8; PAGE_SIZE] {
        let mut bytes = [0; PAGE_SIZE];
        page.copy_to(&mut bytes);
        bytes
    }

    /// How many of `page`'s blocks share `prev`'s buffer.
    fn shared_blocks(prev: &DirtyPage, page: &DirtyPage) -> usize {
        prev.blocks.iter().zip(&page.blocks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    #[test]
    fn dirty_map_marks_and_collects() {
        let mut mem = empty();
        memops::store(&mut mem, MemWidth::B, 5000, 0xab).unwrap();
        memops::store(&mut mem, MemWidth::B, MEM_SIZE - 1, 0xcd).unwrap();
        memops::load(&mem, MemWidth::W, 0x2_0000).unwrap();
        let pages = mem.collect_pages(&[]);
        assert_eq!(pages.len(), 2, "loads mark nothing");
        assert_eq!(pages[0].index, 1);
        assert_eq!(saved(&pages[0])[5000 - PAGE_SIZE], 0xab);
        assert_eq!(pages[1].index as usize, PAGE_COUNT - 1);
        assert_eq!(saved(&pages[1])[PAGE_SIZE - 1], 0xcd);
        assert!(Memory::from_image(&straddling_image()).collect_pages(&[]).is_empty());
    }

    #[test]
    fn pristine_pages_match_a_loaded_image() {
        // Dirty every page, the image's and the rest, then restore to
        // a checkpoint that carries none.
        let image = straddling_image();
        let mut mem = Memory::from_image(&image);
        let resident = mem.resident_pages();
        for page in 0..PAGE_COUNT {
            memops::store(&mut mem, MemWidth::W, (page * PAGE_SIZE + 8) as u32, u32::MAX).unwrap();
        }
        mem.restore_pages(&image, &[]);
        assert_pages_match(&mem, &loaded(&image));
        assert_eq!(mem.resident_pages(), resident, "pages outside the image are dropped");
        assert!(mem.collect_pages(&[]).is_empty());
    }

    /// Pages 1 and 3 of `image` stored to as `stores` lists, from a
    /// fresh load: the reference a checkpoint's state is checked
    /// against.
    fn replayed(image: &straight_asm::Image, stores: &[(u32, u32)]) -> Memory {
        let mut mem = Memory::from_image(image);
        for &(addr, val) in stores {
            memops::store(&mut mem, MemWidth::W, addr, val).unwrap();
        }
        mem
    }

    #[test]
    fn consecutive_checkpoints_share_untouched_pages() {
        let image = straddling_image();
        let (a, b) = (PAGE_SIZE as u32 + 8, 3 * PAGE_SIZE as u32 + 8);
        let mut mem = replayed(&image, &[(a, 1), (b, 2)]);
        let first = mem.collect_pages(&[]);
        memops::store(&mut mem, MemWidth::W, b, 3).unwrap();
        let second = mem.collect_pages(&first);
        assert_eq!(shared_blocks(&first[0], &second[0]), BLOCKS, "untouched page copied");
        assert_eq!(shared_blocks(&first[1], &second[1]), BLOCKS - 1, "stored block shared");
        assert_eq!(second, mem.collect_pages(&[]), "sharing changes no byte");

        // A store to a page restored from a shared buffer writes the
        // live page only: both checkpoints still describe their states.
        mem.restore_pages(&image, &second);
        memops::store(&mut mem, MemWidth::W, a, 4).unwrap();
        assert_eq!(first, replayed(&image, &[(a, 1), (b, 2)]).collect_pages(&[]));
        assert_eq!(second, replayed(&image, &[(a, 1), (b, 3)]).collect_pages(&[]));
        assert_eq!(mem.collect_pages(&[]), replayed(&image, &[(a, 4), (b, 3)]).collect_pages(&[]));
    }

    #[test]
    fn one_byte_store_copies_one_block() {
        let image = straddling_image();
        let word = 3 * PAGE_SIZE as u32 + 8;
        let byte = 3 * PAGE_SIZE as u32 + 5 * BLOCK as u32 + 17;
        let stores = |last: u8| {
            let mut mem = replayed(&image, &[(word, 0x0102_0304)]);
            memops::store(&mut mem, MemWidth::B, byte, u32::from(last)).unwrap();
            mem
        };
        let mut mem = stores(0x11);
        let first = mem.collect_pages(&[]);
        memops::store(&mut mem, MemWidth::B, byte, 0x22).unwrap();
        let second = mem.collect_pages(&first);
        assert_eq!(shared_blocks(&first[0], &second[0]), BLOCKS - 1);
        assert!(!Arc::ptr_eq(&first[0].blocks[5], &second[0].blocks[5]), "stored block shared");
        assert_eq!(first, stores(0x11).collect_pages(&[]), "first checkpoint changed");
        assert_eq!(second, stores(0x22).collect_pages(&[]), "second checkpoint wrong");

        // Restoring either one brings back every byte of its memory.
        for (cp, last) in [(&first, 0x11), (&second, 0x22)] {
            mem.restore_pages(&image, cp);
            assert_eq!(memops::load(&mem, MemWidth::Bu, byte), Ok(u32::from(last)));
            let want = stores(last);
            assert!((0..PAGE_COUNT).all(|i| mem.page(i) == want.page(i)), "restore to {last:#x}");
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
