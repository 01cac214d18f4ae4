//! Architectural emulator checkpoints.
//!
//! A [`Checkpoint`] captures everything needed to resume execution of
//! an image mid-stream: PC, dynamic instruction count, the ISA's
//! register state (the STRAIGHT result ring + SP, or the 32 RV32
//! registers), console/exit state, statistics, and — instead of the
//! whole 4 MiB address space — only the memory pages stored to since
//! the image was loaded. Every executor's memory is a sparse
//! `memops::Memory` that keeps its own dirty-page set as it stores, so
//! snapshotting (`Memory::collect_pages`) is proportional to the
//! touched working set. Restoring (`Memory::restore_pages`) is
//! proportional to it too: only pages dirty in the live memory or in
//! the checkpoint are rewritten, each from the checkpoint or else from
//! the pristine image.
//!
//! Checkpoints share unchanged pages:
//! [`checkpoint_after`](super::ExecBackend::checkpoint_after) takes
//! the checkpoint before it, and each dirty page whose bytes equal
//! that checkpoint's copy shares its buffer (an `Arc`) instead of
//! copying it again. Nothing writes through a checkpoint, so sharing
//! is invisible: an executor's live memory keeps its own pages, and a
//! restore copies the saved bytes into them. A sampled cell keeps a
//! grid of checkpoints of one run, where many dirty pages (data that a
//! phase of the program no longer writes) stay the same from one
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

/// One dirtied page: its index and its full contents at snapshot time,
/// possibly shared with other checkpoints (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirtyPage {
    pub(crate) index: u32,
    pub(crate) bytes: Arc<[u8; PAGE_SIZE]>,
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
            out.extend_from_slice(&page.bytes[..]);
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

    #[test]
    fn dirty_map_marks_and_collects() {
        let mut mem = empty();
        memops::store(&mut mem, MemWidth::B, 5000, 0xab).unwrap();
        memops::store(&mut mem, MemWidth::B, MEM_SIZE - 1, 0xcd).unwrap();
        memops::load(&mem, MemWidth::W, 0x2_0000).unwrap();
        let pages = mem.collect_pages(&[]);
        assert_eq!(pages.len(), 2, "loads mark nothing");
        assert_eq!(pages[0].index, 1);
        assert_eq!(pages[0].bytes[5000 - PAGE_SIZE], 0xab);
        assert_eq!(pages[1].index as usize, PAGE_COUNT - 1);
        assert_eq!(pages[1].bytes[PAGE_SIZE - 1], 0xcd);
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
        assert!(Arc::ptr_eq(&first[0].bytes, &second[0].bytes), "untouched page copied");
        assert!(!Arc::ptr_eq(&first[1].bytes, &second[1].bytes), "stored page shared");
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
