//! The crate's one memory type and one memory-access rule, shared by
//! both ISAs, both emulator tiers and the cycle-accurate core.
//!
//! [`Memory`] is the simulated address space as [`PAGE_COUNT`]
//! optional [`PAGE_SIZE`]-byte pages: an absent page reads as zeros, a
//! store materializes its page, and [`Memory::from_image`] materializes
//! only the pages the image's code and data cover. An executor so
//! holds the pages its program touches (a handful for Dhrystone and
//! CoreMark), not a zero-filled copy of the whole 4 MiB space.
//! `Memory` also keeps the set of pages stored to, which a
//! `Checkpoint` carries ([`Memory::collect_pages`], sharing each
//! 256-byte block that equals the previous checkpoint's copy) and
//! which bounds the work of a restore ([`Memory::restore_pages`]).
//!
//! The fast tiers resolve the width when a block is translated and
//! call the width-specialized helpers directly, each of which performs
//! exactly one alignment test and one bounds test. The interpreters
//! and the core reach the same helpers through [`load`] and [`store`],
//! which dispatch on [`MemWidth`] at run time. The core also asks
//! [`check_store`] for a store's trap when it generates the address,
//! long before the store writes memory at commit, and takes a
//! forwarded store value through [`forwarded`]. So every executor
//! shares one alignment rule, one set of trap values, one sub-word
//! extension and one little-endian byte order.

use std::sync::Arc;

use straight_asm::{Image, MEM_SIZE};
use straight_isa::{MemWidth, TrapKind};

use super::checkpoint::{DirtyPage, BLOCK};

/// Page granule. Aligned accesses never straddle a page (the widest
/// access is 4 bytes, alignment-checked before the bounds), so an
/// access touches exactly one page.
pub(crate) const PAGE_SIZE: usize = 4096;
/// Number of pages covering the simulated address space.
pub(crate) const PAGE_COUNT: usize = MEM_SIZE as usize / PAGE_SIZE;

/// One materialized page.
pub(crate) type Page = Box<[u8; PAGE_SIZE]>;

/// What an absent page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// The simulated address space (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Memory {
    /// `None` is a page that reads as zeros.
    pages: Box<[Option<Page>; PAGE_COUNT]>,
    /// Bitset over the pages stored to since construction or the last
    /// [`Memory::restore_pages`]. Every marked page is materialized.
    dirty: [u64; PAGE_COUNT / 64],
}

impl Memory {
    /// `image` loaded into zeroed memory, with only the pages its code
    /// and data cover materialized and no page dirty.
    pub(crate) fn from_image(image: &Image) -> Memory {
        let mut pages = Box::new([const { None }; PAGE_COUNT]);
        for (index, page) in pages.iter_mut().enumerate() {
            *page = pristine_page(image, index);
        }
        Memory { pages, dirty: [0; PAGE_COUNT / 64] }
    }

    /// The `N` bytes at `addr`, which the caller has checked is
    /// `N`-aligned; `None` past the end of memory.
    #[inline]
    fn read<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let page = self.pages.get(addr as usize / PAGE_SIZE)?;
        let mut bytes = [0; N];
        if let Some(page) = page {
            let off = offset::<N>(addr);
            bytes.copy_from_slice(&page[off..off + N]);
        }
        Some(bytes)
    }

    /// Writes `bytes` at `addr`, which the caller has checked is
    /// `N`-aligned, materializing and marking its page; `None` past
    /// the end of memory, where nothing changes.
    #[inline]
    fn write<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) -> Option<()> {
        let index = addr as usize / PAGE_SIZE;
        let page = self.pages.get_mut(index)?.get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
        let off = offset::<N>(addr);
        page[off..off + N].copy_from_slice(&bytes);
        self.dirty[index / 64] |= 1 << (index % 64);
        Some(())
    }

    /// Page `index`'s bytes; zeros for an absent page.
    pub(crate) fn page(&self, index: usize) -> &[u8; PAGE_SIZE] {
        self.pages[index].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// Number of materialized pages.
    #[cfg(test)]
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|page| page.is_some()).count()
    }

    fn is_dirty(&self, index: usize) -> bool {
        self.dirty[index / 64] & (1 << (index % 64)) != 0
    }

    /// The dirty pages, in canonical (ascending) order. A block whose
    /// bytes equal `prev`'s copy of the same block (`prev` ascending,
    /// typically the previous checkpoint's pages) shares that copy's
    /// buffer; every other block gets a new one.
    pub(crate) fn collect_pages(&self, prev: &[DirtyPage]) -> Vec<DirtyPage> {
        let mut prev = prev.iter().peekable();
        (0..PAGE_COUNT)
            .filter(|&index| self.is_dirty(index))
            .map(|index| {
                let (live, _) = self.page(index).as_chunks::<BLOCK>();
                while prev.next_if(|p| (p.index as usize) < index).is_some() {}
                let old = prev.next_if(|p| p.index as usize == index);
                let blocks = std::array::from_fn(|i| match old {
                    Some(p) if *p.blocks[i] == live[i] => Arc::clone(&p.blocks[i]),
                    _ => Arc::new(live[i]),
                });
                DirtyPage { index: index as u32, blocks }
            })
            .collect()
    }

    /// Rewinds this memory of `image` to the memory a checkpoint
    /// carrying the dirty pages `saved` (ascending) describes, and
    /// makes those pages the dirty set. Only pages dirty on either
    /// side are rewritten: to the saved bytes where `saved` carries
    /// the page (copied into the live page, materialized if absent),
    /// else to the pristine image page. Every other page already holds
    /// the image on both sides.
    pub(crate) fn restore_pages(&mut self, image: &Image, saved: &[DirtyPage]) {
        let mut target = [0u64; PAGE_COUNT / 64];
        for page in saved {
            let index = page.index as usize;
            target[index / 64] |= 1 << (index % 64);
        }
        let mut saved = saved.iter().peekable();
        for (word, (&live, &want)) in self.dirty.iter().zip(&target).enumerate() {
            let mut bits = live | want;
            while bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let page = &mut self.pages[index];
                match saved.next_if(|p| p.index as usize == index) {
                    Some(p) => p.copy_to(page.get_or_insert_with(|| Box::new([0; PAGE_SIZE]))),
                    None => *page = pristine_page(image, index),
                }
            }
        }
        self.dirty = target;
    }
}

/// The offset in its page of an `N`-aligned `addr`. Clearing the
/// (already clear) low bits lets the compiler see that the `N`-byte
/// access stays inside the page.
#[inline]
fn offset<const N: usize>(addr: u32) -> usize {
    (addr as usize % PAGE_SIZE) & !(N - 1)
}

/// Page `index` of `image` loaded into zeroed memory (what
/// `Image::load_into` leaves there), or `None` when neither the code
/// nor the data reaches into it.
fn pristine_page(image: &Image, index: usize) -> Option<Page> {
    let base = index * PAGE_SIZE;
    let end = base + PAGE_SIZE;
    let code_base = image.code_base as usize;
    let code = base.max(code_base)..end.min(image.code_end() as usize);
    let data_base = image.data_base as usize;
    let data = base.max(data_base)..end.min(data_base + image.data.len());
    if code.is_empty() && data.is_empty() {
        return None;
    }
    let mut page = Box::new([0; PAGE_SIZE]);
    for addr in code {
        let off = addr - code_base;
        page[addr - base] = image.code[off / 4].to_le_bytes()[off % 4];
    }
    if !data.is_empty() {
        page[data.start - base..data.end - base]
            .copy_from_slice(&image.data[data.start - data_base..data.end - data_base]);
    }
    Some(page)
}

/// Load of any width, dispatched on `width` at run time.
#[inline]
pub(crate) fn load(mem: &Memory, width: MemWidth, addr: u32) -> Result<u32, TrapKind> {
    match width {
        MemWidth::B => load_b(mem, addr),
        MemWidth::Bu => load_bu(mem, addr),
        MemWidth::H => load_h(mem, addr),
        MemWidth::Hu => load_hu(mem, addr),
        MemWidth::W => load_w(mem, addr),
    }
}

/// The value a `width` load reads back from a store of `val` to the
/// same address at the same size: `val` truncated to the width, then
/// sign- or zero-extended as [`load`] extends the bytes in memory.
#[inline]
pub(crate) fn forwarded(width: MemWidth, val: u32) -> u32 {
    match width {
        MemWidth::B => val as i8 as i32 as u32,
        MemWidth::Bu => u32::from(val as u8),
        MemWidth::H => val as i16 as i32 as u32,
        MemWidth::Hu => u32::from(val as u16),
        MemWidth::W => val,
    }
}

/// Sign-extending byte load.
#[inline]
pub(super) fn load_b(mem: &Memory, addr: u32) -> Result<u32, TrapKind> {
    match mem.read(addr) {
        Some([b]) => Ok(b as i8 as i32 as u32),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::B }),
    }
}

/// Zero-extending byte load.
#[inline]
pub(super) fn load_bu(mem: &Memory, addr: u32) -> Result<u32, TrapKind> {
    match mem.read(addr) {
        Some([b]) => Ok(u32::from(b)),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::Bu }),
    }
}

/// Sign-extending halfword load.
#[inline]
pub(super) fn load_h(mem: &Memory, addr: u32) -> Result<u32, TrapKind> {
    if !addr.is_multiple_of(2) {
        return Err(TrapKind::MisalignedLoad { addr, width: MemWidth::H });
    }
    match mem.read(addr) {
        Some(b) => Ok(i32::from(i16::from_le_bytes(b)) as u32),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::H }),
    }
}

/// Zero-extending halfword load.
#[inline]
pub(super) fn load_hu(mem: &Memory, addr: u32) -> Result<u32, TrapKind> {
    if !addr.is_multiple_of(2) {
        return Err(TrapKind::MisalignedLoad { addr, width: MemWidth::Hu });
    }
    match mem.read(addr) {
        Some(b) => Ok(u32::from(u16::from_le_bytes(b))),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::Hu }),
    }
}

/// Word load.
#[inline]
pub(super) fn load_w(mem: &Memory, addr: u32) -> Result<u32, TrapKind> {
    if !addr.is_multiple_of(4) {
        return Err(TrapKind::MisalignedLoad { addr, width: MemWidth::W });
    }
    match mem.read(addr) {
        Some(b) => Ok(u32::from_le_bytes(b)),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::W }),
    }
}

/// Byte store. `width` is the instruction's encoded width (`B` or
/// `Bu` — same store semantics), reported verbatim in traps so the
/// fast tiers trap byte-identically to the interpreter.
#[inline]
pub(super) fn store_b(mem: &mut Memory, addr: u32, val: u32, width: MemWidth) -> Result<(), TrapKind> {
    mem.write(addr, [val as u8]).ok_or(TrapKind::WildStore { addr, width })
}

/// Halfword store; `width` as in [`store_b`] (`H` or `Hu`).
#[inline]
pub(super) fn store_h(mem: &mut Memory, addr: u32, val: u32, width: MemWidth) -> Result<(), TrapKind> {
    if !addr.is_multiple_of(2) {
        return Err(TrapKind::MisalignedStore { addr, width });
    }
    mem.write(addr, (val as u16).to_le_bytes()).ok_or(TrapKind::WildStore { addr, width })
}

/// Word store.
#[inline]
pub(super) fn store_w(mem: &mut Memory, addr: u32, val: u32) -> Result<(), TrapKind> {
    if !addr.is_multiple_of(4) {
        return Err(TrapKind::MisalignedStore { addr, width: MemWidth::W });
    }
    mem.write(addr, val.to_le_bytes()).ok_or(TrapKind::WildStore { addr, width: MemWidth::W })
}

/// Store of any width, dispatched on `width` at run time.
#[inline]
pub(crate) fn store(mem: &mut Memory, width: MemWidth, addr: u32, val: u32) -> Result<(), TrapKind> {
    match width {
        MemWidth::B | MemWidth::Bu => store_b(mem, addr, val, width),
        MemWidth::H | MemWidth::Hu => store_h(mem, addr, val, width),
        MemWidth::W => store_w(mem, addr, val),
    }
}

/// The trap [`store`] would return for a `width` store at `addr`,
/// without writing anything.
pub(crate) fn check_store(width: MemWidth, addr: u32) -> Option<TrapKind> {
    if !addr.is_multiple_of(width.bytes()) {
        Some(TrapKind::MisalignedStore { addr, width })
    } else if addr as usize + width.bytes() as usize > MEM_SIZE as usize {
        Some(TrapKind::WildStore { addr, width })
    } else {
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use straight_asm::{link_riscv, link_straight, ImageIsa};
    use straight_compiler::{compile_riscv, compile_straight, StraightOptions};

    use super::*;
    use crate::emu::{Checkpoint, EmuExit, EmuIsa, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
    use crate::pipeline::{Core, MachineConfig};

    const WIDTHS: [MemWidth; 5] =
        [MemWidth::B, MemWidth::Bu, MemWidth::H, MemWidth::Hu, MemWidth::W];

    /// A memory with no page materialized.
    pub(crate) fn empty() -> Memory {
        Memory::from_image(&Image {
            isa: ImageIsa::Riscv,
            entry: 0,
            code_base: 0,
            code: vec![],
            data_base: 0,
            data: vec![],
            symbols: Default::default(),
        })
    }

    /// An image whose code and data both straddle page boundaries,
    /// with a code word straddling one too.
    pub(crate) fn straddling_image() -> Image {
        Image {
            isa: ImageIsa::Riscv,
            entry: 0x1000,
            code_base: 0x1ffe,
            code: (0..5000u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect(),
            data_base: 0x7ffd,
            data: (0..9000u32).map(|i| (i % 251) as u8 + 1).collect(),
            symbols: Default::default(),
        }
    }

    /// `image` loaded by `Image::load_into` into a flat zeroed buffer:
    /// the reference a `Memory`'s pages are checked against.
    pub(crate) fn loaded(image: &Image) -> Vec<u8> {
        let mut flat = vec![0u8; MEM_SIZE as usize];
        image.load_into(&mut flat);
        flat
    }

    pub(crate) fn assert_pages_match(mem: &Memory, flat: &[u8]) {
        for index in 0..PAGE_COUNT {
            let want = &flat[index * PAGE_SIZE..(index + 1) * PAGE_SIZE];
            assert_eq!(mem.page(index)[..], *want, "page {index}");
        }
    }

    #[test]
    fn from_image_matches_load_into_on_every_page() {
        let image = straddling_image();
        let mem = Memory::from_image(&image);
        assert_pages_match(&mem, &loaded(&image));
        // Code covers pages 1..=6 and data pages 7..=10.
        assert_eq!(mem.resident_pages(), 10);
    }

    #[test]
    fn unwritten_pages_read_zero_at_every_width() {
        let image = straddling_image();
        for mut mem in [empty(), Memory::from_image(&image)] {
            let resident = mem.resident_pages();
            for width in WIDTHS {
                for addr in [0, 0x10_0000, 0x20_0000, MEM_SIZE - 4] {
                    assert_eq!(load(&mem, width, addr), Ok(0), "{width:?} load at {addr:#x}");
                }
            }
            assert_eq!(mem.resident_pages(), resident, "loads materialize nothing");
            store(&mut mem, MemWidth::W, 0x10_0000, 0x8180_7f01).unwrap();
            assert_eq!(mem.resident_pages(), resident + 1, "a store materializes its page");
            assert_eq!(load(&mem, MemWidth::W, 0x10_0004), Ok(0));
        }
    }

    #[test]
    fn misaligned_or_wild_stores_materialize_nothing() {
        let mut mem = empty();
        let top = MEM_SIZE;
        for width in WIDTHS {
            for addr in [1, 2, 3, 0x1001, top - 3, top, top + 4, u32::MAX - 3, u32::MAX] {
                if check_store(width, addr).is_some() {
                    let stored = store(&mut mem, width, addr, u32::MAX);
                    assert!(stored.is_err(), "{width:?} at {addr:#x}");
                }
            }
        }
        assert_eq!(mem.resident_pages(), 0);
        assert!(mem.collect_pages(&[]).is_empty(), "nothing marked dirty");
    }

    #[test]
    fn check_store_predicts_the_store() {
        let mut mem = empty();
        let top = MEM_SIZE;
        let addrs = [
            0, 1, 2, 3, 0x1000, 0x1001, 0x1002, 0x1003, // low memory
            top - 4, top - 3, top - 2, top - 1, // the last word
            top, top + 1, top + 2, u32::MAX - 3, u32::MAX, // past the end
        ];
        for width in WIDTHS {
            for addr in addrs {
                let predicted = check_store(width, addr);
                let stored = store(&mut mem, width, addr, 0xdead_beef).err();
                assert_eq!(predicted, stored, "{width:?} store at {addr:#x}");
            }
        }
    }

    #[test]
    fn forwarded_values_match_a_load_from_memory() {
        let mut mem = empty();
        for val in [0, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0xffff, 0x1_01ff, 0x1234_80f0, u32::MAX] {
            for width in WIDTHS {
                store(&mut mem, width, 8, val).unwrap();
                let read = load(&mem, width, 8).unwrap();
                assert_eq!(forwarded(width, val), read, "{width:?} {val:#x}");
            }
        }
    }

    /// Footprint guard: the `--quick` images (Dhrystone 50 iterations,
    /// CoreMark 1) run to completion with at most 16 of the 1024 pages
    /// resident on every executor. Measured: Dhrystone 5 on all six
    /// executors; CoreMark 3 on the RV32IM ones and 4 on the STRAIGHT
    /// ones.
    #[test]
    fn quick_workloads_stay_sparse_on_every_executor() {
        const LIMIT: usize = 16;
        for (name, src) in [
            ("Dhrystone", straight_workloads::dhrystone(50)),
            ("CoreMark", straight_workloads::coremark(1)),
        ] {
            let module = straight_ir::compile_source(&src).unwrap();
            let riscv = link_riscv(&compile_riscv(&module).unwrap()).unwrap();
            let opts = StraightOptions::default().with_max_distance(31);
            let straight = link_straight(&compile_straight(&module, &opts).unwrap()).unwrap();
            let mut counts = Vec::new();
            for tier in [TierConfig::interp(), TierConfig::fast()] {
                let mut emu = RiscvEmu::new(riscv.clone());
                assert!(matches!(emu.run_with(u64::MAX, tier), EmuExit::Done { .. }));
                counts.push((format!("RV32IM {tier:?}"), emu.core().mem.resident_pages()));
                let mut emu = StraightEmu::new(straight.clone());
                assert!(matches!(emu.run_with(u64::MAX, tier), EmuExit::Done { .. }));
                counts.push((format!("STRAIGHT {tier:?}"), emu.core().mem.resident_pages()));
            }
            for (image, cfg) in
                [(&riscv, MachineConfig::ss_4way()), (&straight, MachineConfig::straight_4way())]
            {
                let executor = cfg.name.clone();
                let mut core = Core::new(image.clone(), cfg).unwrap();
                assert!(core.run_retired(u64::MAX, u64::MAX).exit_code.is_some());
                counts.push((executor, core.mem.resident_pages()));
            }
            for (executor, count) in counts {
                assert!(count <= LIMIT, "{name} on {executor}: {count} pages resident");
            }
        }
    }

    /// The first pass of a sampled cell as `straight_core`'s sampler
    /// runs it: `emu` on the fast tier, checkpointing every 65,536
    /// instructions against the previous checkpoint into a grid that
    /// halves and doubles its spacing at 64 entries. Returns the grid
    /// and the number of times it doubled.
    fn sampled_grid(mut emu: impl ExecBackend) -> (Vec<Checkpoint>, u32) {
        const SPACING: u64 = 65_536;
        const MAX_CHECKPOINTS: usize = 64;
        let mut spacing = SPACING;
        let mut grid: Vec<Checkpoint> = Vec::new();
        while emu.run_with(grid.len() as u64 * spacing, TierConfig::fast()) == EmuExit::StepLimit {
            let cp =
                grid.last().map_or_else(|| emu.checkpoint(), |last| emu.checkpoint_after(last));
            grid.push(cp);
            if grid.len() == MAX_CHECKPOINTS {
                let mut keep = false;
                grid.retain(|_| {
                    keep = !keep;
                    keep
                });
                spacing *= 2;
            }
        }
        (grid, (spacing / SPACING).trailing_zeros())
    }

    /// Footprint gate for checkpoint block sharing: the first pass of
    /// the sampled Dhrystone SS and STRAIGHT RE+ (d=31) cells at 4,000
    /// iterations, where each grid doubles once, must hold fewer
    /// distinct 256-byte block buffers than block copies, and at most
    /// the measured count. Measured: SS 2,560 block copies across 41
    /// checkpoints in 148 buffers (37 KB; 4 KiB pages took 65 page
    /// buffers, 260 KB); RE+ 2,816 copies across 45 checkpoints in 188
    /// buffers. Without sharing every copy is its own buffer.
    #[test]
    fn sampled_checkpoint_grid_shares_unchanged_pages() {
        let module = straight_ir::compile_source(&straight_workloads::dhrystone(4000)).unwrap();
        let riscv = link_riscv(&compile_riscv(&module).unwrap()).unwrap();
        let opts = StraightOptions::default().with_max_distance(31);
        let straight = link_straight(&compile_straight(&module, &opts).unwrap()).unwrap();
        for (name, limit, (grid, doublings)) in [
            ("SS", 148, sampled_grid(RiscvEmu::new(riscv))),
            ("RE+", 188, sampled_grid(StraightEmu::new(straight))),
        ] {
            assert_eq!(doublings, 1, "{name}: the grid doubled {doublings} times");
            let blocks: Vec<&Arc<[u8; BLOCK]>> =
                grid.iter().flat_map(|cp| &cp.pages).flat_map(|page| &page.blocks).collect();
            let mut buffers: Vec<*const [u8; BLOCK]> = blocks.iter().map(|b| Arc::as_ptr(b)).collect();
            buffers.sort_unstable();
            buffers.dedup();
            let (copies, distinct) = (blocks.len(), buffers.len());
            assert!(distinct < copies, "{name}: no block shared: {distinct} buffers");
            assert!(distinct <= limit, "{name}: {distinct} distinct block buffers, limit {limit}");
        }
    }
}
