//! The crate's one memory-access rule, shared by both ISAs, both
//! emulator tiers and the cycle-accurate core.
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

use straight_isa::{MemWidth, TrapKind};

/// Load of any width, dispatched on `width` at run time.
#[inline]
pub(crate) fn load(mem: &[u8], width: MemWidth, addr: u32) -> Result<u32, TrapKind> {
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
pub(super) fn load_b(mem: &[u8], addr: u32) -> Result<u32, TrapKind> {
    match mem.get(addr as usize) {
        Some(&b) => Ok(b as i8 as i32 as u32),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::B }),
    }
}

/// Zero-extending byte load.
#[inline]
pub(super) fn load_bu(mem: &[u8], addr: u32) -> Result<u32, TrapKind> {
    match mem.get(addr as usize) {
        Some(&b) => Ok(u32::from(b)),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::Bu }),
    }
}

/// Sign-extending halfword load.
#[inline]
pub(super) fn load_h(mem: &[u8], addr: u32) -> Result<u32, TrapKind> {
    if !addr.is_multiple_of(2) {
        return Err(TrapKind::MisalignedLoad { addr, width: MemWidth::H });
    }
    match mem.get(addr as usize..addr as usize + 2) {
        Some(b) => Ok(i32::from(i16::from_le_bytes([b[0], b[1]])) as u32),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::H }),
    }
}

/// Zero-extending halfword load.
#[inline]
pub(super) fn load_hu(mem: &[u8], addr: u32) -> Result<u32, TrapKind> {
    if !addr.is_multiple_of(2) {
        return Err(TrapKind::MisalignedLoad { addr, width: MemWidth::Hu });
    }
    match mem.get(addr as usize..addr as usize + 2) {
        Some(b) => Ok(u32::from(u16::from_le_bytes([b[0], b[1]]))),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::Hu }),
    }
}

/// Word load.
#[inline]
pub(super) fn load_w(mem: &[u8], addr: u32) -> Result<u32, TrapKind> {
    if !addr.is_multiple_of(4) {
        return Err(TrapKind::MisalignedLoad { addr, width: MemWidth::W });
    }
    match mem.get(addr as usize..addr as usize + 4) {
        Some(b) => Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        None => Err(TrapKind::WildLoad { addr, width: MemWidth::W }),
    }
}

/// Byte store. `width` is the instruction's encoded width (`B` or
/// `Bu` — same store semantics), reported verbatim in traps so the
/// fast tiers trap byte-identically to the interpreter.
#[inline]
pub(super) fn store_b(mem: &mut [u8], addr: u32, val: u32, width: MemWidth) -> Result<(), TrapKind> {
    match mem.get_mut(addr as usize) {
        Some(b) => {
            *b = val as u8;
            Ok(())
        }
        None => Err(TrapKind::WildStore { addr, width }),
    }
}

/// Halfword store; `width` as in [`store_b`] (`H` or `Hu`).
#[inline]
pub(super) fn store_h(mem: &mut [u8], addr: u32, val: u32, width: MemWidth) -> Result<(), TrapKind> {
    if !addr.is_multiple_of(2) {
        return Err(TrapKind::MisalignedStore { addr, width });
    }
    match mem.get_mut(addr as usize..addr as usize + 2) {
        Some(b) => {
            b.copy_from_slice(&(val as u16).to_le_bytes());
            Ok(())
        }
        None => Err(TrapKind::WildStore { addr, width }),
    }
}

/// Word store.
#[inline]
pub(super) fn store_w(mem: &mut [u8], addr: u32, val: u32) -> Result<(), TrapKind> {
    if !addr.is_multiple_of(4) {
        return Err(TrapKind::MisalignedStore { addr, width: MemWidth::W });
    }
    match mem.get_mut(addr as usize..addr as usize + 4) {
        Some(b) => {
            b.copy_from_slice(&val.to_le_bytes());
            Ok(())
        }
        None => Err(TrapKind::WildStore { addr, width: MemWidth::W }),
    }
}

/// Store of any width, dispatched on `width` at run time.
#[inline]
pub(crate) fn store(mem: &mut [u8], width: MemWidth, addr: u32, val: u32) -> Result<(), TrapKind> {
    match width {
        MemWidth::B | MemWidth::Bu => store_b(mem, addr, val, width),
        MemWidth::H | MemWidth::Hu => store_h(mem, addr, val, width),
        MemWidth::W => store_w(mem, addr, val),
    }
}

/// The trap [`store`] would return for a `width` store at `addr` into
/// `mem`, without writing anything.
pub(crate) fn check_store(mem: &[u8], width: MemWidth, addr: u32) -> Option<TrapKind> {
    if !addr.is_multiple_of(width.bytes()) {
        Some(TrapKind::MisalignedStore { addr, width })
    } else if addr as usize + width.bytes() as usize > mem.len() {
        Some(TrapKind::WildStore { addr, width })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use straight_asm::MEM_SIZE;

    const WIDTHS: [MemWidth; 5] =
        [MemWidth::B, MemWidth::Bu, MemWidth::H, MemWidth::Hu, MemWidth::W];

    #[test]
    fn check_store_predicts_the_store() {
        let mut mem = vec![0u8; MEM_SIZE as usize];
        let top = MEM_SIZE;
        let addrs = [
            0, 1, 2, 3, 0x1000, 0x1001, 0x1002, 0x1003, // low memory
            top - 4, top - 3, top - 2, top - 1, // the last word
            top, top + 1, top + 2, u32::MAX - 3, u32::MAX, // past the end
        ];
        for width in WIDTHS {
            for addr in addrs {
                let predicted = check_store(&mem, width, addr);
                let stored = store(&mut mem, width, addr, 0xdead_beef).err();
                assert_eq!(predicted, stored, "{width:?} store at {addr:#x}");
            }
        }
    }

    #[test]
    fn forwarded_values_match_a_load_from_memory() {
        let mut mem = vec![0u8; 64];
        for val in [0, 0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0xffff, 0x1_01ff, 0x1234_80f0, u32::MAX] {
            for width in WIDTHS {
                store(&mut mem, width, 8, val).unwrap();
                let read = load(&mem, width, 8).unwrap();
                assert_eq!(forwarded(width, val), read, "{width:?} {val:#x}");
            }
        }
    }
}
