//! Width-specialized memory accessors, shared by both ISAs and tiers.
//!
//! The fast tiers resolve the width when a block is translated and
//! call these helpers directly, each of which performs exactly one
//! alignment test and one bounds test. The interpreters reach the same
//! helpers through the one `load`/`store` pair of the shared emulator
//! core, which dispatches on [`MemWidth`] at run time, so both tiers
//! share one alignment rule, trap values, and little-endian byte order.

use straight_isa::{MemWidth, TrapKind};

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
