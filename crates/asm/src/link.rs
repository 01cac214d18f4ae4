//! Linker: code/data layout, `_start` synthesis, relocation, encoding.

use std::collections::HashMap;
use std::fmt;

use straight_isa::{AluImmOp, Dist, Inst};
use straight_riscv::{Reg, RvInst};

use crate::{
    image::{Image, ImageIsa, CODE_BASE},
    object::{Func, Program, RvFunc, RvItem, RvProgram, RvReloc, SFunc, SItem, SProgram, SReloc},
};

/// Environment-service codes shared by both ISAs (`SYS code` /
/// `ecall` with the code in `a7`). They match `straight_ir::SysOp`.
pub mod abi {
    /// Print a signed decimal plus newline.
    pub const SYS_PRINT_INT: u16 = 1;
    /// Print one character.
    pub const SYS_PRINT_CHAR: u16 = 2;
    /// Terminate with an exit code.
    pub const SYS_EXIT: u16 = 3;
}

/// Linking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A referenced symbol was not defined.
    Undefined(String),
    /// Two definitions share a name.
    Duplicate(String),
    /// A branch target is too far for its offset field.
    OutOfRange {
        /// Symbol the branch targets.
        symbol: String,
        /// Required word offset.
        offset: i64,
    },
    /// The program has no `main`.
    NoMain,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Undefined(s) => write!(f, "undefined symbol `{s}`"),
            LinkError::Duplicate(s) => write!(f, "duplicate symbol `{s}`"),
            LinkError::OutOfRange { symbol, offset } => {
                write!(f, "branch to `{symbol}` out of range (offset {offset})")
            }
            LinkError::NoMain => write!(f, "program defines no `main` function"),
        }
    }
}

impl std::error::Error for LinkError {}

/// The STRAIGHT `_start` stub: call `main`, pass its return value to
/// the exit service, halt. After the call returns, `[1]` is the
/// callee's `JR` and `[2]` is `retval0` per the calling convention.
fn straight_start_stub() -> SFunc {
    SFunc {
        name: "_start".to_string(),
        items: vec![
            SItem { inst: Inst::Jal { offset: 0 }, reloc: Some(SReloc::BranchTo("main".into())) },
            SItem::plain(Inst::Sys { code: abi::SYS_EXIT, s: Dist::of(2) }),
            SItem::plain(Inst::Halt),
        ],
        labels: vec![],
    }
}

/// The RV32 `_start` stub: call `main`, move its return value into the
/// exit service, halt.
fn riscv_start_stub() -> RvFunc {
    RvFunc {
        name: "_start".to_string(),
        items: vec![
            RvItem { inst: RvInst::Jal { rd: Reg::RA, offset: 0 }, reloc: Some(RvReloc::JalTo("main".into())) },
            RvItem::plain(RvInst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::A7,
                rs1: Reg::ZERO,
                imm: i32::from(abi::SYS_EXIT),
            }),
            RvItem::plain(RvInst::Ecall),
            RvItem::plain(RvInst::Ebreak),
        ],
        labels: vec![],
    }
}

/// Resolves a relocation's symbol to its address: a label of the
/// function being linked first, then a global symbol.
type Resolve<'a> = dyn Fn(&str) -> Result<u32, LinkError> + 'a;

/// Links a STRAIGHT program into an executable image.
///
/// # Errors
///
/// Returns [`LinkError`] on undefined/duplicate symbols, missing
/// `main`, or out-of-range branch offsets.
pub fn link_straight(prog: &SProgram) -> Result<Image, LinkError> {
    link(prog, ImageIsa::Straight, straight_start_stub(), patch_straight, straight_isa::encode)
}

/// Links an RV32 program into an executable image.
///
/// # Errors
///
/// See [`link_straight`].
pub fn link_riscv(prog: &RvProgram) -> Result<Image, LinkError> {
    link(prog, ImageIsa::Riscv, riscv_start_stub(), patch_riscv, straight_riscv::encode)
}

/// The one link driver: checks for `main`, puts `stub` first, lays out
/// code from [`CODE_BASE`] and data from the next 256-byte boundary,
/// then patches each relocated instruction at its PC and encodes it.
fn link<I: Copy, R>(
    prog: &Program<I, R>,
    isa: ImageIsa,
    stub: Func<I, R>,
    patch: fn(&mut I, &R, u32, &Resolve) -> Result<(), LinkError>,
    encode: fn(&I) -> u32,
) -> Result<Image, LinkError> {
    if !prog.funcs.iter().any(|f| f.name == "main") {
        return Err(LinkError::NoMain);
    }
    let funcs: Vec<&Func<I, R>> = std::iter::once(&stub).chain(&prog.funcs).collect();
    let mut symbols = HashMap::new();
    let mut define = |name: String, addr: u32| match symbols.insert(name.clone(), addr) {
        Some(_) => Err(LinkError::Duplicate(name)),
        None => Ok(()),
    };
    let mut cursor = CODE_BASE;
    for f in &funcs {
        define(f.name.clone(), cursor)?;
        for (label, idx) in &f.labels {
            define(format!("{}.{label}", f.name), cursor + (*idx as u32) * 4)?;
        }
        cursor += (f.items.len() as u32) * 4;
    }
    let data_base = cursor.next_multiple_of(0x100);
    let mut data = Vec::new();
    for d in &prog.data {
        let addr = (data_base + data.len() as u32).next_multiple_of(d.align.max(1));
        data.resize((addr - data_base) as usize, 0);
        define(d.name.clone(), addr)?;
        data.extend_from_slice(&d.init);
        data.resize(data.len().max((addr - data_base + d.size) as usize), 0);
    }

    let mut code = Vec::with_capacity(((cursor - CODE_BASE) / 4) as usize);
    let mut pc = CODE_BASE;
    for f in &funcs {
        let resolve = |target: &str| {
            symbols
                .get(&format!("{}.{target}", f.name))
                .or_else(|| symbols.get(target))
                .copied()
                .ok_or_else(|| LinkError::Undefined(target.to_string()))
        };
        for item in &f.items {
            let mut inst = item.inst;
            if let Some(reloc) = &item.reloc {
                patch(&mut inst, reloc, pc, &resolve)?;
            }
            code.push(encode(&inst));
            pc += 4;
        }
    }
    Ok(Image { isa, entry: CODE_BASE, code_base: CODE_BASE, code, data_base, data, symbols })
}

/// Applies a STRAIGHT relocation to the instruction at `pc`.
fn patch_straight(inst: &mut Inst, reloc: &SReloc, pc: u32, resolve: &Resolve) -> Result<(), LinkError> {
    match reloc {
        SReloc::BranchTo(target) => {
            let woff = (i64::from(resolve(target)?) - i64::from(pc)) / 4;
            let fail = || LinkError::OutOfRange { symbol: target.clone(), offset: woff };
            match inst {
                Inst::Bez { offset, .. } | Inst::Bnz { offset, .. } => {
                    *offset = i16::try_from(woff).map_err(|_| fail())?;
                }
                Inst::J { offset } | Inst::Jal { offset } => {
                    if !(-(1i64 << 25)..(1i64 << 25)).contains(&woff) {
                        return Err(fail());
                    }
                    *offset = woff as i32;
                }
                other => panic!("BranchTo reloc on non-branch {other}"),
            }
        }
        SReloc::AbsHi(target) => {
            let addr = resolve(target)?;
            match inst {
                Inst::Lui { imm } => *imm = (addr >> 16) as u16,
                other => panic!("AbsHi reloc on non-LUI {other}"),
            }
        }
        SReloc::AbsLo(target) => {
            let addr = resolve(target)?;
            match inst {
                Inst::AluImm { op: AluImmOp::Ori, imm, .. } => *imm = (addr & 0xffff) as u16 as i16,
                other => panic!("AbsLo reloc on non-ORi {other}"),
            }
        }
    }
    Ok(())
}

/// Applies an RV32 relocation to the instruction at `pc`.
fn patch_riscv(inst: &mut RvInst, reloc: &RvReloc, pc: u32, resolve: &Resolve) -> Result<(), LinkError> {
    match reloc {
        RvReloc::BranchTo(target) | RvReloc::JalTo(target) => {
            let boff = i64::from(resolve(target)?) - i64::from(pc);
            let (offset, reach) = match (reloc, inst) {
                (RvReloc::BranchTo(_), RvInst::Branch { offset, .. }) => (offset, 1i64 << 12),
                (RvReloc::JalTo(_), RvInst::Jal { offset, .. }) => (offset, 1i64 << 20),
                (_, other) => panic!("{reloc:?} reloc on {other}"),
            };
            if !(-reach..reach).contains(&boff) {
                return Err(LinkError::OutOfRange { symbol: target.clone(), offset: boff / 4 });
            }
            *offset = boff as i32;
        }
        RvReloc::Hi20(target) => {
            let hi = resolve(target)?.wrapping_add(0x800) & 0xffff_f000;
            match inst {
                RvInst::Lui { imm, .. } => *imm = hi,
                other => panic!("Hi20 reloc on non-lui {other}"),
            }
        }
        RvReloc::Lo12(target) => {
            let lo12 = ((resolve(target)? & 0xfff) as i32) << 20 >> 20;
            match inst {
                RvInst::OpImm { imm, .. } => *imm = lo12,
                RvInst::Load { offset, .. } | RvInst::Store { offset, .. } | RvInst::Jalr { offset, .. } => {
                    *offset = lo12;
                }
                other => panic!("Lo12 reloc on {other}"),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use straight_riscv::BranchOp;

    use super::*;
    use crate::{DataItem, Item};

    fn minimal_straight() -> SProgram {
        SProgram {
            funcs: vec![SFunc {
                name: "main".into(),
                items: vec![
                    SItem::plain(Inst::AluImm { op: AluImmOp::Addi, s1: Dist::ZERO, imm: 42 }),
                    SItem::plain(Inst::Rmov { s: Dist::of(1) }),
                    SItem::plain(Inst::Jr { s: Dist::of(3) }),
                ],
                labels: vec![],
            }],
            data: vec![DataItem { name: "g".into(), size: 8, align: 4, init: vec![1, 2, 3, 4] }],
        }
    }

    #[test]
    fn straight_link_produces_stub_and_symbols() {
        let img = link_straight(&minimal_straight()).unwrap();
        assert_eq!(img.entry, CODE_BASE);
        // Stub (3 insts) then main.
        assert_eq!(img.symbol("main"), Some(CODE_BASE + 12));
        assert!(img.symbol("g").unwrap() >= img.code_end());
        // The stub's JAL points at main: word offset 3.
        let jal = straight_isa::decode(img.code[0]).unwrap();
        assert_eq!(jal, Inst::Jal { offset: 3 });
    }

    #[test]
    fn straight_abs_relocs_resolve() {
        let mut p = minimal_straight();
        p.funcs[0].items.insert(
            0,
            SItem { inst: Inst::Lui { imm: 0 }, reloc: Some(SReloc::AbsHi("g".into())) },
        );
        p.funcs[0].items.insert(
            1,
            SItem {
                inst: Inst::AluImm { op: AluImmOp::Ori, s1: Dist::of(1), imm: 0 },
                reloc: Some(SReloc::AbsLo("g".into())),
            },
        );
        let img = link_straight(&p).unwrap();
        let g = img.symbol("g").unwrap();
        let lui = straight_isa::decode(img.code[3]).unwrap();
        let ori = straight_isa::decode(img.code[4]).unwrap();
        let (hi, lo) = match (lui, ori) {
            (Inst::Lui { imm: hi }, Inst::AluImm { op: AluImmOp::Ori, imm, .. }) => (hi, imm),
            other => panic!("{other:?}"),
        };
        assert_eq!((u32::from(hi) << 16) | u32::from(lo as u16), g);
    }

    #[test]
    fn local_labels_resolve_before_globals() {
        let p = SProgram {
            funcs: vec![SFunc {
                name: "main".into(),
                items: vec![
                    SItem::plain(Inst::Nop),
                    SItem { inst: Inst::J { offset: 0 }, reloc: Some(SReloc::BranchTo("top".into())) },
                ],
                labels: vec![("top".into(), 0)],
            }],
            data: vec![],
        };
        let img = link_straight(&p).unwrap();
        let j = straight_isa::decode(*img.code.last().unwrap()).unwrap();
        assert_eq!(j, Inst::J { offset: -1 });
    }

    #[test]
    fn riscv_link_hi_lo() {
        let p = RvProgram {
            funcs: vec![RvFunc {
                name: "main".into(),
                items: vec![
                    RvItem { inst: RvInst::Lui { rd: Reg::A0, imm: 0 }, reloc: Some(RvReloc::Hi20("g".into())) },
                    RvItem {
                        inst: RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm: 0 },
                        reloc: Some(RvReloc::Lo12("g".into())),
                    },
                    RvItem::plain(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }),
                ],
                labels: vec![],
            }],
            data: vec![DataItem { name: "g".into(), size: 4, align: 4, init: vec![] }],
        };
        let img = link_riscv(&p).unwrap();
        let g = img.symbol("g").unwrap();
        let base = 4; // after the 4-instruction stub
        let (hi, lo) = match (
            straight_riscv::decode(img.code[base]).unwrap(),
            straight_riscv::decode(img.code[base + 1]).unwrap(),
        ) {
            (RvInst::Lui { imm, .. }, RvInst::OpImm { imm: lo, .. }) => (imm, lo),
            other => panic!("{other:?}"),
        };
        assert_eq!(hi.wrapping_add(lo as u32), g);
    }

    #[test]
    fn missing_main_rejected() {
        assert_eq!(link_straight(&SProgram::default()).unwrap_err(), LinkError::NoMain);
        assert_eq!(link_riscv(&RvProgram::default()).unwrap_err(), LinkError::NoMain);
    }

    #[test]
    fn undefined_symbol_reported() {
        let p = SProgram {
            funcs: vec![SFunc {
                name: "main".into(),
                items: vec![SItem { inst: Inst::J { offset: 0 }, reloc: Some(SReloc::BranchTo("ghost".into())) }],
                labels: vec![],
            }],
            data: vec![],
        };
        assert_eq!(link_straight(&p).unwrap_err(), LinkError::Undefined("ghost".into()));
    }

    /// A `main` whose first instruction `first` is relocated against
    /// the label `far`, `words` instructions later.
    fn far_branch<I: Clone, R: Clone>(first: Item<I, R>, filler: I, words: usize) -> Program<I, R> {
        let mut items = vec![first];
        items.resize(words + 1, Item::plain(filler));
        Program { funcs: vec![Func { name: "main".into(), items, labels: vec![("far".into(), words)] }], data: vec![] }
    }

    fn out_of_range(offset: i64) -> LinkError {
        LinkError::OutOfRange { symbol: "far".into(), offset }
    }

    #[test]
    fn straight_conditional_branch_reach_is_the_i16_word_range() {
        let bez = SItem {
            inst: Inst::Bez { s: Dist::of(1), offset: 0 },
            reloc: Some(SReloc::BranchTo("far".into())),
        };
        let img = link_straight(&far_branch(bez.clone(), Inst::Nop, 32767)).unwrap();
        assert_eq!(straight_isa::decode(img.code[3]).unwrap(), Inst::Bez { s: Dist::of(1), offset: 32767 });
        assert_eq!(link_straight(&far_branch(bez, Inst::Nop, 32768)).unwrap_err(), out_of_range(32768));
    }

    #[test]
    fn riscv_branch_reach_is_4_kib() {
        let beq = RvItem {
            inst: RvInst::Branch { op: BranchOp::Beq, rs1: Reg::A0, rs2: Reg::A1, offset: 0 },
            reloc: Some(RvReloc::BranchTo("far".into())),
        };
        let nop = RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };
        let img = link_riscv(&far_branch(beq.clone(), nop, 1023)).unwrap();
        assert!(matches!(straight_riscv::decode(img.code[4]).unwrap(), RvInst::Branch { offset: 4092, .. }));
        assert_eq!(link_riscv(&far_branch(beq, nop, 1024)).unwrap_err(), out_of_range(1024));
    }

    #[test]
    fn riscv_jal_reach_is_1_mib() {
        let jal = RvItem { inst: RvInst::Jal { rd: Reg::ZERO, offset: 0 }, reloc: Some(RvReloc::JalTo("far".into())) };
        let nop = RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };
        let img = link_riscv(&far_branch(jal.clone(), nop, (1 << 18) - 1)).unwrap();
        let reach = (1 << 20) - 4;
        assert!(matches!(straight_riscv::decode(img.code[4]).unwrap(), RvInst::Jal { offset, .. } if offset == reach));
        assert_eq!(link_riscv(&far_branch(jal, nop, 1 << 18)).unwrap_err(), out_of_range(1 << 18));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let mut p = minimal_straight();
        p.data.push(DataItem { name: "main".into(), size: 4, align: 4, init: vec![] });
        assert_eq!(link_straight(&p).unwrap_err(), LinkError::Duplicate("main".into()));
    }
}
