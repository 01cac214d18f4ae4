//! The micro-op layer: both ISAs decode/rename into a common `UOp`
//! form so the entire back-end (scheduler, LSQ, ROB, functional
//! units, commit) is shared between SS and STRAIGHT — mirroring the
//! paper's methodology ("both simulators can share common codes for
//! the most part", Section V-A).

use std::collections::VecDeque;

use straight_isa::{AluImmOp, AluOp, Dist, Inst, InstKind, MemWidth, TrapKind};
use straight_riscv::{BranchOp, Reg, RvInst};


/// A raw fetched instruction of either ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawInst {
    /// STRAIGHT instruction.
    S(Inst),
    /// RV32IM instruction.
    R(RvInst),
    /// Fetch produced no decodable instruction (the PC left the code
    /// segment or the word is illegal). The fault flows through the
    /// pipeline like a normal instruction and is raised precisely at
    /// the ROB head — on the wrong path it is squashed like anything
    /// else.
    Fault(TrapKind),
}

/// What fetch needs to know about an instruction's control behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlInfo {
    /// Falls through.
    None,
    /// Conditional branch with a direct target.
    CondBranch {
        /// Taken target.
        target: u32,
    },
    /// Direct jump (always taken).
    DirectJump {
        /// Target.
        target: u32,
        /// Pushes a return address (calls).
        is_call: bool,
    },
    /// Indirect jump through a register.
    IndirectJump {
        /// Pushes a return address (indirect calls).
        is_call: bool,
        /// Predicted via the return-address stack.
        is_return: bool,
    },
}

impl RawInst {
    /// Control classification with resolved direct targets.
    #[must_use]
    pub fn control_info(&self, pc: u32) -> ControlInfo {
        match *self {
            RawInst::S(i) => match i {
                Inst::Bez { offset, .. } | Inst::Bnz { offset, .. } => {
                    ControlInfo::CondBranch { target: pc.wrapping_add((offset as i32 as u32).wrapping_mul(4)) }
                }
                Inst::J { offset } => ControlInfo::DirectJump {
                    target: pc.wrapping_add((offset as u32).wrapping_mul(4)),
                    is_call: false,
                },
                Inst::Jal { offset } => ControlInfo::DirectJump {
                    target: pc.wrapping_add((offset as u32).wrapping_mul(4)),
                    is_call: true,
                },
                Inst::Jr { .. } => ControlInfo::IndirectJump { is_call: false, is_return: true },
                Inst::Jalr { .. } => ControlInfo::IndirectJump { is_call: true, is_return: false },
                _ => ControlInfo::None,
            },
            RawInst::R(i) => match i {
                RvInst::Branch { offset, .. } => {
                    ControlInfo::CondBranch { target: pc.wrapping_add(offset as u32) }
                }
                RvInst::Jal { rd, offset } => ControlInfo::DirectJump {
                    target: pc.wrapping_add(offset as u32),
                    is_call: rd == Reg::RA,
                },
                RvInst::Jalr { rd, rs1, .. } => ControlInfo::IndirectJump {
                    is_call: rd == Reg::RA,
                    is_return: rd == Reg::ZERO && rs1 == Reg::RA,
                },
                _ => ControlInfo::None,
            },
            RawInst::Fault(_) => ControlInfo::None,
        }
    }
}

/// Condition kinds for branch resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// Taken when source 0 is zero (STRAIGHT `BEZ`).
    Eqz,
    /// Taken when source 0 is nonzero (STRAIGHT `BNZ`).
    Nez,
    /// RV32 two-source comparison.
    Rv(BranchOp),
}

impl CondKind {
    /// Evaluates the condition.
    #[must_use]
    pub fn eval(self, s0: u32, s1: u32) -> bool {
        match self {
            CondKind::Eqz => s0 == 0,
            CondKind::Nez => s0 != 0,
            CondKind::Rv(op) => op.eval(s0, s1),
        }
    }
}

/// The functional payload of a micro-op (evaluated at completion over
/// physical-register values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncOp {
    /// Two-source ALU operation.
    Alu(AluOp),
    /// RV32 register–immediate (sign-extended 12-bit semantics).
    AluImmRv(AluImmOp, i32),
    /// STRAIGHT register–immediate (zero-extended logical group).
    AluImmS(AluImmOp, i16),
    /// A value fully known at decode (`LUI`, `AUIPC`, `SPADD`).
    Const(u32),
    /// Copy of source 0 (`RMOV`).
    Copy,
    /// Load from `src0 + offset`.
    Load {
        /// Width.
        width: MemWidth,
        /// Byte offset.
        offset: i32,
    },
    /// Store of `src1` to `src0 + offset`.
    Store {
        /// Width.
        width: MemWidth,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Condition.
        cond: CondKind,
        /// Taken target.
        target: u32,
    },
    /// Direct jump.
    Jump {
        /// Target.
        target: u32,
        /// Result is the return address (else 0).
        link: bool,
    },
    /// Indirect jump to `src0 + offset`.
    JumpInd {
        /// Byte offset (RV32 `jalr`).
        offset: i32,
        /// Result is the return address (else the target, as STRAIGHT
        /// `JR` writes its target).
        link: bool,
    },
    /// Environment service; `code` is immediate for STRAIGHT, read
    /// from source 1 for RV32 `ecall`.
    Sys {
        /// Immediate code, if the ISA encodes it.
        code: Option<u16>,
    },
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
    /// A typed trap raised precisely at the ROB head (fetch/decode
    /// faults, out-of-range operand distances).
    Trap(TrapKind),
}

/// Functional-unit classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecUnit {
    /// Simple ALU (1 cycle).
    Alu,
    /// Pipelined multiplier (3 cycles).
    Mul,
    /// Unpipelined divider (12 cycles).
    Div,
    /// Branch unit.
    Branch,
    /// Memory port.
    Mem,
}

/// A renamed micro-op.
///
/// All fields are plain values (`Copy`): the data-oriented ROB stores
/// uops in a flat column and the pipeline stages copy one out when
/// they need it, instead of cloning through a heap indirection.
#[derive(Debug, Clone, Copy)]
pub struct UOp {
    /// Instruction PC.
    pub pc: u32,
    /// Functional payload.
    pub func: FuncOp,
    /// Unit class.
    pub unit: ExecUnit,
    /// Fixed execution latency (memory adds cache time at issue).
    pub latency: u32,
    /// Physical source registers (`None` = constant zero / unused).
    pub srcs: [Option<u16>; 2],
    /// Physical destination.
    pub dst: Option<u16>,
    /// Figure 15 category (one byte: uops are copied by value between
    /// the ROB columns and the pipeline stages).
    pub kind: InstKind,
    /// SS: architectural destination register.
    pub logical_dst: Option<u8>,
    /// SS: previous mapping of `logical_dst` (for walk recovery and
    /// freeing at commit).
    pub prev_phys: Option<u16>,
    /// STRAIGHT: RP value after this instruction (recovery restores
    /// it from the ROB entry, Section III-B).
    pub rp_after: u32,
    /// STRAIGHT: SP value after decode (recovery restores it).
    pub sp_after: u32,
}

impl UOp {
    /// True for conditional branches.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.func, FuncOp::Branch { .. })
    }

    /// True for any control transfer.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self.func, FuncOp::Branch { .. } | FuncOp::Jump { .. } | FuncOp::JumpInd { .. })
    }

    /// True for loads.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self.func, FuncOp::Load { .. })
    }

    /// True for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self.func, FuncOp::Store { .. })
    }

    /// True for environment calls (executed at the ROB head).
    #[must_use]
    pub fn is_sys(&self) -> bool {
        matches!(self.func, FuncOp::Sys { .. })
    }

    /// True for `HALT`/`ebreak`.
    #[must_use]
    pub fn is_halt(&self) -> bool {
        matches!(self.func, FuncOp::Halt)
    }

    /// True for trap micro-ops (raised at the ROB head).
    #[must_use]
    pub fn is_trap(&self) -> bool {
        matches!(self.func, FuncOp::Trap(_))
    }

    /// A micro-op that carries a typed trap to the ROB head. It never
    /// issues; commit raises the trap when (and only when) it reaches
    /// the head un-squashed.
    #[must_use]
    pub fn trap(pc: u32, kind: TrapKind, rp_after: u32, sp_after: u32) -> UOp {
        UOp {
            pc,
            func: FuncOp::Trap(kind),
            unit: ExecUnit::Alu,
            latency: 1,
            srcs: [None, None],
            dst: None,
            kind: InstKind::Other,
            logical_dst: None,
            prev_phys: None,
            rp_after,
            sp_after,
        }
    }
}

fn unit_of_alu(op: AluOp) -> (ExecUnit, u32) {
    if op.is_mul() {
        (ExecUnit::Mul, 3)
    } else if op.is_div() {
        (ExecUnit::Div, 12)
    } else {
        (ExecUnit::Alu, 1)
    }
}

/// STRAIGHT rename state: the register pointer and the (decode-time,
/// speculative) stack pointer.
#[derive(Debug, Clone, Copy)]
pub struct RpState {
    /// Next destination register index.
    pub rp: u32,
    /// Speculative SP (updated in order at decode by `SPADD`).
    pub sp: u32,
}

/// Renames a STRAIGHT instruction: the destination is the RP value,
/// sources are `RP - distance` (mod the physical count) — Figure 3's
/// operand determination.
#[must_use]
pub fn rename_straight(inst: Inst, pc: u32, st: &mut RpState, phys: u32) -> UOp {
    let rp = st.rp;
    let src = |d: Dist| -> Option<u16> {
        if d.is_zero() {
            None
        } else {
            // `rp < phys` and `1 <= d <= phys` (distance bounding plus
            // the config invariant `phys >= max_distance`), so the sum
            // is in `[rp, rp + phys)` and one conditional subtract is
            // the exact modulo — no hardware divide in the rename loop.
            let x = rp + phys - u32::from(d.get());
            Some(if x >= phys { x - phys } else { x } as u16)
        }
    };
    let kind = inst.kind();
    let (func, unit, latency, srcs): (FuncOp, ExecUnit, u32, [Option<u16>; 2]) = match inst {
        Inst::Nop => (FuncOp::Nop, ExecUnit::Alu, 1, [None, None]),
        Inst::Halt => (FuncOp::Halt, ExecUnit::Alu, 1, [None, None]),
        Inst::Alu { op, s1, s2 } => {
            let (u, l) = unit_of_alu(op);
            (FuncOp::Alu(op), u, l, [src(s1), src(s2)])
        }
        Inst::AluImm { op, s1, imm } => (FuncOp::AluImmS(op, imm), ExecUnit::Alu, 1, [src(s1), None]),
        Inst::Lui { imm } => (FuncOp::Const(u32::from(imm) << 16), ExecUnit::Alu, 1, [None, None]),
        Inst::Ld { width, addr, offset } => {
            (FuncOp::Load { width, offset: i32::from(offset) }, ExecUnit::Mem, 1, [src(addr), None])
        }
        Inst::St { width, val, addr } => {
            (FuncOp::Store { width, offset: 0 }, ExecUnit::Mem, 1, [src(addr), src(val)])
        }
        Inst::Rmov { s } => (FuncOp::Copy, ExecUnit::Alu, 1, [src(s), None]),
        Inst::SpAdd { imm } => {
            st.sp = st.sp.wrapping_add(imm as i32 as u32);
            (FuncOp::Const(st.sp), ExecUnit::Alu, 1, [None, None])
        }
        Inst::Bez { s, offset } => (
            FuncOp::Branch {
                cond: CondKind::Eqz,
                target: pc.wrapping_add((offset as i32 as u32).wrapping_mul(4)),
            },
            ExecUnit::Branch,
            1,
            [src(s), None],
        ),
        Inst::Bnz { s, offset } => (
            FuncOp::Branch {
                cond: CondKind::Nez,
                target: pc.wrapping_add((offset as i32 as u32).wrapping_mul(4)),
            },
            ExecUnit::Branch,
            1,
            [src(s), None],
        ),
        Inst::J { offset } => (
            FuncOp::Jump { target: pc.wrapping_add((offset as u32).wrapping_mul(4)), link: false },
            ExecUnit::Branch,
            1,
            [None, None],
        ),
        Inst::Jal { offset } => (
            FuncOp::Jump { target: pc.wrapping_add((offset as u32).wrapping_mul(4)), link: true },
            ExecUnit::Branch,
            1,
            [None, None],
        ),
        Inst::Jr { s } => (FuncOp::JumpInd { offset: 0, link: false }, ExecUnit::Branch, 1, [src(s), None]),
        Inst::Jalr { s } => (FuncOp::JumpInd { offset: 0, link: true }, ExecUnit::Branch, 1, [src(s), None]),
        Inst::Sys { code, s } => (FuncOp::Sys { code: Some(code) }, ExecUnit::Alu, 1, [src(s), None]),
    };
    let dst = Some(rp as u16);
    st.rp = if rp + 1 == phys { 0 } else { rp + 1 };
    UOp {
        pc,
        func,
        unit,
        latency,
        srcs,
        dst,
        kind,
        logical_dst: None,
        prev_phys: None,
        rp_after: st.rp,
        sp_after: st.sp,
    }
}

/// SS rename state: the RAM-based register map table and free list.
#[derive(Debug, Clone)]
pub struct RmtState {
    /// Logical → physical mapping.
    pub rmt: [u16; 32],
    /// Free physical registers.
    pub freelist: VecDeque<u16>,
}

impl RmtState {
    /// Initial mapping: logical `i` → physical `i`, the rest free.
    #[must_use]
    pub fn new(phys: u32) -> RmtState {
        let mut rmt = [0u16; 32];
        for (i, m) in rmt.iter_mut().enumerate() {
            *m = i as u16;
        }
        RmtState { rmt, freelist: (32..phys as u16).collect() }
    }
}

/// Renames an RV32 instruction through the RMT; returns `None` when
/// no physical register is free (rename stalls).
#[must_use]
pub fn rename_riscv(inst: RvInst, pc: u32, st: &mut RmtState) -> Option<UOp> {
    let kind = inst.kind();
    let src = |st: &RmtState, r: Reg| -> Option<u16> {
        if r.is_zero() {
            None
        } else {
            Some(st.rmt[r.num() as usize])
        }
    };
    let (func, unit, latency, srcs, rd): (FuncOp, ExecUnit, u32, [Option<u16>; 2], Option<Reg>) = match inst {
        RvInst::Lui { rd, imm } => (FuncOp::Const(imm), ExecUnit::Alu, 1, [None, None], Some(rd)),
        RvInst::Auipc { rd, imm } => {
            (FuncOp::Const(pc.wrapping_add(imm)), ExecUnit::Alu, 1, [None, None], Some(rd))
        }
        RvInst::Jal { rd, offset } => (
            FuncOp::Jump { target: pc.wrapping_add(offset as u32), link: true },
            ExecUnit::Branch,
            1,
            [None, None],
            Some(rd),
        ),
        RvInst::Jalr { rd, rs1, offset } => {
            (FuncOp::JumpInd { offset, link: true }, ExecUnit::Branch, 1, [src(st, rs1), None], Some(rd))
        }
        RvInst::Branch { op, rs1, rs2, offset } => (
            FuncOp::Branch { cond: CondKind::Rv(op), target: pc.wrapping_add(offset as u32) },
            ExecUnit::Branch,
            1,
            [src(st, rs1), src(st, rs2)],
            None,
        ),
        RvInst::Load { width, rd, rs1, offset } => {
            (FuncOp::Load { width, offset }, ExecUnit::Mem, 1, [src(st, rs1), None], Some(rd))
        }
        RvInst::Store { width, rs2, rs1, offset } => {
            (FuncOp::Store { width, offset }, ExecUnit::Mem, 1, [src(st, rs1), src(st, rs2)], None)
        }
        RvInst::OpImm { op, rd, rs1, imm } => {
            (FuncOp::AluImmRv(op, imm), ExecUnit::Alu, 1, [src(st, rs1), None], Some(rd))
        }
        RvInst::Op { op, rd, rs1, rs2 } => {
            let (u, l) = unit_of_alu(op);
            (FuncOp::Alu(op), u, l, [src(st, rs1), src(st, rs2)], Some(rd))
        }
        RvInst::Ecall => (
            // Reads a0 (argument) and a7 (code); writes a0.
            FuncOp::Sys { code: None },
            ExecUnit::Alu,
            1,
            [src(st, Reg::A0), src(st, Reg::A7)],
            Some(Reg::A0),
        ),
        RvInst::Ebreak => (FuncOp::Halt, ExecUnit::Alu, 1, [None, None], None),
    };
    // Allocate a destination for real (non-x0) writes.
    let rd = rd.filter(|r| !r.is_zero());
    let (dst, logical_dst, prev_phys) = match rd {
        Some(r) => {
            let phys = st.freelist.pop_front()?;
            let prev = st.rmt[r.num() as usize];
            st.rmt[r.num() as usize] = phys;
            (Some(phys), Some(r.num()), Some(prev))
        }
        None => (None, None, None),
    };
    Some(UOp {
        pc,
        func,
        unit,
        latency,
        srcs,
        dst,
        kind,
        logical_dst,
        prev_phys,
        rp_after: 0,
        sp_after: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_rename_distances() {
        let mut st = RpState { rp: 10, sp: 0x1000 };
        let u = rename_straight(
            Inst::Alu { op: AluOp::Add, s1: Dist::of(1), s2: Dist::of(3) },
            0x100,
            &mut st,
            256,
        );
        assert_eq!(u.dst, Some(10));
        assert_eq!(u.srcs, [Some(9), Some(7)]);
        assert_eq!(st.rp, 11);
    }

    #[test]
    fn straight_rp_wraps() {
        let mut st = RpState { rp: 1, sp: 0 };
        let u = rename_straight(Inst::Rmov { s: Dist::of(3) }, 0, &mut st, 96);
        assert_eq!(u.srcs[0], Some(94)); // 1 - 3 mod 96
    }

    #[test]
    fn straight_spadd_updates_sp_at_decode() {
        let mut st = RpState { rp: 0, sp: 0x1000 };
        let u = rename_straight(Inst::SpAdd { imm: -16 }, 0, &mut st, 96);
        assert_eq!(st.sp, 0x0ff0);
        assert_eq!(u.func, FuncOp::Const(0x0ff0));
        assert_eq!(u.sp_after, 0x0ff0);
    }

    #[test]
    fn riscv_rename_allocates_and_tracks_prev() {
        let mut st = RmtState::new(96);
        let u = rename_riscv(
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm: 1 },
            0,
            &mut st,
        )
        .unwrap();
        assert_eq!(u.srcs[0], Some(10)); // old a0 mapping
        assert_eq!(u.prev_phys, Some(10));
        assert_eq!(u.logical_dst, Some(10));
        assert_eq!(st.rmt[10], u.dst.unwrap());
    }

    #[test]
    fn riscv_x0_writes_discarded() {
        let mut st = RmtState::new(96);
        let before = st.freelist.len();
        let u = rename_riscv(
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 5 },
            0,
            &mut st,
        )
        .unwrap();
        assert_eq!(u.dst, None);
        assert_eq!(st.freelist.len(), before);
    }

    #[test]
    fn riscv_stalls_without_free_regs() {
        let mut st = RmtState::new(33);
        assert!(rename_riscv(
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 1 },
            0,
            &mut st
        )
        .is_some());
        assert!(rename_riscv(
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A1, rs1: Reg::ZERO, imm: 1 },
            0,
            &mut st
        )
        .is_none());
    }

    #[test]
    fn control_info_classification() {
        let jal = RawInst::S(Inst::Jal { offset: 4 });
        assert_eq!(jal.control_info(0x100), ControlInfo::DirectJump { target: 0x110, is_call: true });
        let ret = RawInst::R(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 });
        assert_eq!(ret.control_info(0), ControlInfo::IndirectJump { is_call: false, is_return: true });
        let bez = RawInst::S(Inst::Bez { s: Dist::of(1), offset: -2 });
        assert_eq!(bez.control_info(0x100), ControlInfo::CondBranch { target: 0xf8 });
    }
}
