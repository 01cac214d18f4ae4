//! The micro-op layer: both ISAs decode/rename into a common `UOp`
//! form so the entire back-end (scheduler, LSQ, ROB, functional
//! units, commit) is shared between SS and STRAIGHT — mirroring the
//! paper's methodology ("both simulators can share common codes for
//! the most part", Section V-A).
//!
//! Each code slot is decoded once per image into a [`Decoded`] entry (a
//! `UOp` template plus what rename needs), and dispatch renames it
//! straight into the free ROB slot with [`Decoded::rename`]: the
//! template is copied in and the physical registers and RP/SP are
//! written over it there, with no intermediate record.

use straight_isa::{AluImmOp, AluOp, Dist, Inst, InstKind, MemWidth, TrapKind};
use straight_riscv::{BranchOp, Reg, RvInst};

use super::config::IsaKind;
use super::slab::Ring;
use super::stats::PowerEvents;

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
#[cfg_attr(test, derive(PartialEq))]
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
#[cfg_attr(test, derive(PartialEq))]
pub struct RpState {
    /// Next destination register index.
    pub rp: u32,
    /// Speculative SP (updated in order at decode by `SPADD`).
    pub sp: u32,
}

/// SS rename state: the RAM-based register map table and free list.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct RmtState {
    /// Logical → physical mapping.
    pub rmt: [u16; 32],
    /// Free physical registers, a FIFO ring sized for every register
    /// (no more can ever be free).
    pub freelist: Ring<u16>,
}

impl RmtState {
    /// Initial mapping: logical `i` → physical `i`, the rest free.
    #[must_use]
    pub fn new(phys: u32) -> RmtState {
        let mut rmt = [0u16; 32];
        for (i, m) in rmt.iter_mut().enumerate() {
            *m = i as u16;
        }
        let mut freelist = Ring::with_capacity(phys as usize);
        for p in 32..phys as u16 {
            freelist.push_back(p);
        }
        RmtState { rmt, freelist }
    }
}

/// One code slot, decoded once per image: every part of its micro-op
/// that does not depend on the rename state, so dispatch never decodes
/// or classifies an instruction again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    /// Fetch's control classification, direct targets resolved.
    pub control: ControlInfo,
    /// The micro-op with its rename-independent fields filled in (PC,
    /// func, unit, latency, kind, the SS logical destination); rename
    /// copies it into the ROB slot and fills in physical registers and
    /// RP/SP there ([`Decoded::rename`]).
    pub uop: UOp,
    /// Source operands in `uop.srcs` order: STRAIGHT distances, RV32IM
    /// logical register numbers. 0 (distance zero, `x0`) reads zero.
    pub operands: [u16; 2],
    /// STRAIGHT: the `sources()` distances (0 where absent), in that
    /// order, for the out-of-range check at the RP adders.
    pub dists: [u16; 2],
    /// Source operands the rename logic reads (the `sources()` count),
    /// for the power-event counters.
    pub nsrc: u8,
    /// STRAIGHT `SPADD`: the stack-pointer increment applied at rename.
    pub sp_add: Option<u32>,
}

/// A micro-op template: `srcs`, `dst`, `prev_phys` and RP/SP are
/// rename's to fill.
fn template(pc: u32, func: FuncOp, unit: ExecUnit, latency: u32, kind: InstKind) -> UOp {
    UOp {
        pc,
        func,
        unit,
        latency,
        srcs: [None, None],
        dst: None,
        kind,
        logical_dst: None,
        prev_phys: None,
        rp_after: 0,
        sp_after: 0,
    }
}

/// Decodes one code slot at `pc`. A fault (illegal word, or fetch
/// outside the image) decodes to a trap micro-op that rename passes
/// through unchanged.
pub(crate) fn decode(raw: RawInst, pc: u32) -> Decoded {
    match raw {
        RawInst::S(inst) => decode_straight(inst, pc),
        RawInst::R(inst) => decode_riscv(inst, pc),
        RawInst::Fault(kind) => Decoded {
            control: ControlInfo::None,
            uop: UOp::trap(pc, kind, 0, 0),
            operands: [0, 0],
            dists: [0, 0],
            nsrc: 0,
            sp_add: None,
        },
    }
}

/// Decodes a STRAIGHT instruction: operands stay distances, which
/// rename turns into `RP - distance` (Figure 3).
fn decode_straight(inst: Inst, pc: u32) -> Decoded {
    let target = |offset: i32| pc.wrapping_add((offset as u32).wrapping_mul(4));
    let (func, unit, latency, operands): (FuncOp, ExecUnit, u32, [Dist; 2]) = match inst {
        Inst::Nop => (FuncOp::Nop, ExecUnit::Alu, 1, [Dist::ZERO; 2]),
        Inst::Halt => (FuncOp::Halt, ExecUnit::Alu, 1, [Dist::ZERO; 2]),
        Inst::Alu { op, s1, s2 } => {
            let (u, l) = unit_of_alu(op);
            (FuncOp::Alu(op), u, l, [s1, s2])
        }
        Inst::AluImm { op, s1, imm } => (FuncOp::AluImmS(op, imm), ExecUnit::Alu, 1, [s1, Dist::ZERO]),
        Inst::Lui { imm } => (FuncOp::Const(u32::from(imm) << 16), ExecUnit::Alu, 1, [Dist::ZERO; 2]),
        Inst::Ld { width, addr, offset } => {
            (FuncOp::Load { width, offset: i32::from(offset) }, ExecUnit::Mem, 1, [addr, Dist::ZERO])
        }
        Inst::St { width, val, addr } => (FuncOp::Store { width, offset: 0 }, ExecUnit::Mem, 1, [addr, val]),
        Inst::Rmov { s } => (FuncOp::Copy, ExecUnit::Alu, 1, [s, Dist::ZERO]),
        // The value is the renamed SP, written by rename.
        Inst::SpAdd { .. } => (FuncOp::Const(0), ExecUnit::Alu, 1, [Dist::ZERO; 2]),
        Inst::Bez { s, offset } => (
            FuncOp::Branch { cond: CondKind::Eqz, target: target(i32::from(offset)) },
            ExecUnit::Branch,
            1,
            [s, Dist::ZERO],
        ),
        Inst::Bnz { s, offset } => (
            FuncOp::Branch { cond: CondKind::Nez, target: target(i32::from(offset)) },
            ExecUnit::Branch,
            1,
            [s, Dist::ZERO],
        ),
        Inst::J { offset } => {
            (FuncOp::Jump { target: target(offset), link: false }, ExecUnit::Branch, 1, [Dist::ZERO; 2])
        }
        Inst::Jal { offset } => {
            (FuncOp::Jump { target: target(offset), link: true }, ExecUnit::Branch, 1, [Dist::ZERO; 2])
        }
        Inst::Jr { s } => (FuncOp::JumpInd { offset: 0, link: false }, ExecUnit::Branch, 1, [s, Dist::ZERO]),
        Inst::Jalr { s } => (FuncOp::JumpInd { offset: 0, link: true }, ExecUnit::Branch, 1, [s, Dist::ZERO]),
        Inst::Sys { code, s } => (FuncOp::Sys { code: Some(code) }, ExecUnit::Alu, 1, [s, Dist::ZERO]),
    };
    let sources = inst.sources();
    Decoded {
        control: RawInst::S(inst).control_info(pc),
        uop: template(pc, func, unit, latency, inst.kind()),
        operands: operands.map(Dist::get),
        dists: sources.map(|d| d.map_or(0, Dist::get)),
        nsrc: sources.iter().flatten().count() as u8,
        sp_add: match inst {
            Inst::SpAdd { imm } => Some(imm as i32 as u32),
            _ => None,
        },
    }
}

/// Decodes an RV32IM instruction: operands stay logical registers,
/// which rename maps through the RMT.
fn decode_riscv(inst: RvInst, pc: u32) -> Decoded {
    let (func, unit, latency, operands, rd): (FuncOp, ExecUnit, u32, [Reg; 2], Option<Reg>) = match inst {
        RvInst::Lui { rd, imm } => (FuncOp::Const(imm), ExecUnit::Alu, 1, [Reg::ZERO; 2], Some(rd)),
        RvInst::Auipc { rd, imm } => {
            (FuncOp::Const(pc.wrapping_add(imm)), ExecUnit::Alu, 1, [Reg::ZERO; 2], Some(rd))
        }
        RvInst::Jal { rd, offset } => (
            FuncOp::Jump { target: pc.wrapping_add(offset as u32), link: true },
            ExecUnit::Branch,
            1,
            [Reg::ZERO; 2],
            Some(rd),
        ),
        RvInst::Jalr { rd, rs1, offset } => {
            (FuncOp::JumpInd { offset, link: true }, ExecUnit::Branch, 1, [rs1, Reg::ZERO], Some(rd))
        }
        RvInst::Branch { op, rs1, rs2, offset } => (
            FuncOp::Branch { cond: CondKind::Rv(op), target: pc.wrapping_add(offset as u32) },
            ExecUnit::Branch,
            1,
            [rs1, rs2],
            None,
        ),
        RvInst::Load { width, rd, rs1, offset } => {
            (FuncOp::Load { width, offset }, ExecUnit::Mem, 1, [rs1, Reg::ZERO], Some(rd))
        }
        RvInst::Store { width, rs2, rs1, offset } => {
            (FuncOp::Store { width, offset }, ExecUnit::Mem, 1, [rs1, rs2], None)
        }
        RvInst::OpImm { op, rd, rs1, imm } => {
            (FuncOp::AluImmRv(op, imm), ExecUnit::Alu, 1, [rs1, Reg::ZERO], Some(rd))
        }
        RvInst::Op { op, rd, rs1, rs2 } => {
            let (u, l) = unit_of_alu(op);
            (FuncOp::Alu(op), u, l, [rs1, rs2], Some(rd))
        }
        // Reads a0 (argument) and a7 (code); writes a0.
        RvInst::Ecall => (FuncOp::Sys { code: None }, ExecUnit::Alu, 1, [Reg::A0, Reg::A7], Some(Reg::A0)),
        RvInst::Ebreak => (FuncOp::Halt, ExecUnit::Alu, 1, [Reg::ZERO; 2], None),
    };
    let mut uop = template(pc, func, unit, latency, inst.kind());
    // Only real (non-x0) writes allocate a destination.
    uop.logical_dst = rd.filter(|r| !r.is_zero()).map(Reg::num);
    Decoded {
        control: RawInst::R(inst).control_info(pc),
        uop,
        operands: operands.map(|r| u16::from(r.num())),
        dists: [0, 0],
        nsrc: inst.sources().iter().flatten().count() as u8,
        sp_add: None,
    }
}

impl Decoded {
    /// Renames this slot's micro-op, fetched at `pc`, straight into the
    /// free ROB slot `out`: the template, then the physical registers
    /// and RP/SP (a trap micro-op when the RP adders find a distance
    /// reaching before the first instruction). It updates the RP/SP
    /// (STRAIGHT) or the RMT and free list (SS) and counts the rename
    /// logic's power events. `next_seq` is the dynamic index the
    /// instruction will get. Returns `false`, changing nothing, when SS
    /// needs a destination and the free list is empty (rename stalls).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn rename(
        &self,
        isa: IsaKind,
        next_seq: u64,
        phys: u32,
        pc: u32,
        rp_state: &mut RpState,
        rmt_state: &mut RmtState,
        events: &mut PowerEvents,
        out: &mut UOp,
    ) -> bool {
        let RpState { rp, sp } = *rp_state;
        if self.uop.is_trap() {
            *out = self.uop;
            out.pc = pc;
            out.rp_after = rp;
            out.sp_after = sp;
            return true;
        }
        match isa {
            IsaKind::Straight => {
                // Hazard check at the RP adders: a distance reaching
                // past the start of execution references a producer
                // that never existed. Trap precisely instead of reading
                // ring garbage.
                if let Some(&dist) = self.dists.iter().find(|&&d| u64::from(d) > next_seq) {
                    *out = UOp::trap(pc, TrapKind::DistanceOutOfRange { dist, executed: next_seq }, rp, sp);
                    return true;
                }
                events.rp_adds += 1 + u64::from(self.nsrc);
                *out = self.uop;
                out.pc = pc;
                // `rp < phys` and `1 <= d <= phys` (distance bounding
                // plus the config invariant `phys >= max_distance`), so
                // the sum is in `[rp, rp + phys)` and one conditional
                // subtract is the exact modulo — no divide in rename.
                out.srcs = self.operands.map(|d| {
                    (d != 0).then(|| {
                        let x = rp + phys - u32::from(d);
                        (if x >= phys { x - phys } else { x }) as u16
                    })
                });
                out.dst = Some(rp as u16);
                rp_state.rp = if rp + 1 == phys { 0 } else { rp + 1 };
                if let Some(delta) = self.sp_add {
                    rp_state.sp = sp.wrapping_add(delta);
                    out.func = FuncOp::Const(rp_state.sp);
                }
                out.rp_after = rp_state.rp;
                out.sp_after = rp_state.sp;
            }
            IsaKind::Ss => {
                let srcs = self.operands.map(|l| (l != 0).then(|| rmt_state.rmt[usize::from(l)]));
                let (dst, prev_phys) = match self.uop.logical_dst {
                    Some(l) => {
                        let Some(p) = rmt_state.freelist.pop_front() else { return false };
                        (Some(p), Some(std::mem::replace(&mut rmt_state.rmt[usize::from(l)], p)))
                    }
                    None => (None, None),
                };
                // The template's RP/SP fields are already 0.
                *out = self.uop;
                out.pc = pc;
                out.srcs = srcs;
                out.dst = dst;
                out.prev_phys = prev_phys;
                let writes = u64::from(dst.is_some());
                events.rmt_reads += u64::from(self.nsrc) + writes;
                events.rmt_writes += writes;
                events.freelist_ops += writes;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use straight_asm::{link_riscv, link_straight, Image};
    use straight_compiler::{compile_riscv, compile_straight, StraightOptions};

    /// Reference model: renames a STRAIGHT instruction the way dispatch
    /// did before the decode table: the destination is the RP value,
    /// sources are `RP - distance` (mod the physical count) — Figure 3's
    /// operand determination.
    fn rename_straight(inst: Inst, pc: u32, st: &mut RpState, phys: u32) -> UOp {
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

    /// Reference model: renames an RV32 instruction through the RMT the
    /// way dispatch did before the decode table; returns `None` when
    /// no physical register is free (rename stalls).
    fn rename_riscv(inst: RvInst, pc: u32, st: &mut RmtState) -> Option<UOp> {
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

    /// Reference model of the old dispatch-time rename block: decode
    /// the fetched instruction, check its distances at the RP adders,
    /// rename it and count the rename logic's power events. `None` is
    /// a free-list stall.
    #[allow(clippy::too_many_arguments)]
    fn reference_dispatch(
        raw: RawInst,
        pc: u32,
        isa: IsaKind,
        next_seq: u64,
        phys: u32,
        rp_state: &mut RpState,
        rmt_state: &mut RmtState,
        events: &mut PowerEvents,
    ) -> Option<UOp> {
        Some(match (isa, raw) {
            (_, RawInst::Fault(kind)) => UOp::trap(pc, kind, rp_state.rp, rp_state.sp),
            (IsaKind::Straight, RawInst::S(inst)) => {
                let sources = inst.sources();
                match sources.into_iter().flatten().find(|d| u64::from(d.get()) > next_seq) {
                    Some(d) => UOp::trap(
                        pc,
                        TrapKind::DistanceOutOfRange { dist: d.get(), executed: next_seq },
                        rp_state.rp,
                        rp_state.sp,
                    ),
                    None => {
                        events.rp_adds += 1 + sources.iter().flatten().count() as u64;
                        rename_straight(inst, pc, rp_state, phys)
                    }
                }
            }
            (IsaKind::Ss, RawInst::R(inst)) => {
                let nsrc = inst.sources().iter().flatten().count() as u64;
                let u = rename_riscv(inst, pc, rmt_state)?;
                events.rmt_reads += nsrc + u64::from(u.dst.is_some());
                events.rmt_writes += u64::from(u.dst.is_some());
                events.freelist_ops += u64::from(u.dst.is_some());
                u
            }
            _ => unreachable!("cross-ISA instruction"),
        })
    }

    /// A ROB slot still holding a previous tenant's fields, so a write
    /// that misses a field shows up as a mismatch.
    fn stale_slot() -> UOp {
        UOp {
            pc: 0xdead_beef,
            func: FuncOp::Const(0x5a5a),
            unit: ExecUnit::Div,
            latency: 99,
            srcs: [Some(777), Some(778)],
            dst: Some(779),
            kind: InstKind::Rmov,
            logical_dst: Some(31),
            prev_phys: Some(780),
            rp_after: 0x1234,
            sp_after: 0x5678,
        }
    }

    /// Decode table plus rename into a stale slot, as dispatch runs
    /// them.
    #[allow(clippy::too_many_arguments)]
    fn table_dispatch(
        d: &Decoded,
        pc: u32,
        isa: IsaKind,
        next_seq: u64,
        phys: u32,
        rp_state: &mut RpState,
        rmt_state: &mut RmtState,
        events: &mut PowerEvents,
    ) -> Option<UOp> {
        let mut slot = stale_slot();
        d.rename(isa, next_seq, phys, pc, rp_state, rmt_state, events, &mut slot).then_some(slot)
    }

    fn rename_one(raw: RawInst, pc: u32, isa: IsaKind, phys: u32, rp: &mut RpState, rmt: &mut RmtState) -> Option<UOp> {
        table_dispatch(&decode(raw, pc), pc, isa, u64::MAX, phys, rp, rmt, &mut PowerEvents::default())
    }

    #[test]
    fn straight_rename_distances() {
        let mut st = RpState { rp: 10, sp: 0x1000 };
        let inst = Inst::Alu { op: AluOp::Add, s1: Dist::of(1), s2: Dist::of(3) };
        let u = rename_one(RawInst::S(inst), 0x100, IsaKind::Straight, 256, &mut st, &mut RmtState::new(256))
            .unwrap();
        assert_eq!(u.dst, Some(10));
        assert_eq!(u.srcs, [Some(9), Some(7)]);
        assert_eq!(st.rp, 11);
    }

    #[test]
    fn straight_rp_wraps() {
        let mut st = RpState { rp: 1, sp: 0 };
        let raw = RawInst::S(Inst::Rmov { s: Dist::of(3) });
        let u = rename_one(raw, 0, IsaKind::Straight, 96, &mut st, &mut RmtState::new(96)).unwrap();
        assert_eq!(u.srcs[0], Some(94)); // 1 - 3 mod 96
    }

    #[test]
    fn straight_spadd_updates_sp_at_decode() {
        let mut st = RpState { rp: 0, sp: 0x1000 };
        let raw = RawInst::S(Inst::SpAdd { imm: -16 });
        let u = rename_one(raw, 0, IsaKind::Straight, 96, &mut st, &mut RmtState::new(96)).unwrap();
        assert_eq!(st.sp, 0x0ff0);
        assert_eq!(u.func, FuncOp::Const(0x0ff0));
        assert_eq!(u.sp_after, 0x0ff0);
    }

    #[test]
    fn riscv_rename_allocates_and_tracks_prev() {
        let mut st = RmtState::new(96);
        let raw = RawInst::R(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm: 1 });
        let u = rename_one(raw, 0, IsaKind::Ss, 96, &mut RpState { rp: 0, sp: 0 }, &mut st).unwrap();
        assert_eq!(u.srcs[0], Some(10)); // old a0 mapping
        assert_eq!(u.prev_phys, Some(10));
        assert_eq!(u.logical_dst, Some(10));
        assert_eq!(st.rmt[10], u.dst.unwrap());
    }

    #[test]
    fn riscv_x0_writes_discarded() {
        let mut st = RmtState::new(96);
        let before = st.freelist.len();
        let raw = RawInst::R(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 5 });
        let u = rename_one(raw, 0, IsaKind::Ss, 96, &mut RpState { rp: 0, sp: 0 }, &mut st).unwrap();
        assert_eq!(u.dst, None);
        assert_eq!(st.freelist.len(), before);
    }

    #[test]
    fn control_info_classification() {
        let jal = RawInst::S(Inst::Jal { offset: 4 });
        assert_eq!(jal.control_info(0x100), ControlInfo::DirectJump { target: 0x110, is_call: true });
        let ret = RawInst::R(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 });
        assert_eq!(ret.control_info(0), ControlInfo::IndirectJump { is_call: false, is_return: true });
        let bez = RawInst::S(Inst::Bez { s: Dist::of(1), offset: -2 });
        assert_eq!(bez.control_info(0x100), ControlInfo::CondBranch { target: 0xf8 });
        // The decode table carries the same classification.
        assert_eq!(decode(bez, 0x100).control, bez.control_info(0x100));
    }

    /// Runs the reference and the table through the same slot at the
    /// same rename state and requires identical micro-ops, rename state
    /// and power events. Returns the table's micro-op.
    #[allow(clippy::too_many_arguments)]
    fn assert_same_dispatch(
        what: &str,
        raw: RawInst,
        pc: u32,
        isa: IsaKind,
        next_seq: u64,
        phys: u32,
        reference: &mut (RpState, RmtState, PowerEvents),
        table: &mut (RpState, RmtState, PowerEvents),
    ) -> Option<UOp> {
        let want = reference_dispatch(raw, pc, isa, next_seq, phys, &mut reference.0, &mut reference.1, &mut reference.2);
        let got = table_dispatch(&decode(raw, pc), pc, isa, next_seq, phys, &mut table.0, &mut table.1, &mut table.2);
        assert_eq!(got, want, "{what}: micro-op of {raw:?} at {pc:#x}");
        assert_eq!(table.0, reference.0, "{what}: RP/SP after {raw:?} at {pc:#x}");
        assert_eq!(table.1, reference.1, "{what}: RMT/free list after {raw:?} at {pc:#x}");
        assert_eq!(table.2, reference.2, "{what}: power events after {raw:?} at {pc:#x}");
        got
    }

    fn compiled_images() -> Vec<(String, Image)> {
        let mut images = Vec::new();
        for (name, src) in [
            ("Dhrystone", straight_workloads::dhrystone(1)),
            ("CoreMark", straight_workloads::coremark(1)),
        ] {
            let module = straight_ir::compile_source(&src).unwrap();
            images.push((format!("{name} RV32IM"), link_riscv(&compile_riscv(&module).unwrap()).unwrap()));
            for d in [31u16, 1023] {
                for (variant, opts) in [("RAW", StraightOptions::raw()), ("RE+", StraightOptions::default())] {
                    let prog = compile_straight(&module, &opts.with_max_distance(d)).unwrap();
                    images.push((format!("{name} STRAIGHT {variant} d={d}"), link_straight(&prog).unwrap()));
                }
            }
        }
        images
    }

    /// Every code slot of the Dhrystone and CoreMark images, renamed in
    /// program order through the table and through the reference
    /// models, gives the same micro-op, rename state and power events.
    /// Even slots dispatch early (small `next_seq`) so distances run
    /// out of range; SS returns each previous mapping to the free list
    /// as commit would, so it never runs dry.
    #[test]
    fn decode_table_renames_like_the_reference_on_every_code_slot() {
        let (mut traps, mut renamed) = (0u32, 0u32);
        for (what, image) in compiled_images() {
            let (isa, phys) = match image.isa {
                straight_asm::ImageIsa::Straight => (IsaKind::Straight, 1024 + 256),
                straight_asm::ImageIsa::Riscv => (IsaKind::Ss, 96),
            };
            let fresh = (RpState { rp: 0, sp: 0x8000 }, RmtState::new(phys), PowerEvents::default());
            let (mut reference, mut table) = (fresh.clone(), fresh);
            for (i, &word) in image.code.iter().enumerate() {
                let pc = image.code_base + 4 * i as u32;
                let raw = match isa {
                    IsaKind::Straight => straight_isa::decode(word).ok().map(RawInst::S),
                    IsaKind::Ss => straight_riscv::decode(word).ok().map(RawInst::R),
                }
                .unwrap_or(RawInst::Fault(TrapKind::IllegalInstruction { word }));
                let next_seq = if i % 2 == 0 { (i % 40) as u64 } else { 1 << 20 };
                let u = assert_same_dispatch(&what, raw, pc, isa, next_seq, phys, &mut reference, &mut table)
                    .unwrap_or_else(|| panic!("{what}: unexpected free-list stall"));
                if u.is_trap() {
                    traps += 1;
                } else {
                    renamed += 1;
                }
                if let Some(prev) = u.prev_phys {
                    reference.1.freelist.push_back(prev);
                    table.1.freelist.push_back(prev);
                }
            }
            let fault = RawInst::Fault(TrapKind::FetchFault);
            assert_same_dispatch(&what, fault, 0x10, isa, 5, phys, &mut reference, &mut table);
        }
        assert!(traps > 100 && renamed > 10_000, "{traps} traps, {renamed} renamed");
    }

    #[test]
    fn riscv_stalls_without_free_regs() {
        let fresh = (RpState { rp: 0, sp: 0 }, RmtState::new(33), PowerEvents::default());
        let (mut reference, mut table) = (fresh.clone(), fresh);
        let a0 = RawInst::R(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 1 });
        let a1 = RawInst::R(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A1, rs1: Reg::A0, imm: 1 });
        assert!(assert_same_dispatch("first", a0, 0, IsaKind::Ss, 0, 33, &mut reference, &mut table).is_some());
        // The only free register is gone: the next write stalls and
        // leaves the RMT, the free list and the counters untouched.
        let before = table.clone();
        assert!(assert_same_dispatch("stall", a1, 4, IsaKind::Ss, 1, 33, &mut reference, &mut table).is_none());
        assert_eq!(table, before);
    }

    #[test]
    fn distance_out_of_range_traps_like_the_reference() {
        let fresh = (RpState { rp: 7, sp: 0x100 }, RmtState::new(64), PowerEvents::default());
        let (mut reference, mut table) = (fresh.clone(), fresh);
        // The store's value distance (first in `sources()` order) is the
        // one reported, although it is the second micro-op operand.
        let st = RawInst::S(Inst::St { width: MemWidth::W, val: Dist::of(9), addr: Dist::of(8) });
        let u = assert_same_dispatch("st", st, 0x40, IsaKind::Straight, 5, 64, &mut reference, &mut table).unwrap();
        assert_eq!(u.func, FuncOp::Trap(TrapKind::DistanceOutOfRange { dist: 9, executed: 5 }));
        assert_eq!((u.rp_after, u.sp_after), (7, 0x100));
        assert_eq!(table.2, PowerEvents::default(), "a trapped instruction uses no RP adder");
    }
}
