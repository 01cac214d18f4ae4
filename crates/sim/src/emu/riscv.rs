//! Functional emulator for the RV32IM baseline.
//!
//! Same two-tier structure as the STRAIGHT emulator: the interpreter
//! fetches and decodes every instruction; the fast tier translates
//! traces of lowered [`FastOp`] micro-ops — one dispatch per op, all
//! PC-relative values (`AUIPC`, links, branch targets) folded to
//! constants at translation time, `LUI`/`li` folded to constant
//! writes, `x0`-target writes redirected to a dead sink slot so the
//! hot path writes unconditionally, load/store widths specialized,
//! and unconditional `JAL`s fused *through* (the trace continues into
//! the static target) — with statistics batched per trace.

use std::sync::Arc;

use straight_asm::{Image, STACK_TOP};
use straight_isa::{AluOp, InstKind, TrapKind};
use straight_riscv::{decode, MemWidth, Reg, RvInst};

use super::checkpoint::{ArchSnap, CheckpointError};
use super::{memops, EmuCore, EmuExit, EmuIsa, EmuStats, BLOCK_CAP};
use crate::KindCounts;

/// Architectural registers are `x0..x31`; slot 32 is the fast tier's
/// write sink for `x0`-target instructions (never read, excluded from
/// checkpoints), letting lowered ops write unconditionally. The file
/// is 64 slots so fast-tier indices can be masked with `& 63` (an
/// identity for every real index), which lets the compiler drop the
/// bounds check on every hot-loop register access.
const SINK: u8 = 32;

/// A lowered micro-op of the fast tier. Register numbers are raw
/// indices (writes pre-redirected to [`SINK`] for `x0`), immediates
/// pre-extended, branch/link values absolute.
#[derive(Debug, Clone)]
enum FastOp {
    /// `x0`-target ALU/`LUI` instructions (architectural no-ops), and
    /// fused `jal x0` (plain `j`).
    Nop,
    /// Constant write: `LUI`, `AUIPC` (PC folded), `li`
    /// (`OpImm` on `x0`), and fused `JAL` link writes.
    Li { rd: u8, value: u32 },
    Add { rd: u8, rs1: u8, rs2: u8 },
    Sub { rd: u8, rs1: u8, rs2: u8 },
    Sll { rd: u8, rs1: u8, rs2: u8 },
    Slt { rd: u8, rs1: u8, rs2: u8 },
    Sltu { rd: u8, rs1: u8, rs2: u8 },
    Xor { rd: u8, rs1: u8, rs2: u8 },
    Srl { rd: u8, rs1: u8, rs2: u8 },
    Sra { rd: u8, rs1: u8, rs2: u8 },
    Or { rd: u8, rs1: u8, rs2: u8 },
    And { rd: u8, rs1: u8, rs2: u8 },
    Mul { rd: u8, rs1: u8, rs2: u8 },
    /// Reg-reg ops without a dedicated variant (M-extension
    /// high/div/rem): second dispatch through [`AluOp::eval`].
    Alu { op: AluOp, rd: u8, rs1: u8, rs2: u8 },
    Addi { rd: u8, rs1: u8, imm: u32 },
    Slli { rd: u8, rs1: u8, imm: u32 },
    Slti { rd: u8, rs1: u8, imm: u32 },
    Sltiu { rd: u8, rs1: u8, imm: u32 },
    Xori { rd: u8, rs1: u8, imm: u32 },
    Srli { rd: u8, rs1: u8, imm: u32 },
    Srai { rd: u8, rs1: u8, imm: u32 },
    Ori { rd: u8, rs1: u8, imm: u32 },
    Andi { rd: u8, rs1: u8, imm: u32 },
    /// Unreachable in practice ([`AluImmOp::base`] is covered by the
    /// dedicated variants above); kept as a safety net.
    AluImm { op: AluOp, rd: u8, rs1: u8, imm: u32 },
    LdB { rd: u8, rs1: u8, offset: u32 },
    LdBu { rd: u8, rs1: u8, offset: u32 },
    LdH { rd: u8, rs1: u8, offset: u32 },
    LdHu { rd: u8, rs1: u8, offset: u32 },
    LdW { rd: u8, rs1: u8, offset: u32 },
    /// `width` is the encoded width, kept for byte-identical traps.
    StB { rs2: u8, rs1: u8, offset: u32, width: MemWidth },
    StH { rs2: u8, rs1: u8, offset: u32, width: MemWidth },
    StW { rs2: u8, rs1: u8, offset: u32 },
    Beq { rs1: u8, rs2: u8, target: u32 },
    Bne { rs1: u8, rs2: u8, target: u32 },
    Blt { rs1: u8, rs2: u8, target: u32 },
    Bge { rs1: u8, rs2: u8, target: u32 },
    Bltu { rs1: u8, rs2: u8, target: u32 },
    Bgeu { rs1: u8, rs2: u8, target: u32 },
    Jalr { rd: u8, rs1: u8, offset: u32, link: u32 },
    Ecall,
    Ebreak,
}

/// A translated trace: instructions ending at the first conditional
/// branch, indirect jump, environment call, undecodable word,
/// code-end, or [`BLOCK_CAP`]. Unconditional `JAL` does not end a
/// trace — its target is static, so translation continues there.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// PC after the last instruction when no terminator redirects
    /// (follows fused jumps, so not simply `start_pc + 4 * len`).
    end_pc: u32,
    ops: Vec<FastOp>,
    /// Per instruction: its PC and Figure 15 category. Cold paths
    /// only (mid-trace traps need the interpreter's exact PC and
    /// per-instruction statistics).
    meta: Vec<(u32, InstKind)>,
    /// Precomputed Figure 15 category counts for a full execution.
    kinds: KindCounts,
    /// Ends in `EBREAK`.
    ends_break: bool,
}

/// RV32IM functional emulator.
#[derive(Debug, Clone)]
pub struct RiscvEmu {
    core: EmuCore<Block>,
    /// `x0..x31` plus the fast tier's [`SINK`] slot; padded to 64
    /// for mask-based bounds-check elimination (slots 33..64 unused).
    regs: [u32; 64],
}

/// Write-side register lowering: `x0` writes go to the sink slot.
fn wreg(rd: Reg) -> u8 {
    if rd.is_zero() {
        SINK
    } else {
        rd.num()
    }
}

impl RiscvEmu {
    /// Prepares an emulator for a linked image (shared, not copied,
    /// when passed as an `Arc`).
    #[must_use]
    pub fn new(image: impl Into<Arc<Image>>) -> RiscvEmu {
        let mut regs = [0u32; 64];
        regs[Reg::SP.num() as usize] = STACK_TOP;
        RiscvEmu { core: EmuCore::new(image.into(), EmuStats::default()), regs }
    }

    /// Architectural value of `reg`.
    #[must_use]
    pub fn reg(&self, reg: Reg) -> u32 {
        self.r(reg)
    }

    #[inline]
    fn r(&self, reg: Reg) -> u32 {
        self.regs[reg.num() as usize]
    }

    #[inline]
    fn w(&mut self, reg: Reg, val: u32) {
        if !reg.is_zero() {
            self.regs[reg.num() as usize] = val;
        }
    }

    /// Fast-tier register read. `& 63` is an identity for every real
    /// index and lets the compiler elide the bounds check.
    #[inline(always)]
    fn rr(&self, r: u8) -> u32 {
        self.regs[usize::from(r & 63)]
    }

    /// Executes one already-decoded instruction at `pc`. Returns the
    /// next PC; the caller detects an exit from `sys.exit_code` and
    /// the `Ebreak` flag.
    #[inline]
    fn exec_inst(&mut self, inst: &RvInst, pc: u32) -> Result<u32, TrapKind> {
        let mut next_pc = pc.wrapping_add(4);
        match *inst {
            RvInst::Lui { rd, imm } => self.w(rd, imm),
            RvInst::Auipc { rd, imm } => self.w(rd, pc.wrapping_add(imm)),
            RvInst::Jal { rd, offset } => {
                self.w(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
            }
            RvInst::Jalr { rd, rs1, offset } => {
                let target = self.r(rs1).wrapping_add(offset as u32) & !1;
                self.w(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            RvInst::Branch { op, rs1, rs2, offset } => {
                if op.eval(self.r(rs1), self.r(rs2)) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            RvInst::Load { width, rd, rs1, offset } => {
                let a = self.r(rs1).wrapping_add(offset as u32);
                let v = memops::load(&self.core.mem, width, a)?;
                self.w(rd, v);
            }
            RvInst::Store { width, rs2, rs1, offset } => {
                let a = self.r(rs1).wrapping_add(offset as u32);
                let v = self.r(rs2);
                memops::store(&mut self.core.mem, width, a, v)?;
            }
            RvInst::OpImm { op, rd, rs1, imm } => {
                let v = op.eval(self.r(rs1), imm);
                self.w(rd, v);
            }
            RvInst::Op { op, rd, rs1, rs2 } => {
                let v = op.eval(self.r(rs1), self.r(rs2));
                self.w(rd, v);
            }
            RvInst::Ecall => {
                let code = self.r(Reg::A7);
                let arg = self.r(Reg::A0);
                match self.core.sys.apply(code, arg) {
                    Some(r) => self.w(Reg::A0, r),
                    None => return Err(TrapKind::UnknownSys { code }),
                }
            }
            RvInst::Ebreak => {}
        }
        Ok(next_pc)
    }
}

impl EmuIsa for RiscvEmu {
    type Block = Block;

    #[inline]
    fn core(&self) -> &EmuCore<Block> {
        &self.core
    }

    #[inline]
    fn core_mut(&mut self) -> &mut EmuCore<Block> {
        &mut self.core
    }

    #[inline]
    fn step_trapping(&mut self) -> Result<Option<EmuExit>, TrapKind> {
        let Some(word) = self.core.image.fetch(self.core.pc) else {
            return Err(TrapKind::FetchFault);
        };
        let Ok(inst) = decode(word) else {
            return Err(TrapKind::IllegalInstruction { word });
        };
        let next_pc = self.exec_inst(&inst, self.core.pc)?;
        Ok(self.core.retire_one(inst.kind(), next_pc, matches!(inst, RvInst::Ebreak)))
    }

    /// Translates the trace starting at `start_pc`. An empty trace
    /// (first word unfetchable/undecodable) makes the caller fall
    /// back to the interpreter, which raises the proper trap.
    fn translate(&self, start_pc: u32) -> Block {
        let mut ops = Vec::new();
        let mut meta: Vec<(u32, InstKind)> = Vec::new();
        let mut kinds = KindCounts::default();
        let mut ends_break = false;
        let mut pc = start_pc;
        while meta.len() < BLOCK_CAP {
            let Some(word) = self.core.image.fetch(pc) else { break };
            let Ok(inst) = decode(word) else { break };
            let kind = inst.kind();
            kinds[kind] += 1;
            meta.push((pc, kind));
            let mut next = pc.wrapping_add(4);
            let terminator = matches!(
                inst,
                RvInst::Jalr { .. } | RvInst::Branch { .. } | RvInst::Ecall | RvInst::Ebreak
            );
            match inst {
                RvInst::Lui { rd, imm } => ops.push(if rd.is_zero() {
                    FastOp::Nop
                } else {
                    FastOp::Li { rd: rd.num(), value: imm }
                }),
                RvInst::Auipc { rd, imm } => ops.push(if rd.is_zero() {
                    FastOp::Nop
                } else {
                    // The PC is a translation-time constant here.
                    FastOp::Li { rd: rd.num(), value: pc.wrapping_add(imm) }
                }),
                RvInst::Jal { rd, offset } => {
                    // Unconditional with a static target: fold the
                    // link write and keep translating at the target.
                    ops.push(if rd.is_zero() {
                        FastOp::Nop
                    } else {
                        FastOp::Li { rd: rd.num(), value: pc.wrapping_add(4) }
                    });
                    next = pc.wrapping_add(offset as u32);
                }
                RvInst::Jalr { rd, rs1, offset } => ops.push(FastOp::Jalr {
                    rd: wreg(rd),
                    rs1: rs1.num(),
                    offset: offset as u32,
                    link: pc.wrapping_add(4),
                }),
                RvInst::Branch { op, rs1, rs2, offset } => {
                    let (rs1, rs2) = (rs1.num(), rs2.num());
                    let target = pc.wrapping_add(offset as u32);
                    use straight_riscv::BranchOp;
                    ops.push(match op {
                        BranchOp::Beq => FastOp::Beq { rs1, rs2, target },
                        BranchOp::Bne => FastOp::Bne { rs1, rs2, target },
                        BranchOp::Blt => FastOp::Blt { rs1, rs2, target },
                        BranchOp::Bge => FastOp::Bge { rs1, rs2, target },
                        BranchOp::Bltu => FastOp::Bltu { rs1, rs2, target },
                        BranchOp::Bgeu => FastOp::Bgeu { rs1, rs2, target },
                    });
                }
                RvInst::Load { width, rd, rs1, offset } => {
                    let (rd, rs1, offset) = (wreg(rd), rs1.num(), offset as u32);
                    ops.push(match width {
                        MemWidth::B => FastOp::LdB { rd, rs1, offset },
                        MemWidth::Bu => FastOp::LdBu { rd, rs1, offset },
                        MemWidth::H => FastOp::LdH { rd, rs1, offset },
                        MemWidth::Hu => FastOp::LdHu { rd, rs1, offset },
                        MemWidth::W => FastOp::LdW { rd, rs1, offset },
                    });
                }
                RvInst::Store { width, rs2, rs1, offset } => {
                    let (rs2, rs1, offset) = (rs2.num(), rs1.num(), offset as u32);
                    ops.push(match width {
                        MemWidth::B | MemWidth::Bu => FastOp::StB { rs2, rs1, offset, width },
                        MemWidth::H | MemWidth::Hu => FastOp::StH { rs2, rs1, offset, width },
                        MemWidth::W => FastOp::StW { rs2, rs1, offset },
                    });
                }
                RvInst::OpImm { op, rd, rs1, imm } => ops.push(if rd.is_zero() {
                    FastOp::Nop
                } else if rs1.is_zero() {
                    // `li` and friends: fold to a constant write.
                    FastOp::Li { rd: rd.num(), value: op.eval(0, imm) }
                } else {
                    let (rd, rs1, imm) = (rd.num(), rs1.num(), imm as u32);
                    match op.base() {
                        AluOp::Add => FastOp::Addi { rd, rs1, imm },
                        AluOp::Sll => FastOp::Slli { rd, rs1, imm },
                        AluOp::Slt => FastOp::Slti { rd, rs1, imm },
                        AluOp::Sltu => FastOp::Sltiu { rd, rs1, imm },
                        AluOp::Xor => FastOp::Xori { rd, rs1, imm },
                        AluOp::Srl => FastOp::Srli { rd, rs1, imm },
                        AluOp::Sra => FastOp::Srai { rd, rs1, imm },
                        AluOp::Or => FastOp::Ori { rd, rs1, imm },
                        AluOp::And => FastOp::Andi { rd, rs1, imm },
                        base => FastOp::AluImm { op: base, rd, rs1, imm },
                    }
                }),
                RvInst::Op { op, rd, rs1, rs2 } => ops.push(if rd.is_zero() {
                    FastOp::Nop
                } else {
                    let (rd, rs1, rs2) = (rd.num(), rs1.num(), rs2.num());
                    match op {
                        AluOp::Add => FastOp::Add { rd, rs1, rs2 },
                        AluOp::Sub => FastOp::Sub { rd, rs1, rs2 },
                        AluOp::Sll => FastOp::Sll { rd, rs1, rs2 },
                        AluOp::Slt => FastOp::Slt { rd, rs1, rs2 },
                        AluOp::Sltu => FastOp::Sltu { rd, rs1, rs2 },
                        AluOp::Xor => FastOp::Xor { rd, rs1, rs2 },
                        AluOp::Srl => FastOp::Srl { rd, rs1, rs2 },
                        AluOp::Sra => FastOp::Sra { rd, rs1, rs2 },
                        AluOp::Or => FastOp::Or { rd, rs1, rs2 },
                        AluOp::And => FastOp::And { rd, rs1, rs2 },
                        AluOp::Mul => FastOp::Mul { rd, rs1, rs2 },
                        op => FastOp::Alu { op, rd, rs1, rs2 },
                    }
                }),
                RvInst::Ecall => ops.push(FastOp::Ecall),
                RvInst::Ebreak => {
                    ends_break = true;
                    ops.push(FastOp::Ebreak);
                }
            }
            pc = next;
            if terminator {
                break;
            }
        }
        Block { end_pc: pc, ops, meta, kinds, ends_break }
    }

    /// Executes one translated trace; the caller guarantees enough
    /// step budget for the whole trace.
    #[inline]
    fn exec_block(&mut self, b: &Block) -> Option<EmuExit> {
        let entry = self.core.count;
        let mut next_pc = b.end_pc;
        for (idx, op) in (0_u64..).zip(b.ops.iter()) {
            match *op {
                FastOp::Nop => {}
                FastOp::Li { rd, value } => self.regs[usize::from(rd & 63)] = value,
                FastOp::Add { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] =
                        self.rr(rs1).wrapping_add(self.rr(rs2));
                }
                FastOp::Sub { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_sub(self.rr(rs2));
                }
                FastOp::Sll { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_shl(self.rr(rs2) & 31);
                }
                FastOp::Slt { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = u32::from((self.rr(rs1) as i32) < (self.rr(rs2) as i32));
                }
                FastOp::Sltu { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = u32::from(self.rr(rs1) < self.rr(rs2));
                }
                FastOp::Xor { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1) ^ self.rr(rs2);
                }
                FastOp::Srl { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_shr(self.rr(rs2) & 31);
                }
                FastOp::Sra { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = ((self.rr(rs1) as i32).wrapping_shr(self.rr(rs2) & 31)) as u32;
                }
                FastOp::Or { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1) | self.rr(rs2);
                }
                FastOp::And { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1) & self.rr(rs2);
                }
                FastOp::Mul { rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_mul(self.rr(rs2));
                }
                FastOp::Alu { op, rd, rs1, rs2 } => {
                    self.regs[usize::from(rd & 63)] =
                        op.eval(self.rr(rs1), self.rr(rs2));
                }
                FastOp::Addi { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_add(imm);
                }
                FastOp::Slli { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_shl(imm & 31);
                }
                FastOp::Slti { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = u32::from((self.rr(rs1) as i32) < (imm as i32));
                }
                FastOp::Sltiu { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = u32::from(self.rr(rs1) < imm);
                }
                FastOp::Xori { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1) ^ imm;
                }
                FastOp::Srli { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1).wrapping_shr(imm & 31);
                }
                FastOp::Srai { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = ((self.rr(rs1) as i32).wrapping_shr(imm & 31)) as u32;
                }
                FastOp::Ori { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1) | imm;
                }
                FastOp::Andi { rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = self.rr(rs1) & imm;
                }
                FastOp::AluImm { op, rd, rs1, imm } => {
                    self.regs[usize::from(rd & 63)] = op.eval(self.rr(rs1), imm);
                }
                FastOp::LdB { rd, rs1, offset } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    match memops::load_b(&self.core.mem, a) {
                        Ok(v) => self.regs[usize::from(rd & 63)] = v,
                        Err(kind) => return self.core.trace_trap(&b.meta, entry, idx, kind),
                    }
                }
                FastOp::LdBu { rd, rs1, offset } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    match memops::load_bu(&self.core.mem, a) {
                        Ok(v) => self.regs[usize::from(rd & 63)] = v,
                        Err(kind) => return self.core.trace_trap(&b.meta, entry, idx, kind),
                    }
                }
                FastOp::LdH { rd, rs1, offset } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    match memops::load_h(&self.core.mem, a) {
                        Ok(v) => self.regs[usize::from(rd & 63)] = v,
                        Err(kind) => return self.core.trace_trap(&b.meta, entry, idx, kind),
                    }
                }
                FastOp::LdHu { rd, rs1, offset } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    match memops::load_hu(&self.core.mem, a) {
                        Ok(v) => self.regs[usize::from(rd & 63)] = v,
                        Err(kind) => return self.core.trace_trap(&b.meta, entry, idx, kind),
                    }
                }
                FastOp::LdW { rd, rs1, offset } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    match memops::load_w(&self.core.mem, a) {
                        Ok(v) => self.regs[usize::from(rd & 63)] = v,
                        Err(kind) => return self.core.trace_trap(&b.meta, entry, idx, kind),
                    }
                }
                FastOp::StB { rs2, rs1, offset, width } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    let v = self.rr(rs2);
                    if let Err(kind) = memops::store_b(&mut self.core.mem, a, v, width) {
                        return self.core.trace_trap(&b.meta, entry, idx, kind);
                    }
                }
                FastOp::StH { rs2, rs1, offset, width } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    let v = self.rr(rs2);
                    if let Err(kind) = memops::store_h(&mut self.core.mem, a, v, width) {
                        return self.core.trace_trap(&b.meta, entry, idx, kind);
                    }
                }
                FastOp::StW { rs2, rs1, offset } => {
                    let a = self.rr(rs1).wrapping_add(offset);
                    let v = self.rr(rs2);
                    if let Err(kind) = memops::store_w(&mut self.core.mem, a, v) {
                        return self.core.trace_trap(&b.meta, entry, idx, kind);
                    }
                }
                FastOp::Beq { rs1, rs2, target } => {
                    if self.rr(rs1) == self.rr(rs2) {
                        next_pc = target;
                    }
                }
                FastOp::Bne { rs1, rs2, target } => {
                    if self.rr(rs1) != self.rr(rs2) {
                        next_pc = target;
                    }
                }
                FastOp::Blt { rs1, rs2, target } => {
                    if (self.rr(rs1) as i32) < (self.rr(rs2) as i32) {
                        next_pc = target;
                    }
                }
                FastOp::Bge { rs1, rs2, target } => {
                    if (self.rr(rs1) as i32) >= (self.rr(rs2) as i32) {
                        next_pc = target;
                    }
                }
                FastOp::Bltu { rs1, rs2, target } => {
                    if self.rr(rs1) < self.rr(rs2) {
                        next_pc = target;
                    }
                }
                FastOp::Bgeu { rs1, rs2, target } => {
                    if self.rr(rs1) >= self.rr(rs2) {
                        next_pc = target;
                    }
                }
                FastOp::Jalr { rd, rs1, offset, link } => {
                    // Target before link write: rd may alias rs1.
                    next_pc = self.rr(rs1).wrapping_add(offset) & !1;
                    self.regs[usize::from(rd & 63)] = link;
                }
                FastOp::Ecall => {
                    let code = self.rr(Reg::A7.num());
                    let arg = self.rr(Reg::A0.num());
                    match self.core.sys.apply(code, arg) {
                        Some(r) => self.regs[usize::from(Reg::A0.num() & 63)] = r,
                        None => {
                            let kind = TrapKind::UnknownSys { code };
                            return self.core.trace_trap(&b.meta, entry, idx, kind);
                        }
                    }
                }
                FastOp::Ebreak => {}
            }
        }
        self.core.retire_trace(b.meta.len() as u64, next_pc, &b.kinds, b.ends_break)
    }

    #[inline]
    fn unchecked_len(&self, b: &Block) -> Option<u64> {
        (!b.meta.is_empty()).then_some(b.meta.len() as u64)
    }

    fn arch_snap(&self) -> ArchSnap {
        // Snapshot only the 32 architectural registers; the fast
        // tier's sink slot is never architecturally visible.
        let mut regs = [0u32; 32];
        regs.copy_from_slice(&self.regs[..32]);
        ArchSnap::Riscv { regs }
    }

    fn restore_arch(&mut self, arch: &ArchSnap, _executed: u64) -> Result<(), CheckpointError> {
        let ArchSnap::Riscv { regs } = arch else {
            return Err(CheckpointError::IsaMismatch);
        };
        self.regs[..32].copy_from_slice(regs);
        self.regs[32] = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{ExecBackend, TierConfig};
    use straight_asm::{link_riscv, RvFunc, RvItem, RvProgram, RvReloc};
    use straight_isa::AluImmOp;

    #[test]
    fn returns_value_through_stub() {
        // main: li a0, 42; ret
        let prog = RvProgram {
            funcs: vec![RvFunc {
                name: "main".into(),
                items: vec![
                    RvItem::plain(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 42 }),
                    RvItem::plain(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }),
                ],
                labels: vec![],
            }],
            data: vec![],
        };
        let image = link_riscv(&prog).unwrap();
        let r = RiscvEmu::new(image).run(1000);
        assert_eq!(r.exit_code(), Some(42));
    }

    fn sum_loop_program() -> RvProgram {
        // Loop: sum 1..=5 into a1, store/load through sp, return it.
        RvProgram {
            funcs: vec![RvFunc {
                name: "main".into(),
                items: vec![
                    RvItem::plain(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::ZERO, imm: 5 }),
                    RvItem::plain(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A1, rs1: Reg::ZERO, imm: 0 }),
                    // loop:
                    RvItem::plain(RvInst::Op {
                        op: straight_isa::AluOp::Add,
                        rd: Reg::A1,
                        rs1: Reg::A1,
                        rs2: Reg::T0,
                    }),
                    RvItem::plain(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::T0, imm: -1 }),
                    RvItem {
                        inst: RvInst::Branch {
                            op: straight_riscv::BranchOp::Bne,
                            rs1: Reg::T0,
                            rs2: Reg::ZERO,
                            offset: 0,
                        },
                        reloc: Some(RvReloc::BranchTo("loop".into())),
                    },
                    RvItem::plain(RvInst::Store {
                        width: MemWidth::W,
                        rs2: Reg::A1,
                        rs1: Reg::SP,
                        offset: -4,
                    }),
                    RvItem::plain(RvInst::Load { width: MemWidth::W, rd: Reg::A0, rs1: Reg::SP, offset: -4 }),
                    RvItem::plain(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }),
                ],
                labels: vec![("loop".into(), 2)],
            }],
            data: vec![],
        }
    }

    #[test]
    fn memory_and_branches() {
        let image = link_riscv(&sum_loop_program()).unwrap();
        let r = RiscvEmu::new(image).run(10_000);
        assert_eq!(r.exit_code(), Some(15));
        assert!(r.stats.kinds[InstKind::JumpBranch] >= 5);
    }

    #[test]
    fn fast_tier_matches_interpreter_exactly() {
        let image = link_riscv(&sum_loop_program()).unwrap();
        let mut interp = RiscvEmu::new(image.clone());
        let mut fast = RiscvEmu::new(image);
        assert_eq!(
            interp.run_with(10_000, TierConfig::interp()),
            fast.run_with(10_000, TierConfig::fast())
        );
        assert_eq!(interp.stdout(), fast.stdout());
        assert_eq!(interp.stats(), fast.stats());
        assert_eq!(interp.checkpoint(), fast.checkpoint());
    }

    #[test]
    fn checkpoint_round_trips_mid_run() {
        let image = link_riscv(&sum_loop_program()).unwrap();
        let mut emu = RiscvEmu::new(image.clone());
        assert_eq!(emu.run_with(6, TierConfig::interp()), EmuExit::StepLimit);
        let cp = emu.checkpoint();
        let done = emu.run_with(u64::MAX, TierConfig::interp());

        let mut resumed = RiscvEmu::new(image);
        resumed.restore(&cp).expect("same ISA");
        assert_eq!(resumed.checkpoint(), cp);
        assert_eq!(resumed.run_with(u64::MAX, TierConfig::interp()), done);
    }

    #[test]
    fn wild_store_traps_with_context() {
        // sw a0, -8(zero): address wraps to the top of the 32-bit
        // space, far outside simulated memory.
        let prog = RvProgram {
            funcs: vec![RvFunc {
                name: "main".into(),
                items: vec![
                    RvItem::plain(RvInst::Store {
                        width: MemWidth::W,
                        rs2: Reg::A0,
                        rs1: Reg::ZERO,
                        offset: -8,
                    }),
                    RvItem::plain(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }),
                ],
                labels: vec![],
            }],
            data: vec![],
        };
        let image = link_riscv(&prog).unwrap();
        let r = RiscvEmu::new(image).run(1000);
        match r.exit {
            EmuExit::Trap(t) => {
                assert_eq!(t.kind, TrapKind::WildStore { addr: (-8i32) as u32, width: MemWidth::W });
                // _start's JAL has executed; the store is instruction 1.
                assert_eq!(t.index, 1);
            }
            other => panic!("expected a wild-store trap, got {other:?}"),
        }
    }
}
