//! Functional emulator for the RV32IM baseline.
//!
//! Same two-tier structure as the STRAIGHT emulator: the interpreter
//! fetches and decodes every instruction, and the fast tier is the
//! shared one of `emu::fast`. This file gives it registers as operands
//! (`x0` reads 0 from its slot; writes to it go to a dead [`SINK`]
//! slot so the hot path writes unconditionally), the RV32IM lowering
//! (`LUI`, `AUIPC` and `li` folded to constant writes, ALU ops on `x0`
//! dropped, `JAL` fused through with its link as a constant), and the
//! ops only RV32IM has ([`RiscvOp`]: `JALR`, which clears bit 0 of its
//! target, and `ECALL`; `EBREAK` lowers to a halting `Nop`).

use std::sync::Arc;

use straight_asm::{Image, STACK_TOP};
use straight_isa::{InstKind, TrapKind};
use straight_riscv::{decode, BranchOp, Reg, RvInst};

use super::checkpoint::{ArchSnap, CheckpointError};
use super::fast::{self, FastIsa, FastOp, Flow, Trace};
use super::{memops, EmuCore, EmuExit, EmuIsa, EmuStats};

/// Architectural registers are `x0..x31`; slot 32 is the fast tier's
/// write sink for `x0`-target instructions (never read, excluded from
/// checkpoints), letting lowered ops write unconditionally. The file
/// is 64 slots so fast-tier indices can be masked with `& 63` (an
/// identity for every real index), which lets the compiler drop the
/// bounds check on every hot-loop register access.
const SINK: u8 = 32;

/// The fast-tier ops only RV32IM has. Register numbers are raw
/// indices, writes pre-redirected to [`SINK`] for `x0`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RiscvOp {
    /// `offset` is the 12-bit immediate.
    Jalr { rd: u8, rs1: u8, offset: i16 },
    Ecall,
}

/// RV32IM functional emulator.
#[derive(Debug, Clone)]
pub struct RiscvEmu {
    core: EmuCore<Trace<RiscvEmu>>,
    /// `x0..x31` plus the fast tier's [`SINK`] slot; padded to 64
    /// for mask-based bounds-check elimination (slots 33..64 unused).
    regs: [u32; 64],
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
    type Block = Trace<RiscvEmu>;

    #[inline]
    fn core(&self) -> &EmuCore<Self::Block> {
        &self.core
    }

    #[inline]
    fn core_mut(&mut self) -> &mut EmuCore<Self::Block> {
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

    /// Cold, like the STRAIGHT one: it runs once per trace.
    #[cold]
    fn translate(&self, pc: u32) -> Self::Block {
        fast::translate(self, pc)
    }

    #[inline]
    fn exec_block(&mut self, t: &Self::Block) -> Option<EmuExit> {
        fast::exec(self, t)
    }

    #[inline]
    fn unchecked_len(&self, t: &Self::Block) -> Option<u64> {
        (t.len() > 0).then_some(t.len())
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

impl FastIsa for RiscvEmu {
    type Inst = RvInst;
    type Src = u8;
    type Dst = u8;
    type Op = RiscvOp;
    type Extra = ();

    fn decode(word: u32) -> Option<(RvInst, InstKind)> {
        decode(word).ok().map(|inst| (inst, inst.kind()))
    }

    fn lower(inst: RvInst, pc: u32, t: &mut Trace<Self>) -> Flow {
        // A constant write; an `x0` target makes it a no-op.
        let konst = |rd: Reg, value| {
            if rd.is_zero() {
                FastOp::Nop
            } else {
                FastOp::Const { d: rd.num(), value }
            }
        };
        let dst = |rd: Reg| if rd.is_zero() { SINK } else { rd.num() };
        let (op, flow) = match inst {
            RvInst::Lui { rd, imm } => (konst(rd, imm), Flow::Next),
            // The PC is a translation-time constant here.
            RvInst::Auipc { rd, imm } => (konst(rd, pc.wrapping_add(imm)), Flow::Next),
            // A static target: fold the link write and translate on there.
            RvInst::Jal { rd, offset } => {
                (konst(rd, pc.wrapping_add(4)), Flow::Jump(pc.wrapping_add(offset as u32)))
            }
            RvInst::Jalr { rd, rs1, offset } => {
                let op = RiscvOp::Jalr { rd: dst(rd), rs1: rs1.num(), offset: offset as i16 };
                (FastOp::Isa(op), Flow::End)
            }
            RvInst::Branch { op, rs1, rs2, offset } => {
                let (s1, s2, target) = (rs1.num(), rs2.num(), pc.wrapping_add(offset as u32));
                let op = match op {
                    BranchOp::Beq if rs2.is_zero() => FastOp::Beqz { s: s1, target },
                    BranchOp::Bne if rs2.is_zero() => FastOp::Bnez { s: s1, target },
                    BranchOp::Beq => FastOp::Beq { s1, s2, target },
                    BranchOp::Bne => FastOp::Bne { s1, s2, target },
                    BranchOp::Blt => FastOp::Blt { s1, s2, target },
                    BranchOp::Bge => FastOp::Bge { s1, s2, target },
                    BranchOp::Bltu => FastOp::Bltu { s1, s2, target },
                    BranchOp::Bgeu => FastOp::Bgeu { s1, s2, target },
                };
                (op, Flow::End)
            }
            // A load to `x0` still runs: it can trap.
            RvInst::Load { width, rd, rs1, offset } => {
                (FastOp::load(width, dst(rd), rs1.num(), offset as u32), Flow::Next)
            }
            RvInst::Store { width, rs2, rs1, offset } => {
                (FastOp::store(width, rs2.num(), rs1.num(), offset as u32), Flow::Next)
            }
            RvInst::OpImm { rd, .. } | RvInst::Op { rd, .. } if rd.is_zero() => (FastOp::Nop, Flow::Next),
            // `li` and friends: fold to a constant write.
            RvInst::OpImm { op, rd, rs1, imm } if rs1.is_zero() => (konst(rd, op.eval(0, imm)), Flow::Next),
            RvInst::OpImm { op, rd, rs1, imm } => {
                (FastOp::alu_imm(op, rd.num(), rs1.num(), imm as u32), Flow::Next)
            }
            RvInst::Op { op, rd, rs1, rs2 } => (FastOp::alu(op, rd.num(), rs1.num(), rs2.num()), Flow::Next),
            RvInst::Ecall => (FastOp::Isa(RiscvOp::Ecall), Flow::End),
            RvInst::Ebreak => (FastOp::Nop, Flow::Halt),
        };
        t.ops.push(op);
        flow
    }

    /// `& 63` is an identity for every real index and lets the
    /// compiler elide the bounds check.
    #[inline(always)]
    fn read(&self, r: u8, _n: u64) -> u32 {
        self.regs[usize::from(r & 63)]
    }

    #[inline(always)]
    fn write(&mut self, rd: u8, _n: u64, v: u32) {
        self.regs[usize::from(rd & 63)] = v;
    }

    #[inline(always)]
    fn sink(&mut self, _n: u64, _v: u32) {}

    #[inline(always)]
    fn exec_op(
        &mut self,
        op: RiscvOp,
        _t: &Trace<Self>,
        n: u64,
        next_pc: &mut u32,
    ) -> Result<u64, TrapKind> {
        match op {
            RiscvOp::Jalr { rd, rs1, offset } => {
                // Target before link write: rd may alias rs1.
                let target = self.read(rs1, n).wrapping_add(offset as u32) & !1;
                let link = std::mem::replace(next_pc, target);
                self.write(rd, n, link);
            }
            RiscvOp::Ecall => {
                let (code, arg) = (self.read(Reg::A7.num(), n), self.read(Reg::A0.num(), n));
                let r = self.core.sys.apply(code, arg).ok_or(TrapKind::UnknownSys { code })?;
                self.write(Reg::A0.num(), n, r);
            }
        }
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{ExecBackend, TierConfig};
    use straight_asm::{link_riscv, RvFunc, RvItem, RvProgram, RvReloc};
    use straight_isa::AluImmOp;
    use straight_riscv::MemWidth;

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
