//! The conventional RV32IM back-end for the superscalar baseline.
//!
//! A standard pipeline: SSA IR → virtual-register MIR (phi lowering
//! via parallel moves, compare/branch fusion) → linear-scan register
//! allocation with caller-/callee-saved classes → RV32IM with the
//! standard ABI (`a0`–`a7` arguments, `a0` return, `ra`/`sp`
//! handling, 16-byte aligned frames).

mod isel;
mod regalloc;

use straight_asm::RvProgram;
use straight_ir::Module;

use crate::CodegenError;

/// A virtual register (one per SSA value plus compiler temporaries).
pub(crate) type VReg = u32;

/// MIR: RV32-shaped instructions over virtual registers, plus the
/// pseudo-ops the register allocator and frame finalization expand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MInst {
    /// Register–register ALU.
    Op { op: straight_isa::AluOp, rd: VReg, rs1: VReg, rs2: VReg },
    /// Register–immediate ALU (12-bit immediate already validated).
    OpImm { op: straight_isa::AluImmOp, rd: VReg, rs1: VReg, imm: i32 },
    /// Load a 32-bit constant (expands to `lui`+`addi` when needed).
    Li { rd: VReg, imm: i32 },
    /// Load a symbol address (`lui %hi` + `addi %lo`).
    La { rd: VReg, symbol: String },
    /// `rd = sp + (spill_area + ir_off)`; resolved after allocation.
    FrameAddr { rd: VReg, ir_off: u32 },
    /// Memory load from `rs1 + offset`.
    Load { width: straight_isa::MemWidth, rd: VReg, rs1: VReg, offset: i32 },
    /// Memory store of `rs2` to `rs1 + offset`.
    Store { width: straight_isa::MemWidth, rs2: VReg, rs1: VReg, offset: i32 },
    /// Copy.
    Mv { rd: VReg, rs: VReg },
    /// Conditional branch to a local label.
    Branch { op: straight_riscv::BranchOp, rs1: VReg, rs2: VReg, target: String },
    /// Unconditional jump to a local label.
    J { target: String },
    /// Call: moves `args` into `a0..`, `jal ra, symbol`, result in
    /// `dst`.
    Call { symbol: String, args: Vec<VReg>, dst: Option<VReg> },
    /// Environment service: code into `a7`, `arg` into `a0`, `ecall`,
    /// result from `a0`.
    Sys { code: u16, arg: VReg, dst: VReg },
    /// Function return (expands to the epilogue + `jalr zero, ra`).
    Ret { val: Option<VReg> },
    /// Bind the `index`-th incoming argument register to `rd`
    /// (expanded into the prologue's parallel move).
    GetArg { rd: VReg, index: u32 },
}

impl MInst {
    /// Virtual registers read by this instruction.
    pub(crate) fn uses(&self) -> Vec<VReg> {
        match self {
            MInst::Op { rs1, rs2, .. } => vec![*rs1, *rs2],
            MInst::OpImm { rs1, .. } | MInst::Load { rs1, .. } => vec![*rs1],
            MInst::Store { rs2, rs1, .. } => vec![*rs1, *rs2],
            MInst::Mv { rs, .. } => vec![*rs],
            MInst::Branch { rs1, rs2, .. } => vec![*rs1, *rs2],
            MInst::Call { args, .. } => args.clone(),
            MInst::Sys { arg, .. } => vec![*arg],
            MInst::Ret { val } => val.iter().copied().collect(),
            MInst::Li { .. } | MInst::La { .. } | MInst::FrameAddr { .. } | MInst::J { .. } | MInst::GetArg { .. } => {
                vec![]
            }
        }
    }

    /// Virtual register written by this instruction.
    pub(crate) fn def(&self) -> Option<VReg> {
        match self {
            MInst::Op { rd, .. }
            | MInst::OpImm { rd, .. }
            | MInst::Li { rd, .. }
            | MInst::La { rd, .. }
            | MInst::FrameAddr { rd, .. }
            | MInst::Load { rd, .. }
            | MInst::Mv { rd, .. }
            | MInst::GetArg { rd, .. } => Some(*rd),
            MInst::Call { dst, .. } => *dst,
            MInst::Sys { dst, .. } => Some(*dst),
            MInst::Store { .. } | MInst::Branch { .. } | MInst::J { .. } | MInst::Ret { .. } => None,
        }
    }

    /// True for instructions that transfer to a callee (allocation
    /// treats live ranges crossing these as needing callee-saved
    /// registers).
    pub(crate) fn is_call(&self) -> bool {
        matches!(self, MInst::Call { .. } | MInst::Sys { .. })
    }
}

/// A MIR basic block: a label plus instructions; control falls
/// through to the next block unless the last instruction is `J` or
/// `Ret`.
#[derive(Debug, Clone, Default)]
pub(crate) struct MBlock {
    pub label: String,
    pub insts: Vec<MInst>,
}

/// A MIR function before register allocation.
#[derive(Debug, Clone)]
pub(crate) struct MFunc {
    pub name: String,
    pub blocks: Vec<MBlock>,
    pub ir_frame: u32,
}

/// Orders the parallel copy `pending` (`(dst, src)` pairs, distinct
/// destinations) so no source is overwritten before it is read. A cycle
/// is broken by copying one source into `temp` and redirecting its
/// readers there. The cycle then drains completely before any other
/// cycle is broken, so one `temp` serves every cycle.
pub(crate) fn sequence_parallel_moves<R: Copy + PartialEq>(mut pending: Vec<(R, R)>, temp: R) -> Vec<(R, R)> {
    let mut out = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        if let Some(i) = pending.iter().position(|(dst, _)| !pending.iter().any(|(_, src)| src == dst)) {
            out.push(pending.remove(i));
        } else {
            let (_, src) = pending[0];
            out.push((temp, src));
            for (_, s) in &mut pending {
                if *s == src {
                    *s = temp;
                }
            }
        }
    }
    out
}

/// Compiles an IR module to a linkable RV32IM program.
///
/// # Errors
///
/// Returns [`CodegenError`] on unsupported shapes (e.g. more than 8
/// call arguments) or internal invariant violations.
pub fn compile_riscv(module: &Module) -> Result<RvProgram, CodegenError> {
    crate::compile_module(module, |f, module| regalloc::allocate_and_finalize(isel::lower_function(f, module)?))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use straight_riscv::Reg;

    use super::*;

    /// Runs the sequenced copy on `state`, with `temp` as the cycle
    /// breaker.
    fn apply<R: Copy + Eq + std::hash::Hash>(moves: &[(R, R)], temp: R, state: &mut HashMap<R, i32>) {
        for (dst, src) in sequence_parallel_moves(moves.to_vec(), temp) {
            state.insert(dst, state[&src]);
        }
    }

    #[test]
    fn parallel_moves_simple_chain() {
        // 1 <- 2, 2 <- 3
        let mut state: HashMap<VReg, i32> = [(1, 10), (2, 20), (3, 30)].into();
        apply(&[(1, 2), (2, 3)], 1000, &mut state);
        assert_eq!(state[&1], 20);
        assert_eq!(state[&2], 30);
    }

    #[test]
    fn parallel_moves_swap_cycle() {
        let mut state: HashMap<VReg, i32> = [(1, 10), (2, 20)].into();
        apply(&[(1, 2), (2, 1)], 1000, &mut state);
        assert_eq!(state[&1], 20);
        assert_eq!(state[&2], 10);
    }

    #[test]
    fn parallel_moves_three_cycle() {
        let mut state: HashMap<VReg, i32> = [(1, 10), (2, 20), (3, 30)].into();
        apply(&[(1, 2), (2, 3), (3, 1)], 1000, &mut state);
        assert_eq!(state[&1], 20);
        assert_eq!(state[&2], 30);
        assert_eq!(state[&3], 10);
    }

    #[test]
    fn one_temporary_serves_two_disjoint_cycles() {
        // a0 <-> a1 and a2 -> a3 -> a4 -> a2, with a5 <- a0 hanging off
        // the first cycle: two cycle breaks through the one scratch.
        let moves = [
            (Reg::A0, Reg::A1),
            (Reg::A1, Reg::A0),
            (Reg::A5, Reg::A0),
            (Reg::A2, Reg::A4),
            (Reg::A3, Reg::A2),
            (Reg::A4, Reg::A3),
        ];
        let seq = sequence_parallel_moves(moves.to_vec(), Reg::T6);
        assert_eq!(seq.iter().filter(|(dst, _)| *dst == Reg::T6).count(), 2);
        let mut state: HashMap<Reg, i32> = (0..6).map(|i| (Reg::a(i), i32::from(Reg::a(i).num()))).collect();
        apply(&moves, Reg::T6, &mut state);
        for (dst, src) in moves {
            assert_eq!(state[&dst], i32::from(src.num()));
        }
    }
}
