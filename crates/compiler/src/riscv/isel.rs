//! Instruction selection: SSA IR → MIR over virtual registers.

use std::collections::HashMap;

use straight_isa::{AluImmOp, AluOp};
use straight_riscv::BranchOp;
use straight_ir::analysis::Cfg;
use straight_ir::{BinOp, Block, Function, InstData, Module, Terminator, Value};

use super::{sequence_parallel_moves, MBlock, MFunc, MInst, VReg};
use crate::CodegenError;

type CResult<T> = Result<T, CodegenError>;

pub(crate) struct Isel<'a> {
    f: &'a Function,
    module: &'a Module,
    next_vreg: VReg,
    use_counts: HashMap<Value, u32>,
    /// Compares lowered into their block's branch, with the branch
    /// they become.
    fused: HashMap<Value, (BranchOp, VReg, VReg)>,
    out: Vec<MBlock>,
    cur: Vec<MInst>,
}

/// Lowers one function to MIR.
pub(crate) fn lower_function(f: &Function, module: &Module) -> CResult<MFunc> {
    let cfg = Cfg::compute(f);
    let mut use_counts: HashMap<Value, u32> = HashMap::new();
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            f.inst(v).for_each_operand(|op| *use_counts.entry(op).or_insert(0) += 1);
        }
        f.block(b).term.for_each_operand(|op| *use_counts.entry(op).or_insert(0) += 1);
    }
    // A compare used only by the branch of its own block becomes that
    // branch.
    let mut fused = HashMap::new();
    for b in f.block_ids() {
        let Terminator::CondBr { cond, .. } = f.block(b).term else { continue };
        if let &InstData::Bin { op, a, b: rb } = f.inst(cond) {
            if let Some((bop, swap)) = compare_branch(op) {
                if use_counts[&cond] == 1 && f.block(b).insts.contains(&cond) {
                    let (va, vb) = (a.index() as VReg, rb.index() as VReg);
                    fused.insert(cond, if swap { (bop, vb, va) } else { (bop, va, vb) });
                }
            }
        }
    }
    let mut isel =
        Isel { f, module, next_vreg: f.insts.len() as VReg, use_counts, fused, out: Vec::new(), cur: Vec::new() };
    isel.run(cfg.rpo())?;
    Ok(MFunc { name: f.name.clone(), blocks: isel.out, ir_frame: f.frame_size() })
}

impl<'a> Isel<'a> {
    fn vreg(&self, v: Value) -> VReg {
        v.index() as VReg
    }

    fn temp(&mut self) -> VReg {
        let t = self.next_vreg;
        self.next_vreg += 1;
        t
    }

    fn emit(&mut self, i: MInst) {
        self.cur.push(i);
    }

    fn label(b: Block) -> String {
        format!("{b}")
    }

    fn run(&mut self, order: &[Block]) -> CResult<()> {
        if self.f.num_params > 8 {
            return Err(CodegenError::TooManyArgs { func: self.f.name.clone() });
        }
        for (i, &b) in order.iter().enumerate() {
            self.cur = Vec::new();
            if i == 0 {
                // Bind incoming argument registers to their vregs.
                for v in self.f.block(b).insts.clone() {
                    if let InstData::Param(idx) = self.f.inst(v) {
                        self.emit(MInst::GetArg { rd: self.vreg(v), index: *idx });
                    }
                }
            }
            let next = order.get(i + 1).copied();
            for v in self.f.block(b).insts.clone() {
                let inst = self.f.inst(v).clone();
                if inst.is_phi() {
                    continue;
                }
                self.lower_inst(v, &inst)?;
            }
            self.lower_terminator(b, next)?;
            let label = if i == 0 { self.f.name.clone() } else { Self::label(b) };
            let insts = std::mem::take(&mut self.cur);
            self.out.push(MBlock { label, insts });
        }
        Ok(())
    }

    fn const_of(&self, v: Value) -> Option<i32> {
        match self.f.inst(v) {
            InstData::Const(c) => Some(*c),
            _ => None,
        }
    }

    fn lower_inst(&mut self, v: Value, inst: &InstData) -> CResult<()> {
        let rd = self.vreg(v);
        match inst {
            InstData::Param(_) => Ok(()), // bound by the prologue
            InstData::Const(c) => {
                self.emit(MInst::Li { rd, imm: *c });
                Ok(())
            }
            InstData::Bin { .. } if self.fused.contains_key(&v) => Ok(()), // lowered by the branch
            InstData::Bin { op, a, b } => self.lower_bin(rd, *op, *a, *b),
            InstData::Load { width, addr } => {
                self.emit(MInst::Load { width: *width, rd, rs1: self.vreg(*addr), offset: 0 });
                Ok(())
            }
            InstData::Store { width, val, addr } => {
                self.emit(MInst::Store { width: *width, rs2: self.vreg(*val), rs1: self.vreg(*addr), offset: 0 });
                // The store's result is its value operand; forward it.
                if self.use_counts.get(&v).copied().unwrap_or(0) > 0 {
                    self.emit(MInst::Mv { rd, rs: self.vreg(*val) });
                }
                Ok(())
            }
            InstData::Call { callee, args } => {
                if args.len() > 8 {
                    return Err(CodegenError::TooManyArgs { func: self.f.name.clone() });
                }
                let args: Vec<VReg> = args.iter().map(|a| self.vreg(*a)).collect();
                let dst = if self.f_returns_value(callee) || self.use_counts.get(&v).copied().unwrap_or(0) > 0 {
                    Some(rd)
                } else {
                    None
                };
                self.emit(MInst::Call { symbol: callee.clone(), args, dst });
                Ok(())
            }
            InstData::Sys { op, args } => {
                self.emit(MInst::Sys { code: op.code(), arg: self.vreg(args[0]), dst: rd });
                Ok(())
            }
            InstData::GlobalAddr(g) => {
                self.emit(MInst::La { rd, symbol: self.module.global(*g).name.clone() });
                Ok(())
            }
            InstData::SlotAddr(s) => {
                self.emit(MInst::FrameAddr { rd, ir_off: self.f.slot_offset(*s) });
                Ok(())
            }
            InstData::Phi(_) => Ok(()),
            InstData::Copy(_) => Err(CodegenError::Internal("unresolved copy in riscv isel".into())),
        }
    }

    fn f_returns_value(&self, callee: &str) -> bool {
        self.module.func(callee).map(|f| f.returns_value).unwrap_or(false)
    }

    fn lower_bin(&mut self, rd: VReg, op: BinOp, a: Value, b: Value) -> CResult<()> {
        use BinOp::*;
        let va = self.vreg(a);
        let vb = self.vreg(b);
        // Immediate forms (12-bit signed).
        if let Some(cb) = self.const_of(b) {
            let fits = (-2048..=2047).contains(&cb);
            let sh = (0..32).contains(&cb);
            let plan = match op {
                Add if fits => Some((AluImmOp::Addi, cb)),
                Sub if (-2047..=2048).contains(&cb) => Some((AluImmOp::Addi, -cb)),
                And if fits => Some((AluImmOp::Andi, cb)),
                Or if fits => Some((AluImmOp::Ori, cb)),
                Xor if fits => Some((AluImmOp::Xori, cb)),
                Shl if sh => Some((AluImmOp::Slli, cb)),
                ShrA if sh => Some((AluImmOp::Srai, cb)),
                ShrL if sh => Some((AluImmOp::Srli, cb)),
                SLt if fits => Some((AluImmOp::Slti, cb)),
                ULt if fits => Some((AluImmOp::Sltiu, cb)),
                _ => None,
            };
            if let Some((iop, imm)) = plan {
                self.emit(MInst::OpImm { op: iop, rd, rs1: va, imm });
                return Ok(());
            }
            if let (0, (AluOp::Xor, _, Some(fix))) = (cb, alu_lowering(op)) {
                // `a == 0` / `a != 0`: the fix-up alone.
                let fix = self.fix_up(fix, rd, va);
                self.emit(fix);
                return Ok(());
            }
        }
        if self.const_of(a).is_some() && self.const_of(b).is_none() && op.is_commutative() {
            // Constant on the left: swap. (Never swap const-const —
            // that would recurse forever; the register path below
            // materializes both.)
            return self.lower_bin(rd, op, b, a);
        }
        let (aop, swap, fix) = alu_lowering(op);
        let (x, y) = if swap { (vb, va) } else { (va, vb) };
        let Some(fix) = fix else {
            self.emit(MInst::Op { op: aop, rd, rs1: x, rs2: y });
            return Ok(());
        };
        let t = self.temp();
        let fix = self.fix_up(fix, rd, t);
        self.emit(MInst::Op { op: aop, rd: t, rs1: x, rs2: y });
        self.emit(fix);
        Ok(())
    }

    /// The instruction that turns `src` into `rd`'s 0/1 result. For
    /// `Snez` this emits the zero operand's `Li` now, so the caller
    /// builds the fix-up before it emits anything else.
    fn fix_up(&mut self, fix: FixUp, rd: VReg, src: VReg) -> MInst {
        match fix {
            FixUp::Seqz => MInst::OpImm { op: AluImmOp::Sltiu, rd, rs1: src, imm: 1 },
            FixUp::Snez => MInst::Op { op: AluOp::Sltu, rd, rs1: self.zero(), rs2: src },
            FixUp::Not => MInst::OpImm { op: AluImmOp::Xori, rd, rs1: src, imm: 1 },
        }
    }

    /// A fresh vreg loaded with `Li 0`. The register allocator gives it
    /// a register like any other vreg, so every use costs an
    /// `addi rX, zero, 0`; nothing rewrites it to a read of `x0`.
    fn zero(&mut self) -> VReg {
        let t = self.temp();
        self.emit(MInst::Li { rd: t, imm: 0 });
        t
    }

    /// Lowers phi moves for the edge `b -> succ` as a parallel copy.
    fn emit_phi_moves(&mut self, b: Block, succ: Block) {
        let mut moves: Vec<(VReg, VReg)> = Vec::new();
        for &p in &self.f.block(succ).insts {
            if let InstData::Phi(args) = self.f.inst(p) {
                if let Some((_, src)) = args.iter().find(|(pb, _)| *pb == b) {
                    let (dst, src) = (self.vreg(p), self.vreg(*src));
                    if dst != src {
                        moves.push((dst, src));
                    }
                }
            }
        }
        // Every cycle of this copy goes through the same temporary, and
        // the vreg counter still advances once per cycle.
        let temp = self.next_vreg;
        for (rd, rs) in sequence_parallel_moves(moves, temp) {
            self.next_vreg += VReg::from(rd == temp);
            self.emit(MInst::Mv { rd, rs });
        }
    }

    fn lower_terminator(&mut self, b: Block, next: Option<Block>) -> CResult<()> {
        match self.f.block(b).term.clone() {
            Terminator::Br(t) => {
                self.emit_phi_moves(b, t);
                if next != Some(t) {
                    self.emit(MInst::J { target: Self::label(t) });
                }
                Ok(())
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                // After critical-edge splitting, CondBr successors have
                // one predecessor and therefore no phis.
                let (bop, rs1, rs2) = self.branch_condition(cond);
                if next == Some(then_bb) {
                    // Invert so the branch exits to else.
                    let (iop, rs1, rs2) = invert_branch(bop, rs1, rs2);
                    self.emit(MInst::Branch { op: iop, rs1, rs2, target: Self::label(else_bb) });
                } else {
                    self.emit(MInst::Branch { op: bop, rs1, rs2, target: Self::label(then_bb) });
                    if next != Some(else_bb) {
                        self.emit(MInst::J { target: Self::label(else_bb) });
                    }
                }
                Ok(())
            }
            Terminator::Ret(v) => {
                self.emit(MInst::Ret { val: v.map(|v| self.vreg(v)) });
                Ok(())
            }
            Terminator::Unreachable => Err(CodegenError::Internal("unreachable terminator in isel".into())),
        }
    }

    /// Condition of a branch: its fused compare, or `cond != 0`.
    fn branch_condition(&mut self, cond: Value) -> (BranchOp, VReg, VReg) {
        if let Some(&fused) = self.fused.get(&cond) {
            return fused;
        }
        let zero = self.zero();
        (BranchOp::Bne, self.vreg(cond), zero)
    }
}

/// The instruction that turns an ALU result into a compare's 0/1.
#[derive(Clone, Copy)]
enum FixUp {
    /// `sltiu rd, t, 1`.
    Seqz,
    /// `sltu rd, zero, t`.
    Snez,
    /// `xori rd, t, 1`.
    Not,
}

/// The register-register lowering of `op`: an ALU op, whether its
/// operands swap, and the fix-up of its result.
fn alu_lowering(op: BinOp) -> (AluOp, bool, Option<FixUp>) {
    use BinOp::*;
    match op {
        Add => (AluOp::Add, false, None),
        Sub => (AluOp::Sub, false, None),
        Mul => (AluOp::Mul, false, None),
        Div => (AluOp::Div, false, None),
        Rem => (AluOp::Rem, false, None),
        DivU => (AluOp::Divu, false, None),
        RemU => (AluOp::Remu, false, None),
        And => (AluOp::And, false, None),
        Or => (AluOp::Or, false, None),
        Xor => (AluOp::Xor, false, None),
        Shl => (AluOp::Sll, false, None),
        ShrA => (AluOp::Sra, false, None),
        ShrL => (AluOp::Srl, false, None),
        SLt => (AluOp::Slt, false, None),
        ULt => (AluOp::Sltu, false, None),
        SGt => (AluOp::Slt, true, None),
        UGt => (AluOp::Sltu, true, None),
        Eq => (AluOp::Xor, false, Some(FixUp::Seqz)),
        Ne => (AluOp::Xor, false, Some(FixUp::Snez)),
        SLe => (AluOp::Slt, true, Some(FixUp::Not)),
        SGe => (AluOp::Slt, false, Some(FixUp::Not)),
        ULe => (AluOp::Sltu, true, Some(FixUp::Not)),
        UGe => (AluOp::Sltu, false, Some(FixUp::Not)),
    }
}

/// The branch a compare fuses into, and whether its operands swap;
/// `None` for an op that is not a compare.
fn compare_branch(op: BinOp) -> Option<(BranchOp, bool)> {
    use BinOp::*;
    Some(match op {
        Eq => (BranchOp::Beq, false),
        Ne => (BranchOp::Bne, false),
        SLt => (BranchOp::Blt, false),
        SGe => (BranchOp::Bge, false),
        SLe => (BranchOp::Bge, true),
        SGt => (BranchOp::Blt, true),
        ULt => (BranchOp::Bltu, false),
        UGe => (BranchOp::Bgeu, false),
        ULe => (BranchOp::Bgeu, true),
        UGt => (BranchOp::Bltu, true),
        _ => return None,
    })
}

fn invert_branch(op: BranchOp, rs1: VReg, rs2: VReg) -> (BranchOp, VReg, VReg) {
    match op {
        BranchOp::Beq => (BranchOp::Bne, rs1, rs2),
        BranchOp::Bne => (BranchOp::Beq, rs1, rs2),
        BranchOp::Blt => (BranchOp::Bge, rs1, rs2),
        BranchOp::Bge => (BranchOp::Blt, rs1, rs2),
        BranchOp::Bltu => (BranchOp::Bgeu, rs1, rs2),
        BranchOp::Bgeu => (BranchOp::Bltu, rs1, rs2),
    }
}
