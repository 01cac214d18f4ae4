//! Linear-scan register allocation and frame finalization for the
//! RV32IM baseline.
//!
//! Intervals are built from block-level liveness (conservative
//! hole-free ranges). Ranges crossing a call site are assigned
//! callee-saved registers (or spilled); everything else prefers
//! caller-saved. `t5`/`t6` are reserved as spill/shuffle scratch.

use std::collections::{HashMap, HashSet};

use straight_asm::{RvFunc, RvItem, RvReloc};
use straight_isa::{AluImmOp, MemWidth};
use straight_riscv::{Reg, RvInst};

use super::{sequence_parallel_moves, MFunc, MInst, VReg};
use crate::CodegenError;

type CResult<T> = Result<T, CodegenError>;

/// Where a vreg lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    /// Word index into the spill area (byte offset `4 * index` from
    /// `sp`).
    Slot(u32),
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: i64,
    end: i64,
}

fn caller_pool() -> Vec<Reg> {
    let mut v = vec![Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4];
    v.extend((0..8).map(Reg::a));
    v
}

fn callee_pool() -> Vec<Reg> {
    (0..12).map(Reg::s).collect()
}

const SCRATCH1: Reg = Reg::T5;
const SCRATCH2: Reg = Reg::T6;

pub(crate) fn allocate_and_finalize(m: MFunc) -> CResult<RvFunc> {
    // ----- CFG over MIR blocks -------------------------------------
    let label_idx: HashMap<&str, usize> =
        m.blocks.iter().enumerate().map(|(i, b)| (b.label.as_str(), i)).collect();
    let n = m.blocks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in m.blocks.iter().enumerate() {
        for inst in &b.insts {
            match inst {
                MInst::Branch { target, .. } | MInst::J { target } => {
                    let t = *label_idx
                        .get(target.as_str())
                        .ok_or_else(|| CodegenError::Internal(format!("unknown label {target}")))?;
                    succs[i].push(t);
                }
                _ => {}
            }
        }
        let falls = !matches!(b.insts.last(), Some(MInst::J { .. }) | Some(MInst::Ret { .. }));
        if falls && i + 1 < n {
            succs[i].push(i + 1);
        }
    }

    // ----- Block-level liveness ------------------------------------
    let mut gen: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut kill: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    for (i, b) in m.blocks.iter().enumerate() {
        for inst in &b.insts {
            for u in inst.uses() {
                if !kill[i].contains(&u) {
                    gen[i].insert(u);
                }
            }
            if let Some(d) = inst.def() {
                kill[i].insert(d);
            }
        }
    }
    let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = HashSet::new();
            for &s in &succs[i] {
                out.extend(live_in[s].iter().copied());
            }
            let mut inn = gen[i].clone();
            for &v in &out {
                if !kill[i].contains(&v) {
                    inn.insert(v);
                }
            }
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
    }

    // ----- Intervals ------------------------------------------------
    let mut intervals: HashMap<VReg, Interval> = HashMap::new();
    let mut calls: Vec<i64> = Vec::new();
    let mut pos: i64 = 0;
    {
        let extend = |map: &mut HashMap<VReg, Interval>, v: VReg, p: i64| {
            let e = map.entry(v).or_insert(Interval { start: p, end: p });
            e.start = e.start.min(p);
            e.end = e.end.max(p);
        };
        for (i, b) in m.blocks.iter().enumerate() {
            let bstart = pos;
            let bend = bstart + 2 * (b.insts.len() as i64) + 1;
            for &v in &live_in[i] {
                extend(&mut intervals, v, bstart);
            }
            for &v in &live_out[i] {
                extend(&mut intervals, v, bend);
            }
            for (j, inst) in b.insts.iter().enumerate() {
                let p = bstart + 1 + 2 * j as i64;
                for u in inst.uses() {
                    extend(&mut intervals, u, p);
                }
                if let Some(d) = inst.def() {
                    extend(&mut intervals, d, p);
                }
                if inst.is_call() {
                    calls.push(p);
                }
            }
            pos = bend + 1;
        }
    }

    // ----- Linear scan ----------------------------------------------
    let mut order: Vec<(VReg, Interval)> = intervals.iter().map(|(v, i)| (*v, *i)).collect();
    order.sort_by_key(|(v, i)| (i.start, *v));
    let mut free_caller = caller_pool();
    let mut free_callee = callee_pool();
    let mut active: Vec<(i64, Reg, bool)> = Vec::new(); // (end, reg, is_callee)
    let mut assign: HashMap<VReg, Loc> = HashMap::new();
    let mut next_slot: u32 = 0;
    for (v, iv) in order {
        // Expire.
        let mut still = Vec::new();
        for (end, reg, is_callee) in active.drain(..) {
            if end < iv.start {
                if is_callee {
                    free_callee.push(reg);
                } else {
                    free_caller.push(reg);
                }
            } else {
                still.push((end, reg, is_callee));
            }
        }
        active = still;
        let crosses = calls.iter().any(|&c| iv.start < c && iv.end > c);
        let choice = if crosses {
            free_callee.pop().map(|r| (r, true))
        } else {
            free_caller.pop().map(|r| (r, false)).or_else(|| free_callee.pop().map(|r| (r, true)))
        };
        match choice {
            Some((reg, is_callee)) => {
                active.push((iv.end, reg, is_callee));
                assign.insert(v, Loc::Reg(reg));
            }
            None => {
                assign.insert(v, Loc::Slot(next_slot));
                next_slot += 1;
            }
        }
    }

    // ----- Frame layout ---------------------------------------------
    let spill_bytes = 4 * next_slot;
    let used_callee: Vec<Reg> = {
        let mut set: Vec<Reg> = assign
            .values()
            .filter_map(|l| match l {
                Loc::Reg(r) if r.is_callee_saved() && *r != Reg::SP => Some(*r),
                _ => None,
            })
            .collect();
        set.sort_by_key(|r| r.num());
        set.dedup();
        set
    };
    let has_call = m.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, MInst::Call { .. }));
    let saved_bytes = 4 * (used_callee.len() as u32 + u32::from(has_call));
    let frame = (spill_bytes + m.ir_frame + saved_bytes).next_multiple_of(16);
    let ir_base = spill_bytes; // IR slots sit above the spill area
    let ra_off = frame.saturating_sub(4);
    let saved_offsets: Vec<(Reg, u32)> = used_callee
        .iter()
        .enumerate()
        .map(|(k, r)| (*r, if has_call { frame - 8 - 4 * k as u32 } else { frame - 4 - 4 * k as u32 }))
        .collect();

    // ----- Rewrite & emit -------------------------------------------
    let mut fin = Finalizer {
        items: Vec::new(),
        labels: Vec::new(),
        assign,
        frame,
        ir_base,
        name: m.name.clone(),
    };
    // Prologue.
    fin.addi(Reg::SP, Reg::SP, -(frame as i32))?;
    if has_call {
        fin.emit(RvInst::Store { width: MemWidth::W, rs2: Reg::RA, rs1: Reg::SP, offset: ra_off as i32 });
    }
    for &(r, off) in &saved_offsets {
        fin.emit(RvInst::Store { width: MemWidth::W, rs2: r, rs1: Reg::SP, offset: off as i32 });
    }

    for (bi, b) in m.blocks.iter().enumerate() {
        if bi > 0 {
            fin.labels.push((b.label.clone(), fin.items.len()));
        }
        let mut j = 0;
        while j < b.insts.len() {
            // Batch consecutive GetArgs into one parallel move.
            if matches!(b.insts[j], MInst::GetArg { .. }) {
                let mut batch = Vec::new();
                while let Some(&MInst::GetArg { rd, index }) = b.insts.get(j) {
                    batch.push((rd, index));
                    j += 1;
                }
                fin.expand_get_args(&batch)?;
                continue;
            }
            fin.expand(&b.insts[j], &saved_offsets, has_call, ra_off)?;
            j += 1;
        }
    }
    Ok(RvFunc { name: m.name, items: fin.items, labels: fin.labels })
}

struct Finalizer {
    items: Vec<RvItem>,
    labels: Vec<(String, usize)>,
    assign: HashMap<VReg, Loc>,
    frame: u32,
    ir_base: u32,
    name: String,
}

impl Finalizer {
    fn emit(&mut self, inst: RvInst) {
        self.items.push(RvItem::plain(inst));
    }

    fn emit_reloc(&mut self, inst: RvInst, reloc: RvReloc) {
        self.items.push(RvItem { inst, reloc: Some(reloc) });
    }

    fn loc(&self, v: VReg) -> CResult<Loc> {
        self.assign
            .get(&v)
            .copied()
            .ok_or_else(|| CodegenError::Internal(format!("vreg v{v} unallocated in {}", self.name)))
    }

    /// `addi` with range handling (large frames fall back to `li`+`add`).
    fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> CResult<()> {
        if (-2048..=2047).contains(&imm) {
            self.emit(RvInst::OpImm { op: AluImmOp::Addi, rd, rs1, imm });
        } else {
            self.li(SCRATCH1, imm);
            self.emit(RvInst::Op { op: straight_isa::AluOp::Add, rd, rs1, rs2: SCRATCH1 });
        }
        Ok(())
    }

    fn li(&mut self, rd: Reg, imm: i32) {
        if (-2048..=2047).contains(&imm) {
            self.emit(RvInst::OpImm { op: AluImmOp::Addi, rd, rs1: Reg::ZERO, imm });
        } else {
            let hi = (imm as u32).wrapping_add(0x800) & 0xffff_f000;
            let lo = imm.wrapping_sub(hi as i32);
            self.emit(RvInst::Lui { rd, imm: hi });
            if lo != 0 {
                self.emit(RvInst::OpImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo });
            }
        }
    }

    /// Reads `v` into a register (its own, or a scratch from a spill
    /// slot).
    fn read(&mut self, v: VReg, scratch: Reg) -> CResult<Reg> {
        match self.loc(v)? {
            Loc::Reg(r) => Ok(r),
            Loc::Slot(s) => {
                self.emit(RvInst::Load { width: MemWidth::W, rd: scratch, rs1: Reg::SP, offset: (4 * s) as i32 });
                Ok(scratch)
            }
        }
    }

    /// The register a def should target; spilled defs write scratch
    /// and [`Finalizer::writeback`] stores it.
    fn def_reg(&mut self, v: VReg) -> CResult<Reg> {
        match self.loc(v)? {
            Loc::Reg(r) => Ok(r),
            Loc::Slot(_) => Ok(SCRATCH1),
        }
    }

    fn writeback(&mut self, v: VReg) -> CResult<()> {
        if let Loc::Slot(s) = self.loc(v)? {
            self.emit(RvInst::Store {
                width: MemWidth::W,
                rs2: SCRATCH1,
                rs1: Reg::SP,
                offset: (4 * s) as i32,
            });
        }
        Ok(())
    }

    fn expand_get_args(&mut self, batch: &[(VReg, u32)]) -> CResult<()> {
        // Stores to spill slots first (they read a-regs, write memory).
        for (rd, idx) in batch {
            if let Loc::Slot(s) = self.loc(*rd)? {
                self.emit(RvInst::Store {
                    width: MemWidth::W,
                    rs2: Reg::a(*idx as u8),
                    rs1: Reg::SP,
                    offset: (4 * s) as i32,
                });
            }
        }
        // Then a parallel register shuffle.
        let mut pending: Vec<(Reg, Reg)> = Vec::new(); // (dst, src)
        for (rd, idx) in batch {
            if let Loc::Reg(r) = self.loc(*rd)? {
                let src = Reg::a(*idx as u8);
                if r != src {
                    pending.push((r, src));
                }
            }
        }
        self.parallel_move(pending);
        Ok(())
    }

    /// A parallel register copy; cycles go through `SCRATCH2`.
    fn parallel_move(&mut self, pending: Vec<(Reg, Reg)>) {
        for (rd, rs) in sequence_parallel_moves(pending, SCRATCH2) {
            self.mv(rd, rs);
        }
    }

    /// `mv rd, rs`, unless `rd` already is `rs`.
    fn mv(&mut self, rd: Reg, rs: Reg) {
        if rd != rs {
            self.emit(RvInst::OpImm { op: AluImmOp::Addi, rd, rs1: rs, imm: 0 });
        }
    }

    fn expand(
        &mut self,
        inst: &MInst,
        saved_offsets: &[(Reg, u32)],
        has_call: bool,
        ra_off: u32,
    ) -> CResult<()> {
        match inst {
            MInst::Op { op, rd, rs1, rs2 } => {
                let r1 = self.read(*rs1, SCRATCH1)?;
                let r2 = self.read(*rs2, SCRATCH2)?;
                let d = self.def_reg(*rd)?;
                self.emit(RvInst::Op { op: *op, rd: d, rs1: r1, rs2: r2 });
                self.writeback(*rd)
            }
            MInst::OpImm { op, rd, rs1, imm } => {
                let r1 = self.read(*rs1, SCRATCH1)?;
                let d = self.def_reg(*rd)?;
                self.emit(RvInst::OpImm { op: *op, rd: d, rs1: r1, imm: *imm });
                self.writeback(*rd)
            }
            MInst::Li { rd, imm } => {
                let d = self.def_reg(*rd)?;
                self.li(d, *imm);
                self.writeback(*rd)
            }
            MInst::La { rd, symbol } => {
                let d = self.def_reg(*rd)?;
                self.emit_reloc(RvInst::Lui { rd: d, imm: 0 }, RvReloc::Hi20(symbol.clone()));
                self.emit_reloc(
                    RvInst::OpImm { op: AluImmOp::Addi, rd: d, rs1: d, imm: 0 },
                    RvReloc::Lo12(symbol.clone()),
                );
                self.writeback(*rd)
            }
            MInst::FrameAddr { rd, ir_off } => {
                let d = self.def_reg(*rd)?;
                self.addi(d, Reg::SP, (self.ir_base + ir_off) as i32)?;
                self.writeback(*rd)
            }
            MInst::Load { width, rd, rs1, offset } => {
                let r1 = self.read(*rs1, SCRATCH1)?;
                let d = self.def_reg(*rd)?;
                self.emit(RvInst::Load { width: *width, rd: d, rs1: r1, offset: *offset });
                self.writeback(*rd)
            }
            MInst::Store { width, rs2, rs1, offset } => {
                let r1 = self.read(*rs1, SCRATCH1)?;
                let r2 = self.read(*rs2, SCRATCH2)?;
                self.emit(RvInst::Store { width: *width, rs2: r2, rs1: r1, offset: *offset });
                Ok(())
            }
            MInst::Mv { rd, rs } => {
                let r = self.read(*rs, SCRATCH1)?;
                let d = self.def_reg(*rd)?;
                self.mv(d, r);
                self.writeback(*rd)
            }
            MInst::Branch { op, rs1, rs2, target } => {
                let r1 = self.read(*rs1, SCRATCH1)?;
                let r2 = self.read(*rs2, SCRATCH2)?;
                self.emit_reloc(
                    RvInst::Branch { op: *op, rs1: r1, rs2: r2, offset: 0 },
                    RvReloc::BranchTo(target.clone()),
                );
                Ok(())
            }
            MInst::J { target } => {
                self.emit_reloc(RvInst::Jal { rd: Reg::ZERO, offset: 0 }, RvReloc::JalTo(target.clone()));
                Ok(())
            }
            MInst::Call { symbol, args, dst } => {
                // Parallel move into a0..: slot loads are unblocked,
                // register moves are sequenced, cycles use SCRATCH2.
                let mut loads: Vec<(Reg, u32)> = Vec::new();
                let mut moves: Vec<(Reg, Reg)> = Vec::new();
                for (i, &a) in args.iter().enumerate() {
                    let dst = Reg::a(i as u8);
                    match self.loc(a)? {
                        Loc::Slot(s) => loads.push((dst, 4 * s)),
                        Loc::Reg(r) => {
                            if r != dst {
                                moves.push((dst, r));
                            }
                        }
                    }
                }
                // Register moves first (their sources may include a-regs
                // that loads would clobber), then loads.
                // A load's destination may be a source of a move, so
                // order: moves (parallel), then loads.
                self.parallel_move(moves);
                for (dst, off) in loads {
                    self.emit(RvInst::Load { width: MemWidth::W, rd: dst, rs1: Reg::SP, offset: off as i32 });
                }
                self.emit_reloc(RvInst::Jal { rd: Reg::RA, offset: 0 }, RvReloc::JalTo(symbol.clone()));
                if let Some(d) = dst {
                    let dr = self.def_reg(*d)?;
                    self.mv(dr, Reg::A0);
                    self.writeback(*d)?;
                }
                Ok(())
            }
            MInst::Sys { code, arg, dst } => {
                let r = self.read(*arg, SCRATCH1)?;
                self.mv(Reg::A0, r);
                self.emit(RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::ZERO, imm: i32::from(*code) });
                self.emit(RvInst::Ecall);
                let dr = self.def_reg(*dst)?;
                self.mv(dr, Reg::A0);
                self.writeback(*dst)
            }
            MInst::Ret { val } => {
                if let Some(v) = val {
                    let r = self.read(*v, SCRATCH1)?;
                    self.mv(Reg::A0, r);
                }
                for &(r, off) in saved_offsets {
                    self.emit(RvInst::Load { width: MemWidth::W, rd: r, rs1: Reg::SP, offset: off as i32 });
                }
                if has_call {
                    self.emit(RvInst::Load { width: MemWidth::W, rd: Reg::RA, rs1: Reg::SP, offset: ra_off as i32 });
                }
                self.addi(Reg::SP, Reg::SP, self.frame as i32)?;
                self.emit(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 });
                Ok(())
            }
            MInst::GetArg { .. } => Err(CodegenError::Internal("stray GetArg".into())),
        }
    }
}
