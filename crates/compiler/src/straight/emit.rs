//! Per-function STRAIGHT code emission.
//!
//! The emitter walks blocks in reverse postorder, tracking for every
//! live value the *virtual dynamic position* of its most recent
//! producer (`def` records it). Reading an operand turns into a
//! distance (`current position - producer position`, checked against
//! the bound in `dist_to`), which is exactly the ISA's operand model.
//! The pieces of the paper's algorithm map onto this machinery, and
//! onto the helpers that emit their instructions, as follows:
//!
//! * **Distance fixing (IV-C2)** — every merge block gets a *frame*
//!   (ordered live-in values + phis); each predecessor ends with a
//!   shuffle producing the frame in order (`emit_slot_sequence`), then
//!   exactly one control instruction (`J`, `BEZ`/`BNZ`, or a padding
//!   `NOP` on fall-through paths, from `emit_terminator`), so entry
//!   distances are path-independent.
//! * **Distance bounding (IV-C3)** — an aging sweep relays values
//!   about to exceed the bound with `RMOV` (`relay`), in both modes;
//!   values with a stack copy, constants and addresses are dropped
//!   instead and come back through `reload` or `rematerialize`.
//! * **Calling convention (IV-B)** — values live across a call are
//!   stored to the stack frame (`spill`; their distances after the
//!   callee returns are statically unknowable) and read back with
//!   `reload`; argument producers are arranged immediately before
//!   `JAL` (`emit_slot_sequence`); `retval0` is produced immediately
//!   before `JR`.
//! * **RE+ (IV-D)** — single-instruction producers with no local uses
//!   are sunk into the shuffle zone instead of being `RMOV`-copied
//!   (Figure 10b, `emit_slot_sequence`), and loop-live-through values
//!   stay in the stack frame (Figure 10c, `spill`/`reload`).

use std::collections::{HashMap, HashSet};

use straight_asm::{SFunc, SItem, SReloc};
use straight_isa::{AluImmOp, AluOp, Dist, Inst, MemWidth};
use straight_ir::analysis::{Cfg, Dominators, Liveness, Loops};
use straight_ir::{BinOp, Block, Function, InstData, Module, SlotId, Terminator, Value};

use super::frames::{self, FrameInfo, SlotSrc};
use super::StraightOptions;
use crate::CodegenError;

/// A value whose producer position the emitter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Tracked {
    Val(Value),
    RetAddr,
    FrameBase,
}

impl From<SlotSrc> for Tracked {
    fn from(slot: SlotSrc) -> Tracked {
        match slot {
            SlotSrc::Val(v) => Tracked::Val(v),
            SlotSrc::RetAddr => Tracked::RetAddr,
        }
    }
}

/// One producer of a slot sequence: the position it refreshes (`None`
/// for a call argument, which the callee consumes) and the value it
/// copies.
type Slot = (Option<Tracked>, Tracked);

/// Per-path emission state: where on the virtual dynamic timeline each
/// live value was last produced, and which values have valid stack
/// copies.
#[derive(Debug, Clone, Default)]
struct PathState {
    /// Position of the *next* instruction to be emitted.
    cur: i64,
    pos: HashMap<Tracked, i64>,
    spilled: HashSet<Tracked>,
}

pub(crate) struct FnEmitter<'a> {
    f: &'a Function,
    module: &'a Module,
    opts: &'a StraightOptions,
    live: Liveness,
    info: FrameInfo,
    order: Vec<Block>,
    order_idx: HashMap<Block, usize>,
    def_block: HashMap<Value, Block>,
    items: Vec<SItem>,
    labels: Vec<(String, usize)>,
    spill_off: HashMap<Tracked, u32>,
    next_spill: u32,
    spadd_fixups: Vec<(usize, i32)>,
    st: PathState,
    in_states: HashMap<Block, PathState>,
    uses_left: HashMap<Value, u32>,
    init_uses: HashMap<Value, u32>,
    vhigh: i64,
    cur_block: Block,
    sink_set: HashSet<Value>,
    prologue_spilled_retaddr: bool,
    has_calls: bool,
    /// Per merge block: intersection of the spilled sets of the
    /// already-processed predecessors. Sound for back edges too: the
    /// spilled set only grows along a path, so the latch's set is a
    /// superset of the header's entry set.
    merge_spills: HashMap<Block, HashSet<Tracked>>,
    /// Second-pass flag: the function proved frameless, so the
    /// prologue/epilogue `SPADD`s are omitted entirely.
    skip_frame: bool,
}

type CResult<T> = Result<T, CodegenError>;

/// How far below the distance bound the age sweep starts relaying a
/// value, leaving room for the instructions emitted before the next
/// sweep.
pub(super) const SWEEP_HEADROOM: i64 = 10;

fn internal<T>(msg: impl Into<String>) -> CResult<T> {
    Err(CodegenError::Internal(msg.into()))
}

/// A [`CodegenError::FrameTooLarge`] bound, saturated to the field.
fn needs_at_least(d: i64) -> u16 {
    u16::try_from(d).unwrap_or(u16::MAX)
}

impl<'a> FnEmitter<'a> {
    /// Compiles one function. Runs the emitter once; if the function
    /// turns out to need no stack frame at all (no IR slots and no
    /// spills), re-runs it with the frame `SPADD`s omitted — leaf
    /// functions then carry zero frame overhead.
    pub(crate) fn compile(f: &'a Function, module: &'a Module, opts: &'a StraightOptions) -> CResult<SFunc> {
        let (sfunc, spills) = Self::compile_pass(f, module, opts, false)?;
        if spills > 0 || f.frame_size() > 0 {
            return Ok(sfunc);
        }
        let (sfunc, spills) = Self::compile_pass(f, module, opts, true)?;
        debug_assert_eq!(spills, 0, "frameless rerun must not spill");
        Ok(sfunc)
    }

    /// One emitter run; returns the function and its spill-slot count.
    fn compile_pass(
        f: &'a Function,
        module: &'a Module,
        opts: &'a StraightOptions,
        skip_frame: bool,
    ) -> CResult<(SFunc, u32)> {
        let cfg = Cfg::compute(f);
        let live = Liveness::compute(f, &cfg);
        let dom = Dominators::compute(f, &cfg);
        let loops = Loops::compute(f, &cfg, &dom);
        let info = frames::compute(f, &cfg, &live, &loops, opts.redundancy_elimination);
        let order: Vec<Block> = cfg.rpo().to_vec();
        let order_idx: HashMap<Block, usize> = order.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let mut def_block = HashMap::new();
        for b in f.block_ids() {
            for &v in &f.block(b).insts {
                def_block.insert(v, b);
            }
        }
        let has_calls = f.insts.iter().any(|i| matches!(i, InstData::Call { .. }));
        let mut e = FnEmitter {
            f,
            module,
            opts,
            live,
            info,
            order,
            order_idx,
            def_block,
            items: Vec::new(),
            labels: Vec::new(),
            spill_off: HashMap::new(),
            next_spill: 0,
            spadd_fixups: Vec::new(),
            st: PathState::default(),
            in_states: HashMap::new(),
            uses_left: HashMap::new(),
            init_uses: HashMap::new(),
            vhigh: 0,
            cur_block: f.entry(),
            sink_set: HashSet::new(),
            prologue_spilled_retaddr: false,
            has_calls,
            merge_spills: HashMap::new(),
            skip_frame,
        };
        e.run()?;
        // Patch frame-size SPADDs now the spill count is known.
        let total = (f.frame_size() + 4 * e.next_spill) as i32;
        for &(idx, sign) in &e.spadd_fixups {
            let imm = i16::try_from(sign * total)
                .map_err(|_| CodegenError::Internal("frame larger than 32 KiB".into()))?;
            e.items[idx].inst = Inst::SpAdd { imm };
        }
        Ok((SFunc { name: f.name.clone(), items: e.items, labels: e.labels }, e.next_spill))
    }

    // ---------------------------------------------------------------
    // Low-level emission.

    fn push(&mut self, inst: Inst) -> i64 {
        self.push_reloc(inst, None)
    }

    fn push_reloc(&mut self, inst: Inst, reloc: Option<SReloc>) -> i64 {
        let p = self.st.cur;
        self.items.push(SItem { inst, reloc });
        self.st.cur += 1;
        self.vhigh = self.vhigh.max(self.st.cur);
        p
    }

    fn place_label(&mut self, b: Block) {
        self.labels.push((format!("{b}"), self.items.len()));
    }

    /// Emits a control instruction targeting block `b`.
    fn push_branch(&mut self, inst: Inst, b: Block) {
        self.push_reloc(inst, Some(SReloc::BranchTo(format!("{b}"))));
    }

    /// Emits `inst` as `t`'s new producer.
    fn def(&mut self, t: Tracked, inst: Inst) {
        let p = self.push(inst);
        self.st.pos.insert(t, p);
    }

    fn maxd(&self) -> i64 {
        i64::from(self.opts.max_distance)
    }

    /// True when `t` is tracked and readable at a distance of at most
    /// `max_distance - margin`.
    fn within(&self, t: Tracked, margin: i64) -> bool {
        self.st.pos.get(&t).is_some_and(|&p| self.st.cur - p <= self.maxd() - margin)
    }

    /// The distance from the next instruction back to `t`'s producer,
    /// checked against the ISA's `1..=max_distance`.
    fn dist_to(&self, t: Tracked) -> CResult<Dist> {
        let p = match self.st.pos.get(&t) {
            Some(p) => *p,
            None => return internal(format!("{t:?} not tracked in {}", self.f.name)),
        };
        let d = self.st.cur - p;
        if d < 1 || d > self.maxd() {
            return internal(format!("distance {d} to {t:?} out of range in {}", self.f.name));
        }
        Ok(Dist::of(d as u32))
    }

    /// The operand distance of `v`: the constant 0 reads the zero
    /// register (distance 0).
    fn operand(&self, v: Value) -> CResult<Dist> {
        if self.is_zero_const(v) {
            Ok(Dist::ZERO)
        } else {
            self.dist_to(Tracked::Val(v))
        }
    }

    fn is_zero_const(&self, v: Value) -> bool {
        matches!(self.f.inst(v), InstData::Const(0))
    }

    fn spill_slot(&mut self, t: Tracked) -> u32 {
        if let Some(&off) = self.spill_off.get(&t) {
            return off;
        }
        let off = self.f.frame_size() + 4 * self.next_spill;
        self.next_spill += 1;
        self.spill_off.insert(t, off);
        off
    }

    /// Makes the frame base readable (`SPADD 0` re-materializes SP).
    fn ensure_fb(&mut self, margin: i64) -> CResult<()> {
        if self.skip_frame {
            return internal("frame base requested in a frameless function");
        }
        if !self.within(Tracked::FrameBase, margin) {
            self.def(Tracked::FrameBase, Inst::SpAdd { imm: 0 });
        }
        Ok(())
    }

    /// Stores `t` to its stack slot (idempotent: SSA values never
    /// change, so an existing copy stays valid).
    fn spill(&mut self, t: Tracked) -> CResult<()> {
        if self.st.spilled.contains(&t) {
            return Ok(());
        }
        let off = self.spill_slot(t);
        self.ensure_fb(6)?;
        // Address: frame base + offset (ADDi when nonzero).
        let dfb = self.dist_to(Tracked::FrameBase)?;
        let addr = if off == 0 {
            dfb
        } else {
            self.push(Inst::AluImm { op: AluImmOp::Addi, s1: dfb, imm: off as i16 });
            Dist::of(1)
        };
        let val = self.dist_to(t)?;
        self.push(Inst::St { width: MemWidth::W, val, addr });
        self.st.spilled.insert(t);
        Ok(())
    }

    /// The `LD` that reads `t` back from its stack slot.
    fn load(&self, t: Tracked) -> CResult<Inst> {
        let Some(&off) = self.spill_off.get(&t) else {
            return internal(format!("reload of unspilled {t:?}"));
        };
        let dfb = self.dist_to(Tracked::FrameBase)?;
        Ok(Inst::Ld { width: MemWidth::W, addr: dfb, offset: off as i16 })
    }

    /// Reloads `t` from its stack slot.
    fn reload(&mut self, t: Tracked) -> CResult<()> {
        self.ensure_fb(4)?;
        let inst = self.load(t)?;
        self.def(t, inst);
        Ok(())
    }

    /// Emits a relay `RMOV` refreshing `t`'s position (the distance
    /// bounding of Section IV-C3).
    fn relay(&mut self, t: Tracked) -> CResult<()> {
        let d = self.dist_to(t)?;
        self.def(t, Inst::Rmov { s: d });
        Ok(())
    }

    /// Guarantees `v` is readable at a distance ≤ `max_distance -
    /// margin`, re-materializing constants/addresses, reloading stack
    /// copies, or relaying as needed.
    fn ensure_val(&mut self, v: Value, margin: i64) -> CResult<()> {
        if self.is_zero_const(v) {
            return Ok(());
        }
        let t = Tracked::Val(v);
        if self.within(t, margin) {
            return Ok(());
        }
        // Too old to guarantee the margin; refresh.
        if self.within(t, 0) {
            return self.relay(t);
        }
        self.st.pos.remove(&t);
        if self.st.spilled.contains(&t) {
            return self.reload(t);
        }
        self.rematerialize(v)
    }

    /// Reads an IR operand, returning its distance; consumes one use.
    fn read1(&mut self, v: Value) -> CResult<Dist> {
        self.consume_use(v);
        self.ensure_val(v, 2)?;
        self.operand(v)
    }

    /// Reads two operands with a safe margin between the ensures.
    fn read2(&mut self, a: Value, b: Value) -> CResult<(Dist, Dist)> {
        self.consume_use(a);
        self.consume_use(b);
        self.ensure_val(a, 6)?;
        self.ensure_val(b, 2)?;
        Ok((self.operand(a)?, self.operand(b)?))
    }

    fn consume_use(&mut self, v: Value) {
        if let Some(n) = self.uses_left.get_mut(&v) {
            *n = n.saturating_sub(1);
        }
    }

    /// True while `v` must be kept reachable on this path.
    fn needed(&self, v: Value) -> bool {
        self.uses_left.get(&v).copied().unwrap_or(0) > 0
            || self.live.live_out(self.cur_block).contains(&v)
    }

    /// The distance-bounding sweep: values nearing the bound are
    /// relayed, or dropped when no longer needed or when a stack copy
    /// or re-materialization can bring them back.
    fn age_sweep(&mut self) -> CResult<()> {
        let threshold = self.maxd() - SWEEP_HEADROOM;
        // Relaying diverges when more values are live than the
        // distance window can hold (each relay ages every other value
        // by one). Cap the rounds and report the overflow cleanly.
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > 64 {
                // Relaying settles only once every kept value fits
                // under the threshold: d >= live + SWEEP_HEADROOM.
                let live = self.st.pos.len();
                return Err(CodegenError::FrameTooLarge {
                    func: self.f.name.clone(),
                    live,
                    max_distance: self.opts.max_distance,
                    needs: needs_at_least(live as i64 + SWEEP_HEADROOM),
                });
            }
            let mut aged: Vec<Tracked> = self
                .st
                .pos
                .iter()
                .filter(|(_, &p)| self.st.cur - p > threshold)
                .map(|(t, _)| *t)
                .collect();
            if aged.is_empty() {
                return Ok(());
            }
            aged.sort_unstable();
            for t in aged {
                let Some(&p) = self.st.pos.get(&t) else { continue };
                if self.st.cur - p <= threshold {
                    continue; // refreshed by an earlier action this round
                }
                match t {
                    Tracked::FrameBase => {
                        self.st.pos.remove(&t);
                    }
                    Tracked::RetAddr => {
                        if self.st.spilled.contains(&t) {
                            self.st.pos.remove(&t);
                        } else {
                            self.relay(t)?;
                        }
                    }
                    Tracked::Val(v) => {
                        if !self.needed(v) || self.st.spilled.contains(&t) || self.is_rematerializable(v) {
                            self.st.pos.remove(&t);
                        } else {
                            // Distance bounding relays with RMOV in
                            // both modes (Section IV-C3); RE+ reserves
                            // the stack for call sites and
                            // loop-live-through values.
                            self.relay(t)?;
                        }
                    }
                }
            }
        }
    }

    fn is_rematerializable(&self, v: Value) -> bool {
        matches!(self.f.inst(v), InstData::Const(_) | InstData::GlobalAddr(_) | InstData::SlotAddr(_))
    }

    // ---------------------------------------------------------------
    // Value materialization.

    /// The immediate of a constant that one `ADDi` can produce.
    fn imm_const(&self, v: Value) -> Option<i16> {
        match *self.f.inst(v) {
            InstData::Const(c) => i16::try_from(c).ok(),
            _ => None,
        }
    }

    /// Re-emits the constant or address `v` rather than keeping it
    /// live.
    fn rematerialize(&mut self, v: Value) -> CResult<()> {
        let inst = match *self.f.inst(v) {
            InstData::Const(c) => match i16::try_from(c) {
                Ok(imm) => Inst::AluImm { op: AluImmOp::Addi, s1: Dist::ZERO, imm },
                Err(_) => {
                    self.push(Inst::Lui { imm: ((c as u32) >> 16) as u16 });
                    Inst::AluImm {
                        op: AluImmOp::Ori,
                        s1: Dist::of(1),
                        imm: ((c as u32) & 0xffff) as u16 as i16,
                    }
                }
            },
            InstData::GlobalAddr(g) => {
                // The one producer that carries a relocation.
                let name = self.module.global(g).name.clone();
                self.push_reloc(Inst::Lui { imm: 0 }, Some(SReloc::AbsHi(name.clone())));
                let p = self.push_reloc(
                    Inst::AluImm { op: AluImmOp::Ori, s1: Dist::of(1), imm: 0 },
                    Some(SReloc::AbsLo(name)),
                );
                self.st.pos.insert(Tracked::Val(v), p);
                return Ok(());
            }
            InstData::SlotAddr(s) => {
                self.ensure_fb(2)?;
                self.slot_addr(s)?
            }
            ref other => return internal(format!("lost value {v} ({other:?}) in {}", self.f.name)),
        };
        self.def(Tracked::Val(v), inst);
        Ok(())
    }

    /// The `ADDi` computing a stack slot's address from the frame base.
    fn slot_addr(&self, s: SlotId) -> CResult<Inst> {
        let dfb = self.dist_to(Tracked::FrameBase)?;
        Ok(Inst::AluImm { op: AluImmOp::Addi, s1: dfb, imm: self.f.slot_offset(s) as i16 })
    }

    // ---------------------------------------------------------------
    // Instruction selection for `Bin`.

    /// Returns the single-instruction plan for `v` if one exists:
    /// `(inst-template needing (da, db))`. Used both for normal
    /// lowering and for deciding RE+ sinkability.
    fn bin_single_plan(&self, op: BinOp, a: Value, b: Value) -> Option<BinPlan> {
        use BinOp::*;
        let const_of = |v: Value| match self.f.inst(v) {
            InstData::Const(c) => Some(*c),
            _ => None,
        };
        // Immediate forms.
        if let Some(cb) = const_of(b) {
            let imm_ok = (-32768..=32767).contains(&cb);
            let uimm_ok = (0..=0xffff).contains(&cb);
            let sh_ok = (0..32).contains(&cb);
            let imm = cb as i16;
            let uimm = cb as u16 as i16;
            let plan = match op {
                Add if imm_ok => Some((AluImmOp::Addi, imm)),
                Sub if (-32767..=32768).contains(&cb) => Some((AluImmOp::Addi, (-cb) as i16)),
                And if uimm_ok => Some((AluImmOp::Andi, uimm)),
                Or if uimm_ok => Some((AluImmOp::Ori, uimm)),
                Xor if uimm_ok => Some((AluImmOp::Xori, uimm)),
                Shl if sh_ok => Some((AluImmOp::Slli, imm)),
                ShrA if sh_ok => Some((AluImmOp::Srai, imm)),
                ShrL if sh_ok => Some((AluImmOp::Srli, imm)),
                SLt if imm_ok => Some((AluImmOp::Slti, imm)),
                ULt if imm_ok => Some((AluImmOp::Sltiu, imm)),
                _ => None,
            };
            if let Some((iop, imm)) = plan {
                return Some(BinPlan::Imm { op: iop, a, imm });
            }
            if cb == 0 && op == Eq {
                return Some(BinPlan::Imm { op: AluImmOp::Sltiu, a, imm: 1 });
            }
            if cb == 0 && op == Ne {
                return Some(BinPlan::Reg { op: AluOp::Sltu, a: b, b: a }); // 0 <u a
            }
        }
        if let Some(ca) = const_of(a) {
            // Commutative ops with the constant on the left; guard
            // against const-const operands (no recursion fixpoint).
            if op.is_commutative() && const_of(b).is_none() {
                if let Some(p) = self.bin_single_plan(op, b, a) {
                    return Some(p);
                }
            }
            if ca == 0 && op == Ne {
                return Some(BinPlan::Reg { op: AluOp::Sltu, a, b }); // 0 <u b
            }
            if ca == 0 && op == Eq {
                return Some(BinPlan::Imm { op: AluImmOp::Sltiu, a: b, imm: 1 });
            }
        }
        let reg = |aop: AluOp, x: Value, y: Value| Some(BinPlan::Reg { op: aop, a: x, b: y });
        match op {
            Add => reg(AluOp::Add, a, b),
            Sub => reg(AluOp::Sub, a, b),
            Mul => reg(AluOp::Mul, a, b),
            Div => reg(AluOp::Div, a, b),
            Rem => reg(AluOp::Rem, a, b),
            DivU => reg(AluOp::Divu, a, b),
            RemU => reg(AluOp::Remu, a, b),
            And => reg(AluOp::And, a, b),
            Or => reg(AluOp::Or, a, b),
            Xor => reg(AluOp::Xor, a, b),
            Shl => reg(AluOp::Sll, a, b),
            ShrA => reg(AluOp::Sra, a, b),
            ShrL => reg(AluOp::Srl, a, b),
            SLt => reg(AluOp::Slt, a, b),
            ULt => reg(AluOp::Sltu, a, b),
            SGt => reg(AluOp::Slt, b, a),
            UGt => reg(AluOp::Sltu, b, a),
            Eq | Ne | SLe | SGe | ULe | UGe => None,
        }
    }

    fn lower_bin(&mut self, v: Value, op: BinOp, a: Value, b: Value) -> CResult<()> {
        let inst = match self.bin_single_plan(op, a, b) {
            Some(BinPlan::Imm { op: iop, a: pa, imm }) => {
                let da = self.read1(pa)?;
                // The folded constant operand's IR use must still
                // be consumed for liveness bookkeeping.
                for orig in [a, b] {
                    if orig != pa {
                        self.consume_use(orig);
                    }
                }
                Inst::AluImm { op: iop, s1: da, imm }
            }
            Some(BinPlan::Reg { op: rop, a: pa, b: pb }) => {
                let (da, db) = self.read2(pa, pb)?;
                Inst::Alu { op: rop, s1: da, s2: db }
            }
            // Two-instruction comparisons: one compare, then a fix-up
            // turning its result into the 0/1 answer.
            None => {
                use BinOp::*;
                let (cmp, swap) = match op {
                    Eq | Ne => (AluOp::Xor, false),
                    SLe => (AluOp::Slt, true),
                    SGe => (AluOp::Slt, false),
                    ULe => (AluOp::Sltu, true),
                    UGe => (AluOp::Sltu, false),
                    _ => return internal(format!("unexpected two-inst op {op}")),
                };
                let (da, db) = self.read2(a, b)?;
                let (s1, s2) = if swap { (db, da) } else { (da, db) };
                self.push(Inst::Alu { op: cmp, s1, s2 });
                match op {
                    Eq => Inst::AluImm { op: AluImmOp::Sltiu, s1: Dist::of(1), imm: 1 }, // x == 0
                    Ne => Inst::Alu { op: AluOp::Sltu, s1: Dist::ZERO, s2: Dist::of(1) }, // 0 <u x
                    _ => Inst::AluImm { op: AluImmOp::Xori, s1: Dist::of(1), imm: 1 },   // !x
                }
            }
        };
        self.def(Tracked::Val(v), inst);
        Ok(())
    }

    // ---------------------------------------------------------------
    // The main walk.

    fn run(&mut self) -> CResult<()> {
        self.emit_prologue()?;
        for (i, b) in self.order.clone().into_iter().enumerate() {
            self.cur_block = b;
            if i > 0 {
                self.st = match self.in_states.remove(&b) {
                    Some(s) => s,
                    None => self.merge_entry_state(b)?,
                };
                self.place_label(b);
            }
            self.count_uses(b);
            self.compute_sink_set(b)?;
            for v in self.f.block(b).insts.clone() {
                let inst = self.f.inst(v).clone();
                if inst.is_phi() || self.sink_set.contains(&v) {
                    continue;
                }
                self.lower_value(v, &inst)?;
                self.age_sweep()?;
            }
            self.emit_terminator(b)?;
        }
        Ok(())
    }

    fn emit_prologue(&mut self) -> CResult<()> {
        let n = self.f.num_params as i64;
        // Virtual positions of incoming values: [1] = JAL, [2] =
        // arg_{n-1}, ..., [n+1] = arg_0.
        self.st.cur = 0;
        self.st.pos.insert(Tracked::RetAddr, -1);
        let entry = self.f.entry();
        let params: Vec<Value> = self
            .f
            .block(entry)
            .insts
            .iter()
            .copied()
            .filter(|&v| matches!(self.f.inst(v), InstData::Param(_)))
            .collect();
        for &v in &params {
            if let InstData::Param(i) = self.f.inst(v) {
                self.st.pos.insert(Tracked::Val(v), -2 - (n - 1 - i64::from(*i)));
            }
        }
        // Frame allocation (size patched once spills are known).
        if !self.skip_frame {
            self.spadd_fixups.push((self.items.len(), -1));
            self.def(Tracked::FrameBase, Inst::SpAdd { imm: 0 });
        }
        // RE+ keeps the return address in the stack from the start
        // (Figure 10c stores _RETADDR in the prologue).
        if self.opts.redundancy_elimination && (self.has_calls || !self.info.frames.is_empty()) {
            self.spill(Tracked::RetAddr)?;
            self.prologue_spilled_retaddr = true;
        }
        Ok(())
    }

    fn count_uses(&mut self, b: Block) {
        self.uses_left.clear();
        for &v in &self.f.block(b).insts {
            let inst = self.f.inst(v);
            if inst.is_phi() {
                continue;
            }
            inst.for_each_operand(|op| {
                *self.uses_left.entry(op).or_insert(0) += 1;
            });
        }
        self.f.block(b).term.for_each_operand(|op| {
            *self.uses_left.entry(op).or_insert(0) += 1;
        });
        self.init_uses = self.uses_left.clone();
    }

    /// RE+ producer rearrangement (Figure 10b): single-instruction
    /// values defined in this block, unused locally, whose only role
    /// is to fill a frame slot of the unique merge successor.
    fn compute_sink_set(&mut self, b: Block) -> CResult<()> {
        self.sink_set.clear();
        if !self.opts.redundancy_elimination {
            return Ok(());
        }
        let succs = self.f.block(b).term.successors();
        if succs.len() != 1 {
            return Ok(());
        }
        let succ = succs[0];
        let Some(frame) = self.info.frames.get(&succ) else { return Ok(()) };
        let sources = self.resolve_slots(b, succ, frame)?;
        let mut occurrence: HashMap<Value, u32> = HashMap::new();
        for (_, src) in &sources {
            if let Tracked::Val(u) = src {
                *occurrence.entry(*u).or_insert(0) += 1;
            }
        }
        for (_, src) in &sources {
            let Tracked::Val(u) = src else { continue };
            let u = *u;
            if occurrence[&u] != 1 {
                continue;
            }
            if self.def_block.get(&u) != Some(&b) {
                continue;
            }
            if self.init_uses.get(&u).copied().unwrap_or(0) != 0 {
                continue; // used locally; cannot delay production
            }
            let ok = match self.f.inst(u) {
                InstData::Bin { op, a, b: bb } => self.bin_single_plan(*op, *a, *bb).is_some(),
                InstData::SlotAddr(_) => true,
                _ => false,
            };
            if ok {
                self.sink_set.insert(u);
            }
        }
        Ok(())
    }

    fn lower_value(&mut self, v: Value, inst: &InstData) -> CResult<()> {
        let inst = match *inst {
            InstData::Param(_) => return Ok(()), // positions preset in the prologue
            InstData::Const(0) => return Ok(()), // the zero register
            InstData::Const(_) | InstData::GlobalAddr(_) | InstData::SlotAddr(_) => {
                return self.rematerialize(v)
            }
            InstData::Bin { op, a, b } => return self.lower_bin(v, op, a, b),
            InstData::Load { width, addr } => Inst::Ld { width, addr: self.read1(addr)?, offset: 0 },
            InstData::Store { width, val, addr } => {
                let (dv, da) = self.read2(val, addr)?;
                Inst::St { width, val: dv, addr: da }
            }
            InstData::Call { ref callee, ref args } => return self.lower_call(v, callee, args),
            InstData::Sys { op, ref args } => Inst::Sys { code: op.code(), s: self.read1(args[0])? },
            InstData::Phi(_) => return internal("phi reached lower_value"),
            InstData::Copy(_) => return internal("unresolved copy in codegen"),
        };
        self.def(Tracked::Val(v), inst);
        Ok(())
    }

    /// Calls: spill live values (their post-call distances are
    /// unknowable), arrange argument producers immediately before
    /// `JAL`, then resume with only the return value tracked.
    fn lower_call(&mut self, v: Value, callee: &str, args: &[Value]) -> CResult<()> {
        // 1. Values still needed on this path must be in the stack
        //    frame. This call's own uses of its arguments are consumed
        //    only after the shuffle below, so every argument counts as
        //    needed: each one that is not re-materializable is stored
        //    too, whether or not it is used after the call.
        let mut to_spill: Vec<Tracked> = Vec::new();
        for (&t, _) in self.st.pos.clone().iter() {
            match t {
                Tracked::Val(u) => {
                    if self.needed(u) && !self.st.spilled.contains(&t) && !self.is_rematerializable(u) {
                        to_spill.push(t);
                    }
                }
                Tracked::RetAddr => {
                    if !self.st.spilled.contains(&t) {
                        to_spill.push(t);
                    }
                }
                Tracked::FrameBase => {}
            }
        }
        to_spill.sort_unstable();
        for t in to_spill {
            // Ensure readable, then store.
            if let Tracked::Val(u) = t {
                self.ensure_val(u, 6)?;
            }
            self.spill(t)?;
            self.age_sweep()?;
        }
        // 2. Argument producers in convention order: arg0 first, the
        //    last argument immediately before JAL.
        let slots: Vec<Slot> = args.iter().map(|&a| (None, Tracked::Val(a))).collect();
        self.emit_slot_sequence(&slots)?;
        for &a in args {
            self.consume_use(a);
        }
        // 3. The call.
        self.push_reloc(Inst::Jal { offset: 0 }, Some(SReloc::BranchTo(callee.to_string())));
        // 4. Post-call state: every tracked position is stale. Model
        //    the resume point as [1] = callee's JR, [2] = retval0.
        let resume = self.st.cur + 2;
        self.st.cur = resume;
        self.vhigh = self.vhigh.max(resume);
        self.st.pos.clear();
        self.st.pos.insert(Tracked::Val(v), resume - 2);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Frames / shuffles.

    /// The slots the edge `pred -> succ` fills: each frame member,
    /// copied from itself or, for a phi of `succ`, from its input on
    /// this edge.
    fn resolve_slots(&self, pred: Block, succ: Block, frame: &[SlotSrc]) -> CResult<Vec<Slot>> {
        let mut out = Vec::with_capacity(frame.len());
        for &slot in frame {
            let key = Tracked::from(slot);
            let mut src = key;
            if let SlotSrc::Val(v) = slot {
                if let InstData::Phi(phi_args) = self.f.inst(v) {
                    if self.def_block.get(&v) == Some(&succ) {
                        let (_, u) = phi_args
                            .iter()
                            .find(|(p, _)| *p == pred)
                            .ok_or_else(|| CodegenError::Internal(format!("phi {v} missing edge {pred}")))?;
                        src = Tracked::Val(*u);
                    }
                }
            }
            out.push((Some(key), src));
        }
        Ok(out)
    }

    /// Emits a contiguous sequence of single producer instructions,
    /// one per slot (a merge-frame shuffle or a call-argument
    /// arrangement). Performs the pre-pass that guarantees every
    /// source is producible by exactly one instruction within the
    /// distance bound, then emits them; positions are updated only
    /// after the whole sequence, so slot producers read pre-shuffle
    /// values (which makes phi permutations correct).
    fn emit_slot_sequence(&mut self, slots: &[Slot]) -> CResult<()> {
        let k = slots.len() as i64;
        if k >= self.maxd() - 12 {
            return Err(CodegenError::FrameTooLarge {
                func: self.f.name.clone(),
                live: slots.len(),
                max_distance: self.opts.max_distance,
                needs: needs_at_least(k + 13),
            });
        }
        // Pre-pass: make every source producible in one instruction
        // that still reaches its input from the last slot.
        let reach = k + 2;
        for round in 0..16 {
            let len_before = self.items.len();
            for &(_, src) in slots {
                match src {
                    Tracked::Val(u) if self.is_zero_const(u) => {}
                    Tracked::Val(u) if self.sink_set.contains(&u) => {
                        // Operands of the sunk producer must be close.
                        for op in self.operands_of(u) {
                            if self.is_zero_const(op) {
                                continue;
                            }
                            self.ensure_val(op, 4)?;
                            if !self.within(Tracked::Val(op), reach) {
                                self.relay(Tracked::Val(op))?;
                            }
                        }
                        if matches!(self.f.inst(u), InstData::SlotAddr(_))
                            && !self.within(Tracked::FrameBase, reach)
                        {
                            self.ensure_fb(k + 4)?;
                        }
                    }
                    _ if self.st.pos.contains_key(&src) => {
                        if !self.within(src, reach) {
                            self.relay(src)?;
                        }
                    }
                    // LD in slot needs the frame base close.
                    _ if self.st.spilled.contains(&src) => {
                        if !self.within(Tracked::FrameBase, reach) {
                            self.ensure_fb(k + 4)?;
                        }
                    }
                    // Re-emit constants and addresses ahead of the
                    // sequence, except a small constant: its slot's
                    // `ADDi` produces it.
                    Tracked::Val(u) if self.is_rematerializable(u) => {
                        if self.imm_const(u).is_none() {
                            self.rematerialize(u)?;
                        }
                    }
                    _ => return internal(format!("slot source {src:?} unavailable in {}", self.f.name)),
                }
            }
            if self.items.len() == len_before {
                break;
            }
            if round == 15 {
                return internal("slot pre-pass did not converge");
            }
        }
        // Emit exactly one instruction per slot.
        let mut updates: Vec<(Tracked, i64)> = Vec::new();
        for &(key, src) in slots {
            let p = self.push(self.slot_inst(src)?);
            if let Tracked::Val(u) = src {
                if self.sink_set.remove(&u) {
                    updates.push((src, p));
                }
            }
            if let Some(key) = key {
                updates.push((key, p));
            }
        }
        for (t, p) in updates {
            self.st.pos.insert(t, p);
        }
        Ok(())
    }

    /// The one instruction that produces `src` in its slot.
    fn slot_inst(&self, src: Tracked) -> CResult<Inst> {
        if let Tracked::Val(u) = src {
            if self.is_zero_const(u) {
                return Ok(Inst::Rmov { s: Dist::ZERO });
            }
            if self.sink_set.contains(&u) {
                return self.sunk_inst(u);
            }
        }
        if self.st.pos.contains_key(&src) {
            return Ok(Inst::Rmov { s: self.dist_to(src)? });
        }
        if self.st.spilled.contains(&src) {
            return self.load(src);
        }
        match src {
            Tracked::Val(u) => match self.imm_const(u) {
                Some(imm) => Ok(Inst::AluImm { op: AluImmOp::Addi, s1: Dist::ZERO, imm }),
                None => internal(format!("slot {u} not producible")),
            },
            _ => internal(format!("slot {src:?} not producible")),
        }
    }

    fn operands_of(&self, v: Value) -> Vec<Value> {
        let mut ops = Vec::new();
        self.f.inst(v).for_each_operand(|o| ops.push(o));
        ops
    }

    /// The (single) real producer instruction of a sunk value.
    fn sunk_inst(&self, u: Value) -> CResult<Inst> {
        match *self.f.inst(u) {
            InstData::Bin { op, a, b } => match self.bin_single_plan(op, a, b) {
                Some(BinPlan::Imm { op, a, imm }) => Ok(Inst::AluImm { op, s1: self.operand(a)?, imm }),
                Some(BinPlan::Reg { op, a, b }) => {
                    Ok(Inst::Alu { op, s1: self.operand(a)?, s2: self.operand(b)? })
                }
                None => internal("sunk value lost its single plan"),
            },
            InstData::SlotAddr(s) => self.slot_addr(s),
            ref other => internal(format!("cannot sink {other:?}")),
        }
    }

    /// Entry state of a merge block, defined purely by its frame: the
    /// last `k + 1` dynamic instructions before the block were the `k`
    /// slot producers plus one control instruction.
    fn merge_entry_state(&mut self, b: Block) -> CResult<PathState> {
        let frame = self
            .info
            .frames
            .get(&b)
            .cloned()
            .ok_or_else(|| CodegenError::Internal(format!("no in-state and no frame for {b}")))?;
        let k = frame.len() as i64;
        let cur = self.vhigh + 16;
        self.vhigh = cur;
        let mut pos = HashMap::new();
        for (i, &slot) in frame.iter().enumerate() {
            pos.insert(Tracked::from(slot), cur - (k - i as i64 + 1));
        }
        let mut spilled: HashSet<Tracked> = self.merge_spills.get(&b).cloned().unwrap_or_default();
        if self.prologue_spilled_retaddr {
            spilled.insert(Tracked::RetAddr);
        }
        if let Some(res) = self.info.stack_resident.get(&b) {
            for &v in res {
                spilled.insert(Tracked::Val(v));
            }
        }
        Ok(PathState { cur, pos, spilled })
    }

    // ---------------------------------------------------------------
    // Terminators.

    fn next_in_layout(&self, b: Block, t: Block) -> bool {
        self.order_idx.get(&b).and_then(|i| self.order.get(i + 1)) == Some(&t)
    }

    /// Ends `b` with a `J` to `t` unless `t` is laid out next; returns
    /// whether it emitted the `J`.
    fn jump(&mut self, b: Block, t: Block) -> bool {
        let far = !self.next_in_layout(b, t);
        if far {
            self.push_branch(Inst::J { offset: 0 }, t);
        }
        far
    }

    fn emit_terminator(&mut self, b: Block) -> CResult<()> {
        match self.f.block(b).term.clone() {
            Terminator::Br(t) => {
                let Some(frame) = self.info.frames.get(&t).cloned() else {
                    // Single-predecessor target: pass the state along.
                    self.jump(b, t);
                    self.in_states.insert(t, self.st.clone());
                    return Ok(());
                };
                // Spill values that become stack-resident in the
                // target region (loop entry edges).
                if let Some(res) = self.info.stack_resident.get(&t).cloned() {
                    let mut vs: Vec<Value> =
                        res.into_iter().filter(|v| self.live.live_out(b).contains(v)).collect();
                    vs.sort_unstable();
                    for v in vs {
                        if self.is_zero_const(v) || self.is_rematerializable(v) {
                            continue;
                        }
                        if !self.st.spilled.contains(&Tracked::Val(v)) {
                            self.ensure_val(v, 8)?;
                            self.spill(Tracked::Val(v))?;
                            self.age_sweep()?;
                        }
                    }
                }
                let slots = self.resolve_slots(b, t, &frame)?;
                self.emit_slot_sequence(&slots)?;
                // Record the spill facts this edge provides; the
                // merge keeps the intersection over its edges.
                let spilled = &self.st.spilled;
                self.merge_spills
                    .entry(t)
                    .and_modify(|s| s.retain(|x| spilled.contains(x)))
                    .or_insert_with(|| spilled.clone());
                // Exactly one trailing control instruction.
                if !self.jump(b, t) {
                    self.push(Inst::Nop);
                }
                Ok(())
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let d = self.read1(cond)?;
                // After critical-edge splitting both successors have a
                // single predecessor: no shuffles on these edges. The
                // branch targets one successor; the other is reached
                // by falling through or by a `J` after the branch, and
                // each path sees only the instructions it executes.
                let (branch, taken, fall) = if self.next_in_layout(b, else_bb) {
                    (Inst::Bnz { s: d, offset: 0 }, then_bb, else_bb)
                } else {
                    (Inst::Bez { s: d, offset: 0 }, else_bb, then_bb)
                };
                self.push_branch(branch, taken);
                self.in_states.insert(taken, self.st.clone());
                self.jump(b, fall);
                self.in_states.insert(fall, self.st.clone());
                Ok(())
            }
            Terminator::Ret(v) => {
                // Return address first (may need the frame).
                if !self.st.pos.contains_key(&Tracked::RetAddr) {
                    if self.st.spilled.contains(&Tracked::RetAddr) {
                        self.reload(Tracked::RetAddr)?;
                    } else {
                        return internal("return address lost at epilogue");
                    }
                }
                if let Some(v) = v {
                    self.ensure_val(v, 6)?;
                    self.consume_use(v);
                }
                // Restore SP.
                if !self.skip_frame {
                    self.spadd_fixups.push((self.items.len(), 1));
                    self.push(Inst::SpAdd { imm: 0 });
                }
                // retval0 immediately before JR.
                if self.f.returns_value {
                    let s = match v {
                        Some(v) => self.operand(v)?,
                        None => Dist::ZERO,
                    };
                    self.push(Inst::Rmov { s });
                }
                let dra = self.dist_to(Tracked::RetAddr)?;
                self.push(Inst::Jr { s: dra });
                Ok(())
            }
            Terminator::Unreachable => internal("unreachable terminator survived to codegen"),
        }
    }
}

/// A single-instruction plan for a binary operation.
#[derive(Debug, Clone, Copy)]
enum BinPlan {
    Imm { op: AluImmOp, a: Value, imm: i16 },
    Reg { op: AluOp, a: Value, b: Value },
}
