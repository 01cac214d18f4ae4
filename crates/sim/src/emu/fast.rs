//! The fast tier, written once for both ISAs: one micro-op type
//! ([`FastOp`]), one trace translator ([`translate`]) and one trace
//! executor ([`exec`]).
//!
//! The two ISAs differ in how an operand is named, not in what an ALU,
//! memory or branch op computes. STRAIGHT names a source by its
//! distance back into the result ring (distance 0 reads 0), and every
//! instruction writes the next ring slot. RV32IM names registers (`x0`
//! reads 0; a write to it goes to a sink slot) and writes only its
//! destination. [`FastIsa`] is that difference — `read`, `write` and
//! `sink` — plus the few ops only one ISA has ([`FastIsa::Op`]) and
//! each ISA's lowering. Monomorphization gives each ISA one flat match,
//! with no dynamic dispatch.
//!
//! Translation pre-resolves what it can: branch targets become absolute
//! PCs, constants (`LUI`, `AUIPC`, `li`, link values) become constant
//! writes, immediates are pre-extended, load/store widths get a variant
//! each, and so does every common ALU op, so the hot loop is one
//! dispatch per op. Unconditional jumps with a static target (STRAIGHT
//! `J`/`JAL`, RV32IM `JAL`) are fused *through*: their result is a
//! constant, so the trace continues at the target. Statistics are
//! batched per trace. Code is immutable (fetch reads the image, not
//! memory), so translated traces never need invalidation.

use std::fmt::Debug;

use straight_isa::{AluImmOp, AluOp, InstKind, MemWidth, TrapKind};

use super::memops::{self, Memory};
use super::{EmuExit, EmuIsa};
use crate::KindCounts;

/// Longest translated trace, in architectural instructions.
const BLOCK_CAP: usize = 256;

/// The per-ISA half of the fast tier.
pub(crate) trait FastIsa: EmuIsa + Sized {
    /// A decoded instruction.
    type Inst;
    /// A source operand: a ring distance or a register number.
    type Src: Copy + Debug;
    /// A destination: nothing for STRAIGHT (the next ring slot), a
    /// register number for RV32IM.
    type Dst: Copy + Debug;
    /// The ops only this ISA has.
    type Op: Copy + Debug;
    /// What a trace keeps for this ISA alone.
    type Extra: Default + Clone + Debug;

    /// Decodes one code word with its Figure 15 category.
    fn decode(word: u32) -> Option<(Self::Inst, InstKind)>;

    /// Lowers the instruction at `pc` onto the end of `t`.
    fn lower(inst: Self::Inst, pc: u32, t: &mut Trace<Self>) -> Flow;

    /// The value of `s` for instruction `n` (the executed count).
    fn read(&self, s: Self::Src, n: u64) -> u32;

    /// Writes instruction `n`'s result to `d`.
    fn write(&mut self, d: Self::Dst, n: u64, v: u32);

    /// Instruction `n`'s result where it names no destination (a store,
    /// a branch, a `NOP`): STRAIGHT's ring still takes it, RV32IM drops
    /// it.
    fn sink(&mut self, n: u64, v: u32);

    /// Executes an op of this ISA alone as instruction `n`. Returns the
    /// instructions it retired, or the trap it raised at `n`. `next_pc`
    /// holds the PC after the trace's last instruction, which is the
    /// link of a jump that ends the trace.
    fn exec_op(&mut self, op: Self::Op, t: &Trace<Self>, n: u64, next_pc: &mut u32) -> Result<u64, TrapKind>;

    /// Adds what a whole run of `t` counts beyond its categories.
    fn count_trace(&mut self, _t: &Trace<Self>) {}

    /// Adds what `t` counts beyond its categories when it traps at its
    /// instruction `done` (that instruction included).
    fn count_prefix(&mut self, _t: &Trace<Self>, _done: usize) {}
}

/// Where translation goes after one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// On to the next word.
    Next,
    /// On to a static jump target: the jump is fused.
    Jump(u32),
    /// The trace ends: a conditional branch, an indirect jump or a
    /// system call.
    End,
    /// The trace ends in a halt (`HALT`, `EBREAK`).
    Halt,
}

/// A lowered micro-op — one dispatch per op, everything the translator
/// can resolve folded in. The common ALU ops have a variant each, which
/// skips the inner [`AluOp::eval`] match.
///
/// `repr(u8)` keeps the tag a plain first byte. Left to the default
/// layout, the compiler packed it into the spare tag values of
/// `S::Op`, and decoding that cost every RV32IM dispatch a few
/// instructions (its fast tier ran about 20% slower).
#[derive(Debug)]
#[repr(u8)]
pub(crate) enum FastOp<S: FastIsa> {
    /// No result beyond the constant 0 (`NOP`, `HALT`, a fused `J`,
    /// RV32IM ALU ops writing `x0`, `EBREAK`).
    Nop,
    /// A result known at translation time.
    Const { d: S::Dst, value: u32 },
    Add { d: S::Dst, s1: S::Src, s2: S::Src },
    Sub { d: S::Dst, s1: S::Src, s2: S::Src },
    Sll { d: S::Dst, s1: S::Src, s2: S::Src },
    Slt { d: S::Dst, s1: S::Src, s2: S::Src },
    Sltu { d: S::Dst, s1: S::Src, s2: S::Src },
    Xor { d: S::Dst, s1: S::Src, s2: S::Src },
    Srl { d: S::Dst, s1: S::Src, s2: S::Src },
    Sra { d: S::Dst, s1: S::Src, s2: S::Src },
    Or { d: S::Dst, s1: S::Src, s2: S::Src },
    And { d: S::Dst, s1: S::Src, s2: S::Src },
    Mul { d: S::Dst, s1: S::Src, s2: S::Src },
    /// The M extension's high, divide and remainder ops: a second
    /// dispatch through [`AluOp::eval`].
    Alu { op: AluOp, d: S::Dst, s1: S::Src, s2: S::Src },
    Addi { d: S::Dst, s1: S::Src, imm: u32 },
    Slli { d: S::Dst, s1: S::Src, imm: u32 },
    Slti { d: S::Dst, s1: S::Src, imm: u32 },
    Sltiu { d: S::Dst, s1: S::Src, imm: u32 },
    Xori { d: S::Dst, s1: S::Src, imm: u32 },
    Srli { d: S::Dst, s1: S::Src, imm: u32 },
    Srai { d: S::Dst, s1: S::Src, imm: u32 },
    Ori { d: S::Dst, s1: S::Src, imm: u32 },
    Andi { d: S::Dst, s1: S::Src, imm: u32 },
    LdB { d: S::Dst, addr: S::Src, offset: u32 },
    LdBu { d: S::Dst, addr: S::Src, offset: u32 },
    LdH { d: S::Dst, addr: S::Src, offset: u32 },
    LdHu { d: S::Dst, addr: S::Src, offset: u32 },
    LdW { d: S::Dst, addr: S::Src, offset: u32 },
    /// `width` is the encoded width, kept for byte-identical traps.
    StB { width: MemWidth, val: S::Src, addr: S::Src, offset: u32 },
    StH { width: MemWidth, val: S::Src, addr: S::Src, offset: u32 },
    StW { val: S::Src, addr: S::Src, offset: u32 },
    /// Branches on one source against zero (STRAIGHT `BEZ`/`BNZ`, RV32IM
    /// `beqz`/`bnez`): one read fewer than `Beq`/`Bne` against zero.
    Beqz { s: S::Src, target: u32 },
    Bnez { s: S::Src, target: u32 },
    Beq { s1: S::Src, s2: S::Src, target: u32 },
    Bne { s1: S::Src, s2: S::Src, target: u32 },
    Blt { s1: S::Src, s2: S::Src, target: u32 },
    Bge { s1: S::Src, s2: S::Src, target: u32 },
    Bltu { s1: S::Src, s2: S::Src, target: u32 },
    Bgeu { s1: S::Src, s2: S::Src, target: u32 },
    /// An op of one ISA alone.
    Isa(S::Op),
}

impl<S: FastIsa> Clone for FastOp<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: FastIsa> Copy for FastOp<S> {}

impl<S: FastIsa> FastOp<S> {
    /// A register–register ALU op.
    pub(crate) fn alu(op: AluOp, d: S::Dst, s1: S::Src, s2: S::Src) -> FastOp<S> {
        match op {
            AluOp::Add => FastOp::Add { d, s1, s2 },
            AluOp::Sub => FastOp::Sub { d, s1, s2 },
            AluOp::Sll => FastOp::Sll { d, s1, s2 },
            AluOp::Slt => FastOp::Slt { d, s1, s2 },
            AluOp::Sltu => FastOp::Sltu { d, s1, s2 },
            AluOp::Xor => FastOp::Xor { d, s1, s2 },
            AluOp::Srl => FastOp::Srl { d, s1, s2 },
            AluOp::Sra => FastOp::Sra { d, s1, s2 },
            AluOp::Or => FastOp::Or { d, s1, s2 },
            AluOp::And => FastOp::And { d, s1, s2 },
            AluOp::Mul => FastOp::Mul { d, s1, s2 },
            op => FastOp::Alu { op, d, s1, s2 },
        }
    }

    /// A register–immediate ALU op; `imm` is already extended the way
    /// the ISA extends it.
    pub(crate) fn alu_imm(op: AluImmOp, d: S::Dst, s1: S::Src, imm: u32) -> FastOp<S> {
        match op {
            AluImmOp::Addi => FastOp::Addi { d, s1, imm },
            AluImmOp::Slti => FastOp::Slti { d, s1, imm },
            AluImmOp::Sltiu => FastOp::Sltiu { d, s1, imm },
            AluImmOp::Xori => FastOp::Xori { d, s1, imm },
            AluImmOp::Ori => FastOp::Ori { d, s1, imm },
            AluImmOp::Andi => FastOp::Andi { d, s1, imm },
            AluImmOp::Slli => FastOp::Slli { d, s1, imm },
            AluImmOp::Srli => FastOp::Srli { d, s1, imm },
            AluImmOp::Srai => FastOp::Srai { d, s1, imm },
        }
    }

    /// A load from `addr + offset`.
    pub(crate) fn load(width: MemWidth, d: S::Dst, addr: S::Src, offset: u32) -> FastOp<S> {
        match width {
            MemWidth::B => FastOp::LdB { d, addr, offset },
            MemWidth::Bu => FastOp::LdBu { d, addr, offset },
            MemWidth::H => FastOp::LdH { d, addr, offset },
            MemWidth::Hu => FastOp::LdHu { d, addr, offset },
            MemWidth::W => FastOp::LdW { d, addr, offset },
        }
    }

    /// A store of `val` to `addr + offset`.
    pub(crate) fn store(width: MemWidth, val: S::Src, addr: S::Src, offset: u32) -> FastOp<S> {
        match width {
            MemWidth::B | MemWidth::Bu => FastOp::StB { val, addr, offset, width },
            MemWidth::H | MemWidth::Hu => FastOp::StH { val, addr, offset, width },
            MemWidth::W => FastOp::StW { val, addr, offset },
        }
    }
}

/// A translated trace: instructions ending at the first conditional
/// branch, indirect jump, system call, halt, undecodable word, code
/// end, or [`BLOCK_CAP`]. Unconditional jumps with a static target do
/// not end a trace: translation continues at the target.
#[derive(Debug, Clone)]
pub(crate) struct Trace<S: FastIsa> {
    /// PC after the last instruction when no terminator redirects
    /// (follows fused jumps, so not simply `start_pc + 4 * len`).
    end_pc: u32,
    pub(super) ops: Vec<FastOp<S>>,
    /// Per architectural instruction: its PC and Figure 15 category.
    /// Cold paths only (a mid-trace trap needs the interpreter's exact
    /// PC and per-instruction statistics).
    pub(super) meta: Vec<(u32, InstKind)>,
    /// Figure 15 category counts for a full execution.
    kinds: KindCounts,
    /// Ends in a halt.
    halts: bool,
    pub(super) extra: S::Extra,
}

impl<S: FastIsa> Trace<S> {
    /// Architectural instructions in the trace.
    #[inline]
    pub(super) fn len(&self) -> u64 {
        self.meta.len() as u64
    }
}

/// Translates the trace starting at `start_pc`. An empty trace (first
/// word unfetchable or undecodable) makes the driver fall back to the
/// interpreter, which raises the proper trap.
pub(crate) fn translate<S: FastIsa>(emu: &S, start_pc: u32) -> Trace<S> {
    let mut t = Trace {
        end_pc: start_pc,
        ops: Vec::new(),
        meta: Vec::new(),
        kinds: KindCounts::default(),
        halts: false,
        extra: S::Extra::default(),
    };
    let mut pc = start_pc;
    while t.meta.len() < BLOCK_CAP {
        let Some((inst, kind)) = emu.core().image.fetch(pc).and_then(S::decode) else { break };
        t.kinds[kind] += 1;
        t.meta.push((pc, kind));
        let flow = S::lower(inst, pc, &mut t);
        pc = match flow {
            Flow::Jump(target) => target,
            _ => pc.wrapping_add(4),
        };
        if matches!(flow, Flow::End | Flow::Halt) {
            t.halts = flow == Flow::Halt;
            break;
        }
    }
    t.end_pc = pc;
    t
}

/// Instruction `n` computes `f(s1, s2)` into `d`.
#[inline(always)]
fn rr<S: FastIsa>(emu: &mut S, n: u64, (d, s1, s2): (S::Dst, S::Src, S::Src), f: impl FnOnce(u32, u32) -> u32) {
    let v = f(emu.read(s1, n), emu.read(s2, n));
    emu.write(d, n, v);
}

/// Instruction `n` computes `f(s1, imm)` into `d`.
#[inline(always)]
fn ri<S: FastIsa>(emu: &mut S, n: u64, (d, s1, imm): (S::Dst, S::Src, u32), f: impl FnOnce(u32, u32) -> u32) {
    let v = f(emu.read(s1, n), imm);
    emu.write(d, n, v);
}

/// Instruction `n` loads `addr + offset` into `d`.
#[inline(always)]
fn load<S: FastIsa>(
    emu: &mut S,
    n: u64,
    (d, addr, offset): (S::Dst, S::Src, u32),
    f: impl FnOnce(&Memory, u32) -> Result<u32, TrapKind>,
) -> Result<(), TrapKind> {
    let v = f(&emu.core().mem, emu.read(addr, n).wrapping_add(offset))?;
    emu.write(d, n, v);
    Ok(())
}

/// Instruction `n` stores `val` to `addr + offset`; its result is the
/// stored value.
#[inline(always)]
fn store<S: FastIsa>(
    emu: &mut S,
    n: u64,
    (val, addr, offset): (S::Src, S::Src, u32),
    f: impl FnOnce(&mut Memory, u32, u32) -> Result<(), TrapKind>,
) -> Result<(), TrapKind> {
    let (v, a) = (emu.read(val, n), emu.read(addr, n).wrapping_add(offset));
    f(&mut emu.core_mut().mem, a, v)?;
    emu.sink(n, v);
    Ok(())
}

/// Instruction `n` branches to `target` when `taken(s1, s2)`.
#[inline(always)]
fn branch<S: FastIsa>(
    emu: &mut S,
    n: u64,
    (s1, s2, target): (S::Src, S::Src, u32),
    next_pc: &mut u32,
    taken: impl FnOnce(u32, u32) -> bool,
) {
    if taken(emu.read(s1, n), emu.read(s2, n)) {
        *next_pc = target;
    }
    emu.sink(n, 0);
}

fn slt(a: u32, b: u32) -> u32 {
    u32::from((a as i32) < (b as i32))
}

fn sltu(a: u32, b: u32) -> u32 {
    u32::from(a < b)
}

fn sra(a: u32, b: u32) -> u32 {
    (a as i32).wrapping_shr(b) as u32
}

/// Executes one translated trace that [`EmuIsa::unchecked_len`]
/// accepted and the step budget covers.
#[inline]
pub(crate) fn exec<S: FastIsa>(emu: &mut S, t: &Trace<S>) -> Option<EmuExit> {
    let entry = emu.core().count;
    let (mut n, mut next_pc) = (entry, t.end_pc);
    if let Err(kind) = run(emu, t, &mut n, &mut next_pc) {
        return trace_trap(emu, t, entry, n, kind);
    }
    emu.count_trace(t);
    let core = emu.core_mut();
    core.count = n;
    core.pc = next_pc;
    core.stats.kinds += &t.kinds;
    core.stats.retired += n - entry;
    core.exit_after(t.halts)
}

/// Runs the ops of `t`. One counter, `n`, numbers the architectural
/// instructions: it indexes STRAIGHT's ring, and on a trap it is left
/// at the trapping instruction.
#[inline(always)]
fn run<S: FastIsa>(emu: &mut S, t: &Trace<S>, n: &mut u64, next_pc: &mut u32) -> Result<(), TrapKind> {
    for op in &t.ops {
        let i = *n;
        match *op {
            FastOp::Nop => emu.sink(i, 0),
            FastOp::Const { d, value } => emu.write(d, i, value),
            FastOp::Add { d, s1, s2 } => rr(emu, i, (d, s1, s2), u32::wrapping_add),
            FastOp::Sub { d, s1, s2 } => rr(emu, i, (d, s1, s2), u32::wrapping_sub),
            FastOp::Sll { d, s1, s2 } => rr(emu, i, (d, s1, s2), u32::wrapping_shl),
            FastOp::Slt { d, s1, s2 } => rr(emu, i, (d, s1, s2), slt),
            FastOp::Sltu { d, s1, s2 } => rr(emu, i, (d, s1, s2), sltu),
            FastOp::Xor { d, s1, s2 } => rr(emu, i, (d, s1, s2), |a, b| a ^ b),
            FastOp::Srl { d, s1, s2 } => rr(emu, i, (d, s1, s2), u32::wrapping_shr),
            FastOp::Sra { d, s1, s2 } => rr(emu, i, (d, s1, s2), sra),
            FastOp::Or { d, s1, s2 } => rr(emu, i, (d, s1, s2), |a, b| a | b),
            FastOp::And { d, s1, s2 } => rr(emu, i, (d, s1, s2), |a, b| a & b),
            FastOp::Mul { d, s1, s2 } => rr(emu, i, (d, s1, s2), u32::wrapping_mul),
            FastOp::Alu { op, d, s1, s2 } => rr(emu, i, (d, s1, s2), |a, b| op.eval(a, b)),
            FastOp::Addi { d, s1, imm } => ri(emu, i, (d, s1, imm), u32::wrapping_add),
            FastOp::Slli { d, s1, imm } => ri(emu, i, (d, s1, imm), u32::wrapping_shl),
            FastOp::Slti { d, s1, imm } => ri(emu, i, (d, s1, imm), slt),
            FastOp::Sltiu { d, s1, imm } => ri(emu, i, (d, s1, imm), sltu),
            FastOp::Xori { d, s1, imm } => ri(emu, i, (d, s1, imm), |a, b| a ^ b),
            FastOp::Srli { d, s1, imm } => ri(emu, i, (d, s1, imm), u32::wrapping_shr),
            FastOp::Srai { d, s1, imm } => ri(emu, i, (d, s1, imm), sra),
            FastOp::Ori { d, s1, imm } => ri(emu, i, (d, s1, imm), |a, b| a | b),
            FastOp::Andi { d, s1, imm } => ri(emu, i, (d, s1, imm), |a, b| a & b),
            FastOp::LdB { d, addr, offset } => load(emu, i, (d, addr, offset), memops::load_b)?,
            FastOp::LdBu { d, addr, offset } => load(emu, i, (d, addr, offset), memops::load_bu)?,
            FastOp::LdH { d, addr, offset } => load(emu, i, (d, addr, offset), memops::load_h)?,
            FastOp::LdHu { d, addr, offset } => load(emu, i, (d, addr, offset), memops::load_hu)?,
            FastOp::LdW { d, addr, offset } => load(emu, i, (d, addr, offset), memops::load_w)?,
            FastOp::StB { val, addr, offset, width } => {
                store(emu, i, (val, addr, offset), |m, a, v| memops::store_b(m, a, v, width))?;
            }
            FastOp::StH { val, addr, offset, width } => {
                store(emu, i, (val, addr, offset), |m, a, v| memops::store_h(m, a, v, width))?;
            }
            FastOp::StW { val, addr, offset } => store(emu, i, (val, addr, offset), memops::store_w)?,
            FastOp::Beqz { s, target } => branch(emu, i, (s, s, target), next_pc, |a, _| a == 0),
            FastOp::Bnez { s, target } => branch(emu, i, (s, s, target), next_pc, |a, _| a != 0),
            FastOp::Beq { s1, s2, target } => branch(emu, i, (s1, s2, target), next_pc, |a, b| a == b),
            FastOp::Bne { s1, s2, target } => branch(emu, i, (s1, s2, target), next_pc, |a, b| a != b),
            FastOp::Blt { s1, s2, target } => {
                branch(emu, i, (s1, s2, target), next_pc, |a, b| (a as i32) < (b as i32));
            }
            FastOp::Bge { s1, s2, target } => {
                branch(emu, i, (s1, s2, target), next_pc, |a, b| (a as i32) >= (b as i32));
            }
            FastOp::Bltu { s1, s2, target } => branch(emu, i, (s1, s2, target), next_pc, |a, b| a < b),
            FastOp::Bgeu { s1, s2, target } => branch(emu, i, (s1, s2, target), next_pc, |a, b| a >= b),
            FastOp::Isa(op) => {
                *n += emu.exec_op(op, t, i, next_pc)?;
                continue;
            }
        }
        *n += 1;
    }
    Ok(())
}

/// Finalizes a trap at instruction `n` of a trace entered at count
/// `entry`: syncs count, PC and statistics to the completed prefix and
/// returns the trap the interpreter would have raised there.
#[cold]
fn trace_trap<S: FastIsa>(emu: &mut S, t: &Trace<S>, entry: u64, n: u64, kind: TrapKind) -> Option<EmuExit> {
    let done = (n - entry) as usize;
    emu.count_prefix(t, done);
    let core = emu.core_mut();
    for &(_, category) in &t.meta[..done] {
        core.stats.kinds[category] += 1;
    }
    core.stats.retired += n - entry;
    core.count = n;
    core.pc = t.meta[done].0;
    Some(core.trap(kind))
}

