//! Functional emulator for the STRAIGHT ISA.
//!
//! Architectural state is the PC, the SP, and the ring of the last
//! `MAX_DISTANCE` results (the paper's key-value register file seen
//! architecturally). Distance `d` reads the result of the `d`-th
//! previously executed instruction.
//!
//! The emulator doubles as the hazard-semantics reference: reading a
//! distance that points before the start of execution is a typed
//! [`TrapKind::DistanceOutOfRange`] trap in every build profile (the
//! referenced producer never existed, so the read would otherwise
//! return ring garbage), and the opt-in sanitizer additionally checks
//! each operand distance against the bound the binary was compiled
//! for and the stack pointer against the stack region.
//!
//! Two execution tiers implement the same semantics (see
//! `docs/EXECUTION_TIERS.md`). The interpreter fetches and decodes
//! every instruction and is the reference. The fast tier pre-translates
//! traces into lowered [`FastOp`] micro-ops — branch targets resolved
//! to absolute PCs, `LUI` folded to a constant, immediates pre-extended,
//! load/store widths specialized, consecutive `RMOV`s fused into one
//! chain macro-op, and unconditional `J`/`JAL` fused *through* (their
//! ring results are the constants 0 and the link PC, so a trace
//! continues into the jump target) — and executes them with unchecked
//! ring reads (legal once `executed` exceeds the trace's maximum
//! operand distance; younger traces fall back to the interpreter) and
//! per-trace batched statistics — the Figure 15 categories and, when
//! profiling, the Figure 16 distance histogram. Traces that read past
//! the sanitizer's distance bound single-step, so the interpreter
//! raises the exact trap. Code is immutable (fetch reads the image,
//! not memory), so translated traces never need invalidation.

use std::sync::Arc;

use straight_asm::{Image, STACK_TOP};
use straight_isa::{decode, AluImmOp, AluOp, Dist, Inst, InstKind, MemWidth, TrapKind, MAX_DISTANCE};

use super::checkpoint::{check_ring, ArchSnap, CheckpointError};
use super::{memops, EmuCore, EmuExit, EmuIsa, EmuStats, BLOCK_CAP};
use crate::KindCounts;

const RING: usize = (MAX_DISTANCE as usize + 1).next_power_of_two();
const RING_MASK: u64 = RING as u64 - 1;

/// A lowered micro-op of the fast tier — one dispatch per op, with
/// everything the translator can pre-resolve folded in: distances are
/// raw `u16`s (zero = "reads the constant 0"), branch targets are
/// absolute PCs, `AluImm` immediates are pre-extended (STRAIGHT's
/// logical group zero-extends) to the 32-bit value the base op takes,
/// and load/store widths are specialized into separate variants. The
/// common ALU ops get dedicated variants so the hot loop is a single
/// match dispatch, skipping the inner [`AluOp::eval`] match.
#[derive(Debug, Clone)]
enum FastOp {
    /// `NOP`, and fused unconditional `J` (ring result 0).
    Nop,
    /// `LUI` with the shift pre-applied, and fused `JAL` (ring result
    /// is the link PC, a translation-time constant).
    Const { value: u32 },
    Add { s1: u16, s2: u16 },
    Sub { s1: u16, s2: u16 },
    Sll { s1: u16, s2: u16 },
    Slt { s1: u16, s2: u16 },
    Sltu { s1: u16, s2: u16 },
    Xor { s1: u16, s2: u16 },
    Srl { s1: u16, s2: u16 },
    Sra { s1: u16, s2: u16 },
    Or { s1: u16, s2: u16 },
    And { s1: u16, s2: u16 },
    Mul { s1: u16, s2: u16 },
    /// Reg-reg ops without a dedicated variant (M-extension
    /// high/div/rem): second dispatch through [`AluOp::eval`].
    Alu { op: AluOp, s1: u16, s2: u16 },
    Addi { s1: u16, imm: u32 },
    Slli { s1: u16, imm: u32 },
    Slti { s1: u16, imm: u32 },
    Sltiu { s1: u16, imm: u32 },
    Xori { s1: u16, imm: u32 },
    Srli { s1: u16, imm: u32 },
    Srai { s1: u16, imm: u32 },
    Ori { s1: u16, imm: u32 },
    Andi { s1: u16, imm: u32 },
    /// Unreachable in practice ([`AluImmOp::base`] is covered by the
    /// dedicated variants above); kept as a safety net.
    AluImm { op: AluOp, s1: u16, imm: u32 },
    LdB { addr: u16, offset: u32 },
    LdBu { addr: u16, offset: u32 },
    LdH { addr: u16, offset: u32 },
    LdHu { addr: u16, offset: u32 },
    LdW { addr: u16, offset: u32 },
    /// `width` is the encoded width (`B` or `Bu`), kept for
    /// byte-identical trap values.
    StB { val: u16, addr: u16, width: MemWidth },
    StH { val: u16, addr: u16, width: MemWidth },
    StW { val: u16, addr: u16 },
    /// `len` consecutive `RMOV`s; their distances live in the block's
    /// `chain_dists[first..first + len]`.
    RmovChain { first: u32, len: u32 },
    SpAdd { imm: i16 },
    Bez { s: u16, target: u32 },
    Bnz { s: u16, target: u32 },
    Jr { s: u16 },
    Jalr { s: u16, link: u32 },
    Sys { code: u16, s: u16 },
    Halt,
}

/// A translated trace: instructions ending at the first *conditional*
/// or *indirect* control transfer, `HALT`, `SYS`, undecodable word,
/// code-end, or [`BLOCK_CAP`]. Unconditional `J`/`JAL` do not end a
/// trace — their targets are static, so translation continues there.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// PC after the last instruction when no terminator redirects
    /// (follows fused jumps, so not simply `start_pc + 4 * len`).
    end_pc: u32,
    ops: Vec<FastOp>,
    /// Fused RMOV-chain distances, indexed by `RmovChain::first`.
    chain_dists: Vec<u16>,
    /// Per architectural instruction: its PC and Figure 15 category.
    /// Cold paths only (mid-trace traps need the interpreter's exact
    /// PC and per-instruction statistics).
    meta: Vec<(u32, InstKind)>,
    /// Precomputed Figure 15 category counts for a full execution.
    kinds: KindCounts,
    /// Precomputed Figure 16 source-distance counts for a full
    /// execution, nonzero distances only, ascending.
    dist_counts: Vec<(u16, u64)>,
    /// Architectural instructions in the trace (chains expanded).
    len_insts: u32,
    /// Largest source distance any instruction uses; executing the
    /// trace with unchecked ring reads is legal once at least this
    /// many instructions have retired.
    max_dist: u16,
    /// Ends in `HALT`.
    ends_halt: bool,
}

/// STRAIGHT functional emulator.
#[derive(Debug, Clone)]
pub struct StraightEmu {
    core: EmuCore<Block>,
    /// Results of the most recent instructions, indexed by retired
    /// count masked by `RING - 1` (fixed size so indexing needs no
    /// bounds check in the fast tier).
    ring: Box<[u32; RING]>,
    /// The image's [`distance_reach`]: a checkpoint keeps this many of
    /// the newest results.
    reach: u16,
    sp: u32,
    /// Lowest address the sanitizer accepts for SP (end of the data
    /// segment — everything above it up to [`STACK_TOP`] is stack).
    stack_floor: u32,
    /// Collect the per-operand distance histogram (Figure 16). The
    /// fast tier adds precomputed per-trace counts in one batch.
    pub profile_distances: bool,
    /// Sanitizer: trap with [`TrapKind::DistanceAboveBound`] on any
    /// operand distance above this bound (the distance limit the
    /// binary was compiled for). `None` disables the check. The fast
    /// tier single-steps any trace that reads past the bound.
    pub distance_bound: Option<u16>,
    /// Sanitizer: trap with [`TrapKind::SpMisuse`] when `SPADD` moves
    /// the stack pointer out of the stack region.
    pub check_sp: bool,
}

/// Unchecked ring read: distance zero reads 0, anything else reads the
/// masked slot. Only legal when `d <= count` is already established.
#[inline]
fn src(ring: &[u32; RING], count: u64, d: u16) -> u32 {
    if d == 0 {
        0
    } else {
        ring[((count - u64::from(d)) & RING_MASK) as usize]
    }
}

/// A Figure 16 histogram about to take a count, sized on its first
/// one: it stays empty until then, so an emulator that never profiles
/// (and each of its checkpoints) carries none.
#[inline]
fn distance_hist(hist: &mut Vec<u64>) -> &mut [u64] {
    if hist.is_empty() {
        hist.resize(MAX_DISTANCE as usize + 1, 0);
    }
    hist
}

/// The image's reach: the largest source distance any word of its
/// code segment reads (0 when none reads one). No execution of the
/// image, on the right path or a wrong one, reads a result further
/// back, so that many newest results are the whole live register
/// state.
pub(crate) fn distance_reach(image: &Image) -> u16 {
    let insts = image.code.iter().filter_map(|&word| decode(word).ok());
    insts.flat_map(|inst| inst.sources()).flatten().map(Dist::get).max().unwrap_or(0)
}

impl StraightEmu {
    /// Prepares an emulator for a linked image (shared, not copied,
    /// when passed as an `Arc`).
    #[must_use]
    pub fn new(image: impl Into<Arc<Image>>) -> StraightEmu {
        let image = image.into();
        let stack_floor = image.data_base.saturating_add(image.data.len() as u32);
        let reach = distance_reach(&image);
        StraightEmu {
            core: EmuCore::new(image, EmuStats::default()),
            ring: Box::new([0; RING]),
            reach,
            sp: STACK_TOP,
            stack_floor,
            profile_distances: false,
            distance_bound: None,
            check_sp: false,
        }
    }

    /// Current stack pointer.
    #[must_use]
    pub fn sp(&self) -> u32 {
        self.sp
    }

    /// Result of the most recently executed instruction (the value at
    /// distance 1). Zero before any instruction has executed.
    #[must_use]
    pub fn last_result(&self) -> u32 {
        if self.core.count == 0 {
            0
        } else {
            self.ring[((self.core.count - 1) & RING_MASK) as usize]
        }
    }

    #[inline]
    fn read_dist(&self, d: Dist) -> Result<u32, TrapKind> {
        if d.is_zero() {
            return Ok(0);
        }
        let back = u64::from(d.get());
        // A distance reaching past the start of execution references a
        // producer that never existed; the ring slot holds garbage (or
        // a stale wrap-around value), so this must trap in every build
        // profile rather than silently mis-read.
        if back > self.core.count {
            return Err(TrapKind::DistanceOutOfRange { dist: d.get(), executed: self.core.count });
        }
        if let Some(bound) = self.distance_bound {
            if d.get() > bound {
                return Err(TrapKind::DistanceAboveBound { dist: d.get(), bound });
            }
        }
        Ok(self.ring[((self.core.count - back) & RING_MASK) as usize])
    }

    fn profile(&mut self, inst: &Inst) {
        for s in inst.sources().into_iter().flatten() {
            if !s.is_zero() {
                distance_hist(&mut self.core.stats.dist_hist)[s.get() as usize] += 1;
            }
        }
    }

    /// Finalizes a mid-trace trap: syncs count/PC/stats to the
    /// completed prefix and produces the trap exit the interpreter
    /// would have raised at the same instruction. The trapping
    /// instruction is categorized as not retired but, when profiling,
    /// its distances count: the interpreter profiles before executing.
    fn block_trap(&mut self, b: &Block, entry: u64, count: u64, kind: TrapKind) -> Option<EmuExit> {
        let done = count - entry;
        if self.profile_distances {
            for &(pc, _) in &b.meta[..=done as usize] {
                // Translation decoded every word of the trace.
                if let Some(Ok(inst)) = self.core.image.fetch(pc).map(decode) {
                    self.profile(&inst);
                }
            }
        }
        self.core.trace_trap(&b.meta, entry, done, kind)
    }
}

impl EmuIsa for StraightEmu {
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
        if self.profile_distances {
            self.profile(&inst);
        }
        let mut next_pc = self.core.pc.wrapping_add(4);
        let result: u32 = match inst {
            Inst::Nop | Inst::Halt => 0,
            Inst::Alu { op, s1, s2 } => op.eval(self.read_dist(s1)?, self.read_dist(s2)?),
            Inst::AluImm { op, s1, imm } => op.eval_straight(self.read_dist(s1)?, imm),
            Inst::Lui { imm } => u32::from(imm) << 16,
            Inst::Ld { width, addr, offset } => {
                let a = self.read_dist(addr)?.wrapping_add(offset as i32 as u32);
                memops::load(&self.core.mem, width, a)?
            }
            Inst::St { width, val, addr } => {
                let v = self.read_dist(val)?;
                let a = self.read_dist(addr)?;
                memops::store(&mut self.core.mem, width, a, v)?;
                v
            }
            Inst::Rmov { s } => self.read_dist(s)?,
            Inst::SpAdd { imm } => {
                let sp = self.sp.wrapping_add(imm as i32 as u32);
                if self.check_sp && !(self.stack_floor..=STACK_TOP).contains(&sp) {
                    return Err(TrapKind::SpMisuse { sp });
                }
                self.sp = sp;
                self.sp
            }
            Inst::Bez { s, offset } => {
                if self.read_dist(s)? == 0 {
                    next_pc = self.core.pc.wrapping_add((offset as i32 as u32).wrapping_mul(4));
                }
                0
            }
            Inst::Bnz { s, offset } => {
                if self.read_dist(s)? != 0 {
                    next_pc = self.core.pc.wrapping_add((offset as i32 as u32).wrapping_mul(4));
                }
                0
            }
            Inst::J { offset } => {
                next_pc = self.core.pc.wrapping_add((offset as u32).wrapping_mul(4));
                0
            }
            Inst::Jal { offset } => {
                let link = self.core.pc.wrapping_add(4);
                next_pc = self.core.pc.wrapping_add((offset as u32).wrapping_mul(4));
                link
            }
            Inst::Jr { s } | Inst::Jalr { s } => {
                let target = self.read_dist(s)?;
                next_pc = target;
                if matches!(inst, Inst::Jalr { .. }) {
                    self.core.pc.wrapping_add(4)
                } else {
                    target
                }
            }
            Inst::Sys { code, s } => {
                let arg = self.read_dist(s)?;
                let code = u32::from(code);
                match self.core.sys.apply(code, arg) {
                    Some(r) => r,
                    None => return Err(TrapKind::UnknownSys { code }),
                }
            }
        };
        self.ring[(self.core.count & RING_MASK) as usize] = result;
        Ok(self.core.retire_one(inst.kind(), next_pc, matches!(inst, Inst::Halt)))
    }

    /// Translates the trace starting at `start_pc`. An empty trace
    /// (first word unfetchable/undecodable) makes the caller fall back
    /// to the interpreter, which raises the proper trap.
    fn translate(&self, start_pc: u32) -> Block {
        let mut ops = Vec::new();
        let mut chain_dists: Vec<u16> = Vec::new();
        let mut meta: Vec<(u32, InstKind)> = Vec::new();
        let mut kinds = KindCounts::default();
        let mut dists: Vec<u16> = Vec::new();
        let mut ends_halt = false;
        let mut pc = start_pc;
        while meta.len() < BLOCK_CAP {
            let Some(word) = self.core.image.fetch(pc) else { break };
            let Ok(inst) = decode(word) else { break };
            let kind = inst.kind();
            kinds[kind] += 1;
            meta.push((pc, kind));
            dists.extend(
                inst.sources().into_iter().flatten().filter(|s| !s.is_zero()).map(Dist::get),
            );
            let mut next = pc.wrapping_add(4);
            let terminator = matches!(
                inst,
                Inst::Bez { .. }
                    | Inst::Bnz { .. }
                    | Inst::Jr { .. }
                    | Inst::Jalr { .. }
                    | Inst::Sys { .. }
                    | Inst::Halt
            );
            match inst {
                Inst::Nop => ops.push(FastOp::Nop),
                Inst::Alu { op, s1, s2 } => {
                    let (s1, s2) = (s1.get(), s2.get());
                    ops.push(match op {
                        AluOp::Add => FastOp::Add { s1, s2 },
                        AluOp::Sub => FastOp::Sub { s1, s2 },
                        AluOp::Sll => FastOp::Sll { s1, s2 },
                        AluOp::Slt => FastOp::Slt { s1, s2 },
                        AluOp::Sltu => FastOp::Sltu { s1, s2 },
                        AluOp::Xor => FastOp::Xor { s1, s2 },
                        AluOp::Srl => FastOp::Srl { s1, s2 },
                        AluOp::Sra => FastOp::Sra { s1, s2 },
                        AluOp::Or => FastOp::Or { s1, s2 },
                        AluOp::And => FastOp::And { s1, s2 },
                        AluOp::Mul => FastOp::Mul { s1, s2 },
                        op => FastOp::Alu { op, s1, s2 },
                    });
                }
                Inst::AluImm { op, s1, imm } => {
                    // Pre-extend the immediate exactly as
                    // `AluImmOp::eval_straight` would.
                    let imm32 = match op {
                        AluImmOp::Andi | AluImmOp::Ori | AluImmOp::Xori => u32::from(imm as u16),
                        _ => imm as i32 as u32,
                    };
                    let (s1, imm) = (s1.get(), imm32);
                    ops.push(match op.base() {
                        AluOp::Add => FastOp::Addi { s1, imm },
                        AluOp::Sll => FastOp::Slli { s1, imm },
                        AluOp::Slt => FastOp::Slti { s1, imm },
                        AluOp::Sltu => FastOp::Sltiu { s1, imm },
                        AluOp::Xor => FastOp::Xori { s1, imm },
                        AluOp::Srl => FastOp::Srli { s1, imm },
                        AluOp::Sra => FastOp::Srai { s1, imm },
                        AluOp::Or => FastOp::Ori { s1, imm },
                        AluOp::And => FastOp::Andi { s1, imm },
                        base => FastOp::AluImm { op: base, s1, imm },
                    });
                }
                Inst::Lui { imm } => ops.push(FastOp::Const { value: u32::from(imm) << 16 }),
                Inst::Ld { width, addr, offset } => {
                    let (addr, offset) = (addr.get(), offset as i32 as u32);
                    ops.push(match width {
                        MemWidth::B => FastOp::LdB { addr, offset },
                        MemWidth::Bu => FastOp::LdBu { addr, offset },
                        MemWidth::H => FastOp::LdH { addr, offset },
                        MemWidth::Hu => FastOp::LdHu { addr, offset },
                        MemWidth::W => FastOp::LdW { addr, offset },
                    });
                }
                Inst::St { width, val, addr } => {
                    let (val, addr) = (val.get(), addr.get());
                    ops.push(match width {
                        MemWidth::B | MemWidth::Bu => FastOp::StB { val, addr, width },
                        MemWidth::H | MemWidth::Hu => FastOp::StH { val, addr, width },
                        MemWidth::W => FastOp::StW { val, addr },
                    });
                }
                Inst::Rmov { s } => {
                    // Fuse runs of RMOVs (the compiler's distance-fixing
                    // pads) into one macro-op.
                    if let Some(FastOp::RmovChain { len: l, .. }) = ops.last_mut() {
                        *l += 1;
                    } else {
                        ops.push(FastOp::RmovChain { first: chain_dists.len() as u32, len: 1 });
                    }
                    chain_dists.push(s.get());
                }
                Inst::SpAdd { imm } => ops.push(FastOp::SpAdd { imm }),
                Inst::Bez { s, offset } => ops.push(FastOp::Bez {
                    s: s.get(),
                    target: pc.wrapping_add((offset as i32 as u32).wrapping_mul(4)),
                }),
                Inst::Bnz { s, offset } => ops.push(FastOp::Bnz {
                    s: s.get(),
                    target: pc.wrapping_add((offset as i32 as u32).wrapping_mul(4)),
                }),
                Inst::J { offset } => {
                    // Unconditional with a static target: the ring
                    // result is 0, so fuse and keep translating there.
                    ops.push(FastOp::Nop);
                    next = pc.wrapping_add((offset as u32).wrapping_mul(4));
                }
                Inst::Jal { offset } => {
                    // Ring result is the link PC, a constant here.
                    ops.push(FastOp::Const { value: pc.wrapping_add(4) });
                    next = pc.wrapping_add((offset as u32).wrapping_mul(4));
                }
                Inst::Jr { s } => ops.push(FastOp::Jr { s: s.get() }),
                Inst::Jalr { s } => {
                    ops.push(FastOp::Jalr { s: s.get(), link: pc.wrapping_add(4) });
                }
                Inst::Sys { code, s } => ops.push(FastOp::Sys { code, s: s.get() }),
                Inst::Halt => {
                    ends_halt = true;
                    ops.push(FastOp::Halt);
                }
            }
            pc = next;
            if terminator {
                break;
            }
        }
        dists.sort_unstable();
        let mut dist_counts: Vec<(u16, u64)> = Vec::new();
        for d in dists {
            match dist_counts.last_mut() {
                Some((last, n)) if *last == d => *n += 1,
                _ => dist_counts.push((d, 1)),
            }
        }
        Block {
            end_pc: pc,
            ops,
            chain_dists,
            len_insts: meta.len() as u32,
            meta,
            kinds,
            max_dist: dist_counts.last().map_or(0, |&(d, _)| d),
            dist_counts,
            ends_halt,
        }
    }

    /// Executes one translated trace. Requires `count >= max_dist`
    /// (unchecked ring reads) and enough step budget for the whole
    /// trace — both enforced by the driver via `unchecked_len`.
    #[inline]
    fn exec_block(&mut self, b: &Block) -> Option<EmuExit> {
        let entry = self.core.count;
        let mut count = entry;
        let mut next_pc = b.end_pc;
        for op in &b.ops {
            // Every op but an RMOV chain writes exactly one ring result.
            let v = match *op {
                FastOp::Nop | FastOp::Halt => 0,
                FastOp::Const { value } => value,
                FastOp::Add { s1, s2 } => {
                    src(&self.ring, count, s1).wrapping_add(src(&self.ring, count, s2))
                }
                FastOp::Sub { s1, s2 } => {
                    src(&self.ring, count, s1).wrapping_sub(src(&self.ring, count, s2))
                }
                FastOp::Sll { s1, s2 } => {
                    src(&self.ring, count, s1).wrapping_shl(src(&self.ring, count, s2) & 31)
                }
                FastOp::Slt { s1, s2 } => {
                    u32::from((src(&self.ring, count, s1) as i32) < (src(&self.ring, count, s2) as i32))
                }
                FastOp::Sltu { s1, s2 } => {
                    u32::from(src(&self.ring, count, s1) < src(&self.ring, count, s2))
                }
                FastOp::Xor { s1, s2 } => src(&self.ring, count, s1) ^ src(&self.ring, count, s2),
                FastOp::Srl { s1, s2 } => {
                    src(&self.ring, count, s1).wrapping_shr(src(&self.ring, count, s2) & 31)
                }
                FastOp::Sra { s1, s2 } => {
                    ((src(&self.ring, count, s1) as i32).wrapping_shr(src(&self.ring, count, s2) & 31)) as u32
                }
                FastOp::Or { s1, s2 } => src(&self.ring, count, s1) | src(&self.ring, count, s2),
                FastOp::And { s1, s2 } => src(&self.ring, count, s1) & src(&self.ring, count, s2),
                FastOp::Mul { s1, s2 } => {
                    src(&self.ring, count, s1).wrapping_mul(src(&self.ring, count, s2))
                }
                FastOp::Alu { op, s1, s2 } => {
                    op.eval(src(&self.ring, count, s1), src(&self.ring, count, s2))
                }
                FastOp::Addi { s1, imm } => src(&self.ring, count, s1).wrapping_add(imm),
                FastOp::Slli { s1, imm } => src(&self.ring, count, s1).wrapping_shl(imm & 31),
                FastOp::Slti { s1, imm } => u32::from((src(&self.ring, count, s1) as i32) < (imm as i32)),
                FastOp::Sltiu { s1, imm } => u32::from(src(&self.ring, count, s1) < imm),
                FastOp::Xori { s1, imm } => src(&self.ring, count, s1) ^ imm,
                FastOp::Srli { s1, imm } => src(&self.ring, count, s1).wrapping_shr(imm & 31),
                FastOp::Srai { s1, imm } => ((src(&self.ring, count, s1) as i32).wrapping_shr(imm & 31)) as u32,
                FastOp::Ori { s1, imm } => src(&self.ring, count, s1) | imm,
                FastOp::Andi { s1, imm } => src(&self.ring, count, s1) & imm,
                FastOp::AluImm { op, s1, imm } => op.eval(src(&self.ring, count, s1), imm),
                FastOp::LdB { addr, offset } => {
                    let a = src(&self.ring, count, addr).wrapping_add(offset);
                    match memops::load_b(&self.core.mem, a) {
                        Ok(v) => v,
                        Err(kind) => return self.block_trap(b, entry, count, kind),
                    }
                }
                FastOp::LdBu { addr, offset } => {
                    let a = src(&self.ring, count, addr).wrapping_add(offset);
                    match memops::load_bu(&self.core.mem, a) {
                        Ok(v) => v,
                        Err(kind) => return self.block_trap(b, entry, count, kind),
                    }
                }
                FastOp::LdH { addr, offset } => {
                    let a = src(&self.ring, count, addr).wrapping_add(offset);
                    match memops::load_h(&self.core.mem, a) {
                        Ok(v) => v,
                        Err(kind) => return self.block_trap(b, entry, count, kind),
                    }
                }
                FastOp::LdHu { addr, offset } => {
                    let a = src(&self.ring, count, addr).wrapping_add(offset);
                    match memops::load_hu(&self.core.mem, a) {
                        Ok(v) => v,
                        Err(kind) => return self.block_trap(b, entry, count, kind),
                    }
                }
                FastOp::LdW { addr, offset } => {
                    let a = src(&self.ring, count, addr).wrapping_add(offset);
                    match memops::load_w(&self.core.mem, a) {
                        Ok(v) => v,
                        Err(kind) => return self.block_trap(b, entry, count, kind),
                    }
                }
                FastOp::StB { val, addr, width } => {
                    let v = src(&self.ring, count, val);
                    let a = src(&self.ring, count, addr);
                    if let Err(kind) = memops::store_b(&mut self.core.mem, a, v, width) {
                        return self.block_trap(b, entry, count, kind);
                    }
                    v
                }
                FastOp::StH { val, addr, width } => {
                    let v = src(&self.ring, count, val);
                    let a = src(&self.ring, count, addr);
                    if let Err(kind) = memops::store_h(&mut self.core.mem, a, v, width) {
                        return self.block_trap(b, entry, count, kind);
                    }
                    v
                }
                FastOp::StW { val, addr } => {
                    let v = src(&self.ring, count, val);
                    let a = src(&self.ring, count, addr);
                    if let Err(kind) = memops::store_w(&mut self.core.mem, a, v) {
                        return self.block_trap(b, entry, count, kind);
                    }
                    v
                }
                FastOp::RmovChain { first, len } => {
                    for &d in &b.chain_dists[first as usize..(first + len) as usize] {
                        let v = src(&self.ring, count, d);
                        self.ring[(count & RING_MASK) as usize] = v;
                        count += 1;
                    }
                    continue;
                }
                FastOp::SpAdd { imm } => {
                    let sp = self.sp.wrapping_add(imm as i32 as u32);
                    if self.check_sp && !(self.stack_floor..=STACK_TOP).contains(&sp) {
                        return self.block_trap(b, entry, count, TrapKind::SpMisuse { sp });
                    }
                    self.sp = sp;
                    sp
                }
                FastOp::Bez { s, target } => {
                    if src(&self.ring, count, s) == 0 {
                        next_pc = target;
                    }
                    0
                }
                FastOp::Bnz { s, target } => {
                    if src(&self.ring, count, s) != 0 {
                        next_pc = target;
                    }
                    0
                }
                FastOp::Jr { s } => {
                    next_pc = src(&self.ring, count, s);
                    next_pc
                }
                FastOp::Jalr { s, link } => {
                    next_pc = src(&self.ring, count, s);
                    link
                }
                FastOp::Sys { code, s } => {
                    let arg = src(&self.ring, count, s);
                    let code = u32::from(code);
                    match self.core.sys.apply(code, arg) {
                        Some(r) => r,
                        None => {
                            return self.block_trap(b, entry, count, TrapKind::UnknownSys { code })
                        }
                    }
                }
            };
            self.ring[(count & RING_MASK) as usize] = v;
            count += 1;
        }
        if self.profile_distances && !b.dist_counts.is_empty() {
            let hist = distance_hist(&mut self.core.stats.dist_hist);
            for &(d, n) in &b.dist_counts {
                hist[d as usize] += n;
            }
        }
        self.core.retire_trace(count - entry, next_pc, &b.kinds, b.ends_halt)
    }

    /// Unchecked ring reads are legal once at least the trace's
    /// deepest read has retired (before that, warm-up single-steps).
    /// A trace reading past the sanitizer's distance bound single-steps
    /// so the interpreter raises the exact trap.
    #[inline]
    fn unchecked_len(&self, b: &Block) -> Option<u64> {
        let unchecked = b.len_insts > 0
            && self.core.count >= u64::from(b.max_dist)
            && self.distance_bound.is_none_or(|bound| b.max_dist <= bound);
        unchecked.then_some(u64::from(b.len_insts))
    }

    /// The stack pointer and the last `min(reach, executed)` results.
    fn arch_snap(&self) -> ArchSnap {
        let n = self.core.count;
        let oldest = n - u64::from(self.reach).min(n);
        let ring = (oldest..n).map(|i| self.ring[(i & RING_MASK) as usize]).collect();
        ArchSnap::Straight { sp: self.sp, ring }
    }

    fn restore_arch(&mut self, arch: &ArchSnap, executed: u64) -> Result<(), CheckpointError> {
        let ArchSnap::Straight { sp, ring } = arch else {
            return Err(CheckpointError::IsaMismatch);
        };
        check_ring(ring, self.reach, executed)?;
        self.sp = *sp;
        // A checkpoint carries at most `executed` results.
        let oldest = executed - ring.len() as u64;
        for (i, &v) in (oldest..).zip(ring) {
            self.ring[(i & RING_MASK) as usize] = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{EmuResult, ExecBackend, TierConfig};
    use straight_asm::{link_straight, parse_straight_asm};

    fn image_for(src: &str) -> Image {
        let prog = parse_straight_asm(src).expect("assembles");
        link_straight(&prog).expect("links")
    }

    fn run_asm(src: &str) -> EmuResult {
        StraightEmu::new(image_for(src)).run(1_000_000)
    }

    #[test]
    fn returns_value_through_stub() {
        // main returns 42 via the convention: retval immediately
        // before JR, return address is the JAL at distance 3 from JR.
        let r = run_asm(
            ".text
             func main:
                ADDi [0] 41
                ADDi [1] 1
                RMOV [1]
                JR [4]",
        );
        assert_eq!(r.exit_code(), Some(42));
    }

    #[test]
    fn fibonacci_loop_from_figure1() {
        // A counted loop in the style of Figure 1/9: the NOP
        // equalizes the fall-through entry distance with the
        // back-edge distance (the paper's padding rule).
        let r = run_asm(
            ".text
             func main:
                ADDi [0] 10      ; counter
                NOP              ; entry-path padding
             loop:
                ADDi [2] -1      ; counter - 1 (same distance on both paths)
                BNZ [1] loop
                SYS 1 [2]        ; print the final counter
                HALT",
        );
        assert_eq!(r.exit_code(), Some(0));
        assert_eq!(r.stdout, "0\n");
        assert!(r.stats.retired > 20, "{}", r.stats.retired);
        assert!(r.stats.kinds[InstKind::Nop] > 0);
    }

    #[test]
    fn spadd_updates_sp_and_returns_it() {
        let r = run_asm(
            ".text
             func main:
                SPADD -16
                ADDi [0] 7
                ST [1] [2]       ; store 7 at frame base
                LD [3] 0         ; load it back
                RMOV [1]
                JR [6]",
        );
        assert_eq!(r.exit_code(), Some(7));
    }

    #[test]
    fn distance_profile_collected() {
        let image = image_for(
            ".text
             func main:
                ADDi [0] 1
                ADD [1] [1]
                RMOV [2]
                JR [4]",
        );
        let mut emu = StraightEmu::new(image.clone());
        assert!(emu.stats().dist_hist.is_empty(), "a new emulator holds no histogram");
        let unprofiled = StraightEmu::new(image).run(1000);
        assert!(unprofiled.stats.dist_hist.is_empty(), "only profiling sizes it");
        assert_eq!(unprofiled.stats.cumulative_fraction(8), 0.0);
        emu.profile_distances = true;
        let r = emu.run(1000);
        assert_eq!(r.stats.dist_hist.len(), MAX_DISTANCE as usize + 1);
        assert!(r.stats.dist_hist[1] >= 2);
        assert!(r.stats.cumulative_fraction(8) > 0.9);
    }

    #[test]
    fn step_limit_reported() {
        let r = run_asm(
            ".text
             func main:
             spin:
                J spin",
        );
        assert_eq!(r.exit, EmuExit::StepLimit);
    }

    #[test]
    fn distance_past_start_of_execution_traps() {
        // The second instruction reads distance 5, but only one
        // instruction has executed: the producer never existed.
        let r = run_asm(
            ".text
             func main:
                ADDi [0] 1
                ADD [1] [5]
                HALT",
        );
        // The _start stub's JAL and the ADDi have executed: count 2.
        match r.exit {
            EmuExit::Trap(t) => {
                assert_eq!(t.kind, TrapKind::DistanceOutOfRange { dist: 5, executed: 2 });
                assert_eq!(t.index, 2);
            }
            other => panic!("expected a distance trap, got {other:?}"),
        }
    }

    #[test]
    fn sanitizer_flags_distance_above_compiled_bound() {
        let image = image_for(
            ".text
             func main:
                ADDi [0] 1
                NOP
                NOP
                NOP
                ADD [4] [1]
                HALT",
        );
        // Without the sanitizer the program completes...
        let ok = StraightEmu::new(image.clone()).run(1000);
        assert_eq!(ok.exit_code(), Some(0));
        // ...with a bound of 3 the distance-4 read is flagged.
        let mut emu = StraightEmu::new(image);
        emu.distance_bound = Some(3);
        let r = emu.run(1000);
        assert_eq!(
            r.trap().map(|t| t.kind),
            Some(TrapKind::DistanceAboveBound { dist: 4, bound: 3 })
        );
    }

    #[test]
    fn sanitizer_flags_sp_escape() {
        let image = image_for(
            ".text
             func main:
                SPADD 16
                HALT",
        );
        let mut emu = StraightEmu::new(image);
        emu.check_sp = true;
        let r = emu.run(1000);
        assert!(
            matches!(r.trap().map(|t| t.kind), Some(TrapKind::SpMisuse { .. })),
            "{:?}",
            r.exit
        );
    }

    #[test]
    fn misaligned_load_traps() {
        let r = run_asm(
            ".text
             func main:
                ADDi [0] 2
                LD [1] 1        ; word load at address 3
                HALT",
        );
        assert_eq!(
            r.trap().map(|t| t.kind),
            Some(TrapKind::MisalignedLoad { addr: 3, width: MemWidth::W })
        );
    }

    #[test]
    fn fast_tier_matches_interpreter_exactly() {
        let src = ".text
             func main:
                ADDi [0] 10      ; counter
                NOP
             loop:
                ADDi [2] -1
                BNZ [1] loop
                SYS 1 [2]
                HALT";
        let mut interp = StraightEmu::new(image_for(src));
        let mut fast = StraightEmu::new(image_for(src));
        assert_eq!(
            interp.run_with(1_000_000, TierConfig::interp()),
            fast.run_with(1_000_000, TierConfig::fast())
        );
        assert_eq!(interp.stdout(), fast.stdout());
        assert_eq!(interp.stats(), fast.stats());
        assert_eq!(interp.checkpoint(), fast.checkpoint());
    }

    #[test]
    fn fast_tier_traps_like_the_interpreter() {
        let src = ".text
             func main:
                ADDi [0] 2
                LD [1] 1
                HALT";
        let interp = StraightEmu::new(image_for(src)).run(1_000_000);
        let fast = StraightEmu::new(image_for(src)).run_tiered(1_000_000, TierConfig::fast());
        assert_eq!(interp.exit, fast.exit);
        assert_eq!(interp.stats, fast.stats);
    }

    /// Runs `src` with distance profiling (and an optional sanitizer
    /// bound) on the interpreter and on the fast tier, asserting
    /// identical exits (trap kind, PC and index) and statistics
    /// (histogram included); returns the interpreter's result.
    fn profiled_tiers_agree(src: &str, bound: Option<u16>) -> EmuResult {
        let run = |tier| {
            let mut emu = StraightEmu::new(image_for(src));
            emu.profile_distances = true;
            emu.distance_bound = bound;
            emu.run_tiered(1_000_000, tier)
        };
        let interp = run(TierConfig::interp());
        let fast = run(TierConfig::fast());
        assert_eq!(fast.exit, interp.exit);
        assert_eq!(fast.stats, interp.stats);
        interp
    }

    #[test]
    fn fast_tier_profiles_a_mid_trace_trap_like_the_interpreter() {
        // The trace entered at `ADD [1] [1]` traps at its wild load;
        // the interpreter profiles the faulting load before it traps.
        let r = profiled_tiers_agree(
            ".text
             func main:
                ADDi [0] 1
                ADD [1] [1]
                ADD [1] [2]
                LUI 64           ; 0x40_0000, one past memory
                LD [1] 0
                ADD [1] [3]
                HALT",
            None,
        );
        let trap = r.trap().expect("the load traps");
        assert!(matches!(trap.kind, TrapKind::WildLoad { addr: 0x40_0000, .. }), "{trap:?}");
        assert_eq!(r.stats.dist_hist[1], 4, "the faulting load's operand counts");
        assert_eq!(r.stats.dist_hist[3], 0, "instructions past the trap do not");
    }

    #[test]
    fn fast_tier_raises_the_distance_bound_trap_like_the_interpreter() {
        let r = profiled_tiers_agree(
            ".text
             func main:
                ADDi [0] 1
                NOP
                NOP
                NOP
                ADD [4] [1]
                HALT",
            Some(3),
        );
        let trap = r.trap().expect("the bound is exceeded");
        assert_eq!(trap.kind, TrapKind::DistanceAboveBound { dist: 4, bound: 3 });
    }

    #[test]
    fn fast_tier_profiles_loops_like_the_interpreter() {
        let r = profiled_tiers_agree(
            ".text
             func main:
                ADDi [0] 100
                NOP
             loop:
                ADDi [2] -1
                BNZ [1] loop
                SYS 1 [2]
                HALT",
            Some(31),
        );
        assert_eq!(r.exit_code(), Some(0));
        assert!(r.stats.dist_hist[2] >= 100, "{:?}", &r.stats.dist_hist[..4]);
    }

    /// Instructions between the producer of [`far_operand_src`]'s
    /// printed value and the `SYS` that prints it.
    const FAR: usize = 400;

    /// A program that prints 1234, computed [`FAR`] instructions
    /// before, and returns 34 computed from it; its `JR` reads the
    /// `_start` stub's link `FAR + 3` back, the program's reach.
    fn far_operand_src() -> String {
        let nops = "NOP\n".repeat(FAR - 1);
        format!(
            ".text
             func main:
                ADDi [0] 1234
                {nops}
                SYS 1 [{FAR}]
                ADDi [{}] -1200
                JR [{}]",
            FAR + 1,
            FAR + 3
        )
    }

    /// The 4-way STRAIGHT core with a register file that holds
    /// distance 1023.
    fn far_reaching_core() -> crate::pipeline::MachineConfig {
        let mut cfg = crate::pipeline::MachineConfig::straight_4way();
        cfg.max_distance = u32::from(MAX_DISTANCE);
        cfg.phys_regs = cfg.max_distance + cfg.rob_capacity;
        cfg
    }

    #[test]
    fn far_operand_is_read_across_a_checkpoint_on_every_executor() {
        use crate::pipeline::Core;

        let image = Arc::new(image_for(&far_operand_src()));
        let full = StraightEmu::new(Arc::clone(&image)).run(1_000_000);
        assert_eq!((full.exit_code(), full.stdout.as_str()), (Some(34), "1234\n"));
        let mut emu = StraightEmu::new(Arc::clone(&image));
        assert_eq!(emu.run_with(FAR as u64 / 2, TierConfig::interp()), EmuExit::StepLimit);
        let cp = emu.checkpoint();
        assert!(matches!(&cp.arch, ArchSnap::Straight { ring, .. } if ring.len() == FAR / 2));

        // Restored into a fresh emulator and into one that ran past the
        // point, on both tiers.
        emu.run_with(u64::MAX, TierConfig::interp());
        for (mut resumed, tier) in [
            (StraightEmu::new(Arc::clone(&image)), TierConfig::interp()),
            (StraightEmu::new(Arc::clone(&image)), TierConfig::fast()),
            (emu.clone(), TierConfig::interp()),
            (emu, TierConfig::fast()),
        ] {
            resumed.restore(&cp).expect("same image");
            assert_eq!(resumed.run_with(u64::MAX, tier), full.exit, "{tier:?}");
            assert_eq!(resumed.stdout(), full.stdout, "{tier:?}");
            assert_eq!(resumed.stats().retired, full.stats.retired, "{tier:?}");
        }

        let run = Core::resume_from(image, far_reaching_core(), &cp).expect("resumes").run(1_000_000);
        assert_eq!((run.exit_code, run.stdout.as_str()), (full.exit_code(), full.stdout.as_str()));
        assert_eq!(cp.executed() + run.stats.retired, full.stats.retired);
    }

    #[test]
    fn a_ring_shorter_than_the_image_reach_is_refused() {
        use crate::pipeline::{Core, CoreError};

        // A checkpoint of a reach-2 loop after 50 instructions carries
        // 2 results; the far-operand image reads 50 back from there.
        let mut short = StraightEmu::new(image_for(
            ".text
             func main:
                ADDi [0] 100
                NOP
             loop:
                ADDi [2] -1
                BNZ [1] loop
                HALT",
        ));
        assert_eq!(short.run_with(50, TierConfig::interp()), EmuExit::StepLimit);
        let cp = short.checkpoint();
        let refused = CheckpointError::RingTooShort { carried: 2, needed: 50 };

        let far = Arc::new(image_for(&far_operand_src()));
        let mut emu = StraightEmu::new(Arc::clone(&far));
        emu.run_with(10, TierConfig::interp());
        let before = emu.checkpoint();
        assert_eq!(emu.restore(&cp), Err(refused));
        assert_eq!(emu.checkpoint(), before, "a refused restore changes nothing");

        let resumed = Core::resume_from(far, far_reaching_core(), &cp).map(|_| ());
        assert_eq!(resumed, Err(CoreError::Checkpoint(refused)));
    }

    #[test]
    fn a_d31_checkpoint_carries_at_most_31_results() {
        use straight_compiler::{compile_straight, StraightOptions};

        let module = straight_ir::compile_source(&straight_workloads::dhrystone(50)).unwrap();
        let opts = StraightOptions::default().with_max_distance(31);
        let image = link_straight(&compile_straight(&module, &opts).unwrap()).unwrap();
        let reach = distance_reach(&image);
        assert!((2..=31).contains(&reach), "reach {reach}");
        let mut emu = StraightEmu::new(image);
        for point in [0, 1, 20, 1_000, 10_000] {
            assert_eq!(emu.run_with(point, TierConfig::fast()), EmuExit::StepLimit);
            let cp = emu.checkpoint();
            let ArchSnap::Straight { ring, .. } = &cp.arch else { panic!("a STRAIGHT checkpoint") };
            assert_eq!(ring.len() as u64, u64::from(reach).min(point), "at {point}");
            assert_eq!(ring.last().copied().unwrap_or(0), emu.last_result(), "at {point}");
        }
    }

    #[test]
    fn checkpoint_round_trips_mid_run() {
        let src = ".text
             func main:
                ADDi [0] 10
                NOP
             loop:
                ADDi [2] -1
                BNZ [1] loop
                SYS 1 [2]
                HALT";
        let mut emu = StraightEmu::new(image_for(src));
        assert_eq!(emu.run_with(7, TierConfig::interp()), EmuExit::StepLimit);
        let cp = emu.checkpoint();
        let done = emu.run_with(u64::MAX, TierConfig::interp());

        let mut resumed = StraightEmu::new(image_for(src));
        resumed.restore(&cp).expect("same ISA");
        assert_eq!(resumed.checkpoint(), cp);
        let done2 = resumed.run_with(u64::MAX, TierConfig::interp());
        assert_eq!(done, done2);
        assert_eq!(emu.checkpoint(), resumed.checkpoint());
    }
}
