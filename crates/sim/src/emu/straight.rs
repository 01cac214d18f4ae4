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
//! every instruction and is the reference. The fast tier is the shared
//! one of `emu::fast`; this file gives it the ring as operands (a
//! source is a distance, every instruction writes the next slot), the
//! STRAIGHT lowering (`LUI` folded to a constant, the logical
//! immediates zero-extended, `BEZ`/`BNZ` as the shared one-source
//! `Beqz`/`Bnez`, `J`/`JAL` fused through as the constants 0 and the
//! link PC), and the ops only STRAIGHT has ([`StraightOp`]: consecutive
//! `RMOV`s fused into one chain, `SPADD`, `JR`/`JALR` to the target as
//! read, `SYS`). Ring reads in a trace are unchecked: a trace runs once
//! `executed` reaches its deepest operand distance (younger traces
//! single-step on the interpreter), and one that reads past the
//! sanitizer's distance bound single-steps so that the interpreter
//! raises the exact trap. When profiling, a trace adds its precomputed
//! Figure 16 distance counts in one batch.

use std::sync::Arc;

use straight_asm::{Image, STACK_TOP};
use straight_isa::{decode, AluImmOp, Dist, Inst, InstKind, TrapKind, MAX_DISTANCE};

use super::checkpoint::{check_ring, ArchSnap, CheckpointError};
use super::fast::{self, FastIsa, FastOp, Flow, Trace};
use super::{memops, EmuCore, EmuExit, EmuIsa, EmuStats};

const RING: usize = (MAX_DISTANCE as usize + 1).next_power_of_two();
const RING_MASK: u64 = RING as u64 - 1;

/// The fast-tier ops only STRAIGHT has. Distances are raw `u16`s.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StraightOp {
    /// `len` consecutive `RMOV`s; their distances are the trace's
    /// `chain_dists[first..first + len]`.
    RmovChain { first: u16, len: u16 },
    SpAdd { imm: i16 },
    Jr { s: u16 },
    Jalr { s: u16 },
    Sys { code: u16, s: u16 },
}

/// What a STRAIGHT trace keeps beyond the shared ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct RingTrace {
    /// Fused `RMOV` distances, indexed by `RmovChain::first`.
    chain_dists: Vec<u16>,
    /// Figure 16 source-distance counts for a full execution, nonzero
    /// distances only, ascending.
    dist_counts: Vec<(u16, u64)>,
    /// The largest source distance: running the trace with unchecked
    /// ring reads is legal once at least this many instructions have
    /// retired.
    max_dist: u16,
}

/// STRAIGHT functional emulator.
#[derive(Debug, Clone)]
pub struct StraightEmu {
    core: EmuCore<Trace<StraightEmu>>,
    /// Results of the most recent instructions, indexed by retired
    /// count masked by `RING - 1`: fixed size, so indexing needs no
    /// bounds check, and inline, so the fast tier reaches it at a fixed
    /// offset from the emulator instead of through a pointer (about 10%
    /// of STRAIGHT fast-tier throughput).
    ring: [u32; RING],
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
            ring: [0; RING],
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
}

impl EmuIsa for StraightEmu {
    type Block = Trace<StraightEmu>;

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

    /// Cold: it runs once per trace. Marked so, the trace loop keeps
    /// its call out of the hot path (about 4% of an `emulate` pass
    /// in host CPU time).
    #[cold]
    fn translate(&self, pc: u32) -> Self::Block {
        fast::translate(self, pc)
    }

    #[inline]
    fn exec_block(&mut self, t: &Self::Block) -> Option<EmuExit> {
        fast::exec(self, t)
    }

    /// Unchecked ring reads are legal once at least the trace's
    /// deepest read has retired (before that, warm-up single-steps).
    /// A trace reading past the sanitizer's distance bound single-steps
    /// so the interpreter raises the exact trap.
    #[inline]
    fn unchecked_len(&self, t: &Self::Block) -> Option<u64> {
        let max = t.extra.max_dist;
        let unchecked = t.len() > 0
            && self.core.count >= u64::from(max)
            && self.distance_bound.is_none_or(|bound| max <= bound);
        unchecked.then_some(t.len())
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

impl FastIsa for StraightEmu {
    type Inst = Inst;
    type Src = u16;
    type Dst = ();
    type Op = StraightOp;
    type Extra = RingTrace;

    fn decode(word: u32) -> Option<(Inst, InstKind)> {
        decode(word).ok().map(|inst| (inst, inst.kind()))
    }

    fn lower(inst: Inst, pc: u32, t: &mut Trace<Self>) -> Flow {
        let ring = &mut t.extra;
        for d in inst.sources().into_iter().flatten().filter(|s| !s.is_zero()).map(Dist::get) {
            match ring.dist_counts.binary_search_by_key(&d, |&(d, _)| d) {
                Ok(i) => ring.dist_counts[i].1 += 1,
                Err(i) => ring.dist_counts.insert(i, (d, 1)),
            }
            ring.max_dist = ring.max_dist.max(d);
        }
        let at = |offset: i32| pc.wrapping_add((offset as u32).wrapping_mul(4));
        let (op, flow) = match inst {
            Inst::Nop => (FastOp::Nop, Flow::Next),
            Inst::Alu { op, s1, s2 } => (FastOp::alu(op, (), s1.get(), s2.get()), Flow::Next),
            Inst::AluImm { op, s1, imm } => {
                // The logical group zero-extends its immediate
                // (`AluImmOp::eval_straight`).
                let imm = match op {
                    AluImmOp::Andi | AluImmOp::Ori | AluImmOp::Xori => u32::from(imm as u16),
                    _ => imm as i32 as u32,
                };
                (FastOp::alu_imm(op, (), s1.get(), imm), Flow::Next)
            }
            Inst::Lui { imm } => (FastOp::Const { d: (), value: u32::from(imm) << 16 }, Flow::Next),
            Inst::Ld { width, addr, offset } => {
                (FastOp::load(width, (), addr.get(), offset as i32 as u32), Flow::Next)
            }
            Inst::St { width, val, addr } => (FastOp::store(width, val.get(), addr.get(), 0), Flow::Next),
            Inst::Rmov { s } => {
                // Fuse runs of RMOVs (the compiler's distance-fixing
                // pads) into one macro-op.
                if let Some(FastOp::Isa(StraightOp::RmovChain { len, .. })) = t.ops.last_mut() {
                    *len += 1;
                } else {
                    let first = ring.chain_dists.len() as u16;
                    t.ops.push(FastOp::Isa(StraightOp::RmovChain { first, len: 1 }));
                }
                ring.chain_dists.push(s.get());
                return Flow::Next;
            }
            Inst::SpAdd { imm } => (FastOp::Isa(StraightOp::SpAdd { imm }), Flow::Next),
            Inst::Bez { s, offset } => {
                (FastOp::Beqz { s: s.get(), target: at(offset.into()) }, Flow::End)
            }
            Inst::Bnz { s, offset } => {
                (FastOp::Bnez { s: s.get(), target: at(offset.into()) }, Flow::End)
            }
            // Static targets: the ring results are the constants 0 and
            // the link PC, so translation continues at the target.
            Inst::J { offset } => (FastOp::Nop, Flow::Jump(at(offset))),
            Inst::Jal { offset } => {
                (FastOp::Const { d: (), value: pc.wrapping_add(4) }, Flow::Jump(at(offset)))
            }
            Inst::Jr { s } => (FastOp::Isa(StraightOp::Jr { s: s.get() }), Flow::End),
            Inst::Jalr { s } => (FastOp::Isa(StraightOp::Jalr { s: s.get() }), Flow::End),
            Inst::Sys { code, s } => (FastOp::Isa(StraightOp::Sys { code, s: s.get() }), Flow::End),
            Inst::Halt => (FastOp::Nop, Flow::Halt),
        };
        t.ops.push(op);
        flow
    }

    /// Unchecked: distance zero reads 0, anything else the masked slot.
    /// Legal because [`EmuIsa::unchecked_len`] established `d <= n`.
    #[inline(always)]
    fn read(&self, d: u16, n: u64) -> u32 {
        if d == 0 {
            0
        } else {
            self.ring[((n - u64::from(d)) & RING_MASK) as usize]
        }
    }

    #[inline(always)]
    fn write(&mut self, (): (), n: u64, v: u32) {
        self.ring[(n & RING_MASK) as usize] = v;
    }

    #[inline(always)]
    fn sink(&mut self, n: u64, v: u32) {
        self.ring[(n & RING_MASK) as usize] = v;
    }

    #[inline(always)]
    fn exec_op(
        &mut self,
        op: StraightOp,
        t: &Trace<Self>,
        n: u64,
        next_pc: &mut u32,
    ) -> Result<u64, TrapKind> {
        let v = match op {
            StraightOp::RmovChain { first, len } => {
                let dists = &t.extra.chain_dists[usize::from(first)..][..usize::from(len)];
                for (i, &d) in (n..).zip(dists) {
                    self.ring[(i & RING_MASK) as usize] = self.read(d, i);
                }
                return Ok(u64::from(len));
            }
            StraightOp::SpAdd { imm } => {
                let sp = self.sp.wrapping_add(imm as i32 as u32);
                if self.check_sp && !(self.stack_floor..=STACK_TOP).contains(&sp) {
                    return Err(TrapKind::SpMisuse { sp });
                }
                self.sp = sp;
                sp
            }
            StraightOp::Jr { s } => {
                *next_pc = self.read(s, n);
                *next_pc
            }
            StraightOp::Jalr { s } => std::mem::replace(next_pc, self.read(s, n)),
            StraightOp::Sys { code, s } => {
                let (code, arg) = (u32::from(code), self.read(s, n));
                self.core.sys.apply(code, arg).ok_or(TrapKind::UnknownSys { code })?
            }
        };
        self.ring[(n & RING_MASK) as usize] = v;
        Ok(1)
    }

    #[inline]
    fn count_trace(&mut self, t: &Trace<Self>) {
        if self.profile_distances && !t.extra.dist_counts.is_empty() {
            let hist = distance_hist(&mut self.core.stats.dist_hist);
            for &(d, n) in &t.extra.dist_counts {
                hist[d as usize] += n;
            }
        }
    }

    /// The trapping instruction's distances count too: the interpreter
    /// profiles before it executes.
    fn count_prefix(&mut self, t: &Trace<Self>, done: usize) {
        if self.profile_distances {
            for &(pc, _) in &t.meta[..=done] {
                // Translation decoded every word of the trace.
                if let Some(Ok(inst)) = self.core.image.fetch(pc).map(decode) {
                    self.profile(&inst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{EmuResult, ExecBackend, TierConfig};
    use straight_isa::MemWidth;
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
