//! Functional (architectural) emulators for both ISAs, behind one
//! [`ExecBackend`] API.
//!
//! These execute linked [`straight_asm::Image`]s in order, with no
//! timing model; they serve as the semantic oracle for the
//! cycle-accurate cores and produce the retired-instruction statistics
//! of Figures 15 and 16.
//!
//! Both emulators implement the [`ExecBackend`] trait: stepping,
//! tier-selected batch execution ([`ExecBackend::run_with`]),
//! statistics, and architectural [`Checkpoint`]s (registers, RP state,
//! and dirty memory pages). Any emulator of the same image, fresh or
//! already past the snapshot, can restore one and continue from it,
//! and so can a cycle-accurate core, via `Core::resume_from`.
//!
//! Execution comes in two tiers (see `docs/EXECUTION_TIERS.md`):
//!
//! * the **interpreter** tier fetches and decodes every instruction —
//!   it is the reference semantics;
//! * the **fast** tier caches pre-translated basic blocks of lowered
//!   micro-ops (with RMOV chains fused into one macro-op) and batches
//!   statistics per block, the Figure 16 distance histogram included.
//!   It single-steps on the interpreter wherever a trace cannot run
//!   unchecked; the `tier_equivalence` tests hold its exit, statistics,
//!   output and final checkpoint equal to the interpreter's.
//!
//! Every abnormal stop is a typed [`Trap`] carrying the faulting PC
//! and dynamic instruction index, so differential tests can assert the
//! emulator and the cycle-accurate core observe the *same* event.

pub mod checkpoint;
pub(crate) mod memops;
mod riscv;
mod straight;
pub mod sys;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use riscv::RiscvEmu;
pub(crate) use straight::distance_reach;
pub use straight::StraightEmu;

use std::sync::Arc;

use straight_asm::Image;
use straight_isa::{InstKind, Trap, TrapKind};

use crate::KindCounts;
use checkpoint::{ArchSnap, DirtyPage};
use memops::Memory;
use sys::SysState;

/// Longest translated trace, in architectural instructions.
const BLOCK_CAP: usize = 256;

/// Why emulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuExit {
    /// The program invoked the exit service or executed `HALT`.
    Done {
        /// Exit code.
        code: i32,
    },
    /// The step budget was exhausted.
    StepLimit,
    /// A typed architectural (or sanitizer) trap.
    Trap(Trap),
}

/// Retired-instruction statistics.
///
/// The interpreter counts each retired instruction into `kinds`; the
/// fast tier retires a whole translated trace with one array add of
/// the trace's precomputed counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmuStats {
    /// Total retired instructions.
    pub retired: u64,
    /// Retired counts per category (Figure 15).
    pub kinds: KindCounts,
    /// Histogram of source-operand distances (STRAIGHT only; index =
    /// distance, Figure 16). Empty until a profiled run counts its
    /// first operand, then `MAX_DISTANCE + 1` entries.
    pub dist_hist: Vec<u64>,
}

impl EmuStats {
    /// Cumulative fraction of operands at distance ≤ `d`.
    #[must_use]
    pub fn cumulative_fraction(&self, d: usize) -> f64 {
        let total: u64 = self.dist_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let within: u64 = self.dist_hist.iter().take(d + 1).sum();
        within as f64 / total as f64
    }

    /// The largest operand distance observed.
    #[must_use]
    pub fn max_distance_used(&self) -> usize {
        self.dist_hist.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

/// Which execution engine [`ExecBackend::run_with`] drives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TierConfig {
    /// The fetch-and-decode reference interpreter.
    #[default]
    Interp,
    /// Pre-translated basic blocks with RMOV-chain fusion and batched
    /// statistics (distance profiling included). Single-steps on the
    /// interpreter only where a trace cannot run unchecked: warm-up,
    /// the end of the step budget, and reads past the sanitizer's
    /// distance bound.
    Fast,
}

impl TierConfig {
    /// The reference interpreter tier (`TierConfig::default()`).
    #[must_use]
    pub fn interp() -> TierConfig {
        TierConfig::Interp
    }

    /// The fast tier.
    #[must_use]
    pub fn fast() -> TierConfig {
        TierConfig::Fast
    }
}

/// Result of running an emulator to completion.
#[derive(Debug, Clone)]
pub struct EmuResult {
    /// Why execution stopped.
    pub exit: EmuExit,
    /// Captured console output.
    pub stdout: String,
    /// Statistics.
    pub stats: EmuStats,
}

impl EmuResult {
    /// The exit code, if the program completed.
    #[must_use]
    pub fn exit_code(&self) -> Option<i32> {
        match self.exit {
            EmuExit::Done { code } => Some(code),
            _ => None,
        }
    }

    /// The trap, if execution ended in one.
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        match self.exit {
            EmuExit::Trap(t) => Some(t),
            _ => None,
        }
    }
}

/// The common emulator API: stepping, tier-selected batch execution,
/// statistics, and architectural checkpoint/restore. Implemented once,
/// by the generic driver in this module, for [`StraightEmu`] and
/// [`RiscvEmu`]; everything that drives an emulator (the lab's
/// mix/distance cells, the benches, the pipeline's shadow oracle, the
/// differential tests) goes through this trait.
pub trait ExecBackend {
    /// Executes one instruction on the interpreter tier. Returns
    /// `Some(exit)` when the program stops.
    fn step(&mut self) -> Option<EmuExit>;

    /// Runs in place until exit, trap, or `max_steps` retired
    /// instructions, on the selected tier.
    fn run_with(&mut self, max_steps: u64, tier: TierConfig) -> EmuExit;

    /// Statistics accumulated so far.
    fn stats(&self) -> &EmuStats;

    /// Current program counter (the next instruction to execute).
    fn pc(&self) -> u32;

    /// Dynamic instructions executed so far.
    fn executed(&self) -> u64;

    /// Console output captured so far.
    fn stdout(&self) -> &str;

    /// Snapshots the complete architectural state: PC, executed count,
    /// ISA register state (for STRAIGHT, the results the image's code
    /// can still read), console/exit state, statistics, and every
    /// memory page that differs from the pristine image.
    fn checkpoint(&self) -> Checkpoint;

    /// [`ExecBackend::checkpoint`], with every memory block whose bytes
    /// equal `prev`'s copy sharing that copy instead of a new one.
    /// Equal to `checkpoint()` whatever `prev` is; smaller when `prev`
    /// is an earlier checkpoint of the same run.
    fn checkpoint_after(&self, prev: &Checkpoint) -> Checkpoint;

    /// Restores a snapshot taken by [`ExecBackend::checkpoint`] (on
    /// this emulator or any emulator of the same image and ISA), at an
    /// earlier or a later point than the current one. Memory costs
    /// O(dirty pages): only pages dirty here or in the checkpoint are
    /// rewritten, and a page neither the checkpoint nor the image
    /// holds is dropped.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::IsaMismatch`] when the checkpoint was taken
    /// on the other ISA's emulator, and
    /// [`CheckpointError::RingTooShort`] when a STRAIGHT checkpoint
    /// carries fewer results than this image's code can read back. The
    /// emulator is unchanged on an error.
    fn restore(&mut self, cp: &Checkpoint) -> Result<(), CheckpointError>;

    /// Consuming interpreter-tier run (the historical call shape:
    /// `Emu::new(image).run(max)`).
    #[must_use]
    fn run(self, max_steps: u64) -> EmuResult
    where
        Self: Sized,
    {
        self.run_tiered(max_steps, TierConfig::interp())
    }

    /// Consuming run on the selected tier.
    #[must_use]
    fn run_tiered(mut self, max_steps: u64, tier: TierConfig) -> EmuResult
    where
        Self: Sized,
    {
        let exit = self.run_with(max_steps, tier);
        EmuResult { exit, stdout: self.stdout().to_string(), stats: self.stats().clone() }
    }
}

/// The ISA-independent state of an emulator: image (shared, never
/// copied), memory (with its dirty pages), counters, console state,
/// statistics, and the fast tier's trace cache. Each ISA's emulator
/// embeds one next to its register state.
#[derive(Debug, Clone)]
pub(crate) struct EmuCore<B> {
    image: Arc<Image>,
    mem: Memory,
    /// Dynamic instructions executed.
    count: u64,
    pc: u32,
    sys: SysState,
    stats: EmuStats,
    /// Fast-tier trace cache, indexed by code-segment slot. Sized
    /// lazily on the first fast-tier run.
    blocks: Vec<Option<Box<B>>>,
}

impl<B> EmuCore<B> {
    /// Loads `image` into a fresh memory, with the PC at its entry.
    fn new(image: Arc<Image>, stats: EmuStats) -> EmuCore<B> {
        let mem = Memory::from_image(&image);
        let pc = image.entry;
        EmuCore {
            image,
            mem,
            count: 0,
            pc,
            sys: SysState::default(),
            stats,
            blocks: Vec::new(),
        }
    }

    /// The exit after an instruction or trace retires: done when it
    /// halted (`HALT`/`EBREAK`) or the exit service ran.
    #[inline]
    fn exit_after(&self, halted: bool) -> Option<EmuExit> {
        if halted {
            return Some(EmuExit::Done { code: self.sys.exit_code.unwrap_or(0) });
        }
        self.sys.exit_code.map(|code| EmuExit::Done { code })
    }

    /// Retires one interpreted instruction of category `kind`. The
    /// interpreter calls this only for instructions that complete
    /// without trapping, keeping the retired count equal to the trap
    /// index.
    #[inline]
    fn retire_one(&mut self, kind: InstKind, next_pc: u32, halted: bool) -> Option<EmuExit> {
        self.stats.kinds[kind] += 1;
        self.stats.retired += 1;
        self.count += 1;
        self.pc = next_pc;
        self.exit_after(halted)
    }

    /// Retires a whole trace of `n` instructions with one batched
    /// statistics update.
    #[inline]
    fn retire_trace(
        &mut self,
        n: u64,
        next_pc: u32,
        kinds: &KindCounts,
        halted: bool,
    ) -> Option<EmuExit> {
        self.count += n;
        self.pc = next_pc;
        self.stats.kinds += kinds;
        self.stats.retired += n;
        self.exit_after(halted)
    }

    /// Finalizes a mid-trace trap at instruction `done` of a trace
    /// entered at count `entry` (`meta` holds each instruction's PC
    /// and category): syncs count, PC and statistics to the completed
    /// prefix and returns the trap the interpreter would have raised.
    fn trace_trap(
        &mut self,
        meta: &[(u32, InstKind)],
        entry: u64,
        done: u64,
        kind: TrapKind,
    ) -> Option<EmuExit> {
        for &(_, category) in &meta[..done as usize] {
            self.stats.kinds[category] += 1;
        }
        self.stats.retired += done;
        self.count = entry + done;
        self.pc = meta[done as usize].0;
        Some(self.trap(kind))
    }

    /// A trap at the current PC and instruction index.
    fn trap(&self, kind: TrapKind) -> EmuExit {
        EmuExit::Trap(Trap::untimed(kind, self.pc, self.count))
    }
}

/// The per-ISA half of an emulator: its register state and its
/// lowering (interpreter step, trace translation and execution).
/// Everything else — the interpreter loop, the trace-cache driver with
/// its budget fallback, and [`ExecBackend`] with
/// checkpoint/restore — is written once over this trait, and
/// monomorphized per ISA. Being generic, the driver is instantiated in
/// the crate that calls it, so implementations mark their hot methods
/// `#[inline]`: that keeps `exec_block` and the interpreter step inlined
/// into the trace loop instead of an out-of-line call per trace.
pub(crate) trait EmuIsa {
    /// A translated trace of the fast tier.
    type Block;

    /// The shared state.
    fn core(&self) -> &EmuCore<Self::Block>;

    /// The shared state, mutably.
    fn core_mut(&mut self) -> &mut EmuCore<Self::Block>;

    /// Executes one instruction on the interpreter. On `Err`, the PC
    /// and count still point at the trapping instruction.
    fn step_trapping(&mut self) -> Result<Option<EmuExit>, TrapKind>;

    /// Translates the trace starting at `pc`. An empty trace (first
    /// word unfetchable or undecodable) makes the driver fall back to
    /// the interpreter, which raises the proper trap.
    fn translate(&self, pc: u32) -> Self::Block;

    /// Executes one trace that [`EmuIsa::unchecked_len`] accepted and
    /// the step budget covers.
    fn exec_block(&mut self, block: &Self::Block) -> Option<EmuExit>;

    /// The trace's length in instructions when it may run unchecked
    /// from the current state; `None` makes the driver single-step
    /// instead (always for an empty trace).
    fn unchecked_len(&self, block: &Self::Block) -> Option<u64>;

    /// The ISA register state, for a checkpoint.
    fn arch_snap(&self) -> ArchSnap;

    /// Restores the ISA register state of a checkpoint taken after
    /// `executed` instructions, changing nothing when it belongs to the
    /// other ISA or cannot hold the state this image can read.
    fn restore_arch(&mut self, arch: &ArchSnap, executed: u64) -> Result<(), CheckpointError>;
}

fn run_interp<I: EmuIsa>(emu: &mut I, max_steps: u64) -> EmuExit {
    loop {
        if emu.core().stats.retired >= max_steps {
            return EmuExit::StepLimit;
        }
        if let Some(exit) = emu.step() {
            return exit;
        }
    }
}

fn run_fast<I: EmuIsa>(emu: &mut I, max_steps: u64) -> EmuExit {
    let core = emu.core_mut();
    if core.blocks.len() != core.image.code.len() {
        core.blocks = (0..core.image.code.len()).map(|_| None).collect();
    }
    // Move the cache out of the emulator so a cached trace can stay
    // borrowed across `exec_block(&mut emu, ..)` without a per-dispatch
    // take/put-back of the slot.
    let mut blocks = std::mem::take(&mut core.blocks);
    let exit = run_fast_cached(emu, max_steps, &mut blocks);
    emu.core_mut().blocks = blocks;
    exit
}

fn run_fast_cached<I: EmuIsa>(
    emu: &mut I,
    max_steps: u64,
    blocks: &mut [Option<Box<I::Block>>],
) -> EmuExit {
    // Read once: the image sits behind a shared pointer.
    let (code_base, code_end) = (emu.core().image.code_base, emu.core().image.code_end());
    loop {
        let core = emu.core();
        if core.stats.retired >= max_steps {
            return EmuExit::StepLimit;
        }
        let budget = max_steps - core.stats.retired;
        let pc = core.pc;
        // Outside the code segment the interpreter raises the fetch
        // fault with the proper context.
        if pc >= code_base && pc < code_end && pc.is_multiple_of(4) {
            let slot = ((pc - code_base) / 4) as usize;
            let block = blocks[slot].get_or_insert_with(|| Box::new(emu.translate(pc)));
            // Single-step when the trace cannot run unchecked or would
            // overshoot the step budget (exact StepLimit semantics).
            if emu.unchecked_len(block).is_some_and(|len| len <= budget) {
                if let Some(exit) = emu.exec_block(block) {
                    return exit;
                }
                continue;
            }
        }
        if let Some(exit) = emu.step() {
            return exit;
        }
    }
}

/// A checkpoint of `emu` whose pages share `prev`'s equal ones.
fn snapshot<I: EmuIsa>(emu: &I, prev: &[DirtyPage]) -> Checkpoint {
    let core = emu.core();
    Checkpoint {
        pc: core.pc,
        executed: core.count,
        arch: emu.arch_snap(),
        sys: core.sys.clone(),
        stats: core.stats.clone(),
        pages: core.mem.collect_pages(prev),
    }
}

impl<I: EmuIsa> ExecBackend for I {
    fn step(&mut self) -> Option<EmuExit> {
        match self.step_trapping() {
            Ok(exit) => exit,
            Err(kind) => Some(self.core().trap(kind)),
        }
    }

    fn run_with(&mut self, max_steps: u64, tier: TierConfig) -> EmuExit {
        match tier {
            TierConfig::Interp => run_interp(self, max_steps),
            TierConfig::Fast => run_fast(self, max_steps),
        }
    }

    fn stats(&self) -> &EmuStats {
        &self.core().stats
    }

    fn pc(&self) -> u32 {
        self.core().pc
    }

    fn executed(&self) -> u64 {
        self.core().count
    }

    fn stdout(&self) -> &str {
        &self.core().sys.stdout
    }

    fn checkpoint(&self) -> Checkpoint {
        snapshot(self, &[])
    }

    fn checkpoint_after(&self, prev: &Checkpoint) -> Checkpoint {
        snapshot(self, &prev.pages)
    }

    fn restore(&mut self, cp: &Checkpoint) -> Result<(), CheckpointError> {
        self.restore_arch(&cp.arch, cp.executed)?;
        let core = self.core_mut();
        core.pc = cp.pc;
        core.count = cp.executed;
        core.sys = cp.sys.clone();
        core.stats = cp.stats.clone();
        core.mem.restore_pages(&core.image, &cp.pages);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_contains_only_touched_categories() {
        let mut stats = EmuStats::default();
        stats.kinds[InstKind::Alu] += 2;
        stats.kinds[InstKind::St] += 1;
        let kinds: Vec<_> = stats.kinds.nonzero().collect();
        assert_eq!(kinds, [("alu", 2), ("st", 1)], "untouched kinds are absent");
    }

    #[test]
    fn batch_accounting_matches_per_instruction() {
        let mut a = EmuStats::default();
        for _ in 0..5 {
            a.kinds[InstKind::Ld] += 1;
            a.retired += 1;
        }
        a.kinds[InstKind::St] += 1;
        a.retired += 1;

        let mut b = EmuStats::default();
        let mut block = KindCounts::default();
        block[InstKind::Ld] = 5;
        block[InstKind::St] = 1;
        b.kinds += &block;
        b.retired += 6;

        assert_eq!(a, b);
    }

    /// A STRAIGHT emulator behind the per-ISA trait whose fast tier
    /// records where each trace ends and, optionally, corrupts the
    /// stack pointer after a number of traces — a fast-tier bug that
    /// leaves the exit, output and statistics alone, so only the final
    /// checkpoint comparison can see it.
    struct Faulty {
        emu: StraightEmu,
        corrupt_after: Option<usize>,
        /// Executed count after each trace.
        trace_ends: Vec<u64>,
        corrupted_at: Option<u64>,
    }

    impl EmuIsa for Faulty {
        type Block = <StraightEmu as EmuIsa>::Block;

        fn core(&self) -> &EmuCore<Self::Block> {
            self.emu.core()
        }

        fn core_mut(&mut self) -> &mut EmuCore<Self::Block> {
            self.emu.core_mut()
        }

        fn step_trapping(&mut self) -> Result<Option<EmuExit>, TrapKind> {
            self.emu.step_trapping()
        }

        fn translate(&self, pc: u32) -> Self::Block {
            self.emu.translate(pc)
        }

        fn exec_block(&mut self, block: &Self::Block) -> Option<EmuExit> {
            let exit = self.emu.exec_block(block);
            self.trace_ends.push(self.emu.executed());
            if self.corrupt_after == Some(self.trace_ends.len()) {
                let mut arch = self.emu.arch_snap();
                if let ArchSnap::Straight { sp, .. } = &mut arch {
                    *sp ^= 4;
                }
                self.emu.restore_arch(&arch, self.emu.executed()).unwrap();
                self.corrupted_at = Some(self.emu.executed());
            }
            exit
        }

        fn unchecked_len(&self, block: &Self::Block) -> Option<u64> {
            self.emu.unchecked_len(block)
        }

        fn arch_snap(&self) -> ArchSnap {
            self.emu.arch_snap()
        }

        fn restore_arch(&mut self, arch: &ArchSnap, executed: u64) -> Result<(), CheckpointError> {
            self.emu.restore_arch(arch, executed)
        }
    }

    /// A loop of two-instruction traces running 5000 iterations, never
    /// reading the stack pointer.
    fn faulty(corrupt_after: Option<usize>) -> Faulty {
        let prog = straight_asm::parse_straight_asm(
            ".text
             func main:
                ADDi [0] 5000
                NOP
             loop:
                ADDi [2] -1
                BNZ [1] loop
                SYS 1 [2]
                HALT",
        )
        .unwrap();
        let image = straight_asm::link_straight(&prog).unwrap();
        let emu = StraightEmu::new(image);
        Faulty { emu, corrupt_after, trace_ends: Vec::new(), corrupted_at: None }
    }

    /// Runs `fast` on the fast tier and a clean twin on the
    /// interpreter to completion. Returns the fast tier's exit and
    /// whether the tiers disagree on the exit, the output, the
    /// statistics or the final checkpoint (the comparison the
    /// `tier_equivalence` tests make).
    fn run_against_interp(fast: &mut Faulty) -> (EmuExit, bool) {
        let mut interp = faulty(None);
        let interp_exit = interp.run_with(u64::MAX, TierConfig::interp());
        let fast_exit = fast.run_with(u64::MAX, TierConfig::fast());
        let diverged = fast_exit != interp_exit
            || fast.stdout() != interp.stdout()
            || fast.stats() != interp.stats()
            || fast.checkpoint() != interp.checkpoint();
        (fast_exit, diverged)
    }

    #[test]
    fn final_checkpoint_comparison_catches_a_fast_tier_corruption() {
        let mut clean = faulty(None);
        let (clean_exit, diverged) = run_against_interp(&mut clean);
        assert_eq!(clean_exit, EmuExit::Done { code: 0 });
        assert!(!diverged, "a correct fast tier matches the interpreter");

        // The corruption leaves the exit, output and statistics alone:
        // only the final checkpoint shows it.
        let mut corrupt = faulty(Some(3000));
        let (corrupt_exit, diverged) = run_against_interp(&mut corrupt);
        assert!(corrupt.corrupted_at.is_some());
        assert_eq!(corrupt_exit, clean_exit);
        assert_eq!(corrupt.stdout(), clean.stdout());
        assert_eq!(corrupt.stats(), clean.stats());
        assert!(diverged, "the flipped stack pointer went unseen");
    }

    #[test]
    fn fast_tier_stops_exactly_at_a_budget_inside_a_trace() {
        let full = faulty(None).run_tiered(u64::MAX, TierConfig::interp());
        let mut mid_trace = 0;
        for max_steps in 100..140 {
            let mut fast = faulty(None);
            assert_eq!(fast.run_with(max_steps, TierConfig::fast()), EmuExit::StepLimit);
            assert_eq!(fast.executed(), max_steps);
            assert_eq!(fast.stats().retired, max_steps);
            // The last trace run ending short of the budget means the
            // next one would have crossed it, and was single-stepped.
            if fast.trace_ends.last().is_some_and(|&end| end < max_steps) {
                mid_trace += 1;
            }
            let mut interp = faulty(None);
            assert_eq!(interp.run_with(max_steps, TierConfig::interp()), EmuExit::StepLimit);
            assert_eq!(fast.checkpoint(), interp.checkpoint());
            // Running on from the budget still matches a single run.
            assert_eq!(fast.run_with(u64::MAX, TierConfig::fast()), full.exit);
            assert_eq!(fast.stats(), &full.stats);
        }
        assert!(mid_trace > 0, "no budget fell inside a trace");
    }
}
