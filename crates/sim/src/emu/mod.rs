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
//!   It is validated against the interpreter in lockstep mode
//!   ([`TierConfig::fast_lockstep`]), where any state divergence
//!   surfaces as a typed
//!   [`TrapKind::TierDivergence`](straight_isa::TrapKind) trap.
//!
//! Every abnormal stop is a typed [`Trap`] carrying the faulting PC
//! and dynamic instruction index, so differential tests can assert the
//! emulator and the cycle-accurate core observe the *same* event.

pub mod checkpoint;
mod memops;
mod riscv;
mod straight;
pub mod sys;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use riscv::RiscvEmu;
pub use straight::StraightEmu;

use std::collections::BTreeMap;

use straight_isa::{InstKind, Trap};
use straight_riscv::RvInst;

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

/// The Figure 15 retired-instruction categories, shared by both ISAs.
/// The discriminants index [`EmuStats`]' flat count array, so the fast
/// tier can batch-account a whole translated block with one array add
/// instead of a map lookup per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuKind {
    /// Jumps and branches.
    JumpBranch = 0,
    /// ALU operations (including `LUI`/`AUIPC`-style immediates).
    Alu = 1,
    /// Loads.
    Ld = 2,
    /// Stores.
    St = 3,
    /// STRAIGHT `RMOV` distance moves.
    Rmov = 4,
    /// STRAIGHT distance-padding `NOP`s.
    Nop = 5,
    /// Everything else (`SPADD`, `SYS`/`ecall`, `HALT`).
    Other = 6,
}

impl EmuKind {
    /// Number of categories (the length of the count arrays).
    pub const COUNT: usize = 7;

    /// The figure label of this category.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EmuKind::JumpBranch => "jump+branch",
            EmuKind::Alu => "alu",
            EmuKind::Ld => "ld",
            EmuKind::St => "st",
            EmuKind::Rmov => "rmov",
            EmuKind::Nop => "nop",
            EmuKind::Other => "other",
        }
    }

    /// Category of a STRAIGHT instruction kind.
    #[must_use]
    pub fn of_straight(kind: InstKind) -> EmuKind {
        match kind {
            InstKind::JumpBranch => EmuKind::JumpBranch,
            InstKind::Alu => EmuKind::Alu,
            InstKind::Ld => EmuKind::Ld,
            InstKind::St => EmuKind::St,
            InstKind::Rmov => EmuKind::Rmov,
            InstKind::Nop => EmuKind::Nop,
            InstKind::Other => EmuKind::Other,
        }
    }

    /// Category of an RV32IM instruction.
    #[must_use]
    pub fn of_riscv(inst: &RvInst) -> EmuKind {
        match inst {
            RvInst::Jal { .. } | RvInst::Jalr { .. } | RvInst::Branch { .. } => EmuKind::JumpBranch,
            RvInst::Load { .. } => EmuKind::Ld,
            RvInst::Store { .. } => EmuKind::St,
            RvInst::Ecall | RvInst::Ebreak => EmuKind::Other,
            _ => EmuKind::Alu,
        }
    }
}

/// Retired-instruction statistics.
///
/// Retirement counting and categorization are deliberately separate
/// operations: the interpreter bumps both per instruction, while the
/// fast tier retires a whole translated block with one
/// `count_retired` plus one flat-array add — no
/// per-instruction map lookups. The category map of the old API is
/// still available, built on demand by [`EmuStats::kinds`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmuStats {
    /// Total retired instructions.
    pub retired: u64,
    /// Per-category counts, indexed by [`EmuKind`] discriminant.
    kind_counts: [u64; EmuKind::COUNT],
    /// Histogram of source-operand distances (STRAIGHT only; index =
    /// distance, Figure 16).
    pub dist_hist: Vec<u64>,
}

impl EmuStats {
    /// Categorizes one retired instruction. Does *not* advance
    /// `retired` — pair with [`EmuStats::count_retired`].
    #[inline]
    pub(crate) fn bump_kind(&mut self, kind: EmuKind) {
        self.kind_counts[kind as usize] += 1;
    }

    /// Advances the retired count by `n` (batch retirement).
    #[inline]
    pub(crate) fn count_retired(&mut self, n: u64) {
        self.retired += n;
    }

    /// Adds a whole block's precomputed category counts at once.
    #[inline]
    pub(crate) fn add_kind_counts(&mut self, counts: &[u64; EmuKind::COUNT]) {
        for (total, add) in self.kind_counts.iter_mut().zip(counts) {
            *total += add;
        }
    }

    /// Per-category counts as a labeled map (Figure 15 shape); only
    /// categories that retired at least one instruction appear.
    #[must_use]
    pub fn kinds(&self) -> BTreeMap<&'static str, u64> {
        const ALL: [EmuKind; EmuKind::COUNT] = [
            EmuKind::JumpBranch,
            EmuKind::Alu,
            EmuKind::Ld,
            EmuKind::St,
            EmuKind::Rmov,
            EmuKind::Nop,
            EmuKind::Other,
        ];
        ALL.into_iter()
            .filter(|k| self.kind_counts[*k as usize] > 0)
            .map(|k| (k.name(), self.kind_counts[k as usize]))
            .collect()
    }

    /// Retired count of one category.
    #[must_use]
    pub fn kind_count(&self, kind: EmuKind) -> u64 {
        self.kind_counts[kind as usize]
    }

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
pub enum Tier {
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

/// Per-call tier selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierConfig {
    /// Engine to run.
    pub tier: Tier,
    /// Cross-validate: run a cloned interpreter twin alongside and
    /// compare full architectural checkpoints every few thousand
    /// instructions; any mismatch exits with a
    /// [`TrapKind::TierDivergence`](straight_isa::TrapKind) trap.
    pub lockstep: bool,
}

impl TierConfig {
    /// The reference interpreter tier (`TierConfig::default()`).
    #[must_use]
    pub fn interp() -> TierConfig {
        TierConfig::default()
    }

    /// The fast tier, unchecked.
    #[must_use]
    pub fn fast() -> TierConfig {
        TierConfig { tier: Tier::Fast, lockstep: false }
    }

    /// The fast tier with lockstep validation against the interpreter.
    #[must_use]
    pub fn fast_lockstep() -> TierConfig {
        TierConfig { tier: Tier::Fast, lockstep: true }
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
/// statistics, and architectural checkpoint/restore. Implemented by
/// [`StraightEmu`] and [`RiscvEmu`]; everything that drives an
/// emulator (the lab's mix/distance cells, the benches, the pipeline's
/// shadow oracle, the differential tests) goes through this trait.
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
    /// ISA register state, console/exit state, statistics, and every
    /// memory page that differs from the pristine image.
    fn checkpoint(&self) -> Checkpoint;

    /// Restores a snapshot taken by [`ExecBackend::checkpoint`] (on
    /// this emulator or any emulator of the same image and ISA), at an
    /// earlier or a later point than the current one. Memory costs
    /// O(dirty pages): only pages dirty here or in the checkpoint are
    /// rewritten.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::IsaMismatch`] when the checkpoint was taken
    /// on the other ISA's emulator.
    fn restore(&mut self, cp: &Checkpoint) -> Result<(), CheckpointError>;

    /// Runs in place on the interpreter tier until exit, trap, or
    /// `max_steps` retired instructions.
    fn run_until(&mut self, max_steps: u64) -> EmuExit {
        self.run_with(max_steps, TierConfig::interp())
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_contains_only_touched_categories() {
        let mut stats = EmuStats::default();
        stats.bump_kind(EmuKind::Alu);
        stats.bump_kind(EmuKind::Alu);
        stats.bump_kind(EmuKind::JumpBranch);
        stats.count_retired(3);
        let kinds = stats.kinds();
        assert_eq!(kinds.get("alu"), Some(&2));
        assert_eq!(kinds.get("jump+branch"), Some(&1));
        assert!(!kinds.contains_key("nop"), "untouched kinds are absent, as in the old map");
        assert_eq!(stats.retired, 3);
    }

    #[test]
    fn batch_accounting_matches_per_instruction() {
        let mut a = EmuStats::default();
        for _ in 0..5 {
            a.bump_kind(EmuKind::Ld);
            a.count_retired(1);
        }
        a.bump_kind(EmuKind::St);
        a.count_retired(1);

        let mut b = EmuStats::default();
        let mut block = [0u64; EmuKind::COUNT];
        block[EmuKind::Ld as usize] = 5;
        block[EmuKind::St as usize] = 1;
        b.add_kind_counts(&block);
        b.count_retired(6);

        assert_eq!(a, b);
    }
}
