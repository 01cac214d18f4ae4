//! The shared out-of-order core.
//!
//! One machine model executes both ISAs: fetch (with direction
//! prediction and a return-address stack), a latency-modeled front-end
//! pipe, an ISA-specific rename stage (RAM-based RMT + free list for
//! SS, the RP adders for STRAIGHT — Figure 3), dispatch into a
//! unified scheduler, age-ordered issue over the Table-I functional
//! units, a load/store queue with store-to-load forwarding and
//! memory-dependence speculation, and in-order commit from the ROB.
//!
//! Recovery is where the two machines differ (Figure 4): SS restores
//! the RMT by walking squashed ROB entries at front-end width per
//! cycle and stalls rename until the walk completes; STRAIGHT restores
//! RP/SP from a single ROB entry in one cycle.
//!
//! Faults are precise: fetch/decode faults, out-of-range operand
//! distances, and wild/misaligned memory accesses travel through the
//! pipeline as typed [`TrapKind`]s attached to their instruction and
//! are raised only when that instruction reaches the ROB head —
//! wrong-path faults are squashed like any other speculation. A
//! forward-progress watchdog aborts (with a structured
//! [`WatchdogReport`]) if commit stops, and the opt-in hazard
//! sanitizer cross-validates every retired instruction against a
//! shadow functional emulator.

use std::fmt;
use std::sync::Arc;

use super::lsq::LsqSlab;
use super::rob::{RState, RobSlab};
use super::sched::Scheduler;
use super::slab::{Ring, RingWalk, SlotBits, SlotHandle};
use super::wheel::{CompletionWheel, Inflight, LoadSrc};

use straight_asm::{Image, ImageIsa, STACK_TOP};
use straight_isa::{Trap, TrapKind};
use straight_riscv::Reg;

use crate::emu::checkpoint::{check_ring, ArchSnap};
use crate::emu::memops::{self, Memory};
use crate::emu::sys::SysState;
use crate::emu::{distance_reach, Checkpoint, CheckpointError, EmuExit, ExecBackend, RiscvEmu, StraightEmu};
use crate::inject::FaultKind;
use crate::mem::Hierarchy;
use crate::predict::{build, DirectionPredictor, Ras, RasCheckpoint, StoreSets};

use super::config::{IsaKind, MachineConfig};
use super::stats::{SimExit, SimResult, SimStats, WatchdogReport};
use super::uop::{decode, ControlInfo, Decoded, ExecUnit, FuncOp, RawInst, RmtState, RpState, UOp};

/// Default cycle budget for [`simulate`].
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// A configuration/image mismatch detected while constructing a
/// [`Core`] — the machine cannot meaningfully execute at all, so this
/// is an error at build time rather than a [`Trap`] at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreError {
    /// The image's ISA does not match the machine's front-end model.
    IsaMismatch {
        /// The machine's front-end model.
        machine: IsaKind,
        /// The ISA the image was linked for.
        image: ImageIsa,
    },
    /// The physical register file cannot hold the architectural state
    /// (RV32 needs all 32 logical mappings plus at least one free
    /// register to rename into).
    TooFewPhysRegs {
        /// The configured register-file size.
        phys_regs: u32,
    },
    /// [`Core::resume_from`] was given a checkpoint the image cannot
    /// resume from (its STRAIGHT result ring is too short).
    Checkpoint(CheckpointError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::IsaMismatch { machine, image } => {
                write!(f, "machine front-end {machine:?} cannot execute a {image} image")
            }
            CoreError::TooFewPhysRegs { phys_regs } => {
                write!(f, "{phys_regs} physical registers (need at least 33)")
            }
            CoreError::Checkpoint(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[derive(Debug, Clone, Copy, Default)]
struct FrontEntry {
    ready_at: u64,
    pc: u32,
    /// Index into `Core::decoded`.
    slot: u32,
    predicted_next: u32,
    ras_cp: RasCheckpoint,
}

/// The hazard sanitizer's oracle: a shadow functional emulator stepped
/// once per retired instruction.
enum Shadow {
    S(Box<StraightEmu>),
    R(Box<RiscvEmu>),
}

impl Shadow {
    fn emu(&mut self) -> &mut dyn ExecBackend {
        match self {
            Shadow::S(emu) => &mut **emu,
            Shadow::R(emu) => &mut **emu,
        }
    }

    /// The oracle's architectural value for `uop`'s destination, after
    /// stepping it: STRAIGHT's newest result (`HALT` writes none),
    /// RV32IM's logical destination register.
    fn committed_value(&self, uop: &UOp) -> Option<u32> {
        match self {
            Shadow::S(emu) => (!uop.is_halt()).then(|| emu.last_result()),
            Shadow::R(emu) => uop.logical_dst.map(|l| emu.reg(Reg::new(l))),
        }
    }
}

/// The cycle-accurate core.
pub struct Core {
    cfg: MachineConfig,
    /// The image, shared with the shadow emulator and any other core
    /// or emulator given the same `Arc`.
    image: Arc<Image>,
    /// The code segment decoded once up front, one entry per code slot
    /// plus a last one for fetches outside the image: fetch re-reads
    /// the same words millions of times, and decoding, control
    /// classification and everything in a micro-op that rename does
    /// not change are pure in the word and its PC.
    decoded: Vec<Decoded>,
    /// Architectural memory, written when a store commits.
    pub(crate) mem: Memory,
    hier: Hierarchy,
    bp: Box<dyn DirectionPredictor>,
    ras: Ras,
    memdep: StoreSets,
    prf: Vec<u32>,
    /// Physical-register readiness as a packed bitset (one bit per
    /// register), matching the slot bitsets of the scheduler.
    prf_ready: SlotBits,
    rp_state: RpState,
    arch_rp: RpState,
    rmt_state: RmtState,
    /// The reorder buffer as a structure-of-arrays ring slab; stages
    /// index its flat columns by slot instead of chasing deque entries.
    rob: RobSlab,
    next_seq: u64,
    /// Dispatch identity counter; unlike `next_seq` it never rewinds.
    next_uid: u64,
    sched: Scheduler,
    inflight: CompletionWheel,
    /// Reused per-cycle buffer for completions due this cycle.
    due_scratch: Vec<Inflight>,
    lsq: LsqSlab,
    /// Fetched instructions crossing the front-end pipe, bounded by
    /// `fetch_width × (frontend_latency + 2)`.
    front_q: Ring<FrontEntry>,
    fetch_pc: u32,
    fetch_stall_until: u64,
    /// Fetch hit a fault (left the image or an undecodable word) and
    /// parked until a recovery redirects it; the fault itself travels
    /// through the pipeline as a trap micro-op.
    fetch_faulted: bool,
    rename_stall_until: u64,
    div_busy_until: Vec<u64>,
    cycle: u64,
    last_commit_cycle: u64,
    sys: SysState,
    stats: SimStats,
    halted: Option<i32>,
    /// A raised trap (architectural, sanitizer, or watchdog); ends the
    /// simulation.
    fatal: Option<Trap>,
    watchdog_report: Option<WatchdogReport>,
    /// The sanitizer's oracle emulator, constructed lazily at the
    /// first retirement when `cfg.sanitizer` is set: default runs
    /// never clone the image into a shadow emulator at all.
    shadow: Option<Shadow>,
    shadow_done: bool,
    pending_faults: Vec<(u64, FaultKind)>,
    faults_applied: u32,
    force_flip_branch: bool,
    /// Estimated host nanoseconds per pipeline stage, in
    /// [`STAGE_NAMES`] order (see [`STAGE_SAMPLE_PERIOD`]).
    #[cfg(feature = "stage-profile")]
    stage_ns: [u64; 5],
}

/// Stage labels for [`Core::stage_profile`], in `step()` order.
#[cfg(feature = "stage-profile")]
pub const STAGE_NAMES: [&str; 5] = ["commit", "complete", "issue", "rename", "fetch"];

/// The `stage-profile` feature's sampling period in cycles. Every
/// period one stage is timed, the five taking turns, so each stage is
/// timed once every `5 × STAGE_SAMPLE_PERIOD` cycles and its time is
/// scaled by that factor: three clock reads per period instead of ten
/// per cycle, so the estimate does not mostly measure the clock. A
/// stage takes tens of nanoseconds, about what a clock read costs, so
/// the third read, right after the second, times an empty interval,
/// and that is taken off the sample.
///
/// The scaled total runs about 1.2–1.7× the wall time of the same run:
/// a timed stage cannot overlap its neighbours on the host CPU, as it
/// does untimed. Read the profile as stage shares.
#[cfg(feature = "stage-profile")]
pub const STAGE_SAMPLE_PERIOD: u64 = 64;

/// A sample longer than this is a host interruption (the thread was
/// descheduled or took a page fault inside the stage), not stage work,
/// which takes well under a microsecond; scaled up, one such sample
/// would outweigh thousands of real ones, so it is dropped.
#[cfg(feature = "stage-profile")]
const STAGE_SAMPLE_MAX_NS: u64 = 100_000;

impl Core {
    /// Builds a core for a linked image (shared, not copied, when
    /// passed as an `Arc`), validating that the machine can actually
    /// execute it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the image's ISA does not match the
    /// machine's front-end or the register file is too small for the
    /// architectural state.
    pub fn new(image: impl Into<Arc<Image>>, cfg: MachineConfig) -> Result<Core, CoreError> {
        let image = image.into();
        let compatible = matches!(
            (cfg.isa, image.isa),
            (IsaKind::Straight, ImageIsa::Straight) | (IsaKind::Ss, ImageIsa::Riscv)
        );
        if !compatible {
            return Err(CoreError::IsaMismatch { machine: cfg.isa, image: image.isa });
        }
        if cfg.phys_regs < 33 {
            return Err(CoreError::TooFewPhysRegs { phys_regs: cfg.phys_regs });
        }
        let mem = Memory::from_image(&image);
        let phys = cfg.phys_regs as usize;
        let mut prf = vec![0u32; phys];
        let rmt_state = RmtState::new(cfg.phys_regs);
        // Architectural init: SP (x2 for RV32; the SP register for
        // STRAIGHT lives in the rename stage).
        prf[rmt_state.rmt[2] as usize] = STACK_TOP;
        let fetch_pc = image.entry;
        let decoded: Vec<Decoded> = image
            .code
            .iter()
            .enumerate()
            .map(|(idx, &word)| {
                let raw = match cfg.isa {
                    IsaKind::Straight => straight_isa::decode(word).ok().map(RawInst::S),
                    IsaKind::Ss => straight_riscv::decode(word).ok().map(RawInst::R),
                };
                let raw = raw.unwrap_or(RawInst::Fault(TrapKind::IllegalInstruction { word }));
                decode(raw, image.code_base + 4 * idx as u32)
            })
            .chain(std::iter::once(decode(RawInst::Fault(TrapKind::FetchFault), 0)))
            .collect();
        let mut prf_ready = SlotBits::new(phys);
        for p in 0..phys {
            prf_ready.set(p);
        }
        let placeholder = UOp::trap(0, TrapKind::FetchFault, 0, 0);
        let rob = RobSlab::new(cfg.rob_capacity as usize, placeholder);
        let front_q = Ring::with_capacity((cfg.fetch_width * (cfg.frontend_latency + 2)) as usize);
        Ok(Core {
            bp: build(cfg.predictor),
            hier: Hierarchy::new(cfg.hierarchy),
            div_busy_until: vec![0; cfg.units.div as usize],
            sched: Scheduler::new(phys, rob.slot_capacity()),
            lsq: LsqSlab::new(cfg.lsq_ld as usize, cfg.lsq_st as usize),
            cfg,
            image,
            decoded,
            mem,
            ras: Ras::new(),
            memdep: StoreSets::new(),
            prf,
            prf_ready,
            rp_state: RpState { rp: 0, sp: STACK_TOP },
            arch_rp: RpState { rp: 0, sp: STACK_TOP },
            rmt_state,
            rob,
            next_seq: 0,
            next_uid: 0,
            inflight: CompletionWheel::new(),
            due_scratch: Vec::new(),
            front_q,
            fetch_pc,
            fetch_stall_until: 0,
            fetch_faulted: false,
            rename_stall_until: 0,
            cycle: 0,
            last_commit_cycle: 0,
            sys: SysState::default(),
            stats: SimStats::default(),
            halted: None,
            fatal: None,
            watchdog_report: None,
            shadow: None,
            shadow_done: false,
            pending_faults: Vec::new(),
            faults_applied: 0,
            force_flip_branch: false,
            #[cfg(feature = "stage-profile")]
            stage_ns: [0; 5],
        })
    }

    /// Builds a core whose architectural state continues from an
    /// emulator [`Checkpoint`] instead of the image entry point: memory
    /// is the image overlaid with the checkpoint's dirty pages, fetch
    /// starts at the checkpoint PC, commit sequence numbers continue
    /// from the checkpoint's executed count, and the register state is
    /// seeded ISA-appropriately — the RMT-mapped physical registers
    /// for SS, the RP position plus the results the checkpoint carries
    /// for STRAIGHT (distance `d` resolves to physical register
    /// `(rp + phys − d) mod phys`, exactly what the RP adders will
    /// compute for the first resumed instructions).
    ///
    /// Microarchitectural state (predictors, caches, RAS, store sets)
    /// starts cold — that is the documented sampling bias of the
    /// `Sampled` experiments. The hazard sanitizer is unavailable on a
    /// resumed core (its oracle emulator can only replay from the
    /// image start) and is disabled regardless of configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IsaMismatch`] when the machine, the image,
    /// and the checkpoint do not all agree on the ISA,
    /// [`CoreError::Checkpoint`] when a STRAIGHT checkpoint carries
    /// fewer results than the image's code can read back, and the same
    /// construction errors as [`Core::new`] otherwise.
    pub fn resume_from(
        image: impl Into<Arc<Image>>,
        cfg: MachineConfig,
        cp: &Checkpoint,
    ) -> Result<Core, CoreError> {
        let machine = cfg.isa;
        let mut core = Core::new(image, cfg)?;
        if cp.isa() != core.image.isa {
            return Err(CoreError::IsaMismatch { machine, image: cp.isa() });
        }
        core.mem.restore_pages(&core.image, &cp.pages);
        core.fetch_pc = cp.pc();
        core.sys = cp.sys.clone();
        match &cp.arch {
            ArchSnap::Straight { sp, ring } => {
                let n = cp.executed();
                check_ring(ring, distance_reach(&core.image), n).map_err(CoreError::Checkpoint)?;
                let phys = u64::from(core.cfg.phys_regs);
                let rp = (n % phys) as u32;
                core.rp_state = RpState { rp, sp: *sp };
                core.arch_rp = RpState { rp, sp: *sp };
                // Seed every physical register a resumed distance can
                // reach: producer `n - d`, carried at `ring[len - d]`,
                // must appear in physical register
                // `(rp + phys - d) mod phys`. The ring covers the
                // image's reach, and the static distances of wrong-path
                // instructions are the image's too.
                for (d, &v) in (1..phys).zip(ring.iter().rev()) {
                    let p = ((u64::from(rp) + phys - d) % phys) as usize;
                    core.prf[p] = v;
                }
            }
            ArchSnap::Riscv { regs } => {
                for (l, &v) in regs.iter().enumerate() {
                    core.prf[core.rmt_state.rmt[l] as usize] = v;
                }
            }
        }
        core.next_seq = cp.executed();
        core.rob.reset_base(cp.executed());
        core.shadow_done = true;
        Ok(core)
    }

    // -- helpers ----------------------------------------------------

    fn src_value(&self, src: Option<u16>) -> u32 {
        match src {
            Some(p) => self.prf[p as usize],
            None => 0,
        }
    }

    fn srcs_ready(&self, uop: &UOp) -> bool {
        let ready = |src: Option<u16>| src.is_none_or(|p| self.prf_ready.get(p as usize));
        ready(uop.srcs[0]) && ready(uop.srcs[1])
    }

    /// Physical register `p` just became ready: drain its wakeup list,
    /// setting the ready bit of every waiter whose last outstanding
    /// operand this was. Waiters are validated against the ROB by slot
    /// generation (the dispatch uid) — sequence numbers and slots are
    /// reused after recovery, generations never are.
    fn wake(&mut self, p: u16) {
        // The list drains in place, keeping its allocation.
        let (rob, ready) = (&mut self.rob, &mut self.sched.ready);
        for w in self.sched.wakeup[p as usize].drain(..) {
            let Some(slot) = rob.waiter_slot(w) else { continue };
            rob.pending[slot] = rob.pending[slot].saturating_sub(1);
            if rob.pending[slot] == 0 {
                ready.set(slot);
            }
        }
    }

    /// Subscribes ROB `slot` (dispatch identity `uid`) to the wakeup
    /// list of `src` if that register is not ready yet; returns the
    /// number of operands this adds to the entry's pending count.
    fn watch(&mut self, src: Option<u16>, slot: usize, uid: u64) -> u8 {
        match src {
            Some(p) if !self.prf_ready.get(p as usize) => {
                self.sched.wakeup[p as usize].push(SlotHandle { slot: slot as u32, gen: uid });
                1
            }
            _ => 0,
        }
    }

    /// Raises a fatal trap with the current architectural context.
    /// The index is the retired-instruction count, which matches the
    /// functional emulators' dynamic instruction index at the same
    /// point, so differential tests can compare full [`Trap`]s.
    fn raise(&mut self, kind: TrapKind, pc: u32) {
        if self.fatal.is_none() {
            self.fatal =
                Some(Trap { kind, pc, index: self.stats.retired, cycle: Some(self.cycle) });
        }
    }

    // -- commit ------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.rob.is_empty() {
                return;
            }
            let hs = self.rob.head_slot();
            match self.rob.state[hs] {
                RState::Done => {
                    // Execution-time faults (wild/misaligned accesses)
                    // become precise here: the instruction reached the
                    // head un-squashed, so it really happens.
                    if let Some(kind) = self.rob.trap[hs] {
                        let pc = self.rob.uop[hs].pc;
                        self.raise(kind, pc);
                        return;
                    }
                    self.retire_head();
                    if self.halted.is_some() || self.fatal.is_some() {
                        return;
                    }
                }
                RState::Waiting if self.rob.uop[hs].is_trap() => {
                    // Fetch/decode/distance faults dispatched as trap
                    // micro-ops fire once they reach the head.
                    if let FuncOp::Trap(kind) = self.rob.uop[hs].func {
                        let pc = self.rob.uop[hs].pc;
                        self.raise(kind, pc);
                    }
                    return;
                }
                RState::Waiting if self.rob.uop[hs].is_sys() || self.rob.uop[hs].is_halt() => {
                    // Environment calls and HALT execute
                    // non-speculatively at the ROB head.
                    let uop = self.rob.uop[hs];
                    if uop.is_halt() {
                        self.rob.state[hs] = RState::Done;
                    } else if self.srcs_ready(&uop) {
                        let arg = self.src_value(uop.srcs[0]);
                        let code = match uop.func {
                            FuncOp::Sys { code: Some(c) } => u32::from(c),
                            _ => self.src_value(uop.srcs[1]),
                        };
                        let result = match self.sys.apply(code, arg) {
                            Some(r) => r,
                            None => {
                                self.raise(TrapKind::UnknownSys { code }, uop.pc);
                                return;
                            }
                        };
                        if let Some(d) = uop.dst {
                            self.prf[d as usize] = result;
                            self.prf_ready.set(d as usize);
                            self.stats.events.prf_writes += 1;
                            self.wake(d);
                        }
                        self.rob.state[hs] = RState::Done;
                    }
                    return; // retires next cycle
                }
                _ => return,
            }
        }
    }

    /// Cross-validates one committing instruction against the shadow
    /// oracle emulator (and, for STRAIGHT, the architectural RP).
    /// Returns the sanitizer trap to raise if the machine diverged.
    ///
    /// The shadow emulator is constructed here, lazily, on the first
    /// retirement: nothing has retired yet at that point, so an
    /// emulator built from the initial image is exactly in sync.
    fn sanitize_retire(&mut self, uop: &UOp) -> Option<TrapKind> {
        // RP-vs-ROB consistency: the committed destination must be
        // exactly the architectural RP (the RP after the previously
        // retired instruction). Catches any desync between the rename
        // adders and the ROB's recovery bookkeeping.
        if self.cfg.isa == IsaKind::Straight {
            let expected = self.arch_rp.rp as u16;
            if let Some(got) = uop.dst {
                if got != expected {
                    return Some(TrapKind::RpDesync { expected, got });
                }
            }
        }
        if self.shadow_done {
            return None;
        }
        if self.shadow.is_none() {
            self.shadow = Some(match self.cfg.isa {
                IsaKind::Straight => {
                    // The oracle also enforces the machine's distance
                    // bound (an operand reaching past it would read a
                    // register already reallocated, §III-B) and the
                    // stack region.
                    let mut emu = StraightEmu::new(Arc::clone(&self.image));
                    let bound = u16::try_from(self.cfg.max_distance).unwrap_or(u16::MAX);
                    emu.distance_bound = Some(bound);
                    emu.check_sp = true;
                    Shadow::S(Box::new(emu))
                }
                IsaKind::Ss => Shadow::R(Box::new(RiscvEmu::new(Arc::clone(&self.image)))),
            });
        }
        let committed = uop.dst.map(|d| self.prf[d as usize]);
        let shadow = self.shadow.as_mut()?;
        let emu = shadow.emu();
        if emu.pc() != uop.pc {
            return Some(TrapKind::OraclePcMismatch { expected: emu.pc() });
        }
        match emu.step() {
            // The oracle observed an architectural trap the core
            // sailed past.
            Some(EmuExit::Trap(t)) => return Some(t.kind),
            Some(_) => self.shadow_done = true,
            None => {}
        }
        if let (Some(got), Some(expected)) = (committed, shadow.committed_value(uop)) {
            if got != expected {
                return Some(TrapKind::OracleValueMismatch { expected, got });
            }
        }
        let oracle_out = shadow.emu().stdout();
        if uop.is_sys() && oracle_out != self.sys.stdout {
            return Some(TrapKind::OracleOutputDivergence {
                core_len: self.sys.stdout.len() as u32,
                oracle_len: oracle_out.len() as u32,
            });
        }
        None
    }

    /// Retires the ROB head entry (which commit() has verified is
    /// `Done` and trap-free).
    fn retire_head(&mut self) {
        let hs = self.rob.head_slot();
        let seq = self.rob.seq[hs];
        let uop = self.rob.uop[hs];
        let actual_taken = self.rob.actual_taken[hs];
        self.rob.pop_front();
        if self.cfg.sanitizer {
            if let Some(kind) = self.sanitize_retire(&uop) {
                self.raise(kind, uop.pc);
                return;
            }
        }
        self.stats.retired_kinds[uop.kind] += 1;
        self.stats.retired += 1;
        self.stats.events.rob_commits += 1;
        // Predictor training happens in order at retire.
        if uop.is_cond_branch() {
            self.bp.update(uop.pc, actual_taken);
        }
        if uop.is_store() {
            if let Some(e) = self.lsq.stores.pop_front(seq) {
                if let (Some(addr), Some(data)) = (e.addr, e.data) {
                    // A faulting address was recorded on the ROB entry
                    // at address generation and raised before retiring;
                    // should one still reach memory, it ends the run.
                    if let Err(kind) = memops::store(&mut self.mem, e.width, addr, data) {
                        self.raise(kind, uop.pc);
                    }
                }
            }
        } else if uop.is_load() {
            if let Some(e) = self.lsq.loads.pop_front(seq) {
                if e.speculative && self.stats.retired.is_multiple_of(64) {
                    // Sparse decay: successful speculation slowly
                    // releases a trained dependence.
                    self.memdep.on_no_violation(e.pc);
                }
            }
        }
        // SS: the previous mapping's physical register is now free.
        if let Some(prev) = uop.prev_phys {
            self.rmt_state.freelist.push_back(prev);
            self.stats.events.freelist_ops += 1;
        }
        // Architectural STRAIGHT state shadows (used when a recovery
        // squashes the whole window).
        if self.cfg.isa == IsaKind::Straight {
            self.arch_rp = RpState { rp: uop.rp_after, sp: uop.sp_after };
        }
        if uop.is_halt() {
            self.halted = Some(self.sys.exit_code.unwrap_or(0));
        } else if self.sys.exit_code.is_some() {
            self.halted = self.sys.exit_code;
        }
    }

    // -- completion / writeback --------------------------------------

    fn complete(&mut self) {
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.inflight.drain_due(self.cycle, &mut due);
        if due.is_empty() {
            self.due_scratch = due;
            return;
        }
        // Age order (uid order, for the live entries); a batch is
        // usually in it already.
        if !due.is_sorted_by_key(|f| f.uid) {
            due.sort_by_key(|f| f.uid);
        }
        for &f in &due {
            // The entry may have been squashed (recovery leaves stale
            // events in the wheel; the slot may even hold a different
            // instruction since, which the generation check rejects).
            let slot = f.slot as usize;
            let live = self.rob.slot_is_live(slot) && self.rob.gen[slot] == f.uid;
            if !live || self.rob.state[slot] != RState::Issued {
                continue;
            }
            let uop = self.rob.uop[slot];
            let s0 = self.src_value(uop.srcs[0]);
            let s1 = self.src_value(uop.srcs[1]);
            let mut actual_next = uop.pc.wrapping_add(4);
            let mut actual_taken = false;
            let mut trap: Option<TrapKind> = None;
            let result: u32 = match uop.func {
                FuncOp::Alu(op) => op.eval(s0, s1),
                FuncOp::AluImmRv(op, imm) => op.eval(s0, imm),
                FuncOp::AluImmS(op, imm) => op.eval_straight(s0, imm),
                FuncOp::Const(v) => v,
                FuncOp::Copy => s0,
                FuncOp::Load { width, .. } => {
                    match memops::load(&self.mem, width, f.addr) {
                        Err(kind) => {
                            trap = Some(kind);
                            0
                        }
                        Ok(v) => match f.load_src {
                            Some(LoadSrc::Fwd(data)) => memops::forwarded(width, data),
                            _ => v,
                        },
                    }
                }
                FuncOp::Store { .. } => s1, // STRAIGHT: ST result is the stored value
                FuncOp::Branch { cond, target } => {
                    actual_taken = cond.eval(s0, s1);
                    actual_next = if actual_taken { target } else { uop.pc.wrapping_add(4) };
                    0
                }
                FuncOp::Jump { target, link } => {
                    actual_next = target;
                    if link {
                        uop.pc.wrapping_add(4)
                    } else {
                        0
                    }
                }
                FuncOp::JumpInd { offset, link } => {
                    let target = s0.wrapping_add(offset as u32) & !1;
                    actual_next = target;
                    if link {
                        uop.pc.wrapping_add(4)
                    } else {
                        target
                    }
                }
                FuncOp::Sys { .. } | FuncOp::Halt | FuncOp::Trap(_) => {
                    unreachable!("executed at commit")
                }
                FuncOp::Nop => 0,
            };
            if let Some(d) = uop.dst {
                self.prf[d as usize] = result;
                self.prf_ready.set(d as usize);
                self.stats.events.prf_writes += 1;
                self.stats.events.iq_wakeups += 1;
                self.wake(d);
            }
            self.rob.state[slot] = RState::Done;
            if trap.is_some() {
                self.rob.trap[slot] = trap;
            }
            if uop.is_control() {
                if uop.is_cond_branch() {
                    self.stats.branches += 1;
                    self.rob.actual_taken[slot] = actual_taken;
                }
                if actual_next != self.rob.predicted_next[slot] {
                    if uop.is_cond_branch() {
                        self.stats.branch_mispredicts += 1;
                    } else {
                        self.stats.indirect_mispredicts += 1;
                    }
                    self.recover(self.rob.seq[slot], actual_next, Some(self.rob.ras_cp[slot]));
                }
            }
        }
        self.due_scratch = due;
    }

    // -- issue ------------------------------------------------------

    fn issue(&mut self) {
        let mut budget_total = self.cfg.issue_width;
        let mut budget = [
            self.cfg.units.alu,
            self.cfg.units.mul,
            self.cfg.units.div,
            self.cfg.units.bc,
            self.cfg.units.mem,
        ];
        let unit_idx = |u: ExecUnit| match u {
            ExecUnit::Alu => 0usize,
            ExecUnit::Mul => 1,
            ExecUnit::Div => 2,
            ExecUnit::Branch => 3,
            ExecUnit::Mem => 4,
        };
        // Select walks only operand-ready entries, oldest first: the
        // ready bitset is enumerated in ring order from the ROB head
        // slot, which is exactly ascending sequence-number order
        // (slots are `seq mod capacity` and the live window is
        // contiguous), so the issue order and every stat bump match
        // the old sorted ready queue. The walk is lazy and stops when
        // the issue budget is spent.
        if self.rob.is_empty() {
            return;
        }
        let mut walk = RingWalk::new(&self.sched.ready, self.rob.head_slot());
        while budget_total > 0 {
            let Some(slot) = walk.next(&self.sched.ready) else { break };
            // A ready bit never outlives its entry: recovery clears the
            // squashed range and issue clears the slot it issues.
            debug_assert!(
                self.rob.slot_is_live(slot) && self.rob.state[slot] == RState::Waiting,
                "ready bit outlived its entry at slot {slot}"
            );
            let seq = self.rob.seq[slot];
            // Cheap rejections read single columns; the micro-op
            // payload is only copied out for an entry that passes.
            let ui = unit_idx(self.rob.uop[slot].unit);
            if budget[ui] == 0 {
                continue;
            }
            let uop = self.rob.uop[slot];
            // Unpipelined divider occupancy.
            let mut div_slot = None;
            if uop.unit == ExecUnit::Div {
                match self.div_busy_until.iter().position(|&b| b <= self.cycle) {
                    Some(k) => div_slot = Some(k),
                    None => continue,
                }
            }
            let mut load_src = None;
            let mut load_addr = 0;
            let latency;
            if uop.is_load() {
                match self.try_issue_load(slot, seq, &uop) {
                    Some((lat, src, addr)) => {
                        latency = lat;
                        load_src = Some(src);
                        load_addr = addr;
                    }
                    None => continue, // blocked on the LSQ; retry next cycle
                }
            } else if uop.is_store() {
                // Stores issue their address as soon as the base
                // register is ready (split AGU), shrinking the window
                // in which younger loads see unknown store addresses:
                // a store enters the ready queue on its base operand
                // alone and picks up the data operand separately.
                let addr_known = self.lsq.stores.addr_known(self.rob.lsq_idx[slot]);
                if !addr_known {
                    let violation = self.issue_store_addr(slot, seq, &uop);
                    if violation {
                        break; // the recovery consumed this cycle
                    }
                    // The address generation consumes this issue slot.
                    budget[ui] -= 1;
                    budget_total -= 1;
                    self.stats.events.fu_ops += 1;
                    // Data not ready yet: leave select and wait on the
                    // data tag alone.
                    if self.watch(uop.srcs[1], slot, self.rob.gen[slot]) == 1 {
                        self.rob.pending[slot] = 1;
                        self.sched.ready.clear(slot);
                        continue;
                    }
                    self.record_store_data(slot, &uop);
                    self.rob.state[slot] = RState::Issued;
                    self.rob.in_iq.clear(slot);
                    self.sched.ready.clear(slot);
                    self.sched.occupancy -= 1;
                    self.inflight.push(
                        self.cycle,
                        self.cycle + 1,
                        Inflight { uid: self.rob.gen[slot], slot: slot as u32, addr: 0, load_src: None },
                    );
                    continue;
                }
                // Address already generated (a violation recovery cut
                // phase A short); the data operand may still be pending.
                if self.watch(uop.srcs[1], slot, self.rob.gen[slot]) == 1 {
                    self.rob.pending[slot] = 1;
                    self.sched.ready.clear(slot);
                    continue;
                }
                self.record_store_data(slot, &uop);
                latency = 1;
            } else {
                latency = uop.latency;
            }
            if let Some(k) = div_slot {
                self.div_busy_until[k] = self.cycle + u64::from(latency);
            }
            budget[ui] -= 1;
            budget_total -= 1;
            self.stats.events.fu_ops += 1;
            self.stats.events.prf_reads +=
                u64::from(uop.srcs[0].is_some()) + u64::from(uop.srcs[1].is_some());
            self.rob.state[slot] = RState::Issued;
            self.rob.in_iq.clear(slot);
            self.sched.ready.clear(slot);
            self.sched.occupancy -= 1;
            self.inflight.push(
                self.cycle,
                self.cycle + u64::from(latency),
                Inflight { uid: self.rob.gen[slot], slot: slot as u32, addr: load_addr, load_src },
            );
        }
    }

    /// Attempts to issue the load in ROB `slot`: address generation,
    /// LSQ search, forwarding, and memory-dependence speculation.
    /// Returns the latency, value source and address, or `None` to
    /// retry later.
    fn try_issue_load(&mut self, slot: usize, seq: u64, uop: &UOp) -> Option<(u32, LoadSrc, u32)> {
        let FuncOp::Load { width, offset } = uop.func else { unreachable!() };
        let addr = self.src_value(uop.srcs[0]).wrapping_add(offset as u32);
        self.stats.events.lsq_searches += 1;
        // The store ring is ascending, so older stores are a prefix.
        let scan = self.lsq.stores.scan_older_stores(seq, addr, width);
        if scan.blocked {
            return None;
        }
        if scan.unknown_older && self.memdep.predict_dependent(uop.pc) {
            // Predicted dependent: even with a forwardable match, an
            // unknown-address store in between could be the real
            // producer — wait for all older store addresses.
            return None;
        }
        // Record the load address for later violation checks.
        let fwd_src = scan.best.map(|(bs, _)| bs);
        self.lsq.loads.set_load_exec(self.rob.lsq_idx[slot], addr, scan.unknown_older, fwd_src);
        match scan.best {
            Some((_, data)) => Some((2, LoadSrc::Fwd(data), addr)),
            None => {
                let lat = 1 + self.hier.data_access(addr);
                Some((lat, LoadSrc::Mem, addr))
            }
        }
    }

    /// Generates the address of the store in ROB `slot`, detecting
    /// memory-order violations by younger speculatively-executed loads.
    /// Returns true when a violation recovery was triggered.
    fn issue_store_addr(&mut self, slot: usize, seq: u64, uop: &UOp) -> bool {
        let FuncOp::Store { width, offset } = uop.func else { unreachable!() };
        let addr = self.src_value(uop.srcs[0]).wrapping_add(offset as u32);
        self.lsq.stores.set_addr(self.rob.lsq_idx[slot], addr);
        // A wild or misaligned store address is recorded on the ROB
        // entry and raised precisely if the store reaches the head.
        if let Some(kind) = memops::check_store(width, addr) {
            self.rob.trap[slot] = Some(kind);
        }
        self.stats.events.lsq_searches += 1;
        // A younger load that already executed reading this address
        // got stale data. The load ring is ascending, so the first
        // match is the oldest victim.
        if let Some((load_seq, load_pc)) = self.lsq.loads.find_violation_victim(seq, addr, width) {
            // Only an actual executed load matters; it re-executes.
            self.stats.memory_violations += 1;
            self.memdep.on_violation(load_pc);
            self.recover(load_seq - 1, load_pc, None);
            return true;
        }
        false
    }

    /// Records the data of the store in ROB `slot` once its value
    /// operand is ready.
    fn record_store_data(&mut self, slot: usize, uop: &UOp) {
        let data = self.src_value(uop.srcs[1]);
        self.lsq.stores.set_data(self.rob.lsq_idx[slot], data);
    }

    // -- recovery ----------------------------------------------------

    /// Squashes everything younger than `boundary_seq` and refetches
    /// from `new_pc`. This is the mechanism whose cost separates the
    /// two machines.
    ///
    /// The Figure 4 recovery is a timing charge (the SS walk's cycles,
    /// STRAIGHT's one); on the host, only the SS walk visits squashed
    /// entries one by one, because it restores the RMT from them. The
    /// rest is word-wide: the squashed ROB range leaves the ready set
    /// and the issue queue as a bit range, the issue-queue occupancy is
    /// the popcount of what stays, and STRAIGHT's squashed destinations
    /// become ready as one range of RP values.
    fn recover(&mut self, boundary_seq: u64, new_pc: u32, ras_cp: Option<RasCheckpoint>) {
        let front_seq = self.rob.front_seq().unwrap_or(boundary_seq + 1);
        let keep = ((boundary_seq + 1).saturating_sub(front_seq) as usize).min(self.rob.len());
        let n = self.rob.len() - keep;
        self.stats.squashed += n as u64;
        let squash_begin = front_seq + keep as u64;
        let squash_end = front_seq + self.rob.len() as u64;
        // Wakeup subscriptions of squashed entries are deliberately NOT
        // unhooked: a stale waiter is dead weight in its list until the
        // tag's next completion drains it, and the ROB rejects it by
        // its cleared `in_iq` bit, or by generation once the slot is
        // reused.
        match self.cfg.isa {
            IsaKind::Ss => {
                // Walk the squashed entries from the tail, restoring
                // previous mappings and refreeing destinations.
                for s in (squash_begin..squash_end).rev() {
                    self.stats.events.rob_walk_reads += 1;
                    let u = &self.rob.uop[self.rob.slot_of(s)];
                    if let (Some(l), Some(prev), Some(d)) = (u.logical_dst, u.prev_phys, u.dst) {
                        self.rmt_state.rmt[l as usize] = prev;
                        self.rmt_state.freelist.push_back(d);
                        self.stats.events.freelist_ops += 1;
                    }
                }
                let walk_cycles = if self.cfg.ideal_recovery {
                    0
                } else {
                    (n as u64).div_ceil(u64::from(self.cfg.walk_width()))
                };
                self.rename_stall_until = self.rename_stall_until.max(self.cycle + walk_cycles);
                self.stats.recovery_stall_cycles += walk_cycles;
            }
            IsaKind::Straight => {
                // One ROB-entry read restores RP and SP (Figure 4).
                let restore = if keep > 0 {
                    let u = &self.rob.uop[self.rob.slot_of(squash_begin - 1)];
                    RpState { rp: u.rp_after, sp: u.sp_after }
                } else {
                    self.arch_rp
                };
                // The squashed entries took the RP values from the
                // restored RP up to the current one, one each (a trap
                // micro-op takes none), so their destinations are that
                // RP range; it is shorter than the register file
                // whenever fewer entries than registers were squashed.
                let phys = self.cfg.phys_regs as usize;
                if n < phys {
                    let (from, to) = (restore.rp as usize, self.rp_state.rp as usize);
                    self.prf_ready.set_range(from, (to + phys - from) % phys);
                } else {
                    for s in squash_begin..squash_end {
                        if let Some(d) = self.rob.uop[self.rob.slot_of(s)].dst {
                            self.prf_ready.set(d as usize);
                        }
                    }
                }
                self.rp_state = restore;
                let stall = u64::from(!self.cfg.ideal_recovery);
                self.rename_stall_until = self.rename_stall_until.max(self.cycle + stall);
                self.stats.recovery_stall_cycles += stall;
            }
        }
        // The ROB tail pointer moves back: squashed sequence numbers
        // are reused, keeping ROB sequence numbers contiguous.
        self.next_seq = boundary_seq + 1;
        // The squashed range leaves the ready set and (in `truncate`)
        // the issue queue a word at a time, before its slots can be
        // recycled.
        self.sched.ready.clear_range(self.rob.slot_of(squash_begin), n);
        self.rob.truncate(keep);
        self.sched.occupancy = self.rob.in_iq.count_ones();
        // Squashed in-flight completions are NOT removed from the
        // timing wheel: their events stay filed and are rejected at
        // drain time, their slots being outside the live window or,
        // once reused, holding another generation.
        self.lsq.squash_younger(boundary_seq);
        self.front_q.clear();
        self.bp.recover();
        if let Some(cp) = ras_cp {
            self.ras.restore(cp);
        }
        self.fetch_pc = new_pc;
        self.fetch_faulted = false;
        self.fetch_stall_until = self.fetch_stall_until.max(self.cycle + 1);
        #[cfg(debug_assertions)]
        self.check_after_recovery();
    }

    /// Recovery's bookkeeping invariants, asserted in debug builds
    /// after every squash: the issue-queue occupancy is the popcount of
    /// `in_iq`; no ready or `in_iq` bit lies outside the live ROB
    /// window; and every live load and store's stored LSQ index holds
    /// its own sequence number.
    #[cfg(debug_assertions)]
    fn check_after_recovery(&self) {
        debug_assert_eq!(self.sched.occupancy, self.rob.in_iq.count_ones(), "occupancy is not the popcount");
        for slot in 0..self.rob.slot_capacity() {
            debug_assert!(
                self.rob.slot_is_live(slot) || !(self.sched.ready.get(slot) || self.rob.in_iq.get(slot)),
                "ready/in_iq bit at slot {slot} outside the live window"
            );
        }
        let front = self.rob.front_seq().unwrap_or(0);
        for seq in front..front + self.rob.len() as u64 {
            let slot = self.rob.slot_of(seq);
            let ring = match self.rob.uop[slot].func {
                FuncOp::Load { .. } => &self.lsq.loads,
                FuncOp::Store { .. } => &self.lsq.stores,
                _ => continue,
            };
            debug_assert_eq!(ring.seq_at(self.rob.lsq_idx[slot]), Some(seq), "LSQ index of seq {seq}");
        }
    }

    // -- rename / dispatch -------------------------------------------

    fn rename_dispatch(&mut self) {
        if self.halted.is_some() {
            return;
        }
        if self.cycle < self.rename_stall_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            let Some(&front) = self.front_q.front() else { return };
            if front.ready_at > self.cycle {
                return;
            }
            if self.rob.len() >= self.cfg.rob_capacity as usize
                || self.sched.occupancy >= self.cfg.iq_entries as usize
            {
                self.stats.backpressure_stall_cycles += 1;
                return;
            }
            let d = &self.decoded[front.slot as usize];
            // LSQ capacity.
            if d.uop.is_load() && self.lsq.loads.len() >= self.cfg.lsq_ld as usize {
                self.stats.backpressure_stall_cycles += 1;
                return;
            }
            if d.uop.is_store() && self.lsq.stores.len() >= self.cfg.lsq_st as usize {
                self.stats.backpressure_stall_cycles += 1;
                return;
            }
            // Rename: physical registers, RP/SP and the RMT/free-list
            // changes, written straight into the ROB slot the next
            // sequence number takes (free: the window is below
            // capacity).
            let seq = self.next_seq;
            let slot = self.rob.slot_of(seq);
            if !d.rename(
                self.cfg.isa,
                seq,
                self.cfg.phys_regs,
                front.pc,
                &mut self.rp_state,
                &mut self.rmt_state,
                &mut self.stats.events,
                &mut self.rob.uop[slot],
            ) {
                self.stats.freelist_stall_cycles += 1;
                return;
            }
            self.front_q.pop_front();
            self.stats.events.decoded += 1;
            let UOp { func, srcs, dst, .. } = self.rob.uop[slot];
            if let Some(p) = dst {
                self.prf_ready.clear(p as usize);
            }
            self.next_seq += 1;
            let uid = self.next_uid;
            self.next_uid += 1;
            self.rob.push(seq, uid);
            if self.rob.uop[slot].is_control() {
                self.rob.predicted_next[slot] = front.predicted_next;
                self.rob.ras_cp[slot] = front.ras_cp;
            }
            // A load or store keeps its LSQ ring index in the ROB. Trap
            // micro-ops (rename faults included) never enter the LSQ.
            match func {
                FuncOp::Load { width, .. } => {
                    self.rob.lsq_idx[slot] = self.lsq.loads.push_back(seq, front.pc, width);
                }
                FuncOp::Store { width, .. } => {
                    self.rob.lsq_idx[slot] = self.lsq.stores.push_back(seq, front.pc, width);
                }
                _ => {}
            }
            // Subscribe to the wakeup list of each not-yet-ready
            // source; an entry with none gets its ready bit set
            // immediately. Stores watch their base operand only — the
            // split AGU lets the address issue before the data is
            // ready, and the data tag is picked up at that point.
            let mut pending = 0u8;
            if !matches!(func, FuncOp::Trap(_) | FuncOp::Sys { .. } | FuncOp::Halt) {
                pending = self.watch(srcs[0], slot, uid);
                if !matches!(func, FuncOp::Store { .. }) {
                    pending += self.watch(srcs[1], slot, uid);
                }
                if pending == 0 {
                    self.sched.ready.set(slot);
                }
                self.sched.occupancy += 1;
                self.stats.events.iq_inserts += 1;
                self.rob.in_iq.set(slot);
            }
            self.rob.pending[slot] = pending;
            self.stats.events.rob_writes += 1;
        }
    }

    // -- fetch --------------------------------------------------------

    fn fetch(&mut self) {
        if self.halted.is_some() || self.fetch_faulted || self.cycle < self.fetch_stall_until {
            return;
        }
        let capacity = (self.cfg.fetch_width * (self.cfg.frontend_latency + 2)) as usize;
        if self.front_q.len() >= capacity {
            return;
        }
        let mut pc = self.fetch_pc;
        // Instruction-cache access for the group's first line; a miss
        // stalls fetch (the hit latency is folded into the front-end
        // depth).
        let extra = self.hier.fetch_access(pc);
        if extra > 0 {
            self.fetch_stall_until = self.cycle + u64::from(extra);
            return;
        }
        let delay = if self.cfg.ideal_recovery { 1 } else { u64::from(self.cfg.frontend_latency) };
        let code_base = self.image.code_base;
        for _ in 0..self.cfg.fetch_width {
            if self.front_q.len() >= capacity {
                break;
            }
            // A fetch that leaves the code segment or an undecodable
            // word enters the pipe as a fault entry; fetch then parks
            // until a recovery redirects it (on the correct path the
            // fault commits and ends the simulation).
            let fault_slot = self.decoded.len() - 1;
            let slot = if pc < code_base || !pc.is_multiple_of(4) {
                fault_slot
            } else {
                (((pc - code_base) / 4) as usize).min(fault_slot)
            };
            let info = self.decoded[slot].control;
            let faulted = self.decoded[slot].uop.is_trap();
            let ras_cp = self.ras.checkpoint();
            let predicted_next = match info {
                ControlInfo::None => pc.wrapping_add(4),
                ControlInfo::CondBranch { target } => {
                    let mut taken = self.bp.predict(pc);
                    if self.force_flip_branch {
                        // Injected fault: invert this prediction.
                        taken = !taken;
                        self.force_flip_branch = false;
                    }
                    if taken { target } else { pc.wrapping_add(4) }
                }
                ControlInfo::DirectJump { target, is_call } => {
                    if is_call {
                        self.ras.push(pc.wrapping_add(4));
                    }
                    target
                }
                ControlInfo::IndirectJump { is_call, is_return } => {
                    let t = if is_return { self.ras.pop() } else { pc.wrapping_add(4) };
                    if is_call {
                        self.ras.push(pc.wrapping_add(4));
                    }
                    t
                }
            };
            self.front_q.push_back(FrontEntry {
                ready_at: self.cycle + delay,
                pc,
                slot: slot as u32,
                predicted_next,
                ras_cp,
            });
            self.stats.events.fetched += 1;
            if faulted {
                self.fetch_faulted = true;
                break;
            }
            let sequential = predicted_next == pc.wrapping_add(4);
            pc = predicted_next;
            if !sequential {
                break; // redirect: next group starts at the target
            }
        }
        if !self.fetch_faulted {
            self.fetch_pc = pc;
        }
    }

    // -- fault injection ----------------------------------------------

    /// Schedules a deterministic fault to be injected at the start of
    /// `at_cycle` (see [`FaultKind`] for the menu).
    pub fn schedule_fault(&mut self, at_cycle: u64, kind: FaultKind) {
        self.pending_faults.push((at_cycle, kind));
    }

    /// Number of scheduled faults that have been applied so far.
    #[must_use]
    pub fn faults_applied(&self) -> u32 {
        self.faults_applied
    }

    /// True when the hazard sanitizer's shadow emulator exists. It is
    /// built lazily at the first retirement with `cfg.sanitizer` set,
    /// so default runs never clone the image into a shadow emulator.
    #[must_use]
    pub fn shadow_allocated(&self) -> bool {
        self.shadow.is_some()
    }

    fn apply_due_faults(&mut self) {
        if self.pending_faults.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.pending_faults.len() {
            if self.pending_faults[i].0 <= self.cycle {
                let (_, kind) = self.pending_faults.remove(i);
                self.apply_fault(kind);
            } else {
                i += 1;
            }
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        self.faults_applied += 1;
        match kind {
            FaultKind::PrfBitFlip { reg, bit } => {
                let r = reg as usize % self.prf.len();
                self.prf[r] ^= 1u32 << (bit % 32);
            }
            FaultKind::ForceMispredict => self.force_flip_branch = true,
            FaultKind::RasCorrupt { slots } => {
                for i in 0..slots {
                    self.ras.push(0xdead_0000u32.wrapping_add(i * 4));
                }
            }
            FaultKind::LoseCompletion => self.inflight.clear(),
        }
    }

    // -- watchdog -----------------------------------------------------

    fn watchdog_fire(&mut self) {
        let stalled = self.cycle - self.last_commit_cycle;
        let head = (!self.rob.is_empty()).then(|| {
            let hs = self.rob.head_slot();
            let state = match self.rob.state[hs] {
                RState::Waiting => "waiting",
                RState::Issued => "issued",
                RState::Done => "done",
            };
            (self.rob.seq[hs], self.rob.uop[hs].pc, state)
        });
        let report = WatchdogReport {
            stalled_cycles: stalled,
            cycle: self.cycle,
            retired: self.stats.retired,
            rob_head: head,
            rob_len: self.rob.len(),
            iq_len: self.sched.occupancy,
            inflight_len: self.inflight.len(),
            lsq_len: self.lsq.len(),
            front_len: self.front_q.len(),
            fetch_pc: self.fetch_pc,
            fetch_stall_until: self.fetch_stall_until,
            rename_stall_until: self.rename_stall_until,
        };
        let pc = head.map_or(self.fetch_pc, |(_, pc, _)| pc);
        self.watchdog_report = Some(report);
        self.raise(TrapKind::Watchdog { stalled_cycles: stalled }, pc);
    }

    // -- driver -------------------------------------------------------

    /// Runs one pipeline stage. With the `stage-profile` feature, the
    /// stage whose turn it is this sampling period is timed and its
    /// time, less the clock's own cost and scaled by
    /// `5 × STAGE_SAMPLE_PERIOD`, charged to `slot` (unless the sample
    /// is a host interruption, see [`STAGE_SAMPLE_MAX_NS`]).
    #[inline]
    fn run_stage(&mut self, slot: usize, f: impl FnOnce(&mut Core)) {
        #[cfg(feature = "stage-profile")]
        let t0 = (self.cycle.is_multiple_of(STAGE_SAMPLE_PERIOD)
            && (self.cycle / STAGE_SAMPLE_PERIOD) % 5 == slot as u64)
            .then(std::time::Instant::now);
        f(self);
        #[cfg(feature = "stage-profile")]
        if let Some(t0) = t0 {
            let t1 = std::time::Instant::now();
            let clock = t1.elapsed().as_nanos() as u64;
            let ns = (t1 - t0).as_nanos() as u64;
            if ns <= STAGE_SAMPLE_MAX_NS {
                let ns = ns.saturating_sub(clock).saturating_mul(5 * STAGE_SAMPLE_PERIOD);
                self.stage_ns[slot] = self.stage_ns[slot].saturating_add(ns);
            }
        }
        let _ = slot;
    }

    /// Estimated host nanoseconds spent in each pipeline stage so far,
    /// labeled by [`STAGE_NAMES`]: a rotating sample, one stage timed
    /// every [`STAGE_SAMPLE_PERIOD`] cycles, scaled up.
    #[cfg(feature = "stage-profile")]
    #[must_use]
    pub fn stage_profile(&self) -> [(&'static str, u64); 5] {
        let mut out = [("", 0u64); 5];
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            out[i] = (name, self.stage_ns[i]);
        }
        out
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.apply_due_faults();
        let retired_before = self.stats.retired;
        self.run_stage(0, Core::commit);
        if self.halted.is_some() || self.fatal.is_some() {
            return;
        }
        self.run_stage(1, Core::complete);
        self.run_stage(2, Core::issue);
        self.run_stage(3, Core::rename_dispatch);
        self.run_stage(4, Core::fetch);
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        if self.stats.retired != retired_before {
            self.last_commit_cycle = self.cycle;
        } else if self.cycle - self.last_commit_cycle > self.cfg.watchdog_limit {
            self.watchdog_fire();
        }
    }

    fn exit(&self) -> SimExit {
        if let Some(code) = self.halted {
            SimExit::Completed { code }
        } else if let Some(t) = self.fatal {
            SimExit::Trap(t)
        } else {
            SimExit::CycleLimit
        }
    }

    /// The one run loop: steps until completion, trap, watchdog, the
    /// cycle budget, or `max_retired` commits.
    fn advance(&mut self, max_retired: u64, max_cycles: u64) -> SimExit {
        while self.halted.is_none()
            && self.fatal.is_none()
            && self.cycle < max_cycles
            && self.stats.retired < max_retired
        {
            self.step();
        }
        self.stats.mem = self.hier.stats();
        self.exit()
    }

    /// Runs in place until `max_retired` instructions have committed
    /// (or completion, trap, watchdog, or the cycle budget), leaving
    /// the core inspectable; `u64::MAX` runs to completion. A stop at
    /// the retire budget reports [`SimExit::CycleLimit`] — no separate
    /// exit variant exists, and sampled-interval callers distinguish
    /// the cases by the retired count in the stats.
    pub fn run_retired(&mut self, max_retired: u64, max_cycles: u64) -> SimResult {
        SimResult {
            exit: self.advance(max_retired, max_cycles),
            exit_code: self.halted,
            watchdog: self.watchdog_report.clone(),
            stdout: self.sys.stdout.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Runs to completion (or trap, watchdog, or the cycle budget),
    /// moving the output and statistics out of the core.
    #[must_use]
    pub fn run(mut self, max_cycles: u64) -> SimResult {
        SimResult {
            exit: self.advance(u64::MAX, max_cycles),
            exit_code: self.halted,
            watchdog: self.watchdog_report,
            stdout: self.sys.stdout,
            stats: self.stats,
        }
    }
}

/// Simulates a linked image on the given machine.
///
/// # Errors
///
/// Returns [`CoreError`] when the machine cannot execute the image at
/// all (ISA mismatch, undersized register file).
pub fn simulate(
    image: impl Into<Arc<Image>>,
    cfg: MachineConfig,
    max_cycles: u64,
) -> Result<SimResult, CoreError> {
    Ok(Core::new(image, cfg)?.run(max_cycles))
}

