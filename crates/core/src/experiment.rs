//! The paper's evaluation as a uniform experiment grid.
//!
//! Every figure/table of the evaluation (Figures 11–17, the §VI-B
//! sensitivity study, Table I) is a named [`ExperimentSpec`], defined
//! in one place: [`ExperimentId::spec`] gives its title,
//! [`ExperimentSpec::cells`] enumerates its [`CellSpec`]s (one cell per
//! workload × core config × ISA profile point), and
//! [`ExperimentSpec::render`] turns its records back into the
//! paper-shaped text report. Cells are independent, so the
//! [`lab`](crate::lab) runner executes them in parallel; each produces
//! a serializable [`CellRecord`], and a whole experiment's records form
//! an [`ExperimentResult`] that round-trips through JSON
//! (`BENCH_<name>.json`).
//!
//! `render` writes the report header, cross-checks that the cells of
//! each group printed the same program output, and hands the records
//! to the figure's own formatter. A report is a pure function of the
//! records, so a saved JSON file regenerates its figure exactly.
//!
//! Every failure mode — a workload that fails to build for one
//! target, a machine that rejects an image, a run that ends in a trap
//! or the cycle budget, or a functional divergence between variants —
//! propagates as a typed [`ExperimentError`] naming the workload and
//! the target/machine involved, instead of panicking mid-sweep.

use std::str::FromStr;
use std::sync::Arc;

use straight_asm::Image;
use straight_json::{fnv1a64, json_record};
use straight_sim::emu::{Checkpoint, EmuExit, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_sim::pipeline::{
    simulate, Core, CoreError, MachineConfig, SimExit, SimResult, SimStats,
};
use straight_sim::KindCounts;
use straight_workloads::{coremark, dhrystone};

use crate::report;
use crate::{build, BuildError, Target};

/// Cycle budget for experiment runs.
pub const MAX_CYCLES: u64 = 20_000_000_000;

/// The Table-I distance limit used by the evaluated models.
pub const EVAL_MAX_DISTANCE: u16 = 31;

/// Schema version stamped into every [`ExperimentResult`]; bump when
/// the record shape changes incompatibly.
pub const SCHEMA_VERSION: u32 = 2;

/// The distance limits swept by the §VI-B sensitivity study.
pub const SENSITIVITY_DISTANCES: [u16; 4] = [1023, 127, 63, 31];

/// The relative clock frequencies of Figure 17.
pub const FIG17_FREQS: [f64; 3] = [1.0, 2.5, 4.0];

/// A typed experiment selector — the identity of one named experiment
/// of the grid. Replaces the old stringly-typed lookup: both the CLI
/// and the daemon parse user input into an `ExperimentId` up front
/// (via [`FromStr`]), so an unknown name is rejected at the edge with
/// a structured [`UnknownExperiment`] error listing the valid ids,
/// and everything below the parse works with an exhaustive enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExperimentId {
    /// Figure 11: 4-way relative performance.
    Fig11,
    /// Figure 12: 2-way relative performance.
    Fig12,
    /// Figure 13: misprediction-penalty effect.
    Fig13,
    /// Figure 14: TAGE branch predictor.
    Fig14,
    /// Figure 15: retired instruction mix.
    Fig15,
    /// Figure 16: cumulative source-distance fractions.
    Fig16,
    /// Figure 17: relative power per module.
    Fig17,
    /// §VI-B distance-limit sensitivity sweep.
    Sensitivity,
    /// Table I: evaluated machine models.
    Table1,
    /// Methodology check: checkpoint-sampled simulation vs full runs.
    Sampled,
}

impl ExperimentId {
    /// Every experiment of the grid, in run order.
    pub const ALL: [ExperimentId; 10] = [
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Fig15,
        ExperimentId::Fig16,
        ExperimentId::Fig17,
        ExperimentId::Sensitivity,
        ExperimentId::Table1,
        ExperimentId::Sampled,
    ];

    /// The grid name (what [`FromStr`] parses and [`std::fmt::Display`]
    /// prints).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Fig16 => "fig16",
            ExperimentId::Fig17 => "fig17",
            ExperimentId::Sensitivity => "sensitivity",
            ExperimentId::Table1 => "table1",
            ExperimentId::Sampled => "sampled",
        }
    }

    /// The full [`ExperimentSpec`] behind this id.
    #[must_use]
    pub fn spec(self) -> ExperimentSpec {
        let (title, paper_ref) = match self {
            ExperimentId::Fig11 => {
                ("Figure 11: 4-way relative performance (vs SS-4way)", "Figure 11")
            }
            ExperimentId::Fig12 => {
                ("Figure 12: 2-way relative performance (vs SS-2way)", "Figure 12")
            }
            ExperimentId::Fig13 => {
                ("Figure 13: misprediction-penalty effect (vs SS-2way)", "Figure 13")
            }
            ExperimentId::Fig14 => ("Figure 14: with TAGE branch predictor (vs SS)", "Figure 14"),
            ExperimentId::Fig15 => {
                ("Figure 15: retired instruction mix (normalized to SS)", "Figure 15")
            }
            ExperimentId::Fig16 => {
                ("Figure 16: cumulative fraction of source distances", "Figure 16")
            }
            ExperimentId::Fig17 => (
                "Figure 17: relative power (normalized to SS at 1.0x, per module)",
                "Figure 17",
            ),
            ExperimentId::Sensitivity => {
                ("Sensitivity: max source distance vs CoreMark cycles", "Section VI-B")
            }
            ExperimentId::Table1 => ("Table I: evaluated models", "Table I"),
            ExperimentId::Sampled => {
                ("Sampled: checkpoint-sampled simulation vs full runs", "Methodology")
            }
        };
        ExperimentSpec { id: self, title, paper_ref }
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The structured error for a name that matches no [`ExperimentId`]:
/// carries the offending name and renders the full list of valid ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The name that failed to parse.
    pub name: String,
}

impl UnknownExperiment {
    /// The valid names, for structured (e.g. JSON) error responses.
    #[must_use]
    pub fn valid_names() -> Vec<&'static str> {
        ExperimentId::ALL.iter().map(|id| id.name()).collect()
    }
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown experiment `{}` (valid: {})", self.name, Self::valid_names().join(", "))
    }
}

impl std::error::Error for UnknownExperiment {}

impl FromStr for ExperimentId {
    type Err = UnknownExperiment;

    fn from_str(s: &str) -> Result<ExperimentId, UnknownExperiment> {
        ExperimentId::ALL
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| UnknownExperiment { name: s.to_string() })
    }
}

/// A failure while driving an experiment, with enough context to know
/// which workload/target/machine combination broke.
#[derive(Debug)]
pub enum ExperimentError {
    /// A workload failed to compile or link for one target.
    Build {
        /// Workload name.
        workload: String,
        /// Target description ("RV32IM", "STRAIGHT(RE+)", ...).
        target: &'static str,
        /// The underlying build failure.
        source: BuildError,
    },
    /// A machine model rejected the image outright.
    Machine {
        /// Workload name.
        workload: String,
        /// Machine configuration name.
        machine: String,
        /// The underlying construction failure.
        source: CoreError,
    },
    /// A run did not complete normally (trap, watchdog, or cycle/step
    /// budget).
    Abnormal {
        /// Workload name.
        workload: String,
        /// Machine or emulator description.
        machine: String,
        /// Human-readable exit description.
        exit: String,
    },
    /// Two variants of the same workload produced different output —
    /// the experiment's numbers would compare unlike programs.
    Divergence {
        /// Workload name.
        workload: String,
        /// The variant that disagrees with the baseline.
        variant: String,
    },
    /// The batch owning this cell was cancelled before the cell ran
    /// (daemon job cancellation; never produced by blocking runs).
    Cancelled {
        /// Cell id (`experiment/group/label`).
        cell: String,
    },
    /// The cell's execution panicked. The panic is caught at the
    /// worker boundary (the pool survives; see `lab.rs`) and surfaced
    /// as this structured terminal state instead of silently eating a
    /// worker thread.
    Panic {
        /// Cell id (`experiment/group/label`).
        cell: String,
        /// The panic payload, when it was a string.
        msg: String,
    },
    /// An [`ExperimentResult`] is missing cells its figure needs (a
    /// truncated or foreign record file).
    Malformed {
        /// Experiment name.
        experiment: String,
        /// What is missing or inconsistent.
        msg: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Build { workload, target, source } => {
                write!(f, "{workload}/{target}: build failed: {source}")
            }
            ExperimentError::Machine { workload, machine, source } => {
                write!(f, "{workload} on {machine}: {source}")
            }
            ExperimentError::Abnormal { workload, machine, exit } => {
                write!(f, "{workload} on {machine}: did not complete: {exit}")
            }
            ExperimentError::Divergence { workload, variant } => {
                write!(f, "{workload}: {variant} output diverged from the baseline")
            }
            ExperimentError::Cancelled { cell } => {
                write!(f, "{cell}: cancelled before execution")
            }
            ExperimentError::Panic { cell, msg } => {
                write!(f, "{cell}: worker panicked: {msg}")
            }
            ExperimentError::Malformed { experiment, msg } => {
                write!(f, "{experiment}: malformed result: {msg}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

pub(crate) fn target_name(target: Target) -> &'static str {
    match target {
        Target::Riscv => "RV32IM",
        Target::StraightRaw { .. } => "STRAIGHT(RAW)",
        Target::StraightRePlus { .. } => "STRAIGHT(RE+)",
    }
}

pub(crate) fn build_for(
    workload: &str,
    src: &str,
    target: Target,
) -> Result<Image, ExperimentError> {
    build(src, target).map_err(|source| ExperimentError::Build {
        workload: workload.to_string(),
        target: target_name(target),
        source,
    })
}

/// Runs an image within `max_cycles` and requires normal completion.
pub(crate) fn run_checked(
    workload: &str,
    image: &Arc<Image>,
    cfg: MachineConfig,
    max_cycles: u64,
) -> Result<SimResult, ExperimentError> {
    let machine = cfg.name.clone();
    let result =
        simulate(Arc::clone(image), cfg, max_cycles).map_err(|source| ExperimentError::Machine {
            workload: workload.to_string(),
            machine: machine.clone(),
            source,
        })?;
    if result.exit_code.is_none() {
        return Err(ExperimentError::Abnormal {
            workload: workload.to_string(),
            machine,
            exit: format!("{:?}", result.exit),
        });
    }
    Ok(result)
}

/// How many evenly spaced checkpoints a sampled cell simulates.
pub const SAMPLE_COUNT: u64 = 10;

/// Upper bound on the retired instructions each sampled interval
/// cycle-simulates (intervals shorter than this use their full
/// length).
pub const SAMPLE_WINDOW: u64 = 50_000;

/// The numbers a checkpoint-sampled cell records (see
/// [`CellKind::Sampled`]).
pub(crate) struct SampledOutcome {
    /// Extrapolated whole-program cycles (`retired / ipc_est`).
    pub cycles_est: u64,
    /// Aggregate IPC over the simulated sample intervals.
    pub ipc_est: f64,
    /// Total dynamic instructions of the program (from the emulator
    /// fast-forward, not an estimate).
    pub retired: u64,
    /// Program output, captured by the emulator pass.
    pub stdout: String,
}

/// Instructions between the checkpoints the first pass of a sampled
/// cell keeps, before the grid first fills.
const CHECKPOINT_SPACING: u64 = 65_536;

/// Most first-pass checkpoints kept at once. A full grid drops every
/// other checkpoint and doubles its spacing.
const MAX_CHECKPOINTS: usize = 64;

/// Checkpoint-sampled simulation: a fast-tier emulator pass measures
/// the dynamic length `N` and the program output, keeping checkpoints
/// on a doubling grid as it goes; then the same emulator visits
/// [`SAMPLE_COUNT`] sample points at `k * (N / SAMPLE_COUNT)`. It
/// reaches each by running forward, after restoring the nearest kept
/// checkpoint at or below the point when that checkpoint is ahead of
/// the emulator or the emulator is already past the point. The
/// cycle-accurate core resumes from each point and simulates up to
/// [`SAMPLE_WINDOW`] retired instructions, each resumed core within
/// `max_cycles`. Aggregate sample IPC extrapolates to whole-program
/// cycles.
pub(crate) fn run_sampled(
    workload: &str,
    image: &Arc<Image>,
    cfg: MachineConfig,
    max_cycles: u64,
    target: Target,
) -> Result<SampledOutcome, ExperimentError> {
    let spacing = CHECKPOINT_SPACING;
    let emu_image = Arc::clone(image);
    match target {
        Target::Riscv => {
            sample_on(workload, image, cfg, max_cycles, RiscvEmu::new(emu_image), spacing)
        }
        _ => sample_on(workload, image, cfg, max_cycles, StraightEmu::new(emu_image), spacing),
    }
}

fn sample_on<E: ExecBackend>(
    workload: &str,
    image: &Arc<Image>,
    cfg: MachineConfig,
    max_cycles: u64,
    mut emu: E,
    first_spacing: u64,
) -> Result<SampledOutcome, ExperimentError> {
    let abnormal = |exit: String| ExperimentError::Abnormal {
        workload: workload.to_string(),
        machine: format!("{} (sampled)", cfg.name),
        exit,
    };
    // Pass 1: the whole program on the fast tier, for its dynamic
    // length and functional output. Checkpoint `i` of the grid sits at
    // `i * spacing` instructions.
    let mut spacing = first_spacing;
    let mut grid: Vec<Checkpoint> = Vec::with_capacity(MAX_CHECKPOINTS);
    loop {
        match emu.run_with(grid.len() as u64 * spacing, TierConfig::fast()) {
            EmuExit::StepLimit => {}
            EmuExit::Done { .. } => break,
            exit => return Err(abnormal(format!("emulator fast-forward: {exit:?}"))),
        }
        // Pages unchanged since the previous checkpoint share its copy.
        let cp = grid.last().map_or_else(|| emu.checkpoint(), |last| emu.checkpoint_after(last));
        grid.push(cp);
        if grid.len() == MAX_CHECKPOINTS {
            let mut keep = false;
            grid.retain(|_| {
                keep = !keep;
                keep
            });
            spacing *= 2;
        }
    }
    let total = emu.executed();
    let stdout = emu.stdout().to_string();
    let interval = (total / SAMPLE_COUNT).max(1);
    let window = interval.min(SAMPLE_WINDOW);
    // Pass 2: reach each sample point from the nearest kept checkpoint
    // (or from the emulator's current position, when that is closer),
    // checkpoint there and cycle-simulate a bounded interval from it.
    // Restoring and running forward lands on exactly the state a fresh
    // emulator reaches, so the checkpoints match a from-scratch run.
    let mut sampled_retired = 0u64;
    let mut sampled_cycles = 0u64;
    for k in 0..SAMPLE_COUNT {
        let point = k * interval;
        if point >= total {
            break; // The program ended before this sample point.
        }
        let near = grid.iter().rfind(|cp| cp.executed() <= point);
        if let Some(near) = near {
            if near.executed() > emu.executed() || emu.executed() > point {
                emu.restore(near).map_err(|e| abnormal(format!("restore: {e}")))?;
            }
        }
        if emu.run_with(point, TierConfig::fast()) != EmuExit::StepLimit || emu.executed() != point
        {
            return Err(abnormal(format!("emulator did not stop at sample point {point}")));
        }
        let cp = near.map_or_else(|| emu.checkpoint(), |near| emu.checkpoint_after(near));
        let mut core = Core::resume_from(Arc::clone(image), cfg.clone(), &cp).map_err(|source| {
            ExperimentError::Machine {
                workload: workload.to_string(),
                machine: cfg.name.clone(),
                source,
            }
        })?;
        // A resumed core starts with an empty pipeline and cold
        // predictors/caches; the first half of the window warms the
        // microarchitectural state and is excluded from the estimate
        // (the retire/cycle budgets of `run_retired` are cumulative,
        // so the second call measures the delta).
        let mut run_to = |retired: u64| {
            let run = core.run_retired(retired, max_cycles);
            match &run.exit {
                SimExit::Trap(trap) => {
                    Err(abnormal(format!("sample at {}: {trap:?}", cp.executed())))
                }
                // A stop at the retire budget reports `CycleLimit` too.
                SimExit::CycleLimit if run.stats.cycles >= max_cycles => Err(abnormal(format!(
                    "sample at {}: cycle budget {max_cycles} exhausted",
                    cp.executed()
                ))),
                _ => Ok(run),
            }
        };
        let warm = run_to(window / 2)?;
        let (warm_retired, warm_cycles) = (warm.stats.retired, warm.stats.cycles);
        let sample = run_to(window)?;
        sampled_retired += sample.stats.retired - warm_retired;
        sampled_cycles += sample.stats.cycles - warm_cycles;
    }
    if sampled_cycles == 0 || sampled_retired == 0 {
        return Err(abnormal("no instructions were cycle-simulated".to_string()));
    }
    let ipc_est = sampled_retired as f64 / sampled_cycles as f64;
    let cycles_est = (total as f64 / ipc_est).round() as u64;
    Ok(SampledOutcome { cycles_est, ipc_est, retired: total, stdout })
}

/// Iteration counts (and the cycle budget) one grid run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Dhrystone iteration count.
    pub dhry_iters: u32,
    /// CoreMark iteration count.
    pub cm_iters: u32,
    /// Per-run cycle budget.
    pub max_cycles: u64,
}

impl Default for RunParams {
    fn default() -> RunParams {
        RunParams { dhry_iters: 200, cm_iters: 3, max_cycles: MAX_CYCLES }
    }
}

impl RunParams {
    /// Reduced counts for smoke runs (`straight-lab --quick`).
    #[must_use]
    pub fn quick() -> RunParams {
        RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() }
    }
}

json_record!(RunParams { dhry_iters, cm_iters, max_cycles });

/// The two paper workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The Dhrystone-like benchmark.
    Dhrystone,
    /// The CoreMark-like benchmark.
    Coremark,
}

impl WorkloadKind {
    /// Display name (matches the figures' group labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Dhrystone => "Dhrystone",
            WorkloadKind::Coremark => "Coremark",
        }
    }

    /// MinC source at the parameters' iteration count.
    #[must_use]
    pub fn source(self, params: &RunParams) -> String {
        match self {
            WorkloadKind::Dhrystone => dhrystone(params.dhry_iters),
            WorkloadKind::Coremark => coremark(params.cm_iters),
        }
    }

    /// The iteration count this workload uses from `params`.
    #[must_use]
    pub fn iters(self, params: &RunParams) -> u32 {
        match self {
            WorkloadKind::Dhrystone => params.dhry_iters,
            WorkloadKind::Coremark => params.cm_iters,
        }
    }
}

/// What a cell measures.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// A cycle-accurate run on a machine model.
    Pipeline {
        /// Compilation target / ISA profile.
        target: Target,
        /// Machine model.
        machine: MachineConfig,
    },
    /// A functional-emulator run collecting the retired-instruction
    /// mix (Figure 15).
    EmuMix {
        /// Compilation target / ISA profile.
        target: Target,
    },
    /// A functional-emulator run profiling source-operand distances
    /// (Figure 16).
    EmuDistance {
        /// Compilation target / ISA profile.
        target: Target,
    },
    /// No execution: the cell records a machine configuration
    /// fingerprint (Table I).
    ConfigDump {
        /// Machine model.
        machine: MachineConfig,
    },
    /// Checkpoint-sampled cycle simulation: a fast-tier emulator run
    /// finds the dynamic instruction count and drops architectural
    /// checkpoints at evenly spaced points; the cycle-accurate core
    /// resumes from each and simulates a bounded interval, and the
    /// recorded cycles/IPC are the extrapolated estimates.
    Sampled {
        /// Compilation target / ISA profile.
        target: Target,
        /// Machine model the sampled intervals run on.
        machine: MachineConfig,
    },
}

/// One point of the experiment grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Owning experiment.
    pub experiment: ExperimentId,
    /// Figure group (usually the workload or scale: "Dhrystone",
    /// "2-way", ...).
    pub group: String,
    /// Bar label within the group ("SS", "STRAIGHT(RE+)", ...).
    pub label: String,
    /// Workload, when the cell executes one.
    pub workload: Option<WorkloadKind>,
    /// Figure-specific scalar parameter (the distance limit for the
    /// sensitivity sweep).
    pub param: Option<u64>,
    /// What to measure.
    pub kind: CellKind,
}

impl CellSpec {
    /// Stable identifier: `experiment/group/label`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.experiment, self.group, self.label)
    }

    /// The cell's compilation target, when it executes code.
    #[must_use]
    pub fn target(&self) -> Option<Target> {
        match &self.kind {
            CellKind::Pipeline { target, .. }
            | CellKind::EmuMix { target }
            | CellKind::EmuDistance { target }
            | CellKind::Sampled { target, .. } => Some(*target),
            CellKind::ConfigDump { .. } => None,
        }
    }

    /// The cell's machine model, when it runs on one.
    #[must_use]
    pub fn machine(&self) -> Option<&MachineConfig> {
        match &self.kind {
            CellKind::Pipeline { machine, .. }
            | CellKind::ConfigDump { machine }
            | CellKind::Sampled { machine, .. } => Some(machine),
            _ => None,
        }
    }

    /// Configuration fingerprint: a stable 64-bit hash over everything
    /// that determines the cell's numbers (machine config, target,
    /// iteration count, cycle budget).
    #[must_use]
    pub fn fingerprint(&self, params: &RunParams) -> String {
        let iters = self.workload.map(|w| w.iters(params));
        let machine = self.machine().map(|m| format!("{m:?}"));
        // Sampled cells carry a suffix so their estimate never shares
        // a fingerprint with the full simulation of the same
        // configuration; every other kind keeps the historical text
        // (stored records reference these hashes).
        let kind = match &self.kind {
            CellKind::Sampled { .. } => "|sampled",
            _ => "",
        };
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{}{kind}",
            self.target(),
            machine,
            iters,
            self.workload.map(WorkloadKind::name),
            params.max_cycles,
        );
        format!("{:016x}", fnv1a64(text.as_bytes()))
    }
}

/// One executed cell, in fully serializable form. Optional fields are
/// `null` for cell kinds they don't apply to, keeping one schema for
/// the whole grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellRecord {
    /// `experiment/group/label`.
    pub id: String,
    /// Owning experiment.
    pub experiment: String,
    /// Figure group.
    pub group: String,
    /// Bar label.
    pub label: String,
    /// Workload name.
    pub workload: Option<String>,
    /// Target description ("RV32IM", "STRAIGHT(RE+)", ...).
    pub target: Option<String>,
    /// Machine configuration name.
    pub machine: Option<String>,
    /// Configuration fingerprint (see [`CellSpec::fingerprint`]).
    pub config_fingerprint: String,
    /// Figure-specific parameter (sensitivity distance limit).
    pub param: Option<u64>,
    /// Execution cycles (0 for emulator/config cells).
    pub cycles: u64,
    /// Retired (architectural for emulator cells) instructions.
    pub retired: u64,
    /// Instructions per cycle (0 when cycles is 0).
    pub ipc: f64,
    /// Full pipeline statistics, for pipeline cells.
    pub stats: Option<SimStats>,
    /// Retired-kind histogram, for emulator-mix cells.
    pub kinds: Option<KindCounts>,
    /// Cumulative distance fractions, for distance cells.
    pub distances: Option<Vec<(u32, f64)>>,
    /// Largest source distance observed, for distance cells.
    pub max_distance_used: Option<u64>,
    /// FNV-1a digest of the program's stdout (functional checksum).
    pub stdout_digest: Option<String>,
    /// Wall-clock time of the cell, milliseconds.
    pub wall_ms: f64,
    /// Host wall time of the cycle-accurate simulation proper,
    /// milliseconds (pipeline cells only). Cells deduplicated by the
    /// run cache report the time of the one shared simulation.
    pub sim_wall_ms: Option<f64>,
    /// Simulation throughput: thousands of simulated cycles per host
    /// second (`cycles / sim_wall_ms`), pipeline cells only.
    pub ksim_cycles_per_sec: Option<f64>,
}

json_record!(CellRecord {
    id,
    experiment,
    group,
    label,
    workload,
    target,
    machine,
    config_fingerprint,
    param,
    cycles,
    retired,
    ipc,
    stats,
    kinds,
    distances,
    max_distance_used,
    stdout_digest,
    wall_ms,
    sim_wall_ms,
    ksim_cycles_per_sec,
});

/// A full experiment's machine-readable result: provenance plus one
/// [`CellRecord`] per grid point. This is the content of a
/// `BENCH_<name>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Record schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment name ("fig11", ...).
    pub experiment: String,
    /// Human title (the report header).
    pub title: String,
    /// Which paper figure/table/section this reproduces.
    pub paper_ref: String,
    /// `git rev-parse HEAD` at run time ("unknown" outside a
    /// checkout).
    pub git_rev: String,
    /// Iteration counts used.
    pub params: RunParams,
    /// Aggregate compute time across the experiment's cells,
    /// milliseconds (cells may have run in parallel).
    pub wall_ms: f64,
    /// One record per cell, in grid order.
    pub cells: Vec<CellRecord>,
}

impl ExperimentResult {
    /// A copy with volatile (timing) fields zeroed: two runs of the
    /// same grid at the same revision compare equal on this.
    #[must_use]
    pub fn normalized(&self) -> ExperimentResult {
        let mut out = self.clone();
        out.wall_ms = 0.0;
        for cell in &mut out.cells {
            cell.wall_ms = 0.0;
            cell.sim_wall_ms = None;
            cell.ksim_cycles_per_sec = None;
        }
        out
    }
}

json_record!(ExperimentResult {
    schema_version,
    experiment,
    title,
    paper_ref,
    git_rev,
    params,
    wall_ms,
    cells,
});

/// One named experiment of the grid (obtained from
/// [`ExperimentId::spec`]): its cells ([`ExperimentSpec::cells`]) and
/// its report ([`ExperimentSpec::render`]).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Typed identity ("fig11", ..., "sensitivity", "table1").
    pub id: ExperimentId,
    /// Report title (the `== title ==` header of the rendered report).
    pub title: &'static str,
    /// Paper reference ("Figure 11", "Table I", "§VI-B").
    pub paper_ref: &'static str,
}

/// The full grid, in run order.
#[must_use]
pub fn all() -> Vec<ExperimentSpec> {
    ExperimentId::ALL.into_iter().map(ExperimentId::spec).collect()
}

/// Looks an experiment up by name.
#[must_use]
pub fn find(name: &str) -> Option<ExperimentSpec> {
    name.parse::<ExperimentId>().ok().map(ExperimentId::spec)
}

fn raw(d: u16) -> Target {
    Target::StraightRaw { max_distance: d }
}

fn re_plus(d: u16) -> Target {
    Target::StraightRePlus { max_distance: d }
}

/// A cell that runs `workload`.
fn cell(
    experiment: ExperimentId,
    group: &str,
    label: &str,
    workload: WorkloadKind,
    kind: CellKind,
) -> CellSpec {
    CellSpec {
        experiment,
        group: group.to_string(),
        label: label.to_string(),
        workload: Some(workload),
        param: None,
        kind,
    }
}

/// The three-bar (SS / RAW / RE+) groups of the performance figures,
/// one per `(group, workload, SS machine, STRAIGHT machine)` row.
fn perf_cells<const N: usize>(
    experiment: ExperimentId,
    rows: [(&str, WorkloadKind, MachineConfig, MachineConfig); N],
) -> Vec<CellSpec> {
    rows.into_iter()
        .flat_map(|(group, workload, ss, st)| {
            [
                ("SS", Target::Riscv, ss),
                ("STRAIGHT(RAW)", raw(EVAL_MAX_DISTANCE), st.clone()),
                ("STRAIGHT(RE+)", re_plus(EVAL_MAX_DISTANCE), st),
            ]
            .map(|(label, target, machine)| {
                cell(experiment, group, label, workload, CellKind::Pipeline { target, machine })
            })
        })
        .collect()
}

impl ExperimentSpec {
    /// Enumerates the experiment's cells, in figure order. The match
    /// is exhaustive over [`ExperimentId`], so adding an experiment
    /// without enumerating its cells is a compile error.
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        let id = self.id;
        match id {
            ExperimentId::Fig11 => perf_cells(
                id,
                [WorkloadKind::Dhrystone, WorkloadKind::Coremark].map(|w| {
                    (w.name(), w, MachineConfig::ss_4way(), MachineConfig::straight_4way())
                }),
            ),
            ExperimentId::Fig12 => perf_cells(
                id,
                [WorkloadKind::Dhrystone, WorkloadKind::Coremark].map(|w| {
                    (w.name(), w, MachineConfig::ss_2way(), MachineConfig::straight_2way())
                }),
            ),
            ExperimentId::Fig13 => [
                ("2-way", MachineConfig::ss_2way(), MachineConfig::straight_2way()),
                ("4-way", MachineConfig::ss_4way(), MachineConfig::straight_4way()),
            ]
            .into_iter()
            .flat_map(|(scale, ss, st)| {
                [
                    ("SS", Target::Riscv, ss.clone()),
                    ("SS no penalty", Target::Riscv, ss.with_ideal_recovery()),
                    ("STRAIGHT(RE+)", re_plus(EVAL_MAX_DISTANCE), st),
                ]
                .map(|(label, target, machine)| {
                    let kind = CellKind::Pipeline { target, machine };
                    cell(id, scale, label, WorkloadKind::Coremark, kind)
                })
            })
            .collect(),
            ExperimentId::Fig14 => perf_cells(
                id,
                [
                    ("Coremark 2-way", MachineConfig::ss_2way(), MachineConfig::straight_2way()),
                    ("Coremark 4-way", MachineConfig::ss_4way(), MachineConfig::straight_4way()),
                ]
                .map(|(group, ss, st)| {
                    (group, WorkloadKind::Coremark, ss.with_tage(), st.with_tage())
                }),
            ),
            ExperimentId::Fig15 => [
                ("SS", Target::Riscv),
                ("STRAIGHT(RAW)", raw(EVAL_MAX_DISTANCE)),
                ("STRAIGHT(RE+)", re_plus(EVAL_MAX_DISTANCE)),
            ]
            .into_iter()
            .map(|(label, target)| {
                cell(id, "Coremark", label, WorkloadKind::Coremark, CellKind::EmuMix { target })
            })
            .collect(),
            ExperimentId::Fig16 => [WorkloadKind::Dhrystone, WorkloadKind::Coremark]
                .into_iter()
                .map(|workload| CellSpec {
                    param: Some(1023),
                    ..cell(
                        id,
                        workload.name(),
                        "STRAIGHT(RE+)",
                        workload,
                        CellKind::EmuDistance { target: re_plus(1023) },
                    )
                })
                .collect(),
            ExperimentId::Fig17 => [
                ("SS", Target::Riscv, MachineConfig::ss_2way()),
                (
                    "STRAIGHT(RE+)",
                    re_plus(EVAL_MAX_DISTANCE),
                    MachineConfig::straight_2way(),
                ),
            ]
            .into_iter()
            .map(|(label, target, machine)| {
                let kind = CellKind::Pipeline { target, machine };
                cell(id, "Dhrystone", label, WorkloadKind::Dhrystone, kind)
            })
            .collect(),
            ExperimentId::Sensitivity => SENSITIVITY_DISTANCES
                .into_iter()
                .map(|d| {
                    // The machine must provision MAX_RP = distance + ROB.
                    let mut cfg = MachineConfig::straight_4way();
                    cfg.max_distance = u32::from(d);
                    cfg.phys_regs = cfg.phys_regs.max(u32::from(d) + cfg.rob_capacity);
                    let kind = CellKind::Pipeline { target: re_plus(d), machine: cfg };
                    CellSpec {
                        param: Some(u64::from(d)),
                        ..cell(id, "Coremark", &format!("d={d}"), WorkloadKind::Coremark, kind)
                    }
                })
                .collect(),
            ExperimentId::Table1 => [
                MachineConfig::ss_2way(),
                MachineConfig::straight_2way(),
                MachineConfig::ss_4way(),
                MachineConfig::straight_4way(),
            ]
            .into_iter()
            .map(|machine| CellSpec {
                experiment: id,
                group: "models".to_string(),
                label: machine.name.clone(),
                workload: None,
                param: None,
                kind: CellKind::ConfigDump { machine },
            })
            .collect(),
            ExperimentId::Sampled => {
                let mut cells = Vec::new();
                for workload in [WorkloadKind::Dhrystone, WorkloadKind::Coremark] {
                    for (prefix, target, machine) in [
                        ("SS", Target::Riscv, MachineConfig::ss_2way()),
                        (
                            "STRAIGHT(RE+)",
                            re_plus(EVAL_MAX_DISTANCE),
                            MachineConfig::straight_2way(),
                        ),
                    ] {
                        let group = workload.name();
                        let full = CellKind::Pipeline { target, machine: machine.clone() };
                        cells.push(cell(id, group, &format!("{prefix} (full)"), workload, full));
                        let estimate = CellKind::Sampled { target, machine };
                        let label = format!("{prefix} (sampled)");
                        cells.push(cell(id, group, &label, workload, estimate));
                    }
                }
                cells
            }
        }
    }

    /// Re-renders the paper-shaped text report from an experiment's
    /// records: the `== title ==` header, then the figure's body from
    /// its per-figure function in the `report` module. Before any body
    /// is formatted, cells are grouped in first-seen order, and every
    /// cell of a group that carries a `stdout_digest` must carry the
    /// same one (the functional cross-check: the group's variants ran
    /// the same program).
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Divergence`] when a group's cells disagree on
    /// program output, and [`ExperimentError::Malformed`] when cells the
    /// figure needs are missing.
    pub fn render(&self, result: &ExperimentResult) -> Result<String, ExperimentError> {
        let groups = grouped(&result.cells);
        for (group, members) in &groups {
            let mut digests =
                members.iter().filter_map(|c| c.stdout_digest.as_ref().map(|d| (&c.label, d)));
            let Some((_, first)) = digests.next() else { continue };
            if let Some((variant, _)) = digests.find(|(_, d)| *d != first) {
                return Err(ExperimentError::Divergence {
                    workload: group.to_string(),
                    variant: variant.clone(),
                });
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let cells = &result.cells;
        let body = match self.id {
            ExperimentId::Fig11 | ExperimentId::Fig12 | ExperimentId::Fig14 => {
                report::perf(&mut out, &groups, None)
            }
            // Figure 13 normalizes every group to the 2-way SS cell.
            ExperimentId::Fig13 => cells
                .iter()
                .find(|c| c.group == "2-way" && c.label == "SS")
                .ok_or_else(|| "missing baseline cell 2-way/SS".to_string())
                .and_then(|base| report::perf(&mut out, &groups, Some(base.cycles))),
            ExperimentId::Fig15 => report::mix(&mut out, cells),
            ExperimentId::Fig16 => report::distances(&mut out, cells),
            ExperimentId::Fig17 => report::power(&mut out, cells),
            ExperimentId::Sensitivity => report::sensitivity(&mut out, cells),
            ExperimentId::Table1 => report::table1(&mut out, cells, &self.cells()),
            ExperimentId::Sampled => report::sampled(&mut out, &groups),
        };
        body.map_err(|msg| ExperimentError::Malformed { experiment: self.id.to_string(), msg })?;
        Ok(out)
    }
}

/// Cells grouped in first-seen order, preserving in-group order.
pub(crate) type Groups<'a> = Vec<(&'a str, Vec<&'a CellRecord>)>;

fn grouped(cells: &[CellRecord]) -> Groups<'_> {
    let mut out: Groups<'_> = Vec::new();
    for cell in cells {
        match out.iter_mut().find(|(g, _)| *g == cell.group) {
            Some((_, members)) => members.push(cell),
            None => out.push((&cell.group, vec![cell])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_evaluation() {
        let names: Vec<&str> = all().iter().map(|e| e.id.name()).collect();
        assert_eq!(
            names,
            [
                "fig11",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "sensitivity",
                "table1",
                "sampled"
            ]
        );
        let total: usize = all().iter().map(|e| e.cells().len()).sum();
        assert_eq!(total, 47);
    }

    #[test]
    fn sampled_cells_pair_full_and_estimate() {
        let spec = find("sampled").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        let p = RunParams::default();
        for pair in cells.chunks(2) {
            let (full, sampled) = (&pair[0], &pair[1]);
            assert!(full.label.ends_with(" (full)"));
            assert!(sampled.label.ends_with(" (sampled)"));
            assert!(matches!(full.kind, CellKind::Pipeline { .. }));
            assert!(matches!(sampled.kind, CellKind::Sampled { .. }));
            // Same configuration, but the estimate must never collide
            // with the full run in the record caches.
            assert_eq!(full.target(), sampled.target());
            assert_ne!(full.fingerprint(&p), sampled.fingerprint(&p));
        }
        // The full cells reuse fig12's configurations, so the run
        // cache deduplicates them against that figure.
        let fig12 = find("fig12").unwrap().cells();
        let ss_full = &cells[0];
        let fig12_ss = &fig12[0];
        assert_eq!(ss_full.fingerprint(&p), fig12_ss.fingerprint(&p));
    }

    /// The two-pass sampler `sample_on` replaced, kept verbatim as its
    /// reference model: pass 1 runs a fresh emulator to the end for
    /// `N`, pass 2 runs a second fresh emulator from instruction 0 to
    /// each sample point.
    fn sample_two_pass<E: ExecBackend>(
        workload: &str,
        image: &straight_asm::Image,
        cfg: MachineConfig,
        mut fresh: impl FnMut() -> E,
    ) -> Result<SampledOutcome, ExperimentError> {
        let abnormal = |exit: String| ExperimentError::Abnormal {
            workload: workload.to_string(),
            machine: format!("{} (sampled)", cfg.name),
            exit,
        };
        // Pass 1: the whole program on the fast tier, for its dynamic
        // length and functional output.
        let mut full = fresh();
        let exit = full.run_with(u64::MAX, TierConfig::fast());
        if !matches!(exit, EmuExit::Done { .. }) {
            return Err(abnormal(format!("emulator fast-forward: {exit:?}")));
        }
        let total = full.executed();
        let stdout = full.stdout().to_string();
        let interval = (total / SAMPLE_COUNT).max(1);
        let window = interval.min(SAMPLE_WINDOW);
        // Pass 2: checkpoint at each sample point and cycle-simulate a
        // bounded interval from it.
        let mut ff = fresh();
        let mut sampled_retired = 0u64;
        let mut sampled_cycles = 0u64;
        for k in 0..SAMPLE_COUNT {
            if ff.run_with(k * interval, TierConfig::fast()) != EmuExit::StepLimit {
                break; // The program ended before this sample point.
            }
            let cp = ff.checkpoint();
            let mut core =
                Core::resume_from(image.clone(), cfg.clone(), &cp).map_err(|source| {
                    ExperimentError::Machine {
                        workload: workload.to_string(),
                        machine: cfg.name.clone(),
                        source,
                    }
                })?;
            // A resumed core starts with an empty pipeline and cold
            // predictors/caches; the first half of the window warms the
            // microarchitectural state and is excluded from the estimate
            // (the retire/cycle budgets of `run_retired` are cumulative,
            // so the second call measures the delta).
            let warm = core.run_retired(window / 2, MAX_CYCLES);
            if let SimExit::Trap(trap) = &warm.exit {
                return Err(abnormal(format!("sample at {}: {trap:?}", cp.executed())));
            }
            let (warm_retired, warm_cycles) = (warm.stats.retired, warm.stats.cycles);
            let sample = core.run_retired(window, MAX_CYCLES);
            if let SimExit::Trap(trap) = &sample.exit {
                return Err(abnormal(format!("sample at {}: {trap:?}", cp.executed())));
            }
            sampled_retired += sample.stats.retired - warm_retired;
            sampled_cycles += sample.stats.cycles - warm_cycles;
        }
        if sampled_cycles == 0 || sampled_retired == 0 {
            return Err(abnormal("no instructions were cycle-simulated".to_string()));
        }
        let ipc_est = sampled_retired as f64 / sampled_cycles as f64;
        let cycles_est = (total as f64 / ipc_est).round() as u64;
        Ok(SampledOutcome { cycles_est, ipc_est, retired: total, stdout })
    }

    /// Samples `src` on both ISAs (the `sampled` cells' machines) with
    /// the one-pass sampler at `first_spacing` and with the two-pass
    /// reference, asserts identical outcomes, and returns each ISA's
    /// dynamic instruction count.
    fn one_pass_matches_reference(what: &str, src: &str, first_spacing: u64) -> [u64; 2] {
        fn check<E: ExecBackend>(
            what: &str,
            image: &Arc<Image>,
            cfg: MachineConfig,
            fresh: impl Fn() -> E,
            first_spacing: u64,
        ) -> u64 {
            let one =
                sample_on(what, image, cfg.clone(), MAX_CYCLES, fresh(), first_spacing).unwrap();
            let reference = sample_two_pass(what, image, cfg, fresh).unwrap();
            assert_eq!(one.cycles_est, reference.cycles_est, "{what}: cycles_est");
            assert_eq!(one.ipc_est.to_bits(), reference.ipc_est.to_bits(), "{what}: ipc_est");
            assert_eq!(one.retired, reference.retired, "{what}: retired");
            assert_eq!(one.stdout, reference.stdout, "{what}: stdout");
            one.retired
        }
        let rv = Arc::new(build_for(what, src, Target::Riscv).unwrap());
        let st = Arc::new(build_for(what, src, re_plus(EVAL_MAX_DISTANCE)).unwrap());
        [
            check(
                what,
                &rv,
                MachineConfig::ss_2way(),
                || RiscvEmu::new(Arc::clone(&rv)),
                first_spacing,
            ),
            check(
                what,
                &st,
                MachineConfig::straight_2way(),
                || StraightEmu::new(Arc::clone(&st)),
                first_spacing,
            ),
        ]
    }

    #[test]
    fn one_pass_sampler_matches_the_two_pass_reference_on_quick_workloads() {
        for workload in [WorkloadKind::Dhrystone, WorkloadKind::Coremark] {
            let src = workload.source(&RunParams::quick());
            one_pass_matches_reference(workload.name(), &src, CHECKPOINT_SPACING);
        }
    }

    #[test]
    fn one_pass_sampler_matches_the_reference_when_the_grid_thins() {
        // At a first spacing of 64 the 64-entry grid fills at 4096
        // instructions and thins again at every doubling after that.
        let src = WorkloadKind::Dhrystone.source(&RunParams::quick());
        for total in one_pass_matches_reference("Dhrystone", &src, 64) {
            assert!(total > 8 * 64 * MAX_CHECKPOINTS as u64, "{total} thins fewer than 4 times");
        }
    }

    #[test]
    fn one_pass_sampler_matches_the_reference_below_the_first_spacing() {
        let src = "int main() {
                       int s = 0;
                       int i;
                       for (i = 0; i < 40; i++) s = s + i * i;
                       print_int(s);
                       return s & 127;
                   }";
        for total in one_pass_matches_reference("tiny", src, CHECKPOINT_SPACING) {
            assert!(total < CHECKPOINT_SPACING, "{total} is not below the first spacing");
        }
        // A one-instruction spacing thins the grid at every doubling.
        one_pass_matches_reference("tiny", src, 1);
    }

    #[test]
    fn sampling_fails_when_the_cycle_budget_ends_inside_a_window() {
        // The first sample point is instruction 0, where a resumed core
        // runs like a fresh one: a budget one cycle past its warm-up
        // cuts the measured half of the first window short.
        let src = WorkloadKind::Dhrystone.source(&RunParams::quick());
        let image = Arc::new(build_for("Dhrystone", &src, Target::Riscv).unwrap());
        let cfg = MachineConfig::ss_2way();
        let total = RiscvEmu::new(Arc::clone(&image)).run(u64::MAX).stats.retired;
        let window = (total / SAMPLE_COUNT).min(SAMPLE_WINDOW);
        let mut core = Core::new(Arc::clone(&image), cfg.clone()).unwrap();
        let budget = core.run_retired(window / 2, MAX_CYCLES).stats.cycles + 1;
        let emu = RiscvEmu::new(Arc::clone(&image));
        match sample_on("Dhrystone", &image, cfg, budget, emu, CHECKPOINT_SPACING).err() {
            Some(ExperimentError::Abnormal { exit, .. }) => {
                assert!(exit.contains("cycle budget"), "{exit}");
            }
            other => panic!("expected an abnormal exit, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_distinguish_configs_and_params() {
        let spec = find("fig11").unwrap();
        let cells = spec.cells();
        let p = RunParams::default();
        let fp: Vec<String> = cells.iter().map(|c| c.fingerprint(&p)).collect();
        let mut unique = fp.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), fp.len(), "all fig11 cells have distinct fingerprints");
        let quick = cells[0].fingerprint(&RunParams::quick());
        assert_ne!(quick, fp[0], "iteration count is part of the fingerprint");
    }

    #[test]
    fn cell_ids_are_stable() {
        let spec = find("sensitivity").unwrap();
        let ids: Vec<String> = spec.cells().iter().map(CellSpec::id).collect();
        assert_eq!(ids[0], "sensitivity/Coremark/d=1023");
        assert_eq!(ids[3], "sensitivity/Coremark/d=31");
    }
}
