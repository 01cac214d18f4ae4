//! The traced run's calls into each layer's public functions.
//!
//! Each function does what the lab does for one kind of distinct work
//! (build an image, run a machine, run an emulator, take a sampled
//! estimate), with a span around every layer call. The caller checks
//! that the results equal the lab's records, so the replay stays
//! faithful to the code it attributes.

use straight_asm::{link_riscv, link_straight, Image};
use straight_compiler::{compile_riscv, compile_straight, StraightOptions};
use straight_core::experiment::{RunParams, WorkloadKind, MAX_CYCLES, SAMPLE_COUNT, SAMPLE_WINDOW};
use straight_core::Target;
use straight_ir::{frontend, inline, passes, verify};
use straight_sim::emu::{EmuExit, EmuResult, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_sim::pipeline::{Core, MachineConfig, SimExit, SimResult, SimStats};

use crate::trace::Tracer;

/// Compiles and links one image, as `straight_core::build` does.
pub fn build_image(
    tr: &Tracer,
    workload: WorkloadKind,
    target: Target,
    params: &RunParams,
) -> Result<Image, String> {
    let mut module = tr
        .span("ir.frontend", || {
            frontend::lower_source(&workload.source(params))
        })
        .map_err(|e| format!("{}: front end: {e}", workload.name()))?;
    tr.span("ir.passes", || {
        passes::resolve_aliases(&mut module);
        inline::inline_module(&mut module);
        passes::optimize(&mut module);
        verify::verify_module(&module)
    })
    .map_err(|e| format!("{}: verify: {e}", workload.name()))?;
    let image = match target {
        Target::Riscv => {
            let prog = tr
                .span("compiler.riscv", || compile_riscv(&module))
                .map_err(|e| e.to_string())?;
            tr.span("asm.link", || link_riscv(&prog))
                .map_err(|e| e.to_string())?
        }
        Target::StraightRaw { max_distance } | Target::StraightRePlus { max_distance } => {
            let base = match target {
                Target::StraightRaw { .. } => StraightOptions::raw(),
                _ => StraightOptions::default(),
            };
            let opts = base.with_max_distance(max_distance);
            let prog = tr
                .span("compiler.straight", || compile_straight(&module, &opts))
                .map_err(|e| e.to_string())?;
            tr.span("asm.link", || link_straight(&prog))
                .map_err(|e| e.to_string())?
        }
    };
    Ok(image)
}

/// Simulated-model counts summed over every cycle-core run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelCounts {
    pub cycles: u64,
    pub retired: u64,
    pub squashed: u64,
    pub recovery_stall_cycles: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
}

impl ModelCounts {
    pub fn add(&mut self, stats: &SimStats) {
        self.cycles += stats.cycles;
        self.retired += stats.retired;
        self.squashed += stats.squashed;
        self.recovery_stall_cycles += stats.recovery_stall_cycles;
        self.branches += stats.branches;
        self.mispredicts += stats.branch_mispredicts;
        self.l1d_accesses += stats.mem.l1d.0;
        self.l1d_misses += stats.mem.l1d.1;
    }
}

/// Runs an image to completion on a machine model, as `run_on` does.
pub fn run_full(
    tr: &Tracer,
    image: &Image,
    cfg: MachineConfig,
    model: &mut ModelCounts,
) -> Result<SimResult, String> {
    let result = tr.span("pipeline.run", || {
        Core::new(image.clone(), cfg).map(|core| core.run(MAX_CYCLES))
    });
    let result = result.map_err(|e| e.to_string())?;
    if result.exit_code.is_none() {
        return Err(format!("machine run did not complete: {:?}", result.exit));
    }
    model.add(&result.stats);
    Ok(result)
}

/// Instructions and host time of the emulator tiers.
#[derive(Debug, Default, Clone, Copy)]
pub struct EmuCounts {
    pub interp_inst: u64,
    pub fast_inst: u64,
    pub checkpoint_bytes: u64,
}

/// Runs an emulator-mix cell's program on `tier`.
pub fn run_mix(
    tr: &Tracer,
    image: &Image,
    target: Target,
    tier: TierConfig,
    counts: &mut EmuCounts,
) -> EmuResult {
    let interp = tier == TierConfig::interp();
    let layer = if interp { "emu.interp" } else { "emu.fast" };
    let result = tr.span(layer, || match target {
        Target::Riscv => RiscvEmu::new(image.clone()).run_tiered(u64::MAX, tier),
        _ => StraightEmu::new(image.clone()).run_tiered(u64::MAX, tier),
    });
    if interp {
        counts.interp_inst += result.stats.retired;
    } else {
        counts.fast_inst += result.stats.retired;
    }
    result
}

/// Runs a distance-profiling cell's program (always the interpreter).
pub fn run_distance(tr: &Tracer, image: &Image, counts: &mut EmuCounts) -> EmuResult {
    let result = tr.span("emu.interp", || {
        let mut emu = StraightEmu::new(image.clone());
        emu.profile_distances = true;
        emu.run(u64::MAX)
    });
    counts.interp_inst += result.stats.retired;
    result
}

/// A sampled cell's estimate.
#[derive(Debug)]
pub struct Sampled {
    pub cycles_est: u64,
    pub retired: u64,
    pub stdout: String,
}

/// Checkpoint-sampled simulation, as the lab's sampled cells run it.
pub fn run_sampled(
    tr: &Tracer,
    image: &Image,
    cfg: MachineConfig,
    target: Target,
    model: &mut ModelCounts,
    counts: &mut EmuCounts,
) -> Result<Sampled, String> {
    match target {
        Target::Riscv => sample_on(tr, image, cfg, model, counts, || {
            RiscvEmu::new(image.clone())
        }),
        _ => sample_on(tr, image, cfg, model, counts, || {
            StraightEmu::new(image.clone())
        }),
    }
}

fn sample_on<E: ExecBackend>(
    tr: &Tracer,
    image: &Image,
    cfg: MachineConfig,
    model: &mut ModelCounts,
    counts: &mut EmuCounts,
    mut fresh: impl FnMut() -> E,
) -> Result<Sampled, String> {
    let mut full = fresh();
    let exit = tr.span("emu.fast", || full.run_with(u64::MAX, TierConfig::fast()));
    if !matches!(exit, EmuExit::Done { .. }) {
        return Err(format!("emulator fast-forward: {exit:?}"));
    }
    let total = full.executed();
    counts.fast_inst += total;
    let interval = (total / SAMPLE_COUNT).max(1);
    let window = interval.min(SAMPLE_WINDOW);
    let mut ff = fresh();
    let (mut sampled_retired, mut sampled_cycles) = (0u64, 0u64);
    for k in 0..SAMPLE_COUNT {
        let before = ff.executed();
        if tr.span("emu.fast", || ff.run_with(k * interval, TierConfig::fast()))
            != EmuExit::StepLimit
        {
            break;
        }
        counts.fast_inst += ff.executed() - before;
        let cp = tr.span("emu.checkpoint", || {
            let cp = ff.checkpoint();
            counts.checkpoint_bytes += cp.to_bytes().len() as u64;
            cp
        });
        let mut core = tr
            .span("pipeline.resume", || {
                Core::resume_from(image.clone(), cfg.clone(), &cp)
            })
            .map_err(|e| e.to_string())?;
        let (warm, sample) = tr.span("pipeline.run", || {
            let warm = core.run_retired(window / 2, MAX_CYCLES);
            let sample = core.run_retired(window, MAX_CYCLES);
            (warm, sample)
        });
        for run in [&warm, &sample] {
            if let SimExit::Trap(trap) = &run.exit {
                return Err(format!("sample at {}: {trap:?}", cp.executed()));
            }
        }
        model.add(&sample.stats);
        sampled_retired += sample.stats.retired - warm.stats.retired;
        sampled_cycles += sample.stats.cycles - warm.stats.cycles;
    }
    if sampled_cycles == 0 || sampled_retired == 0 {
        return Err("no instructions were cycle-simulated".to_string());
    }
    let ipc_est = sampled_retired as f64 / sampled_cycles as f64;
    Ok(Sampled {
        cycles_est: (total as f64 / ipc_est).round() as u64,
        retired: total,
        stdout: full.stdout().to_string(),
    })
}
