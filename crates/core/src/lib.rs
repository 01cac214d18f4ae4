//! # straight-core
//!
//! The high-level facade of the STRAIGHT reproduction — the layer the
//! evaluation stack stands on:
//!
//! * [`build`] / [`Target`] — compile MinC for either machine;
//! * [`MachineConfig`] — the Table-I machine models
//!   (`MachineConfig::ss_2way()` … `MachineConfig::straight_4way()`);
//! * [`experiment`] — the evaluation as a uniform grid of named
//!   experiments (Figures 11–17, the §VI-B sensitivity study,
//!   Table I), selected by the typed [`experiment::ExperimentId`] and
//!   described by [`experiment::ExperimentSpec`]s, each cell producing
//!   a serializable [`experiment::CellRecord`] and each experiment
//!   rendering its paper-shaped text report straight from those
//!   records;
//! * [`lab`] — the [`lab::LabSession`] experiment-running session
//!   (persistent worker pool, image/run caches with hit counters,
//!   blocking and asynchronous submission, `BENCH_<name>.json`
//!   output) behind both the `straight-lab` binary and the
//!   `straightd` daemon.
//!
//! ```
//! use straight_core::{build, run_on, MachineConfig, Target};
//!
//! let image = build("int main() { return 6 * 7; }", Target::StraightRePlus { max_distance: 31 }).unwrap();
//! let result = run_on(&image, MachineConfig::straight_4way(), 1_000_000).unwrap();
//! assert_eq!(result.exit_code, Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod lab;
mod report;

use straight_asm::{link_riscv, link_straight, Image};
use straight_compiler::{compile_riscv, compile_straight, StraightOptions};
use straight_ir::compile_source;
pub use straight_sim::pipeline::MachineConfig;
use straight_sim::pipeline::{simulate, CoreError, SimResult};

/// Which binary to produce from MinC source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// RV32IM via the conventional back-end (the `SS` baseline).
    Riscv,
    /// STRAIGHT with the basic algorithm of Section IV-A..C.
    StraightRaw {
        /// ISA distance limit the code is bounded to.
        max_distance: u16,
    },
    /// STRAIGHT with the RE+ redundancy elimination (Section IV-D).
    StraightRePlus {
        /// ISA distance limit the code is bounded to.
        max_distance: u16,
    },
}

/// A build failure anywhere along the pipeline.
#[derive(Debug)]
pub enum BuildError {
    /// MinC front-end / IR verification failure.
    Frontend(straight_ir::CompileError),
    /// Back-end code generation failure.
    Codegen(straight_compiler::CodegenError),
    /// Linking failure.
    Link(straight_asm::LinkError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Frontend(e) => write!(f, "{e}"),
            BuildError::Codegen(e) => write!(f, "{e}"),
            BuildError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Compiles and links MinC source for the chosen target.
///
/// # Errors
///
/// Returns [`BuildError`] from whichever stage failed.
pub fn build(src: &str, target: Target) -> Result<Image, BuildError> {
    let module = compile_source(src).map_err(BuildError::Frontend)?;
    match target {
        Target::Riscv => {
            let prog = compile_riscv(&module).map_err(BuildError::Codegen)?;
            link_riscv(&prog).map_err(BuildError::Link)
        }
        Target::StraightRaw { max_distance } => {
            let opts = StraightOptions::raw().with_max_distance(max_distance);
            let prog = compile_straight(&module, &opts).map_err(BuildError::Codegen)?;
            link_straight(&prog).map_err(BuildError::Link)
        }
        Target::StraightRePlus { max_distance } => {
            let opts = StraightOptions::default().with_max_distance(max_distance);
            let prog = compile_straight(&module, &opts).map_err(BuildError::Codegen)?;
            link_straight(&prog).map_err(BuildError::Link)
        }
    }
}

/// Runs a linked image on a machine model.
///
/// # Errors
///
/// Returns [`CoreError`] when the machine cannot execute the image at
/// all — an ISA mismatch between the image and the machine's
/// front-end, or an undersized register file. Runtime faults do *not*
/// error: they surface as a typed trap in [`SimResult::exit`].
pub fn run_on(image: &Image, cfg: MachineConfig, max_cycles: u64) -> Result<SimResult, CoreError> {
    simulate(image.clone(), cfg, max_cycles)
}
