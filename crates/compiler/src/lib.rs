//! # straight-compiler
//!
//! The code generators of the STRAIGHT reproduction: SSA IR (from
//! `straight-ir`, standing in for LLVM IR) down to linkable machine
//! code for both evaluated machines.
//!
//! * [`compile_straight`] implements the paper's compilation algorithm
//!   (Section IV): the fixed-order calling convention around
//!   `JAL`/`JR`, **distance fixing** at merging control flows by
//!   padding predecessor tails with `RMOV`/`NOP`, **distance
//!   bounding** with relay `RMOV`s, caller-side stack saving of values
//!   live across calls, and — when
//!   [`StraightOptions::redundancy_elimination`] is on — the **RE+**
//!   optimizations of Section IV-D (producer rearrangement into the
//!   shuffle zone and stack storage of loop-live-through values).
//! * [`compile_riscv`] is the conventional back-end for the RV32IM
//!   superscalar baseline: phi lowering to parallel moves, linear-scan
//!   register allocation with callee-/caller-saved classes, and the
//!   standard RISC-V ABI.
//!
//! ```
//! use straight_ir::compile_source;
//! use straight_compiler::{compile_straight, compile_riscv, StraightOptions};
//!
//! let module = compile_source("int main() { return 6 * 7; }").unwrap();
//! let sprog = compile_straight(&module, &StraightOptions::default()).unwrap();
//! let rvprog = compile_riscv(&module).unwrap();
//! assert_eq!(sprog.funcs.len(), 1);
//! assert_eq!(rvprog.funcs.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod riscv;
mod straight;

pub use riscv::compile_riscv;
pub use straight::{compile_straight, StraightOptions, MIN_MAX_DISTANCE};

use std::fmt;

use straight_asm::{DataItem, Func, Program};
use straight_ir::{passes, Function, Module};

/// The driver both back ends share: clones `module`, splits its
/// critical edges, emits its globals as data and lowers each function
/// with `lower`.
fn compile_module<I, R>(
    module: &Module,
    lower: impl Fn(&Function, &Module) -> Result<Func<I, R>, CodegenError>,
) -> Result<Program<I, R>, CodegenError> {
    let mut module = module.clone();
    for f in &mut module.funcs {
        passes::split_critical_edges(f);
    }
    let data = module
        .globals
        .iter()
        .map(|g| DataItem { name: g.name.clone(), size: g.size, align: g.align, init: g.init.clone() })
        .collect();
    let funcs = module.funcs.iter().map(|f| lower(f, &module)).collect::<Result<_, _>>()?;
    Ok(Program { funcs, data })
}

/// Code-generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// Too many values live at a merge point or call for the
    /// configured maximum distance (the frame cannot fit in the
    /// distance field).
    FrameTooLarge {
        /// Function name.
        func: String,
        /// Live values at the worst merge or call.
        live: usize,
        /// Configured maximum distance.
        max_distance: u16,
        /// The smallest maximum distance the failing check accepts for
        /// this frame (always above `max_distance`).
        needs: u16,
    },
    /// The configured maximum distance is below
    /// [`MIN_MAX_DISTANCE`], the smallest bound the STRAIGHT back end
    /// can compile any program at.
    MaxDistanceTooSmall {
        /// Configured maximum distance.
        max_distance: u16,
    },
    /// More call arguments than the convention supports.
    TooManyArgs {
        /// Function name.
        func: String,
    },
    /// Internal invariant violation (a compiler bug, reported rather
    /// than panicking so fuzzing can catch it).
    Internal(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::FrameTooLarge { func, live, max_distance, needs } => write!(
                f,
                "`{func}`: {live} live values need max distance ≥ {needs}, above the \
                 configured {max_distance}"
            ),
            CodegenError::MaxDistanceTooSmall { max_distance } => write!(
                f,
                "max distance {max_distance} is below {MIN_MAX_DISTANCE}, the smallest bound \
                 the STRAIGHT back end compiles at"
            ),
            CodegenError::TooManyArgs { func } => write!(f, "`{func}`: too many call arguments"),
            CodegenError::Internal(msg) => write!(f, "internal codegen error: {msg}"),
        }
    }
}

impl std::error::Error for CodegenError {}
