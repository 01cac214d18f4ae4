//! The STRAIGHT back-end (Section IV of the paper).

mod emit;
mod frames;

use straight_asm::SProgram;
use straight_ir::Module;

use crate::CodegenError;

/// The smallest maximum distance [`compile_straight`] accepts. The
/// emitter's age sweep relays every value that comes within 10 of the
/// bound, so at a bound of 10 or less no value is ever young enough to
/// stay put and even `int main() { return 0; }` cannot compile.
pub const MIN_MAX_DISTANCE: u16 = emit::SWEEP_HEADROOM as u16 + 1;

/// Options controlling STRAIGHT code generation.
#[derive(Debug, Clone)]
pub struct StraightOptions {
    /// Maximum source-operand distance the generated code may use.
    /// The paper's ISA allows 1023; the evaluated models use 31
    /// (Section V-A) and Section VI-B studies the sensitivity.
    pub max_distance: u16,
    /// Enables the RE+ redundancy elimination of Section IV-D
    /// (producer rearrangement + stack storage of loop-live-through
    /// values). Off = the `RAW` basic algorithm.
    pub redundancy_elimination: bool,
}

impl Default for StraightOptions {
    fn default() -> StraightOptions {
        StraightOptions { max_distance: 1023, redundancy_elimination: true }
    }
}

impl StraightOptions {
    /// The basic algorithm of Sections IV-A..IV-C (`STRAIGHT RAW` in
    /// the evaluation).
    #[must_use]
    pub fn raw() -> StraightOptions {
        StraightOptions { redundancy_elimination: false, ..StraightOptions::default() }
    }

    /// RAW/RE+ with a specific distance bound.
    #[must_use]
    pub fn with_max_distance(mut self, d: u16) -> StraightOptions {
        self.max_distance = d;
        self
    }
}

/// Compiles an IR module to a linkable STRAIGHT program.
///
/// # Errors
///
/// Returns [`CodegenError`] when the distance bound is below
/// [`MIN_MAX_DISTANCE`], when a merge point carries more live values
/// than the distance bound can express, or on internal invariant
/// violations.
pub fn compile_straight(module: &Module, opts: &StraightOptions) -> Result<SProgram, CodegenError> {
    if opts.max_distance < MIN_MAX_DISTANCE {
        return Err(CodegenError::MaxDistanceTooSmall { max_distance: opts.max_distance });
    }
    crate::compile_module(module, |f, module| emit::FnEmitter::compile(f, module, opts))
}
