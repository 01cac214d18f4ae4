//! # straight-ir
//!
//! The SSA intermediate representation and MinC front-end feeding both
//! code generators of the STRAIGHT reproduction.
//!
//! The paper compiles LLVM IR (an SSA-form IR with PHI nodes) to
//! STRAIGHT machine code. This crate plays the role of clang + LLVM IR:
//! **MinC**, a small C-like language, is parsed and lowered directly to
//! SSA using the on-the-fly algorithm of Braun et al., producing a
//! [`Module`] of [`Function`]s whose operands the STRAIGHT back-end
//! turns into distances (Section IV of the paper).
//!
//! The crate also hosts the analyses the compilation algorithm needs —
//! CFG utilities, dominators, [`analysis::Liveness`] (used for distance
//! fixing), natural [`analysis::Loops`] (used by the RE+ redundancy
//! elimination) — plus
//! optimization passes and a reference [`interp`]reter used for
//! differential testing of the back-ends.
//!
//! ```
//! use straight_ir::compile_source;
//!
//! let module = compile_source(
//!     "int add(int a, int b) { return a + b; }
//!      int main() { print_int(add(2, 3)); return 0; }",
//! ).unwrap();
//! let out = straight_ir::interp::run_main(&module).unwrap();
//! assert_eq!(out.stdout, "5\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod entities;
pub mod frontend;
mod func;
pub mod inline;
mod inst;
pub mod interp;
mod module;
pub mod passes;
pub mod verify;

pub mod analysis;

pub use builder::FunctionBuilder;
pub use entities::{Block, GlobalId, SlotId, Value};
pub use frontend::CompileError;
pub use func::{BlockData, Function, StackSlot};
pub use inst::{BinOp, InstData, SysOp, Terminator};
pub use module::{Global, Module};
pub use straight_isa::MemWidth;

/// Parses, lowers, optimizes, and verifies a MinC source file.
///
/// This is the front half of the paper's Figure 7 flow (`C source →
/// LLVM-IR`); the back-ends in `straight-compiler` implement the rest.
///
/// # Errors
///
/// Returns [`CompileError`] on lexical, syntactic, or semantic errors.
pub fn compile_source(src: &str) -> Result<Module, CompileError> {
    let mut module = frontend::lower_source(src)?;
    passes::resolve_aliases(&mut module);
    inline::inline_module(&mut module);
    passes::optimize(&mut module);
    verify::verify_module(&module).map_err(CompileError::Verify)?;
    Ok(module)
}
