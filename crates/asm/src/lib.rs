//! # straight-asm
//!
//! Assembler, object format, and linker for both ISAs of the STRAIGHT
//! reproduction (the paper develops "a compiler, an assembler, a
//! linker, and a cycle-accurate simulator"; this crate is the
//! assembler + linker).
//!
//! The compiler back-ends emit symbolic objects: one [`Program`] shape
//! over an ISA's instruction and relocation types, named
//! [`SProgram`]/[`RvProgram`] (instructions with pending
//! [`SReloc`]/[`RvReloc`] relocations). [`link_straight`] and
//! [`link_riscv`] run one link driver with the ISA's `_start` stub,
//! relocation patcher and encoder: it lays out code and data, resolves
//! relocations, and encodes an executable [`Image`] the emulators and
//! cycle simulators load.
//! A textual STRAIGHT assembler ([`parse_straight_asm`]) accepts the
//! paper's syntax (`ADD [1] [2]`, `BEZ [1] label`, ...).
//!
//! ```
//! use straight_asm::{parse_straight_asm, link_straight};
//!
//! let src = "
//! .text
//! func main:
//!     ADDi [0] 41
//!     ADDi [1] 1
//!     RMOV [1]
//!     JR [4]          ; return 42 (retaddr is the JAL, 4 back)
//! ";
//! let prog = parse_straight_asm(src).unwrap();
//! let image = link_straight(&prog).unwrap();
//! assert_eq!(image.entry, straight_asm::CODE_BASE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;
mod link;
mod object;
mod text;

pub use image::{Image, ImageIsa, CODE_BASE, MEM_SIZE, STACK_TOP};
pub use link::{abi, link_riscv, link_straight, LinkError};
pub use object::{
    DataItem, Func, Item, Program, RvFunc, RvItem, RvProgram, RvReloc, SFunc, SItem, SProgram, SReloc,
};
pub use text::{parse_straight_asm, AsmError};
