//! Symbolic object format produced by the compiler back-ends: one
//! [`Item`]/[`Func`]/[`Program`] shape, instantiated per ISA with its
//! instruction and relocation types.

use straight_isa::Inst;
use straight_riscv::RvInst;

/// A pending fix-up on a STRAIGHT instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SReloc {
    /// Patch the branch/jump word-offset field to reach `0` (a local
    /// label or a function symbol).
    BranchTo(String),
    /// Patch a `LUI` immediate with the high 16 bits of the symbol
    /// address.
    AbsHi(String),
    /// Patch an `ORi` immediate with the low 16 bits of the symbol
    /// address.
    AbsLo(String),
}

/// A pending fix-up on an RV32 instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvReloc {
    /// Patch a conditional-branch byte offset.
    BranchTo(String),
    /// Patch a `jal` byte offset (jumps and calls).
    JalTo(String),
    /// Patch a `lui` with `%hi(symbol)` (with the +0x800 rounding).
    Hi20(String),
    /// Patch an I/S-type immediate with `%lo(symbol)`.
    Lo12(String),
}

/// One instruction with an optional relocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item<I, R> {
    /// The instruction; offset/immediate fields covered by `reloc`
    /// hold 0 until link time.
    pub inst: I,
    /// Pending relocation.
    pub reloc: Option<R>,
}

impl<I, R> Item<I, R> {
    /// An item with no relocation.
    #[must_use]
    pub fn plain(inst: I) -> Item<I, R> {
        Item { inst, reloc: None }
    }
}

/// A function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Func<I, R> {
    /// Global symbol name.
    pub name: String,
    /// Instructions in layout order.
    pub items: Vec<Item<I, R>>,
    /// Local labels: `(name, item index)`. Resolved function-locally
    /// first, then against global symbols.
    pub labels: Vec<(String, usize)>,
}

impl<I, R> Default for Func<I, R> {
    fn default() -> Func<I, R> {
        Func { name: String::new(), items: Vec::new(), labels: Vec::new() }
    }
}

/// A named, initialized data object (global variable or string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataItem {
    /// Symbol name.
    pub name: String,
    /// Size in bytes (zero-filled beyond `init`).
    pub size: u32,
    /// Alignment in bytes.
    pub align: u32,
    /// Initial bytes.
    pub init: Vec<u8>,
}

/// A linkable program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program<I, R> {
    /// Functions; `main` must exist for linking.
    pub funcs: Vec<Func<I, R>>,
    /// Data objects.
    pub data: Vec<DataItem>,
}

impl<I, R> Default for Program<I, R> {
    fn default() -> Program<I, R> {
        Program { funcs: Vec::new(), data: Vec::new() }
    }
}

/// One STRAIGHT instruction with an optional relocation.
pub type SItem = Item<Inst, SReloc>;
/// A STRAIGHT function body.
pub type SFunc = Func<Inst, SReloc>;
/// A linkable STRAIGHT program.
pub type SProgram = Program<Inst, SReloc>;
/// One RV32 instruction with an optional relocation.
pub type RvItem = Item<RvInst, RvReloc>;
/// An RV32 function body.
pub type RvFunc = Func<RvInst, RvReloc>;
/// A linkable RV32 program.
pub type RvProgram = Program<RvInst, RvReloc>;
