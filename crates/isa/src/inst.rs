use std::fmt;

use crate::{AluImmOp, AluOp, Dist};

/// Memory access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit, sign-extended on load.
    B,
    /// 8-bit, zero-extended on load.
    Bu,
    /// 16-bit, sign-extended on load.
    H,
    /// 16-bit, zero-extended on load.
    Hu,
    /// 32-bit word.
    W,
}

impl MemWidth {
    /// Number of bytes accessed.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B | MemWidth::Bu => 1,
            MemWidth::H | MemWidth::Hu => 2,
            MemWidth::W => 4,
        }
    }
}

/// Coarse instruction classification used by the retired-mix analysis
/// (Figure 15 of the paper), shared by both ISAs: the STRAIGHT-only
/// categories (`Rmov`, `Nop`) stay empty for RV32IM. The discriminants
/// index flat per-category count arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum InstKind {
    /// Jumps and conditional branches.
    JumpBranch = 0,
    /// Arithmetic/logic including immediates and `LUI`.
    Alu = 1,
    /// Loads.
    Ld = 2,
    /// Stores.
    St = 3,
    /// Distance-fixing register moves.
    Rmov = 4,
    /// Padding no-ops.
    Nop = 5,
    /// Everything else (`SPADD`, `SYS`, `HALT`; `ECALL`, `EBREAK`).
    Other = 6,
}

impl InstKind {
    /// Number of categories.
    pub const COUNT: usize = 7;

    /// Every category, in discriminant (figure legend) order.
    pub const ALL: [InstKind; InstKind::COUNT] = [
        InstKind::JumpBranch,
        InstKind::Alu,
        InstKind::Ld,
        InstKind::St,
        InstKind::Rmov,
        InstKind::Nop,
        InstKind::Other,
    ];

    /// The figure label of this category, also its key in the records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InstKind::JumpBranch => "jump+branch",
            InstKind::Alu => "alu",
            InstKind::Ld => "ld",
            InstKind::St => "st",
            InstKind::Rmov => "rmov",
            InstKind::Nop => "nop",
            InstKind::Other => "other",
        }
    }
}

/// One STRAIGHT instruction.
///
/// Every instruction implicitly writes a single fresh destination
/// register (the register number is the value of the hardware register
/// pointer RP at decode); none of the variants carries a destination
/// field. Source operands are [`Dist`]ances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Padding instruction; writes 0.
    Nop,
    /// Register–register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// First source distance.
        s1: Dist,
        /// Second source distance.
        s2: Dist,
    },
    /// Register–immediate ALU operation (16-bit signed immediate;
    /// shifts use the low 5 bits).
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Source distance.
        s1: Dist,
        /// Immediate.
        imm: i16,
    },
    /// Load upper immediate: writes `imm << 16`.
    Lui {
        /// Upper 16 bits of the result.
        imm: u16,
    },
    /// Load from `[addr] + offset`; writes the loaded value.
    Ld {
        /// Access width.
        width: MemWidth,
        /// Distance to the address producer.
        addr: Dist,
        /// Signed byte offset.
        offset: i16,
    },
    /// Store `[val]` to `[addr]`. Writes the stored value (the paper
    /// specifies the store value is returned if the destination is
    /// referenced).
    St {
        /// Access width.
        width: MemWidth,
        /// Distance to the value producer.
        val: Dist,
        /// Distance to the address producer.
        addr: Dist,
    },
    /// Register move: copies `[s]`; inserted by the compiler for
    /// distance fixing, bounding, and argument arrangement.
    Rmov {
        /// Distance to the copied value.
        s: Dist,
    },
    /// Adds `imm` to the (only overwritable) stack pointer, in order at
    /// decode, and writes the *updated* SP to the destination register.
    SpAdd {
        /// Signed SP adjustment in bytes.
        imm: i16,
    },
    /// Branch to `pc + 4*offset` when `[s] == 0`; writes 0.
    Bez {
        /// Condition source.
        s: Dist,
        /// Signed word offset from this instruction.
        offset: i16,
    },
    /// Branch to `pc + 4*offset` when `[s] != 0`; writes 0.
    Bnz {
        /// Condition source.
        s: Dist,
        /// Signed word offset from this instruction.
        offset: i16,
    },
    /// Unconditional jump to `pc + 4*offset`; writes 0.
    J {
        /// Signed word offset from this instruction (26-bit).
        offset: i32,
    },
    /// Jump-and-link to `pc + 4*offset`; writes the return address
    /// `pc + 4`.
    Jal {
        /// Signed word offset from this instruction (26-bit).
        offset: i32,
    },
    /// Jump to the address in `[s]` (function return); writes the
    /// target address.
    Jr {
        /// Distance to the target-address producer (normally the JAL).
        s: Dist,
    },
    /// Indirect call: jump to `[s]`, writing the return address
    /// `pc + 4`.
    Jalr {
        /// Distance to the target-address producer.
        s: Dist,
    },
    /// Environment call; the code selects the service, `[s]` is the
    /// argument; writes the service result.
    Sys {
        /// Service code (see the simulator crate's `sys` module).
        code: u16,
        /// Distance to the argument value.
        s: Dist,
    },
    /// Stops the machine; writes 0.
    Halt,
}

impl Inst {
    /// The source distances this instruction reads, in operand order.
    /// Zero-register sources are included (they read as constant 0).
    #[must_use]
    pub fn sources(&self) -> [Option<Dist>; 2] {
        match *self {
            Inst::Alu { s1, s2, .. } => [Some(s1), Some(s2)],
            Inst::AluImm { s1, .. } => [Some(s1), None],
            Inst::Ld { addr, .. } => [Some(addr), None],
            Inst::St { val, addr, .. } => [Some(val), Some(addr)],
            Inst::Rmov { s }
            | Inst::Bez { s, .. }
            | Inst::Bnz { s, .. }
            | Inst::Jr { s }
            | Inst::Jalr { s }
            | Inst::Sys { s, .. } => [Some(s), None],
            Inst::Nop | Inst::Lui { .. } | Inst::SpAdd { .. } | Inst::J { .. } | Inst::Jal { .. } | Inst::Halt => {
                [None, None]
            }
        }
    }

    /// Classification for the retired-instruction-mix figure.
    #[must_use]
    pub fn kind(&self) -> InstKind {
        match self {
            Inst::Nop => InstKind::Nop,
            Inst::Rmov { .. } => InstKind::Rmov,
            Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Lui { .. } => InstKind::Alu,
            Inst::Ld { .. } => InstKind::Ld,
            Inst::St { .. } => InstKind::St,
            Inst::Bez { .. } | Inst::Bnz { .. } | Inst::J { .. } | Inst::Jal { .. } | Inst::Jr { .. } | Inst::Jalr { .. } => {
                InstKind::JumpBranch
            }
            Inst::SpAdd { .. } | Inst::Sys { .. } | Inst::Halt => InstKind::Other,
        }
    }

    /// True for control-transfer instructions (potential fetch
    /// redirects).
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.kind() == InstKind::JumpBranch
    }

    /// True for conditional branches.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Bez { .. } | Inst::Bnz { .. })
    }

    /// True for memory instructions (go to the LSQ and memory ports).
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Ld { .. } | Inst::St { .. })
    }

    /// The maximum source distance used, or 0 when all sources are the
    /// zero register or absent. Useful for distance-bounding checks.
    #[must_use]
    pub fn max_source_distance(&self) -> u16 {
        self.sources()
            .into_iter()
            .flatten()
            .map(Dist::get)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "NOP"),
            Inst::Alu { op, s1, s2 } => write!(f, "{op} {s1} {s2}"),
            Inst::AluImm { op, s1, imm } => write!(f, "{op} {s1} {imm}"),
            Inst::Lui { imm } => write!(f, "LUI {imm:#x}"),
            Inst::Ld { width, addr, offset } => write!(f, "LD{} {addr} {offset}", width_suffix(width)),
            Inst::St { width, val, addr } => write!(f, "ST{} {val} {addr}", width_suffix(width)),
            Inst::Rmov { s } => write!(f, "RMOV {s}"),
            Inst::SpAdd { imm } => write!(f, "SPADD {imm}"),
            Inst::Bez { s, offset } => write!(f, "BEZ {s} {offset:+}"),
            Inst::Bnz { s, offset } => write!(f, "BNZ {s} {offset:+}"),
            Inst::J { offset } => write!(f, "J {offset:+}"),
            Inst::Jal { offset } => write!(f, "JAL {offset:+}"),
            Inst::Jr { s } => write!(f, "JR {s}"),
            Inst::Jalr { s } => write!(f, "JALR {s}"),
            Inst::Sys { code, s } => write!(f, "SYS {code} {s}"),
            Inst::Halt => write!(f, "HALT"),
        }
    }
}

fn width_suffix(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B => ".B",
        MemWidth::Bu => ".BU",
        MemWidth::H => ".H",
        MemWidth::Hu => ".HU",
        MemWidth::W => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_add_displays_like_paper() {
        let i = Inst::Alu { op: AluOp::Add, s1: Dist::of(1), s2: Dist::of(2) };
        assert_eq!(i.to_string(), "ADD [1] [2]");
    }

    #[test]
    fn sources_of_store_are_val_then_addr() {
        let i = Inst::St { width: MemWidth::W, val: Dist::of(4), addr: Dist::of(7) };
        assert_eq!(i.sources(), [Some(Dist::of(4)), Some(Dist::of(7))]);
        assert_eq!(i.to_string(), "ST [4] [7]");
    }

    #[test]
    fn kinds_match_figure15_categories() {
        assert_eq!(Inst::Nop.kind(), InstKind::Nop);
        assert_eq!(Inst::Rmov { s: Dist::of(1) }.kind(), InstKind::Rmov);
        assert_eq!(Inst::SpAdd { imm: 4 }.kind(), InstKind::Other);
        assert_eq!(Inst::Jal { offset: 2 }.kind(), InstKind::JumpBranch);
        assert_eq!(Inst::Lui { imm: 1 }.kind(), InstKind::Alu);
        for (i, kind) in InstKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{} is out of place in ALL", kind.name());
        }
    }

    #[test]
    fn max_source_distance() {
        let i = Inst::St { width: MemWidth::W, val: Dist::of(4), addr: Dist::of(7) };
        assert_eq!(i.max_source_distance(), 7);
        assert_eq!(Inst::Nop.max_source_distance(), 0);
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Bez { s: Dist::of(1), offset: 2 }.is_cond_branch());
        assert!(Inst::J { offset: -1 }.is_control());
        assert!(!Inst::J { offset: -1 }.is_cond_branch());
        assert!(Inst::Ld { width: MemWidth::W, addr: Dist::of(1), offset: 0 }.is_mem());
    }
}
