use std::fmt;

use straight_isa::{AluImmOp, AluOp, InstKind, MemWidth};

use crate::Reg;

/// RV32 conditional-branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchOp {
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
}

impl BranchOp {
    /// All branch comparisons in funct3 order.
    pub const ALL: [BranchOp; 6] =
        [BranchOp::Beq, BranchOp::Bne, BranchOp::Blt, BranchOp::Bge, BranchOp::Bltu, BranchOp::Bgeu];

    /// Evaluates the comparison.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchOp::Beq => a == b,
            BranchOp::Bne => a != b,
            BranchOp::Blt => (a as i32) < (b as i32),
            BranchOp::Bge => (a as i32) >= (b as i32),
            BranchOp::Bltu => a < b,
            BranchOp::Bgeu => a >= b,
        }
    }

    /// Mnemonic (`beq` etc.).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Bge => "bge",
            BranchOp::Bltu => "bltu",
            BranchOp::Bgeu => "bgeu",
        }
    }
}

/// One RV32IM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RvInst {
    /// `lui rd, imm20` — rd = imm20 << 12. `imm` stores the already
    /// shifted value (low 12 bits zero).
    Lui {
        /// Destination.
        rd: Reg,
        /// Value with low 12 bits zero.
        imm: u32,
    },
    /// `auipc rd, imm20` — rd = pc + (imm20 << 12).
    Auipc {
        /// Destination.
        rd: Reg,
        /// Value with low 12 bits zero.
        imm: u32,
    },
    /// `jal rd, offset` — rd = pc+4; pc += offset (bytes).
    Jal {
        /// Link destination (x0 for plain jumps).
        rd: Reg,
        /// Signed byte offset, multiple of 2 (we emit multiples of 4).
        offset: i32,
    },
    /// `jalr rd, rs1, offset` — rd = pc+4; pc = (rs1+offset) & !1.
    Jalr {
        /// Link destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Conditional branch; pc += offset when taken.
    Branch {
        /// Comparison.
        op: BranchOp,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed byte offset, multiple of 2.
        offset: i32,
    },
    /// Load `rd = mem[rs1 + offset]`.
    Load {
        /// Access width and sign extension.
        width: MemWidth,
        /// Destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Store `mem[rs1 + offset] = rs2`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Value register.
        rs2: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Register–immediate ALU (`addi` etc., 12-bit signed immediate).
    OpImm {
        /// Operation.
        op: AluImmOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Signed 12-bit immediate (5-bit shift amounts).
        imm: i32,
    },
    /// Register–register ALU including the M extension.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
    },
    /// Environment call (service selected by `a7`, args in `a0`/`a1`).
    Ecall,
    /// Breakpoint; the emulator and simulator treat it as halt.
    Ebreak,
}

impl RvInst {
    /// Destination register, if the instruction writes one (writes to
    /// `x0` are reported and later discarded by the machine).
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            RvInst::Lui { rd, .. }
            | RvInst::Auipc { rd, .. }
            | RvInst::Jal { rd, .. }
            | RvInst::Jalr { rd, .. }
            | RvInst::Load { rd, .. }
            | RvInst::OpImm { rd, .. }
            | RvInst::Op { rd, .. } => Some(rd),
            RvInst::Branch { .. } | RvInst::Store { .. } | RvInst::Ecall | RvInst::Ebreak => None,
        }
    }

    /// Source registers in operand order.
    #[must_use]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match *self {
            RvInst::Jalr { rs1, .. } | RvInst::Load { rs1, .. } | RvInst::OpImm { rs1, .. } => [Some(rs1), None],
            RvInst::Branch { rs1, rs2, .. } | RvInst::Op { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            RvInst::Store { rs2, rs1, .. } => [Some(rs1), Some(rs2)],
            RvInst::Lui { .. } | RvInst::Auipc { .. } | RvInst::Jal { .. } | RvInst::Ecall | RvInst::Ebreak => {
                [None, None]
            }
        }
    }

    /// Classification for the retired-instruction-mix figure.
    #[must_use]
    pub fn kind(&self) -> InstKind {
        match self {
            RvInst::Jal { .. } | RvInst::Jalr { .. } | RvInst::Branch { .. } => InstKind::JumpBranch,
            RvInst::Load { .. } => InstKind::Ld,
            RvInst::Store { .. } => InstKind::St,
            RvInst::Ecall | RvInst::Ebreak => InstKind::Other,
            _ => InstKind::Alu,
        }
    }

    /// True for control-transfer instructions.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.kind() == InstKind::JumpBranch
    }

    /// True for conditional branches.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, RvInst::Branch { .. })
    }

    /// True for loads and stores.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self, RvInst::Load { .. } | RvInst::Store { .. })
    }
}

impl fmt::Display for RvInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RvInst::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            RvInst::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            RvInst::Jal { rd, offset } => write!(f, "jal {rd}, {offset:+}"),
            RvInst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            RvInst::Branch { op, rs1, rs2, offset } => {
                write!(f, "{} {rs1}, {rs2}, {offset:+}", op.mnemonic())
            }
            RvInst::Load { width, rd, rs1, offset } => {
                write!(f, "l{} {rd}, {offset}({rs1})", load_suffix(width))
            }
            RvInst::Store { width, rs2, rs1, offset } => {
                write!(f, "s{} {rs2}, {offset}({rs1})", store_suffix(width))
            }
            RvInst::OpImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", imm_mnemonic(op))
            }
            RvInst::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic().to_lowercase())
            }
            RvInst::Ecall => write!(f, "ecall"),
            RvInst::Ebreak => write!(f, "ebreak"),
        }
    }
}

fn load_suffix(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B => "b",
        MemWidth::Bu => "bu",
        MemWidth::H => "h",
        MemWidth::Hu => "hu",
        MemWidth::W => "w",
    }
}

fn store_suffix(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B | MemWidth::Bu => "b",
        MemWidth::H | MemWidth::Hu => "h",
        MemWidth::W => "w",
    }
}

fn imm_mnemonic(op: AluImmOp) -> &'static str {
    match op {
        AluImmOp::Addi => "addi",
        AluImmOp::Slti => "slti",
        AluImmOp::Sltiu => "sltiu",
        AluImmOp::Xori => "xori",
        AluImmOp::Ori => "ori",
        AluImmOp::Andi => "andi",
        AluImmOp::Slli => "slli",
        AluImmOp::Srli => "srli",
        AluImmOp::Srai => "srai",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_eval() {
        assert!(BranchOp::Beq.eval(3, 3));
        assert!(BranchOp::Blt.eval(-1i32 as u32, 0));
        assert!(!BranchOp::Bltu.eval(-1i32 as u32, 0));
        assert!(BranchOp::Bgeu.eval(-1i32 as u32, 0));
    }

    #[test]
    fn dest_and_sources() {
        let st = RvInst::Store { width: MemWidth::W, rs2: Reg::A0, rs1: Reg::SP, offset: 4 };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources(), [Some(Reg::SP), Some(Reg::A0)]);
        let op = RvInst::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
        assert_eq!(op.dest(), Some(Reg::A0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            RvInst::Load { width: MemWidth::Bu, rd: Reg::A0, rs1: Reg::SP, offset: -4 }.to_string(),
            "lbu a0, -4(sp)"
        );
        assert_eq!(RvInst::Jal { rd: Reg::RA, offset: 8 }.to_string(), "jal ra, +8");
        assert_eq!(RvInst::Ecall.to_string(), "ecall");
    }

    #[test]
    fn classification() {
        assert!(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }.is_control());
        assert!(RvInst::Branch { op: BranchOp::Bne, rs1: Reg::A0, rs2: Reg::ZERO, offset: -4 }.is_cond_branch());
        assert!(RvInst::Load { width: MemWidth::W, rd: Reg::A0, rs1: Reg::SP, offset: 0 }.is_mem());
        assert_eq!(RvInst::Store { width: MemWidth::B, rs1: Reg::SP, rs2: Reg::A0, offset: 0 }.kind(), InstKind::St);
        assert_eq!(RvInst::Ebreak.kind(), InstKind::Other);
        assert_eq!(RvInst::Lui { rd: Reg::A0, imm: 1 }.kind(), InstKind::Alu);
    }
}
