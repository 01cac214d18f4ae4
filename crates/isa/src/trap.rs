//! The shared typed trap taxonomy.
//!
//! STRAIGHT's claim to fame is *hazardless* execution: write-once
//! registers, bounded operand distances, and single-ROB-read branch
//! recovery. Proving those invariants hold requires that every way a
//! simulation can go wrong is a first-class, typed event rather than a
//! formatted string or a silent wrong value. Both functional emulators,
//! the cycle-accurate cores, and the hazard sanitizer all report
//! faults as a [`Trap`]: a [`TrapKind`] plus the precise architectural
//! context (PC, dynamic instruction index, and — for the pipelined
//! cores — the cycle).
//!
//! The kinds split into three families:
//!
//! * **architectural traps** — the program itself did something
//!   undefined (illegal opcode, wild or misaligned access, an operand
//!   distance that references an instruction that never executed);
//! * **sanitizer traps** — the opt-in hazard sanitizer caught the
//!   *machine* diverging from STRAIGHT semantics (a committed value
//!   that disagrees with the oracle emulator, an RP that desynced from
//!   the ROB, an operand distance above the binary's declared bound);
//! * **liveness traps** — forward progress stopped (the watchdog).

use std::fmt;

use crate::inst::MemWidth;

/// What went wrong. All payloads are small `Copy` data so the kind can
/// travel through `Copy` pipeline structures (fetched-instruction
/// queues, ROB entries) without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// Instruction fetch left the code segment (or was misaligned).
    FetchFault,
    /// The fetched word does not decode to a valid instruction.
    IllegalInstruction {
        /// The undecodable instruction word.
        word: u32,
    },
    /// A load touched memory outside the simulated address space.
    WildLoad {
        /// Faulting byte address.
        addr: u32,
        /// Access width.
        width: MemWidth,
    },
    /// A store touched memory outside the simulated address space.
    WildStore {
        /// Faulting byte address.
        addr: u32,
        /// Access width.
        width: MemWidth,
    },
    /// A load address was not a multiple of the access width.
    MisalignedLoad {
        /// Faulting byte address.
        addr: u32,
        /// Access width.
        width: MemWidth,
    },
    /// A store address was not a multiple of the access width.
    MisalignedStore {
        /// Faulting byte address.
        addr: u32,
        /// Access width.
        width: MemWidth,
    },
    /// A source operand named a distance further back than the number
    /// of instructions executed on this path (STRAIGHT only): the
    /// referenced producer never existed, so the read would return
    /// ring garbage.
    DistanceOutOfRange {
        /// The out-of-range distance operand.
        dist: u16,
        /// Dynamic instructions executed before this one.
        executed: u64,
    },
    /// Sanitizer: an operand distance exceeded the bound the binary
    /// was compiled for — a compiler distance-fixing bug.
    DistanceAboveBound {
        /// The observed distance.
        dist: u16,
        /// The declared compilation bound.
        bound: u16,
    },
    /// Sanitizer: the stack pointer left the stack region (`SPADD`
    /// misuse — unbalanced frame push/pop).
    SpMisuse {
        /// The offending stack-pointer value.
        sp: u32,
    },
    /// An environment-call code the platform does not implement.
    UnknownSys {
        /// The service code.
        code: u32,
    },
    /// Sanitizer: the core committed an instruction at a different PC
    /// than the oracle emulator executed — control flow diverged.
    OraclePcMismatch {
        /// The PC the oracle executed.
        expected: u32,
    },
    /// Sanitizer: the core committed a different result value than
    /// the oracle emulator produced for the same instruction.
    OracleValueMismatch {
        /// The value the oracle produced.
        expected: u32,
        /// The value the core committed.
        got: u32,
    },
    /// Sanitizer: the console output the core produced diverged from
    /// the oracle emulator's (a corrupted value reached an
    /// environment call without passing through a checked register).
    OracleOutputDivergence {
        /// Bytes of output the core has produced.
        core_len: u32,
        /// Bytes of output the oracle has produced.
        oracle_len: u32,
    },
    /// Sanitizer: STRAIGHT's register-pointer arithmetic desynced
    /// from the ROB (the committed destination was not the
    /// architectural RP).
    RpDesync {
        /// The physical register the architectural RP designates.
        expected: u16,
        /// The physical register the core actually wrote.
        got: u16,
    },
    /// The forward-progress watchdog fired: no instruction committed
    /// for the configured number of cycles.
    Watchdog {
        /// Commit-free cycles observed when the watchdog fired.
        stalled_cycles: u64,
    },
}

impl TrapKind {
    /// True for sanitizer-detected machine divergences (as opposed to
    /// architectural faults of the program itself).
    #[must_use]
    pub fn is_sanitizer(&self) -> bool {
        matches!(
            self,
            TrapKind::OraclePcMismatch { .. }
                | TrapKind::OracleValueMismatch { .. }
                | TrapKind::OracleOutputDivergence { .. }
                | TrapKind::RpDesync { .. }
                | TrapKind::DistanceAboveBound { .. }
                | TrapKind::SpMisuse { .. }
        )
    }
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrapKind::FetchFault => write!(f, "fetch fault"),
            TrapKind::IllegalInstruction { word } => {
                write!(f, "illegal instruction {word:#010x}")
            }
            TrapKind::WildLoad { addr, width } => {
                write!(f, "wild {}-byte load at {addr:#x}", width.bytes())
            }
            TrapKind::WildStore { addr, width } => {
                write!(f, "wild {}-byte store at {addr:#x}", width.bytes())
            }
            TrapKind::MisalignedLoad { addr, width } => {
                write!(f, "misaligned {}-byte load at {addr:#x}", width.bytes())
            }
            TrapKind::MisalignedStore { addr, width } => {
                write!(f, "misaligned {}-byte store at {addr:#x}", width.bytes())
            }
            TrapKind::DistanceOutOfRange { dist, executed } => {
                write!(f, "distance [{dist}] exceeds the {executed} instructions executed")
            }
            TrapKind::DistanceAboveBound { dist, bound } => {
                write!(f, "distance [{dist}] exceeds the compiled bound {bound}")
            }
            TrapKind::SpMisuse { sp } => write!(f, "stack pointer left the stack region: {sp:#x}"),
            TrapKind::UnknownSys { code } => write!(f, "unknown environment-call code {code}"),
            TrapKind::OraclePcMismatch { expected } => {
                write!(f, "committed PC diverged from the oracle (oracle at {expected:#x})")
            }
            TrapKind::OracleValueMismatch { expected, got } => {
                write!(f, "committed value {got:#x} disagrees with the oracle's {expected:#x}")
            }
            TrapKind::OracleOutputDivergence { core_len, oracle_len } => {
                write!(
                    f,
                    "console output diverged from the oracle ({core_len} vs {oracle_len} bytes)"
                )
            }
            TrapKind::RpDesync { expected, got } => {
                write!(f, "RP desync: committed destination p{got}, architectural RP p{expected}")
            }
            TrapKind::Watchdog { stalled_cycles } => {
                write!(f, "watchdog: no commit for {stalled_cycles} cycles")
            }
        }
    }
}

/// A typed trap with full architectural context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// What went wrong.
    pub kind: TrapKind,
    /// PC of the faulting instruction (or the fetch PC for fetch
    /// faults).
    pub pc: u32,
    /// Dynamic instruction index (retired count for emulators, the
    /// commit sequence number for the cycle-accurate cores).
    pub index: u64,
    /// Cycle at which the trap was raised; `None` for the untimed
    /// functional emulators.
    pub cycle: Option<u64>,
}

impl Trap {
    /// A trap in emulator context (no cycle).
    #[must_use]
    pub fn untimed(kind: TrapKind, pc: u32, index: u64) -> Trap {
        Trap { kind, pc, index, cycle: None }
    }

    /// True when two traps describe the same architectural event —
    /// same kind at the same PC — regardless of the timing context in
    /// which they were observed. This is the comparison differential
    /// tests use: the emulator and the cycle-accurate core report the
    /// same `index`-free identity even though their cycle/sequence
    /// bookkeeping differs.
    #[must_use]
    pub fn same_event(&self, other: &Trap) -> bool {
        self.kind == other.kind && self.pc == other.pc
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {:#x} (instruction {}", self.kind, self.pc, self.index)?;
        if let Some(c) = self.cycle {
            write!(f, ", cycle {c}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let t = Trap {
            kind: TrapKind::WildLoad { addr: 0x50_0000, width: MemWidth::W },
            pc: 0x1040,
            index: 12,
            cycle: Some(99),
        };
        let s = t.to_string();
        assert!(s.contains("0x500000"), "{s}");
        assert!(s.contains("0x1040"), "{s}");
        assert!(s.contains("cycle 99"), "{s}");
    }

    #[test]
    fn same_event_ignores_timing() {
        let a = Trap::untimed(TrapKind::FetchFault, 0x2000, 5);
        let b = Trap { kind: TrapKind::FetchFault, pc: 0x2000, index: 7, cycle: Some(123) };
        assert!(a.same_event(&b));
        let c = Trap::untimed(TrapKind::FetchFault, 0x2004, 5);
        assert!(!a.same_event(&c));
    }

    #[test]
    fn sanitizer_family() {
        assert!(TrapKind::RpDesync { expected: 1, got: 2 }.is_sanitizer());
        assert!(!TrapKind::FetchFault.is_sanitizer());
    }
}
