//! Simulation statistics, including the activity-event counters the
//! power model consumes (Figure 17).

use std::fmt;

use straight_isa::Trap;
use straight_json::{json_record, read_field, FromJson, Json, JsonError, ToJson};

use crate::mem::MemStats;
use crate::KindCounts;

/// Activity events for the power model: every counter corresponds to
/// a physical structure access in one of the modeled modules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct PowerEvents {
    // Rename logic (the module STRAIGHT removes).
    pub rmt_reads: u64,
    pub rmt_writes: u64,
    pub freelist_ops: u64,
    pub rob_walk_reads: u64,
    // STRAIGHT's counterpart: the operand-determination adders.
    pub rp_adds: u64,
    // Register file.
    pub prf_reads: u64,
    pub prf_writes: u64,
    // Other core modules.
    pub fetched: u64,
    pub decoded: u64,
    pub iq_wakeups: u64,
    pub iq_inserts: u64,
    pub fu_ops: u64,
    pub rob_writes: u64,
    pub rob_commits: u64,
    pub lsq_searches: u64,
}

json_record!(PowerEvents {
    rmt_reads,
    rmt_writes,
    freelist_ops,
    rob_walk_reads,
    rp_adds,
    prf_reads,
    prf_writes,
    fetched,
    decoded,
    iq_wakeups,
    iq_inserts,
    fu_ops,
    rob_writes,
    rob_commits,
    lsq_searches,
});

/// Full statistics of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Retired counts per category (Figure 15).
    pub retired_kinds: KindCounts,
    /// Conditional branches resolved / mispredicted.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub branch_mispredicts: u64,
    /// Indirect-jump mispredicts (wrong RAS/unknown target).
    pub indirect_mispredicts: u64,
    /// Memory-order violations (store-load replays).
    pub memory_violations: u64,
    /// Total instructions squashed by recoveries.
    pub squashed: u64,
    /// Cycles the rename stage was blocked by recovery (ROB walking
    /// for SS; the single ROB read for STRAIGHT).
    pub recovery_stall_cycles: u64,
    /// Cycles rename stalled for a free physical register.
    pub freelist_stall_cycles: u64,
    /// Cycles dispatch stalled on a full ROB/IQ/LSQ.
    pub backpressure_stall_cycles: u64,
    /// Power-model activity events.
    pub events: PowerEvents,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over conditional branches.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }
}

impl ToJson for SimStats {
    fn to_json(&self) -> Json {
        straight_json::obj()
            .field("cycles", &self.cycles)
            .field("retired", &self.retired)
            .field("ipc", &self.ipc())
            .field("retired_kinds", &self.retired_kinds)
            .field("branches", &self.branches)
            .field("branch_mispredicts", &self.branch_mispredicts)
            .field("indirect_mispredicts", &self.indirect_mispredicts)
            .field("memory_violations", &self.memory_violations)
            .field("squashed", &self.squashed)
            .field("recovery_stall_cycles", &self.recovery_stall_cycles)
            .field("freelist_stall_cycles", &self.freelist_stall_cycles)
            .field("backpressure_stall_cycles", &self.backpressure_stall_cycles)
            .field("events", &self.events)
            .field("mem", &self.mem)
            .build()
    }
}

impl FromJson for SimStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SimStats {
            cycles: read_field(value, "cycles")?,
            retired: read_field(value, "retired")?,
            retired_kinds: read_field(value, "retired_kinds")?,
            branches: read_field(value, "branches")?,
            branch_mispredicts: read_field(value, "branch_mispredicts")?,
            indirect_mispredicts: read_field(value, "indirect_mispredicts")?,
            memory_violations: read_field(value, "memory_violations")?,
            squashed: read_field(value, "squashed")?,
            recovery_stall_cycles: read_field(value, "recovery_stall_cycles")?,
            freelist_stall_cycles: read_field(value, "freelist_stall_cycles")?,
            backpressure_stall_cycles: read_field(value, "backpressure_stall_cycles")?,
            events: read_field(value, "events")?,
            mem: read_field(value, "mem")?,
        })
    }
}

/// Why a simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimExit {
    /// The program ran to completion.
    Completed {
        /// Exit code.
        code: i32,
    },
    /// The cycle budget was exhausted.
    CycleLimit,
    /// A typed trap — architectural, sanitizer-detected, or the
    /// forward-progress watchdog ([`straight_isa::TrapKind::Watchdog`],
    /// in which case [`SimResult::watchdog`] carries the full
    /// diagnostic).
    Trap(Trap),
}

/// Structured diagnostic dumped when the forward-progress watchdog
/// fires: enough pipeline state to see *where* progress stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Commit-free cycles observed when the watchdog fired.
    pub stalled_cycles: u64,
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Instructions retired before the stall.
    pub retired: u64,
    /// ROB head: (sequence number, PC, a short state description), if
    /// the ROB is non-empty.
    pub rob_head: Option<(u64, u32, &'static str)>,
    /// ROB occupancy.
    pub rob_len: usize,
    /// Scheduler occupancy.
    pub iq_len: usize,
    /// In-flight (issued, not yet completed) count.
    pub inflight_len: usize,
    /// Load/store-queue occupancy.
    pub lsq_len: usize,
    /// Front-end queue occupancy.
    pub front_len: usize,
    /// Next fetch PC.
    pub fetch_pc: u32,
    /// Cycle until which fetch is stalled.
    pub fetch_stall_until: u64,
    /// Cycle until which rename is stalled.
    pub rename_stall_until: u64,
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "watchdog: no commit for {} cycles (cycle {}, {} retired)",
            self.stalled_cycles, self.cycle, self.retired
        )?;
        match self.rob_head {
            Some((seq, pc, state)) => {
                writeln!(f, "  rob head: seq {seq} pc {pc:#x} [{state}], {} entries", self.rob_len)?;
            }
            None => writeln!(f, "  rob: empty")?,
        }
        writeln!(
            f,
            "  iq {} / inflight {} / lsq {} / front {}",
            self.iq_len, self.inflight_len, self.lsq_len, self.front_len
        )?;
        write!(
            f,
            "  fetch_pc {:#x}, fetch stalled until {}, rename stalled until {}",
            self.fetch_pc, self.fetch_stall_until, self.rename_stall_until
        )
    }
}

/// Result of simulating a program to completion.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Why simulation stopped.
    pub exit: SimExit,
    /// Exit code, if the program completed (`exit` in convenient
    /// form for the common case).
    pub exit_code: Option<i32>,
    /// Watchdog diagnostic, when `exit` is a watchdog trap.
    pub watchdog: Option<WatchdogReport>,
    /// Console output.
    pub stdout: String,
    /// Statistics.
    pub stats: SimStats,
}

impl SimResult {
    /// The trap, if simulation ended in one.
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        match self.exit {
            SimExit::Trap(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let mut s = SimStats { cycles: 100, retired: 150, ..SimStats::default() };
        s.branches = 10;
        s.branch_mispredicts = 3;
        assert!((s.ipc() - 1.5).abs() < 1e-9);
        assert!((s.mispredict_rate() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }
}
