//! Machine configurations: Table I of the paper as code.

use crate::mem::HierarchyCfg;
use crate::predict::PredictorKind;

/// Which front-end/recovery model a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaKind {
    /// The conventional renaming superscalar (RV32IM, RAM-based RMT,
    /// ROB-walking recovery).
    Ss,
    /// STRAIGHT (RP-based operand determination, one-ROB-read
    /// recovery).
    Straight,
}

/// Functional-unit counts (Table I "Exec Unit" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitCfg {
    /// Simple integer ALUs.
    pub alu: u32,
    /// Pipelined multipliers (3-cycle latency).
    pub mul: u32,
    /// Unpipelined dividers (12-cycle occupancy).
    pub div: u32,
    /// Branch units.
    pub bc: u32,
    /// Memory ports (AGU + cache access).
    pub mem: u32,
}

/// A full machine configuration (one column of Table I).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Display name ("SS-4way", "STRAIGHT-2way", ...).
    pub name: String,
    /// Front-end model.
    pub isa: IsaKind,
    /// Instructions fetched/renamed/dispatched per cycle.
    pub fetch_width: u32,
    /// Front-end depth in cycles (8 for SS, 6 for STRAIGHT — the
    /// removal of the rename stages, Section III-B).
    pub frontend_latency: u32,
    /// Reorder-buffer entries.
    pub rob_capacity: u32,
    /// Scheduler (issue queue) entries.
    pub iq_entries: u32,
    /// Issue width.
    pub issue_width: u32,
    /// Physical register-file size.
    pub phys_regs: u32,
    /// Load-queue entries.
    pub lsq_ld: u32,
    /// Store-queue entries.
    pub lsq_st: u32,
    /// Retire width.
    pub commit_width: u32,
    /// Functional units.
    pub units: UnitCfg,
    /// Direction predictor.
    pub predictor: PredictorKind,
    /// Memory hierarchy.
    pub hierarchy: HierarchyCfg,
    /// Idealize the misprediction penalty to (nearly) zero — the
    /// "SS no penalty" configuration of Figure 13.
    pub ideal_recovery: bool,
    /// STRAIGHT: the ISA distance limit the binary was compiled for;
    /// `phys_regs` must be ≥ `max_distance + rob_capacity`
    /// (Section III-B's MAX_RP rule).
    pub max_distance: u32,
    /// Forward-progress watchdog: abort the simulation when no
    /// instruction commits for this many consecutive cycles. Any
    /// genuine program makes commit progress orders of magnitude
    /// faster than this (the worst structural stall is a full-window
    /// chain of L3 misses), so firing always means the core — or an
    /// injected fault — deadlocked.
    pub watchdog_limit: u64,
    /// Opt-in hazard sanitizer: retire-time cross-validation of every
    /// committed instruction against a shadow functional emulator
    /// (control flow and result values), plus STRAIGHT RP-vs-ROB
    /// consistency checks; on STRAIGHT the emulator also traps operand
    /// distances above `max_distance` and a stack pointer outside the
    /// stack region.
    pub sanitizer: bool,
}

impl MachineConfig {
    /// SS-4way: the high-end desktop/server-class baseline.
    #[must_use]
    pub fn ss_4way() -> MachineConfig {
        MachineConfig {
            name: "SS-4way".into(),
            isa: IsaKind::Ss,
            fetch_width: 6,
            frontend_latency: 8,
            rob_capacity: 224,
            iq_entries: 96,
            issue_width: 4,
            phys_regs: 256,
            lsq_ld: 72,
            lsq_st: 56,
            commit_width: 4,
            units: UnitCfg { alu: 4, mul: 2, div: 1, bc: 4, mem: 4 },
            predictor: PredictorKind::Gshare,
            hierarchy: HierarchyCfg::four_way(),
            ideal_recovery: false,
            max_distance: 31,
            watchdog_limit: 5_000,
            sanitizer: false,
        }
    }

    /// STRAIGHT-4way: same sizes, STRAIGHT front-end.
    #[must_use]
    pub fn straight_4way() -> MachineConfig {
        MachineConfig {
            name: "STRAIGHT-4way".into(),
            isa: IsaKind::Straight,
            frontend_latency: 6,
            ..MachineConfig::ss_4way()
        }
    }

    /// SS-2way: the mobile-class baseline.
    #[must_use]
    pub fn ss_2way() -> MachineConfig {
        MachineConfig {
            name: "SS-2way".into(),
            isa: IsaKind::Ss,
            fetch_width: 2,
            frontend_latency: 8,
            rob_capacity: 64,
            iq_entries: 16,
            issue_width: 2,
            phys_regs: 96,
            lsq_ld: 48,
            lsq_st: 48,
            commit_width: 3,
            units: UnitCfg { alu: 2, mul: 1, div: 1, bc: 2, mem: 2 },
            predictor: PredictorKind::Gshare,
            hierarchy: HierarchyCfg::two_way(),
            ideal_recovery: false,
            max_distance: 31,
            watchdog_limit: 5_000,
            sanitizer: false,
        }
    }

    /// STRAIGHT-2way: same sizes, STRAIGHT front-end.
    #[must_use]
    pub fn straight_2way() -> MachineConfig {
        MachineConfig {
            name: "STRAIGHT-2way".into(),
            isa: IsaKind::Straight,
            frontend_latency: 6,
            ..MachineConfig::ss_2way()
        }
    }

    /// Swaps in the TAGE predictor (Figure 14).
    #[must_use]
    pub fn with_tage(mut self) -> MachineConfig {
        self.predictor = PredictorKind::Tage;
        self.name.push_str("+TAGE");
        self
    }

    /// Idealizes the misprediction penalty (Figure 13's "SS no
    /// penalty").
    #[must_use]
    pub fn with_ideal_recovery(mut self) -> MachineConfig {
        self.ideal_recovery = true;
        self.name.push_str("+noPenalty");
        self
    }

    /// Enables the retire-time hazard sanitizer (shadow-emulator
    /// cross-validation and STRAIGHT RP checks).
    #[must_use]
    pub fn with_sanitizer(mut self) -> MachineConfig {
        self.sanitizer = true;
        self.name.push_str("+sanitizer");
        self
    }

    /// Overrides the forward-progress watchdog limit (commit-free
    /// cycles before the simulation aborts).
    #[must_use]
    pub fn with_watchdog(mut self, limit: u64) -> MachineConfig {
        self.watchdog_limit = limit;
        self
    }

    /// ROB-walk width per recovery cycle (the paper sets it to the
    /// front-end width).
    #[must_use]
    pub fn walk_width(&self) -> u32 {
        self.fetch_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_invariants() {
        for cfg in [
            MachineConfig::ss_2way(),
            MachineConfig::ss_4way(),
            MachineConfig::straight_2way(),
            MachineConfig::straight_4way(),
        ] {
            // The paper equalizes sizes between SS and STRAIGHT.
            assert!(cfg.phys_regs >= cfg.rob_capacity);
            if cfg.isa == IsaKind::Straight {
                // MAX_RP = max distance + ROB entries must fit.
                assert!(cfg.phys_regs >= cfg.max_distance + cfg.rob_capacity - 1);
                assert_eq!(cfg.frontend_latency, 6);
            } else {
                assert_eq!(cfg.frontend_latency, 8);
            }
        }
        assert_eq!(MachineConfig::ss_4way().fetch_width, 6);
        assert_eq!(MachineConfig::ss_2way().commit_width, 3);
        assert!(MachineConfig::ss_4way().hierarchy.l3.is_some());
        assert!(MachineConfig::ss_2way().hierarchy.l3.is_none());
    }

    #[test]
    fn modifiers_rename() {
        let c = MachineConfig::ss_2way().with_tage().with_ideal_recovery();
        assert!(c.name.contains("TAGE"));
        assert!(c.ideal_recovery);
    }

    #[test]
    fn robustness_modifiers() {
        let c = MachineConfig::straight_2way().with_sanitizer().with_watchdog(123);
        assert!(c.sanitizer);
        assert!(c.name.contains("sanitizer"));
        assert_eq!(c.watchdog_limit, 123);
        assert!(!MachineConfig::ss_4way().sanitizer);
        assert_eq!(MachineConfig::ss_4way().watchdog_limit, 5_000);
    }
}
