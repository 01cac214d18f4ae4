//! The cycle-accurate out-of-order cores (Section III and V-A of the
//! paper): a shared back-end with ISA-specific front-ends — the
//! renaming superscalar (`SS`) and STRAIGHT.

mod config;
mod core;
mod lsq;
mod rob;
mod sched;
mod slab;
mod stats;
mod uop;
mod wheel;

pub use config::{IsaKind, MachineConfig, UnitCfg};
pub use core::{simulate, Core, CoreError, DEFAULT_MAX_CYCLES};
#[cfg(feature = "stage-profile")]
pub use core::{STAGE_NAMES, STAGE_SAMPLE_PERIOD};
pub use stats::{PowerEvents, SimExit, SimResult, SimStats, WatchdogReport};
pub use uop::{ControlInfo, ExecUnit, FuncOp, RawInst, UOp};
