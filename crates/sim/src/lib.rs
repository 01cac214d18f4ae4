//! # straight-sim
//!
//! Execution infrastructure for the STRAIGHT reproduction:
//!
//! * [`emu`] — fast functional (architectural) emulators for both
//!   ISAs, used for correctness validation, retired-instruction-mix
//!   analysis (Figure 15), and operand-distance profiling (Figure 16);
//! * [`mem`] — the simulated memory hierarchy (L1I/L1D/L2/L3 caches,
//!   stream prefetcher, main memory);
//! * [`predict`] — branch direction predictors (gshare and
//!   8-component TAGE), the return-address stack, and a store-set
//!   memory-dependence predictor. There is no BTB: direct targets
//!   come from the pre-decoded code and returns from the RAS;
//! * [`pipeline`] — the cycle-accurate out-of-order cores: the
//!   renaming superscalar baseline (`SS`) with RAM-based RMT and
//!   ROB-walking recovery, and the STRAIGHT core with RP-based
//!   operand determination and single-read recovery (Sections III and
//!   V-A of the paper);
//! * [`inject`] — deterministic microarchitectural fault injection
//!   for exercising the hazard sanitizer and the forward-progress
//!   watchdog.
//!
//! Both the emulators and the cores count retired instructions per
//! Figure 15 category in one [`KindCounts`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod emu;
pub mod inject;
mod kinds;
pub mod mem;
pub mod pipeline;
pub mod predict;

pub use kinds::KindCounts;
