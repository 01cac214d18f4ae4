//! # straight-bench
//!
//! The benchmark front-end of the STRAIGHT reproduction — the top of
//! the evaluation stack (`workloads` → `core` → here):
//!
//! * **`straight-lab`** — the unified experiment runner. It enumerates
//!   the full grid (Figures 11–17, the §VI-B sensitivity sweep,
//!   Table I), executes cells in parallel with a `--jobs` cap, caches
//!   compiled workload images across figures, writes machine-readable
//!   `BENCH_<name>.json` records (cycles, IPC, full `SimStats`,
//!   power-model events, configuration fingerprint, git revision, wall
//!   time), and re-renders the paper-shaped text reports from those
//!   records. See `docs/REPRODUCING.md` for the figure-by-figure
//!   guide. One figure is `straight-lab --figure <id>`.
//! * **`straightd`** — a persistent simulation daemon serving the same
//!   lab session over a newline-delimited-JSON protocol (the [`serve`]
//!   module); `straight-lab --remote <addr>` is its client, and cached
//!   images/runs persist across requests. See `docs/SERVING.md`.
//!
//! Host-speed measurement lives in the separate `perfbench/` harness.
//!
//! Iteration counts default to values that complete in seconds on a
//! laptop; set `STRAIGHT_DHRY_ITERS` / `STRAIGHT_CM_ITERS` to larger
//! values (the paper uses 9000 and 9) for longer, steadier runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod serve;
pub mod store;

use straight_core::experiment::RunParams;

/// Dhrystone iteration count (`STRAIGHT_DHRY_ITERS`, default 200).
#[must_use]
pub fn dhry_iters() -> u32 {
    std::env::var("STRAIGHT_DHRY_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

/// CoreMark iteration count (`STRAIGHT_CM_ITERS`, default 3).
#[must_use]
pub fn cm_iters() -> u32 {
    std::env::var("STRAIGHT_CM_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Run parameters from the environment (`straight-lab` without
/// `--quick`).
#[must_use]
pub fn params_from_env() -> RunParams {
    RunParams { dhry_iters: dhry_iters(), cm_iters: cm_iters(), ..RunParams::default() }
}
