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

/// The largest `--jobs` value `straight-lab` and `straightd` accept:
/// each job is an operating-system thread, and a count no host can
/// start is a usage error rather than a failed run.
pub const MAX_JOBS: usize = 1024;

/// Parses a `--jobs` value: an integer in `1..=MAX_JOBS`.
///
/// # Errors
///
/// Names the flag and the value when it is not a positive integer or
/// exceeds [`MAX_JOBS`].
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > MAX_JOBS => Err(format!("--jobs: `{value}` is above the limit of {MAX_JOBS}")),
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs: `{value}` is not a positive integer")),
    }
}

/// Run parameters from the environment (`straight-lab` without
/// `--quick`): `STRAIGHT_DHRY_ITERS` and `STRAIGHT_CM_ITERS`, each
/// defaulting to [`RunParams::default`]'s count when unset.
///
/// # Errors
///
/// Names the variable when one is set to anything but a positive
/// integer.
pub fn params_from_env() -> Result<RunParams, String> {
    let iters = |name: &str, default: u32| {
        let Some(value) = std::env::var_os(name) else { return Ok(default) };
        let value = value.to_string_lossy();
        value
            .parse::<u32>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{name}: `{value}` is not a positive integer"))
    };
    let defaults = RunParams::default();
    Ok(RunParams {
        dhry_iters: iters("STRAIGHT_DHRY_ITERS", defaults.dhry_iters)?,
        cm_iters: iters("STRAIGHT_CM_ITERS", defaults.cm_iters)?,
        ..defaults
    })
}
