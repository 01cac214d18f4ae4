//! Output checks and the accuracy metrics derived from records.

use straight_core::experiment::{CellRecord, ExperimentId, RunParams};
use straight_core::lab::LabSession;

/// The relative-performance points Figures 11 and 12 of the paper
/// state, as `(machine width, workload, variant, percent vs SS)`.
pub const PAPER_POINTS: [(&str, &str, &str, f64); 5] = [
    ("4-way", "Dhrystone", "STRAIGHT(RE+)", 15.7),
    ("4-way", "Coremark", "STRAIGHT(RAW)", -4.0),
    ("4-way", "Coremark", "STRAIGHT(RE+)", 18.8),
    ("2-way", "Dhrystone", "STRAIGHT(RE+)", -7.4),
    ("2-way", "Coremark", "STRAIGHT(RE+)", 5.5),
];

/// Mean |measured − paper| in percentage points over the paper points
/// `cycles` can answer. `cycles(width, workload, label)` gives the
/// cycles of that bar (`label` is `SS` for the baseline). `None` when
/// no point is answerable.
pub fn paper_gap_pct(cycles: impl Fn(&str, &str, &str) -> Option<u64>) -> Option<f64> {
    let gaps: Vec<f64> = PAPER_POINTS
        .iter()
        .filter_map(|&(width, workload, label, paper)| {
            let ss = cycles(width, workload, "SS")? as f64;
            let variant = cycles(width, workload, label)? as f64;
            Some(((ss / variant - 1.0) * 100.0 - paper).abs())
        })
        .collect();
    (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Cycles of one record of `records` by experiment, group and label.
pub fn cycles_of(
    records: &[CellRecord],
    experiment: &str,
    group: &str,
    label: &str,
) -> Option<u64> {
    records
        .iter()
        .find(|r| r.experiment == experiment && r.group == group && r.label == label)
        .map(|r| r.cycles)
}

/// The `sampled` experiment's four configurations, as `(group, label
/// prefix)`.
pub const SAMPLED_PAIRS: [(&str, &str); 4] = [
    ("Dhrystone", "SS"),
    ("Dhrystone", "STRAIGHT(RE+)"),
    ("Coremark", "SS"),
    ("Coremark", "STRAIGHT(RE+)"),
];

/// Mean |sampled − full| ÷ full, percent, over the four pairs.
pub fn sample_err_pct(
    sampled: impl Fn(&str, &str) -> Option<u64>,
    full: impl Fn(&str, &str) -> Option<u64>,
) -> Option<f64> {
    let mut errors = Vec::new();
    for (group, prefix) in SAMPLED_PAIRS {
        let est = sampled(group, prefix)? as f64;
        let full = full(group, prefix)? as f64;
        errors.push((est - full).abs() / full * 100.0);
    }
    Some(errors.iter().sum::<f64>() / errors.len() as f64)
}

/// FNV-1a digests of each workload's stdout at the iteration counts the
/// benchmark runs, as `(workload, iterations, digest)`.
const EXPECTED_DIGESTS: &[(&str, u32, &str)] = &[
    ("Dhrystone", 500, "8d138489d8ba905c"),
    ("Coremark", 8, "6e9ef0f3d5d81a29"),
    ("Dhrystone", 30_000, "c58fdf610ae1c366"),
    ("Coremark", 300, "35cc6f2c00916a96"),
    ("Dhrystone", 20, "f50c672c0e3fb168"),
    ("Coremark", 1, "d062ef726c775ffa"),
    ("Dhrystone", 200, "b80784e135faf966"),
    ("Coremark", 2, "4e1e5693affa7d20"),
];

/// Checks every record's stdout digest against the expected value for
/// its workload and iteration count. Returns one message per mismatch.
pub fn check_digests(records: &[CellRecord], params: &RunParams) -> Vec<String> {
    let mut problems = Vec::new();
    for record in records {
        let (Some(workload), Some(digest)) = (&record.workload, &record.stdout_digest) else {
            continue;
        };
        let iters = if workload == "Dhrystone" {
            params.dhry_iters
        } else {
            params.cm_iters
        };
        match EXPECTED_DIGESTS
            .iter()
            .find(|(w, i, _)| w == workload && *i == iters)
        {
            Some((_, _, expected)) if expected == digest => {}
            Some((_, _, expected)) => problems.push(format!(
                "{}: stdout digest {digest}, expected {expected}",
                record.id
            )),
            None => problems.push(format!(
                "{}: no expected stdout digest for {workload} at {iters} iterations (got {digest})",
                record.id
            )),
        }
    }
    problems
}

/// Full-run cycles of the `sampled` experiment's configurations at
/// iteration counts too large to simulate in a run, as `(dhrystone
/// iterations, coremark iterations, group, label prefix, cycles)`.
const FULL_REFERENCE: &[(u32, u32, &str, &str, u64)] = &[
    (30_000, 300, "Dhrystone", "SS", 35_353_675),
    (30_000, 300, "Dhrystone", "STRAIGHT(RE+)", 36_015_073),
    (30_000, 300, "Coremark", "SS", 12_587_559),
    (30_000, 300, "Coremark", "STRAIGHT(RE+)", 13_739_049),
];

/// Full-run cycles of the four sampled configurations at `params`:
/// recorded values when the benchmark keeps them, otherwise simulated
/// now (small scales only).
pub fn full_reference(params: &RunParams) -> Result<Vec<(String, String, u64)>, String> {
    let kept: Vec<(String, String, u64)> = FULL_REFERENCE
        .iter()
        .filter(|(d, c, ..)| *d == params.dhry_iters && *c == params.cm_iters)
        .map(|&(_, _, group, prefix, cycles)| (group.to_string(), prefix.to_string(), cycles))
        .collect();
    if kept.len() == SAMPLED_PAIRS.len() {
        return Ok(kept);
    }
    let session = LabSession::builder().build().map_err(|e| e.to_string())?;
    let full_cells: Vec<_> = ExperimentId::Sampled
        .spec()
        .cells()
        .into_iter()
        .filter(|c| c.label.ends_with(" (full)"))
        .collect();
    let mut out = Vec::new();
    for outcome in session.submit(full_cells, *params).wait() {
        let record = outcome.map_err(|e| e.to_string())?;
        let prefix = record.label.trim_end_matches(" (full)").to_string();
        eprintln!(
            "perfbench: full reference ({}, {}, \"{}\", \"{prefix}\", {})",
            params.dhry_iters, params.cm_iters, record.group, record.cycles
        );
        out.push((record.group, prefix, record.cycles));
    }
    Ok(out)
}

/// Whether two records carry the same measurement (identity and timing
/// fields aside).
pub fn same_measurement(a: &CellRecord, b: &CellRecord) -> bool {
    a.cycles == b.cycles
        && a.retired == b.retired
        && a.ipc == b.ipc
        && a.stats == b.stats
        && a.kinds == b.kinds
        && a.distances == b.distances
        && a.max_distance_used == b.max_distance_used
        && a.stdout_digest == b.stdout_digest
}

/// A record with its timing fields cleared, as
/// `ExperimentResult::normalized` clears them.
pub fn normalized(record: &CellRecord) -> CellRecord {
    let mut out = record.clone();
    out.wall_ms = 0.0;
    out.sim_wall_ms = None;
    out.ksim_cycles_per_sec = None;
    out
}
