//! The per-figure bodies of the plain-text reports, in the shape of the
//! paper's figures. [`ExperimentSpec::render`] writes the `== title ==`
//! header and checks every group's output digests, then dispatches on
//! the experiment id to one function here, which formats the
//! [`CellRecord`]s directly. A saved `BENCH_<name>.json` therefore
//! regenerates its figure exactly.
//!
//! Each function appends to the report and returns the message of a
//! missing-cell error, which `render` turns into
//! [`ExperimentError::Malformed`](crate::experiment::ExperimentError::Malformed).
//!
//! [`ExperimentSpec::render`]: crate::experiment::ExperimentSpec::render

use std::fmt::Write as _;

use straight_isa::InstKind;
use straight_power::figure17;
use straight_sim::pipeline::IsaKind;

use crate::experiment::{CellKind, CellRecord, CellSpec, Groups, FIG17_FREQS};

/// Performance bars (Figures 11–14): each cell's speed relative to
/// `base` cycles, or to its group's first cell when `base` is `None`.
pub(crate) fn perf(out: &mut String, groups: &Groups, base: Option<u64>) -> Result<(), String> {
    if groups.is_empty() {
        return Err("no cells".to_string());
    }
    for (group, members) in groups {
        let _ = writeln!(out, "[{group}]");
        let base = base.unwrap_or(members[0].cycles) as f64;
        for c in members {
            let relative = base / c.cycles as f64;
            let bar_len = (relative * 40.0).round().clamp(0.0, 78.0) as usize;
            let _ = writeln!(
                out,
                "  {:<16} rel={:+.3}  cycles={:>12}  retired={:>12}  {}",
                c.label,
                relative,
                c.cycles,
                c.retired,
                "#".repeat(bar_len)
            );
        }
    }
    Ok(())
}

/// The retired-instruction mix (Figure 15), normalized to the first
/// cell's total.
pub(crate) fn mix(out: &mut String, cells: &[CellRecord]) -> Result<(), String> {
    let base = cells.first().map_or(1, |c| c.retired) as f64;
    let _ = write!(out, "  {:<16}", "");
    for kind in InstKind::ALL {
        let _ = write!(out, "{:>13}", kind.name());
    }
    let _ = writeln!(out, "{:>13}", "TOTAL");
    for cell in cells {
        let kinds = cell.kinds.as_ref().ok_or("cell without kinds")?;
        let _ = write!(out, "  {:<16}", cell.label);
        for kind in InstKind::ALL {
            let v = kinds[kind] as f64 / base;
            let _ = write!(out, "{v:>13.3}");
        }
        let _ = writeln!(out, "{:>13.3}", cell.retired as f64 / base);
    }
    Ok(())
}

/// The cumulative source-distance fractions (Figure 16), one profile
/// per workload group.
pub(crate) fn distances(out: &mut String, cells: &[CellRecord]) -> Result<(), String> {
    for c in cells {
        let cumulative = c.distances.as_ref().ok_or("cell without distances")?;
        let max_used = c.max_distance_used.ok_or("cell without max distance")?;
        let _ = writeln!(out, "[{}] (max distance used: {max_used})", c.group);
        for (d, f) in cumulative {
            let _ = writeln!(out, "  <= {d:>5}: {:>6.1} %  {}", f * 100.0, "#".repeat((f * 50.0) as usize));
        }
    }
    Ok(())
}

/// Per-module power (Figure 17) of the `SS` and `STRAIGHT(RE+)` cells.
pub(crate) fn power(out: &mut String, cells: &[CellRecord]) -> Result<(), String> {
    let stats = |label: &str| {
        cells
            .iter()
            .find(|c| c.label == label)
            .and_then(|c| c.stats.as_ref())
            .ok_or_else(|| format!("missing stats for `{label}`"))
    };
    let (ss, st) = (stats("SS")?, stats("STRAIGHT(RE+)")?);
    let _ = writeln!(
        out,
        "  {:<8}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "freq", "SS rename", "ST rename", "SS regfile", "ST regfile", "SS other", "ST other"
    );
    for r in figure17(ss, st, &FIG17_FREQS) {
        let _ = writeln!(
            out,
            "  {:<8.1}{:>14.3}{:>14.3}{:>14.3}{:>14.3}{:>14.3}{:>14.3}",
            r.freq, r.ss.rename, r.straight.rename, r.ss.regfile, r.straight.regfile, r.ss.other, r.straight.other
        );
    }
    Ok(())
}

/// The distance-limit sensitivity table (§VI-B), relative to the
/// fastest limit.
pub(crate) fn sensitivity(out: &mut String, cells: &[CellRecord]) -> Result<(), String> {
    let base = cells.iter().map(|c| c.cycles).min().unwrap_or(1) as f64;
    for c in cells {
        let d = c.param.ok_or("cell without param")?;
        let _ = writeln!(
            out,
            "  max_distance={d:>5}: {:>12} cycles ({:+.2} %)",
            c.cycles,
            (c.cycles as f64 / base - 1.0) * 100.0
        );
    }
    Ok(())
}

/// Table I: the machine model of each record's configuration-dump cell
/// in `specs`.
pub(crate) fn table1(
    out: &mut String,
    cells: &[CellRecord],
    specs: &[CellSpec],
) -> Result<(), String> {
    for c in cells {
        let Some(CellKind::ConfigDump { machine: cfg }) =
            specs.iter().find(|s| s.id() == c.id).map(|s| &s.kind)
        else {
            return Err(format!("`{}` is not a model of the table", c.id));
        };
        let _ = writeln!(out, "[{}]", cfg.name);
        let _ = writeln!(out, "  isa             {:?}", cfg.isa);
        let _ = writeln!(out, "  fetch width     {}", cfg.fetch_width);
        let _ = writeln!(out, "  front-end depth {}", cfg.frontend_latency);
        let _ = writeln!(out, "  ROB capacity    {}", cfg.rob_capacity);
        let _ = writeln!(out, "  scheduler       {}-way, {} entries", cfg.issue_width, cfg.iq_entries);
        let _ = writeln!(out, "  register file   {}", cfg.phys_regs);
        let _ = writeln!(out, "  LSQ             LD {} / ST {}", cfg.lsq_ld, cfg.lsq_st);
        let _ = writeln!(
            out,
            "  exec units      ALU {}, MUL {}, DIV {}, BC {}, Mem {}",
            cfg.units.alu, cfg.units.mul, cfg.units.div, cfg.units.bc, cfg.units.mem
        );
        let _ = writeln!(out, "  commit width    {}", cfg.commit_width);
        let _ = writeln!(out, "  predictor       {:?}", cfg.predictor);
        let _ = writeln!(out, "  L3              {}", if cfg.hierarchy.l3.is_some() { "2 MiB" } else { "none" });
        if cfg.isa == IsaKind::Straight {
            let _ = writeln!(out, "  max distance    {}", cfg.max_distance);
        }
    }
    Ok(())
}

/// The sampled-vs-full comparison: each group's `X (full)` cell next
/// to its `X (sampled)` estimate.
pub(crate) fn sampled(out: &mut String, groups: &Groups) -> Result<(), String> {
    let _ = writeln!(
        out,
        "  {:<12}{:<18}{:>14}{:>14}{:>10}{:>9}{:>9}{:>10}",
        "workload", "model", "full cycles", "est cycles", "err %", "full ipc", "est ipc", "err %"
    );
    let mut pairs = 0;
    for (group, members) in groups {
        for full in members {
            let Some(prefix) = full.label.strip_suffix(" (full)") else { continue };
            let est = members
                .iter()
                .find(|c| c.label == format!("{prefix} (sampled)"))
                .ok_or_else(|| format!("missing sampled cell for {group}/{prefix}"))?;
            let cycle_err = (est.cycles as f64 / full.cycles as f64 - 1.0) * 100.0;
            let ipc_err = (est.ipc / full.ipc - 1.0) * 100.0;
            let _ = writeln!(
                out,
                "  {:<12}{:<18}{:>14}{:>14}{:>+10.2}{:>9.3}{:>9.3}{:>+10.2}",
                group, prefix, full.cycles, est.cycles, cycle_err, full.ipc, est.ipc, ipc_err
            );
            pairs += 1;
        }
    }
    if pairs == 0 {
        return Err("no (full)/(sampled) cell pairs".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::experiment::{
        CellRecord, ExperimentError, ExperimentId, ExperimentResult, RunParams, SCHEMA_VERSION,
    };

    fn record(id: ExperimentId, group: &str, label: &str, cycles: u64) -> CellRecord {
        CellRecord {
            id: format!("{id}/{group}/{label}"),
            experiment: id.to_string(),
            group: group.to_string(),
            label: label.to_string(),
            workload: None,
            target: None,
            machine: None,
            config_fingerprint: String::new(),
            param: None,
            cycles,
            retired: 80,
            ipc: 0.0,
            stats: None,
            kinds: None,
            distances: None,
            max_distance_used: None,
            stdout_digest: None,
            wall_ms: 0.0,
            sim_wall_ms: None,
            ksim_cycles_per_sec: None,
        }
    }

    fn render(id: ExperimentId, cells: Vec<CellRecord>) -> Result<String, ExperimentError> {
        let spec = id.spec();
        spec.render(&ExperimentResult {
            schema_version: SCHEMA_VERSION,
            experiment: id.to_string(),
            title: spec.title.to_string(),
            paper_ref: spec.paper_ref.to_string(),
            git_rev: String::new(),
            params: RunParams::default(),
            wall_ms: 0.0,
            cells,
        })
    }

    #[test]
    fn perf_rendering_contains_rows() {
        let id = ExperimentId::Fig11;
        let cells = vec![record(id, "Toy", "SS", 100), record(id, "Toy", "STRAIGHT(RE+)", 84)];
        let s = render(id, cells).unwrap();
        assert!(s.starts_with("== Figure 11: 4-way relative performance (vs SS-4way) ==\n[Toy]\n"));
        assert!(s.contains("STRAIGHT(RE+)"));
        assert!(s.contains("rel=+1.190"));
    }

    #[test]
    fn sensitivity_rendering() {
        let id = ExperimentId::Sensitivity;
        let cells = [(1023, 1000), (31, 1010)]
            .map(|(d, cycles)| CellRecord { param: Some(d), ..record(id, "Coremark", "d", cycles) })
            .to_vec();
        let s = render(id, cells).unwrap();
        assert!(s.contains("max_distance= 1023"));
        assert!(s.contains("+1.00 %"));
    }

    #[test]
    fn table1_lists_all_models() {
        let id = ExperimentId::Table1;
        let cells = id.spec().cells().iter().map(|c| record(id, &c.group, &c.label, 0)).collect();
        let s = render(id, cells).unwrap();
        for name in ["SS-2way", "STRAIGHT-2way", "SS-4way", "STRAIGHT-4way"] {
            assert!(s.contains(&format!("[{name}]")));
        }
        assert!(s.contains("max distance"));
        // A record that is not one of the table's models cannot render.
        let err = render(id, vec![record(id, "models", "SS-8way", 0)]).unwrap_err();
        assert!(err.to_string().contains("not a model"), "{err}");
    }
}
