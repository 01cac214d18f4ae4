//! The metric catalogue (names, units, directions) and the small
//! statistics every workload shares.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! self-test (`tests/selftest.rs`) keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Measured with tracing off (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("req_per_s", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("ok_frac", "ratio", Higher),
    m("paper_gap_pct", "pp", Lower),
    m("sample_err_pct", "%", Lower),
];

/// Measured by the traced run (`--trace 1`), on every workload. A layer
/// that is not on a workload's path reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("ir.frontend_ms", "ms", Lower),
    m("ir.passes_ms", "ms", Lower),
    m("compiler.straight_ms", "ms", Lower),
    m("compiler.riscv_ms", "ms", Lower),
    m("asm.link_ms", "ms", Lower),
    m("emu.interp_s", "s", Lower),
    m("emu.interp_minst_per_s", "Minst/s", Higher),
    m("emu.fast_s", "s", Lower),
    m("emu.fast_minst_per_s", "Minst/s", Higher),
    m("emu.checkpoint_ms", "ms", Lower),
    m("emu.checkpoint_bytes", "bytes", Lower),
    m("pipeline.s", "s", Lower),
    m("pipeline.kcycles_per_s", "kcycles/s", Higher),
    m("pipeline.resume_ms", "ms", Lower),
    m("model.cycles", "cycles", Lower),
    m("model.retired", "count", Lower),
    m("pipeline.squash_frac", "ratio", Lower),
    m("pipeline.recovery_stall_frac", "ratio", Lower),
    m("predict.mispredict_rate", "ratio", Lower),
    m("mem.l1d_miss_rate", "ratio", Lower),
    m("lab.image_hit_frac", "ratio", Higher),
    m("lab.run_hit_frac", "ratio", Higher),
    m("lab.worker_busy_frac", "ratio", Higher),
    m("lab.write_ms", "ms", Lower),
    m("report.render_ms", "ms", Lower),
    m("json.encode_ms", "ms", Lower),
    m("json.bytes", "bytes", Lower),
    m("serve.hot_p50_ms", "ms", Lower),
    m("serve.hot_p99_ms", "ms", Lower),
    m("serve.cold_p50_ms", "ms", Lower),
    m("serve.cold_p90_ms", "ms", Lower),
    m("serve.submit_ms", "ms", Lower),
    m("serve.fetch_ms", "ms", Lower),
    m("serve.status_polls", "count", Lower),
    m("serve.wait_ms", "ms", Lower),
    m("serve.service_ms", "ms", Lower),
    m("serve.submit_ms_growth", "ratio", Lower),
    m("serve.refused", "count", Lower),
    m("store.open_ms", "ms", Lower),
    m("store.read_ms", "ms", Lower),
    m("store.hit_frac", "ratio", Higher),
    m("store.writes", "count", Lower),
    m("store.write_ms", "ms", Lower),
    m("trace.wall_s", "s", Lower),
    m("trace.wall_ratio", "ratio", Lower),
    m("trace.overhead_frac", "ratio", Lower),
    m("trace.attributed_frac", "ratio", Higher),
    m("trace.spans", "count", Lower),
];

/// Metric values collected by a run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The median (mean of the middle two for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The nearest-rank percentile `q` (0 < q <= 1); 0 for none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
