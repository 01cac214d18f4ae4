//! The benchmark's self-test, at the tiny scale: every metric
//! `BENCHMARK.json` names is printed with its unit and direction, the
//! output checks pass, and the deterministic metrics repeat exactly
//! across two runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use straight_json::Json;

/// Metrics that depend only on the simulated model and the seed.
const DETERMINISTIC: &[&str] = &[
    "paper_gap_pct",
    "sample_err_pct",
    "model.cycles",
    "model.retired",
    "pipeline.squash_frac",
    "pipeline.recovery_stall_frac",
    "predict.mispredict_rate",
    "mem.l1d_miss_rate",
    "lab.image_hit_frac",
    "lab.run_hit_frac",
    "emu.checkpoint_bytes",
];

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in one section.
fn section(spec: &Json, key: &str) -> Vec<(String, String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

struct Output {
    result: Json,
    /// The human-readable lines before the result.
    text: String,
}

fn run(workload: &str, trace: bool) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Output {
        result: Json::parse(last).expect("the last line is JSON"),
        text: stdout,
    }
}

fn value(output: &Output, name: &str) -> f64 {
    output
        .result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn check(workload: &str, trace: bool, metrics: &[(String, String, String)]) {
    let first = run(workload, trace);
    let second = run(workload, trace);
    for output in [&first, &second] {
        let result = &output.result;
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}: {}",
            output.text
        );
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let emitted = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(
            emitted.len(),
            metrics.len(),
            "{workload}: exactly the listed metrics"
        );
        for (name, unit, better) in metrics {
            let metric = result.get("metrics").and_then(|m| m.get(name));
            let metric = metric.unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            let line = output
                .text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
            assert!(line.ends_with(&format!("({better} is better)")), "{line}");
        }
    }
    for name in DETERMINISTIC {
        if metrics.iter().any(|(n, ..)| n == name) {
            assert_eq!(
                value(&first, name).to_bits(),
                value(&second, name).to_bits(),
                "{workload}: {name} repeats"
            );
        }
    }
}

#[test]
fn every_workload_emits_its_metrics_and_repeats_its_counts() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert_eq!(workloads, ["grid", "emulate", "serve"]);
    let (end_to_end, per_layer) = (section(&spec, "end_to_end"), section(&spec, "per_layer"));
    for workload in &workloads {
        check(workload, false, &end_to_end);
        check(workload, true, &per_layer);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
