//! Tests of the machine-readable experiment records produced by the
//! `straight-lab` runner: JSON round-tripping, run-to-run determinism,
//! and the compatibility of the re-rendered reports.

use straight_compiler::StraightOptions;
use straight_core::experiment::{
    CellRecord, ExperimentId, ExperimentResult, RunParams, SCHEMA_VERSION,
};
use straight_core::lab::{validate_file, LabRun, LabSession};
use straight_isa::InstKind;
use straight_json::{FromJson, Json, ToJson};
use straight_sim::pipeline::{Core, MachineConfig, SimStats};
use straight_sim::KindCounts;
use straight_tests::{build_ir, build_riscv, build_straight};
use straight_workloads::dhrystone;

/// Tiny parameters so pipeline cells finish quickly in debug builds.
fn tiny_params() -> RunParams {
    RunParams { dhry_iters: 5, cm_iters: 1, ..RunParams::default() }
}

fn ids(names: &[&str]) -> Vec<ExperimentId> {
    names.iter().map(|s| s.parse().expect("test uses valid experiment names")).collect()
}

/// A fresh session (so tests stay independent) running `names` with
/// tiny parameters on `jobs` workers.
fn run_fresh(names: &[&str], jobs: usize) -> Vec<LabRun> {
    let session = LabSession::builder().jobs(jobs).build().unwrap();
    session.run(&ids(names), tiny_params()).unwrap()
}

/// A synthetic record exercising every optional field at once (real
/// cells set disjoint subsets).
fn synthetic_result() -> ExperimentResult {
    let mut stats = SimStats { cycles: 1000, retired: 151, ..SimStats::default() };
    stats.retired_kinds[InstKind::Alu] = 150;
    stats.retired_kinds[InstKind::JumpBranch] = 1;
    let mut kinds = KindCounts::default();
    kinds[InstKind::Alu] = 150;
    stats.events.rmt_reads = 42;
    stats.mem.l1d = (100, 7);
    ExperimentResult {
        schema_version: SCHEMA_VERSION,
        experiment: "synthetic".to_string(),
        title: "Synthetic experiment".to_string(),
        paper_ref: "none".to_string(),
        git_rev: "deadbeef".to_string(),
        params: tiny_params(),
        wall_ms: 12.5,
        cells: vec![CellRecord {
            id: "synthetic/g/l".to_string(),
            experiment: "synthetic".to_string(),
            group: "g".to_string(),
            label: "l \"quoted\"\n".to_string(),
            workload: Some("Dhrystone".to_string()),
            target: Some("RV32IM".to_string()),
            machine: Some("SS-2way".to_string()),
            config_fingerprint: "0123456789abcdef".to_string(),
            param: Some(31),
            cycles: 1000,
            retired: 151,
            ipc: 0.151,
            stats: Some(stats),
            kinds: Some(kinds),
            distances: Some(vec![(1, 0.5), (1024, 1.0)]),
            max_distance_used: Some(900),
            stdout_digest: Some("ffffffffffffffff".to_string()),
            wall_ms: 3.25,
            sim_wall_ms: Some(2.5),
            ksim_cycles_per_sec: Some(400.0),
        }],
    }
}

#[test]
fn synthetic_record_roundtrips_through_json() {
    let original = synthetic_result();
    let text = original.to_json().render_pretty();
    let reparsed = ExperimentResult::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(reparsed, original);
    // And a second serialization is byte-identical (deterministic key
    // order).
    assert_eq!(reparsed.to_json().render_pretty(), text);
}

#[test]
fn real_records_roundtrip_through_json() {
    // fig15/fig16 run on the functional emulators, so they are fast
    // even in debug builds and cover the emulator cell kinds; table1
    // covers config cells.
    let runs = run_fresh(&["fig15", "fig16", "table1"], 4);
    assert_eq!(runs.len(), 3);
    for run in runs {
        let text = run.result.to_json().render_pretty();
        let reparsed = ExperimentResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed, run.result);
    }
}

#[test]
fn same_cell_twice_is_identical_modulo_wall_time() {
    let a = run_fresh(&["fig15"], 4).remove(0);
    let b = run_fresh(&["fig15"], 4).remove(0);
    // Wall times differ between runs; everything else must not.
    assert_eq!(a.result.normalized(), b.result.normalized());
    assert_eq!(
        a.result.normalized().to_json().render_pretty(),
        b.result.normalized().to_json().render_pretty()
    );
    // The rendered report carries no timing, so it is identical as-is.
    assert_eq!(a.rendered, b.rendered);
}

#[test]
fn parallel_and_serial_runs_agree() {
    let a = run_fresh(&["fig16"], 1).remove(0);
    let b = run_fresh(&["fig16"], 8).remove(0);
    assert_eq!(a.result.normalized(), b.result.normalized());
}

/// Regression test for cross-run predictor state leakage: pipeline
/// cells (which carry branch-predictor and store-set state inside the
/// simulated core) must produce identical records whether they run
/// serially, in parallel, or in a different experiment order. A
/// predictor whose state leaks across simulations (the old
/// `thread_local!` store-set decay counter) breaks exactly this.
#[test]
fn pipeline_records_do_not_depend_on_schedule_or_order() {
    // fig17 contains pipeline (cycle-accurate) Dhrystone cells; fig15
    // rides along so experiment order can be permuted.
    let a = run_fresh(&["fig15", "fig17"], 1);
    let b = run_fresh(&["fig15", "fig17"], 8);
    let c = run_fresh(&["fig17", "fig15"], 1);

    // The grid actually exercised the cycle-accurate pipeline.
    assert!(
        a.iter().flat_map(|r| &r.result.cells).any(|cell| cell.stats.is_some()),
        "expected at least one pipeline cell in fig17"
    );

    let by_name = |runs: &[LabRun], name: &str| {
        runs.iter()
            .map(|r| r.result.normalized())
            .find(|r| r.experiment == name)
            .expect("experiment present")
    };
    for name in ["fig15", "fig17"] {
        let serial_r = by_name(&a, name);
        assert_eq!(serial_r, by_name(&b, name), "{name}: jobs=1 vs jobs=8 diverged");
        assert_eq!(serial_r, by_name(&c, name), "{name}: experiment order changed the records");
    }
}

/// Pipeline cells must report the profiler's throughput fields;
/// non-pipeline cells must not.
#[test]
fn pipeline_records_carry_throughput_profile() {
    let runs = run_fresh(&["fig17"], 4);
    let mut pipeline_cells = 0;
    for cell in runs.iter().flat_map(|r| &r.result.cells) {
        if cell.stats.is_some() {
            pipeline_cells += 1;
            let sim_ms = cell.sim_wall_ms.expect("pipeline cell has sim_wall_ms");
            let kcps = cell.ksim_cycles_per_sec.expect("pipeline cell has throughput");
            assert!(sim_ms > 0.0, "sim_wall_ms must be positive, got {sim_ms}");
            assert!(kcps > 0.0, "ksim_cycles_per_sec must be positive, got {kcps}");
            let expected = cell.cycles as f64 / sim_ms;
            assert!((kcps - expected).abs() < 1e-9 * expected.max(1.0));
        } else {
            assert_eq!(cell.sim_wall_ms, None);
            assert_eq!(cell.ksim_cycles_per_sec, None);
        }
    }
    assert!(pipeline_cells > 0, "fig17 should contain pipeline cells");
    // normalized() strips the volatile profiling fields.
    for run in &runs {
        for cell in &run.result.normalized().cells {
            assert_eq!(cell.sim_wall_ms, None);
            assert_eq!(cell.ksim_cycles_per_sec, None);
        }
    }
}

#[test]
fn written_files_validate_and_re_render() {
    let dir = std::env::temp_dir().join(format!("straight_lab_test_{}", std::process::id()));
    let session =
        LabSession::builder().jobs(4).out_dir(Some(dir.clone())).build().unwrap();
    let runs = session.run(&ids(&["fig15", "fig11", "sampled"]), tiny_params()).unwrap();
    for run in &runs {
        let path = run.path.clone().expect("out_dir set, so a path is returned");
        assert!(path.ends_with(format!("BENCH_{}.json", run.result.experiment)));

        // The file parses, schema-checks, and regenerates the exact
        // text report.
        let reloaded = validate_file(&path).unwrap();
        assert_eq!(reloaded, run.result);
        let spec = straight_core::experiment::find(&run.result.experiment).unwrap();
        assert_eq!(spec.render(&reloaded).unwrap(), run.rendered);
    }

    // Records that parse but cannot render are rejected too.
    let path = runs[0].path.clone().unwrap();
    let rejects = |result: &ExperimentResult, what: &str, expect: &str| {
        std::fs::write(&path, result.to_json().render_pretty()).unwrap();
        let err = validate_file(&path).expect_err(what).to_string();
        assert!(err.contains(expect), "{what}: got {err}");
    };
    let mut mix = runs[0].result.clone();
    mix.cells[1].stdout_digest = Some("0123456789abcdef".to_string());
    rejects(&mix, "a tampered stdout digest", "diverged");
    let mut renamed = runs[1].result.clone();
    renamed.experiment = "fig99".to_string();
    rejects(&renamed, "an unknown experiment", "unknown experiment `fig99`");
    let mut unpaired = runs[2].result.clone();
    unpaired.cells.retain(|c| !c.label.ends_with(" (sampled)"));
    rejects(&unpaired, "sampled records without estimates", "missing sampled cell");

    // A mix category the figure does not have is rejected, not
    // dropped from the report.
    let mut json = runs[0].result.to_json();
    let Json::Obj(fields) = &mut json else { panic!("a record is an object") };
    let Some((_, Json::Arr(cells))) = fields.iter_mut().find(|(k, _)| k == "cells") else {
        panic!("a record has cells")
    };
    let Json::Obj(cell) = &mut cells[0] else { panic!("a cell is an object") };
    let Some((_, Json::Obj(kinds))) = cell.iter_mut().find(|(k, _)| k == "kinds") else {
        panic!("a fig15 cell has kinds")
    };
    kinds.push(("fma".to_string(), 3u64.to_json()));
    std::fs::write(&path, json.render_pretty()).unwrap();
    let err = validate_file(&path).expect_err("an unknown mix category").to_string();
    assert!(err.contains("unknown retired-instruction kind `fma`"), "got {err}");

    // Corrupted files are rejected, not misread.
    std::fs::write(&path, "{\"schema_version\": 999}").unwrap();
    assert!(validate_file(&path).is_err());
    std::fs::write(&path, "not json at all").unwrap();
    assert!(validate_file(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed golden records, one per experiment, re-render in grid
/// order to exactly the report text a live `straight-lab --all --quick`
/// run prints (`tests/golden/report_quick.txt`; `scripts/ci.sh`
/// compares a live run against both).
#[test]
fn golden_records_render_the_committed_report_text() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let report = std::fs::read_to_string(golden.join("report_quick.txt")).unwrap();
    let mut rendered = String::new();
    for spec in straight_core::experiment::all() {
        let name = spec.id.to_string();
        let result = validate_file(&golden.join(format!("BENCH_{name}_quick.json"))).unwrap();
        let text = spec.render(&result).unwrap();
        assert!(text.lines().count() > 2, "{name}: {text}");
        rendered.push_str(&text);
    }
    assert_eq!(rendered, report, "the golden records render a different report");
}

/// Two fresh cores of one cell, run one after the other in one thread,
/// must serialize to exactly the same record bytes (the bit-identity
/// contract of DESIGN.md's "Data-oriented core" section): state leaked
/// from the first run through a global or thread-local would change
/// the second.
#[test]
fn fresh_cores_in_one_thread_are_byte_identical() {
    let module = build_ir(&dhrystone(5));
    let straight = build_straight(&module, &StraightOptions::default());
    let riscv = build_riscv(&module);
    // The TAGE machines also cover the folded global history.
    let cells: [(straight_asm::Image, MachineConfig); 4] = [
        (straight.clone(), MachineConfig::straight_4way()),
        (riscv.clone(), MachineConfig::ss_4way()),
        (straight, MachineConfig::straight_4way().with_tage()),
        (riscv, MachineConfig::ss_4way().with_tage()),
    ];
    for (image, cfg) in cells {
        let name = cfg.name.clone();
        let run = || Core::new(image.clone(), cfg.clone()).expect("core builds").run(50_000_000);
        let first = run();
        assert_eq!(first.exit_code, Some(0), "{name}: first run completes");
        let second = run();
        let a = first.stats.to_json().render_pretty();
        let b = second.stats.to_json().render_pretty();
        assert_eq!(a, b, "{name}: second run diverged from the first");
        assert_eq!(first.stdout, second.stdout, "{name}: stdout diverged");
        assert_eq!(first.exit_code, second.exit_code, "{name}: exit code diverged");
    }
}

/// Regression test for the lazily-built sanitizer oracle: a default
/// (unsanitized) run must never clone the image into a shadow
/// emulator, while a sanitized run builds it at first retirement.
#[test]
fn shadow_emulator_is_only_built_when_sanitizing() {
    // Built for the machine's distance bound: the sanitizer traps a
    // binary whose operands reach past it.
    let module = build_ir(&dhrystone(1));
    let image = build_straight(&module, &StraightOptions::default().with_max_distance(31));

    let mut core =
        Core::new(image.clone(), MachineConfig::straight_4way()).expect("core builds");
    let r = core.run_retired(u64::MAX, 50_000_000);
    assert_eq!(r.exit_code, Some(0));
    assert!(
        !core.shadow_allocated(),
        "a default run must not allocate the sanitizer's shadow emulator"
    );

    let mut core =
        Core::new(image, MachineConfig::straight_4way().with_sanitizer()).expect("core builds");
    let r = core.run_retired(u64::MAX, 50_000_000);
    assert_eq!(r.exit_code, Some(0));
    assert!(core.shadow_allocated(), "a sanitized run builds the shadow oracle");
}

#[test]
fn records_carry_provenance() {
    let runs = run_fresh(&["table1"], 4);
    let result = &runs[0].result;
    assert_eq!(result.schema_version, SCHEMA_VERSION);
    assert!(!result.git_rev.is_empty());
    assert_eq!(result.params.dhry_iters, 5);
    for cell in &result.cells {
        assert_eq!(cell.config_fingerprint.len(), 16);
        assert!(cell.config_fingerprint.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(cell.id.starts_with("table1/"));
    }
}

#[test]
fn perf_records_detect_divergence_at_render_time() {
    // Tamper with a stored record: if one variant's stdout digest
    // differs, rendering must fail with a divergence error rather than
    // comparing unlike programs.
    let runs = run_fresh(&["fig15"], 4);
    let mut result = runs[0].result.clone();
    // fig15 is a Mix figure (no divergence check); re-shape the cells
    // into a perf experiment to exercise the perf assembly path.
    let spec = straight_core::experiment::find("fig11").unwrap();
    for (i, cell) in result.cells.iter_mut().enumerate() {
        cell.group = "Coremark".to_string();
        cell.stdout_digest = Some(format!("{i:016x}"));
    }
    let err = spec.render(&result).unwrap_err();
    assert!(err.to_string().contains("diverged"), "got: {err}");
}

#[test]
fn mix_records_detect_divergence_at_render_time() {
    // Every figure cross-checks its groups' output digests, not only
    // the performance figures.
    let runs = run_fresh(&["fig15"], 4);
    let mut result = runs[0].result.clone();
    let spec = straight_core::experiment::find("fig15").unwrap();
    assert!(spec.render(&result).is_ok());
    result.cells[2].stdout_digest = Some("0123456789abcdef".to_string());
    let err = spec.render(&result).unwrap_err();
    assert!(err.to_string().contains("diverged"), "got: {err}");
}
