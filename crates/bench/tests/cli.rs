//! Integration tests of the `straight-lab` (and, for `--jobs`,
//! `straightd`) command line: argument validation happens at parse
//! time with usage-style exits (code 2), and `--normalize` produces
//! comparable output.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn straight_lab(args: &[&str]) -> Output {
    straight_lab_with_env(args, &[])
}

fn straight_lab_with_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_straight-lab"))
        .args(args)
        .env_remove("STRAIGHT_DHRY_ITERS")
        .env_remove("STRAIGHT_CM_ITERS")
        .envs(env.iter().copied())
        .output()
        .expect("spawn straight-lab")
}

#[test]
fn zero_jobs_is_a_usage_error_at_parse_time() {
    let out = straight_lab(&["--all", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs"), "stderr names the offending flag: {stderr}");
    assert!(stderr.contains("positive"), "stderr explains the constraint: {stderr}");
    // Nothing ran: no report on stdout.
    assert!(out.stdout.is_empty());
}

#[test]
fn non_numeric_jobs_is_rejected_the_same_way() {
    let out = straight_lab(&["--all", "--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`many`"));
}

#[test]
fn jobs_above_the_limit_are_usage_errors_in_both_binaries() {
    // No selection and no `--listen`: were `--jobs` accepted, parsing
    // would still fail on the missing argument, so no worker starts
    // whatever the outcome.
    let straightd = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_straightd")).args(args).output().expect("spawn straightd")
    };
    for run in [straight_lab as fn(&[&str]) -> Output, straightd] {
        for value in ["1025", "99999999999999"] {
            let out = run(&["--jobs", value]);
            assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let want = format!("--jobs: `{value}` is above the limit of 1024");
            assert!(stderr.contains(&want), "{stderr}");
        }
        let out = run(&["--jobs", "1024"]);
        assert_eq!(out.status.code(), Some(2), "the missing argument is still an error");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("--jobs:"), "1024 is accepted");
        let help = run(&["--help"]);
        let help = String::from_utf8_lossy(&help.stdout);
        assert!(help.contains("Worker-thread cap, 1..=1024"), "--help documents the limit");
    }
}

#[test]
fn bad_iteration_counts_are_usage_errors_at_parse_time() {
    for var in ["STRAIGHT_DHRY_ITERS", "STRAIGHT_CM_ITERS"] {
        for value in ["0", "many", "-3", ""] {
            let out = straight_lab_with_env(&["--figure", "fig11"], &[(var, value)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{var}={value:?}: {stderr}");
            assert!(stderr.contains(var), "stderr names the variable: {stderr}");
            assert!(stderr.contains(&format!("`{value}`")), "stderr quotes the value: {stderr}");
            assert!(out.stdout.is_empty(), "{var}={value:?}: nothing ran");
        }
    }
}

#[test]
fn unknown_figure_is_rejected_at_parse_time_listing_valid_ids() {
    let out = straight_lab(&["--figure", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "stderr names the bad id: {stderr}");
    for name in ["fig11", "sensitivity", "table1"] {
        assert!(stderr.contains(name), "stderr lists `{name}`: {stderr}");
    }
}

#[test]
fn normalize_output_is_stable_across_runs() {
    // Run table1 (no simulation, fast everywhere) twice into separate
    // directories; the normalized record text must match exactly even
    // though wall times differ.
    let base = std::env::temp_dir().join(format!("straight_cli_test_{}", std::process::id()));
    let dirs = [base.join("a"), base.join("b")];
    let mut normalized = Vec::new();
    for dir in &dirs {
        let out = straight_lab(&[
            "--figure",
            "table1",
            "--quick",
            "--quiet",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let record: PathBuf = dir.join("BENCH_table1.json");
        let out = straight_lab(&["--normalize", record.to_str().unwrap()]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty());
        normalized.push(out.stdout);
    }
    assert_eq!(
        normalized[0], normalized[1],
        "normalized records of identical runs must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn normalize_rejects_corrupt_files_nonzero() {
    let path = std::env::temp_dir().join(format!("straight_cli_bad_{}.json", std::process::id()));
    std::fs::write(&path, "not json").unwrap();
    let out = straight_lab(&["--normalize", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("INVALID"));
    let _ = std::fs::remove_file(&path);
}

/// A committed record that `--normalize` accepts.
const GOLDEN_TABLE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/BENCH_table1_quick.json");

#[test]
fn validate_still_runs_after_normalize() {
    let missing = std::env::temp_dir().join(format!("straight_cli_missing_{}.json", std::process::id()));
    let missing = missing.to_str().unwrap();
    let out = straight_lab(&["--normalize", GOLDEN_TABLE1, "--validate", missing]);
    assert!(!out.status.success(), "a missing --validate file must fail the run");
    assert!(String::from_utf8_lossy(&out.stderr).contains(missing), "stderr must name {missing}");
}

#[test]
fn list_and_normalize_both_print() {
    let out = straight_lab(&["--list", "--normalize", GOLDEN_TABLE1]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NAME") && stdout.contains("fig11"), "--list output missing:\n{stdout}");
    assert!(stdout.contains("\"experiment\""), "--normalize output missing:\n{stdout}");
}
