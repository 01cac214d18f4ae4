//! Exercises the `stage-profile` feature: the rotating sample must
//! charge host time to every stage once a real workload has run, on
//! all four Table I machines and a TAGE machine, and its scaled total
//! must agree with the wall time of the same run.
//!
//! Run with: `cargo test -p straight-tests --features stage-profile`

#![cfg(feature = "stage-profile")]

use std::time::Instant;

use straight_compiler::StraightOptions;
use straight_sim::pipeline::{Core, IsaKind, MachineConfig, STAGE_NAMES, STAGE_SAMPLE_PERIOD};
use straight_tests::{build_ir, build_riscv, build_straight};
use straight_workloads::dhrystone;

/// Runs Dhrystone at `iters` on `cfg` to completion; returns the
/// estimated per-stage host time, the wall time of the same
/// `run_retired` call in nanoseconds, and the simulated cycles.
fn profile_of(cfg: MachineConfig, iters: u32) -> ([(&'static str, u64); 5], u64, u64) {
    let module = build_ir(&dhrystone(iters));
    let image = match cfg.isa {
        IsaKind::Straight => build_straight(&module, &StraightOptions::default()),
        IsaKind::Ss => build_riscv(&module),
    };
    let mut core = Core::new(image, cfg).expect("core builds");
    let t0 = Instant::now();
    let result = core.run_retired(u64::MAX, 200_000_000);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(result.exit_code, Some(0), "workload completes: {:?}", result.exit);
    (core.stage_profile(), wall_ns, result.stats.cycles)
}

/// One test, so the machines run one after another and no other test
/// of this file competes with the timed runs.
#[test]
fn sampled_stages_account_for_the_wall_time() {
    for cfg in [
        MachineConfig::ss_2way(),
        MachineConfig::ss_4way(),
        MachineConfig::straight_2way(),
        MachineConfig::straight_4way(),
        MachineConfig::ss_4way().with_tage(),
    ] {
        let name = cfg.name.clone();
        let (profile, wall_ns, cycles) = profile_of(cfg, 100);
        // Each stage is timed once every 5 × period cycles; a run this
        // long gives every stage hundreds of samples.
        assert!(cycles > 100 * 5 * STAGE_SAMPLE_PERIOD, "{name}: only {cycles} cycles");
        let total: u64 = profile.iter().map(|&(_, ns)| ns).sum();
        for (stage, ns) in profile {
            assert!(ns > 0, "{name}: stage {stage} recorded no host time");
            eprintln!(
                "{name} {stage:>8}: {:>8.2} ms ({:.1}%, {:.0} ns/cycle)",
                ns as f64 / 1e6,
                100.0 * ns as f64 / total as f64,
                ns as f64 / cycles as f64
            );
        }
        let ratio = total as f64 / wall_ns as f64;
        eprintln!(
            "{name} total: {:.2} ms estimated, {:.2} ms wall ({ratio:.2}×) over {cycles} cycles",
            total as f64 / 1e6,
            wall_ns as f64 / 1e6
        );
        assert!((0.5..=2.0).contains(&ratio), "{name}: scaled stage total is {ratio:.2}× the wall time");
    }
}

#[test]
fn stage_names_match_profile_order() {
    let (profile, _, _) = profile_of(MachineConfig::straight_2way(), 1);
    let names: Vec<&str> = profile.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, STAGE_NAMES.to_vec());
}
