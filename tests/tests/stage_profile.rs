//! Exercises the `stage-profile` feature: per-stage host-time
//! counters must be populated for every stage once a real workload
//! has run, on both machine front-ends.
//!
//! Run with: `cargo test -p straight-tests --features stage-profile`

#![cfg(feature = "stage-profile")]

use straight_compiler::StraightOptions;
use straight_sim::pipeline::{Core, IsaKind, MachineConfig};
use straight_tests::{build_ir, build_riscv, build_straight};
use straight_workloads::dhrystone;

fn profile_of(isa: IsaKind) -> ([(&'static str, u64); 5], u64) {
    let module = build_ir(&dhrystone(20));
    let image = match isa {
        IsaKind::Straight => build_straight(&module, &StraightOptions::default()),
        IsaKind::Ss => build_riscv(&module),
    };
    let cfg = match isa {
        IsaKind::Straight => MachineConfig::straight_4way(),
        IsaKind::Ss => MachineConfig::ss_4way(),
    };
    let mut core = Core::new(image, cfg).expect("core builds");
    let result = core.run_retired(u64::MAX, 200_000_000);
    assert_eq!(result.exit_code, Some(0), "workload completes: {:?}", result.exit);
    (core.stage_profile(), result.stats.cycles)
}

#[test]
fn all_stages_accumulate_host_time() {
    for isa in [IsaKind::Straight, IsaKind::Ss] {
        let (profile, cycles) = profile_of(isa);
        let total: u64 = profile.iter().map(|&(_, ns)| ns).sum();
        for (name, ns) in profile {
            assert!(ns > 0, "{isa:?}: stage {name} recorded no host time");
            eprintln!("{isa:?} {name:>8}: {:>8.2} ms ({:.1}%, {:.0} ns/cycle)",
                ns as f64 / 1e6, 100.0 * ns as f64 / total as f64,
                ns as f64 / cycles as f64);
        }
        eprintln!("{isa:?} total: {:.2} ms over {cycles} cycles ({:.0} ns/cycle)",
            total as f64 / 1e6, total as f64 / cycles as f64);
    }
}

#[test]
fn stage_names_match_profile_order() {
    let (profile, _) = profile_of(IsaKind::Straight);
    let names: Vec<&str> = profile.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, straight_sim::pipeline::STAGE_NAMES.to_vec());
}
