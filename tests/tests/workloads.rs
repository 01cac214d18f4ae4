//! The benchmark workloads must be valid MinC and behave identically
//! on the interpreter, both emulated ISAs (all compilation modes),
//! and the cycle-accurate machines.

use straight_compiler::StraightOptions;
use straight_core::experiment::{RunParams, WorkloadKind, EVAL_MAX_DISTANCE, MAX_CYCLES};
use straight_core::{build, run_on, Target};
use straight_isa::InstKind;
use straight_sim::emu::{ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_sim::pipeline::{simulate, MachineConfig};
use straight_tests::{build_ir, build_riscv, build_straight, check_differential, run_interp};
use straight_workloads::{coremark, dhrystone, kernels};

#[test]
fn dhrystone_differential() {
    let b = check_differential(&dhrystone(5));
    assert!(!b.stdout.is_empty());
    assert_eq!(b.exit_code, 0);
}

#[test]
fn coremark_differential() {
    let b = check_differential(&coremark(2));
    assert!(!b.stdout.is_empty());
    assert_eq!(b.exit_code, 0);
}

#[test]
fn kernels_differential() {
    let fib = check_differential(&kernels::fibonacci(30));
    assert_eq!(fib.stdout, "832040\n");
    let sieve = check_differential(&kernels::sieve(1000));
    assert_eq!(sieve.stdout, "168\n");
    check_differential(&kernels::fibonacci_recursive(10));
    check_differential(&kernels::quicksort(100));
    check_differential(&kernels::crc32(256));
    check_differential(&kernels::matmul());
    check_differential(&kernels::string_ops());
}

#[test]
fn dhrystone_on_cycle_accurate_machines() {
    let module = build_ir(&dhrystone(3));
    let expected = run_interp(&module);
    let rv = simulate(build_riscv(&module), MachineConfig::ss_4way(), 50_000_000).unwrap();
    assert_eq!(rv.stdout, expected.stdout, "SS-4way");
    let st = simulate(
        build_straight(&module, &StraightOptions::default().with_max_distance(31)),
        MachineConfig::straight_4way(),
        50_000_000,
    )
    .unwrap();
    assert_eq!(st.stdout, expected.stdout, "STRAIGHT-4way");
}

#[test]
fn coremark_on_cycle_accurate_machines() {
    let module = build_ir(&coremark(1));
    let expected = run_interp(&module);
    let rv = simulate(build_riscv(&module), MachineConfig::ss_2way(), 50_000_000).unwrap();
    assert_eq!(rv.stdout, expected.stdout, "SS-2way");
    let st = simulate(
        build_straight(&module, &StraightOptions::default().with_max_distance(31)),
        MachineConfig::straight_2way(),
        50_000_000,
    )
    .unwrap();
    assert_eq!(st.stdout, expected.stdout, "STRAIGHT-2way");
}

#[test]
fn re_plus_reduces_rmov_count_on_coremark() {
    // Figure 15's central claim: RE+ drastically cuts the RMOVs the
    // basic algorithm inserts.
    let module = build_ir(&coremark(1));
    let raw = straight_tests::run_straight(build_straight(&module, &StraightOptions::raw()));
    let re = straight_tests::run_straight(build_straight(&module, &StraightOptions::default()));
    let raw_rmov = raw.stats.kinds[InstKind::Rmov];
    let re_rmov = re.stats.kinds[InstKind::Rmov];
    assert!(
        (re_rmov as f64) < 0.6 * raw_rmov as f64,
        "RE+ should cut RMOVs: RAW={raw_rmov} RE+={re_rmov}"
    );
    assert!(re.stats.retired < raw.stats.retired);
}

#[test]
fn coremark_has_more_live_pressure_than_dhrystone() {
    // The paper attributes CoreMark's larger RAW overhead to more
    // live values across merges; check the RMOV overhead ordering.
    let over = |src: &str| -> f64 {
        let module = build_ir(src);
        let raw = straight_tests::run_straight(build_straight(&module, &StraightOptions::raw()));
        let re = straight_tests::run_straight(build_straight(&module, &StraightOptions::default()));
        raw.stats.retired as f64 / re.stats.retired as f64
    };
    let d = over(&dhrystone(2));
    let c = over(&coremark(1));
    assert!(c > 1.05, "coremark RAW overhead should be visible: {c}");
    assert!(d > 0.9, "sanity: {d}");
}

#[test]
fn emulator_mix_equals_cycle_core_retired_kinds() {
    // Figure 15 takes the mix from the emulator; the cycle core counts
    // the same categories at commit. On one image they must agree
    // category by category.
    let params = RunParams::quick();
    let max_distance = EVAL_MAX_DISTANCE;
    for workload in [WorkloadKind::Dhrystone, WorkloadKind::Coremark] {
        let src = workload.source(&params);
        for (target, machine) in [
            (Target::Riscv, MachineConfig::ss_4way()),
            (
                Target::StraightRaw { max_distance },
                MachineConfig::straight_4way(),
            ),
            (
                Target::StraightRePlus { max_distance },
                MachineConfig::straight_4way(),
            ),
        ] {
            let image = build(&src, target).unwrap();
            let emu = match target {
                Target::Riscv => {
                    RiscvEmu::new(image.clone()).run_tiered(u64::MAX, TierConfig::fast())
                }
                _ => StraightEmu::new(image.clone()).run_tiered(u64::MAX, TierConfig::fast()),
            };
            let core = run_on(&image, machine, MAX_CYCLES).unwrap();
            let what = format!("{} on {target:?}", workload.name());
            assert_eq!(emu.exit_code(), Some(0), "{what}");
            assert_eq!(core.exit_code, Some(0), "{what}");
            assert_eq!(emu.stats.kinds, core.stats.retired_kinds, "{what}");
            assert_eq!(emu.stats.retired, core.stats.retired, "{what}");
        }
    }
}
