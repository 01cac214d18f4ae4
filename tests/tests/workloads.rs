//! The benchmark workloads must be valid MinC and behave identically
//! on every executor of the oracle chain (`straight_tests::check_chain`):
//! the interpreter, both emulated ISAs in all compilation modes on both
//! emulator tiers, and the cycle-accurate machines, whose retired
//! instruction mix must equal the emulator's category by category.

use straight_compiler::StraightOptions;
use straight_ir::Module;
use straight_isa::InstKind;
use straight_sim::emu::{EmuStats, ExecBackend, StraightEmu};
use straight_tests::{build_ir, build_straight, check_chain};
use straight_workloads::{coremark, dhrystone, kernels};

/// The emulator's statistics for one STRAIGHT build.
fn straight_stats(module: &Module, opts: &StraightOptions) -> EmuStats {
    StraightEmu::new(build_straight(module, opts)).run(300_000_000).stats
}

#[test]
fn dhrystone_differential() {
    let b = check_chain(&dhrystone(5));
    assert!(!b.stdout.is_empty());
    assert_eq!(b.exit_code, Some(0));
}

#[test]
fn coremark_differential() {
    let b = check_chain(&coremark(2));
    assert!(!b.stdout.is_empty());
    assert_eq!(b.exit_code, Some(0));
}

#[test]
fn kernels_differential() {
    let fib = check_chain(&kernels::fibonacci(30));
    assert_eq!(fib.stdout, "832040\n");
    let sieve = check_chain(&kernels::sieve(1000));
    assert_eq!(sieve.stdout, "168\n");
    check_chain(&kernels::fibonacci_recursive(10));
    check_chain(&kernels::quicksort(100));
    check_chain(&kernels::crc32(256));
    check_chain(&kernels::matmul());
    check_chain(&kernels::string_ops());
}

#[test]
fn re_plus_reduces_rmov_count_on_coremark() {
    // Figure 15's central claim: RE+ drastically cuts the RMOVs the
    // basic algorithm inserts.
    let module = build_ir(&coremark(1));
    let raw = straight_stats(&module, &StraightOptions::raw());
    let re = straight_stats(&module, &StraightOptions::default());
    let raw_rmov = raw.kinds[InstKind::Rmov];
    let re_rmov = re.kinds[InstKind::Rmov];
    assert!(
        (re_rmov as f64) < 0.6 * raw_rmov as f64,
        "RE+ should cut RMOVs: RAW={raw_rmov} RE+={re_rmov}"
    );
    assert!(re.retired < raw.retired);
}

#[test]
fn coremark_has_more_live_pressure_than_dhrystone() {
    // The paper attributes CoreMark's larger RAW overhead to more
    // live values across merges; check the RMOV overhead ordering.
    let over = |src: &str| -> f64 {
        let module = build_ir(src);
        let raw = straight_stats(&module, &StraightOptions::raw());
        let re = straight_stats(&module, &StraightOptions::default());
        raw.retired as f64 / re.retired as f64
    };
    let d = over(&dhrystone(2));
    let c = over(&coremark(1));
    assert!(c > 1.05, "coremark RAW overhead should be visible: {c}");
    assert!(d > 0.9, "sanity: {d}");
}
