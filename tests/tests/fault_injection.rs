//! The robustness harness end to end: seeded fault-injection
//! campaigns against the cycle-accurate cores, the hazard sanitizer's
//! clean-run and detection behaviour, the forward-progress watchdog,
//! and construction-time configuration validation.
//!
//! The campaign contract (see `straight_sim::inject`): every injected
//! fault must be **masked** (oracle-identical output), **recovered**
//! (absorbed by the machine's own speculation recovery), or
//! **detected** (a typed trap from the sanitizer, an architectural
//! check, or the watchdog) — never a silent divergence from the
//! functional emulator.

use straight_asm::ImageIsa;
use straight_compiler::StraightOptions;
use straight_core::experiment::{RunParams, WorkloadKind};
use straight_core::{build, Target};
use straight_ir::interp;
use straight_isa::rng::SplitMix64;
use straight_isa::TrapKind;
use straight_sim::inject::FaultKind;
use straight_sim::pipeline::{simulate, Core, CoreError, IsaKind, MachineConfig, SimExit, SimResult};
use straight_tests::{build_ir, build_riscv, build_straight, check_image};

const MAX: u64 = 20_000_000;

/// A branchy, memory-touching workload long enough that mid-run
/// injections land in a busy pipeline.
const WORKLOAD: &str = "
    int buf[32];
    int lcg = 7;
    int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
    int main() {
        int s = 0;
        int i;
        for (i = 0; i < 400; i++) {
            buf[i % 32] = next();
            if (buf[i % 32] % 3 == 0) s += buf[(i + 7) % 32];
            else s = s ^ i;
        }
        print_int(s);
        return 0;
    }";

fn straight_image() -> straight_asm::Image {
    build_straight(&build_ir(WORKLOAD), &StraightOptions::default().with_max_distance(31))
}

fn riscv_image() -> straight_asm::Image {
    build_riscv(&build_ir(WORKLOAD))
}

fn completed(r: &SimResult, what: &str) -> (i32, String) {
    match r.exit {
        SimExit::Completed { code } => (code, r.stdout.clone()),
        ref other => panic!("{what} did not complete: {other:?}"),
    }
}

// -- sanitizer: clean machines pass ---------------------------------

/// The IR interpreter's exit code and output for `WORKLOAD`.
fn reference() -> (Option<i32>, String) {
    let r = interp::run_main(&build_ir(WORKLOAD)).expect("interpreter runs");
    (Some(r.exit_code), r.stdout)
}

/// `check_image` runs every STRAIGHT core with and without the
/// sanitizer: sanitized runs must complete with the reference outcome,
/// and the sanitizer, a zero-cycle retire-time checker, must leave the
/// cycle count unchanged.
#[test]
fn sanitizer_passes_clean_straight_machines() {
    assert!(MachineConfig::straight_2way().with_sanitizer().name.ends_with("+sanitizer"));
    let out = check_image(&straight_image(), "STRAIGHT RE+ d=31");
    assert_eq!((out.exit_code, out.stdout), reference());
}

/// The same for the SS cores on the RV32IM build.
#[test]
fn sanitizer_passes_clean_ss_machines() {
    let out = check_image(&riscv_image(), "RV32IM");
    assert_eq!((out.exit_code, out.stdout), reference());
}

/// A binary compiled for a wider distance bound than the machine's
/// must not run silently: its first operand past the bound could read
/// a register already reallocated (§III-B sizes the register file for
/// `max_distance` plus the ROB). The sanitizer's oracle enforces the
/// machine's bound, so the `--quick` Figure 16 Dhrystone image (RE+
/// at distance 1023, whose longest operand reaches 98) traps on the
/// 31-bound machine, while its d=31 build completes.
#[test]
fn sanitizer_traps_distances_above_the_machine_bound() {
    let src = WorkloadKind::Dhrystone.source(&RunParams::quick());
    let cfg = MachineConfig::straight_4way().with_sanitizer();
    assert_eq!(cfg.max_distance, 31);

    let wide = build(&src, Target::StraightRePlus { max_distance: 1023 }).unwrap();
    let r = simulate(wide, cfg.clone(), MAX).unwrap();
    let trap = r.trap().unwrap_or_else(|| panic!("expected a trap: {:?}", r.exit));
    assert!(
        matches!(trap.kind, TrapKind::DistanceAboveBound { bound: 31, dist } if dist > 31),
        "{trap:?}"
    );
    assert!(trap.kind.is_sanitizer());

    let fitted = build(&src, Target::StraightRePlus { max_distance: 31 }).unwrap();
    let r = simulate(fitted, cfg, MAX).unwrap();
    completed(&r, "sanitized d=31 Dhrystone");
}

// -- fault class 1: PRF bit flips (soft errors) ---------------------

/// Seeded campaign: flip one PRF bit mid-run under the sanitizer.
/// Every trial must end masked or detected; count both to make sure
/// the campaign actually exercises both outcomes.
fn prf_flip_campaign(image: &straight_asm::Image, cfg: &MachineConfig, seed: u64) -> (u32, u32) {
    let clean = simulate(image.clone(), cfg.clone(), MAX).unwrap();
    let (clean_code, clean_stdout) = completed(&clean, "clean run");
    let mut rng = SplitMix64::new(seed);
    let (mut masked, mut detected) = (0u32, 0u32);
    for trial in 0..24 {
        let mut core = Core::new(image.clone(), cfg.clone()).unwrap();
        let at = 100 + rng.below(clean.stats.cycles.saturating_sub(200).max(1));
        let reg = rng.below(u64::from(cfg.phys_regs)) as u16;
        let bit = rng.below(32) as u8;
        core.schedule_fault(at, FaultKind::PrfBitFlip { reg, bit });
        let r = core.run(MAX);
        match r.exit {
            SimExit::Completed { code } => {
                assert_eq!(code, clean_code, "trial {trial}: silent exit-code divergence");
                assert_eq!(r.stdout, clean_stdout, "trial {trial}: silent output divergence");
                masked += 1;
            }
            SimExit::Trap(t) => {
                detected += 1;
                assert!(t.cycle.is_some_and(|c| c >= at), "trial {trial}: trap {t} predates the fault");
            }
            SimExit::CycleLimit => panic!("trial {trial}: fault hung the core undetected"),
        }
    }
    (masked, detected)
}

#[test]
fn prf_bitflip_campaign_straight() {
    let cfg = MachineConfig::straight_2way().with_sanitizer();
    let (masked, detected) = prf_flip_campaign(&straight_image(), &cfg, 0x5eed_0001);
    println!("STRAIGHT campaign: masked={masked} detected={detected}");
    assert!(masked > 0, "campaign never masked a flip (masked={masked} detected={detected})");
    assert!(detected > 0, "campaign never detected a flip (masked={masked} detected={detected})");
}

#[test]
fn prf_bitflip_campaign_ss() {
    let cfg = MachineConfig::ss_2way().with_sanitizer();
    let (masked, detected) = prf_flip_campaign(&riscv_image(), &cfg, 0x5eed_0002);
    println!("SS campaign: masked={masked} detected={detected}");
    assert!(masked > 0, "campaign never masked a flip (masked={masked} detected={detected})");
    assert!(detected > 0, "campaign never detected a flip (masked={masked} detected={detected})");
}

#[test]
fn detected_flips_raise_sanitizer_or_architectural_traps() {
    // The detection channel must be a *typed* trap: either one of the
    // sanitizer kinds or an architectural fault the corruption caused
    // (e.g. a wild access through a flipped address register).
    let image = straight_image();
    let cfg = MachineConfig::straight_2way().with_sanitizer();
    let mut rng = SplitMix64::new(0x5eed_0003);
    let mut kinds = Vec::new();
    for _ in 0..24 {
        let mut core = Core::new(image.clone(), cfg.clone()).unwrap();
        let at = 100 + rng.below(2_000);
        let reg = rng.below(u64::from(cfg.phys_regs)) as u16;
        let bit = rng.below(32) as u8;
        core.schedule_fault(at, FaultKind::PrfBitFlip { reg, bit });
        if let SimExit::Trap(t) = core.run(MAX).exit {
            kinds.push(t.kind);
        }
    }
    assert!(!kinds.is_empty(), "no flip was detected");
    assert!(
        kinds.iter().any(|k| k.is_sanitizer()),
        "expected at least one sanitizer-kind detection, got {kinds:?}"
    );
}

// -- fault class 2: corrupted predictor state (recovered) -----------

#[test]
fn forced_mispredictions_are_recovered() {
    let image = straight_image();
    let cfg = MachineConfig::straight_4way().with_sanitizer();
    let clean = simulate(image.clone(), cfg.clone(), MAX).unwrap();
    let (clean_code, clean_stdout) = completed(&clean, "clean run");
    let mut core = Core::new(image, cfg).unwrap();
    for at in [200, 900, 1_700, 2_600, 3_400] {
        core.schedule_fault(at, FaultKind::ForceMispredict);
    }
    let r = core.run(MAX);
    assert_eq!(core_exit(&r), (clean_code, clean_stdout.as_str()), "recovery must hide the flips");
}

#[test]
fn ras_corruption_is_recovered() {
    // Garbage return addresses predict wrong return targets; indirect
    // misprediction recovery must absorb them on both ISAs.
    for (image, cfg) in [
        (straight_image(), MachineConfig::straight_2way().with_sanitizer()),
        (riscv_image(), MachineConfig::ss_2way().with_sanitizer()),
    ] {
        let clean = simulate(image.clone(), cfg.clone(), MAX).unwrap();
        let (clean_code, clean_stdout) = completed(&clean, "clean run");
        let mut core = Core::new(image, cfg).unwrap();
        core.schedule_fault(300, FaultKind::RasCorrupt { slots: 4 });
        core.schedule_fault(1_500, FaultKind::RasCorrupt { slots: 8 });
        let r = core.run_retired(u64::MAX, MAX);
        assert_eq!(core.faults_applied(), 2);
        assert_eq!(core_exit(&r), (clean_code, clean_stdout.as_str()));
    }
}

fn core_exit(r: &SimResult) -> (i32, &str) {
    match r.exit {
        SimExit::Completed { code } => (code, r.stdout.as_str()),
        ref other => panic!("run did not complete: {other:?}\n--- stdout ---\n{}", r.stdout),
    }
}

// -- fault class 3: lost completions (watchdog) ---------------------

#[test]
fn lost_completions_trip_the_watchdog() {
    // Dropping in-flight completions deadlocks commit: the ROB head
    // stays Issued forever. The watchdog must abort well under 10k
    // cycles with a structured diagnostic.
    let image = straight_image();
    let cfg = MachineConfig::straight_2way().with_sanitizer().with_watchdog(2_000);
    let mut core = Core::new(image, cfg).unwrap();
    // Clear in-flight ops every cycle across a window: whatever issues
    // during it never writes back.
    for at in 200..400 {
        core.schedule_fault(at, FaultKind::LoseCompletion);
    }
    let r = core.run(MAX);
    let trap = r.trap().expect("watchdog trap");
    assert!(matches!(trap.kind, TrapKind::Watchdog { stalled_cycles } if stalled_cycles > 2_000));
    assert!(r.stats.cycles < 10_000, "aborted too late: cycle {}", r.stats.cycles);
    let report = r.watchdog.expect("structured diagnostic");
    println!("watchdog report:\n{report}");
    assert!(report.stalled_cycles > 2_000);
    assert!(report.rob_len > 0, "a deadlocked ROB is non-empty");
    let text = report.to_string();
    assert!(text.contains("no commit for"), "{text}");
    assert!(text.contains("rob head"), "{text}");
    assert!(text.contains("fetch_pc"), "{text}");
}

#[test]
fn watchdog_fires_on_ss_too() {
    let image = riscv_image();
    let cfg = MachineConfig::ss_2way().with_watchdog(1_500);
    let mut core = Core::new(image, cfg).unwrap();
    for at in 200..400 {
        core.schedule_fault(at, FaultKind::LoseCompletion);
    }
    let r = core.run(MAX);
    assert!(matches!(r.exit, SimExit::Trap(t) if matches!(t.kind, TrapKind::Watchdog { .. })));
    assert!(r.stats.cycles < 10_000);
    assert!(r.watchdog.is_some());
}

// -- construction-time validation -----------------------------------

#[test]
fn core_rejects_mismatched_isa() {
    let s_image = straight_image();
    let r_image = riscv_image();
    match Core::new(s_image.clone(), MachineConfig::ss_4way()) {
        Err(CoreError::IsaMismatch { machine, image }) => {
            assert_eq!(machine, IsaKind::Ss);
            assert_eq!(image, ImageIsa::Straight);
        }
        other => panic!("expected an ISA mismatch, got {:?}", other.err()),
    }
    match Core::new(r_image, MachineConfig::straight_4way()) {
        Err(CoreError::IsaMismatch { machine, image }) => {
            assert_eq!(machine, IsaKind::Straight);
            assert_eq!(image, ImageIsa::Riscv);
            let msg = CoreError::IsaMismatch { machine, image }.to_string();
            assert!(msg.contains("RV32IM"), "{msg}");
        }
        other => panic!("expected an ISA mismatch, got {:?}", other.err()),
    }
    // simulate() surfaces the same error.
    assert!(simulate(s_image, MachineConfig::ss_2way(), 1_000).is_err());
}

#[test]
fn core_rejects_undersized_register_file() {
    let image = riscv_image();
    let cfg = MachineConfig { phys_regs: 32, ..MachineConfig::ss_2way() };
    match Core::new(image, cfg) {
        Err(CoreError::TooFewPhysRegs { phys_regs }) => assert_eq!(phys_regs, 32),
        other => panic!("expected TooFewPhysRegs, got {:?}", other.err()),
    }
}
