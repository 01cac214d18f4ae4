//! Seeded differential suite for the two execution tiers behind
//! `ExecBackend`: on randomly generated MinC programs, the fast
//! (decoded-trace) tier must be observably identical to the reference
//! interpreter tier — same `EmuExit`, same retirement statistics, same
//! stdout, and a byte-identical final architectural checkpoint — for
//! both ISAs. Each program also exercises a checkpoint round-trip at a
//! random mid-run snapshot point, resumed on *both* tiers, and a
//! backward restore of that snapshot (and of the initial state) into
//! an emulator that already ran to completion. STRAIGHT programs are
//! also run with Figure 16 distance profiling on both tiers.
//!
//! Programs come from the shared generator
//! (`straight_tests::random_program`) driven by the in-repo
//! deterministic PRNG (`straight_isa::rng`), so every run covers the
//! same corpus and a failure reproduces from its seed alone. The five
//! `--quick` images behind Figures 15 and 16 (the emulator-bound
//! figures the lab runs on the fast tier) go through the same checks.

use straight_compiler::StraightOptions;
use straight_core::experiment::{RunParams, WorkloadKind, EVAL_MAX_DISTANCE};
use straight_core::{build, Target};
use straight_isa::rng::SplitMix64;
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_tests::{build_ir, build_riscv, build_straight, random_program};

/// Programs per ISA.
const PROGRAMS: u64 = 100;
/// Generous absolute step budget; every generated program terminates
/// far below this.
const BUDGET: u64 = 50_000_000;

/// Runs one program on both tiers of one backend and asserts complete
/// observable equivalence, then round-trips a checkpoint taken at a
/// random mid-run point, resumes it on each tier, and restores it
/// backward into a finished emulator.
fn check_tiers<E: ExecBackend>(what: &str, seed: u64, mut fresh: impl FnMut() -> E, r: &mut SplitMix64) {
    let mut interp = fresh();
    let interp_exit = interp.run_with(BUDGET, TierConfig::interp());
    assert!(
        matches!(interp_exit, EmuExit::Done { .. }),
        "{what} seed {seed}: interpreter did not complete: {interp_exit:?}"
    );
    let interp_cp = interp.checkpoint();

    let mut fast = fresh();
    let fast_exit = fast.run_with(BUDGET, TierConfig::fast());
    assert_eq!(fast_exit, interp_exit, "{what} seed {seed}: exit diverged");
    assert_eq!(fast.stats(), interp.stats(), "{what} seed {seed}: stats diverged");
    assert_eq!(fast.executed(), interp.executed(), "{what} seed {seed}: count diverged");
    assert_eq!(fast.stdout(), interp.stdout(), "{what} seed {seed}: stdout diverged");
    let fast_cp = fast.checkpoint();
    assert_eq!(fast_cp, interp_cp, "{what} seed {seed}: final state diverged");

    // Checkpoint round-trip at a random snapshot point: restoring
    // must be byte-identical, and resuming on either tier must land
    // on the same final state as the straight-through run.
    let total = interp.stats().retired;
    if total > 1 {
        let cut = 1 + r.below(total - 1);
        let mut part = fresh();
        let part_exit = part.run_with(cut, TierConfig::fast());
        assert_eq!(part_exit, EmuExit::StepLimit, "{what} seed {seed}: partial run");
        let cp = part.checkpoint();

        for (tier_name, tier) in
            [("interp", TierConfig::interp()), ("fast", TierConfig::fast())]
        {
            let mut resumed = fresh();
            resumed.restore(&cp).unwrap_or_else(|e| {
                panic!("{what} seed {seed}: restore failed: {e:?}")
            });
            assert_eq!(
                resumed.checkpoint(),
                cp,
                "{what} seed {seed}: checkpoint round-trip not identical"
            );
            let exit = resumed.run_with(BUDGET, tier);
            assert_eq!(
                exit, interp_exit,
                "{what} seed {seed}: {tier_name} resume exit diverged"
            );
            assert_eq!(
                resumed.checkpoint(),
                interp_cp,
                "{what} seed {seed}: {tier_name} resume final state diverged"
            );
        }

        // Backward restore: an emulator that ran to completion, and so
        // dirtied pages the earlier snapshots lack, rewinds in place to
        // the mid-run checkpoint and then to the initial state. Each
        // rewind must be byte-identical, and each rerun must end
        // exactly like the straight-through run.
        let initial = fresh().checkpoint();
        for (tier_name, tier) in
            [("interp", TierConfig::interp()), ("fast", TierConfig::fast())]
        {
            let mut back = fresh();
            let exit = back.run_with(BUDGET, tier);
            assert_eq!(exit, interp_exit, "{what} seed {seed}: {tier_name} run diverged");
            for (snap_name, snap) in [("mid-run", &cp), ("initial", &initial)] {
                let what = format!("{what} seed {seed}: {tier_name} from {snap_name}");
                back.restore(snap).unwrap_or_else(|e| panic!("{what}: restore failed: {e:?}"));
                assert_eq!(&back.checkpoint(), snap, "{what}: backward restore not identical");
                assert_eq!(back.run_with(BUDGET, tier), interp_exit, "{what}: exit diverged");
                assert_eq!(back.stats(), interp.stats(), "{what}: stats diverged");
                assert_eq!(back.checkpoint(), interp_cp, "{what}: final state diverged");
            }
        }
    }
}

/// Runs one STRAIGHT program with distance profiling on the
/// interpreter and fast tiers: exits, statistics (the distance
/// histogram included), output and final checkpoints must be
/// identical.
fn check_profiled_tiers(what: &str, seed: u64, fresh: impl Fn() -> StraightEmu) {
    let run = |tier| {
        let mut emu = fresh();
        emu.profile_distances = true;
        let exit = emu.run_with(BUDGET, tier);
        (exit, emu)
    };
    let (interp_exit, interp) = run(TierConfig::interp());
    assert!(
        interp.stats().dist_hist.iter().any(|&n| n > 0),
        "{what} seed {seed}: profiling recorded no distances"
    );
    let (exit, fast) = run(TierConfig::fast());
    assert_eq!(exit, interp_exit, "{what} seed {seed}: profiled exit diverged");
    assert_eq!(fast.stats(), interp.stats(), "{what} seed {seed}: profiled stats diverged");
    assert_eq!(fast.stdout(), interp.stdout(), "{what} seed {seed}: profiled stdout diverged");
    assert_eq!(
        fast.checkpoint(),
        interp.checkpoint(),
        "{what} seed {seed}: profiled checkpoint diverged"
    );
}

/// 100 random programs per ISA: the fast tier is observationally
/// identical to the interpreter, and checkpoints round-trip.
#[test]
fn tiers_agree_on_random_programs() {
    for seed in 0..PROGRAMS {
        let mut r = SplitMix64::new(0x7133_0000 + seed);
        let src = random_program(&mut r);
        let module = build_ir(&src);

        let st = build_straight(&module, &StraightOptions::default());
        check_tiers("straight", seed, || StraightEmu::new(st.clone()), &mut r);
        check_profiled_tiers("straight", seed, || StraightEmu::new(st.clone()));

        // The tight distance limit exercises RMOV chains (the
        // compiler's distance-fixing pads) in the fast tier.
        let st31 = build_straight(&module, &StraightOptions::default().with_max_distance(31));
        check_tiers("straight d=31", seed, || StraightEmu::new(st31.clone()), &mut r);
        check_profiled_tiers("straight d=31", seed, || StraightEmu::new(st31.clone()));

        let rv = build_riscv(&module);
        check_tiers("riscv", seed, || RiscvEmu::new(rv.clone()), &mut r);
    }
}

/// The `--quick` images of the emulator-bound figures agree on both
/// tiers: the Figure 15 instruction-mix images (CoreMark on RV32IM,
/// STRAIGHT RAW and RE+ at the evaluation distance bound) and the
/// profiled Figure 16 images (Dhrystone and CoreMark, RE+ at 1023).
#[test]
fn tiers_agree_on_the_emulator_figure_images() {
    let params = RunParams::quick();
    let image = |workload: WorkloadKind, target| {
        build(&workload.source(&params), target).expect("workload builds")
    };
    let mut r = SplitMix64::new(0xf15f_1600);

    let cm = WorkloadKind::Coremark;
    let rv = image(cm, Target::Riscv);
    check_tiers("fig15 Coremark SS", 0, || RiscvEmu::new(rv.clone()), &mut r);
    for (what, target) in [
        ("fig15 Coremark RAW", Target::StraightRaw { max_distance: EVAL_MAX_DISTANCE }),
        ("fig15 Coremark RE+", Target::StraightRePlus { max_distance: EVAL_MAX_DISTANCE }),
    ] {
        let st = image(cm, target);
        check_tiers(what, 0, || StraightEmu::new(st.clone()), &mut r);
    }

    for workload in [WorkloadKind::Dhrystone, cm] {
        let what = format!("fig16 {} RE+ d=1023", workload.name());
        let st = image(workload, Target::StraightRePlus { max_distance: 1023 });
        check_profiled_tiers(&what, 0, || StraightEmu::new(st.clone()));
    }
}
