//! Seeded differential suite for the two execution tiers behind
//! `ExecBackend`: on randomly generated MinC programs, the fast
//! (decoded-trace) tier must be observably identical to the reference
//! interpreter tier — same `EmuExit`, same retirement statistics, same
//! stdout, and a byte-identical final architectural checkpoint — for
//! both ISAs. Each program also exercises lockstep mode (which traps
//! on any divergence), a checkpoint round-trip at a random mid-run
//! snapshot point, resumed on *both* tiers, and a backward restore of
//! that snapshot (and of the initial state) into an emulator that
//! already ran to completion. STRAIGHT programs are also run with
//! Figure 16 distance profiling on every tier.
//!
//! Programs come from the in-repo deterministic PRNG
//! (`straight_isa::rng`), so every run covers the same corpus and a
//! failure reproduces from its seed alone.

use straight_compiler::StraightOptions;
use straight_isa::rng::SplitMix64;
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_tests::{build_ir, build_riscv, build_straight};

/// Programs per ISA.
const PROGRAMS: u64 = 100;
/// Generous absolute step budget; every generated program terminates
/// far below this.
const BUDGET: u64 = 50_000_000;

/// A random arithmetic expression over the in-scope variables
/// `a`, `b`, `c` and small constants (same shape as the end-to-end
/// property suite, here aimed at tier equivalence).
fn expr(r: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || r.chance(1, 3) {
        return match r.below(4) {
            0 => r.range_i32(-100, 99).to_string(),
            1 => "a".to_string(),
            2 => "b".to_string(),
            _ => "c".to_string(),
        };
    }
    let l = expr(r, depth - 1);
    let rhs = expr(r, depth - 1);
    let op = ["+", "-", "*", "/", "%", "&", "|", "^", "<", ">=", "==", ">>", "<<"]
        [r.below(13) as usize];
    match op {
        ">>" | "<<" => format!("(({l}) {op} (({rhs}) & 7))"),
        "*" => format!("(({l}) * (({rhs}) % 13))"),
        "/" | "%" => format!("(({l}) {op} ((({rhs}) & 15) + 1))"),
        _ => format!("(({l}) {op} ({rhs}))"),
    }
}

fn program(r: &mut SplitMix64) -> String {
    let e1 = expr(r, 3);
    let e2 = expr(r, 3);
    let cond = expr(r, 2);
    let iters = 2 + r.below(14);
    let branch = if r.chance(1, 2) {
        format!("if (({cond}) % 3 == 0) b = b + a; else c = c ^ i;")
    } else {
        format!("if ((a ^ i) % 2) a = a - c; else b = {e2};")
    };
    // The global `g` lives in the data segment: a restore that left a
    // later run's value there would change the output.
    format!(
        "int g = 11;
         int helper(int a, int b, int c) {{ return {e2}; }}
         int main() {{
             int a = 5;
             int b = -9;
             int c = 13;
             int i;
             for (i = 0; i < {iters}; i++) {{
                 a = {e1};
                 {branch}
                 c = c + helper(a, b, i);
                 g = g + c;
             }}
             print_int(a); print_int(b); print_int(c); print_int(g);
             return (a ^ b ^ c) & 255;
         }}"
    )
}

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

    // Lockstep mode cross-checks state every sync window and turns
    // any divergence into a trap, so completing cleanly is itself an
    // assertion.
    let mut lock = fresh();
    let lock_exit = lock.run_with(BUDGET, TierConfig::fast_lockstep());
    assert_eq!(lock_exit, interp_exit, "{what} seed {seed}: lockstep exit diverged");
    assert_eq!(lock.checkpoint(), interp_cp, "{what} seed {seed}: lockstep state diverged");

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
/// interpreter, fast and fast-lockstep tiers: statistics (the distance
/// histogram included) and final checkpoints must be identical.
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
    let interp_cp = interp.checkpoint();
    for (tier_name, tier) in
        [("fast", TierConfig::fast()), ("fast-lockstep", TierConfig::fast_lockstep())]
    {
        let (exit, emu) = run(tier);
        assert_eq!(exit, interp_exit, "{what} seed {seed}: profiled {tier_name} exit diverged");
        assert_eq!(
            emu.stats(),
            interp.stats(),
            "{what} seed {seed}: profiled {tier_name} stats diverged"
        );
        assert_eq!(
            emu.checkpoint(),
            interp_cp,
            "{what} seed {seed}: profiled {tier_name} checkpoint diverged"
        );
    }
}

/// 100 random programs per ISA: the fast tier is observationally
/// identical to the interpreter, and checkpoints round-trip.
#[test]
fn tiers_agree_on_random_programs() {
    for seed in 0..PROGRAMS {
        let mut r = SplitMix64::new(0x7133_0000 + seed);
        let src = program(&mut r);
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
