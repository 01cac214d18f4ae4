//! Shared helpers for the workspace-spanning integration tests: the
//! MinC builds, the random program generator, and the one oracle chain
//! every differential test runs. [`check_image`] runs an image on the
//! emulator's interpreter tier (the reference), its fast tier, and the
//! Table I 2-way and 4-way and Figure 14 TAGE 4-way cores, each plain
//! and sanitized; [`check_chain`] puts the IR interpreter in front of
//! it, over every build of a MinC program.

#![forbid(unsafe_code)]

use straight_asm::{link_riscv, link_straight, Image, ImageIsa};
use straight_compiler::{compile_riscv, compile_straight, StraightOptions};
use straight_ir::{compile_source, interp, Module};
use straight_isa::rng::SplitMix64;
use straight_isa::TrapKind;
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_sim::pipeline::{simulate, MachineConfig, SimExit};
use straight_sim::KindCounts;

/// Step budget of the emulators and cycle budget of the cores;
/// reaching it fails the check.
const BUDGET: u64 = 50_000_000;

/// Compiles MinC to IR, panicking with the compile error on failure.
pub fn build_ir(src: &str) -> Module {
    match compile_source(src) {
        Ok(m) => m,
        Err(e) => panic!("MinC compilation failed: {e}\n{src}"),
    }
}

/// Compiles and links for STRAIGHT.
pub fn build_straight(module: &Module, opts: &StraightOptions) -> Image {
    let prog = compile_straight(module, opts).expect("STRAIGHT codegen");
    link_straight(&prog).expect("STRAIGHT link")
}

/// Compiles and links for RV32IM.
pub fn build_riscv(module: &Module) -> Image {
    let prog = compile_riscv(module).expect("riscv codegen");
    link_riscv(&prog).expect("riscv link")
}

/// What one executor made of an image: exit code, console output, trap
/// (kind, PC, dynamic instruction index), and the retired instruction
/// count, in total and per Figure 15 category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Exit code, if the program completed.
    pub exit_code: Option<i32>,
    /// Captured stdout.
    pub stdout: String,
    /// The trap, if execution ended in one.
    pub trap: Option<(TrapKind, u32, u64)>,
    /// Retired instructions.
    pub retired: u64,
    /// Retired instructions per category.
    pub kinds: KindCounts,
}

/// Runs an emulator tier to the end of the program.
fn run_emulator(image: &Image, tier: TierConfig, what: &str) -> Outcome {
    let r = match image.isa {
        ImageIsa::Straight => StraightEmu::new(image.clone()).run_tiered(BUDGET, tier),
        ImageIsa::Riscv => RiscvEmu::new(image.clone()).run_tiered(BUDGET, tier),
    };
    let trap = match r.exit {
        EmuExit::Trap(t) => Some((t.kind, t.pc, t.index)),
        EmuExit::StepLimit => panic!("{what}: {tier:?} tier hit the step limit"),
        _ => None,
    };
    let exit_code = r.exit_code();
    Outcome { exit_code, stdout: r.stdout, trap, retired: r.stats.retired, kinds: r.stats.kinds }
}

/// Runs a core to the end of the program; returns its outcome and
/// cycle count.
fn run_core(image: &Image, cfg: MachineConfig, what: &str) -> (Outcome, u64) {
    let name = cfg.name.clone();
    let r = simulate(image.clone(), cfg, BUDGET).unwrap_or_else(|e| panic!("{what}: {name}: {e}"));
    let trap = match r.exit {
        SimExit::Trap(t) => {
            assert!(t.cycle.is_some(), "{what}: {name}: core traps carry a cycle");
            Some((t.kind, t.pc, t.index))
        }
        SimExit::CycleLimit => panic!("{what}: {name} hit the cycle limit"),
        SimExit::Completed { .. } => None,
    };
    let (exit_code, s) = (r.exit_code, r.stats);
    (Outcome { exit_code, stdout: r.stdout, trap, retired: s.retired, kinds: s.retired_kinds }, s.cycles)
}

/// Runs one image on every executor of its ISA: the emulator's
/// interpreter tier, which is the reference, the fast tier, and the
/// 2-way, 4-way and TAGE 4-way cores, each plain and sanitized. Every
/// executor must match the reference in every [`Outcome`] field, and
/// each sanitized core must take as many cycles as its plain twin.
/// Returns the reference outcome. A STRAIGHT image must be built for
/// the machines' distance bound, 31.
pub fn check_image(image: &Image, what: &str) -> Outcome {
    let reference = run_emulator(image, TierConfig::interp(), what);
    assert_eq!(run_emulator(image, TierConfig::fast(), what), reference, "{what}: fast tier");
    let (two, four) = match image.isa {
        ImageIsa::Straight => (MachineConfig::straight_2way(), MachineConfig::straight_4way()),
        ImageIsa::Riscv => (MachineConfig::ss_2way(), MachineConfig::ss_4way()),
    };
    for cfg in [two, four.clone(), four.with_tage()] {
        let name = cfg.name.clone();
        let (plain, cycles) = run_core(image, cfg.clone(), what);
        assert_eq!(plain, reference, "{what}: {name}");
        let (sanitized, sanitized_cycles) = run_core(image, cfg.with_sanitizer(), what);
        assert_eq!(sanitized, reference, "{what}: {name}+sanitizer");
        assert_eq!(sanitized_cycles, cycles, "{what}: the sanitizer changed {name}'s timing");
    }
    reference
}

/// The full oracle chain on one MinC program: the IR interpreter is
/// the reference, and every build (RV32IM, and STRAIGHT RAW and RE+ at
/// distance bounds 1023 and 31) must reproduce its exit code and output
/// on every executor [`check_image`] runs, the d=1023 builds on the
/// emulator tiers only. Returns the outcome of the STRAIGHT RE+ d=31
/// build, the evaluated configuration.
pub fn check_chain(src: &str) -> Outcome {
    let module = build_ir(src);
    let reference = interp::run_main(&module).expect("interpreter runs");
    let expected = (Some(reference.exit_code), reference.stdout.as_str());
    let agree = |what: &str, out: Outcome| {
        let got = (out.exit_code, out.stdout.as_str());
        assert_eq!(got, expected, "{what} disagrees with the IR interpreter");
        out
    };
    // Past the machines' distance bound: the emulator tiers only.
    for (what, opts) in [
        ("STRAIGHT RAW d=1023", StraightOptions::raw()),
        ("STRAIGHT RE+ d=1023", StraightOptions::default()),
    ] {
        let image = build_straight(&module, &opts);
        let out = run_emulator(&image, TierConfig::interp(), what);
        assert_eq!(run_emulator(&image, TierConfig::fast(), what), out, "{what}: fast tier");
        agree(what, out);
    }
    let d31 = |opts: StraightOptions| build_straight(&module, &opts.with_max_distance(31));
    let on_cores = |what: &str, image: Image| agree(what, check_image(&image, what));
    on_cores("RV32IM", build_riscv(&module));
    on_cores("STRAIGHT RAW d=31", d31(StraightOptions::raw()));
    on_cores("STRAIGHT RE+ d=31", d31(StraightOptions::default()))
}

/// A random arithmetic expression over the in-scope variables `a`,
/// `b`, `c` and small constants. Divisors and shift amounts are masked
/// into range, so every expression is defined.
fn random_expr(r: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || r.chance(1, 3) {
        return match r.below(4) {
            0 => r.range_i32(-100, 99).to_string(),
            1 => "a".to_string(),
            2 => "b".to_string(),
            _ => "c".to_string(),
        };
    }
    let l = random_expr(r, depth - 1);
    let rhs = random_expr(r, depth - 1);
    const OPS: [&str; 15] =
        ["+", "-", "*", "/", "%", "&", "|", "^", "<", "<=", ">=", "==", "!=", ">>", "<<"];
    let op = OPS[r.below(OPS.len() as u64) as usize];
    match op {
        ">>" | "<<" => format!("(({l}) {op} (({rhs}) & 7))"),
        "*" => format!("(({l}) * (({rhs}) % 13))"),
        "/" | "%" => format!("(({l}) {op} ((({rhs}) & 15) + 1))"),
        _ => format!("(({l}) {op} ({rhs}))"),
    }
}

/// A random terminating MinC program: a loop over random expressions,
/// a data-dependent branch, a call, and a global `g` in the data
/// segment, printing its state and returning a mix of it. The same
/// seed always yields the same program, so a failure reproduces from
/// its seed alone.
pub fn random_program(r: &mut SplitMix64) -> String {
    let e1 = random_expr(r, 3);
    let e2 = random_expr(r, 3);
    let cond = random_expr(r, 2);
    let iters = 2 + r.below(14);
    let branch = if r.chance(1, 2) {
        format!("if (({cond}) % 3 == 0) b = b + a; else c = c ^ i;")
    } else {
        format!("if ((a ^ i) % 2) a = a - c; else b = {e2};")
    };
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
