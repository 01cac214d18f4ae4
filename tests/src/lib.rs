//! Shared helpers for the workspace-spanning integration tests: the
//! full MinC → {interpreter, STRAIGHT machine code, RV32IM machine
//! code} pipeline with differential checking.

#![forbid(unsafe_code)]

use straight_asm::{link_riscv, link_straight, Image};
use straight_compiler::{compile_riscv, compile_straight, StraightOptions};
use straight_ir::{compile_source, interp, Module};
use straight_isa::rng::SplitMix64;
use straight_sim::emu::{EmuResult, ExecBackend, RiscvEmu, StraightEmu};

/// One program's behaviour: output text plus exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Behaviour {
    /// Captured stdout.
    pub stdout: String,
    /// Exit code.
    pub exit_code: i32,
}

/// Compiles MinC to IR, panicking with the compile error on failure.
pub fn build_ir(src: &str) -> Module {
    match compile_source(src) {
        Ok(m) => m,
        Err(e) => panic!("MinC compilation failed: {e}\n{src}"),
    }
}

/// Runs the IR interpreter.
pub fn run_interp(module: &Module) -> Behaviour {
    let out = interp::run_main(module).expect("interpreter runs");
    Behaviour { stdout: out.stdout, exit_code: out.exit_code }
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

/// Runs the STRAIGHT emulator with a generous budget.
pub fn run_straight(image: Image) -> EmuResult {
    StraightEmu::new(image).run(300_000_000)
}

/// Runs the RV32IM emulator with a generous budget.
pub fn run_riscv(image: Image) -> EmuResult {
    RiscvEmu::new(image).run(300_000_000)
}

fn behaviour_of(r: &EmuResult, what: &str) -> Behaviour {
    let code = match r.exit_code() {
        Some(c) => c,
        None => panic!("{what} did not complete: {:?}\n--- stdout ---\n{}", r.exit, r.stdout),
    };
    Behaviour { stdout: r.stdout.clone(), exit_code: code }
}

/// The full differential check: interpreter, STRAIGHT RAW, STRAIGHT
/// RE+, STRAIGHT RE+ with max distance 31, and RV32IM must agree.
pub fn check_differential(src: &str) -> Behaviour {
    let module = build_ir(src);
    let expected = run_interp(&module);

    let rv = run_riscv(build_riscv(&module));
    assert_eq!(behaviour_of(&rv, "riscv"), expected, "riscv disagrees with interpreter");

    for (name, opts) in [
        ("straight RAW", StraightOptions::raw()),
        ("straight RE+", StraightOptions::default()),
        ("straight RE+ d=31", StraightOptions::default().with_max_distance(31)),
        ("straight RAW d=31", StraightOptions::raw().with_max_distance(31)),
    ] {
        let r = run_straight(build_straight(&module, &opts));
        assert_eq!(behaviour_of(&r, name), expected, "{name} disagrees with interpreter");
    }
    expected
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
