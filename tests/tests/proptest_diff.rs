//! Property-style end-to-end differential testing: randomly generated
//! MinC programs must behave identically on the interpreter, the
//! RV32IM emulator, and STRAIGHT in both compilation modes at both
//! distance limits. This fuzzes the entire stack — parser, SSA
//! construction, optimizer, inliner, both back-ends, assembler,
//! linker, and emulators.
//!
//! Programs are generated with the in-repo deterministic PRNG
//! (`straight_isa::rng`), so every run covers the same corpus and a
//! failure reproduces from its seed alone.

use straight_isa::rng::SplitMix64;
use straight_tests::{check_differential, random_program};

/// The whole pyramid agrees on random programs.
#[test]
fn random_programs_agree_everywhere() {
    for seed in 0..24u64 {
        let mut r = SplitMix64::new(0xd1ff_0000 + seed);
        let src = random_program(&mut r);
        check_differential(&src);
    }
}
