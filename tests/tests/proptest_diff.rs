//! Property-style end-to-end differential testing: randomly generated
//! MinC programs must behave identically on every executor of the
//! oracle chain (`straight_tests::check_chain`): the IR interpreter,
//! the RV32IM and STRAIGHT (RAW and RE+, distance bounds 1023 and 31)
//! builds on both emulator tiers, and the d=31 and RV32IM builds on
//! every cycle-accurate core, plain and sanitized. This fuzzes the
//! entire stack — parser, SSA construction, optimizer, inliner, both
//! back-ends, assembler, linker, emulators and cores.
//!
//! Programs are generated with the in-repo deterministic PRNG
//! (`straight_isa::rng`), so every run covers the same corpus and a
//! failure reproduces from its seed alone.

use straight_isa::rng::SplitMix64;
use straight_tests::{check_chain, random_program};

/// Random programs, as many as `tier_equivalence.rs` runs.
const PROGRAMS: u64 = 100;

/// The whole pyramid agrees on random programs.
#[test]
fn random_programs_agree_everywhere() {
    for seed in 0..PROGRAMS {
        let mut r = SplitMix64::new(0xd1ff_0000 + seed);
        check_chain(&random_program(&mut r));
    }
}
