//! Codegen identity gate: one digest over the output of 4,560
//! compilations.
//!
//! Every input is built for RV32IM and for STRAIGHT RAW and RE+ at
//! each maximum distance in [`DISTANCES`]. The inputs are Dhrystone at
//! 50 and 200 iterations, CoreMark at 1 and 3, and the random programs
//! of seeds `0xd1ff_0000 + 0..300`. Each compilation is digested with
//! FNV-1a: a linked image over its code words, data, entry, data base
//! and sorted symbol table; a failed compilation over its error text.
//! The per-compilation digests fold into [`EXPECTED`].
//!
//! A refactor of the compiler, assembler or linker must leave the
//! digest unchanged. A change that means to alter generated code
//! updates [`EXPECTED`] to the value the failing test prints and says
//! so in CHANGES.md (see `tests/golden/README.md`).

use straight_asm::{link_riscv, link_straight, Image};
use straight_compiler::{compile_riscv, compile_straight, StraightOptions};
use straight_isa::rng::SplitMix64;
use straight_tests::{build_ir, random_program};

/// The folded digest of every compilation, with the image and error
/// counts it was taken over.
const EXPECTED: (u64, usize, usize) = (0x2045_cc31_632e_783e, 3342, 1218);

/// The maximum distances each STRAIGHT variant is built at.
const DISTANCES: [u16; 7] = [11, 15, 20, 31, 63, 127, 1023];

/// Number of random programs.
const RANDOM_PROGRAMS: u64 = 300;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

fn image_digest(image: &Image) -> u64 {
    let mut h = Fnv::new();
    h.u32(image.code.len() as u32);
    for &w in &image.code {
        h.u32(w);
    }
    h.u32(image.data.len() as u32);
    h.bytes(&image.data);
    h.u32(image.entry);
    h.u32(image.data_base);
    let mut symbols: Vec<(&String, &u32)> = image.symbols.iter().collect();
    symbols.sort();
    for (name, &addr) in symbols {
        h.u32(name.len() as u32);
        h.bytes(name.as_bytes());
        h.u32(addr);
    }
    h.0
}

fn error_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(b"error:");
    h.bytes(text.as_bytes());
    h.0
}

fn inputs() -> Vec<String> {
    let mut srcs = vec![
        straight_workloads::dhrystone(50),
        straight_workloads::dhrystone(200),
        straight_workloads::coremark(1),
        straight_workloads::coremark(3),
    ];
    for seed in 0..RANDOM_PROGRAMS {
        srcs.push(random_program(&mut SplitMix64::new(0xd1ff_0000 + seed)));
    }
    srcs
}

#[test]
fn compiler_output_matches_the_committed_digest() {
    let mut fold = Fnv::new();
    let (mut images, mut errors) = (0, 0);
    let mut record = |built: Result<Image, String>| {
        let d = match built {
            Ok(image) => {
                images += 1;
                image_digest(&image)
            }
            Err(text) => {
                errors += 1;
                error_digest(&text)
            }
        };
        fold.bytes(&d.to_le_bytes());
    };
    for src in inputs() {
        let module = build_ir(&src);
        record(
            compile_riscv(&module)
                .map_err(|e| e.to_string())
                .and_then(|p| link_riscv(&p).map_err(|e| e.to_string())),
        );
        for base in [StraightOptions::raw(), StraightOptions::default()] {
            for d in DISTANCES {
                let opts = base.clone().with_max_distance(d);
                record(
                    compile_straight(&module, &opts)
                        .map_err(|e| e.to_string())
                        .and_then(|p| link_straight(&p).map_err(|e| e.to_string())),
                );
            }
        }
    }
    let got = (fold.0, images, errors);
    assert_eq!(
        got, EXPECTED,
        "compiler output changed: new (digest, images, errors) = ({:#018x}, {}, {})",
        got.0, got.1, got.2
    );
}
