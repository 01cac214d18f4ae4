//! Per-opcode tier equivalence: straight-line programs that run every
//! lowered form of the fast tier once, on both ISAs. The random MinC
//! programs of `tier_equivalence.rs` reach most forms only through what
//! the compilers happen to emit; these programs name each one: every
//! ALU operation (the M extension's zero divisor and `i32::MIN / -1`
//! included), every immediate operation with negative immediates
//! (STRAIGHT's zero-extending logical group too), every load and store
//! width, traps in the middle of a trace, each RV32IM branch taken and
//! not taken, RV32IM writes to `x0`, `li` from `x0` and `AUIPC`, and
//! STRAIGHT `LUI`, `SPADD`, `RMOV` chains and `BEZ`/`BNZ` both ways.
//!
//! Each program prints every result it computes, and runs on the
//! interpreter (the reference) and on the fast tier: exit, statistics,
//! output and final checkpoint must be identical. STRAIGHT programs
//! also run with distance profiling.

use std::fmt::Write as _;

use straight_asm::{link_riscv, link_straight, parse_straight_asm, Image, RvFunc, RvItem, RvProgram, RvReloc};
use straight_isa::{AluImmOp, AluOp, MemWidth};
use straight_riscv::{BranchOp, Reg, RvInst};
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu, TierConfig};

const BUDGET: u64 = 1_000_000;

/// Operand pairs for the register–register operations: signs mixed,
/// shift amounts above 31, zero divisors and `i32::MIN / -1`.
const PAIRS: [(u32, u32); 9] = [
    (7, 3),
    (-7i32 as u32, 3),
    (3, -7i32 as u32),
    (i32::MIN as u32, -1i32 as u32),
    (5, 0),
    (-5i32 as u32, 0),
    (0x1234_5678, 33),
    (0xFFFF_8001, 0x8000_7FFF),
    (i32::MAX as u32, 2),
];

/// The word the load/store programs put in memory: every byte and
/// half-word differs in its sign bit from its neighbour.
const WORD: u32 = 0x80FF_7F01;

/// Runs `fresh()` on both tiers; returns the interpreter's exit.
fn tiers_agree<E: ExecBackend>(what: &str, fresh: impl Fn() -> E) -> EmuExit {
    let mut interp = fresh();
    let exit = interp.run_with(BUDGET, TierConfig::interp());
    let mut fast = fresh();
    assert_eq!(fast.run_with(BUDGET, TierConfig::fast()), exit, "{what}: exit");
    assert_eq!(fast.stats(), interp.stats(), "{what}: statistics");
    assert_eq!(fast.stdout(), interp.stdout(), "{what}: output");
    assert_eq!(fast.checkpoint(), interp.checkpoint(), "{what}: final checkpoint");
    exit
}

// -- STRAIGHT -------------------------------------------------------

/// Assembles `body` behind a warm-up trace: the `BEZ` ends the trace
/// entered at `main`, so every later trace starts with enough results
/// retired to run on the fast tier rather than single-step.
fn straight_image(body: &str) -> Image {
    let src = format!(
        ".text
         func main:
            NOP
            NOP
            NOP
            NOP
            NOP
            NOP
            BEZ [0] body
         body:
            {body}"
    );
    let prog = parse_straight_asm(&src).unwrap_or_else(|e| panic!("assembles: {e}\n{src}"));
    link_straight(&prog).expect("links")
}

/// Both tiers agree on the STRAIGHT program, plain and with distance
/// profiling; returns the exit and the output.
fn straight_agree(what: &str, body: &str) -> (EmuExit, String) {
    let image = straight_image(body);
    let exit = tiers_agree(what, || StraightEmu::new(image.clone()));
    let profiled = || {
        let mut emu = StraightEmu::new(image.clone());
        emu.profile_distances = true;
        emu
    };
    assert_eq!(tiers_agree(&format!("{what} (profiled)"), profiled), exit);
    let mut emu = StraightEmu::new(image);
    emu.run_with(BUDGET, TierConfig::interp());
    (exit, emu.stdout().to_string())
}

/// `LUI` + `ORi` materializing `v` (two results, `v` the newer). The
/// `ORi` immediate is the low half as an `i16`, negative whenever bit
/// 15 is set: only STRAIGHT's zero extension gives `v` back.
fn straight_const(v: u32) -> String {
    format!("LUI {}\nORi [1] {}\n", v >> 16, v as u16 as i16)
}

#[test]
fn straight_every_alu_op() {
    let mut body = String::new();
    for op in AluOp::ALL {
        for (a, b) in PAIRS {
            body += &straight_const(a);
            body += &straight_const(b);
            writeln!(body, "{op} [3] [1]\nSYS 1 [1]").unwrap();
        }
        // Distance 0 reads the constant 0 on either side.
        body += &straight_const(-9i32 as u32);
        writeln!(body, "{op} [0] [1]\nSYS 1 [1]\n{op} [3] [0]\nSYS 1 [1]").unwrap();
    }
    body += "HALT";
    let (exit, out) = straight_agree("STRAIGHT ALU", &body);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert_eq!(out.lines().count(), AluOp::ALL.len() * (PAIRS.len() + 2));
    // DIV of i32::MIN by -1 is i32::MIN; a zero divisor gives -1.
    assert!(out.contains("-2147483648\n") && out.contains("-1\n"), "{out}");
}

#[test]
fn straight_every_alu_imm_op_with_negative_immediates() {
    let mut body = String::new();
    for op in AluImmOp::ALL {
        for imm in [-1, -5, -32768, 0, 5, 31, 33, 0x7FFF] {
            for a in [0x8765_4321, 12] {
                body += &straight_const(a);
                writeln!(body, "{op} [1] {imm}\nSYS 1 [1]").unwrap();
            }
        }
        writeln!(body, "{op} [0] -2\nSYS 1 [1]").unwrap();
    }
    body += "HALT";
    let (exit, out) = straight_agree("STRAIGHT ALU-immediate", &body);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    // ORi of 12 with -1 zero-extends to 0xFFFF.
    assert!(out.contains("65535\n"), "{out}");
}

#[test]
fn straight_lui_spadd_and_rmov_chains() {
    let body = "LUI 65535
        SYS 1 [1]
        LUI 32768
        SYS 1 [1]
        LUI 1
        ADDi [0] 2
        ADDi [0] 3
        RMOV [3]
        SYS 1 [1]
        RMOV [3]
        RMOV [5]
        RMOV [5]
        RMOV [0]
        ADD [4] [2]
        SYS 1 [1]
        RMOV [2]
        RMOV [1]
        SUB [1] [2]
        RMOV [7]
        SYS 1 [1]
        SPADD -16
        SYS 1 [1]
        SPADD 8
        RMOV [1]
        SPADD 8
        SUB [1] [2]
        SYS 1 [1]
        HALT";
    let (exit, out) = straight_agree("STRAIGHT LUI/SPADD/RMOV", body);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert!(out.starts_with("-65536\n-2147483648\n65536\n"), "{out}");
}

#[test]
fn straight_bez_and_bnz_both_ways() {
    let mut body = String::new();
    for (k, (branch, v)) in [("BEZ", 0), ("BEZ", 5), ("BNZ", 0), ("BNZ", -5i32 as u32)].into_iter().enumerate() {
        body += &straight_const(v);
        // Not taken prints 0 then 1; taken prints 1 only.
        writeln!(
            body,
            "{branch} [1] taken{k}
             ADDi [0] 0
             SYS 1 [1]
             taken{k}:
             ADDi [0] 1
             SYS 1 [1]"
        )
        .unwrap();
    }
    body += "HALT";
    let (exit, out) = straight_agree("STRAIGHT BEZ/BNZ", &body);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert_eq!(out, "1\n0\n1\n0\n1\n1\n");
}

#[test]
fn straight_every_load_and_store_width() {
    let mut body = String::from("SPADD -16\n");
    // The word at SP+0, then every load width at every aligned offset.
    body += &straight_const(WORD);
    body += "SPADD 0\nST [2] [1]\n";
    for (mn, offsets) in
        [("LD.B", &[0, 1, 2, 3][..]), ("LD.BU", &[0, 1, 2, 3]), ("LD.H", &[0, 2]), ("LD.HU", &[0, 2]), ("LD", &[0])]
    {
        for off in offsets {
            writeln!(body, "SPADD 0\n{mn} [1] {off}\nSYS 1 [1]").unwrap();
        }
        // A negative offset from SP+4.
        writeln!(body, "SPADD 4\n{mn} [1] -4\nSPADD -4\nSYS 1 [2]").unwrap();
    }
    // Each store width at each aligned offset of SP+8, read back as a
    // word; a store's result is the stored value.
    for (mn, offsets) in [("ST.B", &[0, 1, 2, 3][..]), ("ST.H", &[0, 2]), ("ST", &[0])] {
        for off in offsets {
            body += &straight_const(WORD);
            writeln!(
                body,
                "SPADD 0
                 ADDi [1] {}
                 {mn} [3] [1]
                 SYS 1 [1]
                 SPADD 0
                 LD [1] 8
                 SYS 1 [1]",
                off + 8
            )
            .unwrap();
        }
    }
    body += "SPADD 16\nHALT";
    let (exit, out) = straight_agree("STRAIGHT loads and stores", &body);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    // LD.B at +3 sign-extends 0x80; LD.BU zero-extends it.
    assert!(out.contains("-128\n") && out.contains("128\n"), "{out}");
}

#[test]
fn straight_mid_trace_traps() {
    // Each faulting access sits inside a trace, after ops that retired.
    for (what, access) in [
        ("wild LD", "LUI 64\nLD [1] 0"),
        ("wild LD.B", "LUI 64\nLD.B [1] 0"),
        ("misaligned LD.H", "SPADD 0\nLD.H [1] -3"),
        ("misaligned LD", "SPADD 0\nLD [1] -2"),
        ("wild ST", "LUI 64\nST [3] [1]"),
        ("wild ST.B", "LUI 64\nST.B [3] [1]"),
        ("misaligned ST.H", "SPADD 0\nADDi [1] -1\nST.H [4] [1]"),
        ("misaligned ST", "SPADD 0\nADDi [1] -2\nST [4] [1]"),
        ("unknown SYS", "SYS 99 [1]"),
    ] {
        let body = format!(
            "ADDi [0] 5
             ADD [1] [1]
             RMOV [1]
             {access}
             ADD [1] [3]
             HALT"
        );
        let (exit, _) = straight_agree(what, &body);
        assert!(matches!(exit, EmuExit::Trap(_)), "{what}: {exit:?}");
    }
}

// -- RV32IM ---------------------------------------------------------

/// An RV32IM `main` under construction.
#[derive(Default)]
struct Rv {
    items: Vec<RvItem>,
    labels: Vec<(String, usize)>,
}

impl Rv {
    fn op(&mut self, inst: RvInst) -> &mut Rv {
        self.items.push(RvItem::plain(inst));
        self
    }

    fn imm(&mut self, op: AluImmOp, rd: Reg, rs1: Reg, imm: i32) -> &mut Rv {
        self.op(RvInst::OpImm { op, rd, rs1, imm })
    }

    /// `lui` + `addi` materializing `v`.
    fn li(&mut self, rd: Reg, v: u32) -> &mut Rv {
        let lo = ((v as i32) << 20) >> 20;
        self.op(RvInst::Lui { rd, imm: v.wrapping_sub(lo as u32) }).imm(AluImmOp::Addi, rd, rd, lo)
    }

    /// Prints `r` through the print service (reading `x0` as well).
    fn print(&mut self, r: Reg) -> &mut Rv {
        self.op(RvInst::Op { op: AluOp::Add, rd: Reg::A0, rs1: r, rs2: Reg::ZERO })
            .imm(AluImmOp::Addi, Reg::A7, Reg::ZERO, 1)
            .op(RvInst::Ecall)
    }

    fn label(&mut self, name: &str) -> &mut Rv {
        self.labels.push((name.to_string(), self.items.len()));
        self
    }

    fn branch(&mut self, op: BranchOp, rs1: Reg, rs2: Reg, label: &str) -> &mut Rv {
        let inst = RvInst::Branch { op, rs1, rs2, offset: 0 };
        self.items.push(RvItem { inst, reloc: Some(RvReloc::BranchTo(label.to_string())) });
        self
    }

    /// Links `main`, returning 0 to the `_start` stub.
    fn image(&mut self) -> Image {
        self.imm(AluImmOp::Addi, Reg::A0, Reg::ZERO, 0).op(RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 });
        let main = RvFunc { name: "main".into(), items: self.items.clone(), labels: self.labels.clone() };
        link_riscv(&RvProgram { funcs: vec![main], data: vec![] }).expect("links")
    }
}

/// Both tiers agree on the RV32IM program; returns the exit and output.
fn riscv_agree(what: &str, rv: &mut Rv) -> (EmuExit, String) {
    let image = rv.image();
    let exit = tiers_agree(what, || RiscvEmu::new(image.clone()));
    let r = RiscvEmu::new(image).run(BUDGET);
    (exit, r.stdout)
}

#[test]
fn riscv_every_alu_op() {
    let mut rv = Rv::default();
    for op in AluOp::ALL {
        for (a, b) in PAIRS {
            rv.li(Reg::A1, a).li(Reg::A2, b);
            rv.op(RvInst::Op { op, rd: Reg::A3, rs1: Reg::A1, rs2: Reg::A2 }).print(Reg::A3);
        }
        // `x0` on either side.
        rv.op(RvInst::Op { op, rd: Reg::A3, rs1: Reg::ZERO, rs2: Reg::A2 }).print(Reg::A3);
        rv.op(RvInst::Op { op, rd: Reg::A3, rs1: Reg::A1, rs2: Reg::ZERO }).print(Reg::A3);
    }
    let (exit, out) = riscv_agree("RV32IM ALU", &mut rv);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert_eq!(out.lines().count(), AluOp::ALL.len() * (PAIRS.len() + 2));
    assert!(out.contains("-2147483648\n") && out.contains("-1\n"), "{out}");
}

#[test]
fn riscv_every_alu_imm_op_and_li_from_x0() {
    let mut rv = Rv::default();
    for op in AluImmOp::ALL {
        let shift = matches!(op, AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai);
        let imms: &[i32] = if shift { &[0, 1, 5, 31] } else { &[-1, -5, -2048, 0, 5, 2047] };
        for &imm in imms {
            for a in [0x8765_4321, 12] {
                rv.li(Reg::A1, a).imm(op, Reg::A3, Reg::A1, imm).print(Reg::A3);
            }
            // `li` and friends: the source is `x0`.
            rv.imm(op, Reg::A3, Reg::ZERO, imm).print(Reg::A3);
        }
    }
    let (exit, out) = riscv_agree("RV32IM ALU-immediate", &mut rv);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    // ORI sign-extends its immediate: 12 | -1 is -1.
    assert!(out.contains("-1\n") && !out.contains("65535\n"), "{out}");
}

#[test]
fn riscv_writes_to_x0_and_auipc() {
    let mut rv = Rv::default();
    rv.li(Reg::A1, 0x1234_5678).li(Reg::A2, 9);
    // The word at sp-4, for the load into x0.
    rv.op(RvInst::Store { width: MemWidth::W, rs2: Reg::A1, rs1: Reg::SP, offset: -4 });
    rv.op(RvInst::Op { op: AluOp::Add, rd: Reg::ZERO, rs1: Reg::A1, rs2: Reg::A2 })
        .op(RvInst::Op { op: AluOp::Mulh, rd: Reg::ZERO, rs1: Reg::A1, rs2: Reg::A2 })
        .imm(AluImmOp::Addi, Reg::ZERO, Reg::A1, 5)
        .imm(AluImmOp::Ori, Reg::ZERO, Reg::ZERO, 5)
        .op(RvInst::Lui { rd: Reg::ZERO, imm: 0x7000 })
        .op(RvInst::Auipc { rd: Reg::ZERO, imm: 0x7000 })
        .op(RvInst::Load { width: MemWidth::W, rd: Reg::ZERO, rs1: Reg::SP, offset: -4 })
        .print(Reg::ZERO);
    rv.op(RvInst::Op { op: AluOp::Or, rd: Reg::A3, rs1: Reg::ZERO, rs2: Reg::ZERO }).print(Reg::A3);
    rv.op(RvInst::Auipc { rd: Reg::A3, imm: 0x5000 }).print(Reg::A3);
    rv.op(RvInst::Auipc { rd: Reg::A4, imm: 0 }).print(Reg::A4);
    rv.op(RvInst::Auipc { rd: Reg::A4, imm: 0xFFFF_F000 }).print(Reg::A4);
    let (exit, out) = riscv_agree("RV32IM x0 writes and AUIPC", &mut rv);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert!(out.starts_with("0\n0\n"), "{out}");
}

#[test]
fn riscv_every_branch_both_ways() {
    let mut rv = Rv::default();
    let mut expected = String::new();
    for op in BranchOp::ALL {
        for (a, b) in [(1, 1), (1, 2), (2, 1), (-1i32 as u32, 1), (1, -1i32 as u32)] {
            let taken = format!("taken{}", rv.labels.len());
            expected += if op.eval(a, b) { "1\n" } else { "0\n1\n" };
            rv.li(Reg::A1, a).li(Reg::A2, b).branch(op, Reg::A1, Reg::A2, &taken);
            // Not taken prints 0 then 1; taken prints 1 only.
            rv.imm(AluImmOp::Addi, Reg::A3, Reg::ZERO, 0).print(Reg::A3);
            rv.label(&taken).imm(AluImmOp::Addi, Reg::A3, Reg::ZERO, 1).print(Reg::A3);
        }
    }
    // `beqz`/`bnez`: the second source is `x0`.
    for op in [BranchOp::Beq, BranchOp::Bne] {
        for a in [0, 5] {
            let taken = format!("taken{}", rv.labels.len());
            expected += if op.eval(a, 0) { "1\n" } else { "0\n1\n" };
            rv.li(Reg::A1, a).branch(op, Reg::A1, Reg::ZERO, &taken);
            rv.imm(AluImmOp::Addi, Reg::A3, Reg::ZERO, 0).print(Reg::A3);
            rv.label(&taken).imm(AluImmOp::Addi, Reg::A3, Reg::ZERO, 1).print(Reg::A3);
        }
    }
    let (exit, out) = riscv_agree("RV32IM branches", &mut rv);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert_eq!(out, expected);
}

#[test]
fn riscv_every_load_and_store_width() {
    let mut rv = Rv::default();
    rv.li(Reg::A1, WORD).op(RvInst::Store { width: MemWidth::W, rs2: Reg::A1, rs1: Reg::SP, offset: -16 });
    for (width, offsets) in [
        (MemWidth::B, &[-16, -15, -14, -13][..]),
        (MemWidth::Bu, &[-16, -15, -14, -13]),
        (MemWidth::H, &[-16, -14]),
        (MemWidth::Hu, &[-16, -14]),
        (MemWidth::W, &[-16]),
    ] {
        for &offset in offsets {
            rv.op(RvInst::Load { width, rd: Reg::A3, rs1: Reg::SP, offset }).print(Reg::A3);
        }
    }
    for (width, offsets) in [(MemWidth::B, &[-8, -7, -6, -5][..]), (MemWidth::H, &[-8, -6]), (MemWidth::W, &[-8])] {
        for &offset in offsets {
            rv.op(RvInst::Store { width, rs2: Reg::A1, rs1: Reg::SP, offset });
            rv.op(RvInst::Load { width: MemWidth::W, rd: Reg::A3, rs1: Reg::SP, offset: -8 }).print(Reg::A3);
        }
    }
    let (exit, out) = riscv_agree("RV32IM loads and stores", &mut rv);
    assert_eq!(exit, EmuExit::Done { code: 0 });
    assert!(out.contains("-128\n") && out.contains("128\n"), "{out}");
}

#[test]
fn riscv_mid_trace_traps() {
    let wild = 0x40_0000;
    let cases: [(&str, u32, RvInst); 7] = [
        ("wild lw", wild, RvInst::Load { width: MemWidth::W, rd: Reg::A3, rs1: Reg::A1, offset: 0 }),
        ("wild lbu", wild, RvInst::Load { width: MemWidth::Bu, rd: Reg::A3, rs1: Reg::A1, offset: 0 }),
        ("misaligned lh", 0x1001, RvInst::Load { width: MemWidth::H, rd: Reg::A3, rs1: Reg::A1, offset: 0 }),
        ("wild sw", wild, RvInst::Store { width: MemWidth::W, rs2: Reg::A2, rs1: Reg::A1, offset: 0 }),
        ("wild sb", wild, RvInst::Store { width: MemWidth::B, rs2: Reg::A2, rs1: Reg::A1, offset: 0 }),
        ("misaligned sh", 0x2001, RvInst::Store { width: MemWidth::H, rs2: Reg::A2, rs1: Reg::A1, offset: 0 }),
        ("misaligned sw", 0x2002, RvInst::Store { width: MemWidth::W, rs2: Reg::A2, rs1: Reg::A1, offset: 0 }),
    ];
    for (what, addr, access) in cases {
        let mut rv = Rv::default();
        rv.li(Reg::A1, addr).imm(AluImmOp::Addi, Reg::A2, Reg::A2, 3).op(access);
        rv.imm(AluImmOp::Addi, Reg::A2, Reg::A2, 4);
        let (exit, _) = riscv_agree(what, &mut rv);
        assert!(matches!(exit, EmuExit::Trap(_)), "{what}: {exit:?}");
    }
    let mut rv = Rv::default();
    rv.imm(AluImmOp::Addi, Reg::A7, Reg::ZERO, 99).op(RvInst::Ecall);
    let (exit, _) = riscv_agree("unknown ecall", &mut rv);
    assert!(matches!(exit, EmuExit::Trap(_)), "unknown ecall: {exit:?}");
}
