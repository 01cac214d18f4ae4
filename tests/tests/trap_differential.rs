//! Fault-path differential tests: a program that faults must produce
//! the *same typed trap* on every executor of its ISA
//! (`straight_tests::check_image`): the emulator's interpreter and
//! fast tiers and the 2-way, 4-way and TAGE 4-way out-of-order cores,
//! each plain and sanitized — same [`TrapKind`] (payload included),
//! same faulting PC, and, because all report the retired instruction
//! count as the index, the same dynamic instruction index. This pins
//! down trap *precision*: whatever speculation the core was doing, the
//! architectural fault it reports is the one the in-order reference
//! sees. The memory-rule tests also hold every executor to the same
//! exit code and output.

use straight_asm::{link_riscv, link_straight, parse_straight_asm, Image, RvFunc, RvItem, RvProgram};
use straight_isa::{AluImmOp, MemWidth, TrapKind};
use straight_riscv::{Reg, RvInst};
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu};
use straight_sim::pipeline::{simulate, MachineConfig, SimExit};
use straight_tests::check_image;

fn straight_image(src: &str) -> Image {
    let prog = parse_straight_asm(src).expect("assembles");
    link_straight(&prog).expect("links")
}

fn riscv_image(items: Vec<RvInst>) -> Image {
    let prog = RvProgram {
        funcs: vec![RvFunc {
            name: "main".into(),
            items: items.into_iter().map(RvItem::plain).collect(),
            labels: vec![],
        }],
        data: vec![],
    };
    link_riscv(&prog).expect("links")
}

/// Every executor must report the interpreter's exact trap; returns
/// its kind and PC.
fn check_trap_matches(image: &Image, what: &str) -> (TrapKind, u32) {
    let out = check_image(image, what);
    let Some((kind, pc, _)) = out.trap else { panic!("{what}: no trap, exit {:?}", out.exit_code) };
    (kind, pc)
}

// -- STRAIGHT -------------------------------------------------------

#[test]
fn straight_misaligned_load_same_trap() {
    let image = straight_image(
        ".text
         func main:
            ADDi [0] 3
            LD [1] 0
            HALT",
    );
    let (kind, _) = check_trap_matches(&image, "misaligned load");
    assert!(matches!(kind, TrapKind::MisalignedLoad { addr: 3, .. }), "{kind}");
}

/// A STRAIGHT `JR` to an odd address jumps there and faults on fetch:
/// only RV32 `jalr` clears bit 0 of its target.
#[test]
fn straight_odd_jump_target_same_trap() {
    let image = straight_image(
        ".text
         func main:
            ADDi [1] 1
            JR [1]",
    );
    let out = check_image(&image, "odd JR target");
    assert_eq!(out.trap, Some((TrapKind::FetchFault, 0x1005, 3)), "{out:?}");
}

#[test]
fn straight_wild_store_same_trap() {
    // LUI 64 produces 0x40_0000 = MEM_SIZE: one past the last byte.
    let image = straight_image(
        ".text
         func main:
            LUI 64
            ADDi [0] 7
            ST [1] [2]
            HALT",
    );
    let (kind, _) = check_trap_matches(&image, "wild store");
    assert!(matches!(kind, TrapKind::WildStore { addr: 0x0040_0000, .. }), "{kind}");
}

#[test]
fn straight_illegal_instruction_same_trap() {
    let mut image = straight_image(
        ".text
         func main:
            ADDi [0] 1
            NOP
            HALT",
    );
    // Overwrite the NOP with an undecodable word.
    let bad = 0xffff_ffffu32;
    assert!(straight_isa::decode(bad).is_err(), "test needs an undecodable word");
    let main = image.symbol("main").unwrap();
    let idx = ((main + 4 - image.code_base) / 4) as usize;
    image.code[idx] = bad;
    let (kind, pc) = check_trap_matches(&image, "illegal instruction");
    assert_eq!(kind, TrapKind::IllegalInstruction { word: bad });
    assert_eq!(pc, main + 4);
}

#[test]
fn straight_distance_out_of_range_same_trap() {
    // Only the `_start` JAL and the ADDi have executed when the ADD
    // asks for distance 5: the producer never existed. The emulator
    // checks at the register read, the core at the RP adders — the
    // reported trap must be identical, payload included.
    let image = straight_image(
        ".text
         func main:
            ADDi [0] 1
            ADD [1] [5]
            HALT",
    );
    let (kind, _) = check_trap_matches(&image, "distance out of range");
    assert_eq!(kind, TrapKind::DistanceOutOfRange { dist: 5, executed: 2 });
}

#[test]
fn straight_fetch_fault_same_trap() {
    // Jump through a computed target far outside the code segment.
    let image = straight_image(
        ".text
         func main:
            LUI 1
            JR [1]",
    );
    let (kind, pc) = check_trap_matches(&image, "fetch fault");
    assert_eq!(kind, TrapKind::FetchFault);
    assert_eq!(pc, 0x1_0000);
}

// -- RV32IM ---------------------------------------------------------

#[test]
fn riscv_misaligned_load_same_trap() {
    let image = riscv_image(vec![
        RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::ZERO, imm: 3 },
        RvInst::Load { width: straight_isa::MemWidth::W, rd: Reg::T1, rs1: Reg::T0, offset: 0 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let (kind, _) = check_trap_matches(&image, "misaligned load");
    assert!(matches!(kind, TrapKind::MisalignedLoad { addr: 3, .. }), "{kind}");
}

#[test]
fn riscv_wild_store_same_trap() {
    let image = riscv_image(vec![
        RvInst::Lui { rd: Reg::T0, imm: 0x0040_0000 },
        RvInst::Store { width: straight_isa::MemWidth::W, rs2: Reg::T0, rs1: Reg::T0, offset: 0 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let (kind, _) = check_trap_matches(&image, "wild store");
    assert!(matches!(kind, TrapKind::WildStore { addr: 0x0040_0000, .. }), "{kind}");
}

#[test]
fn riscv_illegal_instruction_same_trap() {
    let mut image = riscv_image(vec![
        RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::ZERO, imm: 1 },
        RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::T0, imm: 1 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let bad = 0x0000_0000u32;
    assert!(straight_riscv::decode(bad).is_err(), "test needs an undecodable word");
    let main = image.symbol("main").unwrap();
    let idx = ((main + 4 - image.code_base) / 4) as usize;
    image.code[idx] = bad;
    let (kind, pc) = check_trap_matches(&image, "illegal instruction");
    assert_eq!(kind, TrapKind::IllegalInstruction { word: bad });
    assert_eq!(pc, main + 4);
}

#[test]
fn riscv_wild_jump_fetch_faults_same_trap() {
    let image = riscv_image(vec![
        RvInst::Lui { rd: Reg::T0, imm: 0x0001_0000 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::T0, offset: 0 },
    ]);
    let (kind, pc) = check_trap_matches(&image, "wild jump");
    assert_eq!(kind, TrapKind::FetchFault);
    assert_eq!(pc, 0x1_0000);
}

#[test]
fn riscv_ecall_code_is_all_of_a7() {
    // The low half of a7 is the print-int code, but the service code is
    // the whole register: every executor must trap on it, not print.
    let image = riscv_image(vec![
        RvInst::Lui { rd: Reg::A7, imm: 0x0001_0000 },
        RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::A7, imm: 1 },
        RvInst::Ecall,
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let (kind, _) = check_trap_matches(&image, "ecall code");
    assert_eq!(kind, TrapKind::UnknownSys { code: 0x1_0001 });
}

// -- the memory rule ------------------------------------------------

/// Stored by the forwarding programs: the low byte and the low
/// halfword have their top bit set, and there are bits above both.
const STORED: u32 = 0x1234_80f0;

/// Each load width with the store of the same size, and the value the
/// load must read back from [`STORED`].
const FORWARDS: [(MemWidth, MemWidth, i32); 5] = [
    (MemWidth::B, MemWidth::B, -0x10),
    (MemWidth::Bu, MemWidth::B, 0xf0),
    (MemWidth::H, MemWidth::H, -0x7f10),
    (MemWidth::Hu, MemWidth::H, 0x80f0),
    (MemWidth::W, MemWidth::W, STORED as i32),
];

const LOAD_WIDTHS: [MemWidth; 5] =
    [MemWidth::B, MemWidth::Bu, MemWidth::H, MemWidth::Hu, MemWidth::W];

/// Both ISAs encode only these; a `Bu`/`Hu` store is a `B`/`H` store.
const STORE_WIDTHS: [MemWidth; 3] = [MemWidth::B, MemWidth::H, MemWidth::W];

/// Addresses past the end of memory: one past the last byte, and far.
const WILD: [u32; 2] = [0x0040_0000, 0xffff_0000];

fn suffix(width: MemWidth) -> &'static str {
    match width {
        MemWidth::B => ".B",
        MemWidth::Bu => ".BU",
        MemWidth::H => ".H",
        MemWidth::Hu => ".HU",
        MemWidth::W => "",
    }
}

#[test]
fn straight_loads_read_back_a_store_the_same_everywhere() {
    // The load follows the store at once, so the cores forward.
    for (load, store, want) in FORWARDS {
        let image = straight_image(&format!(
            ".text
             func main:
                LUI 48
                LUI {}
                ORi [1] {}
                ST{} [1] [3]
                LD{} [4] 0
                SYS 1 [1]
                SYS 3 [2]
                HALT",
            STORED >> 16,
            STORED as u16 as i16,
            suffix(store),
            suffix(load),
        ));
        let what = format!("ST{} then LD{}", suffix(store), suffix(load));
        let out = check_image(&image, &what);
        assert_eq!((out.exit_code, out.stdout), (Some(want), format!("{want}\n")));
    }
}

#[test]
fn riscv_loads_read_back_a_store_the_same_everywhere() {
    // The load follows the store at once, so the cores forward.
    for (load, store, want) in FORWARDS {
        let image = riscv_image(vec![
            RvInst::Lui { rd: Reg::T0, imm: 0x1234_8000 },
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::T0, imm: 0xf0 },
            RvInst::Lui { rd: Reg::T1, imm: 0x0030_0000 },
            RvInst::Store { width: store, rs2: Reg::T0, rs1: Reg::T1, offset: 0 },
            RvInst::Load { width: load, rd: Reg::T2, rs1: Reg::T1, offset: 0 },
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::T2, imm: 0 },
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::ZERO, imm: 1 },
            RvInst::Ecall,
            RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::T2, imm: 0 },
            RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
        ]);
        let out = check_image(&image, &format!("{store:?} store then {load:?} load"));
        assert_eq!((out.exit_code, out.stdout), (Some(want), format!("{want}\n")));
    }
}

#[test]
fn straight_misaligned_and_wild_accesses_trap_the_same_everywhere() {
    let mut cases = vec![];
    for width in LOAD_WIDTHS {
        let ld = format!("LD{}", suffix(width));
        if width.bytes() > 1 {
            let kind = TrapKind::MisalignedLoad { addr: 0x30_0001, width };
            cases.push((format!("LUI 48\n {ld} [1] 1"), kind));
        }
        for addr in WILD {
            let kind = TrapKind::WildLoad { addr, width };
            cases.push((format!("LUI {}\n {ld} [1] 0", addr >> 16), kind));
        }
    }
    for width in STORE_WIDTHS {
        let st = format!("ST{}", suffix(width));
        if width.bytes() > 1 {
            let kind = TrapKind::MisalignedStore { addr: 0x30_0001, width };
            cases.push((format!("LUI 48\n ADDi [1] 1\n ADDi [0] 7\n {st} [1] [2]"), kind));
        }
        for addr in WILD {
            let kind = TrapKind::WildStore { addr, width };
            cases.push((format!("LUI {}\n ADDi [0] 7\n {st} [1] [2]", addr >> 16), kind));
        }
    }
    for (body, kind) in cases {
        let image = straight_image(&format!(".text\nfunc main:\n {body}\n SYS 3 [1]\n HALT"));
        assert_eq!(check_trap_matches(&image, &body).0, kind, "{body}");
    }
}

#[test]
fn riscv_misaligned_and_wild_accesses_trap_the_same_everywhere() {
    let base = |imm| RvInst::Lui { rd: Reg::T0, imm };
    let mut cases = vec![];
    for width in LOAD_WIDTHS {
        let load = |offset| RvInst::Load { width, rd: Reg::A0, rs1: Reg::T0, offset };
        if width.bytes() > 1 {
            let kind = TrapKind::MisalignedLoad { addr: 0x30_0001, width };
            cases.push((base(0x30_0000), load(1), kind));
        }
        for addr in WILD {
            cases.push((base(addr), load(0), TrapKind::WildLoad { addr, width }));
        }
    }
    for width in STORE_WIDTHS {
        let store = |offset| RvInst::Store { width, rs2: Reg::T0, rs1: Reg::T0, offset };
        if width.bytes() > 1 {
            let kind = TrapKind::MisalignedStore { addr: 0x30_0001, width };
            cases.push((base(0x30_0000), store(1), kind));
        }
        for addr in WILD {
            cases.push((base(addr), store(0), TrapKind::WildStore { addr, width }));
        }
    }
    let ret = RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 };
    for (base, access, kind) in cases {
        let what = format!("{kind}");
        assert_eq!(check_trap_matches(&riscv_image(vec![base, access, ret]), &what).0, kind);
    }
}

// -- resource limits ------------------------------------------------

#[test]
fn spin_loop_reports_limit_on_both_models() {
    // An infinite loop is not a trap: the emulator reports its step
    // limit, the core its cycle limit — and the core's watchdog must
    // NOT fire, because commit keeps making progress.
    let image = straight_image(
        ".text
         func main:
         spin:
            J spin",
    );
    let r = StraightEmu::new(image.clone()).run(10_000);
    assert_eq!(r.exit, EmuExit::StepLimit);
    let s = simulate(image, MachineConfig::straight_2way(), 20_000).unwrap();
    assert_eq!(s.exit, SimExit::CycleLimit);
    assert!(s.watchdog.is_none(), "watchdog must not fire while commit progresses");
    assert!(s.stats.retired > 1_000);
}

#[test]
fn riscv_spin_loop_reports_limit_on_both_models() {
    let image = riscv_image(vec![RvInst::Jal { rd: Reg::ZERO, offset: 0 }]);
    let r = RiscvEmu::new(image.clone()).run(10_000);
    assert_eq!(r.exit, EmuExit::StepLimit);
    let s = simulate(image, MachineConfig::ss_2way(), 20_000).unwrap();
    assert_eq!(s.exit, SimExit::CycleLimit);
    assert!(s.watchdog.is_none());
}
