//! Fault-path differential tests: a program that faults must produce
//! the *same typed trap* on the functional emulator and on the
//! cycle-accurate out-of-order core — same [`TrapKind`] (payload
//! included), same faulting PC, and, because both report the retired
//! instruction count as the index, the same dynamic instruction index.
//! This pins down trap *precision*: whatever speculation the core was
//! doing, the architectural fault it reports is the one the in-order
//! reference sees.

use straight_asm::{link_riscv, link_straight, parse_straight_asm, Image, RvFunc, RvItem, RvProgram};
use straight_isa::{AluImmOp, Trap, TrapKind};
use straight_riscv::{Reg, RvInst};
use straight_sim::emu::{EmuExit, ExecBackend, RiscvEmu, StraightEmu, TierConfig};
use straight_sim::pipeline::{simulate, MachineConfig, SimExit};

const MAX: u64 = 1_000_000;

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

fn emu_trap(image: &Image) -> Trap {
    let exit = match image.isa {
        straight_asm::ImageIsa::Straight => StraightEmu::new(image.clone()).run(MAX).exit,
        straight_asm::ImageIsa::Riscv => RiscvEmu::new(image.clone()).run(MAX).exit,
    };
    match exit {
        EmuExit::Trap(t) => t,
        other => panic!("emulator did not trap: {other:?}"),
    }
}

fn core_trap(image: &Image, cfg: MachineConfig) -> Trap {
    let name = cfg.name.clone();
    let r = simulate(image.clone(), cfg, MAX).unwrap();
    match r.exit {
        SimExit::Trap(t) => t,
        other => panic!("{name} did not trap: {other:?}\n--- stdout ---\n{}", r.stdout),
    }
}

/// Both cycle-accurate models of an ISA must report the emulator's
/// exact trap: same kind (with payload), same PC, same dynamic index.
fn check_trap_matches(image: &Image, configs: [MachineConfig; 2]) -> Trap {
    let reference = emu_trap(image);
    for cfg in configs {
        let name = cfg.name.clone();
        let t = core_trap(image, cfg);
        assert!(
            reference.same_event(&t),
            "{name}: core trap `{t}` is not the emulator's `{reference}`"
        );
        assert_eq!(t.index, reference.index, "{name}: dynamic instruction index");
        assert!(t.cycle.is_some(), "{name}: core traps carry a cycle");
    }
    reference
}

fn straight_cfgs() -> [MachineConfig; 2] {
    [MachineConfig::straight_2way(), MachineConfig::straight_4way()]
}

fn ss_cfgs() -> [MachineConfig; 2] {
    [MachineConfig::ss_2way(), MachineConfig::ss_4way()]
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
    let t = check_trap_matches(&image, straight_cfgs());
    assert!(matches!(t.kind, TrapKind::MisalignedLoad { addr: 3, .. }), "{t}");
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
    let t = check_trap_matches(&image, straight_cfgs());
    assert!(matches!(t.kind, TrapKind::WildStore { addr: 0x0040_0000, .. }), "{t}");
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
    let t = check_trap_matches(&image, straight_cfgs());
    assert_eq!(t.kind, TrapKind::IllegalInstruction { word: bad });
    assert_eq!(t.pc, main + 4);
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
    let t = check_trap_matches(&image, straight_cfgs());
    assert_eq!(t.kind, TrapKind::DistanceOutOfRange { dist: 5, executed: 2 });
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
    let t = check_trap_matches(&image, straight_cfgs());
    assert_eq!(t.kind, TrapKind::FetchFault);
    assert_eq!(t.pc, 0x1_0000);
}

// -- RV32IM ---------------------------------------------------------

#[test]
fn riscv_misaligned_load_same_trap() {
    let image = riscv_image(vec![
        RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::T0, rs1: Reg::ZERO, imm: 3 },
        RvInst::Load { width: straight_isa::MemWidth::W, rd: Reg::T1, rs1: Reg::T0, offset: 0 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let t = check_trap_matches(&image, ss_cfgs());
    assert!(matches!(t.kind, TrapKind::MisalignedLoad { addr: 3, .. }), "{t}");
}

#[test]
fn riscv_wild_store_same_trap() {
    let image = riscv_image(vec![
        RvInst::Lui { rd: Reg::T0, imm: 0x0040_0000 },
        RvInst::Store { width: straight_isa::MemWidth::W, rs2: Reg::T0, rs1: Reg::T0, offset: 0 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let t = check_trap_matches(&image, ss_cfgs());
    assert!(matches!(t.kind, TrapKind::WildStore { addr: 0x0040_0000, .. }), "{t}");
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
    let t = check_trap_matches(&image, ss_cfgs());
    assert_eq!(t.kind, TrapKind::IllegalInstruction { word: bad });
    assert_eq!(t.pc, main + 4);
}

#[test]
fn riscv_wild_jump_fetch_faults_same_trap() {
    let image = riscv_image(vec![
        RvInst::Lui { rd: Reg::T0, imm: 0x0001_0000 },
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::T0, offset: 0 },
    ]);
    let t = check_trap_matches(&image, ss_cfgs());
    assert_eq!(t.kind, TrapKind::FetchFault);
    assert_eq!(t.pc, 0x1_0000);
}

#[test]
fn riscv_ecall_code_is_all_of_a7() {
    // The low half of a7 is the print-int code, but the service code is
    // the whole register: the interpreter, the fast tier and both SS
    // cores must trap on it, not print.
    let image = riscv_image(vec![
        RvInst::Lui { rd: Reg::A7, imm: 0x0001_0000 },
        RvInst::OpImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::A7, imm: 1 },
        RvInst::Ecall,
        RvInst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 },
    ]);
    let t = check_trap_matches(&image, ss_cfgs());
    assert_eq!(t.kind, TrapKind::UnknownSys { code: 0x1_0001 });
    let mut fast = RiscvEmu::new(image.clone());
    match fast.run_with(MAX, TierConfig::fast()) {
        EmuExit::Trap(f) => {
            assert!(t.same_event(&f), "fast tier trap `{f}` is not the interpreter's `{t}`");
            assert_eq!(f.index, t.index, "fast tier: dynamic instruction index");
        }
        other => panic!("fast tier did not trap: {other:?}"),
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
