//! Cycle-accurate simulator validation: the out-of-order cores (with
//! all their speculation) must produce exactly the same architectural
//! behaviour as the in-order emulators (`straight_tests::check_chain`),
//! and their timing must be sane.

use straight_compiler::StraightOptions;
use straight_ir::interp;
use straight_sim::pipeline::{simulate, MachineConfig};
use straight_tests::{build_ir, build_riscv, build_straight, check_chain};

const MAX_CYCLES: u64 = 50_000_000;

#[test]
fn straight_line_arithmetic() {
    check_chain("int main() { print_int((3 + 4) * (5 + 6) - 7); return 0; }");
}

#[test]
fn loops_with_branches() {
    check_chain(
        "int main() {
             int s = 0;
             int i;
             for (i = 0; i < 200; i++) {
                 if (i % 3 == 0) s += i;
                 else s -= 1;
             }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn memory_traffic_and_forwarding() {
    check_chain(
        "int buf[64];
         int main() {
             int i;
             for (i = 0; i < 64; i++) buf[i] = i * i;
             int s = 0;
             for (i = 0; i < 64; i++) { buf[i] = buf[i] + 1; s += buf[i]; }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn function_calls_and_recursion() {
    check_chain(
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
         int main() { print_int(fib(12)); return 0; }",
    );
}

#[test]
fn division_and_multiplication_units() {
    check_chain(
        "int main() {
             int s = 1;
             int i;
             for (i = 1; i < 50; i++) { s = (s * i) % 9973 + i / 3; }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn data_dependent_branches_stress_predictor() {
    check_chain(
        "int lcg = 12345;
         int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
         int main() {
             int taken = 0;
             int i;
             for (i = 0; i < 500; i++) { if (next() % 2) taken++; }
             print_int(taken);
             return 0;
         }",
    );
}

#[test]
fn tage_machines_match_too() {
    // The chain runs the TAGE 4-way cores on every program; this one
    // takes its branch once every 24 iterations.
    check_chain(
        "int main() {
             int s = 0;
             int i;
             for (i = 0; i < 300; i++) { if (i % 24 == 23) s += 7; else s += 1; }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn ideal_recovery_is_not_slower() {
    let module = build_ir(
        "int lcg = 99;
         int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
         int main() {
             int s = 0;
             int i;
             for (i = 0; i < 800; i++) { if (next() % 2) s += 3; else s -= 1; }
             print_int(s);
             return 0;
         }",
    );
    let expected = interp::run_main(&module).expect("interpreter runs");
    let rv_image = build_riscv(&module);
    let base = simulate(rv_image.clone(), MachineConfig::ss_4way(), MAX_CYCLES).unwrap();
    let ideal = simulate(rv_image, MachineConfig::ss_4way().with_ideal_recovery(), MAX_CYCLES).unwrap();
    assert_eq!(base.stdout, expected.stdout);
    assert_eq!(ideal.stdout, expected.stdout);
    assert!(
        ideal.stats.cycles <= base.stats.cycles,
        "ideal recovery should not be slower: {} vs {}",
        ideal.stats.cycles,
        base.stats.cycles
    );
    assert!(base.stats.branch_mispredicts > 0, "test needs mispredicts to be meaningful");
}

#[test]
fn straight_recovers_faster_than_ss_on_branchy_code() {
    // The paper's headline mechanism: same program, branchy, lots of
    // mispredicts — STRAIGHT's recovery (1 ROB read, shorter
    // front-end) should beat SS's ROB walk.
    let src = "int lcg = 7;
         int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
         int main() {
             int s = 0;
             int i;
             for (i = 0; i < 2000; i++) { if (next() % 2) s += 3; else s = s ^ i; }
             print_int(s);
             return 0;
         }";
    let module = build_ir(src);
    let rv = simulate(build_riscv(&module), MachineConfig::ss_4way(), MAX_CYCLES).unwrap();
    let opts = StraightOptions::default().with_max_distance(31);
    let st = simulate(build_straight(&module, &opts), MachineConfig::straight_4way(), MAX_CYCLES).unwrap();
    assert_eq!(rv.stdout, st.stdout);
    assert!(rv.stats.branch_mispredicts > 100, "{}", rv.stats.branch_mispredicts);
    // Mispredict penalty should be visibly lower for STRAIGHT.
    assert!(
        st.stats.recovery_stall_cycles < rv.stats.recovery_stall_cycles,
        "STRAIGHT recovery stalls {} vs SS {}",
        st.stats.recovery_stall_cycles,
        rv.stats.recovery_stall_cycles
    );
}
