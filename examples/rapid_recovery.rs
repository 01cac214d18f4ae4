//! The paper's headline mechanism in isolation: on branchy code, the
//! SS baseline pays for ROB-walking RMT recovery and a deeper
//! front-end, while STRAIGHT restores RP/SP from one ROB entry
//! (Figure 4). This example prints the recovery accounting
//! side by side.
//!
//! ```sh
//! cargo run --release -p straight-core --example rapid_recovery
//! ```

use straight_core::{build, run_on, MachineConfig, Target};

fn main() {
    // Pseudo-random branches defeat the predictor on purpose.
    let src = "
        int lcg = 7;
        int next() { lcg = lcg * 1103515245 + 12345; return (lcg >> 16) & 32767; }
        int main() {
            int s = 0;
            int i;
            for (i = 0; i < 5000; i++) {
                if (next() % 2) s += 3; else s = s ^ i;
            }
            print_int(s);
            return 0;
        }
    ";
    let ss =
        run_on(&build(src, Target::Riscv).unwrap(), MachineConfig::ss_4way(), u64::MAX).unwrap();
    let st = run_on(
        &build(src, Target::StraightRePlus { max_distance: 31 }).unwrap(),
        MachineConfig::straight_4way(),
        u64::MAX,
    )
    .unwrap();
    assert_eq!(ss.stdout, st.stdout, "both machines must agree");
    for (name, r) in [("SS-4way", &ss), ("STRAIGHT-4way", &st)] {
        println!(
            "{name:<14} cycles={:>8}  mispredicts={:>6}  squashed={:>8}  recovery-stall={:>7} cycles",
            r.stats.cycles, r.stats.branch_mispredicts, r.stats.squashed, r.stats.recovery_stall_cycles
        );
    }
    println!(
        "\nSTRAIGHT speedup on this branchy kernel: {:+.1} %",
        (ss.stats.cycles as f64 / st.stats.cycles as f64 - 1.0) * 100.0
    );
}
