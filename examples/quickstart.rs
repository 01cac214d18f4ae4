//! Quickstart: compile one MinC program for both machines, run it on
//! the cycle-accurate Table-I models, and compare.
//!
//! ```sh
//! cargo run --release -p straight-core --example quickstart
//! ```

use straight_core::{build, run_on, MachineConfig, Target};

fn main() {
    let src = "
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main() { print_int(fib(18)); return 0; }
    ";

    println!("source:\n{src}");
    for (target, cfg) in [
        (Target::Riscv, MachineConfig::ss_4way()),
        (Target::StraightRePlus { max_distance: 31 }, MachineConfig::straight_4way()),
    ] {
        let image = build(src, target).expect("build");
        let r = run_on(&image, cfg.clone(), 100_000_000).expect("machine accepts the image");
        println!(
            "{:<14} -> stdout={:?} exit={:?} cycles={} retired={} IPC={:.2}",
            cfg.name,
            r.stdout.trim(),
            r.exit_code,
            r.stats.cycles,
            r.stats.retired,
            r.stats.ipc()
        );
    }
}
