//! Profile the source-operand distances of a compiled program — the
//! measurement behind Figure 16 and the argument for a short operand
//! field (Section VI-B).
//!
//! ```sh
//! cargo run --release -p straight-core --example distance_profile
//! ```

use straight_core::{build, Target};
use straight_sim::emu::{ExecBackend, StraightEmu, TierConfig};
use straight_workloads::kernels;

fn main() {
    let src = kernels::quicksort(256);
    let image = build(&src, Target::StraightRePlus { max_distance: 1023 }).expect("build");
    let mut emu = StraightEmu::new(image);
    emu.profile_distances = true;
    let r = emu.run_tiered(u64::MAX, TierConfig::fast());
    println!("quicksort(256) on STRAIGHT: {} retired, stdout {}", r.stats.retired, r.stdout.trim());
    println!("max operand distance used: {}", r.stats.max_distance_used());
    for k in 0..=7 {
        let d = 1usize << k;
        println!(
            "  operands within distance {d:>4}: {:5.1} %",
            r.stats.cumulative_fraction(d) * 100.0
        );
    }
}
