//! **F11 — §5.3 bulk-synchronous mapping**: PWS vs the BSP-style static
//! distribution (unravel the recursion for `⌈log₂p⌉ + 1` levels, hand the
//! `≥ p` subtrees out, and never steal below them).
//!
//! The paper observes balanced HBP computations map efficiently onto
//! bulk-synchronous execution. The flip side our engine exposes: on
//! *irregular* computations (LR, Sort with data-dependent merges) static
//! distribution loses to PWS because nothing rebalances the lower levels.

use hbp_core::prelude::*;

use crate::common::rule;

pub fn main() {
    println!("F11: PWS vs BSP-style static distribution (p=8, M=2^12, B=32)\n");
    println!(
        "{:<20} {:>10} {:>10} {:>7} | {:>8} {:>8} | {:>9} {:>9}",
        "algorithm",
        "PWS time",
        "BSP time",
        "BSP/PWS",
        "PWS stl",
        "BSP stl",
        "PWS idle",
        "BSP idle"
    );
    rule(96);
    let cfg = MachineConfig::new(8, 1 << 12, 32);
    let levels = 4; // ceil(log2 8) + 1
    for name in ["Scans (PS)", "MT", "Strassen", "FFT", "Sort (SPMS)", "LR"] {
        let spec = lookup(name);
        let n = spec.size.pick(1 << 12, 32);
        let comp = (spec.build)(n, BuildConfig::with_block(32), 42);
        let pws = run(&comp, cfg, Policy::Pws);
        let bsp = run(
            &comp,
            cfg,
            Policy::Bsp {
                prefix_levels: levels,
            },
        );
        println!(
            "{:<20} {:>10} {:>10} {:>7.2} | {:>8} {:>8} | {:>9} {:>9}",
            spec.name,
            pws.makespan,
            bsp.makespan,
            bsp.makespan as f64 / pws.makespan as f64,
            pws.steals,
            bsp.steals,
            pws.idle.iter().sum::<u64>(),
            bsp.idle.iter().sum::<u64>(),
        );
    }
    println!(
        "\nBSP/PWS ≈ 1 on balanced computations (the paper's §5.3 point);\n\
         > 1 with more idle time on irregular ones, where only work\n\
         stealing rebalances."
    );
}
