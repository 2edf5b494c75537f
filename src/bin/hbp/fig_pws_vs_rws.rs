//! **F4 — the headline comparison**: PWS vs randomized work stealing on
//! the same simulated machine, for the main algorithm families.
//!
//! The paper's claim (§1, §4.5): PWS's priority rounds steal only the
//! largest available tasks, so it incurs (a) fewer steals, (b) fewer
//! cache-miss excess reads, and (c) far fewer **block misses** than RWS,
//! which freely steals small, block-sharing tasks. RWS numbers are averaged
//! over 5 seeds.
//!
//! A simulator figure: the native pool steals randomized only, and its
//! 1-vs-w worker sweep of the same rows is `fig_runtime`'s.

use hbp_core::prelude::*;

use crate::common::{rule, rws_avg};

// Canonical registry names, resolved through the fail-loud `lookup` so a
// registry rename can never silently drop a row from this figure. Both
// sort rows run: SPMS (the paper's) and the mergesort stand-in (A/B).
const ALGOS: [&str; 8] = [
    "Scans (PS)",
    "MT",
    "Strassen",
    "FFT",
    "Sort (SPMS)",
    "Sort (merge std-in)",
    "LR",
    "Depth-n-MM",
];

pub fn main() {
    let seeds = [11u64, 22, 33, 44, 55];
    println!("F4: PWS vs RWS (RWS averaged over {} seeds)\n", seeds.len());
    println!(
        "{:<20} {:>3} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>9} | {:>7} {:>7}",
        "algorithm",
        "p",
        "PWS miss",
        "PWS blk",
        "PWS stl",
        "RWS miss",
        "RWS blk",
        "RWS stl",
        "blk x",
        "stl x"
    );
    rule(112);
    for name in ALGOS {
        let spec = lookup(name);
        let n = spec.size.pick(1 << 12, 32);
        let comp = (spec.build)(n, BuildConfig::with_block(32), 42);
        for p in [4usize, 8, 16] {
            let cfg = MachineConfig::new(p, 1 << 12, 32);
            let pws = run(&comp, cfg, Policy::Pws);
            let rws = rws_avg(&comp, cfg, &seeds);
            println!(
                "{:<20} {:>3} | {:>9} {:>9} {:>7} | {:>9.0} {:>9.0} {:>9.0} | {:>7.2} {:>7.2}",
                spec.name,
                p,
                pws.plain_misses(),
                pws.block_misses(),
                pws.steals,
                rws.plain_misses,
                rws.block_misses,
                rws.steals,
                rws.block_misses / pws.block_misses().max(1) as f64,
                rws.steals / pws.steals.max(1) as f64,
            );
        }
    }
    println!("\nblk x / stl x: RWS-to-PWS ratios — above 1.0 means PWS wins.");
}
