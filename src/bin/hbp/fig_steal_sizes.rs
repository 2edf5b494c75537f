//! **F9 — Lemma 2.1 + §4.1**: the size distribution of stolen tasks under
//! PWS vs RWS.
//!
//! PWS steals in decreasing priority (≈ size) order, so its steal sequence
//! is front-loaded with the biggest tasks, and stolen tasks of size ≥ 2M
//! incur zero cache-miss excess (Lemma 2.1). RWS steals whatever sits at a
//! random victim's deque top, including tiny block-sharing tasks.

use hbp_core::prelude::*;

use hbp_core::algos::{gen, scan};

use crate::common::rule;

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

pub fn main() {
    let n = 1 << 15;
    let data = gen::random_u64s(n, 1 << 30, 3);
    let (comp, _) = scan::prefix_sums(&data, BuildConfig::with_block(32));
    let cfg = MachineConfig::new(8, 1 << 12, 32);

    println!("F9: stolen-task sizes, PS n=2^15, p=8, M=2^12, B=32\n");
    println!(
        "{:<8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "sched", "steals", "min", "p25", "median", "max", "tiny (<B)", "big (>=2M)"
    );
    rule(80);

    let pws = run(&comp, cfg, Policy::Pws);
    let mut runs: Vec<(String, Vec<u64>)> = vec![("PWS".into(), pws.stolen_sizes.clone())];
    for seed in [1u64, 2, 3] {
        let r = run(&comp, cfg, Policy::Rws { seed });
        runs.push((format!("RWS#{seed}"), r.stolen_sizes.clone()));
    }
    for (name, mut sizes) in runs {
        let raw = sizes.clone();
        sizes.sort();
        let tiny = sizes.iter().filter(|&&s| s < 32).count();
        let big = sizes.iter().filter(|&&s| s >= 2 * (1 << 12)).count();
        println!(
            "{:<8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10}",
            name,
            sizes.len(),
            sizes.first().copied().unwrap_or(0),
            percentile(&sizes, 0.25),
            percentile(&sizes, 0.5),
            sizes.last().copied().unwrap_or(0),
            tiny,
            big
        );
        if name == "PWS" {
            // PWS steal sequence is (weakly) size-decreasing round by round:
            // verify the first steal is the biggest.
            assert_eq!(
                raw.first().copied(),
                sizes.last().copied(),
                "PWS must steal the largest task first"
            );
        }
    }
    println!(
        "\nPWS's first steal is the largest task (priority order); RWS's\n\
         median stolen size is far smaller, which is exactly where block\n\
         sharing bites."
    );
}
