//! **F5 — §3.2 gapping ablation**: Direct BI→RM (`L(r) = √r`) vs
//! BI-RM (gap RM) vs BI-RM for FFT (`L(r) = O(1)`).
//!
//! Two views:
//! 1. *structural*: maximum written-blocks shared between sibling tasks
//!    (the `L` estimator) — gapping should collapse it;
//! 2. *dynamic*: block misses under PWS with many cores, where small
//!    stolen tasks write into shared blocks.

use hbp_core::prelude::*;

use hbp_core::algos::{gen, layout};

use crate::common::rule;

fn bi_data(n: usize, seed: u64) -> Vec<u64> {
    layout::to_bi(&gen::random_u64s(n * n, 1 << 40, seed), n)
}

pub fn main() {
    println!("F5: BI->RM conversion ablation (direct vs gap RM vs for-FFT)\n");

    // Structural: sibling write-sharing, small blocks so misalignment shows.
    println!("max sibling-shared written blocks (L estimator), B=4:");
    println!(
        "{:>5} {:>10} {:>10} {:>10}",
        "n", "direct", "gap RM", "for FFT"
    );
    rule(40);
    for n in [16usize, 32, 64] {
        let bi = bi_data(n, 1);
        let bw = 4u64;
        let l = |comp: &Computation| {
            analysis::l_estimate(comp, bw)
                .iter()
                .map(|r| r.shared_blocks)
                .max()
                .unwrap_or(0)
        };
        let (cd, _) = layout::bi_to_rm_direct(&bi, n, BuildConfig::with_block(bw));
        let (cg, _) = layout::bi_to_rm_gap(&bi, n, BuildConfig::with_block(bw));
        let (cf, _) = layout::bi_to_rm_fft(&bi, n, BuildConfig::with_block(bw));
        println!("{:>5} {:>10} {:>10} {:>10}", n, l(&cd), l(&cg), l(&cf));
    }

    // Dynamic: block misses with p=16 and B=8. Under PWS small tasks are
    // rarely stolen (that is the scheduler's contribution); under RWS they
    // are stolen constantly, which is exactly where L(r) = √r hurts — so we
    // show both schedulers (RWS averaged over 3 seeds).
    println!("\nheap block misses, p=16, B=8, M=4096 (PWS | RWS avg of 3 seeds):");
    println!(
        "{:>5} | {:>8} {:>8} {:>8} | {:>9} {:>9} {:>9} {:>11}",
        "n", "direct", "gap", "fft", "direct", "gap", "fft", "RWS dir/gap"
    );
    rule(84);
    for n in [32usize, 64, 128] {
        let bi = bi_data(n, 2);
        let bw = 8u64;
        let cfg = MachineConfig::new(16, 4096, bw);
        let pws = |comp: &Computation| run(comp, cfg, Policy::Pws).heap_block_misses;
        let rws = |comp: &Computation| {
            let seeds = [5u64, 6, 7];
            seeds
                .iter()
                .map(|&s| run(comp, cfg, Policy::Rws { seed: s }).heap_block_misses)
                .sum::<u64>() as f64
                / seeds.len() as f64
        };
        let (cd, _) = layout::bi_to_rm_direct(&bi, n, BuildConfig::with_block(bw));
        let (cg, _) = layout::bi_to_rm_gap(&bi, n, BuildConfig::with_block(bw));
        let (cf, _) = layout::bi_to_rm_fft(&bi, n, BuildConfig::with_block(bw));
        let (rd, rg, rf) = (rws(&cd), rws(&cg), rws(&cf));
        println!(
            "{:>5} | {:>8} {:>8} {:>8} | {:>9.1} {:>9.1} {:>9.1} {:>11.2}",
            n,
            pws(&cd),
            pws(&cg),
            pws(&cf),
            rd,
            rg,
            rf,
            rd / rg.max(1.0)
        );
    }
    println!(
        "\ngap RM trades 2x work (write gapped + compact) for near-zero\n\
         write-sharing at task sizes >= (B log^2 B)^2; for-FFT keeps L = O(1)\n\
         at every size via the sqrt-decomposition."
    );
}
