//! **F1 — Lemma 4.1 / 4.4**: PWS cache-miss excess vs `p`, `M`, `B`.
//!
//! The paper: for `f(r) = O(√r)` computations with a tall cache, the PWS
//! cache-miss excess over the sequential `Q(n, M, B)` is `O(p·M/B)` —
//! i.e. *zero* once the input exceeds the combined cache capacity. The
//! measured excess divided by `pM/B` should be bounded by a small constant
//! across the sweep.

use hbp_core::prelude::*;

use hbp_core::algos::{gen, layout, mt, scan, strassen};

use crate::common::rule;

fn bi(n: usize, seed: u64) -> Vec<f64> {
    layout::to_bi(&gen::random_matrix(n, seed), n)
}

pub fn main() {
    let bw = 32u64;
    let m = 1u64 << 12;
    let builds: Vec<(&str, Computation)> = vec![
        (
            "PS n=2^15",
            scan::prefix_sums(
                &gen::random_u64s(1 << 15, 1 << 30, 1),
                BuildConfig::with_block(bw),
            )
            .0,
        ),
        (
            "MT 64x64",
            mt::transpose_bi(&bi(64, 2), 64, BuildConfig::with_block(bw)).0,
        ),
        (
            "Strassen 32x32",
            strassen::strassen_bi(&bi(32, 3), &bi(32, 4), 32, BuildConfig::with_block(bw)).0,
        ),
    ];

    println!("F1: PWS cache-miss excess vs p  (M={m}, B={bw}; bound O(pM/B))\n");
    println!(
        "{:<16} {:>3} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "algorithm", "p", "Q(seq)", "PWS miss", "excess", "pM/B", "excess/(pM/B)"
    );
    rule(72);
    for (name, comp) in &builds {
        let seq = run_sequential(comp, MachineConfig::new(1, m, bw));
        for p in [2usize, 4, 8, 16, 32] {
            let cfg = MachineConfig::new(p, m, bw);
            let par = run(comp, cfg, Policy::Pws);
            let excess = par.plain_misses().saturating_sub(seq.q_misses);
            let bound = p as u64 * m / bw;
            println!(
                "{:<16} {:>3} {:>9} {:>9} {:>9} {:>8} {:>10.3}",
                name,
                p,
                seq.q_misses,
                par.plain_misses(),
                excess,
                bound,
                excess as f64 / bound as f64
            );
        }
        println!();
    }

    println!("excess vs M at p=8, B={bw} (each row should stay ~flat per M):");
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>12}",
        "algorithm", "M", "Q(seq)", "excess", "excess/(pM/B)"
    );
    rule(60);
    for (name, comp) in &builds {
        for mm in [1u64 << 11, 1 << 12, 1 << 13, 1 << 14] {
            let cfg = MachineConfig::new(8, mm, bw);
            let seq = run_sequential(comp, cfg);
            let par = run(comp, cfg, Policy::Pws);
            let excess = par.plain_misses().saturating_sub(seq.q_misses);
            println!(
                "{:<16} {:>8} {:>9} {:>9} {:>12.3}",
                name,
                mm,
                seq.q_misses,
                excess,
                excess as f64 / (8.0 * mm as f64 / bw as f64)
            );
        }
        println!();
    }
}
