//! **F8 — §3.2/§4.6 list-ranking gapping**: block misses with and without
//! the gapped storage of contracted lists.
//!
//! The paper: writing the size-`n/x²` contracted list into space `n/x`
//! (every `x`-th slot) means that once the list has ≤ `n/B²` elements,
//! every element occupies its own block and deep-recursion block misses
//! vanish. We sweep the list size and compare gapped vs dense storage.

use hbp_core::prelude::*;

use hbp_core::algos::{gen, listrank};

use crate::common::rule;

pub fn main() {
    let bw = 16u64;
    println!("F8: list ranking, gapped vs dense contracted lists (B={bw})\n");
    println!(
        "{:>6} {:>3} | {:>10} {:>10} | {:>10} {:>10} | {:>9}",
        "n", "p", "gap blk", "dense blk", "gap span", "dense span", "gap heap×"
    );
    rule(74);
    for n in [1usize << 11, 1 << 12, 1 << 13] {
        let succ = gen::random_list(n, 9);
        let (cg, _) = listrank::list_rank(&succ, BuildConfig::with_block(bw), true);
        let (cd, _) = listrank::list_rank(&succ, BuildConfig::with_block(bw), false);
        for p in [8usize, 16] {
            let cfg = MachineConfig::new(p, 1 << 12, bw);
            let rg = run(&cg, cfg, Policy::Pws);
            let rd = run(&cd, cfg, Policy::Pws);
            println!(
                "{:>6} {:>3} | {:>10} {:>10} | {:>10} {:>10} | {:>9.2}",
                n,
                p,
                rg.heap_block_misses,
                rd.heap_block_misses,
                rg.makespan,
                rd.makespan,
                cg.heap_words as f64 / cd.heap_words as f64,
            );
        }
    }
    println!(
        "\ngap heap×: space overhead of gapping (paper: bounded, since the\n\
         gapped level of size r uses √(n·r) ≤ n words)."
    );
}
