//! **F6 — §4.7 padding ablation**: padded vs unpadded BP/HBP computations.
//!
//! Padded computations (Def 3.3) insert a `⌈√|τ|⌉`-word pad before every
//! stack frame, separating frames of successive nodes so that thief cores
//! joining at a parent frame do not share blocks with unrelated frames.
//! The paper (§4.7): with padding the block wait cost of steals drops to
//! `O(1)` per steal at heights ≥ log B, making the PWS steal overhead
//! `O(b log p)` instead of `O(b(B + log p))`.

use hbp_core::prelude::*;

use hbp_core::algos::{gen, scan, sort, spms, strassen};

use crate::common::rule;

pub fn main() {
    println!("F6: stack block misses, plain vs padded (Def 3.3)\n");
    println!(
        "{:<16} {:>3} {:>4} | {:>11} {:>11} {:>8}",
        "algorithm", "p", "B", "plain stack", "padded stack", "ratio"
    );
    rule(64);

    type BuildFn = Box<dyn Fn(BuildConfig) -> Computation>;
    let data = gen::random_u64s(1 << 13, 1 << 30, 1);
    let keys: Vec<(u64, u64)> = gen::random_u64s(1 << 10, 1 << 40, 2)
        .into_iter()
        .map(|k| (k, 1))
        .collect();
    let bi: Vec<f64> = (0..32 * 32).map(|x| (x % 7) as f64).collect();
    let builds: Vec<(&str, BuildFn)> = vec![
        ("M-Sum 2^13", Box::new(move |c| scan::m_sum(&data, c).0)),
        {
            let keys = keys.clone();
            (
                "SPMS 2^10",
                Box::new(move |c| spms::spms(&keys, c).0) as BuildFn,
            )
        },
        ("Merge 2^10", Box::new(move |c| sort::mergesort(&keys, c).0)),
        (
            "Strassen 32",
            Box::new(move |c| strassen::strassen_bi(&bi, &bi, 32, c).0),
        ),
    ];

    for (name, build) in &builds {
        for p in [8usize, 16] {
            for bw in [16u64, 32] {
                let plain = build(BuildConfig::with_block(bw));
                let padded = build(BuildConfig::with_block(bw).padded());
                let cfg = MachineConfig::new(p, 1 << 12, bw);
                let rp = run(&plain, cfg, Policy::Pws);
                let rq = run(&padded, cfg, Policy::Pws);
                println!(
                    "{:<16} {:>3} {:>4} | {:>11} {:>11} {:>8.2}",
                    name,
                    p,
                    bw,
                    rp.stack_block_misses,
                    rq.stack_block_misses,
                    rp.stack_block_misses as f64 / rq.stack_block_misses.max(1) as f64
                );
            }
        }
    }
    println!("\nratio > 1: padding removed that fraction of stack block misses.");
}
