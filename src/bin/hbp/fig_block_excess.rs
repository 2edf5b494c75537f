//! **F2 — Lemma 4.2**: PWS block-miss excess for the three HBP shapes:
//!
//! * `c = 1` (scans/PS):        `O(p·B·log B · s*(n))`
//! * `c = 2, s(n) = √n` (FFT):  `O(p·B·log n·log log B)`
//! * `c = 2, s(n) = n/4` (MM):  `O(p·B·√n)`
//!
//! Measured block misses are printed against the corresponding envelope;
//! the ratio column should stay bounded (constant-ish) as `p` and `B` grow.

use hbp_core::prelude::*;

use hbp_core::algos::{fft, gen, layout, mm, scan};

use crate::common::rule;

pub fn main() {
    println!("F2: PWS block-miss excess envelopes (Lemma 4.2)\n");

    // --- c = 1: prefix sums ------------------------------------------------
    println!("c=1 (PS, n=2^14): envelope pB·log B");
    println!(
        "{:>3} {:>4} {:>10} {:>10} {:>8}",
        "p", "B", "block miss", "envelope", "ratio"
    );
    rule(40);
    let data = gen::random_u64s(1 << 14, 1 << 30, 1);
    for bw in [16u64, 32, 64] {
        let (comp, _) = scan::prefix_sums(&data, BuildConfig::with_block(bw));
        for p in [2usize, 4, 8, 16] {
            let cfg = MachineConfig::new(p, (bw * bw * 8).max(1 << 12), bw);
            let r = run(&comp, cfg, Policy::Pws);
            let logb = (64 - (bw - 1).leading_zeros()) as u64;
            let env = p as u64 * bw * logb;
            println!(
                "{:>3} {:>4} {:>10} {:>10} {:>8.3}",
                p,
                bw,
                r.block_misses(),
                env,
                r.block_misses() as f64 / env as f64
            );
        }
    }

    // --- c = 2, s = √n: FFT -------------------------------------------------
    println!("\nc=2, s=√n (FFT, n=2^12): envelope pB·log n·loglog B");
    println!(
        "{:>3} {:>4} {:>10} {:>10} {:>8}",
        "p", "B", "block miss", "envelope", "ratio"
    );
    rule(40);
    let x: Vec<Cx> = (0..1 << 12)
        .map(|i| Cx::new((i as f64).sin(), 0.0))
        .collect();
    for bw in [16u64, 32] {
        let (comp, _) = fft::fft(&x, BuildConfig::with_block(bw));
        for p in [2usize, 4, 8, 16] {
            let cfg = MachineConfig::new(p, (bw * bw * 8).max(1 << 12), bw);
            let r = run(&comp, cfg, Policy::Pws);
            let logn = 12u64;
            let loglogb = (64 - (bw - 1).leading_zeros()).ilog2() as u64 + 1;
            let env = p as u64 * bw * logn * loglogb;
            println!(
                "{:>3} {:>4} {:>10} {:>10} {:>8.3}",
                p,
                bw,
                r.block_misses(),
                env,
                r.block_misses() as f64 / env as f64
            );
        }
    }

    // --- c = 2, s = n/4: Depth-n-MM -----------------------------------------
    println!("\nc=2, s=n/4 (Depth-n-MM, 32x32): envelope pB·√(n²)");
    println!(
        "{:>3} {:>4} {:>10} {:>10} {:>8}",
        "p", "B", "block miss", "envelope", "ratio"
    );
    rule(40);
    let n = 32;
    let bi = layout::to_bi(&gen::random_matrix(n, 7), n);
    for bw in [16u64, 32] {
        let (comp, _) = mm::depth_n_mm(&bi, &bi, n, BuildConfig::with_block(bw));
        for p in [2usize, 4, 8, 16] {
            let cfg = MachineConfig::new(p, (bw * bw * 8).max(1 << 12), bw);
            let r = run(&comp, cfg, Policy::Pws);
            let env = p as u64 * bw * n as u64; // √(n²) = n
            println!(
                "{:>3} {:>4} {:>10} {:>10} {:>8.3}",
                p,
                bw,
                r.block_misses(),
                env,
                r.block_misses() as f64 / env as f64
            );
        }
    }
    println!("\nratios bounded by a small constant across p and B = the lemma's shape holds");
}
