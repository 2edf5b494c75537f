//! A realistic matrix pipeline: a row-major input matrix is converted to
//! the bit-interleaved layout, multiplied with Strassen, and converted
//! back to row-major with the paper's gapped conversion — the composition
//! §3.2 calls RM-Strassen.
//!
//! This is the repository's only RM-Strassen. Each stage is its own
//! recorded computation (every stage is also a registry row, checked over
//! the whole registry), and the end result is checked against
//! `oracle::matmul_rm`.
//!
//! Prints per-stage cache/block-miss accounting under PWS, showing where
//! false sharing would bite without the BI layout and gapping.
//!
//! ```text
//! cargo run --release --example matrix_pipeline
//! ```

use hbp_core::prelude::*;

use hbp_core::algos::{gen, layout, strassen, util};

fn stage(name: &str, comp: &Computation, machine: MachineConfig) {
    let seq = run_sequential(comp, machine);
    let par = run(comp, machine, Policy::Pws);
    println!(
        "  {name:<18} W={:>9}  Q={:>7}  PWS misses={:>7}  block misses={:>6}  steals={:>4}",
        comp.work(),
        seq.q_misses,
        par.plain_misses(),
        par.block_misses(),
        par.steals,
    );
}

fn main() {
    let n = hbp_repro::example_size(64);
    assert!(n.is_power_of_two(), "matrix side must be a power of two");
    let machine = MachineConfig::default_machine();
    println!(
        "RM-Strassen pipeline, {n}x{n} matrices, p={}, M={}, B={}:",
        machine.p, machine.cache_words, machine.block_words
    );

    // Stage 1: RM -> BI for both inputs (u64 views of the bit patterns).
    let a_rm = gen::random_matrix(n, 1);
    let b_rm = gen::random_matrix(n, 2);
    let a_bits: Vec<u64> = a_rm.iter().map(|x| x.to_bits()).collect();
    let (c1, a_bi_arr) = layout::rm_to_bi(&a_bits, n, BuildConfig::default());
    stage("RM->BI", &c1, machine);
    let a_bi: Vec<f64> = util::read_out(&c1, a_bi_arr)
        .iter()
        .map(|&x| f64::from_bits(x))
        .collect();
    let b_bits: Vec<u64> = b_rm.iter().map(|x| x.to_bits()).collect();
    let (c1b, b_bi_arr) = layout::rm_to_bi(&b_bits, n, BuildConfig::default());
    let b_bi: Vec<f64> = util::read_out(&c1b, b_bi_arr)
        .iter()
        .map(|&x| f64::from_bits(x))
        .collect();

    // Stage 2: Strassen in BI (f = O(1), L = O(1)).
    let (c2, prod) = strassen::strassen_bi(&a_bi, &b_bi, n, BuildConfig::default());
    stage("Strassen (BI)", &c2, machine);
    let prod_bi = util::read_out(&c2, prod);

    // Stage 3: BI -> RM, three ways (the paper's point: compare the naive
    // conversion against the two block-sharing-aware ones).
    let prod_bits: Vec<u64> = prod_bi.iter().map(|x| x.to_bits()).collect();
    let (c3a, _) = layout::bi_to_rm_direct(&prod_bits, n, BuildConfig::default());
    stage("BI->RM direct", &c3a, machine);
    let (c3b, _) = layout::bi_to_rm_gap(&prod_bits, n, BuildConfig::default());
    stage("BI->RM (gap RM)", &c3b, machine);
    let (c3c, out) = layout::bi_to_rm_fft(&prod_bits, n, BuildConfig::default());
    stage("BI->RM for FFT", &c3c, machine);

    // Verify the pipeline end-to-end against the naive oracle.
    let result_rm: Vec<f64> = util::read_out(&c3c, out)
        .iter()
        .map(|&x| f64::from_bits(x))
        .collect();
    let want = hbp_core::algos::oracle::matmul_rm(&a_rm, &b_rm, n);
    let max_err = result_rm
        .iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    println!("\npipeline verified against naive matmul: max |err| = {max_err:.2e}");
    assert!(max_err < 1e-9);
}
