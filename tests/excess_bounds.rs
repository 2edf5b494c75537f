//! Integration tests of the paper's excess bounds (Lemmas 4.1, 4.2, 4.4,
//! 4.8): measured cache-miss and block-miss excess under PWS versus the
//! claimed envelopes, on machine-parameter grids.

use hbp_core::prelude::*;

use hbp_core::algos::{gen, layout, mm, mt, scan, strassen};

/// Lemma 4.4(ii)/(iii): for a BP computation with f(r) = O(√r) and a tall
/// cache, PWS misses ≤ O(Q + pM/B).
#[test]
fn lemma_4_4_scan_cache_excess_within_pm_over_b() {
    let n = 1 << 15;
    let data = gen::random_u64s(n, 1 << 30, 1);
    for (m, bw) in [(1u64 << 12, 32u64), (1 << 14, 32), (1 << 12, 64)] {
        let (comp, _) = scan::prefix_sums(&data, BuildConfig::with_block(bw));
        for p in [2usize, 4, 8, 16] {
            let cfg = MachineConfig::new(p, m, bw);
            let seq = run_sequential(&comp, cfg);
            let par = run(&comp, cfg, Policy::Pws);
            let excess = par.plain_misses().saturating_sub(seq.q_misses);
            let bound = 4 * (p as u64) * m / bw + 4 * seq.q_misses;
            assert!(
                excess <= bound,
                "p={p} M={m} B={bw}: excess {excess} > {bound}"
            );
        }
    }
}

/// The same envelope for MT and Strassen (matrix algorithms, BI layout).
#[test]
fn lemma_4_1_matrix_cache_excess() {
    let n = 32;
    let bi = layout::to_bi(&gen::random_matrix(n, 3), n);
    let bw = 32u64;
    let m = 1 << 12;
    let (cmt, _) = mt::transpose_bi(&bi, n, BuildConfig::with_block(bw));
    let (cst, _) = strassen::strassen_bi(&bi, &bi, n, BuildConfig::with_block(bw));
    for comp in [&cmt, &cst] {
        for p in [2usize, 8] {
            let cfg = MachineConfig::new(p, m, bw);
            let seq = run_sequential(comp, cfg);
            let par = run(comp, cfg, Policy::Pws);
            let excess = par.plain_misses().saturating_sub(seq.q_misses);
            let bound = 8 * (p as u64) * m / bw + 4 * seq.q_misses;
            assert!(excess <= bound, "p={p}: excess {excess} > {bound}");
        }
    }
}

/// Lemma 4.2(i): block-miss excess of a c = 1 scan under PWS is
/// O(pB log B) per collection.
#[test]
fn lemma_4_2_block_misses_scan_envelope() {
    let n = 1 << 14;
    let data = gen::random_u64s(n, 1 << 30, 2);
    for bw in [16u64, 32, 64] {
        let (comp, _) = scan::prefix_sums(&data, BuildConfig::with_block(bw));
        for p in [2usize, 4, 8] {
            let cfg = MachineConfig::new(p, bw * bw * 8, bw);
            let par = run(&comp, cfg, Policy::Pws);
            let logb = 64 - (bw - 1).leading_zeros() as u64;
            // two BP collections (PS) → 2 × c·pB log B, generous c = 8
            let bound = 2 * 8 * (p as u64) * bw * logb;
            assert!(
                par.block_misses() <= bound,
                "p={p} B={bw}: {} block misses > {bound}",
                par.block_misses()
            );
        }
    }
}

/// Lemma 4.2(iii): for Depth-n-MM (c = 2, s = n/4) block misses stay
/// within O(pB√n) of the input size.
#[test]
fn lemma_4_2_block_misses_mm_envelope() {
    let n = 16; // matrix side; input size m = n² = 256
    let bi = layout::to_bi(&gen::random_matrix(n, 4), n);
    let bw = 16u64;
    let (comp, _) = mm::depth_n_mm(&bi, &bi, n, BuildConfig::with_block(bw));
    for p in [2usize, 4, 8] {
        let cfg = MachineConfig::new(p, 1 << 12, bw);
        let par = run(&comp, cfg, Policy::Pws);
        // O(pB√m) with √m = n; constant 16
        let bound = 16 * (p as u64) * bw * n as u64;
        assert!(
            par.block_misses() <= bound,
            "p={p}: {} > {bound}",
            par.block_misses()
        );
    }
}

/// Lemma 2.1 shape: stolen tasks of size ≥ 2M cause no cache-miss excess —
/// so with a huge cache (everything fits, Q = cold only), the excess stays
/// near zero even with many steals.
#[test]
fn lemma_2_1_no_excess_when_tasks_exceed_cache() {
    let n = 1 << 14;
    let data = gen::random_u64s(n, 1 << 30, 5);
    let (comp, _) = scan::m_sum(&data, BuildConfig::with_block(32));
    // tiny cache: M = B² (tall boundary): stolen big tasks must re-read,
    // but their sequential execution would miss anyway.
    let cfg = MachineConfig::new(8, 1 << 10, 32);
    let seq = run_sequential(&comp, cfg);
    let par = run(&comp, cfg, Policy::Pws);
    let excess = par.plain_misses().saturating_sub(seq.q_misses);
    assert!(
        excess <= seq.q_misses / 2 + 8 * (1 << 10) / 32,
        "excess {excess} vs Q {}",
        seq.q_misses
    );
}

/// Corollary 4.2 regime: small inputs (n < Mp) still have bounded excess —
/// the cache-miss excess cannot exceed the whole parallel miss count, and
/// stays within the corollary's O(p log B + (n/B)·log(4pM/n)) envelope.
#[test]
fn corollary_4_2_small_inputs() {
    let bw = 32u64;
    let m = 1u64 << 12;
    for n in [1usize << 8, 1 << 10, 1 << 12] {
        let data = gen::random_u64s(n, 1 << 30, 9);
        let (comp, _) = scan::m_sum(&data, BuildConfig::with_block(bw));
        for p in [8usize, 16] {
            // ensure we are in the n < Mp regime
            assert!((n as u64) < m * p as u64);
            let cfg = MachineConfig::new(p, m, bw);
            let seq = run_sequential(&comp, cfg);
            let par = run(&comp, cfg, Policy::Pws);
            let excess = par.plain_misses().saturating_sub(seq.q_misses);
            let logb = (64 - (bw - 1).leading_zeros()) as u64;
            let ratio = (4.0 * p as f64 * m as f64 / n as f64).log2().max(1.0);
            let bound = 8 * (p as u64 * logb + ((n as u64 / bw) as f64 * ratio) as u64);
            assert!(
                excess <= bound,
                "n={n} p={p}: excess {excess} > Cor 4.2 bound {bound}"
            );
        }
    }
}

/// Lemma 3.1 shape: the number of transfers of any single *stack* block is
/// bounded — O(min(B, log|τ|)) per task execution; across a whole run with
/// S steals the per-block transfer count stays far below the naive
/// worst case of one transfer per access.
#[test]
fn lemma_3_1_stack_block_transfers_bounded() {
    let n = 1 << 12;
    let data = gen::random_u64s(n, 1 << 30, 4);
    let (comp, _) = scan::m_sum(&data, BuildConfig::with_block(32));
    let cfg = MachineConfig::new(8, 1 << 12, 32);
    let par = run(&comp, cfg, Policy::Pws);
    // Stack traffic: every stack block miss is one transfer of some stack
    // block; with limited access the total is O((steals + p) · B) here.
    let stack_traffic = par.stack_block_misses + par.stack_plain_misses;
    let bound = (par.steals + cfg.p as u64) * cfg.block_words;
    assert!(
        stack_traffic <= bound,
        "stack traffic {stack_traffic} > (S+p)·B = {bound}"
    );
}

/// Scaling shape: block misses grow at most linearly in p (the paper's
/// bounds are all O(p · …)).
#[test]
fn block_misses_scale_at_most_linearly_in_p() {
    let n = 1 << 13;
    let data = gen::random_u64s(n, 1 << 30, 6);
    let (comp, _) = scan::prefix_sums(&data, BuildConfig::with_block(32));
    let mut prev = None;
    for p in [2usize, 4, 8, 16] {
        let cfg = MachineConfig::new(p, 1 << 12, 32);
        let bm = run(&comp, cfg, Policy::Pws).block_misses();
        if let Some(prev_bm) = prev {
            assert!(
                bm <= 3 * prev_bm + 200,
                "p={p}: block misses {bm} vs previous {prev_bm} — superlinear in p"
            );
        }
        prev = Some(bm);
    }
}
