//! Strassen's matrix multiplication in the BI layout (paper §3.2):
//! a Type 2 HBP computation with `c = 1` collection of `v = 7` recursive
//! subproblems of size `s(m) = m/4`, `f(r) = O(1)`, `L(r) = O(1)`,
//! `W = O(n^λ)` (λ = log₂7), `T∞ = O(log²n)`,
//! `Q = Θ(n^λ / (B·M^{λ/2−1}))`.
//!
//! The seven products are computed into **fresh stack arrays declared by the
//! calling task** (the paper's mechanism for making the algorithm limited
//! access and exactly linear space bounded, Def 3.6); the divide/combine
//! additions are MA-style BP computations.

use hbp_model::{BuildConfig, Builder, Computation, GArray};

use crate::scan::bp_add_views;
use crate::util::View;

/// One linear-combination BP: `dst[i] = Σ coeff_j · src_j[i]`.
fn bp_combine(b: &mut Builder, srcs: &[(View<f64>, f64)], dst: View<f64>, lo: usize, hi: usize) {
    if hi - lo == 1 {
        let mut acc = 0.0;
        for &(v, coeff) in srcs {
            acc += coeff * v.read(b, lo);
        }
        dst.write(b, lo, acc);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    b.fork_with((mid - lo) as u64, (hi - mid) as u64, |b, right| {
        if right {
            bp_combine(b, srcs, dst, mid, hi)
        } else {
            bp_combine(b, srcs, dst, lo, mid)
        }
    });
}

/// Recursive Strassen body over BI views: `C = A · B`, all `k×k`.
fn strassen_rec(b: &mut Builder, a: View<f64>, bm: View<f64>, c: View<f64>, k: usize) {
    if k == 1 {
        let x = a.read(b, 0);
        let y = bm.read(b, 0);
        c.write(b, 0, x * y);
        return;
    }
    let h = k / 2;
    let q = h * h;
    // BI quadrants are contiguous: 11 = TL, 12 = TR, 21 = BL, 22 = BR.
    let (a11, a12, a21, a22) = (a, a.shift(q), a.shift(2 * q), a.shift(3 * q));
    let (b11, b12, b21, b22) = (bm, bm.shift(q), bm.shift(2 * q), bm.shift(3 * q));
    let (c11, c12, c21, c22) = (c, c.shift(q), c.shift(2 * q), c.shift(3 * q));

    // Θ(m) stack temporaries declared by this task (Def 3.6).
    let sums = b.local_array::<f64>(10 * q);
    let prods = b.local_array::<f64>(7 * q);
    let s = |i: usize| View::l(sums).shift(i * q);
    let m = |i: usize| View::l(prods).shift(i * q);

    // Ten divide-step additions (MA BPs), run as one parallel collection.
    let sum_ops: Vec<(View<f64>, View<f64>, View<f64>, f64)> = vec![
        (a11, a22, s(0), 1.0),  // S1 = A11 + A22
        (b11, b22, s(1), 1.0),  // S2 = B11 + B22
        (a21, a22, s(2), 1.0),  // S3 = A21 + A22
        (b12, b22, s(3), -1.0), // S4 = B12 − B22
        (b21, b11, s(4), -1.0), // S5 = B21 − B11
        (a11, a12, s(5), 1.0),  // S6 = A11 + A12
        (a21, a11, s(6), -1.0), // S7 = A21 − A11
        (b11, b12, s(7), 1.0),  // S8 = B11 + B12
        (a12, a22, s(8), -1.0), // S9 = A12 − A22
        (b21, b22, s(9), 1.0),  // S10 = B21 + B22
    ];
    hbp_model::builder::fanout_uniform(b, 10, q as u64, &mut |b, i| {
        let (x, y, d, coeff) = sum_ops[i];
        bp_add_views(b, x, y, d, 0, q, coeff);
    });

    // The collection of v = 7 recursive products of size m/4.
    let mul_ops: Vec<(View<f64>, View<f64>)> = vec![
        (s(0), s(1)), // M1 = S1·S2
        (s(2), b11),  // M2 = S3·B11
        (a11, s(3)),  // M3 = A11·S4
        (a22, s(4)),  // M4 = A22·S5
        (s(5), b22),  // M5 = S6·B22
        (s(6), s(7)), // M6 = S7·S8
        (s(8), s(9)), // M7 = S9·S10
    ];
    hbp_model::builder::fanout_uniform(b, 7, q as u64, &mut |b, i| {
        let (x, y) = mul_ops[i];
        strassen_rec(b, x, y, m(i), h);
    });

    // Four combine-step BPs writing the C quadrants (each word once).
    let combos: Vec<(Vec<(View<f64>, f64)>, View<f64>)> = vec![
        (
            vec![(m(0), 1.0), (m(3), 1.0), (m(4), -1.0), (m(6), 1.0)],
            c11,
        ),
        (vec![(m(2), 1.0), (m(4), 1.0)], c12),
        (vec![(m(1), 1.0), (m(3), 1.0)], c21),
        (
            vec![(m(0), 1.0), (m(1), -1.0), (m(2), 1.0), (m(5), 1.0)],
            c22,
        ),
    ];
    hbp_model::builder::fanout_uniform(b, 4, q as u64, &mut |b, i| {
        bp_combine(b, &combos[i].0, combos[i].1, 0, q);
    });
}

/// Strassen: multiply two `n×n` matrices given in BI layout.
pub fn strassen_bi(
    a_bi: &[f64],
    b_bi: &[f64],
    n: usize,
    cfg: BuildConfig,
) -> (Computation, GArray<f64>) {
    assert!(n.is_power_of_two() && a_bi.len() == n * n && b_bi.len() == n * n);
    let mut out_h = None;
    let comp = Builder::build(cfg, (n * n) as u64, |bd| {
        let av = bd.input(a_bi);
        let bv = bd.input(b_bi);
        let cv = bd.alloc::<f64>(n * n);
        out_h = Some(cv);
        strassen_rec(bd, View::g(av), View::g(bv), View::g(cv), n);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{from_bi, to_bi};
    use crate::oracle;
    use crate::util::read_out;
    use hbp_model::analysis;

    #[test]
    fn matches_naive_matmul() {
        for n in [1usize, 2, 4, 8, 16] {
            let a: Vec<f64> = (0..n * n).map(|x| ((x * 7 + 1) % 13) as f64).collect();
            let b: Vec<f64> = (0..n * n).map(|x| ((x * 5 + 2) % 11) as f64).collect();
            let (comp, out) = strassen_bi(&to_bi(&a, n), &to_bi(&b, n), n, BuildConfig::default());
            let got = from_bi(&read_out(&comp, out), n);
            let want = oracle::matmul_rm(&a, &b, n);
            for i in 0..n * n {
                assert!(
                    (got[i] - want[i]).abs() < 1e-6,
                    "n={n} i={i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn work_scales_like_n_pow_log7() {
        let a8: Vec<f64> = vec![1.0; 64];
        let a16: Vec<f64> = vec![1.0; 256];
        let (c8, _) = strassen_bi(&a8, &a8, 8, BuildConfig::default());
        let (c16, _) = strassen_bi(&a16, &a16, 16, BuildConfig::default());
        let ratio = c16.work() as f64 / c8.work() as f64;
        // doubling n multiplies work by ~7 (log2 7 ≈ 2.807)
        assert!((5.5..8.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn span_is_polylog() {
        let a: Vec<f64> = vec![1.0; 256];
        let (c, _) = strassen_bi(&a, &a, 16, BuildConfig::default());
        let s = analysis::span(&c);
        // T∞ = O(log² n): generous constant for fork bookkeeping
        assert!(s < 3000, "span {s}");
    }

    #[test]
    fn limited_access_and_linear_frames() {
        let a: Vec<f64> = vec![1.0; 64];
        let (c, _) = strassen_bi(&a, &a, 8, BuildConfig::default());
        let (g, l) = analysis::write_counts(&c);
        assert!(g <= 1, "global writes ≤ 1, got {g}");
        assert!(l <= 1, "local writes ≤ 1, got {l}");
        // exactly-linear-space-bounded: the root task's frame is Θ(m)
        let root_frame = c.nodes[c.root.idx()].frame_words as usize;
        assert!((17 * 16..=32 * 64).contains(&root_frame));
    }

    #[test]
    fn l_is_constant_on_bi() {
        let a: Vec<f64> = vec![1.0; 256];
        let (c, _) = strassen_bi(&a, &a, 16, BuildConfig::default());
        for row in analysis::l_estimate(&c, 32) {
            assert!(row.shared_blocks <= 3, "L(r)=O(1) violated: {row:?}");
        }
    }
}
