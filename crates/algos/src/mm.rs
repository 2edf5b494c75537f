//! Depth-n-MM (paper §3.2, Table 1): the `O(n³)`-work, depth-`O(n)`
//! recursive matrix multiplication of \[17\], converted to **limited access**
//! with local copies as in the companion paper \[13\].
//!
//! Type 2 HBP with `c = 2` collections of `v = 4` parallel recursive
//! subproblems of size `s(m) = m/4` each: round 1 computes
//! `C ← A·B` products directly into the output quadrants; round 2 computes
//! the complementary products into **stack temporaries** and adds them with
//! a BP, so every output word is written at most twice (Def 2.4) and every
//! task's frame is `Θ(|τ|)` (Def 3.6). This is the `c = 2, s(n) = n/4`
//! case of Lemmas 4.1(iii) / 4.2(iii).

use hbp_model::{BuildConfig, Builder, Computation, GArray};

use crate::scan::bp_add_views;
use crate::util::View;

/// `C = A · B` over `k×k` BI views.
fn mm_rec(b: &mut Builder, a: View<f64>, bm: View<f64>, c: View<f64>, k: usize) {
    if k == 1 {
        let x = a.read(b, 0);
        let y = bm.read(b, 0);
        c.write(b, 0, x * y);
        return;
    }
    let h = k / 2;
    let q = h * h;
    let (a11, a12, a21, a22) = (a, a.shift(q), a.shift(2 * q), a.shift(3 * q));
    let (b11, b12, b21, b22) = (bm, bm.shift(q), bm.shift(2 * q), bm.shift(3 * q));
    let (c11, c12, c21, c22) = (c, c.shift(q), c.shift(2 * q), c.shift(3 * q));

    // Θ(m) stack temporaries for both rounds' products ([13]'s local
    // copies), so every word of C is written exactly once by the combine.
    let ta = b.local_array::<f64>(4 * q);
    let tb = b.local_array::<f64>(4 * q);
    let t1 = |i: usize| View::l(ta).shift(i * q);
    let t2 = |i: usize| View::l(tb).shift(i * q);

    // Round 1 (collection 1): first four products into temporaries.
    let r1: Vec<(View<f64>, View<f64>, View<f64>)> = vec![
        (a11, b11, t1(0)),
        (a11, b12, t1(1)),
        (a21, b11, t1(2)),
        (a21, b12, t1(3)),
    ];
    hbp_model::builder::fanout_uniform(b, 4, q as u64, &mut |b, i| {
        let (x, y, d) = r1[i];
        mm_rec(b, x, y, d, h);
    });

    // Round 2 (collection 2): complementary products.
    let r2: Vec<(View<f64>, View<f64>, View<f64>)> = vec![
        (a12, b21, t2(0)),
        (a12, b22, t2(1)),
        (a22, b21, t2(2)),
        (a22, b22, t2(3)),
    ];
    hbp_model::builder::fanout_uniform(b, 4, q as u64, &mut |b, i| {
        let (x, y, d) = r2[i];
        mm_rec(b, x, y, d, h);
    });

    // Combine: C_q = TA_q + TB_q, one write per output word.
    let outs = [c11, c12, c21, c22];
    hbp_model::builder::fanout_uniform(b, 4, q as u64, &mut |b, i| {
        bp_add_views(b, t1(i), t2(i), outs[i], 0, q, 1.0);
    });
}

/// Depth-n-MM: multiply two `n×n` matrices in BI layout.
pub fn depth_n_mm(
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
        mm_rec(bd, View::g(av), View::g(bv), View::g(cv), n);
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
            let a: Vec<f64> = (0..n * n).map(|x| ((x * 3 + 1) % 7) as f64).collect();
            let b: Vec<f64> = (0..n * n).map(|x| ((x * 5 + 2) % 9) as f64).collect();
            let (comp, out) = depth_n_mm(&to_bi(&a, n), &to_bi(&b, n), n, BuildConfig::default());
            let got = from_bi(&read_out(&comp, out), n);
            let want = oracle::matmul_rm(&a, &b, n);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-9, "n={n} ({}, {})", i / n, i % n);
            }
        }
    }

    #[test]
    fn work_is_cubic() {
        let a: Vec<f64> = vec![1.0; 64];
        let b: Vec<f64> = vec![1.0; 256];
        let (c8, _) = depth_n_mm(&a, &a, 8, BuildConfig::default());
        let (c16, _) = depth_n_mm(&b, &b, 16, BuildConfig::default());
        let ratio = c16.work() as f64 / c8.work() as f64;
        assert!((6.5..9.5).contains(&ratio), "W=O(n³): ratio {ratio}");
    }

    #[test]
    fn span_is_linear_in_n() {
        // T∞ = O(n): doubling n should roughly double the span.
        let a: Vec<f64> = vec![1.0; 64];
        let b: Vec<f64> = vec![1.0; 256];
        let (c8, _) = depth_n_mm(&a, &a, 8, BuildConfig::default());
        let (c16, _) = depth_n_mm(&b, &b, 16, BuildConfig::default());
        let r = analysis::span(&c16) as f64 / analysis::span(&c8) as f64;
        assert!((1.5..3.2).contains(&r), "span ratio {r}");
    }

    #[test]
    fn limited_access_writes_at_most_twice() {
        let a: Vec<f64> = vec![1.0; 64];
        let (c, _) = depth_n_mm(&a, &a, 8, BuildConfig::default());
        let (g, l) = analysis::write_counts(&c);
        assert!(g <= 1, "global writes ≤ 1, got {g}");
        assert!(l <= 1, "local writes ≤ 1, got {l}");
    }
}
