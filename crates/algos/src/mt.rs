//! Matrix Transposition (MT) in the bit-interleaved layout (paper §3.2):
//! a single BP computation with `f(r) = O(1)` and `L(r) = O(1)`, obtained by
//! exposing the parallelism of the recursive transpose of \[17\].
//!
//! In-place on the BI array: `T([Q0 Q1; Q2 Q3]) = [T(Q0) T(Q2); T(Q1) T(Q3)]`
//! — recurse into the diagonal quadrants and swap-transpose the
//! anti-diagonal pair. Every quadrant is contiguous in BI, so tasks touch
//! `O(r/B + 1)` blocks and sibling tasks partition the data.

use hbp_model::{BuildConfig, Builder, Computation, GArray};

/// Transpose the `k×k` BI submatrix at element offset `base` in place.
fn diag(b: &mut Builder, a: GArray<f64>, base: usize, k: usize) {
    if k == 1 {
        return;
    }
    let h = k / 2;
    let q = h * h;
    b.fork(
        (2 * q) as u64,
        (2 * q) as u64,
        |b| {
            b.fork(
                q as u64,
                q as u64,
                |b| diag(b, a, base, h),
                |b| diag(b, a, base + 3 * q, h),
            );
        },
        |b| swap_t(b, a, base + q, base + 2 * q, h),
    );
}

/// `A ← Bᵀ`, `B ← Aᵀ` for the two `k×k` BI submatrices at `b1`, `b2`.
fn swap_t(b: &mut Builder, a: GArray<f64>, b1: usize, b2: usize, k: usize) {
    if k == 1 {
        let x = b.read(a, b1);
        let y = b.read(a, b2);
        b.write(a, b1, y);
        b.write(a, b2, x);
        return;
    }
    let h = k / 2;
    let q = h * h;
    // pairs: (A.Q0,B.Q0), (A.Q1,B.Q2), (A.Q2,B.Q1), (A.Q3,B.Q3)
    b.fork(
        (4 * q) as u64,
        (4 * q) as u64,
        |b| {
            b.fork(
                (2 * q) as u64,
                (2 * q) as u64,
                |b| swap_t(b, a, b1, b2, h),
                |b| swap_t(b, a, b1 + q, b2 + 2 * q, h),
            );
        },
        |b| {
            b.fork(
                (2 * q) as u64,
                (2 * q) as u64,
                |b| swap_t(b, a, b1 + 2 * q, b2 + q, h),
                |b| swap_t(b, a, b1 + 3 * q, b2 + 3 * q, h),
            );
        },
    );
}

/// MT: transpose an `n×n` matrix given in BI layout, in place.
/// Returns the computation and the (transposed) array handle.
pub fn transpose_bi(bi: &[f64], n: usize, cfg: BuildConfig) -> (Computation, GArray<f64>) {
    assert!(n.is_power_of_two() && bi.len() == n * n);
    let mut out_h = None;
    let comp = Builder::build(cfg, (n * n) as u64, |b| {
        let a = b.input(bi);
        out_h = Some(a);
        diag(b, a, 0, n);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{morton, morton_decode, to_bi};
    use crate::util::read_out;
    use hbp_model::analysis;

    fn bi_matrix(n: usize) -> Vec<f64> {
        to_bi(&(0..n * n).map(|x| x as f64).collect::<Vec<_>>(), n)
    }

    #[test]
    fn transposes_correctly() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let bi = bi_matrix(n);
            let (comp, out) = transpose_bi(&bi, n, BuildConfig::default());
            let res = read_out(&comp, out);
            for m in 0..n * n {
                let (r, c) = morton_decode(m as u64);
                assert_eq!(res[m], bi[morton(c, r) as usize], "n={n} at ({r},{c})");
            }
        }
    }

    #[test]
    fn work_is_linear_in_matrix_size() {
        let (c16, _) = transpose_bi(&bi_matrix(16), 16, BuildConfig::default());
        let (c32, _) = transpose_bi(&bi_matrix(32), 32, BuildConfig::default());
        // doubling n quadruples elements; work must scale by ~4
        let ratio = c32.work() as f64 / c16.work() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn span_is_logarithmic() {
        let (c, _) = transpose_bi(&bi_matrix(32), 32, BuildConfig::default());
        let s = analysis::span(&c);
        assert!(s <= 30 * 10 + 60, "T∞ = O(log n), got {s}");
    }

    #[test]
    fn f_and_l_are_constant() {
        let (c, _) = transpose_bi(&bi_matrix(16), 16, BuildConfig::default());
        for row in analysis::f_estimate(&c, 32) {
            assert!(row.blocks <= row.accesses / 32 + 4, "f=O(1): {row:?}");
        }
        for row in analysis::l_estimate(&c, 32) {
            assert!(row.shared_blocks <= 2, "L=O(1): {row:?}");
        }
    }

    #[test]
    fn limited_access_writes() {
        let (c, _) = transpose_bi(&bi_matrix(16), 16, BuildConfig::default());
        let (g, _) = analysis::write_counts(&c);
        assert!(g <= 1, "each element written once, got {g}");
    }

    #[test]
    fn involution() {
        let n = 8;
        let bi = bi_matrix(n);
        let (c1, o1) = transpose_bi(&bi, n, BuildConfig::default());
        let once = read_out(&c1, o1);
        let once_f: Vec<f64> = once;
        let (c2, o2) = transpose_bi(&once_f, n, BuildConfig::default());
        assert_eq!(read_out(&c2, o2), bi);
    }
}
