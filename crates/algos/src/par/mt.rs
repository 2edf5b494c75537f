//! In-place matrix transposition (MT) in bit-interleaved layout.

use super::{pjoin, SEQ_CUTOFF};
use crate::layout::morton_transpose;

/// In-place transpose of an `n×n` matrix in BI layout (MT), with joins
/// mirroring the BP recursion. A block at or below the cutoff is one loop
/// over its Morton indices, each paired with its [`morton_transpose`]:
/// BI keeps every sub-block contiguous, so the block's transpose is that
/// pairing.
pub fn par_transpose_bi(a: &mut [f64], n: usize) {
    assert!(n.is_power_of_two() && a.len() == n * n);
    fn diag(a: &mut [f64], k: usize) {
        if k * k <= SEQ_CUTOFF {
            for i in 0..a.len() {
                let t = morton_transpose(i as u64) as usize;
                if i < t {
                    a.swap(i, t);
                }
            }
            return;
        }
        let h = k / 2;
        let q = h * h;
        let (tl, rest) = a.split_at_mut(q);
        let (tr, rest2) = rest.split_at_mut(q);
        let (bl, br) = rest2.split_at_mut(q);
        pjoin(
            || pjoin(|| diag(tl, h), || diag(br, h)),
            || swap_t(tr, bl, h),
        );
    }
    /// `x ↔ yᵀ` for two `k×k` blocks.
    fn swap_t(x: &mut [f64], y: &mut [f64], k: usize) {
        if k * k * 2 <= SEQ_CUTOFF {
            for (i, v) in x.iter_mut().enumerate() {
                std::mem::swap(v, &mut y[morton_transpose(i as u64) as usize]);
            }
            return;
        }
        let h = k / 2;
        let q = h * h;
        let (x0, xr) = x.split_at_mut(q);
        let (x1, xr2) = xr.split_at_mut(q);
        let (x2, x3) = xr2.split_at_mut(q);
        let (y0, yr) = y.split_at_mut(q);
        let (y1, yr2) = yr.split_at_mut(q);
        let (y2, y3) = yr2.split_at_mut(q);
        pjoin(
            || pjoin(|| swap_t(x0, y0, h), || swap_t(x1, y2, h)),
            || pjoin(|| swap_t(x2, y1, h), || swap_t(x3, y3, h)),
        );
    }
    diag(a, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::layout::to_bi;
    use crate::oracle;
    use crate::par::tests::off_and_on_pools;

    #[test]
    fn par_transpose_matches() {
        // 1..=32 are one leaf loop, 64 and up fork (1024 over five
        // levels), and 16 and 32 end in the off-diagonal loop's blocks.
        let cases: Vec<(usize, Vec<f64>, Vec<f64>)> = (0..=10)
            .map(|e| {
                let n = 1usize << e;
                let rm = gen::random_matrix(n, 2);
                (n, to_bi(&rm, n), to_bi(&oracle::transpose_rm(&rm, n), n))
            })
            .collect();
        off_and_on_pools(|| {
            for (n, bi, want) in &cases {
                let mut got = bi.clone();
                par_transpose_bi(&mut got, *n);
                assert!(got == *want, "n={n}");
            }
        });
    }
}
