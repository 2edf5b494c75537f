//! The six-step FFT: forked transposes and row passes.

use std::mem::MaybeUninit;

use hbp_model::Cx;

use super::carve::{debug_assert_line_start, fresh, line_aligned, overwrite, workspace, written};
use super::{pjoin, v3, SEQ_CUTOFF};

/// Side of the square tiles the FFT's transposes move: 8×8 `Cx` is 1 KiB
/// read and 1 KiB written, whole lines on both sides.
const TILE: usize = 8;

/// Per-call twiddle tables of a length-`n` transform (`ω = e^{-2πi/n}`),
/// in one allocation: `lo[l] = ω^l` and `hi[h] = ω^(h·2^shift)` — about
/// `2·√n` `sin`/`cos` evaluations from which any power is one complex
/// multiply — and `base[t] = ω_L^t` for `t < L/2`, the radix-2 base
/// case's table at `L = min(n, SEQ_CUTOFF)` (a stage of length `len`
/// reads it at stride `L/len`).
pub(super) struct Roots {
    n: usize,
    shift: u32,
    table: Vec<Cx>,
}

impl Roots {
    pub(super) fn new(n: usize) -> Self {
        let shift = n.trailing_zeros().div_ceil(2);
        let (nlo, nhi) = (1usize << shift, n >> shift);
        let l = n.min(SEQ_CUTOFF);
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let mut table = Vec::with_capacity(nlo + nhi + l / 2);
        table.extend((0..nlo).map(|j| Cx::cis(step * j as f64)));
        table.extend((0..nhi).map(|h| Cx::cis(step * (h << shift) as f64)));
        let mut roots = Roots { n, shift, table };
        for t in 0..l / 2 {
            let w = roots.pow(t * (n / l));
            roots.table.push(w);
        }
        roots
    }

    /// `ω^j` for `j < n`.
    fn pow(&self, j: usize) -> Cx {
        let nlo = 1usize << self.shift;
        self.table[nlo + (j >> self.shift)] * self.table[j & (nlo - 1)]
    }

    fn base(&self) -> &[Cx] {
        &self.table[(1usize << self.shift) + (self.n >> self.shift)..]
    }
}

/// In-place iterative radix-2 FFT of a row of at most `2·base.len()`
/// elements: bit-reversal, then `log₂` butterfly stages with table
/// twiddles.
#[inline(always)]
fn fft_base(x: &mut [Cx], base: &[Cx]) {
    let n = x.len();
    let bits = n.trailing_zeros();
    for i in 1..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            x.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let stride = 2 * base.len() / len;
        for block in x.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            for (t, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
                let u = *b * base[t * stride];
                (*a, *b) = (*a + u, *a - u);
            }
        }
        len *= 2;
    }
}

/// Scale element `f` of `row` by `ω^(f·step)`.
#[inline(always)]
fn twiddle_row(row: &mut [Cx], step: usize, roots: &Roots) {
    for (f, v) in row.iter_mut().enumerate() {
        *v = *v * roots.pow(f * step);
    }
}

/// The row-pass leaf: [`fft_base`] on every `len`-wide row of `rows`
/// (`len ≤ SEQ_CUTOFF`), rows `r0..` of their matrix. With
/// `twiddle = Some(m)` it also scales element `f` of row `r` by
/// `ω_m^(r·f)` — the six-step twiddle pass, fused in while the row is
/// still in cache.
#[inline(always)]
pub(super) fn fft_leaf(
    rows: &mut [Cx],
    len: usize,
    r0: usize,
    twiddle: Option<usize>,
    roots: &Roots,
) {
    for (r, row) in rows.chunks_exact_mut(len).enumerate() {
        fft_base(row, roots.base());
        if let Some(m) = twiddle {
            twiddle_row(row, (r0 + r) * (roots.n / m), roots);
        }
    }
}

/// [`fft_leaf`] compiled for AVX2+FMA. Rust never contracts a multiply
/// and an add into an FMA, so it computes the same bits.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub(super) fn fft_leaf_v3(
    rows: &mut [Cx],
    len: usize,
    r0: usize,
    twiddle: Option<usize>,
    roots: &Roots,
) {
    fft_leaf(rows, len, r0, twiddle, roots)
}

/// [`fft_leaf`] in the build this core runs.
fn row_leaf(rows: &mut [Cx], len: usize, r0: usize, twiddle: Option<usize>, roots: &Roots) {
    if v3() {
        // SAFETY: `v3()` just found AVX2 and FMA on this core.
        unsafe { fft_leaf_v3(rows, len, r0, twiddle, roots) }
    } else {
        fft_leaf(rows, len, r0, twiddle, roots)
    }
}

/// `dst` rows `c0..` of the transpose of the `rows×cols` matrix `src`
/// (so `dst` is `dst.len()/rows` rows of `rows`), forked over row
/// windows of `dst` and moved in [`TILE`]-square tiles. Writes every
/// element of `dst` and reads none.
fn transpose_rows(src: &[Cx], dst: &mut [MaybeUninit<Cx>], rows: usize, cols: usize, c0: usize) {
    let here = dst.len() / rows;
    if here > TILE && dst.len() > SEQ_CUTOFF {
        let mid = here / 2;
        let (dl, dr) = dst.split_at_mut(mid * rows);
        pjoin(
            || transpose_rows(src, dl, rows, cols, c0),
            || transpose_rows(src, dr, rows, cols, c0 + mid),
        );
        return;
    }
    for jb in (0..here).step_by(TILE) {
        for ib in (0..rows).step_by(TILE) {
            for j in jb..(jb + TILE).min(here) {
                let out = &mut dst[j * rows + ib..j * rows + (ib + TILE).min(rows)];
                for (i, d) in out.iter_mut().enumerate() {
                    d.write(src[(ib + i) * cols + c0 + j]);
                }
            }
        }
    }
}

/// FFT every `len`-wide row of `data` (rows `r0..` of their matrix),
/// forked over row windows down to about [`SEQ_CUTOFF`] elements, with
/// the matching window of `scratch` as each row's scratch, and twiddled
/// as in [`fft_leaf`]. A row past the cutoff runs six steps of its own.
fn fft_rows(
    data: &mut [Cx],
    scratch: &mut [MaybeUninit<Cx>],
    len: usize,
    r0: usize,
    twiddle: Option<usize>,
    roots: &Roots,
) {
    let here = data.len() / len;
    if here > 1 && data.len() > SEQ_CUTOFF {
        let mid = here / 2;
        let (dl, dr) = data.split_at_mut(mid * len);
        let (sl, sr) = scratch.split_at_mut(mid * len);
        pjoin(
            || fft_rows(dl, sl, len, r0, twiddle, roots),
            || fft_rows(dr, sr, len, r0 + mid, twiddle, roots),
        );
        return;
    }
    if len <= SEQ_CUTOFF {
        return row_leaf(data, len, r0, twiddle, roots);
    }
    for (r, (row, tmp)) in data
        .chunks_exact_mut(len)
        .zip(scratch.chunks_exact_mut(len))
        .enumerate()
    {
        fft_rec(row, tmp, roots);
        if let Some(m) = twiddle {
            twiddle_row(row, (r0 + r) * (roots.n / m), roots);
        }
    }
}

/// `dst = src`, forked like the passes it follows.
fn copy_par(src: &[Cx], dst: &mut [Cx]) {
    if dst.len() > SEQ_CUTOFF {
        let mid = dst.len() / 2;
        let (sl, sr) = src.split_at(mid);
        let (dl, dr) = dst.split_at_mut(mid);
        pjoin(|| copy_par(sl, dl), || copy_par(sr, dr));
        return;
    }
    dst.copy_from_slice(src);
}

/// Six-step FFT of `x` (a power-of-two length dividing `roots.n`) with
/// `x.len()` elements of scratch `t`, which may start uninitialised:
/// view `x` as `k1×k2`, transpose (which writes all of `t`), FFT the
/// `k2` rows of length `k1` and twiddle, transpose back, FFT the `k1`
/// rows of length `k2`, transpose into natural order. Each pass forks
/// over row windows; a row's own recursion borrows the buffer the pass
/// is not reading. Only above [`SEQ_CUTOFF`]: a shorter row is one
/// [`row_leaf`], which its caller runs.
fn fft_rec(x: &mut [Cx], t: &mut [MaybeUninit<Cx>], roots: &Roots) {
    let n = x.len();
    debug_assert!(n > SEQ_CUTOFF);
    let k1 = 1usize << n.trailing_zeros().div_ceil(2);
    let k2 = n / k1;
    transpose_rows(x, t, k1, k2, 0);
    // The transpose wrote every element of `t`.
    let tx = written(t);
    // The row pass stores only values in its scratch, and the transpose
    // after it writes every element of `x`.
    overwrite(x, |xs| {
        fft_rows(tx, xs, k1, 0, Some(n), roots);
        transpose_rows(tx, fresh(xs), k2, k1, 0);
    });
    fft_rows(x, fresh(t), k2, 0, None, roots);
    transpose_rows(x, fresh(t), k1, k2, 0);
    // The transpose wrote every element of `t`.
    copy_par(written(t), x);
}

/// Six-step FFT with parallel transposes and row FFTs (any power-of-two
/// length), over one root table and one scratch buffer per call.
pub fn par_fft(x: &mut [Cx]) {
    let n = x.len();
    assert!(n.is_power_of_two());
    let roots = Roots::new(n);
    if n <= SEQ_CUTOFF {
        return row_leaf(x, n, 0, None, &roots);
    }
    let mut ws = workspace(n);
    let t = &mut line_aligned(ws.spare_capacity_mut())[..n];
    // Every pass below splits on power-of-two row windows of at least
    // half a cutoff, so a line-aligned buffer stays line-aligned.
    debug_assert_line_start(t);
    fft_rec(x, t, &roots);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::par::tests::{
        assert_spectra_close, off_and_on_pools, on_two_workers, radix2, signal,
    };

    #[test]
    fn radix2_reference_matches_the_naive_dft() {
        for n in [1usize, 2, 4, 64, 256] {
            let x = signal(n);
            let mut got = x.clone();
            radix2(&mut got);
            assert_spectra_close(&got, &oracle::dft(&x));
        }
    }

    #[test]
    fn par_fft_matches_at_every_power_of_two() {
        // Up to 2^10 the base case alone, above it the six-step passes
        // (2^11 and 2^13 with k1 = 2·k2).
        off_and_on_pools(|| {
            for n in (0..=14).map(|e| 1usize << e) {
                let x = signal(n);
                let mut want = x.clone();
                if n <= 512 {
                    want = oracle::dft(&x);
                } else {
                    radix2(&mut want);
                }
                let mut got = x;
                par_fft(&mut got);
                assert_spectra_close(&got, &want);
            }
        });
    }

    #[test]
    fn par_fft_matches_when_rows_recurse() {
        // 2^21 = 2048 × 1024: the 2048-long rows are past the base
        // cutoff, so the row pass itself runs the six steps, in the
        // scratch window its parent lends it.
        let x = signal(1 << 21);
        let mut want = x.clone();
        radix2(&mut want);
        off_and_on_pools(|| {
            let mut got = x.clone();
            par_fft(&mut got);
            assert_spectra_close(&got, &want);
        });
    }

    #[test]
    fn roots_are_the_powers_of_omega() {
        for n in [1usize, 2, 8, 1 << 10, 1 << 13, 1 << 16] {
            let roots = Roots::new(n);
            let exact =
                |j: usize, m: usize| Cx::cis(-2.0 * std::f64::consts::PI * j as f64 / m as f64);
            for j in (0..n).step_by(n.div_ceil(97)) {
                assert!((roots.pow(j) - exact(j, n)).abs() < 1e-14, "n={n} j={j}");
            }
            let l = n.min(SEQ_CUTOFF);
            assert_eq!(roots.base().len(), l / 2);
            for (t, &w) in roots.base().iter().enumerate() {
                assert!((w - exact(t, l)).abs() < 1e-14, "n={n} base t={t}");
            }
        }
    }

    /// The kernel on a 2-worker pool, at the smallest size that reaches
    /// every window it hands out uninitialised: a debug build checks each
    /// one where it is read, and the size is small enough for Miri, which
    /// also reports a race between forked branches (CI runs
    /// `tests::uninit::` under it).
    mod uninit {
        use super::*;

        #[test]
        fn fft_one_level_above_the_cutoff() {
            let x = signal(2 * SEQ_CUTOFF);
            let mut want = x.clone();
            radix2(&mut want);
            let mut got = x;
            on_two_workers(|| par_fft(&mut got));
            assert_spectra_close(&got, &want);
        }
    }
}
