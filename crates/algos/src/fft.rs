//! FFT (paper §3.2): the six-step variant of [4, 21] with optimal
//! sequential cache complexity `O((n/B)·log_M n)` \[17\] and low depth.
//!
//! Type 2 HBP with `c = 2` collections of `Θ(√n)` recursive subproblems of
//! size `Θ(√n)`, interleaved with transposes and a twiddle scan. Transposes
//! are out-of-place into a `Θ(n)` **stack temporary** declared by the
//! calling task (Def 3.6), which keeps every recursive subproblem
//! contiguous and every word written O(1) times per level; the strided
//! transpose reads give the overall `f(r) = √r` of Table 1.
//!
//! Derivation (j = j₁k₂ + j₂, f = f₁ + f₂k₁, ω = e^(−2πi/n), n = k₁k₂):
//!
//! ```text
//! X[f₁+f₂k₁] = Σ_{j₂} ω^{j₂f₁} ω_{k₂}^{j₂f₂} · ( Σ_{j₁} x[j₁k₂+j₂] ω_{k₁}^{j₁f₁} )
//! ```
//!
//! 1. transpose `a (k₁×k₂)` → `t (k₂×k₁)`: columns become contiguous rows;
//! 2. k₁-point FFT on each of the k₂ rows of `t` (collection 1);
//! 3. twiddle: `t[j₂k₁+f₁] *= ω^{j₂f₁}`;
//! 4. transpose `t` → `a`;
//! 5. k₂-point FFT on each of the k₁ rows of `a` (collection 2);
//! 6. transpose `a` → `t`, then copy `t` → `a`: natural-order output.

use hbp_model::{BuildConfig, Builder, Computation, Cx, GArray};

use crate::util::View;

/// Out-of-place rectangular transpose: `dst[c·rows + r] = src[r·cols + c]`
/// for an `rows×cols` row-major `src`. Cache-oblivious binary splitting on
/// the longer side; writes are contiguous in `dst` task order (`L = O(1)`).
fn rect_transpose(
    b: &mut Builder,
    src: View<Cx>,
    dst: View<Cx>,
    r0: usize,
    c0: usize,
    nr: usize,
    nc: usize,
    rows: usize,
    cols: usize,
) {
    if nr == 1 && nc == 1 {
        let v = src.read(b, r0 * cols + c0);
        dst.write(b, c0 * rows + r0, v);
        return;
    }
    let sz = (nr * nc) as u64;
    if nc >= nr {
        let h = nc / 2;
        b.fork(
            sz / 2,
            sz - sz / 2,
            |b| rect_transpose(b, src, dst, r0, c0, nr, h, rows, cols),
            |b| rect_transpose(b, src, dst, r0, c0 + h, nr, nc - h, rows, cols),
        );
    } else {
        let h = nr / 2;
        b.fork(
            sz / 2,
            sz - sz / 2,
            |b| rect_transpose(b, src, dst, r0, c0, h, nc, rows, cols),
            |b| rect_transpose(b, src, dst, r0 + h, c0, nr - h, nc, rows, cols),
        );
    }
}

/// Straight copy BP: `dst[i] = src[i]`.
fn bp_copy(b: &mut Builder, src: View<Cx>, dst: View<Cx>, lo: usize, hi: usize) {
    if hi - lo == 1 {
        let v = src.read(b, lo);
        dst.write(b, lo, v);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| bp_copy(b, src, dst, lo, mid),
        |b| bp_copy(b, src, dst, mid, hi),
    );
}

/// Twiddle BP: `t[j₂·k₁ + f₁] *= ω_n^{j₂·f₁}`.
fn twiddle(b: &mut Builder, t: View<Cx>, lo: usize, hi: usize, k1: usize, n: usize) {
    if hi - lo == 1 {
        let (j2, f1) = (lo / k1, lo % k1);
        let theta = -2.0 * std::f64::consts::PI * (j2 as f64) * (f1 as f64) / n as f64;
        let v = t.read(b, lo);
        t.write(b, lo, v * Cx::cis(theta));
        return;
    }
    let mid = lo + (hi - lo) / 2;
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| twiddle(b, t, lo, mid, k1, n),
        |b| twiddle(b, t, mid, hi, k1, n),
    );
}

/// The six-step body: in-place FFT of the contiguous length-`n` view
/// (`n` any power of two).
fn fft_rec(b: &mut Builder, a: View<Cx>, n: usize) {
    if n == 1 {
        return;
    }
    if n == 2 {
        let x0 = a.read(b, 0);
        let x1 = a.read(b, 1);
        a.write(b, 0, x0 + x1);
        a.write(b, 1, x0 - x1);
        return;
    }
    let m = n.trailing_zeros();
    let k1 = 1usize << m.div_ceil(2);
    let k2 = n / k1;
    // Θ(n) stack temporary for the out-of-place transposes (Def 3.6).
    let tmp = b.local_array::<Cx>(n);
    let t = View::l(tmp);
    // 1. a (k1×k2) → t (k2×k1)
    rect_transpose(b, a, t, 0, 0, k1, k2, k1, k2);
    // 2. collection 1: k2 FFTs of size k1 on contiguous rows of t
    hbp_model::builder::fanout_uniform(b, k2, k1 as u64, &mut |b, row| {
        fft_rec(b, t.shift(row * k1), k1);
    });
    // 3. twiddle
    twiddle(b, t, 0, n, k1, n);
    // 4. t (k2×k1) → a (k1×k2)
    rect_transpose(b, t, a, 0, 0, k2, k1, k2, k1);
    // 5. collection 2: k1 FFTs of size k2 on contiguous rows of a
    hbp_model::builder::fanout_uniform(b, k1, k2 as u64, &mut |b, row| {
        fft_rec(b, a.shift(row * k2), k2);
    });
    // 6. a (k1×k2) → t (k2×k1), then copy back: a[f₁+f₂k₁] = X[f₁+f₂k₁]
    rect_transpose(b, a, t, 0, 0, k1, k2, k1, k2);
    bp_copy(b, t, a, 0, n);
}

/// FFT of `x` (any power-of-two length), in natural order.
pub fn fft(x: &[Cx], cfg: BuildConfig) -> (Computation, GArray<Cx>) {
    let n = x.len();
    assert!(n.is_power_of_two(), "n must be a power of two, got {n}");
    let mut out_h = None;
    let comp = Builder::build(cfg, n as u64, |b| {
        let a = b.input(x);
        out_h = Some(a);
        fft_rec(b, View::g(a), n);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::util::read_out;
    use hbp_model::analysis;

    fn close(a: Cx, b: Cx, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    fn signal(n: usize) -> Vec<Cx> {
        (0..n)
            .map(|i| Cx::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos() * 0.5))
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 256] {
            let x = signal(n);
            let (comp, out) = fft(&x, BuildConfig::default());
            let got = read_out(&comp, out);
            let want = oracle::dft(&x);
            for i in 0..n {
                assert!(
                    close(got[i], want[i], 1e-6 * n as f64),
                    "n={n} i={i}: {:?} vs {:?}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn work_is_n_log_n_ish() {
        let (c64, _) = fft(&signal(64), BuildConfig::default());
        let (c256, _) = fft(&signal(256), BuildConfig::default());
        // W(n) = O(n log n): W(256)/W(64) ≈ 4·(8/6) ≈ 5.3
        let ratio = c256.work() as f64 / c64.work() as f64;
        assert!((3.5..7.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn span_is_polylog() {
        let (c, _) = fft(&signal(256), BuildConfig::default());
        let s = analysis::span(&c);
        assert!(s < 2500, "T∞ = O(log n · log log n), got {s}");
    }

    #[test]
    fn writes_are_bounded_per_level() {
        // Each six-step level writes each word O(1) times; levels are
        // O(log log n), so per-word writes stay small and flat.
        let (c256, _) = fft(&signal(256), BuildConfig::default());
        let (g256, _) = analysis::write_counts(&c256);
        assert!(g256 <= 12, "writes per word O(log log n): {g256}");
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 64;
        let x = signal(n);
        let (comp, out) = fft(&x, BuildConfig::default());
        let got = read_out(&comp, out);
        let e_time: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let e_freq: f64 = got.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-6 * n as f64);
    }
}
