//! Resource-oblivious HBP sorting — the **mergesort stand-in**, kept for
//! A/B comparison against the real SPMS.
//!
//! The paper's List Ranking and Connected Components call the SPMS sorting
//! algorithm of \[12\] (W = O(n log n), T∞ = O(log n log log n)). Until
//! PR 5 this `O(n log² n)` HBP **mergesort** stood in for it everywhere;
//! the real Sample–Partition–Merge sort now lives in [`crate::spms`] and
//! owns the registry's "Sort (SPMS)" row, the LR/CC call sites, and the
//! figures — this module survives as the "Sort (merge std-in)" row so
//! `table1`, `fig_pws_vs_rws` and `fig_padding` can A/B the two (and as
//! the simplest worked example of a Type 2 HBP sorter). Shape: `c = 1`
//! collection of `v = 2` recursive subproblems of size `s(n) = n/2`,
//! followed by a parallel-merge BP.
//!
//! * Each task sorts into a **fresh stack array declared by its parent**
//!   (exactly-linear-space-bounded, Def 3.6), so every word is written once
//!   per merge level through fresh storage — limited access (Def 2.4).
//! * The merge forks on the median of the larger run and a binary search in
//!   the other (task heads do `O(log)` reads — a documented deviation from
//!   Def 3.2's O(1) heads; total work `O(n log² n)` vs SPMS's
//!   `O(n log n)`).

use hbp_model::{BuildConfig, Builder, Computation, GArray, Wordable};

use crate::util::View;

/// Element with a sort key (shared with [`crate::spms`]).
pub trait Keyed: Wordable {
    /// The 64-bit sort key.
    fn key(&self) -> u64;
}

impl Keyed for u64 {
    fn key(&self) -> u64 {
        *self
    }
}

impl Keyed for (u64, u64) {
    fn key(&self) -> u64 {
        self.0
    }
}

impl Keyed for (u64, u64, u64) {
    fn key(&self) -> u64 {
        self.0
    }
}

/// Binary search: first index in `v[lo..hi)` whose key is ≥ `target`.
/// The reads are recorded — this is the merge task head's O(log) work.
fn lower_bound<T: Keyed>(
    b: &mut Builder,
    v: View<T>,
    mut lo: usize,
    mut hi: usize,
    target: u64,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if v.read(b, mid).key() < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Parallel merge BP: merge sorted `x[xl..xr)` and `y[yl..yr)` into
/// `out[ol..)`.
fn merge_rec<T: Keyed>(
    b: &mut Builder,
    x: View<T>,
    xl: usize,
    xr: usize,
    y: View<T>,
    yl: usize,
    yr: usize,
    out: View<T>,
    ol: usize,
) {
    let total = (xr - xl) + (yr - yl);
    if total <= 2 {
        // Leaf: O(1) compare-and-copy.
        let mut items: Vec<T> = Vec::with_capacity(2);
        for i in xl..xr {
            items.push(x.read(b, i));
        }
        for i in yl..yr {
            items.push(y.read(b, i));
        }
        if items.len() == 2 && items[0].key() > items[1].key() {
            items.swap(0, 1);
        }
        for (d, v) in items.into_iter().enumerate() {
            out.write(b, ol + d, v);
        }
        return;
    }
    // Split on the median of the larger run; binary-search the other.
    let (xm, ym) = if xr - xl >= yr - yl {
        let xm = xl + (xr - xl) / 2;
        let pivot = x.read(b, xm).key();
        (xm, lower_bound(b, y, yl, yr, pivot))
    } else {
        let ym = yl + (yr - yl) / 2;
        let pivot = y.read(b, ym).key();
        (lower_bound(b, x, xl, xr, pivot), ym)
    };
    let lsize = (xm - xl) + (ym - yl);
    let rsize = total - lsize;
    b.fork(
        lsize.max(1) as u64,
        rsize.max(1) as u64,
        |b| merge_rec(b, x, xl, xm, y, yl, ym, out, ol),
        |b| merge_rec(b, x, xm, xr, y, ym, yr, out, ol + lsize),
    );
}

/// Sort `src[lo..hi)` into `dst[0..hi-lo)`. The two recursive sorts land in
/// stack arrays declared by this task, then a merge BP writes `dst`.
pub(crate) fn sort_rec<T: Keyed>(
    b: &mut Builder,
    src: View<T>,
    dst: View<T>,
    lo: usize,
    hi: usize,
) {
    let n = hi - lo;
    if n == 1 {
        let v = src.read(b, lo);
        dst.write(b, 0, v);
        return;
    }
    if n == 2 {
        let v0 = src.read(b, lo);
        let v1 = src.read(b, lo + 1);
        let (a, c) = if v0.key() <= v1.key() {
            (v0, v1)
        } else {
            (v1, v0)
        };
        dst.write(b, 0, a);
        dst.write(b, 1, c);
        return;
    }
    let mid = lo + n / 2;
    // Θ(n) stack buffers for the two sorted halves (Def 3.6).
    let left = b.local_array::<T>(mid - lo);
    let right = b.local_array::<T>(hi - mid);
    let lv = View::l(left);
    let rv = View::l(right);
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| sort_rec(b, src, lv, lo, mid),
        |b| sort_rec(b, src, rv, mid, hi),
    );
    merge_rec(b, lv, 0, mid - lo, rv, 0, hi - mid, dst, 0);
}

/// Sort `data` (any `Keyed` element), returning the computation and the
/// sorted output array.
pub fn mergesort<T: Keyed>(data: &[T], cfg: BuildConfig) -> (Computation, GArray<T>) {
    assert!(!data.is_empty());
    let n = data.len();
    let mut out_h = None;
    let comp = Builder::build(cfg, n as u64, |b| {
        let src = b.input(data);
        let dst = b.alloc::<T>(n);
        out_h = Some(dst);
        sort_rec(b, View::g(src), View::g(dst), 0, n);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::util::read_out;
    use hbp_model::analysis;

    fn keys(n: usize, mult: u64) -> Vec<(u64, u64)> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(mult) % (n as u64 * 2), i))
            .collect()
    }

    #[test]
    fn sorts_correctly() {
        for n in [1usize, 2, 3, 5, 16, 64, 257] {
            let data = keys(n, 2654435761);
            let (comp, out) = mergesort(&data, BuildConfig::default());
            let got = read_out(&comp, out);
            let want = oracle::sort_pairs(&data);
            let got_keys: Vec<u64> = got.iter().map(|p| p.0).collect();
            let want_keys: Vec<u64> = want.iter().map(|p| p.0).collect();
            assert_eq!(got_keys, want_keys, "n={n}");
        }
    }

    #[test]
    fn sorts_u64_and_triples() {
        let data: Vec<u64> = vec![5, 3, 9, 1, 1, 8, 0];
        let (comp, out) = mergesort(&data, BuildConfig::default());
        assert_eq!(read_out(&comp, out), vec![0, 1, 1, 3, 5, 8, 9]);

        let t: Vec<(u64, u64, u64)> = vec![(3, 1, 1), (1, 2, 2), (2, 3, 3)];
        let (comp, out) = mergesort(&t, BuildConfig::default());
        let got = read_out(&comp, out);
        assert_eq!(got.iter().map(|x| x.0).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn sorts_adversarial_inputs() {
        for n in [64usize, 100] {
            // already sorted, reversed, all-equal
            let asc: Vec<u64> = (0..n as u64).collect();
            let desc: Vec<u64> = (0..n as u64).rev().collect();
            let eq: Vec<u64> = vec![7; n];
            for data in [asc.clone(), desc, eq] {
                let (comp, out) = mergesort(&data, BuildConfig::default());
                let mut want = data.clone();
                want.sort();
                assert_eq!(read_out(&comp, out), want);
            }
        }
    }

    #[test]
    fn work_is_near_n_log2_n() {
        let (c64, _) = mergesort(&keys(64, 7919), BuildConfig::default());
        let (c256, _) = mergesort(&keys(256, 7919), BuildConfig::default());
        let ratio = c256.work() as f64 / c64.work() as f64;
        // O(n log² n): ratio ≈ 4·(8/6)² ≈ 7.1; allow slack
        assert!((4.0..10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn limited_access_through_fresh_buffers() {
        let (c, _) = mergesort(&keys(128, 31), BuildConfig::default());
        let (g, l) = analysis::write_counts(&c);
        assert!(g <= 1, "global (output) words written once, got {g}");
        assert!(l <= 1, "each stack buffer word written once, got {l}");
    }

    #[test]
    fn span_is_polylog() {
        let (c, _) = mergesort(&keys(256, 31), BuildConfig::default());
        let s = analysis::span(&c);
        // T∞ = O(log³ n)-ish for this merge; must be far below n
        assert!(s < 256 * 8, "span {s}");
    }
}
