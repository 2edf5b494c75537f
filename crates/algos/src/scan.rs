//! Scans (paper §3.2): **M-Sum**, **Matrix Addition (MA)** and **Prefix
//! Sums (PS)** — Type 1 HBP computations with `f(r) = O(1)`, `L(r) = O(1)`,
//! `W = O(n)`, `T∞ = O(log n)`, `Q = O(n/B)`.
//!
//! PS is a sequence of two BP computations: an up-sweep storing subtree sums
//! in the **in-order up-tree layout** of §3.3 (so sibling tasks share at
//! most a boundary block), and a down-sweep distributing offsets through
//! parent-frame locals.

use hbp_model::{BuildConfig, Builder, Computation, GArray, Local};

use crate::util::View;

/// Slot of the subtree over `[lo, hi)` in the in-order up-tree layout:
/// leaf `i` at `2i`, internal node with midpoint `mid` at `2·mid − 1`.
pub(crate) fn inorder_slot(lo: usize, hi: usize) -> usize {
    if hi - lo == 1 {
        2 * lo
    } else {
        2 * (lo + (hi - lo) / 2) - 1
    }
}

/// M-Sum (§2): BP tree summing `data`, result in the returned 1-element
/// array. Children deposit results in parent-frame locals (limited access).
pub fn m_sum(data: &[u64], cfg: BuildConfig) -> (Computation, GArray<u64>) {
    assert!(!data.is_empty());
    let n = data.len();
    let mut out_h = None;
    let comp = Builder::build(cfg, n as u64, |b| {
        let a = b.input(data);
        let out = b.alloc::<u64>(1);
        out_h = Some(out);
        fn rec(b: &mut Builder, a: GArray<u64>, lo: usize, hi: usize, dst: Local<u64>) {
            if hi - lo == 1 {
                let v = b.read(a, lo);
                b.wloc(dst, v);
                return;
            }
            let mid = lo + (hi - lo) / 2;
            let s1 = b.local(0u64);
            let s2 = b.local(0u64);
            b.fork(
                (mid - lo) as u64,
                (hi - mid) as u64,
                |b| rec(b, a, lo, mid, s1),
                |b| rec(b, a, mid, hi, s2),
            );
            let v1 = b.rloc(s1);
            let v2 = b.rloc(s2);
            b.wloc(dst, v1.wrapping_add(v2));
        }
        let total = b.local(0u64);
        rec(b, a, 0, n, total);
        let v = b.rloc(total);
        b.write(out, 0, v);
    });
    (comp, out_h.unwrap())
}

/// The BP body of MA over views: `c[i] = a[i] + b[i]` for `i < len`.
/// Reused by Strassen and Depth-n-MM for their combine steps.
pub(crate) fn bp_add_views(
    b: &mut Builder,
    a: View<f64>,
    bb: View<f64>,
    c: View<f64>,
    lo: usize,
    hi: usize,
    scale_b: f64,
) {
    if hi - lo == 1 {
        let x = a.read(b, lo);
        let y = bb.read(b, lo);
        c.write(b, lo, x + scale_b * y);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| bp_add_views(b, a, bb, c, lo, mid, scale_b),
        |b| bp_add_views(b, a, bb, c, mid, hi, scale_b),
    );
}

/// Matrix Addition (MA): elementwise `c = a + b` as one BP computation.
pub fn matrix_add(a: &[f64], b: &[f64], cfg: BuildConfig) -> (Computation, GArray<f64>) {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    let n = a.len();
    let mut out_h = None;
    let comp = Builder::build(cfg, n as u64, |bd| {
        let av = bd.input(a);
        let bv = bd.input(b);
        let cv = bd.alloc::<f64>(n);
        out_h = Some(cv);
        bp_add_views(bd, View::g(av), View::g(bv), View::g(cv), 0, n, 1.0);
    });
    (comp, out_h.unwrap())
}

/// Up-sweep: store every subtree's sum in the in-order layout tree `s`.
fn ps_up(b: &mut Builder, a: GArray<u64>, s: GArray<u64>, lo: usize, hi: usize) {
    if hi - lo == 1 {
        let v = b.read(a, lo);
        b.write(s, inorder_slot(lo, hi), v);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| ps_up(b, a, s, lo, mid),
        |b| ps_up(b, a, s, mid, hi),
    );
    let v1 = b.read(s, inorder_slot(lo, mid));
    let v2 = b.read(s, inorder_slot(mid, hi));
    b.write(s, inorder_slot(lo, hi), v1.wrapping_add(v2));
}

/// Down-sweep: distribute offsets; `off` lives on an ancestor's frame.
fn ps_down(
    b: &mut Builder,
    a: GArray<u64>,
    s: GArray<u64>,
    out: GArray<u64>,
    lo: usize,
    hi: usize,
    off: Local<u64>,
) {
    if hi - lo == 1 {
        let v = b.read(a, lo);
        let o = b.rloc(off);
        b.write(out, lo, o.wrapping_add(v)); // inclusive prefix sum
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let o = b.rloc(off);
    let ls = b.read(s, inorder_slot(lo, mid));
    let off_r = b.local(o.wrapping_add(ls));
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| ps_down(b, a, s, out, lo, mid, off),
        |b| ps_down(b, a, s, out, mid, hi, off_r),
    );
}

/// Prefix Sums (PS): inclusive prefix sums of `data`, as a sequence of two
/// BP computations (Type 1 HBP).
pub fn prefix_sums(data: &[u64], cfg: BuildConfig) -> (Computation, GArray<u64>) {
    assert!(!data.is_empty());
    let n = data.len();
    let mut out_h = None;
    let comp = Builder::build(cfg, n as u64, |b| {
        let a = b.input(data);
        let s = b.alloc::<u64>(2 * n - 1);
        let out = b.alloc::<u64>(n);
        out_h = Some(out);
        ps_up(b, a, s, 0, n);
        let zero = b.local(0u64);
        ps_down(b, a, s, out, 0, n, zero);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::util::read_out;
    use hbp_model::analysis;

    #[test]
    fn m_sum_matches_oracle() {
        for n in [1usize, 2, 3, 7, 64, 100] {
            let data: Vec<u64> = (0..n as u64).map(|x| x * 3 + 1).collect();
            let (comp, out) = m_sum(&data, BuildConfig::default());
            assert_eq!(read_out(&comp, out)[0], oracle::sum(&data), "n={n}");
        }
    }

    #[test]
    fn m_sum_is_limited_access() {
        let data: Vec<u64> = (0..128).collect();
        let (comp, _) = m_sum(&data, BuildConfig::default());
        let (g, l) = analysis::write_counts(&comp);
        assert!(g <= 1);
        assert!(l <= 2, "locals written at most twice, got {l}");
    }

    #[test]
    fn m_sum_work_and_span() {
        let data: Vec<u64> = vec![1; 256];
        let (comp, _) = m_sum(&data, BuildConfig::default());
        assert!(comp.work() <= 10 * 256, "W = O(n)");
        let s = analysis::span(&comp);
        assert!(s <= 40 * 8 + 64, "T∞ = O(log n), got {s}");
    }

    #[test]
    fn matrix_add_matches_oracle() {
        let n = 100;
        let a: Vec<f64> = (0..n).map(|x| x as f64).collect();
        let b: Vec<f64> = (0..n).map(|x| (x * 2) as f64).collect();
        let (comp, out) = matrix_add(&a, &b, BuildConfig::default());
        assert_eq!(read_out(&comp, out), oracle::add(&a, &b));
    }

    #[test]
    fn prefix_sums_match_oracle() {
        for n in [1usize, 2, 5, 16, 33, 128] {
            let data: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(7) % 23).collect();
            let (comp, out) = prefix_sums(&data, BuildConfig::default());
            assert_eq!(read_out(&comp, out), oracle::prefix_sums(&data), "n={n}");
        }
    }

    #[test]
    fn prefix_sums_structure() {
        let data: Vec<u64> = vec![1; 128];
        let (comp, _) = prefix_sums(&data, BuildConfig::default());
        // Two sequenced BP phases: priority bands must be disjoint, and
        // total priorities ≈ 2 log n.
        assert!(comp.n_priorities >= 14 && comp.n_priorities <= 16);
        let (g, _l) = analysis::write_counts(&comp);
        assert_eq!(g, 1, "every global word written exactly once");
        assert!(comp.work() <= 16 * 128);
    }

    #[test]
    fn scan_f_and_l_are_constant() {
        let data: Vec<u64> = vec![1; 256];
        let (comp, _) = prefix_sums(&data, BuildConfig::default());
        for row in analysis::f_estimate(&comp, 32) {
            assert!(
                row.blocks <= row.accesses / 32 + 6,
                "f(r)=O(1) violated: {row:?}"
            );
        }
        for row in analysis::l_estimate(&comp, 32) {
            assert!(row.shared_blocks <= 3, "L(r)=O(1) violated: {row:?}");
        }
    }
}
