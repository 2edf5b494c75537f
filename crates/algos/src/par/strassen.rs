//! Strassen's multiplication of BI matrices over one carved workspace.

use std::mem::MaybeUninit;

use super::carve::{debug_assert_line_start, fresh, line_aligned, output, workspace, written};
use super::{pjoin, v3};
use crate::layout::morton;

/// Side of the Strassen leaf tile: at or below it a product is one
/// row-major multiply.
pub(super) const LEAF: usize = 32;

/// BI offset of cell `(r, c)` of a tile, at `r * LEAF + c`. Morton order
/// does not depend on the tile's side, so one table serves every
/// `k ≤ LEAF`.
const BI_LUT: [u16; LEAF * LEAF] = {
    let mut lut = [0u16; LEAF * LEAF];
    let mut i = 0;
    while i < LEAF * LEAF {
        lut[i] = morton((i / LEAF) as u64, (i % LEAF) as u64) as u16;
        i += 1;
    }
    lut
};

/// One operand of a Strassen product: quadrant `.0` (11, 12, 21, 22 as
/// 0..4), plus `sign ·` a second quadrant when `.1` names one.
type Operand = (usize, Option<(usize, f64)>);

/// The seven products `M_i = (A operand) · (B operand)`.
const PRODUCTS: [(Operand, Operand); 7] = [
    ((0, Some((3, 1.0))), (0, Some((3, 1.0)))), // (A11 + A22)(B11 + B22)
    ((2, Some((3, 1.0))), (0, None)),           // (A21 + A22) B11
    ((0, None), (1, Some((3, -1.0)))),          // A11 (B12 - B22)
    ((3, None), (2, Some((0, -1.0)))),          // A22 (B21 - B11)
    ((0, Some((1, 1.0))), (3, None)),           // (A11 + A12) B22
    ((2, Some((0, -1.0))), (0, Some((1, 1.0)))), // (A21 - A11)(B11 + B12)
    ((1, Some((3, -1.0))), (2, Some((3, 1.0)))), // (A12 - A22)(B21 + B22)
];

/// Quadrant `j` of `C` (11, 12, 21, 22 as 0..4) as its `(product,
/// sign)` terms, in product order; the first is always positive:
/// `C11 = M1 + M4 - M5 + M7`, `C12 = M3 + M5`, `C21 = M2 + M4`,
/// `C22 = M1 - M2 + M3 + M6`. A quadrant's first term is stored, never
/// added, so `C` need not start zeroed.
const QUADS: [&[(usize, f64)]; 4] = [
    &[(0, 1.0), (3, 1.0), (4, -1.0), (6, 1.0)],
    &[(2, 1.0), (4, 1.0)],
    &[(1, 1.0), (3, 1.0)],
    &[(0, 1.0), (1, -1.0), (2, 1.0), (5, 1.0)],
];

/// Workspace (in `f64`s) of one `k×k` product: an (S, T, M) window plus
/// the child's own workspace per product — seven of them where the
/// products fork, **one shared** on the last level above the leaves,
/// whose products run one after another ([`strassen_rec`]).
const fn strassen_ws(k: usize) -> usize {
    if k <= LEAF {
        return 0;
    }
    let h = k / 2;
    let window = 3 * h * h + strassen_ws(h);
    if h <= LEAF {
        window
    } else {
        7 * window
    }
}

/// `c = a · b` for `k×k` BI tiles, `k ≤ LEAF`, i-k-j: `b` is
/// de-interleaved through [`BI_LUT`] into a row-major stack buffer, then
/// each row of `c` is accumulated in registers — `row += a[i][l] · b[l]`,
/// `a[i][l]` read straight from its BI slot — and re-interleaved. The
/// row update has a constant width the compiler vectorises; tiles
/// narrower than `LEAF` ride along zero-padded. With `FMA` each update is
/// one fused multiply-add, which rounds once instead of twice; only a
/// build with the FMA feature on may set it, since `mul_add` without it
/// is a library call.
#[inline(always)]
pub(super) fn leaf_mul<const FMA: bool>(
    a: &[f64],
    b: &[f64],
    c: &mut [MaybeUninit<f64>],
    k: usize,
) {
    let mut rb = [[0.0f64; LEAF]; LEAF];
    for r in 0..k {
        for col in 0..k {
            rb[r][col] = b[BI_LUT[r * LEAF + col] as usize];
        }
    }
    for i in 0..k {
        let mut row = [0.0f64; LEAF];
        for l in 0..k {
            let x = a[BI_LUT[i * LEAF + l] as usize];
            for j in 0..LEAF {
                row[j] = if FMA {
                    x.mul_add(rb[l][j], row[j])
                } else {
                    row[j] + x * rb[l][j]
                };
            }
        }
        for col in 0..k {
            c[BI_LUT[i * LEAF + col] as usize].write(row[col]);
        }
    }
}

/// [`leaf_mul`] compiled for AVX2+FMA, its updates fused.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub(super) fn leaf_mul_v3(a: &[f64], b: &[f64], c: &mut [MaybeUninit<f64>], k: usize) {
    leaf_mul::<true>(a, b, c, k)
}

/// Compute product `i` of the `2h×2h` multiplication `a · b` inside
/// `window` = S | T | M | child workspace: operands that are a sum are
/// written to S / T, plain quadrants are used where they lie, the product
/// is written to M, which is returned.
fn strassen_product<'w>(
    a: &[f64],
    b: &[f64],
    h: usize,
    i: usize,
    window: &'w mut [MaybeUninit<f64>],
) -> &'w [f64] {
    let q = h * h;
    let (s, rest) = window.split_at_mut(q);
    let (t, rest) = rest.split_at_mut(q);
    let (m, ws) = rest.split_at_mut(q);
    fn operand<'a>(
        x: &'a [f64],
        (first, second): Operand,
        buf: &'a mut [MaybeUninit<f64>],
    ) -> &'a [f64] {
        let q = buf.len();
        let quad = |j: usize| &x[j * q..(j + 1) * q];
        let Some((other, sign)) = second else {
            return quad(first);
        };
        for ((d, &u), &v) in buf.iter_mut().zip(quad(first)).zip(quad(other)) {
            d.write(u + sign * v);
        }
        written(buf)
    }
    let (pa, pb) = PRODUCTS[i];
    strassen_rec(operand(a, pa, s), operand(b, pb, t), m, h, ws)
}

/// Products `lo..hi` forked over their windows (`per` apart).
fn strassen_fork(
    a: &[f64],
    b: &[f64],
    h: usize,
    lo: usize,
    hi: usize,
    windows: &mut [MaybeUninit<f64>],
    per: usize,
) {
    debug_assert_line_start(windows);
    if hi - lo == 1 {
        strassen_product(a, b, h, lo, windows);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let (wl, wr) = windows.split_at_mut((mid - lo) * per);
    pjoin(
        || strassen_fork(a, b, h, lo, mid, wl, per),
        || strassen_fork(a, b, h, mid, hi, wr, per),
    );
}

/// Land product `i` (`m`) in the quadrants of `c` it belongs to: stored
/// where it is the quadrant's first term, added otherwise. Products land
/// in order, so a quadrant is stored whole before anything is added.
fn strassen_land(m: &[f64], c: &mut [MaybeUninit<f64>], i: usize) {
    for (cq, terms) in c.chunks_exact_mut(m.len()).zip(QUADS) {
        match terms.iter().position(|&(p, _)| p == i) {
            None => {}
            Some(0) => {
                cq.write_copy_of_slice(m);
            }
            Some(t) => {
                // Term 0 of this quadrant is an earlier product, which
                // stored all of `cq` when it landed.
                let cq = written(cq);
                let sign = terms[t].1;
                for (d, &v) in cq.iter_mut().zip(m) {
                    *d += sign * v;
                }
            }
        }
    }
}

/// Quadrant `quad` of `c` from all seven products, each element written
/// once: its terms summed left to right in product order, the same
/// operations [`strassen_land`] applies one product at a time.
fn land_quadrant(ms: &[&[f64]; 7], quad: usize, cq: &mut [MaybeUninit<f64>]) {
    match *QUADS[quad] {
        [(a, _), (b, sb)] => {
            for ((d, &x), &y) in cq.iter_mut().zip(ms[a]).zip(ms[b]) {
                d.write(x + sb * y);
            }
        }
        [(a, _), (b, sb), (c, sc), (e, se)] => {
            let terms = ms[a].iter().zip(ms[b]).zip(ms[c]).zip(ms[e]);
            for (d, (((&x, &y), &z), &w)) in cq.iter_mut().zip(terms) {
                d.write(x + sb * y + sc * z + se * w);
            }
        }
        _ => unreachable!("a quadrant of C sums two or four products"),
    }
}

/// `c = a · b` for `k×k` BI matrices with [`strassen_ws`]`(k)` of
/// workspace; returns `c`, every element written. Above the last level
/// the seven products fork, each in its own window, and then the four
/// quadrants of `c` fork, each summing its products in one pass. On the
/// last level (children are leaves) the products run in turn through one
/// shared window, each landing in `c` before the next overwrites it.
/// Every level down holds 7/4 the window bytes of the one above, so
/// sharing the widest one halves the workspace (8.4 instead of 16 MiB at
/// `n = 256`) and still leaves `7^(levels-1)` tasks to steal. Quadrants
/// are whole lines, and so is every M window; only the caller's output,
/// which need not start on a line, can share one line per quadrant
/// border between two landing tasks.
fn strassen_rec<'c>(
    a: &[f64],
    b: &[f64],
    c: &'c mut [MaybeUninit<f64>],
    k: usize,
    ws: &mut [MaybeUninit<f64>],
) -> &'c mut [f64] {
    if k <= LEAF {
        if v3() {
            // SAFETY: `v3()` just found AVX2 and FMA on this core.
            unsafe { leaf_mul_v3(a, b, c, k) };
        } else {
            leaf_mul::<false>(a, b, c, k);
        }
    } else if k / 2 <= LEAF {
        for i in 0..7 {
            let m = strassen_product(a, b, k / 2, i, fresh(ws));
            strassen_land(m, c, i);
        }
    } else {
        let (h, q) = (k / 2, k * k / 4);
        let per = 3 * q + strassen_ws(h);
        strassen_fork(a, b, h, 0, 7, &mut ws[..7 * per], per);
        // `strassen_fork` ran product `i` in window `i`, and its
        // recursion wrote the M part of that window whole.
        let mut windows = ws[..7 * per].chunks_exact_mut(per);
        let ms = std::array::from_fn(|_| {
            let window = windows.next().expect("one window per product");
            &*written(&mut window[2 * q..][..q])
        });
        let (c01, c23) = c.split_at_mut(2 * q);
        let (c0, c1) = c01.split_at_mut(q);
        let (c2, c3) = c23.split_at_mut(q);
        pjoin(
            || pjoin(|| land_quadrant(&ms, 0, c0), || land_quadrant(&ms, 1, c1)),
            || pjoin(|| land_quadrant(&ms, 2, c2), || land_quadrant(&ms, 3, c3)),
        );
    }
    // A leaf writes its whole tile; on the last level the first three
    // products store every quadrant (each quadrant's first term); above
    // it every quadrant is written by its `land_quadrant`.
    written(c)
}

/// Strassen multiplication of two `n×n` BI matrices (forked recursion
/// over one carved workspace), with a row-major multiply at the 32×32
/// leaves. The output and the workspace start uninitialised.
pub fn par_strassen_bi(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two() && a.len() == n * n && b.len() == n * n);
    let mut ws = workspace(strassen_ws(n));
    output(n * n, |c| {
        strassen_rec(a, b, c, n, line_aligned(ws.spare_capacity_mut()));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::layout::to_bi;
    use crate::oracle;
    use crate::par::carve::LINE_BYTES;
    use crate::par::tests::{off_and_on_pools, on_two_workers};

    #[test]
    fn par_strassen_matches_at_every_size_up_to_two_forking_levels() {
        // 1..=16 sub-leaf, 32 exactly the leaf, 64 the shared-window
        // level alone, 128 one forking level above it.
        off_and_on_pools(|| {
            for n in (0..=7).map(|e| 1usize << e) {
                let a = gen::random_matrix(n, 3);
                let b = gen::random_matrix(n, 4);
                let got = par_strassen_bi(&to_bi(&a, n), &to_bi(&b, n), n);
                let want = to_bi(&oracle::matmul_rm(&a, &b, n), n);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()), "n={n} i={i}");
                }
            }
        });
    }

    #[test]
    fn strassen_workspace_shares_the_last_level() {
        assert_eq!(strassen_ws(LEAF), 0);
        assert_eq!(strassen_ws(64), 3 * 32 * 32, "one (S, T, M) window");
        assert_eq!(strassen_ws(128), 7 * (3 * 64 * 64 + strassen_ws(64)));
        // Every window is whole lines, so line-aligned stays line-aligned.
        assert_eq!(strassen_ws(256) % (LINE_BYTES / 8), 0);
    }

    #[test]
    fn workspaces_raise_the_arena_high_water_mark() {
        // The gauge only ever rises, so other tests launching kernels
        // while the registry is on cannot break the bound.
        let m = hbp_metrics::global();
        m.set_enabled(true);
        let n = 64;
        par_strassen_bi(&vec![1.0; n * n], &vec![1.0; n * n], n);
        m.set_enabled(false);
        assert!(m.arena_bytes.get() >= (strassen_ws(n) * 8) as i64);
    }

    #[test]
    fn bi_lut_is_the_morton_order() {
        for r in 0..LEAF {
            for c in 0..LEAF {
                assert_eq!(
                    BI_LUT[r * LEAF + c] as u64,
                    morton(r as u64, c as u64),
                    "({r}, {c})"
                );
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
        use crate::layout::from_bi;

        #[test]
        fn strassen_at_the_first_forked_level() {
            // 128: the seven products fork, then the four quadrants land
            // in parallel; each 64-wide product runs the shared last
            // level, its operands and products in one window.
            let n = 128;
            let (a, b) = (gen::random_matrix(n, 3), gen::random_matrix(n, 4));
            let (a_bi, b_bi) = (to_bi(&a, n), to_bi(&b, n));
            let c = from_bi(&on_two_workers(|| par_strassen_bi(&a_bi, &b_bi, n)), n);
            // A sample of entries that visits every quadrant, each
            // against its own dot product.
            for (i, j) in (0..n).map(|i| (i, i * 37 % n)) {
                let want: f64 = (0..n).map(|l| a[i * n + l] * b[l * n + j]).sum();
                let got = c[i * n + j];
                assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()), "({i}, {j})");
            }
        }
    }
}
