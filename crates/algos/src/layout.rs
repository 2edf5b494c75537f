//! Matrix layout conversions (paper §3.2): the **bit-interleaved (BI)**
//! layout and the four RM↔BI conversion algorithms.
//!
//! BI (Morton / Z-order) recursively stores the top-left quadrant, then
//! top-right, bottom-left, bottom-right; every quadrant at every recursion
//! depth is *contiguous*, which is what gives the matrix algorithms
//! `f(r) = O(1)` and `L(r) = O(1)`.
//!
//! Conversions:
//!
//! * **RM→BI** — quadrant recursion with BI-ordered (contiguous) writes:
//!   `L(r) = O(1)`, reads `f(r) = √r`.
//! * **Direct BI→RM** — the same recursion with RM writes: `L(r) = √r`
//!   (the bad case motivating the next two).
//! * **BI-RM (gap RM)** — writes into a *gapped* RM layout (row chunks of
//!   length `r` separated by `⌈r/log²r⌉`-word gaps at every recursive size
//!   `r`), then a compaction scan. Tasks of size `r²` with
//!   `r = Ω(B log²B)` share **zero** blocks for writing.
//! * **BI-RM for FFT** — √-decomposition into `√m` contiguous BI tiles,
//!   recursive conversion into a stack temporary, then a BP copy in RM
//!   target order: `L(r) = O(1)` at `O(m log log m)` work.

use hbp_model::{BuildConfig, Builder, Computation, GArray};

use crate::util::View;

/// Morton (bit-interleave) index of `(r, c)`: bit `j` of `r` lands at
/// position `2j+1`, bit `j` of `c` at `2j`. Quadrant order is then
/// top-left, top-right, bottom-left, bottom-right — the paper's BI.
pub const fn morton(r: u64, c: u64) -> u64 {
    const fn spread(mut x: u64) -> u64 {
        // interleave zeros between the low 32 bits
        x &= 0xffff_ffff;
        x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
        x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
        x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | (x << 2)) & 0x3333_3333_3333_3333;
        x = (x | (x << 1)) & 0x5555_5555_5555_5555;
        x
    }
    (spread(r) << 1) | spread(c)
}

/// Morton index of the mirrored cell: `morton_transpose(morton(r, c)) ==
/// morton(c, r)`. Each row bit trades places with the column bit beside
/// it, so a transpose pairs index `i` with `morton_transpose(i)`.
pub const fn morton_transpose(i: u64) -> u64 {
    const COL: u64 = 0x5555_5555_5555_5555;
    ((i & COL) << 1) | ((i >> 1) & COL)
}

/// Inverse of [`morton`].
pub fn morton_decode(m: u64) -> (u64, u64) {
    fn unspread(mut x: u64) -> u64 {
        x &= 0x5555_5555_5555_5555;
        x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
        x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
        x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
        x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
        x
    }
    (unspread(m >> 1), unspread(m))
}

/// Side of the tiles [`to_bi`] copies whole: an 8×8 tile is 64
/// consecutive BI elements.
const TILE: usize = 8;

/// `TILE_CELLS[m]` is `r·TILE + c` for the cell `(r, c)` with Morton index
/// `m` inside one tile.
const TILE_CELLS: [u8; TILE * TILE] = {
    let mut cells = [0; TILE * TILE];
    let mut cell = 0;
    while cell < TILE * TILE {
        cells[morton((cell / TILE) as u64, (cell % TILE) as u64) as usize] = cell as u8;
        cell += 1;
    }
    cells
};

/// Row-major `rm` (side `n`, a power of two) permuted into BI on the
/// host — the plain permutation, not the recorded [`rm_to_bi`].
///
/// `morton(r, c)` splits into the tile's Morton index above the cell's
/// within its 8×8 tile, so the output is the tiles in Morton order, each
/// read as eight contiguous row runs and written as 64 consecutive slots.
pub fn to_bi<T: Copy>(rm: &[T], n: usize) -> Vec<T> {
    assert!(n.is_power_of_two() && rm.len() == n * n);
    if n < TILE {
        return (0..n * n)
            .map(|m| {
                let (r, c) = morton_decode(m as u64);
                rm[r as usize * n + c as usize]
            })
            .collect();
    }
    let tiles = n / TILE;
    let mut bi = Vec::with_capacity(n * n);
    for t in 0..tiles * tiles {
        let (tr, tc) = morton_decode(t as u64);
        let base = tr as usize * TILE * n + tc as usize * TILE;
        let rows: [&[T; TILE]; TILE] = std::array::from_fn(|r| {
            rm[base + r * n..][..TILE]
                .try_into()
                .expect("a tile row is TILE elements")
        });
        bi.extend(TILE_CELLS.map(|cell| rows[usize::from(cell) / TILE][usize::from(cell) % TILE]));
    }
    bi
}

/// Inverse of [`to_bi`]: BI `bi` (side `n`) back to row-major.
pub fn from_bi<T: Copy>(bi: &[T], n: usize) -> Vec<T> {
    (0..n * n)
        .map(|i| bi[morton((i / n) as u64, (i % n) as u64) as usize])
        .collect()
}

/// Quadrant recursion shared by RM→BI and direct BI→RM: visits every cell
/// `(r, c)` of the `k×k` matrix in BI task order.
pub(crate) fn quad_rec(
    b: &mut Builder,
    r0: usize,
    c0: usize,
    k: usize,
    leaf: &mut impl FnMut(&mut Builder, usize, usize),
) {
    if k == 1 {
        leaf(b, r0, c0);
        return;
    }
    let h = k / 2;
    let q = (h * h) as u64;
    b.fork_with(2 * q, 2 * q, |b, bottom| {
        let r1 = if bottom { r0 + h } else { r0 };
        b.fork_with(q, q, |b, rightq| {
            let c1 = if rightq { c0 + h } else { c0 };
            quad_rec(b, r1, c1, h, leaf);
        });
    });
}

/// RM→BI (Type 1 HBP): `bi[morton(r,c)] = rm[r·n + c]`.
pub fn rm_to_bi(rm: &[u64], n: usize, cfg: BuildConfig) -> (Computation, GArray<u64>) {
    assert!(n.is_power_of_two() && rm.len() == n * n);
    let mut out_h = None;
    let comp = Builder::build(cfg, (n * n) as u64, |b| {
        let src = b.input(rm);
        let dst = b.alloc::<u64>(n * n);
        out_h = Some(dst);
        quad_rec(b, 0, 0, n, &mut |b, r, c| {
            let v = b.read(src, r * n + c);
            b.write(dst, morton(r as u64, c as u64) as usize, v);
        });
    });
    (comp, out_h.unwrap())
}

/// Direct BI→RM (Type 1 HBP): the naive inverse with `L(r) = √r` —
/// horizontally adjacent tasks share Θ(rows) of output blocks.
pub fn bi_to_rm_direct(bi: &[u64], n: usize, cfg: BuildConfig) -> (Computation, GArray<u64>) {
    assert!(n.is_power_of_two() && bi.len() == n * n);
    let mut out_h = None;
    let comp = Builder::build(cfg, (n * n) as u64, |b| {
        let src = b.input(bi);
        let dst = b.alloc::<u64>(n * n);
        out_h = Some(dst);
        quad_rec(b, 0, 0, n, &mut |b, r, c| {
            let v = b.read(src, morton(r as u64, c as u64) as usize);
            b.write(dst, r * n + c, v);
        });
    });
    (comp, out_h.unwrap())
}

// ---- gapped RM layout ---------------------------------------------------

/// Gap inserted after each row chunk of length `r`. The paper uses
/// `r/log²r` and notes that "any analogous sequence of iterates also
/// works"; we use `4r/log²r` — same asymptotics, same `O(1)` total blowup
/// (`Σ 4/j²` converges) — so the zero-sharing regime `gap(r) ≥ B` is
/// reached at sizes small enough to exercise in tests and benchmarks.
fn gap_of(r: u64) -> u64 {
    if r < 2 {
        2
    } else {
        let l = (r as f64).log2();
        (4.0 * r as f64 / (l * l)).ceil() as u64
    }
}

/// Width of one row of a gapped `k×k` subarray.
pub fn gwidth(k: u64) -> u64 {
    if k <= 1 {
        1
    } else {
        2 * (gwidth(k / 2) + gap_of(k / 2))
    }
}

/// Column offset of column `c` inside a gapped `k`-wide row.
fn gcol(c: u64, k: u64) -> u64 {
    if k <= 1 {
        0
    } else {
        let h = k / 2;
        if c < h {
            gcol(c, h)
        } else {
            gwidth(h) + gap_of(h) + gcol(c - h, h)
        }
    }
}

/// Address of `(r, c)` in the gapped RM layout of an `n×n` matrix.
pub fn gapped_index(r: u64, c: u64, n: u64) -> u64 {
    r * gwidth(n) + gcol(c, n)
}

/// BI-RM (gap RM), Type 1+1 HBP: quadrant recursion writing the gapped RM
/// layout (zero write-sharing for tasks of size `≥ (B log²B)²`), then a
/// compaction scan with contiguous RM writes. Returns the dense RM output.
pub fn bi_to_rm_gap(bi: &[u64], n: usize, cfg: BuildConfig) -> (Computation, GArray<u64>) {
    assert!(n.is_power_of_two() && bi.len() == n * n);
    let nn = n as u64;
    let mut out_h = None;
    let comp = Builder::build(cfg, (n * n) as u64, |b| {
        let src = b.input(bi);
        let gapped = b.alloc::<u64>((nn * gwidth(nn)) as usize);
        let dst = b.alloc::<u64>(n * n);
        out_h = Some(dst);
        // Phase 1: BI reads, gapped writes.
        quad_rec(b, 0, 0, n, &mut |b, r, c| {
            let v = b.read(src, morton(r as u64, c as u64) as usize);
            b.write(gapped, gapped_index(r as u64, c as u64, nn) as usize, v);
        });
        // Phase 2: compaction scan in RM order (contiguous writes).
        fn compact(
            b: &mut Builder,
            gapped: GArray<u64>,
            dst: GArray<u64>,
            lo: usize,
            hi: usize,
            n: u64,
        ) {
            if hi - lo == 1 {
                let (r, c) = ((lo as u64) / n, (lo as u64) % n);
                let v = b.read(gapped, gapped_index(r, c, n) as usize);
                b.write(dst, lo, v);
                return;
            }
            let mid = lo + (hi - lo) / 2;
            b.fork(
                (mid - lo) as u64,
                (hi - mid) as u64,
                |b| compact(b, gapped, dst, lo, mid, n),
                |b| compact(b, gapped, dst, mid, hi, n),
            );
        }
        compact(b, gapped, dst, 0, n * n, nn);
    });
    (comp, out_h.unwrap())
}

// ---- BI-RM for FFT -------------------------------------------------------

/// Recursive body: convert the contiguous `k×k` BI matrix at `src` into a
/// `k×k` RM matrix at `dst` (both views), `k` any power of two.
pub(crate) fn bi_rm_fft_rec(b: &mut Builder, src: View<u64>, dst: View<u64>, k: usize) {
    if k <= 2 {
        for r in 0..k {
            for c in 0..k {
                let v = src.read(b, morton(r as u64, c as u64) as usize);
                dst.write(b, r * k + c, v);
            }
        }
        return;
    }
    // Tile side t = 2^⌈log₂k / 2⌉ ≈ √k; a g×g grid of contiguous BI tiles.
    let t = 1usize << k.trailing_zeros().div_ceil(2);
    let g = k / t;
    let m = k * k;
    // Stack temporary of Θ(m) words: exactly linear space (Def 3.6).
    let temp = b.local_array::<u64>(m);
    let tv = View::l(temp);
    // Collection of v = g² ≈ √m recursive subproblems of size t² ≈ √m:
    // tile (tr, tc) is contiguous at BI offset morton(tr, tc)·t².
    hbp_model::builder::fanout_uniform(b, g * g, (t * t) as u64, &mut |b, tile| {
        bi_rm_fft_rec(b, src.shift(tile * t * t), tv.shift(tile * t * t), t);
    });
    // BP copy in RM target order (contiguous writes, L = O(1)).
    fn copy(
        b: &mut Builder,
        tv: View<u64>,
        dst: View<u64>,
        lo: usize,
        hi: usize,
        k: usize,
        t: usize,
    ) {
        if hi - lo == 1 {
            let (r, c) = (lo / k, lo % k);
            let (tr, tc) = (r / t, c / t);
            let tile = morton(tr as u64, tc as u64) as usize;
            let v = tv.read(b, tile * (t * t) + (r % t) * t + (c % t));
            dst.write(b, lo, v);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        b.fork(
            (mid - lo) as u64,
            (hi - mid) as u64,
            |b| copy(b, tv, dst, lo, mid, k, t),
            |b| copy(b, tv, dst, mid, hi, k, t),
        );
    }
    copy(b, tv, dst, 0, m, k, t);
}

/// BI-RM for FFT (Type 2 HBP, c = 1, `v(m) ≈ √m`, `s(m) ≈ √m`):
/// `O(m log log m)` work, `L(r) = O(1)`, `f(r) = O(√r)` with a tall cache.
pub fn bi_to_rm_fft(bi: &[u64], n: usize, cfg: BuildConfig) -> (Computation, GArray<u64>) {
    assert!(bi.len() == n * n);
    assert!(n.is_power_of_two(), "n must be a power of two, got {n}");
    let mut out_h = None;
    let comp = Builder::build(cfg, (n * n) as u64, |b| {
        let src = b.input(bi);
        let dst = b.alloc::<u64>(n * n);
        out_h = Some(dst);
        bi_rm_fft_rec(b, View::g(src), View::g(dst), n);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::read_out;
    use hbp_model::analysis;

    #[test]
    fn morton_roundtrip_and_order() {
        for r in 0..16u64 {
            for c in 0..16u64 {
                assert_eq!(morton_decode(morton(r, c)), (r, c));
            }
        }
        // quadrant order: TL < TR < BL < BR for 2x2
        assert_eq!(morton(0, 0), 0);
        assert_eq!(morton(0, 1), 1);
        assert_eq!(morton(1, 0), 2);
        assert_eq!(morton(1, 1), 3);
    }

    #[test]
    fn morton_transpose_mirrors_the_cell_and_is_an_involution() {
        for r in 0..64u64 {
            for c in 0..64u64 {
                let i = morton(r, c);
                assert_eq!(morton_transpose(i), morton(c, r), "({r}, {c})");
                assert_eq!(morton_transpose(morton_transpose(i)), i, "({r}, {c})");
            }
        }
    }

    #[test]
    fn morton_is_hierarchical() {
        // every k×k quadrant at every level is contiguous
        let n = 16u64;
        for level_k in [2u64, 4, 8] {
            for qr in 0..(n / level_k) {
                for qc in 0..(n / level_k) {
                    let base = morton(qr * level_k, qc * level_k);
                    for r in 0..level_k {
                        for c in 0..level_k {
                            let m = morton(qr * level_k + r, qc * level_k + c);
                            assert!(m >= base && m < base + level_k * level_k);
                        }
                    }
                }
            }
        }
    }

    fn rm_data(n: usize) -> Vec<u64> {
        (0..(n * n) as u64).map(|x| x * 17 + 3).collect()
    }

    #[test]
    fn rm_to_bi_correct() {
        for n in [1usize, 2, 4, 8, 16] {
            let rm = rm_data(n);
            let (comp, out) = rm_to_bi(&rm, n, BuildConfig::default());
            let bi = read_out(&comp, out);
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(bi[morton(r as u64, c as u64) as usize], rm[r * n + c]);
                }
            }
        }
    }

    fn bi_data(n: usize) -> Vec<u64> {
        to_bi(&rm_data(n), n)
    }

    #[test]
    fn host_permutations_round_trip_and_match_the_recorded_one() {
        for n in (0..=9).map(|k| 1usize << k) {
            let rm = rm_data(n);
            let bi = to_bi(&rm, n);
            let per_element: Vec<u64> = (0..n * n)
                .map(|m| {
                    let (r, c) = morton_decode(m as u64);
                    rm[r as usize * n + c as usize]
                })
                .collect();
            assert_eq!(bi, per_element, "n={n}");
            assert_eq!(from_bi(&bi, n), rm, "n={n}");
            if n <= 64 {
                let (comp, out) = rm_to_bi(&rm, n, BuildConfig::default());
                assert_eq!(read_out(&comp, out), bi, "n={n}");
            }
        }
    }

    #[test]
    fn all_bi_to_rm_variants_agree() {
        for n in [2usize, 4, 8, 16, 32] {
            let bi = bi_data(n);
            let rm = rm_data(n);
            let (c1, o1) = bi_to_rm_direct(&bi, n, BuildConfig::default());
            let (c2, o2) = bi_to_rm_gap(&bi, n, BuildConfig::default());
            let (c3, o3) = bi_to_rm_fft(&bi, n, BuildConfig::default());
            assert_eq!(read_out(&c1, o1), rm, "direct n={n}");
            assert_eq!(read_out(&c2, o2), rm, "gap n={n}");
            assert_eq!(read_out(&c3, o3), rm, "fft n={n}");
        }
    }

    #[test]
    fn gapped_layout_is_injective_and_linear_size() {
        for n in [4u64, 8, 16, 32, 64] {
            let mut seen = std::collections::HashSet::new();
            for r in 0..n {
                for c in 0..n {
                    assert!(seen.insert(gapped_index(r, c, n)), "collision at ({r},{c})");
                }
            }
            assert!(
                gwidth(n) <= 16 * n,
                "gapped width must be O(n): gwidth({n}) = {}",
                gwidth(n)
            );
        }
    }

    #[test]
    fn gap_separates_sibling_writes() {
        // In the gapped layout, row chunks of length h are separated by
        // gap_of(h) ≥ 1 words, so sibling half-rows never abut.
        for k in [8u64, 16, 32] {
            let h = k / 2;
            let last_left = gcol(h - 1, k);
            let first_right = gcol(h, k);
            assert!(
                first_right >= last_left + 1 + gap_of(h),
                "k={k}: {first_right} vs {last_left}+1+{}",
                gap_of(h)
            );
        }
    }

    #[test]
    fn write_sharing_direct_vs_gap() {
        // The whole point of gapping: sibling tasks share far fewer written
        // blocks than the direct conversion. With B = 4 the direct layout
        // shares blocks wherever row chunks are narrower than a block,
        // while the gapped layout separates every chunk by ≥ gap ≥ B.
        let n = 16;
        let bw = 4u64;
        let bi = bi_data(n);
        let (cd, _) = bi_to_rm_direct(&bi, n, BuildConfig::with_block(bw));
        let (cg, _) = bi_to_rm_gap(&bi, n, BuildConfig::with_block(bw));
        let max_direct = analysis::l_estimate(&cd, bw)
            .iter()
            .map(|r| r.shared_blocks)
            .max()
            .unwrap_or(0);
        let max_gap = analysis::l_estimate(&cg, bw)
            .iter()
            .map(|r| r.shared_blocks)
            .max()
            .unwrap_or(0);
        assert!(
            max_gap < max_direct,
            "gapping should reduce shared blocks: {max_gap} !< {max_direct}"
        );
        assert!(max_gap <= 2, "gapped sharing is O(1) here, got {max_gap}");
    }

    #[test]
    fn limited_access_all_conversions() {
        let n = 16;
        let bi = bi_data(n);
        for (name, comp) in [
            ("direct", bi_to_rm_direct(&bi, n, BuildConfig::default()).0),
            ("gap", bi_to_rm_gap(&bi, n, BuildConfig::default()).0),
            ("fft", bi_to_rm_fft(&bi, n, BuildConfig::default()).0),
        ] {
            let (g, l) = analysis::write_counts(&comp);
            assert!(g <= 1, "{name}: global words written once, got {g}");
            assert!(l <= 1, "{name}: local words written once, got {l}");
        }
    }
}
