//! The paper's sorting workload for real: **SPMS — Sample, Partition and
//! Merge Sort** (Cole & Ramachandran, "Resource Oblivious Sorting on
//! Multicores", PAPERS.md) as a recorded HBP computation.
//!
//! The List Ranking and Connected Components analyses of the source paper
//! lean on SPMS (`W = O(n log n)`, `T∞ = O(log n log log n)`,
//! `Q = O((n/B) log_M n)`); [`crate::sort`] keeps the earlier
//! `O(n log² n)` HBP **mergesort stand-in** for A/B comparison (registry
//! row "Sort (merge std-in)"), while this module is the "Sort (SPMS)"
//! row. The structure follows the SPMS recursion:
//!
//! 1. **Sort** — split the input into ≈ `√n` chunks of size ≈ `√n`, sort
//!    each recursively into a *gapped* buffer declared by the parent
//!    (block-aligned chunk origins, so concurrently sorting tasks never
//!    share an output block — Def 3.6 fresh stack storage).
//! 2. **Sample** — from each sorted chunk, read a deterministic,
//!    regularly spaced sample (every chunk contributes ≤ `nb` elements);
//!    the splitters are fixed positions of the sorted sample. No
//!    randomness anywhere: two builds over the same input are identical.
//! 3. **Partition** — cut every sorted run at the splitters
//!    (upper-bound, so equal keys always land in one bucket — this is
//!    what makes the sort *stable*). The cut positions are build-time
//!    planning (unrecorded peeks), which is exactly how the recorded
//!    model keeps Def 3.2's **O(1) task heads**: a merge task reads no
//!    more than a constant number of words before forking.
//! 4. **Merge** — each size-balanced bucket (≤ `√n`-ish elements from
//!    ≤ `√n` runs) is merged by the same sample–partition recursion,
//!    bottoming out in O(1)-size leaves that read their elements once
//!    and write them once into a **gapped output buffer**: per-bucket
//!    capacities are rounded up to whole `B`-word blocks, so any memory
//!    block overlaps at most one bucket boundary and the false-sharing
//!    excess of concurrent bucket writers stays within the paper's
//!    O(1)-per-boundary bound. A final parallel compaction copies the
//!    gapped buffer into the caller's contiguous output.
//!
//! ## Fidelity notes (vs the SPMS paper)
//!
//! * Comparisons performed at build time (splitter selection, partition
//!   cuts) record no accesses, so the *measured* work is the data
//!   movement — Θ(n) reads+writes per recursion level over
//!   `O(log log n)` levels plus the sampling reads — slightly below the
//!   claimed `W = O(n log n)` comparison count. The claims column in
//!   Table 1 keeps the paper's bounds.
//! * Degenerate samples (duplicate-heavy inputs) fall back to splitters
//!   drawn from the distinct key values, and single-key buckets merge by
//!   stable concatenation — both deterministic, both preserving the
//!   size-shrinkage the recursion's termination needs.
//!
//! Figures: `table1`, `fig_pws_vs_rws`, `fig_hierarchy`, `fig_bsp`, and
//! `fig_padding` run this row (the last alongside the mergesort
//! stand-in); `trace_report`/`trace_diff` accept it like any registry
//! row. [`crate::cc`] sorts its edge records through `spms_into`, and
//! [`crate::listrank`] routes its predecessor computation through an
//! SPMS sort of `(successor, node)` records.

use hbp_model::{BuildConfig, Builder, Computation, GArray};

use crate::sort::Keyed;
use crate::util::View;

/// Below this size a task reads the remaining elements and writes them
/// out sorted — the O(1) leaf of the merge recursion.
const SPMS_BASE: usize = 8;

/// A sorted run: `v[lo..hi)` in ascending key order.
#[derive(Debug)]
struct Piece<T: Keyed> {
    v: View<T>,
    lo: usize,
    hi: usize,
}

impl<T: Keyed> Clone for Piece<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Keyed> Copy for Piece<T> {}

impl<T: Keyed> Piece<T> {
    fn len(&self) -> usize {
        self.hi - self.lo
    }
}

/// Elements per allocation block for `T` (≥ 1 even when one element
/// spans several blocks).
fn block_elems<T: Keyed>(b: &Builder) -> usize {
    ((b.block_words() as usize) / T::WORDS).max(1)
}

fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Binary BP over `weights.len()` leaves with the given element weights:
/// forks split the index range at the weighted midpoint, so declared task
/// sizes track the number of elements a subtree touches.
fn fanout_weighted(b: &mut Builder, weights: &[usize], leaf: &mut impl FnMut(&mut Builder, usize)) {
    fn rec(
        b: &mut Builder,
        weights: &[usize],
        lo: usize,
        hi: usize,
        leaf: &mut impl FnMut(&mut Builder, usize),
    ) {
        debug_assert!(hi > lo);
        if hi - lo == 1 {
            leaf(b, lo);
            return;
        }
        let total: usize = weights[lo..hi].iter().sum();
        // Split index minimizing weight imbalance, kept interior.
        let mut mid = lo + 1;
        let mut acc = weights[lo];
        while mid < hi - 1 && acc * 2 < total {
            acc += weights[mid];
            mid += 1;
        }
        let (wl, wr) = (acc, total - acc);
        b.fork_with(wl.max(1) as u64, wr.max(1) as u64, |b, right| {
            if right {
                rec(b, weights, mid, hi, leaf)
            } else {
                rec(b, weights, lo, mid, leaf)
            }
        });
    }
    assert!(!weights.is_empty());
    rec(b, weights, 0, weights.len(), leaf);
}

/// Parallel copy BP: `dst[i] = src[i]` for `i < len`, O(1) leaves.
fn copy_bp<T: Keyed>(b: &mut Builder, src: View<T>, dst: View<T>, len: usize) {
    if len == 0 {
        return;
    }
    if len <= 2 {
        for i in 0..len {
            let v = src.read(b, i);
            dst.write(b, i, v);
        }
        return;
    }
    let mid = len / 2;
    b.fork(
        mid as u64,
        (len - mid) as u64,
        |b| copy_bp(b, src, dst, mid),
        |b| copy_bp(b, src.shift(mid), dst.shift(mid), len - mid),
    );
}

/// Leaf: gather the pieces' elements in run order (recorded reads), order
/// them by key at build time (stably — run order is input order), and
/// write each output word once.
fn leaf_merge<T: Keyed>(b: &mut Builder, pieces: &[Piece<T>], dst: View<T>) {
    let mut items: Vec<T> = Vec::new();
    for p in pieces {
        for i in p.lo..p.hi {
            items.push(p.v.read(b, i));
        }
    }
    items.sort_by_key(Keyed::key); // stable: preserves gather order on ties
    for (i, v) in items.into_iter().enumerate() {
        dst.write(b, i, v);
    }
}

/// First index in sorted `p.v[p.lo..p.hi)` whose key exceeds `key`
/// (upper bound), found with unrecorded build-time peeks.
fn upper_bound<T: Keyed>(b: &Builder, p: &Piece<T>, key: u64) -> usize {
    let (mut lo, mut hi) = (p.lo, p.hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if p.v.peek(b, mid).key() <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Splitter keys for ≈ `nb` size-balanced buckets, from the deterministic
/// regular sample. The sampling reads are recorded through a **parallel
/// BP with O(1) leaves** (the merge task's own head stays O(1), Def 3.2);
/// the sampled values feed the build-time splitter selection via peeks.
/// Strictly increasing; may come back shorter than `nb - 1`.
fn sample_splitters<T: Keyed>(b: &mut Builder, pieces: &[Piece<T>], nb: usize) -> Vec<u64> {
    let mut pos: Vec<(usize, usize)> = Vec::new();
    for (pi, p) in pieces.iter().enumerate() {
        let len = p.len();
        let spp = len.min(nb);
        for t in 1..=spp {
            // Regularly spaced sample positions within the sorted run.
            pos.push((pi, p.lo + (t * len / (spp + 1)).min(len - 1)));
        }
    }
    hbp_model::builder::fanout_uniform(b, pos.len(), 1, &mut |b, t| {
        let (pi, idx) = pos[t];
        let _ = pieces[pi].v.read(b, idx);
    });
    let mut sample: Vec<u64> = pos
        .iter()
        .map(|&(pi, idx)| pieces[pi].v.peek(b, idx).key())
        .collect();
    sample.sort_unstable();
    let mut spl: Vec<u64> = (1..nb).map(|j| sample[j * sample.len() / nb]).collect();
    spl.dedup();
    spl
}

/// Fallback splitters when the sample degenerates (duplicate-heavy
/// inputs): the distinct key values themselves, excluding the maximum so
/// every bucket is a strict subset. Build-time peeks only.
fn distinct_splitters<T: Keyed>(b: &Builder, pieces: &[Piece<T>], nb: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::new();
    for p in pieces {
        for i in p.lo..p.hi {
            keys.push(p.v.peek(b, i).key());
        }
    }
    keys.sort_unstable();
    keys.dedup();
    debug_assert!(keys.len() >= 2, "single-key ranges concatenate instead");
    keys.pop(); // strip the maximum: the last bucket must be non-trivial
    let d = keys.len();
    let take = d.min(nb.max(2) - 1);
    let mut spl: Vec<u64> = (1..=take).map(|j| keys[j * d / take - 1]).collect();
    spl.dedup();
    spl
}

/// Cut `pieces` at `splitters`: bucket `j` holds keys in
/// `(splitters[j-1], splitters[j]]` (last bucket unbounded above). Equal
/// keys never straddle a bucket. Returns per-bucket piece lists in run
/// order (stability) with empty buckets removed.
fn partition<T: Keyed>(b: &Builder, pieces: &[Piece<T>], splitters: &[u64]) -> Vec<Vec<Piece<T>>> {
    let nb = splitters.len() + 1;
    let mut buckets: Vec<Vec<Piece<T>>> = vec![Vec::new(); nb];
    for p in pieces {
        let mut lo = p.lo;
        for (j, &s) in splitters.iter().enumerate() {
            let cut = upper_bound(b, &Piece { lo, ..*p }, s);
            if cut > lo {
                buckets[j].push(Piece { lo, hi: cut, ..*p });
            }
            lo = cut;
        }
        if p.hi > lo {
            buckets[nb - 1].push(Piece { lo, ..*p });
        }
    }
    buckets.retain(|pcs| !pcs.is_empty());
    buckets
}

/// Merge sorted `pieces` (ascending, run order = stability order) into
/// `dst[0..m)` by the SPMS sample–partition recursion.
fn merge_pieces<T: Keyed>(b: &mut Builder, pieces: &[Piece<T>], dst: View<T>, m: usize) {
    debug_assert_eq!(m, pieces.iter().map(Piece::len).sum::<usize>());
    if pieces.len() == 1 {
        copy_bp(b, pieces[0].v.shift(pieces[0].lo), dst, m);
        return;
    }
    if m <= SPMS_BASE {
        leaf_merge(b, pieces, dst);
        return;
    }
    // Single-key ranges are already merged: stable concatenation.
    let first_key = pieces[0].v.peek(b, pieces[0].lo).key();
    let single_key = pieces
        .iter()
        .all(|p| p.v.peek(b, p.lo).key() == first_key && p.v.peek(b, p.hi - 1).key() == first_key);
    if single_key {
        let weights: Vec<usize> = pieces.iter().map(Piece::len).collect();
        let offs: Vec<usize> = weights
            .iter()
            .scan(0, |acc, &w| {
                let o = *acc;
                *acc += w;
                Some(o)
            })
            .collect();
        fanout_weighted(b, &weights, &mut |b, i| {
            let p = pieces[i];
            copy_bp(b, p.v.shift(p.lo), dst.shift(offs[i]), p.len());
        });
        return;
    }

    // Sample → splitters → size-balanced buckets (upper-bound cuts keep
    // equal keys together). A degenerate sample (no progress: one bucket
    // kept everything) falls back to distinct-value splitters.
    let nb = (m as f64).sqrt().ceil() as usize;
    let mut splitters = sample_splitters(b, pieces, nb.max(2));
    let mut buckets = partition(b, pieces, &splitters);
    if buckets
        .iter()
        .any(|pcs| pcs.iter().map(Piece::len).sum::<usize>() == m)
    {
        splitters = distinct_splitters(b, pieces, nb.max(2));
        buckets = partition(b, pieces, &splitters);
    }
    debug_assert!(buckets.len() >= 2, "partition must make progress");

    // Gapped output buffer: per-bucket capacity rounded up to whole
    // blocks, so no two buckets' writers share a block interior.
    let blk = block_elems::<T>(b);
    let sizes: Vec<usize> = buckets
        .iter()
        .map(|pcs| pcs.iter().map(Piece::len).sum())
        .collect();
    let mut gaps: Vec<usize> = Vec::with_capacity(sizes.len());
    let mut cap = 0usize;
    for &s in &sizes {
        gaps.push(cap);
        cap += round_up(s, blk);
    }
    let gapped = b.local_array::<T>(cap);
    let gv = View::l(gapped);

    // Recursive merges, one per bucket, into the gapped buffer.
    fanout_weighted(b, &sizes, &mut |b, j| {
        merge_pieces(b, &buckets[j], gv.shift(gaps[j]), sizes[j]);
    });

    // Compaction: gapped → contiguous dst (each word written once).
    let mut prefix = 0usize;
    let dsts: Vec<usize> = sizes
        .iter()
        .map(|&s| {
            let o = prefix;
            prefix += s;
            o
        })
        .collect();
    fanout_weighted(b, &sizes, &mut |b, j| {
        copy_bp(b, gv.shift(gaps[j]), dst.shift(dsts[j]), sizes[j]);
    });
}

/// Sort `src[lo..hi)` into `dst[0..hi-lo)` — the SPMS recursion: ≈ `√n`
/// chunks sorted recursively into a block-gapped buffer declared by this
/// task, then merged by sample–partition. Drop-in for
/// [`crate::sort::sort_rec`] (same signature), used by [`crate::cc`] and
/// [`crate::listrank`].
pub(crate) fn spms_into<T: Keyed>(
    b: &mut Builder,
    src: View<T>,
    dst: View<T>,
    lo: usize,
    hi: usize,
) {
    let n = hi - lo;
    debug_assert!(n >= 1);
    if n <= SPMS_BASE {
        let piece = Piece { v: src, lo, hi };
        leaf_merge(b, &[piece], dst);
        return;
    }
    // ≈ √n chunks of ≈ √n elements each.
    let chunks = (n as f64).sqrt().ceil() as usize;
    let q = n.div_ceil(chunks);
    let mut lens: Vec<usize> = Vec::with_capacity(chunks);
    let mut rem = n;
    while rem > 0 {
        let l = rem.min(q);
        lens.push(l);
        rem -= l;
    }
    // Gapped chunk buffer: block-aligned chunk origins (Def 3.6 fresh
    // storage; concurrent chunk sorts never share an output block).
    let blk = block_elems::<T>(b);
    let mut offs: Vec<usize> = Vec::with_capacity(lens.len());
    let mut cap = 0usize;
    for &l in &lens {
        offs.push(cap);
        cap += round_up(l, blk);
    }
    let buf = b.local_array::<T>(cap);
    let bv = View::l(buf);
    fanout_weighted(b, &lens, &mut |b, i| {
        spms_into(b, src, bv.shift(offs[i]), lo + i * q, lo + i * q + lens[i]);
    });
    let pieces: Vec<Piece<T>> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| Piece {
            v: bv,
            lo: offs[i],
            hi: offs[i] + l,
        })
        .collect();
    merge_pieces(b, &pieces, dst, n);
}

/// SPMS-sort `data` (any [`Keyed`] element), returning the computation
/// and the sorted output array. The companion of
/// [`crate::sort::mergesort`] — same signature, the real algorithm.
pub fn spms<T: Keyed>(data: &[T], cfg: BuildConfig) -> (Computation, GArray<T>) {
    assert!(!data.is_empty());
    let n = data.len();
    let mut out_h = None;
    let comp = Builder::build(cfg, n as u64, |b| {
        let src = b.input(data);
        let dst = b.alloc::<T>(n);
        out_h = Some(dst);
        spms_into(b, View::g(src), View::g(dst), 0, n);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle;
    use crate::util::read_out;
    use hbp_model::analysis;

    fn keyed(n: usize, modulo: u64, seed: u64) -> Vec<(u64, u64)> {
        gen::random_u64s(n, modulo, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64))
            .collect()
    }

    #[test]
    fn sorts_correctly_including_non_powers_of_two() {
        for n in [1usize, 2, 3, 7, 8, 9, 65, 100, 257, 1000] {
            let data = keyed(n, (n as u64) * 2, 42);
            let (comp, out) = spms(&data, BuildConfig::default());
            assert_eq!(
                read_out(&comp, out),
                oracle::sort_pairs(&data),
                "n={n} (payload equality = stability)"
            );
        }
    }

    #[test]
    fn stable_on_duplicate_heavy_inputs() {
        for modulo in [1u64, 2, 3, 10] {
            let data = keyed(300, modulo, 7);
            let (comp, out) = spms(&data, BuildConfig::default());
            assert_eq!(
                read_out(&comp, out),
                oracle::sort_pairs(&data),
                "modulo={modulo}"
            );
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        let n = 100usize;
        let asc: Vec<u64> = (0..n as u64).collect();
        let desc: Vec<u64> = (0..n as u64).rev().collect();
        let eq: Vec<u64> = vec![7; n];
        let two: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        for data in [asc, desc, eq, two] {
            let (comp, out) = spms(&data, BuildConfig::default());
            let mut want = data.clone();
            want.sort_unstable();
            assert_eq!(read_out(&comp, out), want);
        }
    }

    #[test]
    fn limited_access_every_output_word_written_once() {
        let data = keyed(257, 1 << 30, 3);
        let (c, _) = spms(&data, BuildConfig::default());
        let (g, l) = analysis::write_counts(&c);
        assert!(g <= 1, "global words written once, got {g}");
        assert!(l <= 1, "gapped buffer words written once, got {l}");
    }

    #[test]
    fn span_is_polylog_and_work_below_mergesort() {
        let data = keyed(1 << 10, 1 << 40, 5);
        let (c, _) = spms(&data, BuildConfig::default());
        let s = analysis::span(&c);
        assert!(s < 1024 * 4, "span {s} should be polylog");
        let (cm, _) = crate::sort::mergesort(&data, BuildConfig::default());
        assert!(
            c.work() < cm.work(),
            "SPMS work {} must undercut the O(n log² n) stand-in {}",
            c.work(),
            cm.work()
        );
    }

    #[test]
    fn build_is_deterministic() {
        let data = keyed(777, 50, 9);
        let (a, ah) = spms(&data, BuildConfig::default());
        let (b, bh) = spms(&data, BuildConfig::default());
        assert_eq!(a.work(), b.work());
        assert_eq!(a.n_priorities, b.n_priorities);
        assert_eq!(read_out(&a, ah), read_out(&b, bh));
    }

    #[test]
    fn gapped_buffers_are_block_aligned() {
        // With block_words = 8 and (u64,u64) elements (2 words), bucket
        // capacities round to multiples of 4 elements; heap usage must
        // exceed the dense footprint (the gaps are real).
        let data = keyed(512, 1 << 20, 11);
        let (gapped, _) = spms(&data, BuildConfig::with_block(64));
        let (snug, _) = spms(&data, BuildConfig::with_block(2));
        let frames_gapped: u32 = gapped.nodes.iter().map(|n| n.frame_words).sum();
        let frames_snug: u32 = snug.nodes.iter().map(|n| n.frame_words).sum();
        assert!(
            frames_gapped > frames_snug,
            "block-aligned gaps must grow the stack footprint: {frames_gapped} vs {frames_snug}"
        );
    }
}
