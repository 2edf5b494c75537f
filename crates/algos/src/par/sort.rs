//! Merge sort and SPMS over `(key, payload)` pairs, and their shared
//! sequential leaf sort.

use std::mem::MaybeUninit;

use super::carve::{
    debug_assert_line_start, fresh, line_aligned, line_up, overwrite, whole_lines, workspace,
    written, LINE_PAIRS,
};
use super::{pjoin, SEQ_CUTOFF};

/// Sort `data` by key, stably, with `scratch` of the same length, which
/// may start uninitialised; the result lands in `scratch` if
/// `into_scratch`, else in `data`. The halves sort (forked) into the
/// *other* buffer, so the one merge per level ([`merge_split`]) is also
/// the move back — no copies above the leaves — and `scratch` is written
/// whole before any of it is read. Both buffers split at the same line
/// multiple from their start, so whichever of them is workspace (it
/// starts on a line: [`par_mergesort`]'s scratch, an SPMS bucket's arena
/// window as `data`) hands its forked halves whole lines; the other is
/// caller data and shares one line per split at most.
fn msort_rec(data: &mut [(u64, u64)], scratch: &mut [MaybeUninit<(u64, u64)>], into_scratch: bool) {
    if data.len() <= SEQ_CUTOFF {
        if into_scratch {
            seq_sort(data, scratch);
        } else {
            seq_sort_back(data, scratch);
        }
        return;
    }
    let mid = line_up(data.len() / 2);
    let (dl, dr) = data.split_at_mut(mid);
    let (sl, sr) = scratch.split_at_mut(mid);
    pjoin(
        || msort_rec(dl, sl, !into_scratch),
        || msort_rec(dr, sr, !into_scratch),
    );
    if into_scratch {
        merge_split(&data[..mid], &data[mid..], fresh(scratch));
    } else {
        // The halves sorted into `scratch`, writing all of it;
        // `merge_split` writes every element of `data`.
        let src = written(scratch);
        overwrite(data, |dst| merge_split(&src[..mid], &src[mid..], dst));
    }
}

/// Output elements at or below which a merge is one sequential
/// `merge2`: the merges near the root of a sort are few and long, and
/// left whole they are its critical path.
const MERGE_GRAIN: usize = 1 << 14;

/// `merge2`, forked at the output midpoint down to [`MERGE_GRAIN`].
fn merge_split(l: &[(u64, u64)], r: &[(u64, u64)], out: &mut [MaybeUninit<(u64, u64)>]) {
    if out.len() <= MERGE_GRAIN {
        return merge2(l, r, out);
    }
    let mid = out.len() / 2;
    // Co-rank: the first `mid` elements of the stable merge are l[..i]
    // and r[..mid - i] for the smallest i with r[mid - i - 1] < l[i] (the
    // predicate is monotone in i; at i - 1 it fails, which is
    // l[i - 1] <= r[mid - i]: ties stay left on both sides of the cut).
    let (mut lo, mut hi) = (mid.saturating_sub(r.len()), mid.min(l.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if r[mid - i - 1].0 < l[i].0 {
            hi = i;
        } else {
            lo = i + 1;
        }
    }
    let (i, j) = (lo, mid - lo);
    let (ol, or) = out.split_at_mut(mid);
    pjoin(
        || merge_split(&l[..i], &r[..j], ol),
        || merge_split(&l[i..], &r[j..], or),
    );
}

/// Parallel mergesort over `(key, payload)` pairs, stable on keys.
pub fn par_mergesort(data: &mut [(u64, u64)]) {
    let n = data.len();
    let mut ws = workspace(n);
    let scratch = &mut line_aligned(ws.spare_capacity_mut())[..n];
    debug_assert_line_start(scratch);
    msort_rec(data, scratch, false);
}

/// Consecutive takes from one side before the middle section of
/// `merge2` switches from the select loop to a binary-search bulk copy.
const GALLOP: usize = 32;

/// Stable 2-way merge of the sorted runs `l` then `r` into `out`
/// (`l` wins key ties, so run order is input order). Writes every
/// element of `out` once and reads none, so `out` may start
/// uninitialised.
///
/// **Two ends at once.** With `k = min(|l|, |r|)`, the `k` smallest
/// elements of the result are a prefix of each run and the `k` largest a
/// suffix of each, and `2k ≤ |out|`, so one loop takes a front element
/// and a back element per step without either side running dry: front
/// ties go to `l`, back ties to `r`, which is the stable order from both
/// directions. The two selections are independent dependency chains (a
/// select loop is bound by the latency of compare → cursor → next load,
/// not by throughput), so the core overlaps them; for runs of equal
/// length — every merge of a balanced sort — that loop is the whole merge.
///
/// **The middle**, what unequal runs leave between the two ends, goes
/// through a select loop with block-granular streak detection: after
/// every [`GALLOP`] selections the cursors say whether one side won the
/// whole block, and if so the merge gallops — a binary search plus a bulk
/// `copy_from_slice` — so a short run against a long one degrades toward
/// memcpy. Every selection is a boolean the compiler lowers to
/// conditional moves: random keys cost no branch mispredictions.
/// Deliberately unsafe-free; the `#[cfg(test)]` equivalence suite below
/// pins this shape against a naive reference merge.
fn merge2(l: &[(u64, u64)], r: &[(u64, u64)], out: &mut [MaybeUninit<(u64, u64)>]) {
    debug_assert_eq!(l.len() + r.len(), out.len());
    let k = l.len().min(r.len());
    let total = out.len();
    let (front, rest) = out.split_at_mut(k);
    let (out, back) = rest.split_at_mut(total - 2 * k);
    // Step t has taken t elements at each end, so the r cursors follow
    // from the l cursors (two live cursors instead of four keeps the loop
    // in registers): front j = t - i, back je = total - t - ie. Fewer
    // than k are gone from either end of either run, so every index is
    // in range.
    let (mut i, mut ie) = (0usize, l.len());
    for (t, (f, b)) in front.iter_mut().zip(back.iter_mut().rev()).enumerate() {
        let j = t - i;
        let take_l = l[i].0 <= r[j].0;
        f.write(if take_l { l[i] } else { r[j] });
        i += usize::from(take_l);
        let je = total - t - ie;
        let take_r = l[ie - 1].0 <= r[je - 1].0;
        b.write(if take_r { r[je - 1] } else { l[ie - 1] });
        ie -= usize::from(!take_r);
    }
    let (j, je) = (k - i, total - k - ie);
    let (l, r) = (&l[i..ie], &r[j..je]);
    let (mut i, mut j, mut w) = (0usize, 0usize, 0usize);
    while i < l.len() && j < r.len() {
        let (i0, j0) = (i, j);
        let mut steps = GALLOP;
        while steps > 0 && i < l.len() && j < r.len() {
            let take_l = l[i].0 <= r[j].0;
            out[w].write(if take_l { l[i] } else { r[j] });
            i += usize::from(take_l);
            j += usize::from(!take_l);
            w += 1;
            steps -= 1;
        }
        if i < l.len() && j < r.len() {
            if j == j0 && i - i0 == GALLOP {
                // Left swept the whole block: everything still ≤ the
                // right head goes in one copy (ties stay left).
                let take = l[i..].partition_point(|p| p.0 <= r[j].0);
                out[w..w + take].write_copy_of_slice(&l[i..i + take]);
                i += take;
                w += take;
            } else if i == i0 && j - j0 == GALLOP {
                // Right sweep: strictly below the left head (ties left).
                let take = r[j..].partition_point(|p| p.0 < l[i].0);
                out[w..w + take].write_copy_of_slice(&r[j..j + take]);
                j += take;
                w += take;
            }
        }
    }
    out[w..w + (l.len() - i)].write_copy_of_slice(&l[i..]);
    out[w + (l.len() - i)..].write_copy_of_slice(&r[j..]);
}

/// Digit buckets a `seq_sort` leaf opens at most: `2^LEAF_DIGIT_BITS`
/// `u32` counters on the stack (8 KiB), one per element of the largest
/// leaf the sorts cut.
const LEAF_DIGIT_BITS: u32 = 11;

/// Largest digit bucket `seq_sort` still finishes by insertion sort;
/// one bucket above it sends the whole leaf to [`tag_sort`].
const LEAF_BUCKET_MAX: u32 = 32;

/// Which path a `seq_sort` leaf took (the tests pin it per input).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leaf {
    /// Keys already non-decreasing: copied.
    Copy,
    /// Keys strictly decreasing: copied back to front.
    Reverse,
    /// Scattered by a key digit, buckets insertion-sorted.
    Digits,
    /// [`tag_sort`].
    Tags,
}

/// Sequential stable sort by key of `src` into `out` (same length),
/// allocation-free. `out` may start uninitialised: every path writes all
/// of it before reading any. Each step is picked by what the leaf sees in
/// its own input:
///
/// 1. One pre-pass finds the key range `lo..=hi` and counts descents.
///    None: `src` is sorted, and is copied. All of them: `src` is
///    strictly decreasing (no ties to keep in order), and is copied
///    reversed.
/// 2. Otherwise a stack histogram counts the digit `(key − lo) >> shift`
///    — the ≈ ⌈log₂ m⌉ bits just below the highest bit of `hi − lo`, so
///    digits rise with keys. If no bucket holds more than
///    [`LEAF_BUCKET_MAX`] elements, `src` is scattered stably into `out`
///    by digit and one insertion pass finishes every bucket: an element
///    moves only past strictly greater keys, so ties stay in input order,
///    and never past its bucket's start, since earlier buckets hold
///    strictly smaller keys. Keys spread over their range (the sorts' leaf
///    chunks and buckets of random keys) cost 6.5–8 ns an element instead
///    of the tag sort's 19–20 (fresh random leaves of 363–2 048 pairs, on
///    a 2-vCPU Xeon guest).
/// 3. The first bucket to overfill (few distinct keys, skew, or a leaf
///    longer than `LEAF_BUCKET_MAX · 2^LEAF_DIGIT_BITS`) stops the count
///    and sends the leaf to [`tag_sort`], so the worst case stays
///    O(m log m) and no counter passes `LEAF_BUCKET_MAX + 1`.
fn seq_sort(src: &[(u64, u64)], out: &mut [MaybeUninit<(u64, u64)>]) -> Leaf {
    debug_assert_eq!(src.len(), out.len());
    let m = src.len();
    let (mut lo, mut hi, mut descents) = (u64::MAX, 0u64, 0usize);
    let mut prev = src.first().map_or(0, |p| p.0);
    for &(key, _) in src {
        lo = lo.min(key);
        hi = hi.max(key);
        descents += usize::from(key < prev);
        prev = key;
    }
    if descents == 0 {
        out.write_copy_of_slice(src);
        return Leaf::Copy;
    }
    if descents == m - 1 {
        for (o, s) in out.iter_mut().zip(src.iter().rev()) {
            o.write(*s);
        }
        return Leaf::Reverse;
    }
    // ⌈log₂ m⌉ digit bits (m ≥ 2 here), at most the histogram's.
    let bits = (usize::BITS - (m - 1).leading_zeros()).min(LEAF_DIGIT_BITS);
    let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bits);
    let digit = |key: u64| ((key - lo) >> shift) as usize;
    let mut count = [0u32; 1 << LEAF_DIGIT_BITS];
    let count = &mut count[..=digit(hi)];
    for &(key, _) in src {
        let c = &mut count[digit(key)];
        *c += 1;
        if *c > LEAF_BUCKET_MAX {
            tag_sort(src, out);
            return Leaf::Tags;
        }
    }
    let mut start = 0u32;
    for c in count.iter_mut() {
        (*c, start) = (start, start + *c);
    }
    for &p in src {
        let at = &mut count[digit(p.0)];
        out[*at as usize].write(p);
        *at += 1;
    }
    // The bucket starts are the exclusive prefix sums of the counts, so
    // the buckets tile `0..m` and the scatter wrote each position once.
    let out = written(out);
    for i in 1..m {
        let p = out[i];
        let mut j = i;
        while j > 0 && out[j - 1].0 > p.0 {
            out[j] = out[j - 1];
            j -= 1;
        }
        out[j] = p;
    }
    Leaf::Digits
}

/// `seq_sort`'s general case: tag every key with its position, sort the
/// `(key, position)` pairs *unstably* as one 128-bit integer each —
/// positions are distinct, so that order is the stable one — then swap
/// each position for the payload it names. On random pairs 0.8–0.9× the
/// time of `sort_by_key` (slices of 362 to 2^17), without its temporary
/// buffer.
fn tag_sort(src: &[(u64, u64)], out: &mut [MaybeUninit<(u64, u64)>]) {
    for (i, (o, s)) in out.iter_mut().zip(src).enumerate() {
        o.write((s.0, i as u64));
    }
    // The loop wrote every element of `out`.
    let out = written(out);
    out.sort_unstable_by_key(|&(key, at)| (u128::from(key) << 64) | u128::from(at));
    for o in out.iter_mut() {
        o.1 = src[o.1 as usize].1;
    }
}

/// `seq_sort` of `data` in place, through `scratch` (same length).
fn seq_sort_back(data: &mut [(u64, u64)], scratch: &mut [MaybeUninit<(u64, u64)>]) {
    seq_sort(data, scratch);
    // `seq_sort` writes every element of its output.
    data.copy_from_slice(written(scratch));
}

/// Slices up to this long are one `seq_sort` in [`spms_rec`] (and get
/// the scratch for one in `arena_len`): a level over fewer elements is
/// ≈ √n chunk sorts of ≈ √n elements each plus the sample, the cuts and
/// the bucket pass, and below a few leaf sorts' worth of input that costs
/// more than it forks away — at n = 2048, 46 chunks of 45 elements took
/// 2.4× the one leaf sort. One leaf sort also wins at n = 4096 (61 µs
/// against 126–133 on two workers), but the benchmark's task-count guard
/// pins that 4096 forks and 2048 does not, so the boundary sits here
/// until that size list moves.
const SPMS_CUTOFF: usize = 2 * SEQ_CUTOFF;

/// `(nb, q)` of an SPMS level over `n` elements: at most `nb = ⌈√n⌉`
/// buckets, and chunks `q = ⌈n / nb⌉` wide (so at most `nb` of them).
fn spms_geometry(n: usize) -> (usize, usize) {
    let nb = (n as f64).sqrt().ceil() as usize;
    (nb, n.div_ceil(nb))
}

/// Scratch (in pairs) that [`spms_rec`] needs for a slice of `n`
/// elements: one line-gapped bucket arena for the gather, or the sum of
/// the chunk sorts' needs — whichever is larger, since the two phases
/// never overlap in time. Sub-cutoff slices need `n` for `seq_sort`'s
/// output. Always a whole number of lines, so sibling sub-arenas carved
/// at this stride start on line boundaries.
fn arena_len(n: usize) -> usize {
    if n <= SPMS_CUTOFF {
        return line_up(n);
    }
    let (_, q) = spms_geometry(n);
    let chunks = n.div_ceil(q);
    // ≤ one line of gap rounding per bucket, buckets ≤ chunks.
    let buckets = line_up(n) + chunks * LINE_PAIRS;
    let sort = chunks * arena_len(q);
    buckets.max(sort)
}

/// Samples a full chunk contributes to the splitter sample; with about as
/// many chunks as buckets, also the sample's size per bucket.
const OVERSAMPLE: usize = 8;

/// Keys a sorted chunk of `len` elements contributes to the sample of a
/// level of `q`-wide chunks: in proportion to its length, never more than
/// a quarter of it.
fn samples_of(len: usize, q: usize) -> usize {
    (len * OVERSAMPLE / q).min(len / 4)
}

/// Step 2 of an SPMS level: the ascending, distinct splitters of `data`,
/// whose `q`-wide chunks are sorted, for at most `nb` buckets.
///
/// Deterministic regular sampling (PSRS-style — a fixed input gives a
/// fixed partition on every run). A chunk contributes evenly spaced keys
/// ([`samples_of`]: `spp` = [`OVERSAMPLE`] for a full one), so the sample
/// is ≈ `OVERSAMPLE · nb` keys at every size (364 of 2 048 keys at
/// n = 2 048, where a floor of 32 per chunk used to copy and sort 1 463)
/// and sorting it is noise.
/// Chunk `c` of `C` samples the ranks `(t + c/C) · len / spp`: were every
/// chunk to start at the same rank, no sample would come from below it,
/// and on an input in random order the first and last bucket would each
/// hold `n / OVERSAMPLE` elements. Every `|sample| / nb`-th sample key is
/// a splitter.
///
/// **Bucket bound.** A chunk's adjacent samples are ≤ `g = ⌈q/spp⌉` ranks
/// apart, so a chunk with `m` samples inside a bucket's key range has
/// < `(m + 2) · g` elements there; over all chunks `Σm` is the
/// `≈ OVERSAMPLE` samples between two splitters (distinct keys), so a
/// bucket holds at most about `(OVERSAMPLE + 2C) · g ≈ q + 2n/OVERSAMPLE`
/// elements: a constant fraction of `n` in the worst case, not the O(q)
/// that a Θ(n)-key sample buys. Nothing rests on balance any more — a
/// bucket of any size is sorted in O(m log m), forked above the cutoff
/// (`spms_sort_buckets`) — and on keys in random order the staggered
/// sample is a uniform one: buckets of `q · (1 ± O(1/√OVERSAMPLE))`, the
/// largest of the 363 at n = 2^17 about 2.5 q.
fn spms_splitters(data: &[(u64, u64)], q: usize, nb: usize) -> Vec<u64> {
    let nchunks = data.len().div_ceil(q);
    let mut sample: Vec<u64> = Vec::with_capacity(nchunks * OVERSAMPLE);
    for (c, chunk) in data.chunks(q).enumerate() {
        let len = chunk.len();
        let spp = samples_of(len, q);
        sample.extend((0..spp).map(|t| chunk[(t * nchunks + c) * len / (spp * nchunks)].0));
    }
    sample.sort_unstable();
    let mut splitters: Vec<u64> = (1..nb).map(|j| sample[j * sample.len() / nb]).collect();
    splitters.dedup();
    splitters
}

/// Row stride of an SPMS level's `cuts` table: `nbuckets + 1` borders,
/// padded to whole lines so forked rows never share one.
fn cut_stride(nbuckets: usize) -> usize {
    whole_lines::<usize>(nbuckets + 1)
}

/// Row stride of an SPMS level's bucket-id table: one `u16` per element
/// of a `q`-wide chunk, padded to whole lines.
fn id_stride(q: usize) -> usize {
    whole_lines::<u16>(q)
}

/// One chunk row's merge-path walk against the splitters
/// (`spms_partition`): `lo` is the element cursor, `si` the splitter
/// cursor. It writes every slot of its two rows, padding included.
struct CutWalk<'a> {
    chunk: &'a [(u64, u64)],
    row: &'a mut [MaybeUninit<usize>],
    ids: &'a mut [MaybeUninit<u16>],
    lo: usize,
    si: usize,
}

impl CutWalk<'_> {
    fn live(&self, splitters: &[u64]) -> bool {
        self.lo < self.chunk.len() && self.si < splitters.len()
    }

    /// Advance one cursor by a flag, not a branch. A border or id a later
    /// step moves is simply stored again: element `lo` keeps the id of
    /// the step that passes it.
    fn step(&mut self, splitters: &[u64]) {
        let below = self.chunk[self.lo].0 <= splitters[self.si];
        self.row[self.si + 1].write(self.lo);
        self.ids[self.lo].write(self.si as u16);
        self.lo += usize::from(below);
        self.si += usize::from(!below);
    }

    /// Walk to the end, then close the row and give every element past
    /// the last splitter the last bucket. Every border and id below the
    /// cursors was stored by a step; the rest, and the rows' padding, are
    /// stored here.
    fn finish(mut self, splitters: &[u64]) {
        while self.live(splitters) {
            self.step(splitters);
        }
        let len = self.chunk.len();
        self.row[0].write(0);
        for border in &mut self.row[self.si + 1..] {
            border.write(len);
        }
        for id in &mut self.ids[self.lo..] {
            id.write(splitters.len() as u16);
        }
    }
}

/// Step 3 of an SPMS level: sorted chunk `c` gets its bucket borders in
/// row `c` of `cuts` — `row[j]..row[j+1]` is its run for bucket `j` —
/// and the bucket of each of its elements in row `c` of `ids`, by an
/// upper-bound cut at every splitter, so equal keys never straddle a
/// bucket. Rows are [`cut_stride`] and [`id_stride`] wide, and both
/// tables start on a line, so the fork over chunk rows hands each task
/// whole lines of each.
///
/// Splitters ascend and there are about as many as the chunk has
/// elements, so one merge-path walk places every border in
/// `len + nbuckets` steps, each advancing the element or the splitter
/// cursor by a flag instead of a branch — the run lengths are ≈ 1 and
/// random, which no branch predictor follows. A walk is one dependent
/// compare → cursor → load chain, so a leaf walks two rows in lockstep
/// and the core overlaps the two chains.
fn spms_partition(
    data: &[(u64, u64)],
    q: usize,
    splitters: &[u64],
    cuts: &mut [MaybeUninit<usize>],
    ids: &mut [MaybeUninit<u16>],
) {
    let (cs, is) = (cut_stride(splitters.len() + 1), id_stride(q));
    let rows = cuts.len() / cs;
    if rows > 1 && data.len() > SEQ_CUTOFF {
        let mid = rows / 2;
        let (dl, dr) = data.split_at(mid * q);
        let (cl, cr) = cuts.split_at_mut(mid * cs);
        let (il, ir) = ids.split_at_mut(mid * is);
        debug_assert_line_start(cr);
        debug_assert_line_start(ir);
        pjoin(
            || spms_partition(dl, q, splitters, cl, il),
            || spms_partition(dr, q, splitters, cr, ir),
        );
        return;
    }
    let mut walks = data
        .chunks(q)
        .zip(cuts.chunks_exact_mut(cs).zip(ids.chunks_exact_mut(is)))
        .map(|(chunk, (row, ids))| CutWalk {
            chunk,
            row,
            ids,
            lo: 0,
            si: 0,
        });
    while let Some(mut a) = walks.next() {
        if let Some(mut b) = walks.next() {
            while a.live(splitters) && b.live(splitters) {
                a.step(splitters);
                b.step(splitters);
            }
            b.finish(splitters);
        }
        a.finish(splitters);
    }
}

/// Total size of each of `nbuckets` buckets, accumulated row-major (the
/// `cuts` layout) instead of striding a column per bucket.
fn bucket_sizes(cuts: &[usize], nbuckets: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; nbuckets];
    for row in cuts.chunks_exact(cut_stride(nbuckets)) {
        for (size, b) in sizes.iter_mut().zip(row.windows(2)) {
            *size += b[1] - b[0];
        }
    }
    sizes
}

/// Buckets whose runs one gather leaf collects: enough that a chunk's
/// contribution to the group is a contiguous span of a few lines, few
/// enough that the group's write cursors and open lines stay in L1.
const GATHER_GROUP: usize = 32;

/// Read-only geometry of one SPMS level, shared by the gather recursion.
struct SpmsCx<'a> {
    /// Chunk width of the level.
    q: usize,
    /// Per-chunk bucket borders, [`cut_stride`]-strided by chunk.
    cuts: &'a [usize],
    /// Per-element bucket ids, [`id_stride`]-strided by chunk.
    ids: &'a [u16],
    /// Total size of each bucket.
    sizes: &'a [usize],
}

/// Bucket phase A of one level: gather the runs of buckets `[blo, bhi)`
/// out of `data` into `a`, which starts at bucket `blo`'s origin of the
/// line-gapped arena. Forked down to groups of ≤ [`GATHER_GROUP`]
/// buckets along line-gapped borders, so no two writers share a
/// cache-line interior. A leaf walks chunk-major: the group's runs in a
/// chunk are one contiguous span, from its first bucket's cut to its
/// last bucket's, and each element of it goes to the cursor its bucket
/// id names — one pass with no per-(chunk, bucket) loop, whose ≈ 1-element
/// trip counts no branch predictor follows. A bucket receives its runs
/// in chunk order — input order, which is what keeps the leaf sort that
/// follows stable.
fn spms_gather(
    data: &[(u64, u64)],
    blo: usize,
    bhi: usize,
    a: &mut [MaybeUninit<(u64, u64)>],
    cx: &SpmsCx<'_>,
) {
    debug_assert_line_start(a);
    if bhi - blo > GATHER_GROUP {
        let mid = blo + (bhi - blo) / 2;
        let cut: usize = cx.sizes[blo..mid].iter().map(|&s| line_up(s)).sum();
        let (al, ar) = a.split_at_mut(cut);
        pjoin(
            || spms_gather(data, blo, mid, al, cx),
            || spms_gather(data, mid, bhi, ar, cx),
        );
        return;
    }
    // Write cursor of each bucket of the group, from its gapped origin.
    let mut at = [0usize; GATHER_GROUP];
    let mut origin = 0usize;
    for (w, &s) in at.iter_mut().zip(&cx.sizes[blo..bhi]) {
        *w = origin;
        origin += line_up(s);
    }
    let (cs, is) = (cut_stride(cx.sizes.len()), id_stride(cx.q));
    for ((chunk, row), ids) in data
        .chunks(cx.q)
        .zip(cx.cuts.chunks_exact(cs))
        .zip(cx.ids.chunks_exact(is))
    {
        let (from, to) = (row[blo], row[bhi]);
        for (&p, &id) in chunk[from..to].iter().zip(&ids[from..to]) {
            let w = &mut at[usize::from(id) - blo];
            a[*w].write(p);
            *w += 1;
        }
    }
}

/// Bucket phase B of one level: sort every gathered bucket of `a` (one
/// per entry of `sizes`, at line-gapped origins) into its window of
/// `dest`, forked per bucket, writing all of `dest`. A bucket is
/// ≈ q = √n unordered-between-runs elements, so one stable leaf sort
/// does what ⌈log₂ chunks⌉ rounds of pairwise merges of its ≈ 1-element
/// runs would; a bucket above the cutoff (skewed or duplicate-heavy keys)
/// is a forked [`msort_rec`] whose scratch is the bucket's own `dest`
/// window — free, because the barrier after the gather retired `data` as
/// a source.
fn spms_sort_buckets(
    dest: &mut [MaybeUninit<(u64, u64)>],
    a: &mut [MaybeUninit<(u64, u64)>],
    sizes: &[usize],
) {
    debug_assert_line_start(a);
    if sizes.len() > 1 {
        let (sl, sr) = sizes.split_at(sizes.len() / 2);
        let (dl, dr) = dest.split_at_mut(sl.iter().sum());
        let (al, ar) = a.split_at_mut(sl.iter().map(|&s| line_up(s)).sum());
        pjoin(
            || spms_sort_buckets(dl, al, sl),
            || spms_sort_buckets(dr, ar, sr),
        );
        return;
    }
    let m = sizes[0];
    // The gather wrote the bucket's `m` elements at its origin.
    let bucket = written(&mut a[..m]);
    // At or below the cutoff this is one `seq_sort` into `dest`.
    msort_rec(bucket, &mut dest[..m], true);
}

/// Recursive chunk-sort pass: apply [`spms_rec`] to each `q`-wide window
/// of `data`, carving each window's scratch out of the shared arena at a
/// uniform `per`-pair stride (the windows run concurrently, so their
/// scratch must be disjoint).
fn spms_sort_chunks(
    data: &mut [(u64, u64)],
    q: usize,
    arena: &mut [MaybeUninit<(u64, u64)>],
    per: usize,
) {
    debug_assert_line_start(arena);
    if data.len() <= q {
        if !data.is_empty() {
            spms_rec(data, arena);
        }
        return;
    }
    let chunks = data.len().div_ceil(q);
    let mid = chunks / 2;
    let (dl, dr) = data.split_at_mut(mid * q);
    let (al, ar) = arena.split_at_mut(mid * per);
    pjoin(
        || spms_sort_chunks(dl, q, al, per),
        || spms_sort_chunks(dr, q, ar, per),
    );
}

/// Parallel SPMS (Sample, Partition and Merge Sort) over `(key, payload)`
/// pairs — the native counterpart of [`crate::spms`], stable on keys.
///
/// 1. ≈ `√n` chunks are sorted recursively in parallel;
/// 2. a deterministic regular sample of the sorted chunks yields the
///    splitters (`spms_splitters`);
/// 3. every chunk is cut at the splitters by a forked, branch-free
///    merge-path walk that also gives each element its bucket id
///    (`spms_partition`);
/// 4. the buckets are rebuilt in two forked passes with a barrier
///    between them: groups of buckets gather their runs out of `data`
///    by id into a line-gapped arena (`spms_gather`), then every bucket is
///    sorted from the arena into its final window of `data`
///    (`spms_sort_buckets`). With ≈ `√n` chunks *and* ≈ `√n` buckets a
///    (chunk, bucket) run holds about one element, so "merging" a
///    bucket's runs pairwise is a merge sort from singletons; one leaf
///    sort per bucket does the same work in one pass. The arena starts on
///    a cache-line boundary and bucket origins are line multiples, so no
///    two bucket writers share a line interior — the false-sharing story
///    of the paper, for real.
///
/// One arena allocation funds the bucket phase, the sequential leaf
/// sorts, and the whole recursion (`arena_len`); a level adds its
/// sample, `cuts` and id tables — the hot path allocates O(1) buffers
/// per super-cutoff level instead of O(√n) per bucket, which
/// `tests/alloc_accounting.rs` pins.
///
/// Degenerate samples (duplicate-heavy inputs) fall back to a stable
/// sequential sort of the whole slice — rare, deterministic, correct.
pub fn par_spms(data: &mut [(u64, u64)]) {
    if data.len() <= 1 {
        return;
    }
    let mut arena = workspace(arena_len(data.len()));
    spms_rec(data, line_aligned(arena.spare_capacity_mut()));
}

/// One SPMS level over `data`, with scratch (≥ `arena_len` of
/// `data.len()`, possibly uninitialised) provided by the caller.
fn spms_rec(data: &mut [(u64, u64)], arena: &mut [MaybeUninit<(u64, u64)>]) {
    let n = data.len();
    if n <= SPMS_CUTOFF {
        if n > 1 {
            seq_sort_back(data, &mut arena[..n]);
        }
        return;
    }
    // 1. chunk sort (concurrent sub-sorts carve the shared arena).
    let (nb, q) = spms_geometry(n);
    let nchunks = n.div_ceil(q);
    spms_sort_chunks(data, q, arena, arena_len(q));

    // 2.–3. splitters, then every chunk's bucket borders and ids.
    let splitters = spms_splitters(data, q, nb);
    let nbuckets = splitters.len() + 1;
    assert!(nbuckets <= 1 << 16, "bucket ids are u16 (n ≤ 2^32)");
    let (cs, is) = (cut_stride(nbuckets), id_stride(q));
    let mut cut_ws = workspace(nchunks * cs);
    let cuts = &mut line_aligned(cut_ws.spare_capacity_mut())[..nchunks * cs];
    let mut id_ws = workspace(nchunks * is);
    let ids = &mut line_aligned(id_ws.spare_capacity_mut())[..nchunks * is];
    debug_assert_line_start(cuts);
    debug_assert_line_start(ids);
    spms_partition(data, q, &splitters, cuts, ids);
    // One walk per chunk row wrote both of its rows whole.
    let (cuts, ids) = (&*written(cuts), &*written(ids));
    let sizes = bucket_sizes(cuts, nbuckets);
    if sizes.contains(&n) {
        // Degenerate splitters (e.g. almost-constant keys): fall back to
        // one stable sequential sort out of the same arena.
        seq_sort_back(data, fresh(&mut arena[..n]));
        return;
    }

    // 4. gather, barrier, sort (see the function docs above).
    let cx = SpmsCx {
        q,
        cuts,
        ids,
        sizes: &sizes,
    };
    spms_gather(data, 0, nbuckets, fresh(arena), &cx);
    // The buckets' sizes sum to `n`, and each bucket's sort writes its
    // whole window of `data`.
    overwrite(data, |dest| spms_sort_buckets(dest, arena, &sizes));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle;
    use crate::par::tests::{carved, off_and_on_pools, on_two_workers};

    #[test]
    fn spms_arena_is_one_gapped_copy_and_the_gauge_reports_it() {
        // ⌈√n⌉ = 363 chunks and at most as many buckets: every element
        // once plus a line of gap per bucket — half of what the two
        // ping-pong halves of the pairwise-merge bucket phase took.
        let n = 1 << 17;
        let gapped = line_up(n) + 363 * LINE_PAIRS;
        assert_eq!(arena_len(n), gapped, "2 MiB, not 4");
        let m = hbp_metrics::global();
        m.set_enabled(true);
        let mut data: Vec<(u64, u64)> = gen::random_u64s(n, u64::MAX, 4)
            .into_iter()
            .zip(0..)
            .collect();
        par_spms(&mut data);
        m.set_enabled(false);
        let pair = std::mem::size_of::<(u64, u64)>();
        assert!(m.arena_bytes.get() >= (gapped * pair) as i64);
    }

    #[test]
    fn par_mergesort_is_stable_at_both_parities() {
        // 2049..4096 elements sit one level above the leaves (they sort
        // into the scratch), 4097.. two levels (into the data); 2049 and
        // 4100 also split into a leaf and a non-leaf half; 40 000 forks
        // the merges of its top two levels.
        off_and_on_pools(|| {
            for n in [
                0usize, 1, 2, 1000, 1024, 1025, 2049, 4096, 4100, 10_000, 40_000,
            ] {
                let keys = gen::random_u64s(n.max(1), 5, n as u64 + 1);
                let data: Vec<(u64, u64)> = (0..n).map(|i| (keys[i], i as u64)).collect();
                let mut got = data.clone();
                par_mergesort(&mut got);
                assert_eq!(
                    got,
                    oracle::sort_pairs(&data),
                    "n={n} (payload equality = stability)"
                );
            }
        });
    }

    #[test]
    fn par_spms_sorts_stably_above_and_below_cutoff() {
        let at = SPMS_CUTOFF;
        for n in [0usize, 1, 5, 100, 1025, at, at + 1, 5000, 20_000] {
            let keys = gen::random_u64s(n, (n as u64 / 4).max(3), n as u64 + 1);
            let mut data: Vec<(u64, u64)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u64))
                .collect();
            let want = oracle::sort_pairs(&data);
            par_spms(&mut data);
            assert_eq!(data, want, "n={n} (payload equality = stability)");
        }
    }

    /// `(name, keys)` of the structured inputs SPMS must survive.
    fn spms_edge_inputs(n: usize) -> Vec<(&'static str, Vec<u64>)> {
        let n64 = n as u64;
        vec![
            ("presorted", (0..n64).collect()),
            ("reversed", (0..n64).rev().collect()),
            ("all equal", vec![7; n]),
            ("two keys", (0..n64).map(|i| i % 2).collect()),
            (
                "one low outlier",
                (0..n64).map(|i| if i == 0 { 0 } else { 9 }).collect(),
            ),
            // One key is 90 % of the input, the rest lie on both sides.
            (
                "one key 90 %",
                (0..n64)
                    .map(|i| if i % 10 == 3 { i } else { n64 / 2 })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn par_spms_edge_cases_off_and_on_pools() {
        off_and_on_pools(|| {
            for n in [SEQ_CUTOFF + 1, SPMS_CUTOFF + 1, 8192, (1 << 16) + 3] {
                for (name, keys) in spms_edge_inputs(n) {
                    let mut data: Vec<(u64, u64)> = keys.into_iter().zip(0..).collect();
                    let want = oracle::sort_pairs(&data);
                    par_spms(&mut data);
                    assert!(data == want, "n={n} {name} (payload equality = stability)");
                }
            }
        });
    }

    /// Bucket sizes the top SPMS level plans for `keys`: sort the chunks,
    /// pick the splitters, count every key into its bucket.
    fn planned_bucket_sizes(keys: Vec<u64>) -> Vec<usize> {
        let mut data: Vec<(u64, u64)> = keys.into_iter().zip(0..).collect();
        let (nb, q) = spms_geometry(data.len());
        for chunk in data.chunks_mut(q) {
            chunk.sort_by_key(|p| p.0);
        }
        let splitters = spms_splitters(&data, q, nb);
        let mut sizes = vec![0usize; splitters.len() + 1];
        for &(key, _) in &data {
            sizes[splitters.partition_point(|&s| s < key)] += 1;
        }
        sizes
    }

    #[test]
    fn a_dominant_key_makes_a_bucket_above_the_cutoff() {
        // The edge-case test above only exercises the forked
        // msort_rec-into-`data` branch of `spms_sort_buckets` if the top
        // level plans a bucket above the cutoff that is not the whole
        // input (which would take the sequential fallback instead).
        for n in [SPMS_CUTOFF + 1, 8192, (1 << 16) + 3] {
            let (_, keys) = spms_edge_inputs(n).pop().expect("the 90 % input is last");
            let sizes = planned_bucket_sizes(keys);
            let largest = *sizes.iter().max().expect("at least one bucket");
            assert!(largest > SEQ_CUTOFF && largest < n, "n={n}: {largest}");
        }
    }

    #[test]
    fn spms_sort_buckets_sorts_each_bucket_at_either_side_of_the_cutoff() {
        // Gathered buckets at line-gapped origins, as `spms_gather` leaves
        // them; 3000 and SEQ_CUTOFF + 1 take the forked msort_rec branch.
        let sizes = [5usize, 3000, 0, SEQ_CUTOFF, SEQ_CUTOFF + 1, 1];
        let n: usize = sizes.iter().sum();
        let mut state = 99u64;
        let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (xs(&mut state) % 50, i)).collect();
        off_and_on_pools(|| {
            let mut ws = workspace(n + sizes.len() * LINE_PAIRS);
            let arena = line_aligned(ws.spare_capacity_mut());
            let (mut from, mut origin) = (0, 0);
            let mut want = Vec::new();
            for &m in &sizes {
                arena[origin..origin + m].write_copy_of_slice(&input[from..from + m]);
                want.extend(oracle::sort_pairs(&input[from..from + m]));
                from += m;
                origin += line_up(m);
            }
            let dest = carved(n, |dest| spms_sort_buckets(dest, arena, &sizes));
            assert!(dest == want, "payload equality = stability");
        });
    }

    #[test]
    fn spms_partition_ids_and_gather_match_naive_models() {
        // 2^11 + 1: 46 chunks, the last 24 wide; 5000: 71 chunks (an odd
        // count, so one lockstep leaf walks a row alone), the last 30
        // wide; 2^16 + 3: 257 chunks, the last 3 wide.
        let mut inputs = Vec::new();
        for n in [SPMS_CUTOFF + 1, 5000, (1 << 16) + 3] {
            inputs.push(("uniform", gen::random_u64s(n, u64::MAX, n as u64)));
            inputs.extend(spms_edge_inputs(n));
        }
        off_and_on_pools(|| {
            for (name, keys) in &inputs {
                let n = keys.len();
                let mut data: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
                let (nb, q) = spms_geometry(n);
                for chunk in data.chunks_mut(q) {
                    chunk.sort_by_key(|p| p.0);
                }
                let splitters = spms_splitters(&data, q, nb);
                let nbuckets = splitters.len() + 1;
                let (nchunks, cs, is) = (n.div_ceil(q), cut_stride(nbuckets), id_stride(q));
                let mut ids = Vec::new();
                let cuts = carved(nchunks * cs, |cuts| {
                    ids = carved(nchunks * is, |ids| {
                        spms_partition(&data, q, &splitters, cuts, ids)
                    });
                });

                // The model: an upper-bound cut at every splitter, and
                // bucket-major, chunk-ordered buckets.
                let mut buckets = vec![Vec::new(); nbuckets];
                for (c, chunk) in data.chunks(q).enumerate() {
                    let row = &cuts[c * cs..][..=nbuckets];
                    assert_eq!((row[0], row[nbuckets]), (0, chunk.len()), "{name} n={n}");
                    for (i, &p) in chunk.iter().enumerate() {
                        let id = usize::from(ids[c * is + i]);
                        let want = splitters.partition_point(|&s| s < p.0);
                        assert_eq!(id, want, "{name} n={n}: chunk {c} element {i}");
                        assert!(row[id] <= i && i < row[id + 1], "{name} n={n}: cuts of {c}");
                        buckets[id].push(p);
                    }
                }
                let sizes = bucket_sizes(&cuts, nbuckets);
                assert!(
                    sizes.iter().copied().eq(buckets.iter().map(Vec::len)),
                    "{name} n={n}"
                );

                let len = line_up(n) + nbuckets * LINE_PAIRS;
                let gap = (u64::MAX, 0);
                let mut want = vec![gap; len];
                let mut origin = 0;
                for b in &buckets {
                    want[origin..origin + b.len()].copy_from_slice(b);
                    origin += line_up(b.len());
                }
                let mut ws = vec![MaybeUninit::new(gap); len + LINE_PAIRS];
                let arena = &mut line_aligned(&mut ws)[..len];
                let cx = SpmsCx {
                    q,
                    cuts: &cuts,
                    ids: &ids,
                    sizes: &sizes,
                };
                spms_gather(&data, 0, nbuckets, arena, &cx);
                // Every slot started as `gap`, and the gather stores only
                // values.
                let arena = &*written(arena);
                assert!(arena == want.as_slice(), "{name} n={n}: gathered arena");
            }
        });
    }

    #[test]
    fn spms_sample_is_a_fraction_of_a_small_input() {
        // n = 2048: 46 chunks of 45 contribute 8 keys each (4 from the
        // short last one) — the per-chunk floor of 32 is gone — and the
        // splitters still cut balanced buckets on keys in random order.
        assert_eq!((samples_of(45, 45), samples_of(23, 45)), (8, 4));
        assert_eq!(
            samples_of(3, 45),
            0,
            "never more than a quarter of the chunk"
        );
        let sizes = planned_bucket_sizes(gen::random_u64s(2048, u64::MAX / 2, 3));
        assert_eq!(sizes.len(), 46, "no splitter lost to a duplicate");
        let largest = *sizes.iter().max().expect("buckets");
        assert!(largest <= 4 * 45, "largest bucket {largest} of mean 45");
    }

    /// xorshift64* stream for the merge-equivalence fuzz below.
    fn xs(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The obviously-correct reference [`merge2`] is pinned against.
    fn naive_merge(l: &[(u64, u64)], r: &[(u64, u64)], out: &mut [(u64, u64)]) {
        let (mut i, mut j) = (0, 0);
        for slot in out.iter_mut() {
            *slot = if i < l.len() && (j >= r.len() || l[i].0 <= r[j].0) {
                i += 1;
                l[i - 1]
            } else {
                j += 1;
                r[j - 1]
            };
        }
    }

    /// `merge2(l, r)` against the naive merge, payloads included.
    fn assert_merges_like_naive(l: &[(u64, u64)], r: &[(u64, u64)], what: &str) {
        let mut want = vec![(0, 0); l.len() + r.len()];
        naive_merge(l, r, &mut want);
        let got = carved(want.len(), |out| merge2(l, r, out));
        assert!(got == want, "{what}: |l|={} |r|={}", l.len(), r.len());
    }

    /// A sorted run of `len` keys below `range`, payloads `tag`-marked in
    /// run order (so payload equality proves stability).
    fn sorted_run(len: usize, range: u64, tag: u64, state: &mut u64) -> Vec<(u64, u64)> {
        let mut keys: Vec<u64> = (0..len).map(|_| xs(state) % range).collect();
        keys.sort_unstable();
        keys.into_iter().zip((tag << 32)..).collect()
    }

    #[test]
    fn merge2_matches_naive_merge_across_shapes_and_tie_storms() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..250 {
            let ll = (xs(&mut state) % 200) as usize;
            let rl = (xs(&mut state) % 200) as usize;
            // Narrow key ranges force ties (5 keys: the stability storm);
            // wide ones force streaks the galloping middle must get right.
            let range = [1u64, 3, 5, 8, 1 << 60][case % 5];
            let l = sorted_run(ll, range, 0, &mut state);
            let r = sorted_run(rl, range, 1, &mut state);
            assert_merges_like_naive(&l, &r, "fuzz");
        }
    }

    #[test]
    fn merge_split_cuts_tie_plateaus_like_the_naive_merge() {
        // Above MERGE_GRAIN the merge forks at co-ranked cuts; with five
        // distinct keys every cut falls inside a plateau of equal keys.
        let mut state = 23u64;
        let n = 2 * MERGE_GRAIN;
        for (ll, rl, range) in [
            (n, n, 5),
            (n, n, 1),
            (3 * n, 3, 5),
            (3, 3 * n, 5),
            (n + 1, n, 1 << 60),
        ] {
            let l = sorted_run(ll, range, 0, &mut state);
            let r = sorted_run(rl, range, 1, &mut state);
            let mut want = vec![(0, 0); ll + rl];
            naive_merge(&l, &r, &mut want);
            off_and_on_pools(|| {
                let got = carved(ll + rl, |out| merge_split(&l, &r, out));
                assert!(got == want, "|l|={ll} |r|={rl} range={range}");
            });
        }
    }

    #[test]
    fn merge2_two_ended_loop_at_every_small_shape() {
        // Every pair of sorted runs of ≤ 6 keys over {0, 1, 2}: lengths 0
        // and 1 on either side, k = min at both parities, and ties that
        // straddle the front seam, the back seam and the middle.
        fn runs(len: usize, tag: u64) -> Vec<Vec<(u64, u64)>> {
            // ones = position of the first 1, twos = of the first 2.
            (0..=len)
                .flat_map(|ones| (ones..=len).map(move |twos| (ones, twos)))
                .map(|(ones, twos)| {
                    (0..len)
                        .map(|i| {
                            (
                                u64::from(i >= ones) + u64::from(i >= twos),
                                (tag << 32) | i as u64,
                            )
                        })
                        .collect()
                })
                .collect()
        }
        for ll in 0..=6 {
            for rl in 0..=6 {
                for l in runs(ll, 0) {
                    for r in runs(rl, 1) {
                        assert_merges_like_naive(&l, &r, "exhaustive");
                    }
                }
            }
        }
    }

    #[test]
    fn merge2_all_equal_keys_keep_left_before_right_at_both_ends() {
        for (ll, rl) in [(0, 9), (9, 0), (1, 40), (40, 1), (7, 8), (8, 8), (33, 100)] {
            let l: Vec<(u64, u64)> = (0..ll).map(|i| (5, i)).collect();
            let r: Vec<(u64, u64)> = (0..rl).map(|i| (5, 1000 + i)).collect();
            let got = carved(l.len() + r.len(), |out| merge2(&l, &r, out));
            let want: Vec<(u64, u64)> = l.iter().chain(&r).copied().collect();
            assert_eq!(got, want, "|l|={ll} |r|={rl}: all of l, then all of r");
        }
    }

    #[test]
    fn merge2_plateaus_straddle_the_seams_of_unequal_runs() {
        // |l| = 10 against |r| = 50: the front loop fills out[..10], the
        // back loop out[50..], the middle section out[10..50]; each
        // plateau of equal keys is longer than a section, both ways round.
        let plateau = |counts: [usize; 3], tag: u64| -> Vec<(u64, u64)> {
            (0..3u64)
                .flat_map(|key| std::iter::repeat_n(key, counts[key as usize]))
                .zip((tag << 32)..)
                .collect()
        };
        for (lc, rc) in [
            ([3, 4, 3], [8, 30, 12]),
            ([0, 10, 0], [20, 10, 20]),
            ([10, 0, 0], [5, 40, 5]),
            ([0, 0, 10], [25, 25, 0]),
            ([1, 8, 1], [0, 50, 0]),
        ] {
            let (l, r) = (plateau(lc, 0), plateau(rc, 1));
            assert_merges_like_naive(&l, &r, "plateaus");
            assert_merges_like_naive(&r, &l, "plateaus, long run first");
        }
    }

    #[test]
    fn merge2_gallops_through_the_middle_of_unequal_runs() {
        let mut state = 17u64;
        let long: Vec<(u64, u64)> = (0..500u64).map(|i| (10 * i, i)).collect();
        // Presorted and reverse-sorted pairs: the short run lies wholly
        // below or above, so one end loop drains it and the middle is a
        // single bulk copy of the long run.
        let below: Vec<(u64, u64)> = (0..40u64).map(|i| (i, 1000 + i)).collect();
        let above: Vec<(u64, u64)> = (0..40u64).map(|i| (10_000 + i, 1000 + i)).collect();
        // A short run clustered inside the long one: the middle sweeps
        // > GALLOP elements of the long run on either side of it.
        let inside: Vec<(u64, u64)> = (0..40u64).map(|i| (2500 + i, 1000 + i)).collect();
        // ... and one scattered over it, on keys the long run also holds.
        let mut scattered = sorted_run(40, 5000, 2, &mut state);
        for p in &mut scattered {
            p.0 -= p.0 % 10;
        }
        for short in [below, above, inside, scattered] {
            assert_merges_like_naive(&long, &short, "long, short");
            assert_merges_like_naive(&short, &long, "short, long");
        }
    }

    /// `m` keys drawn from `k` distinct values `0..k`, each used ⌈m/k⌉
    /// times at most, in a scrambled order.
    fn balanced_keys(m: usize, k: u64, state: &mut u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..m as u64).map(|i| i % k).collect();
        for i in (1..m).rev() {
            keys.swap(i, (xs(state) % (i as u64 + 1)) as usize);
        }
        keys
    }

    #[test]
    fn seq_sort_matches_sort_by_key_on_every_branch() {
        // (key set, keys of length m, the longest m whose unordered input
        // takes the digit pass — a longer one takes the tag sort). Ordered
        // inputs take the copy or the reverse first, whatever the set.
        // Up to 33 elements, a leaf that is not ordered always takes the
        // digit pass: `lo` and `hi` sit in different buckets, so none
        // holds more than 32. 2^16 + 3 is spms_rec's whole-slice
        // fallback, too long for any histogram of 2^11 buckets of ≤ 32.
        type Keys = fn(usize, &mut u64) -> Vec<u64>;
        let sets: [(&str, Keys, usize); 12] = [
            ("uniform", |m, s| (0..m).map(|_| xs(s)).collect(), 4000),
            (
                "range 2^20",
                |m, s| (0..m).map(|_| xs(s) >> 44).collect(),
                4000,
            ),
            ("all equal", |m, _| vec![42; m], 0),
            ("2 keys", |m, s| balanced_keys(m, 2, s), 64),
            ("16 keys", |m, s| balanced_keys(m, 16, s), 512),
            (
                "exponential skew",
                |m, s| (0..m).map(|_| xs(s)).map(|u| u >> (u & 63)).collect(),
                33,
            ),
            (
                "presorted",
                |m, s| {
                    let mut k: Vec<u64> = (0..m).map(|_| xs(s) >> 1).collect();
                    k.sort_unstable();
                    k
                },
                0,
            ),
            ("strictly reversed", |m, _| (0..m as u64).rev().collect(), 0),
            (
                "reversed with ties",
                |m, _| (0..m as u64).rev().map(|i| i / 2).collect(),
                4000,
            ),
            // One descent short of strictly decreasing.
            (
                "reversed, one tie",
                |m, _| (0..m as u64).rev().map(|i| i.max(1)).collect(),
                4000,
            ),
            (
                "bit 63 set",
                |m, s| (0..m).map(|_| xs(s) | 1 << 63).collect(),
                4000,
            ),
            (
                "only bit 0 differs",
                |m, s| {
                    (0..m)
                        .map(|_| 0xA5A5_0000_0000_0000 | (xs(s) & 1))
                        .collect()
                },
                33,
            ),
        ];
        let mut state = 7u64;
        let mut taken = [0usize; 4];
        for (name, keys, digits_up_to) in sets {
            for m in [
                0usize,
                1,
                2,
                31,
                32,
                33,
                363,
                1024,
                2048,
                4000,
                (1 << 16) + 3,
            ] {
                let data: Vec<(u64, u64)> = keys(m, &mut state).into_iter().zip(0..).collect();
                let want_leaf = if data.windows(2).all(|w| w[0].0 <= w[1].0) {
                    Leaf::Copy
                } else if data.windows(2).all(|w| w[0].0 > w[1].0) {
                    Leaf::Reverse
                } else if m <= digits_up_to {
                    Leaf::Digits
                } else {
                    Leaf::Tags
                };
                let mut want = data.clone();
                want.sort_by_key(|p| p.0);
                let mut leaf = Leaf::Tags;
                let got = carved(m, |out| leaf = seq_sort(&data, out));
                assert!(got == want, "{name} m={m} (payload equality = stability)");
                assert_eq!(leaf, want_leaf, "{name} m={m}");
                taken[leaf as usize] += 1;
            }
        }
        assert!(
            taken.iter().all(|&t| t >= 5),
            "every branch covered: {taken:?}"
        );
    }

    #[test]
    fn arena_len_covers_the_recursion() {
        // The invariant spms_rec relies on: the arena funds both the
        // concurrent chunk sorts and the one gapped bucket arena.
        let at = SPMS_CUTOFF;
        for n in [1usize, 100, at, at + 1, 1 << 14, 100_000, 1 << 20, 1 << 25] {
            let len = arena_len(n);
            assert_eq!(len % LINE_PAIRS, 0, "sub-arenas start on lines");
            if n <= SPMS_CUTOFF {
                // One seq_sort, exactly where spms_rec stops recursing.
                assert_eq!(len, line_up(n));
                continue;
            }
            let (_, q) = spms_geometry(n);
            let nchunks = n.div_ceil(q);
            assert!(
                len >= line_up(n) + nchunks * LINE_PAIRS,
                "every element, and a line of gap per bucket"
            );
            assert!(len >= nchunks * arena_len(q), "chunk sorts fit");
        }
    }

    #[test]
    fn par_spms_matches_inside_native_pool() {
        let keys = gen::random_u64s(30_000, 500, 13);
        let mut data: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let want = oracle::sort_pairs(&data);
        let cfg = hbp_sched::native::NativeConfig {
            workers: 3,
            seed: 21,
        };
        let (_, report) = hbp_sched::native::NativePool::run(cfg, || par_spms(&mut data));
        assert_eq!(data, want);
        assert!(report.work > 1, "SPMS forked tasks on the pool");
    }

    /// The kernel on a 2-worker pool, at the smallest size that reaches
    /// every window it hands out uninitialised: a debug build checks each
    /// one where it is read, and the size is small enough for Miri, which
    /// also reports a race between forked branches (CI runs
    /// `tests::uninit::` under it).
    mod uninit {
        use super::*;

        /// `n` random pairs, payload = position, and their stable sort.
        fn sort_case(n: usize) -> (Vec<(u64, u64)>, Vec<(u64, u64)>) {
            let data: Vec<(u64, u64)> = gen::random_u64s(n, 1000, 6).into_iter().zip(0..).collect();
            let want = oracle::sort_pairs(&data);
            (data, want)
        }

        #[test]
        fn mergesort_one_past_the_cutoff() {
            // Two leaves sort into the scratch, and one merge writes the
            // data back out of it.
            let (mut data, want) = sort_case(SEQ_CUTOFF + 1);
            on_two_workers(|| par_mergesort(&mut data));
            assert!(data == want);
        }

        #[test]
        fn spms_one_past_its_cutoff() {
            // One level: chunk sorts through the arena, the cut and id
            // tables, the gather into the arena, bucket sorts into `data`.
            let (mut data, want) = sort_case(SPMS_CUTOFF + 1);
            on_two_workers(|| par_spms(&mut data));
            assert!(data == want);
        }
    }
}
