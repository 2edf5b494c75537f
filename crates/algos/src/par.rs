//! Native (real-thread) implementations of the key algorithms — the
//! kernels behind `hbp_core::native_kernel`, timed by `benchmark/`.
//!
//! **Fork/join.** Every kernel expresses its parallelism as binary
//! fork-join through [`pjoin`]: on a worker of a
//! [`hbp_sched::native::NativePool`] a join pushes onto the worker's
//! deque and thieves steal it — the practical analogue of the schedulers
//! the simulator replays over the same fork-join structure; off the pool
//! the join falls back to the vendored `rayon::join` shim.
//!
//! **Workspace discipline.** A launch makes O(1) allocations, whatever
//! `n` is: its output (where the signature returns one) and **one**
//! workspace `Vec` ([`workspace`]) that the recursion carves into
//! disjoint windows with `split_at_mut` — Strassen's per-product
//! (S, T, M) windows, the FFT's transpose buffer (plus one small root
//! table), list ranking's two ping-pong halves, merge sort's parity
//! scratch, SPMS's gapped bucket arenas. Leaves allocate nothing. This
//! is the native form of the paper's rule that a stealable task gets its
//! own space and shares O(1) blocks with its siblings: the workspace is
//! skipped forward to a cache-line boundary ([`line_aligned`]) and every
//! window handed to a forkable task is a whole number of lines, so two
//! workers never write the same line through their scratch.
//! `tests/alloc_accounting.rs` pins the allocation counts; the
//! `arena_bytes` gauge records the largest workspace of any launch.
//!
//! **Leaves at oracle speed.** The leaves do what a plain sequential
//! program would: Strassen de-interleaves 32×32 BI tiles to row-major
//! stack buffers through a compile-time Morton table and multiplies
//! i-k-j; the FFT's base case is an in-place iterative radix-2 over a
//! per-call root table; list ranking fetches successor and distance
//! with one load; both sorts end in the branch-free [`merge2`].

use hbp_model::Cx;

use crate::layout::morton;

/// Sequential cutoff below which recursion stops forking.
const SEQ_CUTOFF: usize = 1 << 10;

/// Bytes of a cache line: two workers writing inside one line is the
/// false sharing the window carving below rules out.
const LINE_BYTES: usize = 64;

/// Elements of a cache line for `(u64, u64)` / `(usize, u64)` pairs —
/// the native analogue of the recorded SPMS's block-aligned output gaps.
const LINE_PAIRS: usize = LINE_BYTES / std::mem::size_of::<(u64, u64)>();

/// Round `s` up to a whole number of cache lines of pairs.
const fn line_up(s: usize) -> usize {
    s.div_ceil(LINE_PAIRS) * LINE_PAIRS
}

/// The one scratch allocation of a kernel launch: room for `len`
/// elements after [`line_aligned`] has skipped to a line boundary.
/// Raises the `arena_bytes` high-water mark (one check per launch, far
/// off the hot path).
fn workspace<T: Copy>(len: usize, fill: T) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    let ws = vec![fill; len + LINE_BYTES / size];
    let m = hbp_metrics::global();
    if m.on() {
        m.arena_bytes.raise_to((ws.len() * size) as i64);
    }
    ws
}

/// `ws` from its first cache-line boundary on. The allocator aligns a
/// `Vec` to 16 bytes at best (glibc's mmap chunks start at page + 16),
/// so without the skip every line-multiple window would straddle lines.
fn line_aligned<T>(ws: &mut [T]) -> &mut [T] {
    let skip = ws.as_ptr().align_offset(LINE_BYTES);
    &mut ws[skip..]
}

/// Forkable tasks take workspace windows that start on a line boundary.
fn debug_assert_line_start<T>(window: &[T]) {
    debug_assert_eq!(window.as_ptr() as usize % LINE_BYTES, 0);
}

/// Backend-dispatching join: the native pool's stealing deques when the
/// calling thread is a pool worker, the `rayon::join` shim otherwise.
pub fn pjoin<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if hbp_sched::native::in_pool() {
        hbp_sched::native::join(a, b)
    } else {
        rayon::join(a, b)
    }
}

/// Parallel sum (M-Sum).
pub fn par_sum(a: &[u64]) -> u64 {
    if a.len() <= SEQ_CUTOFF {
        return a.iter().copied().fold(0u64, u64::wrapping_add);
    }
    let (l, r) = a.split_at(a.len() / 2);
    let (x, y) = pjoin(|| par_sum(l), || par_sum(r));
    x.wrapping_add(y)
}

/// Parallel inclusive prefix sums (two-pass, PS).
pub fn par_prefix(a: &[u64]) -> Vec<u64> {
    let n = a.len();
    if n == 0 {
        return Vec::new();
    }
    // Pass 1: per-chunk sums, computed by forked subtrees.
    fn chunk_sums(a: &[u64], chunk: usize, out: &mut [u64]) {
        if out.len() == 1 {
            out[0] = a.iter().copied().fold(0u64, u64::wrapping_add);
            return;
        }
        let mid = out.len() / 2;
        let (ol, or) = out.split_at_mut(mid);
        let (al, ar) = a.split_at(mid * chunk);
        pjoin(|| chunk_sums(al, chunk, ol), || chunk_sums(ar, chunk, or));
    }
    // Pass 2: rescan each chunk with its exclusive offset.
    fn down_sweep(a: &[u64], out: &mut [u64], chunk: usize, offsets: &[u64]) {
        if offsets.len() == 1 {
            let mut acc = offsets[0];
            for (d, &x) in out.iter_mut().zip(a) {
                acc = acc.wrapping_add(x);
                *d = acc;
            }
            return;
        }
        let mid = offsets.len() / 2;
        let (fl, fr) = offsets.split_at(mid);
        let (ol, or) = out.split_at_mut(mid * chunk);
        let (al, ar) = a.split_at(mid * chunk);
        pjoin(
            || down_sweep(al, ol, chunk, fl),
            || down_sweep(ar, or, chunk, fr),
        );
    }
    let chunk = SEQ_CUTOFF.min(n.div_ceil(64)).max(1);
    let k = n.div_ceil(chunk);
    let mut sums = vec![0u64; k];
    chunk_sums(a, chunk, &mut sums);
    let mut offsets = vec![0u64; k];
    let mut acc = 0u64;
    for (o, s) in offsets.iter_mut().zip(&sums) {
        *o = acc;
        acc = acc.wrapping_add(*s);
    }
    let mut out = vec![0u64; n];
    down_sweep(a, &mut out, chunk, &offsets);
    out
}

/// In-place transpose of an `n×n` matrix in BI layout (MT), with joins
/// mirroring the BP recursion.
pub fn par_transpose_bi(a: &mut [f64], n: usize) {
    assert!(n.is_power_of_two() && a.len() == n * n);
    fn diag(a: &mut [f64], k: usize) {
        if k == 1 {
            return;
        }
        let h = k / 2;
        let q = h * h;
        if k * k <= SEQ_CUTOFF {
            let (tl, rest) = a.split_at_mut(q);
            let (tr, rest2) = rest.split_at_mut(q);
            let (bl, br) = rest2.split_at_mut(q);
            diag(tl, h);
            diag(br, h);
            swap_t(tr, bl, h);
            return;
        }
        let (tl, rest) = a.split_at_mut(q);
        let (tr, rest2) = rest.split_at_mut(q);
        let (bl, br) = rest2.split_at_mut(q);
        pjoin(
            || pjoin(|| diag(tl, h), || diag(br, h)),
            || swap_t(tr, bl, h),
        );
    }
    fn swap_t(x: &mut [f64], y: &mut [f64], k: usize) {
        if k == 1 {
            std::mem::swap(&mut x[0], &mut y[0]);
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
        if k * k * 2 <= SEQ_CUTOFF {
            swap_t(x0, y0, h);
            swap_t(x1, y2, h);
            swap_t(x2, y1, h);
            swap_t(x3, y3, h);
            return;
        }
        pjoin(
            || pjoin(|| swap_t(x0, y0, h), || swap_t(x1, y2, h)),
            || pjoin(|| swap_t(x2, y1, h), || swap_t(x3, y3, h)),
        );
    }
    diag(a, n);
}

/// Side of the Strassen leaf tile: at or below it a product is one
/// row-major multiply.
const LEAF: usize = 32;

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

/// Where product `i` lands: `(quadrant of C, sign)`, `None` where it is
/// the quadrant's first (always positive) term and is stored instead of
/// added, so `C` need not start zeroed. In product order that spells
/// `C11 = M1 + M4 - M5 + M7`, `C12 = M3 + M5`, `C21 = M2 + M4`,
/// `C22 = M1 - M2 + M3 + M6`.
const LANDS: [&[(usize, Option<f64>)]; 7] = [
    &[(0, None), (3, None)],
    &[(2, None), (3, Some(-1.0))],
    &[(1, None), (3, Some(1.0))],
    &[(0, Some(1.0)), (2, Some(1.0))],
    &[(0, Some(-1.0)), (1, Some(1.0))],
    &[(3, Some(1.0))],
    &[(0, Some(1.0))],
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

/// `c = a · b` for `k×k` BI tiles, `k ≤ LEAF`: de-interleave to
/// row-major stack buffers through [`BI_LUT`], multiply i-k-j (the inner
/// loop is a constant-width row update the compiler vectorises; tiles
/// narrower than `LEAF` ride along zero-padded), re-interleave.
fn leaf_mul(a: &[f64], b: &[f64], c: &mut [f64], k: usize) {
    let mut ra = [[0.0f64; LEAF]; LEAF];
    let mut rb = [[0.0f64; LEAF]; LEAF];
    let mut rc = [[0.0f64; LEAF]; LEAF];
    for r in 0..k {
        for col in 0..k {
            let at = BI_LUT[r * LEAF + col] as usize;
            ra[r][col] = a[at];
            rb[r][col] = b[at];
        }
    }
    for i in 0..k {
        for l in 0..k {
            let x = ra[i][l];
            for j in 0..LEAF {
                rc[i][j] += x * rb[l][j];
            }
        }
    }
    for r in 0..k {
        for col in 0..k {
            c[BI_LUT[r * LEAF + col] as usize] = rc[r][col];
        }
    }
}

/// Compute product `i` of the `2h×2h` multiplication `a · b` inside
/// `window` = S | T | M | child workspace: operands that are a sum go to
/// S / T, plain quadrants are used where they lie, the product lands in M.
fn strassen_product(a: &[f64], b: &[f64], h: usize, i: usize, window: &mut [f64]) {
    let q = h * h;
    let (s, rest) = window.split_at_mut(q);
    let (t, rest) = rest.split_at_mut(q);
    let (m, ws) = rest.split_at_mut(q);
    fn operand<'a>(x: &'a [f64], (first, second): Operand, buf: &'a mut [f64]) -> &'a [f64] {
        let q = buf.len();
        let quad = |j: usize| &x[j * q..(j + 1) * q];
        let Some((other, sign)) = second else {
            return quad(first);
        };
        for ((d, &u), &v) in buf.iter_mut().zip(quad(first)).zip(quad(other)) {
            *d = u + sign * v;
        }
        buf
    }
    let (pa, pb) = PRODUCTS[i];
    strassen_rec(operand(a, pa, s), operand(b, pb, t), m, h, ws);
}

/// Products `lo..hi` forked over their windows (`per` apart).
fn strassen_fork(
    a: &[f64],
    b: &[f64],
    h: usize,
    lo: usize,
    hi: usize,
    windows: &mut [f64],
    per: usize,
) {
    debug_assert_line_start(windows);
    if hi - lo == 1 {
        return strassen_product(a, b, h, lo, windows);
    }
    let mid = lo + (hi - lo) / 2;
    let (wl, wr) = windows.split_at_mut((mid - lo) * per);
    pjoin(
        || strassen_fork(a, b, h, lo, mid, wl, per),
        || strassen_fork(a, b, h, mid, hi, wr, per),
    );
}

/// Land product `i` (`m`) in the quadrants of `c` it belongs to.
fn strassen_land(m: &[f64], c: &mut [f64], i: usize) {
    let q = m.len();
    for &(quad, sign) in LANDS[i] {
        let cq = &mut c[quad * q..(quad + 1) * q];
        match sign {
            None => cq.copy_from_slice(m),
            Some(sign) => {
                for (d, &v) in cq.iter_mut().zip(m) {
                    *d += sign * v;
                }
            }
        }
    }
}

/// `c = a · b` for `k×k` BI matrices with [`strassen_ws`]`(k)` of
/// workspace. Above the last level the seven products fork, each in its
/// own window; on the last level (children are leaves) they run in turn
/// through one shared window, each landing in `c` before the next
/// overwrites it. Every level down holds 7/4 the window bytes of the one
/// above, so sharing the widest one halves the workspace (8.4 instead of
/// 16 MiB at `n = 256`) and still leaves `7^(levels-1)` tasks to steal.
fn strassen_rec(a: &[f64], b: &[f64], c: &mut [f64], k: usize, ws: &mut [f64]) {
    if k <= LEAF {
        return leaf_mul(a, b, c, k);
    }
    let h = k / 2;
    let q = h * h;
    let per = 3 * q + strassen_ws(h);
    if h <= LEAF {
        for i in 0..7 {
            strassen_product(a, b, h, i, ws);
            strassen_land(&ws[2 * q..3 * q], c, i);
        }
    } else {
        strassen_fork(a, b, h, 0, 7, &mut ws[..7 * per], per);
        for i in 0..7 {
            strassen_land(&ws[i * per + 2 * q..][..q], c, i);
        }
    }
}

/// Strassen multiplication of two `n×n` BI matrices (forked recursion
/// over one carved workspace), with a row-major multiply at the 32×32
/// leaves.
pub fn par_strassen_bi(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two() && a.len() == n * n && b.len() == n * n);
    let mut c = vec![0.0; n * n];
    let mut ws = workspace(strassen_ws(n), 0.0f64);
    strassen_rec(a, b, &mut c, n, line_aligned(&mut ws));
    c
}

/// Side of the square tiles the FFT's transposes move: 8×8 `Cx` is 1 KiB
/// read and 1 KiB written, whole lines on both sides.
const TILE: usize = 8;

/// Per-call twiddle tables of a length-`n` transform (`ω = e^{-2πi/n}`),
/// in one allocation: `lo[l] = ω^l` and `hi[h] = ω^(h·2^shift)` — about
/// `2·√n` `sin`/`cos` evaluations from which any power is one complex
/// multiply — and `base[t] = ω_L^t` for `t < L/2`, the radix-2 base
/// case's table at `L = min(n, SEQ_CUTOFF)` (a stage of length `len`
/// reads it at stride `L/len`).
struct Roots {
    n: usize,
    shift: u32,
    table: Vec<Cx>,
}

impl Roots {
    fn new(n: usize) -> Self {
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

/// `dst` rows `c0..` of the transpose of the `rows×cols` matrix `src`
/// (so `dst` is `dst.len()/rows` rows of `rows`), forked over row
/// windows of `dst` and moved in [`TILE`]-square tiles.
fn transpose_rows(src: &[Cx], dst: &mut [Cx], rows: usize, cols: usize, c0: usize) {
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
                    *d = src[(ib + i) * cols + c0 + j];
                }
            }
        }
    }
}

/// FFT every `len`-wide row of `data` (rows `r0..` of their matrix),
/// forked over row windows down to about [`SEQ_CUTOFF`] elements, with
/// the matching window of `scratch` as each row's scratch. With
/// `twiddle = Some(m)` the leaf also scales element `f` of row `r` by
/// `ω_m^(r·f)` — the six-step twiddle pass, fused in while the row is
/// still in cache.
fn fft_rows(
    data: &mut [Cx],
    scratch: &mut [Cx],
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
    for (r, (row, tmp)) in data
        .chunks_exact_mut(len)
        .zip(scratch.chunks_exact_mut(len))
        .enumerate()
    {
        fft_rec(row, tmp, roots);
        if let Some(m) = twiddle {
            let step = (r0 + r) * (roots.n / m);
            for (f, v) in row.iter_mut().enumerate() {
                *v = *v * roots.pow(f * step);
            }
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
/// `x.len()` elements of scratch: view `x` as `k1×k2`, transpose, FFT
/// the `k2` rows of length `k1` and twiddle, transpose back, FFT the
/// `k1` rows of length `k2`, transpose into natural order. Each pass
/// forks over row windows; a row's own recursion borrows the buffer the
/// pass is not reading. At or below [`SEQ_CUTOFF`]: [`fft_base`].
fn fft_rec(x: &mut [Cx], t: &mut [Cx], roots: &Roots) {
    let n = x.len();
    if n <= SEQ_CUTOFF {
        return fft_base(x, roots.base());
    }
    let k1 = 1usize << n.trailing_zeros().div_ceil(2);
    let k2 = n / k1;
    transpose_rows(x, t, k1, k2, 0);
    fft_rows(t, x, k1, 0, Some(n), roots);
    transpose_rows(t, x, k2, k1, 0);
    fft_rows(x, t, k2, 0, None, roots);
    transpose_rows(x, t, k1, k2, 0);
    copy_par(t, x);
}

/// Six-step FFT with parallel transposes and row FFTs (any power-of-two
/// length), over one root table and one scratch buffer per call.
pub fn par_fft(x: &mut [Cx]) {
    let n = x.len();
    assert!(n.is_power_of_two());
    let roots = Roots::new(n);
    if n <= SEQ_CUTOFF {
        return fft_base(x, roots.base());
    }
    let mut ws = workspace(n, Cx::default());
    let t = &mut line_aligned(&mut ws)[..n];
    // Every pass below splits on power-of-two row windows of at least
    // half a cutoff, so a line-aligned buffer stays line-aligned.
    debug_assert_line_start(t);
    fft_rec(x, t, &roots);
}

/// Sort `data` by key, stably, with `scratch` of the same length; the
/// result lands in `scratch` if `into_scratch`, else in `data`. The
/// halves sort (forked) into the *other* buffer, so the one [`merge2`]
/// per level is also the move back — no copies above the leaves.
fn msort_rec(data: &mut [(u64, u64)], scratch: &mut [(u64, u64)], into_scratch: bool) {
    if data.len() <= SEQ_CUTOFF {
        seq_sort(data, scratch);
        if !into_scratch {
            data.copy_from_slice(scratch);
        }
        return;
    }
    debug_assert_line_start(scratch);
    let mid = line_up(data.len() / 2);
    let (dl, dr) = data.split_at_mut(mid);
    let (sl, sr) = scratch.split_at_mut(mid);
    pjoin(
        || msort_rec(dl, sl, !into_scratch),
        || msort_rec(dr, sr, !into_scratch),
    );
    if into_scratch {
        merge2(&data[..mid], &data[mid..], scratch);
    } else {
        merge2(&scratch[..mid], &scratch[mid..], data);
    }
}

/// Parallel mergesort over `(key, payload)` pairs, stable on keys.
pub fn par_mergesort(data: &mut [(u64, u64)]) {
    let n = data.len();
    let mut ws = workspace(n, (0u64, 0u64));
    msort_rec(data, &mut line_aligned(&mut ws)[..n], false);
}

/// Consecutive takes from one side before [`merge2`] switches from the
/// select loop to a binary-search bulk copy.
const GALLOP: usize = 32;

/// Stable 2-way merge of the sorted runs `l` then `r` into `out`
/// (`l` wins key ties, so run order is input order).
///
/// The inner loop is branch-free on the comparison: the winning side is
/// picked by a boolean select the compiler lowers to conditional moves,
/// so random keys cost no branch mispredictions. Streak detection is
/// block-granular to keep that loop free of bookkeeping: after every
/// [`GALLOP`] plain selections the indices say whether one side won the
/// whole block (the other side's cursor did not move), and if so the
/// merge gallops — a binary search plus a bulk `copy_from_slice` — so
/// pre-sorted, skewed, and duplicate-heavy inputs degrade toward memcpy
/// instead of paying the element-at-a-time loop. Deliberately
/// unsafe-free: the bounds checks fold into the loop conditions, and
/// the `#[cfg(test)]` equivalence suite below pins this shape against a
/// naive reference merge.
fn merge2(l: &[(u64, u64)], r: &[(u64, u64)], out: &mut [(u64, u64)]) {
    debug_assert_eq!(l.len() + r.len(), out.len());
    let (mut i, mut j, mut w) = (0usize, 0usize, 0usize);
    while i < l.len() && j < r.len() {
        let (i0, j0) = (i, j);
        let mut steps = GALLOP;
        while steps > 0 && i < l.len() && j < r.len() {
            let take_l = l[i].0 <= r[j].0;
            out[w] = if take_l { l[i] } else { r[j] };
            i += take_l as usize;
            j += usize::from(!take_l);
            w += 1;
            steps -= 1;
        }
        if i < l.len() && j < r.len() {
            if j == j0 && i - i0 == GALLOP {
                // Left swept the whole block: everything still ≤ the
                // right head goes in one copy (ties stay left).
                let take = l[i..].partition_point(|p| p.0 <= r[j].0);
                out[w..w + take].copy_from_slice(&l[i..i + take]);
                i += take;
                w += take;
            } else if i == i0 && j - j0 == GALLOP {
                // Right sweep: strictly below the left head (ties left).
                let take = r[j..].partition_point(|p| p.0 < l[i].0);
                out[w..w + take].copy_from_slice(&r[j..j + take]);
                j += take;
                w += take;
            }
        }
    }
    out[w..w + (l.len() - i)].copy_from_slice(&l[i..]);
    out[w + (l.len() - i)..].copy_from_slice(&r[j..]);
}

/// Sequential stable sort by key of `src` into `out` (same length),
/// allocation-free: tag every key with its position, sort the
/// `(key, position)` pairs *unstably* as one 128-bit integer each —
/// positions are distinct, so that order is the stable one — then swap
/// each position for the payload it names. As fast as `sort_by_key`,
/// without its temporary buffer.
fn seq_sort(src: &[(u64, u64)], out: &mut [(u64, u64)]) {
    debug_assert_eq!(src.len(), out.len());
    for (i, (o, s)) in out.iter_mut().zip(src).enumerate() {
        *o = (s.0, i as u64);
    }
    out.sort_unstable_by_key(|&(key, at)| (u128::from(key) << 64) | u128::from(at));
    for o in out.iter_mut() {
        o.1 = src[o.1 as usize].1;
    }
}

/// Scratch (in pairs) that [`spms_rec`] needs for a slice of `n`
/// elements: two line-gapped bucket arenas for the merge phases, or the
/// sum of the chunk sorts' needs — whichever is larger, since the two
/// phases never overlap in time. Sub-cutoff slices need `n` for
/// [`seq_sort`]'s output. Always a whole number of lines, so
/// sibling sub-arenas carved at this stride start on line boundaries.
fn arena_len(n: usize) -> usize {
    if n <= SEQ_CUTOFF {
        return line_up(n);
    }
    let chunks = (n as f64).sqrt().ceil() as usize;
    let q = n.div_ceil(chunks);
    let chunks = n.div_ceil(q);
    // ≤ one line of gap rounding per bucket, buckets ≤ chunks.
    let merge = 2 * (line_up(n) + chunks * LINE_PAIRS);
    let sort = chunks * arena_len(q);
    merge.max(sort)
}

/// Read-only geometry of one SPMS level, shared by the phase recursions.
struct SpmsCx<'a> {
    /// Chunk width of the level.
    q: usize,
    /// Row stride of `cuts` (`nbuckets + 1`).
    stride: usize,
    /// Row stride of the run-bounds arenas (max runs per bucket + 1).
    bstride: usize,
    /// Flattened per-chunk bucket borders, `stride`-strided by chunk.
    cuts: &'a [usize],
    /// Total size of each bucket.
    sizes: &'a [usize],
}

/// Merge phase A of one level: for the buckets `[blo, bhi)`, pairwise-
/// merge each bucket's sorted chunk-runs **straight out of `data`** into
/// the bucket's region of arena half `a` — the old concat-then-merge
/// first round and the per-bucket staging buffers, fused into one pass.
/// Run boundaries land in `bnd` (one `bstride` row per bucket) and the
/// surviving run count in `nrs`. Buckets split `a`/`bnd`/`nrs` along
/// line-gapped borders, so no two bucket writers share a cache-line
/// interior.
fn spms_phase_a(
    data: &[(u64, u64)],
    blo: usize,
    bhi: usize,
    a: &mut [(u64, u64)],
    bnd: &mut [usize],
    nrs: &mut [usize],
    cx: &SpmsCx<'_>,
) {
    debug_assert_line_start(a);
    if bhi - blo > 1 {
        let mid = blo + (bhi - blo) / 2;
        let cut: usize = cx.sizes[blo..mid].iter().map(|&s| line_up(s)).sum();
        let (al, ar) = a.split_at_mut(cut);
        let (bl, br) = bnd.split_at_mut((mid - blo) * cx.bstride);
        let (nl, nr) = nrs.split_at_mut(mid - blo);
        pjoin(
            || spms_phase_a(data, blo, mid, al, bl, nl, cx),
            || spms_phase_a(data, mid, bhi, ar, br, nr, cx),
        );
        return;
    }
    let j = blo;
    let nchunks = data.len().div_ceil(cx.q);
    let mut w = 0usize;
    let mut runs = 0usize;
    bnd[0] = 0;
    let mut pending: Option<&[(u64, u64)]> = None;
    for c in 0..nchunks {
        let base = c * cx.q;
        let (lo, hi) = (cx.cuts[c * cx.stride + j], cx.cuts[c * cx.stride + j + 1]);
        if hi <= lo {
            continue;
        }
        let run = &data[base + lo..base + hi];
        match pending.take() {
            None => pending = Some(run),
            Some(first) => {
                let len = first.len() + run.len();
                merge2(first, run, &mut a[w..w + len]);
                w += len;
                runs += 1;
                bnd[runs] = w;
            }
        }
    }
    if let Some(first) = pending {
        // Odd run out: lands in the arena verbatim this round.
        a[w..w + first.len()].copy_from_slice(first);
        w += first.len();
        runs += 1;
        bnd[runs] = w;
    }
    debug_assert_eq!(w, cx.sizes[j]);
    nrs[0] = runs;
}

/// Merge phase B of one level: ping-pong each bucket's surviving runs
/// between its regions of arena halves `a` and `b`, with the **final**
/// round writing directly into the bucket's destination window of
/// `data` — the fused compaction. A bucket already down to one run just
/// copies out (its only remaining pass *is* the compaction).
fn spms_phase_b(
    dest: &mut [(u64, u64)],
    blo: usize,
    bhi: usize,
    a: &mut [(u64, u64)],
    b: &mut [(u64, u64)],
    bnd_a: &mut [usize],
    bnd_b: &mut [usize],
    nrs: &[usize],
    cx: &SpmsCx<'_>,
) {
    debug_assert_line_start(a);
    debug_assert_line_start(b);
    if bhi - blo > 1 {
        let mid = blo + (bhi - blo) / 2;
        let gap_cut: usize = cx.sizes[blo..mid].iter().map(|&s| line_up(s)).sum();
        let dest_cut: usize = cx.sizes[blo..mid].iter().sum();
        let (dl, dr) = dest.split_at_mut(dest_cut);
        let (al, ar) = a.split_at_mut(gap_cut);
        let (bl, br) = b.split_at_mut(gap_cut);
        let (xal, xar) = bnd_a.split_at_mut((mid - blo) * cx.bstride);
        let (xbl, xbr) = bnd_b.split_at_mut((mid - blo) * cx.bstride);
        let (nl, nr) = nrs.split_at(mid - blo);
        pjoin(
            || spms_phase_b(dl, blo, mid, al, bl, xal, xbl, nl, cx),
            || spms_phase_b(dr, mid, bhi, ar, br, xar, xbr, nr, cx),
        );
        return;
    }
    let m = cx.sizes[blo];
    let dest = &mut dest[..m];
    let mut nr = nrs[0];
    let (mut src, mut dst) = (&mut a[..m], &mut b[..m]);
    let (mut bs, mut bd) = (&mut bnd_a[..], &mut bnd_b[..]);
    if nr <= 1 {
        dest.copy_from_slice(&src[..m]);
        return;
    }
    while nr > 2 {
        let mut w = 0usize;
        let mut out_runs = 0usize;
        bd[0] = 0;
        let mut t = 0usize;
        while t + 2 <= nr {
            let (l0, l1, l2) = (bs[t], bs[t + 1], bs[t + 2]);
            merge2(&src[l0..l1], &src[l1..l2], &mut dst[w..w + (l2 - l0)]);
            w += l2 - l0;
            out_runs += 1;
            bd[out_runs] = w;
            t += 2;
        }
        if t < nr {
            let (l0, l1) = (bs[t], bs[t + 1]);
            dst[w..w + (l1 - l0)].copy_from_slice(&src[l0..l1]);
            w += l1 - l0;
            out_runs += 1;
            bd[out_runs] = w;
        }
        nr = out_runs;
        std::mem::swap(&mut src, &mut dst);
        std::mem::swap(&mut bs, &mut bd);
    }
    // Exactly two runs left: this merge is the compaction.
    merge2(&src[bs[0]..bs[1]], &src[bs[1]..bs[2]], dest);
}

/// Recursive chunk-sort pass: apply [`spms_rec`] to each `q`-wide window
/// of `data`, carving each window's scratch out of the shared arena at a
/// uniform `per`-pair stride (the windows run concurrently, so their
/// scratch must be disjoint).
fn spms_sort_chunks(data: &mut [(u64, u64)], q: usize, arena: &mut [(u64, u64)], per: usize) {
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
/// 2. a deterministic regular sample of each sorted chunk yields the
///    splitters (PSRS-style — no randomness, so a fixed input gives a
///    fixed partition on every run);
/// 3. every chunk is cut at the splitters with an upper-bound search, so
///    equal keys land in one bucket (stability);
/// 4. each size-balanced bucket's runs are pairwise-merged straight out
///    of `data` into a line-gapped ping-pong arena (phase A — the old
///    concatenate-then-merge staging pass, fused away), then ping-ponged
///    down to one run whose **final merge writes the bucket's window of
///    `data` directly** (phase B — the old separate compaction pass,
///    fused into the last round). The arena starts on a cache-line
///    boundary and bucket origins are line multiples in both halves, so
///    no two bucket writers share a line interior — the false-sharing
///    story of the paper, for real.
///
/// One arena allocation funds every merge round, the sequential leaf
/// sorts, and the whole recursion ([`arena_len`]) — the hot path
/// allocates O(1) buffers per super-cutoff level instead of O(√n) per
/// bucket, which `tests/alloc_accounting.rs` pins.
///
/// Degenerate samples (duplicate-heavy inputs) fall back to a stable
/// sequential sort of the whole slice — rare, deterministic, correct.
pub fn par_spms(data: &mut [(u64, u64)]) {
    if data.len() <= 1 {
        return;
    }
    let mut arena = workspace(arena_len(data.len()), (0u64, 0u64));
    spms_rec(data, line_aligned(&mut arena));
}

/// One SPMS level over `data`, with scratch (≥ [`arena_len`] of
/// `data.len()`) provided by the caller.
fn spms_rec(data: &mut [(u64, u64)], arena: &mut [(u64, u64)]) {
    let n = data.len();
    if n <= SEQ_CUTOFF {
        if n > 1 {
            seq_sort(data, &mut arena[..n]);
            data.copy_from_slice(&arena[..n]);
        }
        return;
    }
    // 1. chunk sort (concurrent sub-sorts carve the shared arena).
    let chunks = (n as f64).sqrt().ceil() as usize;
    let q = n.div_ceil(chunks);
    let nchunks = n.div_ceil(q);
    spms_sort_chunks(data, q, arena, arena_len(q));

    // 2. deterministic regular sample → splitters. Sampling every
    // element (spp = nb) gives the classic ≤ 2q bucket bound but costs
    // an O(n log n) sample sort — as much as the sort itself. A quarter
    // of that density keeps the bound at O(q) (≤ ~5q: between two
    // adjacent samples of one chunk sit ≤ len/(spp+1) elements, so a
    // bucket collects ≤ n/spp + its fair share) and makes the sample
    // sort noise instead of a phase.
    let nb = chunks;
    let mut sample: Vec<u64> = Vec::with_capacity(nchunks * nb);
    for chunk in data.chunks(q) {
        let len = chunk.len();
        let spp = len.min((nb / 4).max(32));
        for t in 1..=spp {
            sample.push(chunk[(t * len / (spp + 1)).min(len - 1)].0);
        }
    }
    sample.sort_unstable();
    let mut splitters: Vec<u64> = (1..nb).map(|j| sample[j * sample.len() / nb]).collect();
    splitters.dedup();

    // 3. partition every chunk at the splitters (upper bound: equal keys
    // never straddle a bucket). Row c of the flattened `cuts` holds
    // chunk c's bucket borders.
    let nbuckets = splitters.len() + 1;
    let stride = nbuckets + 1;
    let mut cuts = vec![0usize; nchunks * stride];
    for (c, chunk) in data.chunks(q).enumerate() {
        let row = &mut cuts[c * stride..(c + 1) * stride];
        // Splitters ascend and there are about as many as the chunk has
        // elements, so successive borders advance by ~1: one linear walk
        // over the chunk places every border in O(len + nbuckets) —
        // cheaper than nbuckets independent binary searches.
        let mut lo = 0usize;
        for (si, &s) in splitters.iter().enumerate() {
            while lo < chunk.len() && chunk[lo].0 <= s {
                lo += 1;
            }
            row[si + 1] = lo;
        }
        row[stride - 1] = chunk.len();
    }
    // Bucket sizes, accumulated row-major (the cuts layout) instead of
    // striding a column per bucket.
    let mut sizes = vec![0usize; nbuckets];
    for c in 0..nchunks {
        let row = &cuts[c * stride..(c + 1) * stride];
        for j in 0..nbuckets {
            sizes[j] += row[j + 1] - row[j];
        }
    }
    if sizes.contains(&n) {
        // Degenerate splitters (e.g. almost-constant keys): fall back to
        // one stable sequential sort out of the same arena.
        seq_sort(data, &mut arena[..n]);
        data.copy_from_slice(&arena[..n]);
        return;
    }

    // 4. the fused merge phases (see the function docs above): phase A
    // reads `data` into arena half A, the barrier between the two pjoin
    // trees retires `data` as a source, phase B ping-pongs A↔B and
    // lands the final round of every bucket in its `data` window.
    let cap: usize = sizes.iter().map(|&s| line_up(s)).sum();
    // Phase A halves runs once, so a bucket holds ≤ ⌈nchunks/2⌉ runs.
    let bstride = nchunks / 2 + 2;
    let mut bnd = vec![0usize; 2 * nbuckets * bstride];
    let mut nrs = vec![0usize; nbuckets];
    let cx = SpmsCx {
        q,
        stride,
        bstride,
        cuts: &cuts,
        sizes: &sizes,
    };
    let (half_a, rest) = arena.split_at_mut(cap);
    let half_b = &mut rest[..cap];
    let (bnd_a, bnd_b) = bnd.split_at_mut(nbuckets * bstride);
    spms_phase_a(data, 0, nbuckets, half_a, bnd_a, &mut nrs, &cx);
    spms_phase_b(data, 0, nbuckets, half_a, half_b, bnd_a, bnd_b, &nrs, &cx);
}

/// Parallel list ranking by pointer jumping (the practical baseline).
///
/// Successor and distance travel as one `(succ, dist)` element, so the
/// random read `cur[succ]` of a jump fetches both with one cache miss,
/// and the rounds ping-pong between the two halves of one workspace.
pub fn par_list_rank(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    // One jump round: next[i] = (succ[succ[i]], dist[i] + dist[succ[i]]),
    // forked over disjoint output windows (`off` = the window's global
    // start index).
    fn jump(cur: &[(usize, u64)], next: &mut [(usize, u64)], off: usize) {
        debug_assert_line_start(next);
        if next.len() <= SEQ_CUTOFF {
            for (out, &(s, d)) in next.iter_mut().zip(&cur[off..]) {
                let (ss, ds) = cur[s];
                *out = (ss, d + ds);
            }
            return;
        }
        let mid = line_up(next.len() / 2);
        let (nl, nr) = next.split_at_mut(mid);
        pjoin(|| jump(cur, nl, off), || jump(cur, nr, off + mid));
    }
    let half = line_up(n);
    let mut ws = workspace(2 * half, (0usize, 0u64));
    let (cur, next) = line_aligned(&mut ws)[..2 * half].split_at_mut(half);
    let (mut cur, mut next) = (&mut cur[..n], &mut next[..n]);
    for (i, (c, &s)) in cur.iter_mut().zip(succ).enumerate() {
        *c = (s, u64::from(s != i));
    }
    let rounds = 64 - (n.max(2) as u64 - 1).leading_zeros();
    for _ in 0..rounds {
        jump(cur, next, 0);
        std::mem::swap(&mut cur, &mut next);
    }
    cur.iter().map(|&(_, d)| d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle;

    /// Run `check` off the pool (joins go to the rayon shim), then as the
    /// root task of a 1-worker and of a 3-worker native pool.
    fn off_and_on_pools(check: impl Fn() + Sync) {
        check();
        for workers in [1, 3] {
            let cfg = hbp_sched::native::NativeConfig {
                workers,
                seed: 7,
                ..Default::default()
            };
            hbp_sched::native::NativePool::run(cfg, &check);
        }
    }

    fn to_bi(rm: &[f64], n: usize) -> Vec<f64> {
        let mut bi = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                bi[morton(r as u64, c as u64) as usize] = rm[r * n + c];
            }
        }
        bi
    }

    /// Textbook iterative radix-2 with recurrence twiddles: the reference
    /// for lengths the O(n²) [`oracle::dft`] cannot reach.
    fn radix2(x: &mut [Cx]) {
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
            let step = Cx::cis(-2.0 * std::f64::consts::PI / len as f64);
            for block in x.chunks_mut(len) {
                let mut w = Cx::new(1.0, 0.0);
                let (lo, hi) = block.split_at_mut(len / 2);
                for (a, b) in lo.iter_mut().zip(hi) {
                    let t = *b * w;
                    (*a, *b) = (*a + t, *a - t);
                    w = w * step;
                }
            }
            len *= 2;
        }
    }

    fn signal(n: usize) -> Vec<Cx> {
        (0..n)
            .map(|i| Cx::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect()
    }

    fn assert_spectra_close(got: &[Cx], want: &[Cx]) {
        let tol = 1e-9 * want.len() as f64;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g.re - w.re).abs() < tol && (g.im - w.im).abs() < tol,
                "n={} i={i}: {g:?} vs {w:?}",
                want.len()
            );
        }
    }

    #[test]
    fn par_sum_and_prefix() {
        let a = gen::random_u64s(10_000, 1000, 1);
        assert_eq!(par_sum(&a), oracle::sum(&a));
        assert_eq!(par_prefix(&a), oracle::prefix_sums(&a));
    }

    #[test]
    fn par_prefix_odd_sizes_and_edges() {
        for n in [0usize, 1, 2, 63, 64, 65, 1023, 1025, 4097] {
            let a = gen::random_u64s(n, 1 << 40, n as u64 + 2);
            assert_eq!(par_prefix(&a), oracle::prefix_sums(&a), "n={n}");
        }
    }

    #[test]
    fn par_kernels_match_inside_native_pool() {
        // The same entry points must stay correct when their joins are
        // routed through the native work-stealing pool.
        let a = gen::random_u64s(20_000, 1000, 5);
        let cfg = hbp_sched::native::NativeConfig {
            workers: 3,
            seed: 11,
            ..Default::default()
        };
        let want_sum = oracle::sum(&a);
        let want_prefix = oracle::prefix_sums(&a);
        let ((got_sum, got_prefix), report) =
            hbp_sched::native::NativePool::run(cfg, || (par_sum(&a), par_prefix(&a)));
        assert_eq!(got_sum, want_sum);
        assert_eq!(got_prefix, want_prefix);
        assert!(report.work > 1, "kernels forked tasks on the pool");
    }

    #[test]
    fn par_transpose_matches() {
        let n = 64;
        let rm = gen::random_matrix(n, 2);
        let mut bi = to_bi(&rm, n);
        par_transpose_bi(&mut bi, n);
        assert_eq!(bi, to_bi(&oracle::transpose_rm(&rm, n), n));
    }

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

    #[test]
    fn par_mergesort_is_stable_at_both_parities() {
        // 2049..4096 elements sit one level above the leaves (they sort
        // into the scratch), 4097.. two levels (into the data); 2049 and
        // 4100 also split into a leaf and a non-leaf half.
        off_and_on_pools(|| {
            for n in [0usize, 1, 2, 1000, 1024, 1025, 2049, 4096, 4100, 10_000] {
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
    fn par_list_rank_matches_incl_empty_and_self_loop() {
        off_and_on_pools(|| {
            assert_eq!(par_list_rank(&[]), Vec::<u64>::new());
            assert_eq!(par_list_rank(&[0]), vec![0], "a lone self-loop tail");
            for n in [2usize, 1023, 1025, 1 << 15] {
                let succ = gen::random_list(n, 8);
                assert_eq!(par_list_rank(&succ), oracle::list_rank(&succ), "n={n}");
            }
        });
    }

    #[test]
    fn par_spms_sorts_stably_above_and_below_cutoff() {
        for n in [0usize, 1, 5, 100, 1025, 5000, 20_000] {
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

    #[test]
    fn par_spms_duplicate_heavy_and_adversarial() {
        for n in [2048usize, 4099] {
            let all_equal: Vec<(u64, u64)> = (0..n as u64).map(|i| (7, i)).collect();
            let two_keys: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 2, i)).collect();
            let skew: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (if i == 0 { 0 } else { 9 }, i))
                .collect();
            let desc: Vec<(u64, u64)> = (0..n as u64).map(|i| (n as u64 - i, i)).collect();
            for base in [all_equal, two_keys, skew, desc] {
                let mut data = base.clone();
                let want = oracle::sort_pairs(&base);
                par_spms(&mut data);
                assert_eq!(data, want);
            }
        }
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

    #[test]
    fn merge2_matches_naive_merge_across_shapes_and_tie_storms() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..200 {
            let ll = (xs(&mut state) % 200) as usize;
            let rl = (xs(&mut state) % 200) as usize;
            // Narrow key ranges force ties; wide ones force streaks the
            // galloping path must get right.
            let range = [1u64, 3, 8, 1 << 60][case % 4];
            let mk = |len: usize, state: &mut u64, tag: u64| {
                let mut v: Vec<(u64, u64)> = (0..len as u64)
                    .map(|i| (xs(state) % range, (tag << 32) | i))
                    .collect();
                v.sort_by_key(|p| p.0); // stable: payloads stay ordered
                v
            };
            let l = mk(ll, &mut state, 0);
            let r = mk(rl, &mut state, 1);
            let mut want = vec![(0, 0); ll + rl];
            let mut got = vec![(0, 0); ll + rl];
            naive_merge(&l, &r, &mut want);
            merge2(&l, &r, &mut got);
            assert_eq!(got, want, "case {case} (payload equality = stability)");
        }
    }

    #[test]
    fn merge2_gallops_through_disjoint_and_presorted_sides() {
        // Fully disjoint sides: both directions, both orders — the
        // gallop bulk-copy must fire and stay exact.
        let low: Vec<(u64, u64)> = (0..500u64).map(|i| (i, i)).collect();
        let high: Vec<(u64, u64)> = (0..500u64).map(|i| (1000 + i, i)).collect();
        for (l, r) in [(&low, &high), (&high, &low)] {
            let mut want = vec![(0, 0); 1000];
            let mut got = vec![(0, 0); 1000];
            naive_merge(l, r, &mut want);
            merge2(l, r, &mut got);
            assert_eq!(got, want);
        }
        // One long tie plateau against a point: ties must all stay left.
        let ties: Vec<(u64, u64)> = (0..100u64).map(|i| (5, i)).collect();
        let point = vec![(5u64, 999u64)];
        let mut got = vec![(0, 0); 101];
        merge2(&ties, &point, &mut got);
        assert_eq!(got[100], (5, 999), "left side wins every tie");
    }

    #[test]
    fn seq_sort_matches_std_stable_sort() {
        let mut state = 7u64;
        for n in [0usize, 1, 2, 31, 32, 33, 100, 1024, 1025, 4000] {
            let data: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (xs(&mut state) % (n as u64 / 2 + 3), i))
                .collect();
            let mut want = data.clone();
            want.sort_by_key(|p| p.0);
            let mut got = vec![(0, 0); n];
            seq_sort(&data, &mut got);
            assert_eq!(got, want, "n={n} (payload equality = stability)");
        }
    }

    #[test]
    fn arena_len_covers_the_recursion() {
        // The invariant spms_rec relies on: the arena funds both the
        // concurrent chunk sorts and the two gapped merge halves.
        for n in [1usize, 100, 1 << 11, 1 << 14, 100_000, 1 << 20] {
            let len = arena_len(n);
            assert_eq!(len % LINE_PAIRS, 0, "sub-arenas start on lines");
            if n <= SEQ_CUTOFF {
                assert_eq!(len, line_up(n));
                continue;
            }
            let chunks = (n as f64).sqrt().ceil() as usize;
            let q = n.div_ceil(chunks);
            let nchunks = n.div_ceil(q);
            assert!(len >= 2 * line_up(n), "two halves of every element");
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
            ..Default::default()
        };
        let (_, report) = hbp_sched::native::NativePool::run(cfg, || par_spms(&mut data));
        assert_eq!(data, want);
        assert!(report.work > 1, "SPMS forked tasks on the pool");
    }
}
