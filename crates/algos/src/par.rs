//! Native (real-thread) implementations of the key algorithms — the
//! kernels behind `hbp_core::native_kernel`, timed by `benchmark/`.
//!
//! **Fork/join.** Every kernel expresses its parallelism as binary
//! fork-join through [`pjoin`]: on a worker of a
//! [`hbp_sched::native::NativePool`] a join pushes onto the worker's
//! deque and thieves steal it — the practical analogue of the schedulers
//! the simulator replays over the same fork-join structure. Off a pool
//! `a` runs and then `b`, on the calling thread: no thread is spawned.
//!
//! **Workspace discipline.** A launch makes O(1) allocations, whatever
//! `n` is: its output (where the signature returns one) and **one**
//! workspace `Vec` (`workspace`) that the recursion carves into
//! disjoint windows with `split_at_mut` — Strassen's per-product
//! (S, T, M) windows, the FFT's transpose buffer (plus one small root
//! table), list ranking's node tags and the two ping-pong halves of its
//! contracted list, merge sort's parity scratch, SPMS's one gapped bucket
//! arena. Leaves allocate nothing. This is the native form of the
//! paper's rule that a stealable task gets its own space and shares O(1)
//! blocks with its siblings: the workspace is skipped forward to a
//! cache-line boundary (`line_aligned`) and every window handed to a
//! forkable task is a whole number of lines, so two workers never write
//! the same line through their scratch. The one exception is stated where
//! it lives: the list-ranking walk scatters its tags ([`par_list_rank`]).
//! `tests/alloc_accounting.rs` pins the allocation counts; the
//! `arena_bytes` gauge records the largest workspace of any launch, by
//! capacity.
//!
//! **Written, never pre-filled.** In the model a task's local space is
//! free: allocating it records no access. So here a workspace and an
//! output are capacity, not zeroes — no serial fill runs before the first
//! fork. The recursion hands out `&mut [MaybeUninit<T>]` windows, writes
//! every element before its first read, and turns a window into `&[T]`
//! only once it is known to be written whole, at one `assume_init_*` or
//! `set_len` with its reason beside it: a transpose, an operand sum or a
//! merge fills its destination, Strassen stores each quadrant of a
//! product before adding to it, and SPMS's partition walks store every
//! slot of their cut and id rows, padding included. Where initialised
//! caller data is the destination (a merge or a bucket sort back into
//! `data`), `overwrite` views it as slots on the same terms. The one
//! zeroed workspace is list ranking's: its tags and contracted halves
//! are atomics, shared as soon as they exist, and the jumps read unused
//! slots. `tests/native_kernel_outputs.rs` pins every kernel's output
//! bits and runs each on a heap left full of all-ones words.
//!
//! **The work of the sequential program.** Each kernel does, up to a
//! small constant, what its single-thread reference does, stores to its
//! output and scratch only what that program would (never a fill first),
//! and its leaves do it the way a plain sequential program would: the
//! scans' leaves are one pass over their chunk, and PS writes each output
//! element once; an MT block below the cutoff is one loop over its Morton
//! indices, index `i` trading places with its mirror
//! ([`morton_transpose`]); Strassen de-interleaves the right 32×32 BI
//! tile to a row-major stack buffer through a compile-time Morton table
//! and multiplies i-k-j, a row of the product at a time in registers, and
//! above its last level writes each element of `C` once, from all of its
//! products; the FFT's base case is an in-place iterative radix-2 over a
//! per-call root table.
//!
//! **At the core's width.** The dense leaves — the scan chunk sum,
//! Strassen's tile product and the FFT's row leaf — are each one
//! `#[inline(always)]` body plus a `_v3` wrapper that compiles it with
//! AVX2 and FMA enabled. Where `v3` finds both on the running core, the
//! leaf calls the wrapper, otherwise the plain body: no build flag and no
//! knob. Integer sums and the FFT compute the same bits in both builds
//! (Rust never fuses a multiply and an add on its own); Strassen's tile
//! fuses its updates with `mul_add` in the wrapper only, one rounding per
//! update instead of two. Both sorts
//! end in one stable leaf (`seq_sort`) that picks its method from its
//! own input: a copy for ordered keys, a digit scatter plus insertion
//! pass — O(1) work an element — for keys spread over their range, and
//! a tag sort of O(m log m) otherwise. Above the leaves merge sort
//! compares each element once per two-ended `merge2` level, and SPMS
//! once per step of a merge-path walk that tags it with its bucket id
//! (`spms_partition`); the gather then moves it by that id, and its
//! bucket's leaf sort finishes it (SPMS does not re-merge ≈ 1-element
//! runs pairwise). List ranking walks every node once and pointer-jumps
//! only over the n/16-node contracted list.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use hbp_model::Cx;

use crate::layout::{morton, morton_transpose};

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
    whole_lines::<(u64, u64)>(s)
}

/// Round `len` elements of `T` up to a whole number of cache lines.
const fn whole_lines<T>(len: usize) -> usize {
    len.next_multiple_of(LINE_BYTES / std::mem::size_of::<T>())
}

/// The one scratch allocation of a kernel launch, uninitialised: room
/// for `len` elements after `line_aligned` has skipped to a line boundary
/// of its `spare_capacity_mut`. Nothing is filled: the recursion writes
/// every window before it reads it. Raises the `arena_bytes` high-water
/// mark by the capacity (one check per launch, far off the hot path).
fn workspace<T>(len: usize) -> Vec<T> {
    let ws = Vec::with_capacity(len + LINE_BYTES / std::mem::size_of::<T>());
    raise_arena_gauge(ws.capacity() * std::mem::size_of::<T>());
    ws
}

/// Record a launch's workspace of `bytes` in the `arena_bytes`
/// high-water mark.
fn raise_arena_gauge(bytes: usize) {
    let m = hbp_metrics::global();
    if m.on() {
        m.arena_bytes.raise_to(bytes as i64);
    }
}

/// `x` as slots for a callee that overwrites all of them before it reads
/// any: the initialised buffer is scratch or a destination here, and its
/// old values are dead.
///
/// # Safety
///
/// Every element must be initialised again when the borrow ends: the
/// callee stores a value in each one (and never `MaybeUninit::uninit()`).
unsafe fn overwrite<T: Copy>(x: &mut [T]) -> &mut [MaybeUninit<T>] {
    // SAFETY: `MaybeUninit<T>` has `T`'s layout, and the caller leaves
    // every element initialised for the owner of `x`.
    unsafe { &mut *(x as *mut [T] as *mut [MaybeUninit<T>]) }
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

/// The kernels' one fork: the native pool's stealing join.
pub use hbp_sched::native::join as pjoin;

/// Whether the dense leaves run their AVX2+FMA build: both features
/// present on this core (read from CPUID once and cached by `std`), and
/// never off x86_64. Each dense leaf is one `#[inline(always)]` body and
/// a `_v3` wrapper that compiles the same body with the two features on;
/// its call site picks one by this check, per call.
fn v3() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Wrapping sum of a scan chunk: the M-Sum leaf and PS's first pass.
#[inline(always)]
fn chunk_sum(a: &[u64]) -> u64 {
    a.iter().copied().fold(0u64, u64::wrapping_add)
}

/// [`chunk_sum`] compiled for AVX2+FMA.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
fn chunk_sum_v3(a: &[u64]) -> u64 {
    chunk_sum(a)
}

/// [`chunk_sum`] in the build this core runs.
fn scan_leaf(a: &[u64]) -> u64 {
    if v3() {
        // SAFETY: `v3()` just found AVX2 and FMA on this core.
        unsafe { chunk_sum_v3(a) }
    } else {
        chunk_sum(a)
    }
}

/// Parallel sum (M-Sum).
pub fn par_sum(a: &[u64]) -> u64 {
    if a.len() <= SEQ_CUTOFF {
        return scan_leaf(a);
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
            out[0] = scan_leaf(a);
            return;
        }
        let mid = out.len() / 2;
        let (ol, or) = out.split_at_mut(mid);
        let (al, ar) = a.split_at(mid * chunk);
        pjoin(|| chunk_sums(al, chunk, ol), || chunk_sums(ar, chunk, or));
    }
    // Pass 2: rescan each chunk with its exclusive offset, writing every
    // element of the output exactly once.
    fn down_sweep(a: &[u64], out: &mut [MaybeUninit<u64>], chunk: usize, offsets: &[u64]) {
        if offsets.len() == 1 {
            debug_assert_eq!(out.len(), a.len());
            let mut acc = offsets[0];
            for (d, &x) in out.iter_mut().zip(a) {
                acc = acc.wrapping_add(x);
                d.write(acc);
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
    // Chunk sums, then in place their exclusive scan: the offsets.
    let mut offsets = vec![0u64; k];
    chunk_sums(a, chunk, &mut offsets);
    let mut acc = 0u64;
    for o in &mut offsets {
        (*o, acc) = (acc, acc.wrapping_add(*o));
    }
    let mut out = Vec::with_capacity(n);
    down_sweep(a, &mut out.spare_capacity_mut()[..n], chunk, &offsets);
    // SAFETY: the down-sweep leaves split `0..n` at the same points as
    // `a`, so they tile it, and each leaf wrote every element of its tile.
    unsafe { out.set_len(n) };
    out
}

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
fn leaf_mul<const FMA: bool>(a: &[f64], b: &[f64], c: &mut [MaybeUninit<f64>], k: usize) {
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
fn leaf_mul_v3(a: &[f64], b: &[f64], c: &mut [MaybeUninit<f64>], k: usize) {
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
        // SAFETY: the loop wrote every element of `buf`.
        unsafe { buf.assume_init_ref() }
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
                // SAFETY: term 0 of this quadrant is an earlier product,
                // which stored all of `cq` when it landed.
                let cq = unsafe { cq.assume_init_mut() };
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
            let m = strassen_product(a, b, k / 2, i, ws);
            strassen_land(m, c, i);
        }
    } else {
        let (h, q) = (k / 2, k * k / 4);
        let per = 3 * q + strassen_ws(h);
        strassen_fork(a, b, h, 0, 7, &mut ws[..7 * per], per);
        let ws = &*ws;
        // SAFETY: `strassen_fork` ran product `i` in window `i`, and its
        // recursion wrote the M part of that window whole.
        let ms = std::array::from_fn(|i| unsafe { ws[i * per + 2 * q..][..q].assume_init_ref() });
        let (c01, c23) = c.split_at_mut(2 * q);
        let (c0, c1) = c01.split_at_mut(q);
        let (c2, c3) = c23.split_at_mut(q);
        pjoin(
            || pjoin(|| land_quadrant(&ms, 0, c0), || land_quadrant(&ms, 1, c1)),
            || pjoin(|| land_quadrant(&ms, 2, c2), || land_quadrant(&ms, 3, c3)),
        );
    }
    // SAFETY: a leaf writes its whole tile; on the last level the first
    // three products store every quadrant (each quadrant's first term);
    // above it every quadrant is written by its `land_quadrant`.
    unsafe { c.assume_init_mut() }
}

/// Strassen multiplication of two `n×n` BI matrices (forked recursion
/// over one carved workspace), with a row-major multiply at the 32×32
/// leaves. The output and the workspace start uninitialised.
pub fn par_strassen_bi(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two() && a.len() == n * n && b.len() == n * n);
    let mut c = Vec::with_capacity(n * n);
    let mut ws = workspace(strassen_ws(n));
    strassen_rec(
        a,
        b,
        &mut c.spare_capacity_mut()[..n * n],
        n,
        line_aligned(ws.spare_capacity_mut()),
    );
    // SAFETY: `strassen_rec` wrote every element of `c`.
    unsafe { c.set_len(n * n) };
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
fn fft_leaf(rows: &mut [Cx], len: usize, r0: usize, twiddle: Option<usize>, roots: &Roots) {
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
fn fft_leaf_v3(rows: &mut [Cx], len: usize, r0: usize, twiddle: Option<usize>, roots: &Roots) {
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
    // SAFETY: the transpose wrote every element of `t`.
    let tx = unsafe { t.assume_init_mut() };
    // SAFETY: the row pass stores only values in its scratch, and the
    // transpose after it writes every element of `x`.
    let xs = unsafe { overwrite(x) };
    fft_rows(tx, xs, k1, 0, Some(n), roots);
    transpose_rows(tx, xs, k2, k1, 0);
    fft_rows(x, t, k2, 0, None, roots);
    transpose_rows(x, t, k1, k2, 0);
    // SAFETY: the transpose wrote every element of `t`.
    copy_par(unsafe { t.assume_init_ref() }, x);
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
        merge_split(&data[..mid], &data[mid..], scratch);
    } else {
        // SAFETY: the halves sorted into `scratch`, writing all of it;
        // `merge_split` writes every element of `data`.
        let (src, dst) = unsafe { (scratch.assume_init_ref(), overwrite(data)) };
        merge_split(&src[..mid], &src[mid..], dst);
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
    // SAFETY: the bucket starts are the exclusive prefix sums of the
    // counts, so the buckets tile `0..m` and the scatter wrote each
    // position once.
    let out = unsafe { out.assume_init_mut() };
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
    // SAFETY: the loop wrote every element of `out`.
    let out = unsafe { out.assume_init_mut() };
    out.sort_unstable_by_key(|&(key, at)| (u128::from(key) << 64) | u128::from(at));
    for o in out.iter_mut() {
        o.1 = src[o.1 as usize].1;
    }
}

/// `seq_sort` of `data` in place, through `scratch` (same length).
fn seq_sort_back(data: &mut [(u64, u64)], scratch: &mut [MaybeUninit<(u64, u64)>]) {
    seq_sort(data, scratch);
    // SAFETY: `seq_sort` writes every element of its output.
    data.copy_from_slice(unsafe { scratch.assume_init_ref() });
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
    // SAFETY: the gather wrote the bucket's `m` elements at its origin.
    let bucket = unsafe { a[..m].assume_init_mut() };
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
    // SAFETY: one walk per chunk row wrote both of its rows whole.
    let (cuts, ids) = unsafe { (cuts.assume_init_ref(), ids.assume_init_ref()) };
    let sizes = bucket_sizes(cuts, nbuckets);
    if sizes.contains(&n) {
        // Degenerate splitters (e.g. almost-constant keys): fall back to
        // one stable sequential sort out of the same arena.
        seq_sort_back(data, &mut arena[..n]);
        return;
    }

    // 4. gather, barrier, sort (see the function docs above).
    let cx = SpmsCx {
        q,
        cuts,
        ids,
        sizes: &sizes,
    };
    spms_gather(data, 0, nbuckets, arena, &cx);
    // SAFETY: the buckets' sizes sum to `n`, and each bucket's sort
    // writes its whole window of `data`.
    spms_sort_buckets(unsafe { overwrite(data) }, arena, &sizes);
}

/// Distance between the index splitters of [`par_list_rank`]: every
/// `LR_STRIDE`-th node starts a sublist (≈ log₂ n at the sizes served).
const LR_STRIDE: usize = 16;

/// Sublists a walk leaf advances in turn: a step is one dependent random
/// load, so interleaving independent walks is what overlaps the misses.
const LR_LANES: usize = 8;

/// Splitters per walk leaf.
const LR_LEAF: usize = 4 * SEQ_CUTOFF / LR_STRIDE;

/// `u64`s in a cache line.
const LINE_WORDS: usize = LINE_BYTES / std::mem::size_of::<u64>();

/// Low half of a packed word: a sublist offset or a distance.
const LOW: u64 = u32::MAX as u64;

/// `(id, count)` in one word, so a random read fetches both at once.
fn pack(id: usize, count: u64) -> u64 {
    debug_assert!(id as u64 <= LOW && count <= LOW);
    (id as u64) << 32 | count
}

/// The node no node points to: `Σ i − Σ succ[i]` over the non-tail
/// nodes' successors, which are all nodes but the head once each. A
/// forked reduction — no scatter, no marks array.
fn lr_head(succ: &[usize], off: usize) -> usize {
    if succ.len() <= SEQ_CUTOFF {
        return succ.iter().enumerate().fold(0usize, |acc, (i, &s)| {
            let i = off + i;
            acc.wrapping_add(i).wrapping_sub(if s == i { 0 } else { s })
        });
    }
    let mid = succ.len() / 2;
    let (l, r) = pjoin(
        || lr_head(&succ[..mid], off),
        || lr_head(&succ[mid..], off + mid),
    );
    l.wrapping_add(r)
}

/// Walk the sublists `[lo, hi)`: sublist `id` starts at node
/// `id · LR_STRIDE` (`head` for the id past the index splitters) and
/// runs until the next node is an index splitter or the tail. Every
/// visited node gets `tags[node] = (id, offset in the sublist)`, every
/// sublist `contracted[id] = (next sublist, hops to its first node)` —
/// `(tail_id, hops to the tail)` for the last one. Each word has one
/// writer (a node lies on one sublist), so the stores race with nothing;
/// they are atomics only because the targets are scattered over slices
/// every leaf shares.
fn lr_walk(
    succ: &[usize],
    head: usize,
    lo: usize,
    hi: usize,
    tags: &[AtomicU64],
    contracted: &[AtomicU64],
) {
    if hi - lo > LR_LEAF {
        let mid = lo + (hi - lo) / 2;
        pjoin(
            || lr_walk(succ, head, lo, mid, tags, contracted),
            || lr_walk(succ, head, mid, hi, tags, contracted),
        );
        return;
    }
    let n = succ.len();
    let index_splitters = n.div_ceil(LR_STRIDE);
    let tail_id = index_splitters + 1;
    let start = |id: usize| {
        (
            if id == index_splitters {
                head
            } else {
                id * LR_STRIDE
            },
            id,
            0u64,
        )
    };
    // (node, sublist, offset) of each live lane; `next_id` refills them.
    let mut lanes = [(0usize, 0usize, 0u64); LR_LANES];
    let mut next_id = lo;
    let mut live = 0;
    while live < LR_LANES && next_id < hi {
        lanes[live] = start(next_id);
        live += 1;
        next_id += 1;
    }
    while live > 0 {
        let mut l = 0;
        while l < live {
            let (node, id, offset) = lanes[l];
            // A sublist longer than the list is a cycle: not a list.
            assert!(offset < n as u64, "succ does not describe a single list");
            tags[node].store(pack(id, offset), Relaxed);
            let next = succ[node];
            if next != node && !next.is_multiple_of(LR_STRIDE) {
                lanes[l] = (next, id, offset + 1);
                l += 1;
                continue;
            }
            let link = if next == node {
                pack(tail_id, offset)
            } else {
                pack(next / LR_STRIDE, offset + 1)
            };
            contracted[id].store(link, Relaxed);
            if next_id < hi {
                lanes[l] = start(next_id);
                next_id += 1;
                l += 1;
            } else {
                live -= 1;
                lanes[l] = lanes[live];
            }
        }
    }
}

/// One pointer-jumping round over the contracted list:
/// `next[i] = (succ[succ[i]], dist[i] + dist[succ[i]])`, forked over
/// disjoint output windows (`off` = the window's global start index).
fn lr_jump(cur: &[AtomicU64], next: &mut [AtomicU64], off: usize) {
    debug_assert_line_start(next);
    if next.len() <= SEQ_CUTOFF {
        for (out, c) in next.iter_mut().zip(&cur[off..]) {
            let c = c.load(Relaxed);
            let s = cur[(c >> 32) as usize].load(Relaxed);
            *out.get_mut() = (s & !LOW) | ((c & LOW) + (s & LOW));
        }
        return;
    }
    let mid = (next.len() / 2).next_multiple_of(LINE_WORDS);
    let (nl, nr) = next.split_at_mut(mid);
    pjoin(|| lr_jump(cur, nl, off), || lr_jump(cur, nr, off + mid));
}

/// `rank[i]` = rank of node `i`'s sublist start − its offset in the
/// sublist: one streaming pass over the tags, forked over output windows,
/// writing every element of `rank`.
fn lr_expand(tags: &[AtomicU64], ranked: &[AtomicU64], rank: &mut [MaybeUninit<u64>]) {
    if rank.len() > SEQ_CUTOFF {
        let mid = rank.len() / 2;
        let (tl, tr) = tags.split_at(mid);
        let (rl, rr) = rank.split_at_mut(mid);
        pjoin(|| lr_expand(tl, ranked, rl), || lr_expand(tr, ranked, rr));
        return;
    }
    for (r, t) in rank.iter_mut().zip(tags) {
        let t = t.load(Relaxed);
        r.write((ranked[(t >> 32) as usize].load(Relaxed) & LOW) - (t & LOW));
    }
}

/// Parallel list ranking in O(n) work: `rank[i]` = hops from node `i` to
/// the tail of the single list `succ` describes (the tail is its own
/// successor) — contract to n/log n nodes, jump, expand.
///
/// 1. **Splitters** are every `LR_STRIDE`-th index plus the head
///    (`lr_head`); each starts a sublist that ends where the next
///    splitter begins.
/// 2. **Walk** (`lr_walk`): leaves take ranges of sublists and follow
///    them `LR_LANES` at a time, tagging every node with
///    `(sublist, offset)` and every sublist with `(next, length)` — one
///    dependent load and one scattered store per node, where pointer
///    jumping over the whole list does ⌈log₂ n⌉ gathers.
/// 3. **Rank the contracted list** of ⌈n/`LR_STRIDE`⌉ + 2 nodes (an
///    optional head sublist and a virtual tail included) by Wyllie
///    pointer jumping, successor and distance fused in one word
///    (`lr_jump`).
/// 4. **Expand** (`lr_expand`): `rank[i] = rank[sublist] − offset`.
///
/// Output plus one workspace (tags, and the two ping-pong halves of the
/// contracted list); every phase is a fork-join tree, and the joins are
/// what orders one phase's relaxed stores before the next phase's loads.
///
/// What this is not: the paper's list ranking (`crate::listrank` records
/// that one for the simulator — independent-set contraction with a sort
/// per level, which at these sizes is more memory traffic than the
/// jumping it would replace). Two properties follow. The span is the
/// longest sublist: O(log n) expected hops per lane on a random list,
/// Θ(n) on an adversarial numbering that keeps multiples of
/// `LR_STRIDE` apart — the work stays O(n) either way. And the walk's
/// tag stores from different workers land in the same lines — Θ(n/B)
/// shared blocks, the pattern the paper routes through a sort — so the
/// kernel is as fast as the sequential walk on one core and gains next
/// to nothing from a second (see README, "native hot path").
pub fn par_list_rank(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    if n == 0 {
        return Vec::new();
    }
    // Ids, offsets and distances are packed into 32-bit halves.
    assert!(
        n < LOW as usize,
        "par_list_rank packs node counts in 32 bits"
    );
    debug_assert_eq!(
        succ.iter().enumerate().filter(|&(i, &s)| s == i).count(),
        1,
        "a single list has exactly one tail"
    );
    let head = lr_head(succ, 0);
    let index_splitters = n.div_ceil(LR_STRIDE);
    // A head off the stride starts one more sublist, past the others.
    let head_id = if head.is_multiple_of(LR_STRIDE) {
        head / LR_STRIDE
    } else {
        index_splitters
    };
    let sublists = index_splitters.max(head_id + 1);
    let tail_id = index_splitters + 1;

    let tags_len = n.next_multiple_of(LINE_WORDS);
    let half = (tail_id + 1).next_multiple_of(LINE_WORDS);
    let mut ws: Vec<AtomicU64> = std::iter::repeat_with(AtomicU64::default)
        .take(tags_len + 2 * half + LINE_WORDS)
        .collect();
    raise_arena_gauge(std::mem::size_of_val(ws.as_slice()));
    let (tags, halves) = line_aligned(&mut ws).split_at_mut(tags_len);
    let (mut cur, rest) = halves.split_at_mut(half);
    let mut next = &mut rest[..half];

    // An unused head slot (the head is an index splitter) stays (0, 0):
    // nothing links to it.
    *cur[tail_id].get_mut() = pack(tail_id, 0);
    lr_walk(succ, head, 0, sublists, tags, cur);
    let rounds = usize::BITS - tail_id.leading_zeros();
    for _ in 0..rounds {
        lr_jump(cur, next, 0);
        std::mem::swap(&mut cur, &mut next);
    }
    debug_assert_eq!(
        cur[head_id].load(Relaxed),
        pack(tail_id, n as u64 - 1),
        "every node lies on the one list"
    );
    let mut rank = Vec::with_capacity(n);
    lr_expand(tags, cur, &mut rank.spare_capacity_mut()[..n]);
    // SAFETY: the expansion's leaves tile `0..n`, each writing its window.
    unsafe { rank.set_len(n) };
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::layout::to_bi;
    use crate::oracle;

    /// What `f` leaves in `m` fresh slots starting on a cache line, all of
    /// which it must write: under Miri a slot it missed is an
    /// uninitialised read here.
    fn written<T: Copy>(m: usize, f: impl FnOnce(&mut [MaybeUninit<T>])) -> Vec<T> {
        let mut buf = workspace::<T>(m);
        let slots = &mut line_aligned(buf.spare_capacity_mut())[..m];
        f(slots);
        // SAFETY: `f` wrote every slot (what the callers check).
        unsafe { slots.assume_init_ref() }.to_vec()
    }

    /// Run `check` off the pool (each join runs `a` and then `b` on this
    /// thread, spawning none), then as the root task of a 1-worker and of
    /// a 3-worker native pool.
    fn off_and_on_pools(check: impl Fn() + Sync) {
        check();
        for workers in [1, 3] {
            let cfg = hbp_sched::native::NativeConfig { workers, seed: 7 };
            hbp_sched::native::NativePool::run(cfg, &check);
        }
    }

    /// Run `f` as the root task of an untraced 2-worker native pool, so
    /// the thief can take a forked branch while the root runs its
    /// sibling: under Miri the two branches then interleave, and a race
    /// between them is reported.
    fn on_two_workers<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let cfg = hbp_sched::native::NativeConfig {
            workers: 2,
            seed: 7,
        };
        hbp_sched::native::NativePool::run(cfg, f).0
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
            let got = on_two_workers(|| par_prefix(&a));
            assert_eq!(got, oracle::prefix_sums(&a), "n={n}");
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

    /// Every dense leaf's output on fixed inputs, as `sum`, `fft` and
    /// `mul` compute it: chunk sums of several lengths, FFT rows with and
    /// without the twiddle, and Strassen tiles of every side up to `LEAF`.
    fn leaf_outputs(
        sum: impl Fn(&[u64]) -> u64,
        fft: impl Fn(&mut [Cx], usize, usize, Option<usize>, &Roots),
        mul: impl Fn(&[f64], &[f64], &mut [MaybeUninit<f64>], usize),
    ) -> (Vec<u64>, Vec<Vec<Cx>>, Vec<Vec<f64>>) {
        let words = gen::random_u64s(4099, u64::MAX, 9);
        let sums = [0usize, 1, 7, 1024, 4099]
            .iter()
            .map(|&m| sum(&words[..m]))
            .collect();
        let n = 1 << 12;
        let roots = Roots::new(n);
        let mut rows = Vec::new();
        // Rows 0..4 of 64 of a 4096-point level, rows 3..7 of 16 of a
        // 128-point one (row · column < m keeps every power in the
        // table), and the plain base case at the cutoff.
        for (len, r0, twiddle) in [(64, 0, Some(n)), (16, 3, Some(128)), (SEQ_CUTOFF, 0, None)] {
            let mut x = signal(4 * len);
            fft(&mut x, len, r0, twiddle, &roots);
            rows.push(x);
        }
        let (a, b) = (gen::random_matrix(LEAF, 3), gen::random_matrix(LEAF, 4));
        let tiles = (0..=5)
            .map(|e| {
                let k = 1usize << e;
                written(k * k, |c| mul(&a[..k * k], &b[..k * k], c, k))
            })
            .collect();
        (sums, rows, tiles)
    }

    #[test]
    fn both_builds_of_the_dense_leaves_agree() {
        let (sums, rows, tiles) = leaf_outputs(chunk_sum, fft_leaf, leaf_mul::<false>);
        let words = gen::random_u64s(4099, u64::MAX, 9);
        assert_eq!(sums[4], oracle::sum(&words));
        let mut want = signal(4 * SEQ_CUTOFF)[..SEQ_CUTOFF].to_vec();
        radix2(&mut want);
        assert_spectra_close(&rows[2][..SEQ_CUTOFF], &want);
        if !v3() {
            return;
        }
        // SAFETY: `v3()` just found AVX2 and FMA on this core.
        let (v3_sums, v3_rows, v3_tiles) = unsafe {
            leaf_outputs(
                |a| chunk_sum_v3(a),
                |x, len, r0, twiddle, roots| fft_leaf_v3(x, len, r0, twiddle, roots),
                |a, b, c, k| leaf_mul_v3(a, b, c, k),
            )
        };
        assert_eq!(v3_sums, sums);
        // Neither build contracts the FFT's multiplies and adds.
        for (got, want) in v3_rows.iter().zip(&rows) {
            let bits = |x: &[Cx]| -> Vec<(u64, u64)> {
                x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
            };
            assert_eq!(bits(got), bits(want));
        }
        // Strassen's updates are fused in one build only: one rounding
        // instead of two per multiply-add.
        for (got, want) in v3_tiles.iter().zip(&tiles) {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                    "k²={} i={i}",
                    want.len()
                );
            }
        }
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

    /// The list that visits the nodes in `order`.
    fn list_from_order(order: &[usize]) -> Vec<usize> {
        let mut succ = vec![0; order.len()];
        for w in order.windows(2) {
            succ[w[0]] = w[1];
        }
        if let Some(&tail) = order.last() {
            succ[tail] = tail;
        }
        succ
    }

    #[test]
    fn par_list_rank_matches_around_the_stride_and_the_cutoff() {
        off_and_on_pools(|| {
            assert_eq!(par_list_rank(&[]), Vec::<u64>::new());
            assert_eq!(par_list_rank(&[0]), vec![0], "a lone self-loop tail");
            let k = LR_STRIDE;
            for n in [2, k - 1, k, k + 1, 1023, 1025, 1 << 15] {
                let succ = gen::random_list(n, 8);
                assert_eq!(par_list_rank(&succ), oracle::list_rank(&succ), "n={n}");
            }
        });
    }

    #[test]
    fn par_list_rank_on_ordered_lists_and_every_head_and_tail_placement() {
        let k = LR_STRIDE;
        off_and_on_pools(|| {
            for n in [k + 1, 2 * k + 1, 4 * k, 4 * k + 5, 5000] {
                // Identity and reverse order: one sublist per splitter,
                // exactly LR_STRIDE long (the last one shorter).
                let identity: Vec<usize> = (0..n).collect();
                let reversed: Vec<usize> = (0..n).rev().collect();
                for order in [identity, reversed] {
                    let succ = list_from_order(&order);
                    let want: Vec<u64> = {
                        let mut rank = vec![0; n];
                        for (at, &node) in order.iter().enumerate() {
                            rank[node] = (n - 1 - at) as u64;
                        }
                        rank
                    };
                    assert_eq!(par_list_rank(&succ), want, "n={n} ordered");
                }
                if n <= 2 * k {
                    continue;
                }
                // Head and tail each on a multiple of the stride and not:
                // a head off the stride is the extra sublist, a tail on it
                // is a sublist of its own that ends at once.
                for (head, tail) in [(k, 2 * k), (k, 3), (5, 2 * k), (5, 3), (0, n - 1)] {
                    let mut order: Vec<usize> =
                        (0..n).filter(|&v| v != head && v != tail).collect();
                    // A fixed scramble, so sublists have mixed lengths.
                    let len = order.len();
                    for i in 0..len {
                        order.swap(i, (i * 7919 + 13) % len);
                    }
                    order.insert(0, head);
                    order.push(tail);
                    let succ = list_from_order(&order);
                    assert_eq!(
                        par_list_rank(&succ),
                        oracle::list_rank(&succ),
                        "n={n} head={head} tail={tail}"
                    );
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "single list")]
    fn par_list_rank_stops_on_a_cycle() {
        // 0 -> 1 -> 2 -> 1: node 3 is a tail, but the walk from 0 never
        // reaches it, nor a multiple of the stride.
        par_list_rank(&[1, 2, 1, 3, 5, 6, 7, 3]);
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
            let dest = written(n, |dest| spms_sort_buckets(dest, arena, &sizes));
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
                let cuts = written(nchunks * cs, |cuts| {
                    ids = written(nchunks * is, |ids| {
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
                // SAFETY: every slot started as `gap`, and the gather
                // stores only values.
                let arena = unsafe { arena.assume_init_ref() };
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
        let got = written(want.len(), |out| merge2(l, r, out));
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
                let got = written(ll + rl, |out| merge_split(&l, &r, out));
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
            let got = written(l.len() + r.len(), |out| merge2(&l, &r, out));
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
                let got = written(m, |out| leaf = seq_sort(&data, out));
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

    /// Each kernel whose launch hands out uninitialised windows, on a
    /// 2-worker pool, at the smallest size that reaches every such
    /// window: small enough for Miri, which reports a window read before
    /// it is written and a race between forked branches (CI runs
    /// `par::tests::uninit::` under it).
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

        #[test]
        fn fft_one_level_above_the_cutoff() {
            let x = signal(2 * SEQ_CUTOFF);
            let mut want = x.clone();
            radix2(&mut want);
            let mut got = x;
            on_two_workers(|| par_fft(&mut got));
            assert_spectra_close(&got, &want);
        }

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

        #[test]
        fn list_rank_writes_every_rank() {
            let succ = gen::random_list(2 * SEQ_CUTOFF + 3, 8);
            let got = on_two_workers(|| par_list_rank(&succ));
            assert_eq!(got, oracle::list_rank(&succ));
        }
    }
}
