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
//! fork. The recursion hands out `&mut [MaybeUninit<T>]` windows and
//! writes every element before its first read: a transpose, an operand
//! sum or a merge fills its destination, Strassen stores each quadrant of
//! a product before adding to it, and SPMS's partition walks store every
//! slot of their cut and id rows, padding included. One module, `carve`,
//! owns that obligation and every `unsafe` step it needs, and a debug
//! build checks it: every window starts poisoned, and turning one into
//! data panics at the first element no writer stored (release builds
//! neither fill nor check). The one zeroed workspace is list ranking's:
//! its tags and contracted halves are atomics, shared as soon as they
//! exist, and the jumps read unused slots. `tests/native_kernel_outputs.rs`
//! pins every kernel's output bits and, in a release build, runs each on
//! a heap left full of all-ones words.
//!
//! **The work of the sequential program.** Each kernel does, up to a
//! small constant, what its single-thread reference does, stores to its
//! output and scratch only what that program would (never a fill first),
//! and its leaves do it the way a plain sequential program would: the
//! scans' leaves are one pass over their chunk, and PS writes each output
//! element once; an MT block below the cutoff is one loop over its Morton
//! indices, index `i` trading places with its mirror
//! ([`morton_transpose`](crate::layout::morton_transpose)); Strassen
//! de-interleaves the right 32×32 BI tile to a row-major stack buffer
//! through a compile-time Morton table and multiplies i-k-j, a row of the
//! product at a time in registers, and above its last level writes each
//! element of `C` once, from all of its products; the FFT's base case is
//! an in-place iterative radix-2 over a per-call root table.
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

mod carve;
mod fft;
mod lr;
mod mt;
mod scan;
mod sort;
mod strassen;

pub use fft::par_fft;
pub use lr::par_list_rank;
pub use mt::par_transpose_bi;
pub use scan::{par_prefix, par_sum};
pub use sort::{par_mergesort, par_spms};
pub use strassen::par_strassen_bi;

/// Sequential cutoff below which recursion stops forking.
const SEQ_CUTOFF: usize = 1 << 10;

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

#[cfg(test)]
mod tests {
    use std::mem::MaybeUninit;

    use hbp_model::Cx;

    use super::carve::{line_aligned, workspace, written, Slot};
    use super::fft::{fft_leaf, fft_leaf_v3, Roots};
    use super::scan::{chunk_sum, chunk_sum_v3};
    use super::strassen::{leaf_mul, leaf_mul_v3, LEAF};
    use super::*;
    use crate::gen;
    use crate::oracle;

    /// What `f` leaves in `m` fresh workspace slots starting on a cache
    /// line, all of which it must write: a debug build panics naming the
    /// first slot it missed.
    pub(super) fn carved<T: Slot>(m: usize, f: impl FnOnce(&mut [MaybeUninit<T>])) -> Vec<T> {
        let mut buf = workspace::<T>(m);
        let slots = &mut line_aligned(buf.spare_capacity_mut())[..m];
        f(slots);
        written(slots).to_vec()
    }

    /// Run `check` off the pool (each join runs `a` and then `b` on this
    /// thread, spawning none), then as the root task of a 1-worker and of
    /// a 3-worker native pool.
    pub(super) fn off_and_on_pools(check: impl Fn() + Sync) {
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
    pub(super) fn on_two_workers<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let cfg = hbp_sched::native::NativeConfig {
            workers: 2,
            seed: 7,
        };
        hbp_sched::native::NativePool::run(cfg, f).0
    }

    /// Textbook iterative radix-2 with recurrence twiddles: the reference
    /// for lengths the O(n²) [`oracle::dft`] cannot reach.
    pub(super) fn radix2(x: &mut [Cx]) {
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

    pub(super) fn signal(n: usize) -> Vec<Cx> {
        (0..n)
            .map(|i| Cx::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect()
    }

    pub(super) fn assert_spectra_close(got: &[Cx], want: &[Cx]) {
        let tol = 1e-9 * want.len() as f64;
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g.re - w.re).abs() < tol && (g.im - w.im).abs() < tol,
                "n={} i={i}: {g:?} vs {w:?}",
                want.len()
            );
        }
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
                carved(k * k, |c| mul(&a[..k * k], &b[..k * k], c, k))
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
}
