//! Allocation-accounting regression tests for the native kernels' hot
//! paths.
//!
//! PR 7 replaced SPMS's per-bucket scratch `Vec`s (and `sort_unstable`'s
//! hidden per-call temp buffer) with one ping-pong arena sized by
//! `arena_len`, carved into disjoint line-aligned windows; PR 14 gave
//! Strassen, the FFT, list ranking and merge sort the same workspace
//! discipline (see the `par` module docs). The point of that design is
//! allocation behaviour: a launch makes O(1) large allocations — its
//! output, one workspace, the FFT's root table — instead of ~10 `Vec`s
//! per Strassen node, a buffer per FFT call, four arrays per list-ranking
//! round, two copies per merge level, or SPMS's old O(√n) per-bucket
//! pattern.
//!
//! A counting `GlobalAlloc` wrapper pins that: each kernel must stay
//! under a small constant number of *large* (≥ 4 KiB) allocations, the
//! same number at two sizes. Small allocations are ignored — the vendored
//! rayon spawns scoped threads whose bookkeeping (thread packets, join
//! handles) allocates a few hundred bytes each, and those are not what
//! these tests gate. A regression back to per-node buffers trips the
//! bounds by an order of magnitude, so the margins are generous without
//! being blind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use hbp_core::algos::par;
use hbp_core::model::Cx;

/// Allocations at or above this size count toward the budget. The arena,
/// the flattened cut/boundary tables, and the sample vector all clear it
/// at n = 2^16; thread-spawn bookkeeping stays well under it.
const LARGE: usize = 4096;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow crossing the threshold is a fresh large allocation from
        // the accounting point of view (Vec doubling into large sizes).
        if new_size >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn keyed(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut s = seed | 1;
    (0..n as u64)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s, i)
        })
        .collect()
}

/// The counter is process-wide and the harness runs tests on parallel
/// threads, so each test holds this for its whole body — another test's
/// input `Vec`s would otherwise be counted as this one's.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Large allocations made while `f` runs.
fn large_allocs(f: impl FnOnce()) -> u64 {
    let before = LARGE_ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    LARGE_ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn par_spms_makes_constant_large_allocations_not_per_bucket() {
    let _turn = turn();
    let n = 1 << 16;
    let mut data = keyed(n, 0x5eed);
    let mut expect: Vec<(u64, u64)> = data.clone();
    expect.sort(); // payloads are unique, so a full sort is the oracle

    let large = large_allocs(|| par::par_spms(&mut data));

    assert_eq!(data, expect, "sorted output before counting anything");
    // One super-recursion level at n = 2^16 (chunks of 256 fall to the
    // sequential cutoff): the arena plus a handful of flattened tables.
    // The old per-bucket shape costs hundreds here.
    assert!(
        large <= 32,
        "par_spms(n=2^16) made {large} large (>= {LARGE} B) allocations; \
         expected O(1) per super-level — per-bucket scratch is back"
    );
    // Guard the guard: the counter is actually armed and counting (the
    // arena alone is a multi-MB allocation).
    assert!(
        large >= 1,
        "counter saw no large allocations — test is inert"
    );
}

/// `kernel(n)` returns the large allocations of one launch at size `n`:
/// the count must be `want` at `small` and at `big` alike.
fn assert_constant(name: &str, want: u64, small: usize, big: usize, kernel: impl Fn(usize) -> u64) {
    let _turn = turn();
    // The first launch of the process also builds the metrics registry.
    kernel(small);
    for n in [small, big] {
        let large = kernel(n);
        assert_eq!(
            large, want,
            "{name}(n={n}) made {large} large (>= {LARGE} B) allocations, not {want}: \
             a launch allocates its output and one workspace, whatever n is"
        );
    }
}

#[test]
fn par_strassen_allocates_its_output_and_one_workspace() {
    assert_constant("par_strassen_bi", 2, 128, 256, |n| {
        let a: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
        large_allocs(|| {
            std::hint::black_box(par::par_strassen_bi(&a, &b, n));
        })
    });
}

#[test]
fn par_prefix_allocates_its_output_once() {
    // The output; the offset table (one word per chunk of ≤ 1024
    // elements: 64 and 256 of them here) stays under the large line.
    assert_constant("par_prefix", 1, 1 << 16, 1 << 18, |n| {
        let a: Vec<u64> = (0..n as u64).collect();
        large_allocs(|| {
            let out = par::par_prefix(&a);
            assert_eq!(out[n - 1], (n as u64 - 1) * n as u64 / 2);
        })
    });
}

#[test]
fn par_fft_allocates_one_root_table_and_one_scratch() {
    assert_constant("par_fft", 2, 1 << 14, 1 << 16, |n| {
        let mut x: Vec<Cx> = (0..n).map(|i| Cx::new(i as f64, 0.5)).collect();
        large_allocs(|| par::par_fft(&mut x))
    });
}

#[test]
fn par_list_rank_allocates_its_output_and_one_workspace() {
    assert_constant("par_list_rank", 2, 1 << 13, 1 << 15, |n| {
        // 0 -> 1 -> ... -> n-1, the last its own successor.
        let succ: Vec<usize> = (0..n).map(|i| (i + 1).min(n - 1)).collect();
        large_allocs(|| {
            let rank = par::par_list_rank(&succ);
            assert_eq!(rank[0], n as u64 - 1);
        })
    });
}

#[test]
fn par_mergesort_allocates_one_scratch() {
    assert_constant("par_mergesort", 1, 1 << 14, 1 << 16, |n| {
        let mut data = keyed(n, 0xfeed);
        large_allocs(|| par::par_mergesort(&mut data))
    });
}
