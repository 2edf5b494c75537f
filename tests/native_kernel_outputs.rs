//! The native kernels' outputs, bit for bit, and on a dirty heap.
//!
//! A launch hands its recursion workspace and output windows that start
//! uninitialised: every element is written before it is first read, and
//! nothing is zero-filled up front. Two tests hold that discipline to
//! account:
//!
//! - `outputs_match_the_pinned_digests` pins an FNV-1a-64 digest of each
//!   kernel's output bits, computed before the pre-fill was removed, at
//!   sizes that reach every window the kernels carve (Strassen's forked
//!   level and its shared last level, the FFT's six steps, both sorts'
//!   forked levels, list ranking's expansion). Exact equality, not the
//!   oracles' tolerance: a window read before it is written changes bits.
//!   Each kernel runs off a pool, where its joins run in turn on this
//!   thread, and on pools of 1 and 2 workers, against the same digests.
//! - `kernels_never_read_a_dirty_heap` leaves all-ones words (NaN as
//!   `f64`, `u64::MAX` as a key) where the kernel's own allocations will
//!   land, then checks the output against the sequential oracle. An
//!   element read before it is written reads that garbage, so it fails
//!   here as a wrong answer, without a sanitizer. That holds in a release
//!   build, which CI runs: a debug build poisons every window the kernels
//!   carve before they write it, and panics naming an element read
//!   before it was written, so there the dirty heap is overwritten first.
//!
//! Inputs are the registry's (`hbp_core::registry`): the same generators
//! and seeds its `native` column draws.

use hbp_core::algos::{gen, layout, oracle, par};
use hbp_core::model::Cx;
use hbp_core::sched::native::{NativeConfig, NativePool};

const SEED: u64 = 5;

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn bi_matrix(n: usize, seed: u64) -> Vec<f64> {
    layout::to_bi(&gen::random_matrix(n, seed), n)
}

fn fft_input(n: usize, seed: u64) -> Vec<Cx> {
    gen::random_u64s(2 * n, 1 << 20, seed)
        .chunks(2)
        .map(|w| Cx::new(w[0] as f64 / 1e6, w[1] as f64 / 1e6))
        .collect()
}

fn sort_input(n: usize, seed: u64) -> Vec<(u64, u64)> {
    gen::random_u64s(n, u64::MAX / 2, seed)
        .into_iter()
        .zip(0..)
        .collect()
}

/// Whether the dense leaves run their AVX2+FMA build on this core, where
/// Strassen's tile fuses its multiply-adds (the kernel's own test).
fn fused_leaves() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One kernel at one size: `(name, n, bytes, run)`. `run(n, armed)`
/// builds the registry's input, calls `armed`, launches the kernel and
/// returns its output as words; `bytes` bounds the launch's output plus
/// workspace.
type Case = (&'static str, usize, usize, fn(usize, &dyn Fn()) -> Vec<u64>);

fn cases() -> Vec<Case> {
    fn strassen(n: usize, armed: &dyn Fn()) -> Vec<u64> {
        let (a, b) = (bi_matrix(n, SEED), bi_matrix(n, SEED + 1));
        armed();
        let c = par::par_strassen_bi(&a, &b, n);
        c.iter().map(|v| v.to_bits()).collect()
    }
    fn fft(n: usize, armed: &dyn Fn()) -> Vec<u64> {
        let mut x = fft_input(n, SEED);
        armed();
        par::par_fft(&mut x);
        x.iter()
            .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
            .collect()
    }
    fn list_rank(n: usize, armed: &dyn Fn()) -> Vec<u64> {
        let succ = gen::random_list(n, SEED);
        armed();
        par::par_list_rank(&succ)
    }
    fn spms(n: usize, armed: &dyn Fn()) -> Vec<u64> {
        let mut data = sort_input(n, SEED);
        armed();
        par::par_spms(&mut data);
        data.iter().flat_map(|&(k, p)| [k, p]).collect()
    }
    fn mergesort(n: usize, armed: &dyn Fn()) -> Vec<u64> {
        let mut data = sort_input(n, SEED);
        armed();
        par::par_mergesort(&mut data);
        data.iter().flat_map(|&(k, p)| [k, p]).collect()
    }
    // Strassen's workspace is 0.75 of a matrix at 64 and 6.6 at 128, on
    // top of the output; the others need at most two copies of their
    // input.
    let mut cases: Vec<Case> = vec![
        ("strassen", 64, 5 * 64 * 64 * 8, strassen),
        ("strassen", 128, 8 * 128 * 128 * 8, strassen),
    ];
    for n in [1 << 10, 1 << 12] {
        cases.push(("fft", n, 3 * n * 16, fft));
    }
    cases.push(("list_rank", 1 << 13, 3 * (1 << 13) * 8, list_rank));
    for n in [3000, 4096] {
        cases.push(("spms", n, 3 * n * 16, spms));
        cases.push(("mergesort", n, 2 * n * 16, mergesort));
    }
    cases
}

/// FNV-1a-64 of each case's output, in [`cases`] order, as
/// `(plain build, fused build)`: only Strassen's tile rounds differently
/// in the two, every other kernel computes the same bits in both.
const PINNED: [(u64, u64); 9] = [
    (0xe4b3_fe64_0976_2f73, 0xae5c_f8cf_f6c9_afcd),
    (0x68ad_7d39_a04b_a03f, 0x274f_b365_7f1f_946b),
    (0x29ba_ceb9_b1f1_7dc5, 0x29ba_ceb9_b1f1_7dc5),
    (0x029b_560e_49af_dc8d, 0x029b_560e_49af_dc8d),
    (0x6a91_d514_ac61_96c9, 0x6a91_d514_ac61_96c9),
    (0x201e_ada3_5780_eeec, 0x201e_ada3_5780_eeec),
    (0x201e_ada3_5780_eeec, 0x201e_ada3_5780_eeec),
    (0xe79f_e52c_77a3_d962, 0xe79f_e52c_77a3_d962),
    (0xe79f_e52c_77a3_d962, 0xe79f_e52c_77a3_d962),
];

#[test]
fn outputs_match_the_pinned_digests() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len());
    let digests = || {
        cases
            .iter()
            .map(|&(_, n, _, run)| fnv1a(run(n, &|| {})))
            .collect::<Vec<_>>()
    };
    // `None`: no pool, where every join runs its two closures in turn.
    for workers in [None, Some(1), Some(2)] {
        let got_all = match workers {
            None => digests(),
            Some(workers) => NativePool::run(NativeConfig { workers, seed: 3 }, digests).0,
        };
        let on = workers.map_or("no pool".to_string(), |w| format!("{w} worker(s)"));
        for ((&(name, n, _, _), got), &(plain, fused)) in cases.iter().zip(got_all).zip(&PINNED) {
            let want = if fused_leaves() { fused } else { plain };
            assert_eq!(got, want, "{name} n={n} on {on}: {got:#018x}");
        }
    }
}

/// Allocate `bytes` of all-ones words and free them, twice: the first
/// free of a block past glibc's mmap threshold unmaps it and raises the
/// threshold to its size, so the second block comes from this thread's
/// heap, where the allocations that follow on this thread find it.
fn dirty_heap(bytes: usize) {
    for _ in 0..2 {
        std::hint::black_box(vec![u64::MAX; bytes / 8]);
    }
}

/// The sequential reference's output for case `name` at `n`, as words.
fn oracle_words(name: &str, n: usize) -> Vec<u64> {
    match name {
        "strassen" => {
            let (a, b) = (gen::random_matrix(n, SEED), gen::random_matrix(n, SEED + 1));
            let c = layout::to_bi(&oracle::matmul_rm(&a, &b, n), n);
            c.iter().map(|v| v.to_bits()).collect()
        }
        "fft" => oracle::dft(&fft_input(n, SEED))
            .iter()
            .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
            .collect(),
        "list_rank" => oracle::list_rank(&gen::random_list(n, SEED)),
        _ => oracle::sort_pairs(&sort_input(n, SEED))
            .iter()
            .flat_map(|&(k, p)| [k, p])
            .collect(),
    }
}

#[test]
fn kernels_never_read_a_dirty_heap() {
    let cases = cases();
    let want: Vec<Vec<u64>> = cases
        .iter()
        .map(|&(name, n, _, _)| oracle_words(name, n))
        .collect();
    for workers in [1, 3] {
        let cfg = NativeConfig { workers, seed: 9 };
        let (outputs, _) = NativePool::run(cfg, || {
            cases
                .iter()
                .map(|&(_, n, bytes, run)| run(n, &|| dirty_heap(bytes)))
                .collect::<Vec<_>>()
        });
        for ((&(name, n, _, _), got), want) in cases.iter().zip(outputs).zip(&want) {
            assert_eq!(got.len(), want.len());
            let ok = match name {
                // Floating point: the oracle's rounding differs, and NaN
                // is never within any tolerance.
                "strassen" | "fft" => got.iter().zip(want).all(|(&g, &w)| {
                    let (g, w) = (f64::from_bits(g), f64::from_bits(w));
                    (g - w).abs() <= 1e-9 * n as f64 * (1.0 + w.abs())
                }),
                _ => got == *want,
            };
            assert!(ok, "{name} n={n} on {workers} worker(s) read a dirty word");
        }
    }
}
