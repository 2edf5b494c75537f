//! M-Sum and prefix sums (PS): forked scans over chunk leaves.

use std::mem::MaybeUninit;

use super::carve::output;
use super::{pjoin, v3, SEQ_CUTOFF};

/// Wrapping sum of a scan chunk: the M-Sum leaf and PS's first pass.
#[inline(always)]
pub(super) fn chunk_sum(a: &[u64]) -> u64 {
    a.iter().copied().fold(0u64, u64::wrapping_add)
}

/// [`chunk_sum`] compiled for AVX2+FMA.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
pub(super) fn chunk_sum_v3(a: &[u64]) -> u64 {
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
    // The down-sweep leaves split `0..n` at the same points as `a`, so
    // they tile it, and each leaf writes every element of its tile.
    output(n, |out| down_sweep(a, out, chunk, &offsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle;
    use crate::par::tests::on_two_workers;

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
}
