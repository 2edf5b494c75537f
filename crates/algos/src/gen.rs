//! Workload generators for tests, examples and benchmarks.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random linked list over `0..n`: returns `succ` where `succ[i]` is the
/// successor and the tail points to itself. The list visits all `n` nodes.
pub fn random_list(n: usize, seed: u64) -> Vec<usize> {
    assert!(n >= 1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut succ = vec![0usize; n];
    for w in order.windows(2) {
        succ[w[0]] = w[1];
    }
    let tail = *order.last().unwrap();
    succ[tail] = tail;
    succ
}

/// A random undirected graph with `n` vertices and `m` distinct edges
/// (no self-loops). Deterministic per seed.
pub fn random_graph(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(n >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            edges.push(key);
        }
    }
    edges
}

/// A random tree on `n` vertices as a list of parent-child edges
/// (vertex 0 is the root). Deterministic per seed.
pub fn random_tree(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (1..n).map(|v| (rng.random_range(0..v), v)).collect()
}

/// Random `u64` values in `[0, bound)`.
pub fn random_u64s(n: usize, bound: u64, seed: u64) -> Vec<u64> {
    let mut draws = u64_draws(bound, seed);
    (0..n).map(|_| draws()).collect()
}

/// The stream [`random_u64s`] collects, one draw per call, for builders
/// that put each value straight into their own element type.
pub fn u64_draws(bound: u64, seed: u64) -> impl FnMut() -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    move || rng.random_range(0..bound)
}

/// Random `f64` matrix entries in `[-1, 1]`.
pub fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_list_is_a_single_chain() {
        for n in [1usize, 2, 17, 100] {
            let succ = random_list(n, 42);
            // exactly one tail; all nodes reachable by walking from the head
            let tails = (0..n).filter(|&i| succ[i] == i).count();
            assert_eq!(tails, 1, "n={n}");
            let ranks = crate::oracle::list_rank(&succ);
            let mut sorted = ranks.clone();
            sorted.sort();
            assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn random_graph_has_m_distinct_edges() {
        let edges = random_graph(20, 30, 7);
        assert_eq!(edges.len(), 30);
        let set: std::collections::HashSet<_> = edges.iter().collect();
        assert_eq!(set.len(), 30);
        for &(u, v) in &edges {
            assert!(u < v && v < 20);
        }
    }

    #[test]
    fn random_tree_is_connected() {
        let n = 50;
        let edges = random_tree(n, 3);
        assert_eq!(edges.len(), n - 1);
        let labels = crate::oracle::components(n, &edges);
        assert!(labels.iter().all(|&l| l == 0));
    }

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

    fn pairs(edges: Vec<(usize, usize)>) -> impl Iterator<Item = u64> {
        edges.into_iter().flat_map(|(u, v)| [u as u64, v as u64])
    }

    /// Every input the workspace's digests rest on, at two sizes each,
    /// pinned from the generator that computed one ChaCha8 block per refill.
    #[test]
    fn outputs_match_the_pinned_digests() {
        let got = [
            fnv1a(random_u64s(1000, 1 << 30, 3)),
            fnv1a(random_u64s(1 << 17, u64::MAX / 2, 11)),
            fnv1a(random_matrix(8, 1).into_iter().map(f64::to_bits)),
            fnv1a(random_matrix(256, 2).into_iter().map(f64::to_bits)),
            fnv1a(random_list(100, 5).into_iter().map(|v| v as u64)),
            fnv1a(random_list(1 << 14, 6).into_iter().map(|v| v as u64)),
            fnv1a(pairs(random_graph(20, 30, 7))),
            fnv1a(pairs(random_graph(1000, 5000, 8))),
            fnv1a(pairs(random_tree(50, 3))),
            fnv1a(pairs(random_tree(1 << 14, 9))),
        ];
        let want: [u64; 10] = [
            0x9f8c_edcf_0a22_eeb8,
            0xc648_b4a8_920b_6aed,
            0x7bed_5cd9_82b9_3505,
            0xdf99_dd82_36b7_1825,
            0x7d52_1832_6a58_6788,
            0x3827_5418_f253_9f2f,
            0x6d69_8430_0225_f5d6,
            0x55b8_d2ac_a261_e052,
            0xb5d6_e6f3_5ef7_a83f,
            0x80ee_5a41_4960_fc35,
        ];
        assert_eq!(
            got.map(|h| format!("{h:#018x}")),
            want.map(|h| format!("{h:#018x}"))
        );
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_list(64, 5), random_list(64, 5));
        assert_eq!(random_graph(10, 12, 5), random_graph(10, 12, 5));
        assert_eq!(random_u64s(10, 100, 5), random_u64s(10, 100, 5));
    }
}
