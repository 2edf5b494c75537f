//! Sequential reference implementations used as correctness oracles for
//! every trace-built algorithm.

use hbp_model::Cx;

/// Sum of a slice.
pub fn sum(a: &[u64]) -> u64 {
    a.iter().copied().fold(0u64, u64::wrapping_add)
}

/// Inclusive prefix sums.
pub fn prefix_sums(a: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut acc = 0u64;
    for &x in a {
        acc = acc.wrapping_add(x);
        out.push(acc);
    }
    out
}

/// Transpose of an `n×n` row-major matrix.
pub fn transpose_rm(a: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            out[c * n + r] = a[r * n + c];
        }
    }
    out
}

/// Naive `n×n` row-major matrix product.
pub fn matmul_rm(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                out[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    out
}

/// Naive DFT: `X[k] = Σ_j x[j]·e^{-2πi·jk/n}`.
pub fn dft(x: &[Cx]) -> Vec<Cx> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Cx::default();
            for (j, &v) in x.iter().enumerate() {
                let theta = -2.0 * std::f64::consts::PI * (j as f64) * (k as f64) / n as f64;
                acc = acc + v * Cx::cis(theta);
            }
            acc
        })
        .collect()
}

/// Sorted copy of a slice of `(key, payload)` pairs, stable on key.
pub fn sort_pairs(a: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v = a.to_vec();
    v.sort_by_key(|&(k, _)| k);
    v
}

/// Sequential list ranking: `rank[i]` = number of hops from `i` to the tail
/// (the element whose successor is itself), counting weights.
///
/// `succ[i]` is the successor index; the tail points to itself.
pub fn list_rank(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    let mut rank = vec![0u64; n];
    // Find tail and build predecessor chain.
    let mut pred = vec![usize::MAX; n];
    let mut tail = usize::MAX;
    for i in 0..n {
        if succ[i] == i {
            tail = i;
        } else {
            pred[succ[i]] = i;
        }
    }
    assert!(tail != usize::MAX, "list has no tail");
    let mut cur = tail;
    let mut d = 0u64;
    loop {
        rank[cur] = d;
        d += 1;
        if pred[cur] == usize::MAX {
            break;
        }
        cur = pred[cur];
    }
    rank
}

/// Connected-component labels via union–find: `label[v]` = smallest vertex
/// index in `v`'s component.
pub fn components(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while p[r] != r {
            r = p[r];
        }
        let mut c = x;
        while p[c] != r {
            let nx = p[c];
            p[c] = r;
            c = nx;
        }
        r
    }
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv)] = ru.min(rv);
        }
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_sum() {
        let a = [3, 1, 4, 1, 5];
        let ps = prefix_sums(&a);
        assert_eq!(ps, vec![3, 4, 8, 9, 14]);
        assert_eq!(*ps.last().unwrap(), sum(&a));
    }

    #[test]
    fn transpose_involutes() {
        let n = 4;
        let a: Vec<f64> = (0..16).map(|x| x as f64).collect();
        assert_eq!(transpose_rm(&transpose_rm(&a, n), n), a);
    }

    #[test]
    fn matmul_identity() {
        let n = 3;
        let mut id = vec![0.0; 9];
        for i in 0..3 {
            id[i * 3 + i] = 1.0;
        }
        let a: Vec<f64> = (0..9).map(|x| x as f64 + 1.0).collect();
        assert_eq!(matmul_rm(&a, &id, n), a);
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Cx::default(); 8];
        x[0] = Cx::new(1.0, 0.0);
        for v in dft(&x) {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn list_rank_chain() {
        // 3 -> 1 -> 0 -> 2(tail)
        let succ = vec![2, 0, 2, 1];
        assert_eq!(list_rank(&succ), vec![1, 2, 0, 3]);
    }

    #[test]
    fn components_basic() {
        let labels = components(5, &[(0, 1), (3, 4)]);
        assert_eq!(labels, vec![0, 0, 2, 3, 3]);
    }
}
