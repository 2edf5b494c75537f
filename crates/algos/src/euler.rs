//! Euler-tour tree computations (paper §4.6: "The Euler tour and tree
//! computation algorithms have the same complexity since they are simple
//! applications of the parallel list ranking algorithm").
//!
//! A rooted tree's Euler tour is a linked list over its `2(n−1)` directed
//! edges. Ranking the tour with two weight assignments gives the classic
//! tree statistics, all through [`crate::listrank`]:
//!
//! * `D(e)` = rank with weight 1 on **down** edges: down-edges at or after
//!   `e` in the tour (the tail's weight is forced to 0);
//! * `U(e)` = rank with weight 1 on **up** edges;
//! * for the down edge `e` into `v`:  `depth(v) = U(e) + 2 − D(e)`;
//! * tour position `pos(e) = m − 1 − (D(e) + U(e))`, and
//!   `subtree_size(v) = (pos(up_e) − pos(down_e) + 1) / 2`.

use hbp_model::{BuildConfig, Builder, Computation, GArray};

use crate::listrank::build_rank;

/// The Euler tour of a rooted tree: for each directed edge `2i = (u→v)`,
/// `2i+1 = (v→u)` of `edges[i] = (u, v)` (u the parent), the successor in
/// the tour; the last edge back into the root is the tail (self-loop).
fn euler_tour_succ(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    assert!(n >= 2 && edges.len() == n - 1);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // directed edge ids out of v
    for (i, &(u, v)) in edges.iter().enumerate() {
        adj[u].push(2 * i); // u -> v
        adj[v].push(2 * i + 1); // v -> u
    }
    let head = |e: usize| -> usize {
        let (u, v) = edges[e / 2];
        if e.is_multiple_of(2) {
            v
        } else {
            u
        }
    };
    let m = 2 * (n - 1);
    let mut succ = vec![usize::MAX; m];
    for e in 0..m {
        // next(x→y) = the out-edge of y after (y→x) in y's adjacency.
        let y = head(e);
        let twin = e ^ 1;
        let idx = adj[y]
            .iter()
            .position(|&e2| e2 == twin)
            .expect("twin edge in adjacency");
        succ[e] = adj[y][(idx + 1) % adj[y].len()];
    }
    // Cut the circular tour at the root's first out-edge; its predecessor
    // becomes the tail.
    let first = adj[0][0];
    let tail = (0..m).find(|&e| succ[e] == first).expect("tour is a cycle");
    succ[tail] = tail;
    succ
}

/// Results of the Euler-tour tree computation.
pub struct TreeStats {
    /// The recorded computation (two weighted list rankings + combine BPs).
    pub comp: Computation,
    /// `depth[v]` (root = 0).
    pub depth: GArray<u64>,
    /// `subtree_size[v]` (root = n).
    pub size: GArray<u64>,
}

/// Compute every node's depth and subtree size via Euler tour + LR.
///
/// `edges[i] = (parent, child)` with vertex 0 the root.
pub fn tree_stats(
    n: usize,
    edges: &[(usize, usize)],
    cfg: BuildConfig,
    gapping: bool,
) -> TreeStats {
    assert!(n >= 2);
    let succ = euler_tour_succ(n, edges);
    let m = succ.len();
    let w_down: Vec<u64> = (0..m).map(|e| u64::from(e % 2 == 0)).collect();
    let w_up: Vec<u64> = (0..m).map(|e| u64::from(e % 2 == 1)).collect();
    let mut depth_h = None;
    let mut size_h = None;
    let comp = Builder::build(cfg, m as u64, |b| {
        let d = build_rank(b, &succ, &w_down, gapping);
        let u = build_rank(b, &succ, &w_up, gapping);
        let depth = b.alloc::<u64>(n);
        let size = b.alloc::<u64>(n);
        b.poke(depth, 0, 0);
        b.poke(size, 0, n as u64);
        // One BP over the n−1 tree edges computing both statistics
        // (O(1) accesses per leaf; each vertex written exactly once).
        let mm = m as u64;
        hbp_model::builder::fanout_uniform(b, n - 1, 1, &mut |b, i| {
            let (down, up) = (2 * i, 2 * i + 1);
            let v = edges[i].1;
            let d_dn = b.read(d, down);
            let u_dn = b.read(u, down);
            let d_up = b.read(d, up);
            let u_up = b.read(u, up);
            // ups ≤ pos(e) = total_up − U(e) − 1 (the tail up-edge's weight
            // is forced to 0), downs ≤ pos(e) = total_down − D(e) + 1, so
            // depth(v) = U(e) + 2 − D(e); ≥ 1 since every down edge after e
            // closes with an up edge after e.
            b.write(depth, v, u_dn + 2 - d_dn);
            // pos(e) = m-1-(D+U); size = (pos(up) - pos(down) + 1) / 2
            let pos_dn = mm - 1 - (d_dn + u_dn);
            let pos_up = mm - 1 - (d_up + u_up);
            b.write(size, v, (pos_up - pos_dn).div_ceil(2));
        });
        depth_h = Some(depth);
        size_h = Some(size);
    });
    TreeStats {
        comp,
        depth: depth_h.unwrap(),
        size: size_h.unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_tree;
    use crate::util::read_out;

    /// BFS oracle: depths and subtree sizes.
    fn oracle(n: usize, edges: &[(usize, usize)]) -> (Vec<u64>, Vec<u64>) {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            children[u].push(v);
        }
        let mut depth = vec![0u64; n];
        let mut order = vec![0usize];
        let mut i = 0;
        while i < order.len() {
            let u = order[i];
            i += 1;
            for &v in &children[u] {
                depth[v] = depth[u] + 1;
                order.push(v);
            }
        }
        let mut size = vec![1u64; n];
        for &u in order.iter().rev() {
            for &v in &children[u] {
                size[u] += size[v];
            }
        }
        (depth, size)
    }

    #[test]
    fn tour_is_a_single_list_over_all_edges() {
        let n = 32;
        let edges = random_tree(n, 4);
        let succ = euler_tour_succ(n, &edges);
        let ranks = crate::oracle::list_rank(&succ);
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(sorted, (0..succ.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn depths_and_sizes_match_bfs() {
        for (n, seed) in [(2usize, 1u64), (5, 2), (17, 3), (64, 4), (200, 5)] {
            let edges = random_tree(n, seed);
            let ts = tree_stats(n, &edges, BuildConfig::default(), true);
            let (want_d, want_s) = oracle(n, &edges);
            assert_eq!(read_out(&ts.comp, ts.depth), want_d, "depth n={n}");
            assert_eq!(read_out(&ts.comp, ts.size), want_s, "size n={n}");
        }
    }

    #[test]
    fn path_tree_depths() {
        // path 0-1-2-...: depth(v) = v, size(v) = n - v
        let n = 20;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let ts = tree_stats(n, &edges, BuildConfig::default(), false);
        let d = read_out(&ts.comp, ts.depth);
        let s = read_out(&ts.comp, ts.size);
        for v in 0..n {
            assert_eq!(d[v], v as u64);
            assert_eq!(s[v], (n - v) as u64);
        }
    }

    #[test]
    fn star_tree_depths() {
        let n = 16;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        let ts = tree_stats(n, &edges, BuildConfig::default(), true);
        let d = read_out(&ts.comp, ts.depth);
        let s = read_out(&ts.comp, ts.size);
        assert_eq!(d[0], 0);
        assert!(d[1..].iter().all(|&x| x == 1));
        assert!(s[1..].iter().all(|&x| x == 1));
        assert_eq!(s[0], n as u64);
    }
}
