//! Connected Components (paper §3.2, Table 1: Type 4, `W = O(n log² n)`,
//! `T∞ = O(log³ n · log log n)`).
//!
//! The paper uses the CC algorithm of \[11\], whose dominant cost is `log n`
//! stages of list-ranking-flavored primitives. We implement the same shape
//! with deterministic **min-label hooking**: each stage
//!
//! 1. emits directed edge records `(L[u] → L[v])` for both directions,
//! 2. sorts them by source label (SPMS, [`crate::spms`] — the real
//!    Sample–Partition–Merge sort, not the mergesort stand-in),
//! 3. min-reduces each run (per-class reduction trees, like M-Sum),
//! 4. hooks every label to `min(own, min-neighbor)`,
//! 5. compresses the hooking forest with pointer doubling
//!    (fresh arrays per round — limited access), and
//! 6. relabels vertices.
//!
//! Labels that survive a stage are local minima of the label graph, so no
//! two adjacent labels survive and the number of live labels at least
//! halves: ≤ log₂ n stages.

use hbp_model::{BuildConfig, Builder, Computation, GArray, Local};

use crate::spms::spms_into;
use crate::util::{ceil_log2, View};

/// Min-reduction over `recs[lo..hi)` values, M-Sum style: children deposit
/// partial minima in parent-frame locals.
fn min_run(b: &mut Builder, recs: GArray<(u64, u64)>, lo: usize, hi: usize, dst: Local<u64>) {
    if hi - lo == 1 {
        let (_, v) = b.read(recs, lo);
        b.wloc(dst, v);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let m1 = b.local(u64::MAX);
    let m2 = b.local(u64::MAX);
    b.fork(
        (mid - lo) as u64,
        (hi - mid) as u64,
        |b| min_run(b, recs, lo, mid, m1),
        |b| min_run(b, recs, mid, hi, m2),
    );
    let v1 = b.rloc(m1);
    let v2 = b.rloc(m2);
    b.wloc(dst, v1.min(v2));
}

/// Connected components: returns per-vertex labels (smallest vertex index
/// in the component).
pub fn connected_components(
    n: usize,
    edges: &[(usize, usize)],
    cfg: BuildConfig,
) -> (Computation, GArray<u64>) {
    assert!(n >= 1);
    let mut out_h = None;
    let comp = Builder::build(cfg, (n + edges.len()).max(1) as u64, |b| {
        let eu = b.input(&edges.iter().map(|&(u, _)| u as u64).collect::<Vec<_>>());
        let ev = b.input(&edges.iter().map(|&(_, v)| v as u64).collect::<Vec<_>>());
        let mut lab = b.input(&(0..n as u64).collect::<Vec<_>>());
        let max_stages = 2 * ceil_log2(n.max(2) as u64) + 2;
        for _stage in 0..max_stages {
            // --- emit directed records between differing labels ----------
            let mut live = 0usize;
            for i in 0..edges.len() {
                if b.peek(lab, b.peek(eu, i) as usize) != b.peek(lab, b.peek(ev, i) as usize) {
                    live += 1;
                }
            }
            if live == 0 {
                break;
            }
            let recs = b.alloc::<(u64, u64)>(2 * live);
            {
                // BP over edges: write both directed records (skip equal
                // labels; slot decided at build, one write per slot).
                let mut slot = 0usize;
                let idxs: Vec<usize> = (0..edges.len())
                    .filter(|&i| {
                        b.peek(lab, b.peek(eu, i) as usize) != b.peek(lab, b.peek(ev, i) as usize)
                    })
                    .collect();
                hbp_model::builder::fanout_uniform(b, idxs.len(), 2, &mut |b, j| {
                    let i = idxs[j];
                    let u = b.read(eu, i) as usize;
                    let v = b.read(ev, i) as usize;
                    let lu = b.read(lab, u);
                    let lv = b.read(lab, v);
                    b.write(recs, slot, (lu, lv));
                    b.write(recs, slot + 1, (lv, lu));
                    slot += 2;
                });
            }
            // --- sort records by source label ----------------------------
            let sorted = b.alloc::<(u64, u64)>(2 * live);
            spms_into(b, View::g(recs), View::g(sorted), 0, 2 * live);
            // --- per-run min-reduction + hooking --------------------------
            let parent = b.alloc::<u64>(n);
            hbp_model::builder::fanout_uniform(b, n, 1, &mut |b, l| {
                b.write(parent, l, l as u64);
            });
            // run boundaries known at build time
            let mut runs: Vec<(u64, usize, usize)> = Vec::new();
            let mut i = 0usize;
            while i < 2 * live {
                let key = b.peek(sorted, i).0;
                let mut j = i + 1;
                while j < 2 * live && b.peek(sorted, j).0 == key {
                    j += 1;
                }
                runs.push((key, i, j));
                i = j;
            }
            hbp_model::builder::fanout_uniform(b, runs.len(), 2, &mut |b, ri| {
                let (key, lo, hi) = runs[ri];
                let m = b.local(u64::MAX);
                min_run(b, sorted, lo, hi, m);
                let mv = b.rloc(m);
                b.write(parent, key as usize, mv.min(key));
            });
            // --- pointer doubling (fresh array per round) -----------------
            let mut p = parent;
            for _ in 0..ceil_log2(n.max(2) as u64) {
                let np = b.alloc::<u64>(n);
                hbp_model::builder::fanout_uniform(b, n, 1, &mut |b, l| {
                    let q = b.read(p, l) as usize;
                    let qq = b.read(p, q);
                    b.write(np, l, qq);
                });
                p = np;
            }
            // --- relabel ---------------------------------------------------
            let nl = b.alloc::<u64>(n);
            hbp_model::builder::fanout_uniform(b, n, 1, &mut |b, v| {
                let l = b.read(lab, v) as usize;
                let r = b.read(p, l);
                b.write(nl, v, r);
            });
            lab = nl;
        }
        out_h = Some(lab);
    });
    (comp, out_h.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_graph, random_tree};
    use crate::oracle;
    use crate::util::read_out;

    fn check(n: usize, edges: &[(usize, usize)]) {
        let (comp, out) = connected_components(n, edges, BuildConfig::default());
        let got: Vec<usize> = read_out(&comp, out).iter().map(|&x| x as usize).collect();
        let want = oracle::components(n, edges);
        assert_eq!(got, want, "n={n} edges={edges:?}");
    }

    #[test]
    fn simple_graphs() {
        check(1, &[]);
        check(4, &[]);
        check(4, &[(0, 1), (2, 3)]);
        check(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]); // path
        check(5, &[(0, 4), (4, 2), (2, 0)]); // cycle + isolated
    }

    #[test]
    fn adversarial_label_ordering() {
        // descending path: hooking chains are long, doubling must compress
        let n = 16;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (n - 1 - i, n - 2 - i)).collect();
        check(n, &edges);
    }

    #[test]
    fn random_graphs_match_union_find() {
        for (n, m, seed) in [(16, 10, 1u64), (64, 40, 2), (128, 200, 3), (100, 30, 4)] {
            let edges = random_graph(n, m, seed);
            check(n, &edges);
        }
    }

    #[test]
    fn trees_are_single_component() {
        let n = 64;
        let edges = random_tree(n, 9);
        let (comp, out) = connected_components(n, &edges, BuildConfig::default());
        let got = read_out(&comp, out);
        assert!(got.iter().all(|&l| l == 0));
    }

    #[test]
    fn work_scales_quasilinearly() {
        let e64 = random_graph(64, 128, 5);
        let e128 = random_graph(128, 256, 5);
        let (c1, _) = connected_components(64, &e64, BuildConfig::default());
        let (c2, _) = connected_components(128, &e128, BuildConfig::default());
        let ratio = c2.work() as f64 / c1.work() as f64;
        assert!(ratio < 5.0, "W should grow quasilinearly, ratio {ratio}");
    }
}
