//! Structural analysis of recorded computations: work `W`, critical path
//! `T∞`, limited access, and the paper's `f(r)` (cache friendliness,
//! Def 2.1) and `L(r)` (block sharing, Def 2.3) estimators.

use std::collections::HashMap;

use hbp_machine::Word;

use crate::comp::{Computation, Item, NodeId, Target};

/// Critical-path length `T∞` in access units: the longest chain of accesses
/// through the series-parallel DAG (each fork/join adds one unit of O(1)
/// bookkeeping).
pub fn span(comp: &Computation) -> u64 {
    fn rec(comp: &Computation, node: NodeId) -> u64 {
        let mut total = 0u64;
        for it in comp.items_of(node) {
            match *it {
                Item::Seg(s) => total += s.len() as u64,
                Item::Fork { left, right, .. } => {
                    total += 1 + rec(comp, left).max(rec(comp, right)) + 1;
                }
            }
        }
        total
    }
    rec(comp, comp.root)
}

/// Depth of the fork tree (number of forks on the deepest path).
fn fork_depth(comp: &Computation) -> u32 {
    fn rec(comp: &Computation, node: NodeId) -> u32 {
        let mut total = 0;
        for it in comp.items_of(node) {
            if let Item::Fork { left, right, .. } = *it {
                total += 1 + rec(comp, left).max(rec(comp, right));
            }
        }
        total
    }
    rec(comp, comp.root)
}

/// Per-word write counts over the whole computation — the limited-access
/// checker (Def 2.4). Returns `(max_writes_per_global_word,
/// max_writes_per_local_word)`.
pub fn write_counts(comp: &Computation) -> (u32, u32) {
    let mut glob: HashMap<Word, u32> = HashMap::new();
    let mut loc: HashMap<(NodeId, u32), u32> = HashMap::new();
    for a in &comp.arena {
        if !a.write() {
            continue;
        }
        match a.target() {
            Target::Global(w) => *glob.entry(w).or_insert(0) += 1,
            Target::Local { node, off } => *loc.entry((node, off)).or_insert(0) += 1,
        }
    }
    (
        glob.values().copied().max().unwrap_or(0),
        loc.values().copied().max().unwrap_or(0),
    )
}

/// Result row of the `f(r)` estimator for one task.
#[derive(Debug, Clone, Copy)]
pub struct FRow {
    /// Declared task size `r`.
    pub size: u64,
    /// Number of accesses in the task's subtree.
    pub accesses: u64,
    /// Distinct global blocks touched by the subtree.
    pub blocks: u64,
}

/// Estimate `f(r)` per task: for every node, the number of distinct global
/// blocks its subtree accesses. Definition 2.1 says a task of size `r` in an
/// `f`-friendly computation touches `O(r/B + f(r))` blocks; tests compare
/// `blocks - accesses/B` against the claimed `f`.
///
/// Intended for diagnostic/test use on small inputs (cost is
/// O(total accesses · depth) in the worst case).
pub fn f_estimate(comp: &Computation, block_words: u64) -> Vec<FRow> {
    // Bottom-up: each node's sorted, deduped block list.
    fn rec(
        comp: &Computation,
        block_words: u64,
        node: NodeId,
        out: &mut Vec<FRow>,
    ) -> (Vec<u64>, u64) {
        let mut blocks: Vec<u64> = Vec::new();
        let mut acc = 0u64;
        for it in comp.items_of(node) {
            match *it {
                Item::Seg(s) => {
                    for a in &comp.arena[s.start as usize..s.end as usize] {
                        if let Target::Global(w) = a.target() {
                            blocks.push(w / block_words);
                        }
                        acc += 1;
                    }
                }
                Item::Fork { left, right, .. } => {
                    for ch in [left, right] {
                        let (mut cb, ca) = rec(comp, block_words, ch, out);
                        blocks.append(&mut cb);
                        acc += ca;
                    }
                }
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        out.push(FRow {
            size: comp.nodes[node.idx()].size,
            accesses: acc,
            blocks: blocks.len() as u64,
        });
        (blocks, acc)
    }
    let mut out = Vec::new();
    rec(comp, block_words, comp.root, &mut out);
    out
}

/// Result row of the `L(r)` estimator for one steal-candidate task.
#[derive(Debug, Clone, Copy)]
pub struct LRow {
    /// Declared task size `r`.
    pub size: u64,
    /// Global blocks shared with the sibling subtree, counting only blocks
    /// *written* by at least one side (read-shared blocks never ping-pong).
    pub shared_blocks: u64,
}

/// Estimate the block-sharing function `L(r)` (Def 2.3) at sibling level:
/// for every fork, the number of global blocks accessed by both children
/// with at least one side writing. Sibling-level sharing captures the
/// dominant parallel sharing in balanced HBP computations (ancestor-level
/// parallel tasks access supersets partitioned the same way).
pub fn l_estimate(comp: &Computation, block_words: u64) -> Vec<LRow> {
    use std::collections::HashSet;

    // Per node: (blocks read, blocks written) for the subtree.
    fn collect(
        comp: &Computation,
        bw: u64,
        node: NodeId,
        rows: &mut Vec<LRow>,
    ) -> (HashSet<u64>, HashSet<u64>) {
        let mut reads = HashSet::new();
        let mut writes = HashSet::new();
        for it in comp.items_of(node) {
            match *it {
                Item::Seg(s) => {
                    for a in &comp.arena[s.start as usize..s.end as usize] {
                        if let Target::Global(w) = a.target() {
                            if a.write() {
                                writes.insert(w / bw);
                            } else {
                                reads.insert(w / bw);
                            }
                        }
                    }
                }
                Item::Fork { left, right, .. } => {
                    let (lr, lw) = collect(comp, bw, left, rows);
                    let (rr, rw) = collect(comp, bw, right, rows);
                    // shared = (touched_l ∩ touched_r) with a write on
                    // either side
                    let mut shared = 0u64;
                    let touched_l: HashSet<u64> = lr.union(&lw).copied().collect();
                    for b in rr.union(&rw) {
                        if touched_l.contains(b) && (lw.contains(b) || rw.contains(b)) {
                            shared += 1;
                        }
                    }
                    rows.push(LRow {
                        size: comp.nodes[left.idx()]
                            .size
                            .max(comp.nodes[right.idx()].size),
                        shared_blocks: shared,
                    });
                    reads.extend(lr);
                    reads.extend(rr);
                    writes.extend(lw);
                    writes.extend(rw);
                }
            }
        }
        (reads, writes)
    }
    let mut rows = Vec::new();
    collect(comp, block_words, comp.root, &mut rows);
    rows
}

/// Summary of a computation's structural parameters — one Table-1 row.
#[derive(Debug, Clone, Copy)]
pub struct StructuralSummary {
    /// Work: total recorded accesses.
    pub work: u64,
    /// Critical path in access units.
    pub span: u64,
    /// Fork-tree depth.
    pub fork_depth: u32,
    /// Number of distinct priorities `D'`.
    pub n_priorities: u32,
    /// Number of task nodes.
    pub n_nodes: usize,
    /// Max writes to any global word.
    pub max_global_writes: u32,
    /// Max writes to any local word.
    pub max_local_writes: u32,
}

/// Compute the structural summary of a computation.
pub fn summarize(comp: &Computation) -> StructuralSummary {
    let (g, l) = write_counts(comp);
    StructuralSummary {
        work: comp.work(),
        span: span(comp),
        fork_depth: fork_depth(comp),
        n_priorities: comp.n_priorities,
        n_nodes: comp.n_nodes(),
        max_global_writes: g,
        max_local_writes: l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildConfig, Builder, GArray};

    /// BP tree sum with the paper's in-order up-tree output layout (§3.3):
    /// leaf `i`'s value lives at `out[2i]`, the internal node over `[lo,hi)`
    /// (midpoint `mid`) at `out[2·mid - 1]`. Every slot is written exactly
    /// once (limited access) and each subtree's slots are contiguous
    /// (f(r) = O(1), sibling sharing ≤ 1 boundary block).
    fn bp_sum(n: usize) -> Computation {
        let data: Vec<u64> = vec![1; n];
        Builder::build(BuildConfig::default(), n as u64, |b| {
            let a = b.input(&data);
            let out = b.alloc::<u64>(2 * n - 1);
            // slot of the subtree over [lo, hi)
            fn slot(lo: usize, hi: usize) -> usize {
                if hi - lo == 1 {
                    2 * lo
                } else {
                    2 * (lo + (hi - lo) / 2) - 1
                }
            }
            fn rec(b: &mut Builder, a: GArray<u64>, out: GArray<u64>, lo: usize, hi: usize) {
                if hi - lo == 1 {
                    let v = b.read(a, lo);
                    b.write(out, slot(lo, hi), v);
                    return;
                }
                let mid = lo + (hi - lo) / 2;
                b.fork(
                    (mid - lo) as u64,
                    (hi - mid) as u64,
                    |b| rec(b, a, out, lo, mid),
                    |b| rec(b, a, out, mid, hi),
                );
                let v1 = b.read(out, slot(lo, mid));
                let v2 = b.read(out, slot(mid, hi));
                b.write(out, slot(lo, hi), v1 + v2);
            }
            rec(b, a, out, 0, n);
        })
    }

    #[test]
    fn span_is_logarithmic_for_bp() {
        let c64 = bp_sum(64);
        let c256 = bp_sum(256);
        assert!(span(&c256) < 2 * span(&c64) + 64); // O(log n) growth
        assert_eq!(fork_depth(&c64), 6);
        assert_eq!(fork_depth(&c256), 8);
    }

    #[test]
    fn work_is_linear_for_bp() {
        let c = bp_sum(128);
        assert!(c.work() >= 2 * 128);
        assert!(c.work() <= 16 * 128);
    }

    #[test]
    fn limited_access_bp_sum() {
        let c = bp_sum(64);
        let (g, l) = write_counts(&c);
        assert_eq!(g, 1, "each output word written exactly once");
        assert_eq!(l, 0);
    }

    #[test]
    fn f_estimate_scan_is_cache_friendly() {
        // A contiguous scan has f(r) = O(1): blocks ≈ accesses/B + O(1).
        let c = bp_sum(256);
        for row in f_estimate(&c, 32) {
            assert!(
                row.blocks <= row.accesses / 32 + 4,
                "size {} touched {} blocks for {} accesses",
                row.size,
                row.blocks,
                row.accesses
            );
        }
    }

    #[test]
    fn l_estimate_scan_is_o1() {
        // Sibling tasks in a scan share at most the boundary block(s).
        let c = bp_sum(256);
        for row in l_estimate(&c, 32) {
            assert!(
                row.shared_blocks <= 2,
                "size {} shares {} blocks",
                row.size,
                row.shared_blocks
            );
        }
    }

    #[test]
    fn summary_is_consistent() {
        let c = bp_sum(64);
        let s = summarize(&c);
        assert_eq!(s.work, c.work());
        assert_eq!(s.n_nodes, c.n_nodes());
        assert_eq!(s.n_priorities, 6);
    }
}
