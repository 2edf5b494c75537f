//! List Ranking (paper §3.2, §4.6): `rank[i]` = weighted distance from `i`
//! to the tail of a linked list.
//!
//! Structure (Type 3 HBP): while the list is longer than `n / log n`,
//! contract it by an **independent set** found with two rounds of
//! deterministic coin tossing (O(log log n) colors — our stand-in for the
//! `O(log^(k) r)`-coloring MO-IS of \[11\]) followed by per-color-class
//! sweeps; recurse on the contracted list; reinsert the removed elements.
//! Below the threshold, finish with **pointer jumping** using fresh
//! (double-buffered) arrays per round, which keeps the computation limited
//! access. Each contraction level computes predecessors by SPMS-sorting
//! `(successor, node)` records ([`crate::spms`]) and sweeping the sorted
//! run — the paper's sort-then-sweep routing of scatter traffic.
//!
//! **Gapping** (§3.2): when the contracted list has size `r`, it is stored
//! with stride `x = ⌊√(n/r)⌋` (i.e. size `n/x²` lives in space `n/x`, every
//! `x`-th location) — once `r ≤ n/B²` every element sits in its own block
//! and no more block misses occur. The `gapping` flag switches this off for
//! the ablation experiment (F8).
//!
//! The recursive call has `v = 1` subproblem of size ≤ 5r/6, sequenced
//! inline in the root task (a single subproblem adds no parallelism).

use hbp_model::{BuildConfig, Builder, Computation, GArray};

use crate::spms::spms_into;
use crate::util::{ceil_log2, View};

/// Deterministic coin tossing: a color in `0..2·64` distinct from `dct`
/// applied at the (differing) neighbor.
fn dct(a: u64, b: u64) -> u64 {
    debug_assert_ne!(a, b);
    let k = (a ^ b).trailing_zeros() as u64;
    2 * k + ((a >> k) & 1)
}

/// One level of the contraction recursion, all at build time.
struct Level {
    /// Active slot positions within the level's arrays (ascending).
    slots: Vec<usize>,
    /// Array size (slots are `0, x, 2x, …` for stride `x`).
    space: usize,
    succ: GArray<u64>,
    w: GArray<u64>,
}

/// BP over an explicit slot list (size-1 leaves).
fn for_slots(b: &mut Builder, slots: &[usize], leaf: &mut impl FnMut(&mut Builder, usize)) {
    if slots.is_empty() {
        return;
    }
    hbp_model::builder::fanout_uniform(b, slots.len(), 1, &mut |b, idx| leaf(b, slots[idx]));
}

/// Pointer-jumping base case: `⌈log₂ r⌉` rounds, fresh arrays per round.
fn jump_base(b: &mut Builder, lvl: &Level) -> GArray<u64> {
    let rounds = ceil_log2(lvl.slots.len().max(2) as u64);
    let mut cur_s = lvl.succ;
    let mut cur_d = lvl.w;
    for _ in 0..rounds {
        let ns = b.alloc::<u64>(lvl.space);
        let nd = b.alloc::<u64>(lvl.space);
        for_slots(b, &lvl.slots, &mut |b, i| {
            let s = b.read(cur_s, i) as usize;
            let d = b.read(cur_d, i);
            let ds = b.read(cur_d, s);
            let ss = b.read(cur_s, s);
            b.write(nd, i, d + ds);
            b.write(ns, i, ss);
        });
        cur_s = ns;
        cur_d = nd;
    }
    cur_d
}

/// Rank the list at `lvl`; returns the rank array (valid at active slots).
fn rank_level(b: &mut Builder, lvl: Level, n_top: usize, gapping: bool) -> GArray<u64> {
    let r = lvl.slots.len();
    let threshold = (n_top / (ceil_log2(n_top.max(2) as u64) as usize).max(1)).max(8);
    if r <= threshold {
        return jump_base(b, &lvl);
    }

    // --- predecessors via SPMS (paper §4.6 idiom: route scatter traffic
    // through a sort) -----------------------------------------------------
    // Emit (successor, node) records for the non-tail slots, SPMS-sort
    // them by successor, then sweep the sorted records positionally: the
    // writes into `pred` land in ascending address order instead of the
    // cache-hostile random scatter.
    let pred = b.alloc::<u64>(lvl.space);
    let none = lvl.space as u64;
    for &i in &lvl.slots {
        b.poke(pred, i, none); // calloc-style sentinel fill
    }
    let non_tail: Vec<usize> = lvl
        .slots
        .iter()
        .copied()
        .filter(|&i| b.peek(lvl.succ, i) as usize != i)
        .collect();
    if !non_tail.is_empty() {
        let recs = b.alloc::<(u64, u64)>(non_tail.len());
        {
            let mut slot = 0usize;
            for_slots(b, &non_tail, &mut |b, i| {
                let s = b.read(lvl.succ, i);
                b.write(recs, slot, (s, i as u64));
                slot += 1;
            });
        }
        let sorted = b.alloc::<(u64, u64)>(non_tail.len());
        spms_into(b, View::g(recs), View::g(sorted), 0, non_tail.len());
        // Successors are unique (one predecessor each), so position t of
        // the sorted records names exactly one pred cell.
        hbp_model::builder::fanout_uniform(b, non_tail.len(), 1, &mut |b, t| {
            let (s, i) = b.read(sorted, t);
            b.write(pred, s as usize, i);
        });
    }

    // --- two DCT coloring rounds ---------------------------------------
    let tail_sentinel1 = 2 * 64 + 2;
    let tail_sentinel2 = 2 * 8 + 6;
    let col1 = b.alloc::<u64>(lvl.space);
    for_slots(b, &lvl.slots, &mut |b, i| {
        let s = b.read(lvl.succ, i) as usize;
        let c = if s == i {
            tail_sentinel1
        } else {
            dct(i as u64, s as u64)
        };
        b.write(col1, i, c);
    });
    let col2 = b.alloc::<u64>(lvl.space);
    for_slots(b, &lvl.slots, &mut |b, i| {
        let s = b.read(lvl.succ, i) as usize;
        let c = b.read(col1, i);
        let c2 = if s == i {
            tail_sentinel2
        } else {
            let cs = b.read(col1, s);
            dct(c, cs)
        };
        b.write(col2, i, c2);
    });

    // --- IS selection: one sweep per color class ------------------------
    let sel = b.alloc::<u64>(lvl.space);
    let blocked = b.alloc::<u64>(lvl.space);
    let mut classes: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for &i in &lvl.slots {
        let s = b.peek(lvl.succ, i) as usize;
        let p = b.peek(pred, i);
        if s == i || p == none {
            continue; // never remove the tail or the head
        }
        classes.entry(b.peek(col2, i)).or_default().push(i);
    }
    for (_, members) in classes {
        for_slots(b, &members, &mut |b, i| {
            let bl = b.read(blocked, i);
            if bl == 0 {
                b.write(sel, i, 1);
                let s = b.read(lvl.succ, i) as usize;
                b.write(blocked, s, 1);
                let p = b.read(pred, i) as usize;
                b.write(blocked, p, 1);
            }
        });
    }

    // --- contraction into fresh (gapped) arrays -------------------------
    let survivors: Vec<usize> = lvl
        .slots
        .iter()
        .copied()
        .filter(|&i| b.peek(sel, i) == 0)
        .collect();
    let new_r = survivors.len();
    assert!(new_r < r, "independent set must be non-empty");
    let stride = if gapping {
        (((n_top as f64) / new_r as f64).sqrt() as usize).max(1)
    } else {
        1
    };
    let new_space = new_r * stride;
    // survivor numbering (the paper computes this with a prefix-sums BP)
    let map = b.alloc::<u64>(lvl.space);
    let new_slots: Vec<usize> = (0..new_r).map(|j| j * stride).collect();
    {
        let mut j = 0usize;
        let surv = survivors.clone();
        for_slots(b, &surv, &mut |b, i| {
            b.write(map, i, (j * stride) as u64);
            j += 1;
        });
    }
    let nsucc = b.alloc::<u64>(new_space.max(1));
    let nw = b.alloc::<u64>(new_space.max(1));
    for_slots(b, &survivors, &mut |b, i| {
        let mi = b.read(map, i) as usize;
        let s = b.read(lvl.succ, i) as usize;
        if s == i {
            b.write(nsucc, mi, mi as u64);
            let wi = b.read(lvl.w, i);
            b.write(nw, mi, wi);
        } else if b.read(sel, s) == 1 {
            // absorb the removed successor
            let s2 = b.read(lvl.succ, s) as usize;
            let wi = b.read(lvl.w, i);
            let ws = b.read(lvl.w, s);
            let m2 = b.read(map, s2);
            b.write(nsucc, mi, m2);
            b.write(nw, mi, wi + ws);
        } else {
            let m2 = b.read(map, s);
            let wi = b.read(lvl.w, i);
            b.write(nsucc, mi, m2);
            b.write(nw, mi, wi);
        }
    });

    // --- recurse (v = 1 subproblem of size ≤ 5r/6) -----------------------
    let nrank = rank_level(
        b,
        Level {
            slots: new_slots,
            space: new_space.max(1),
            succ: nsucc,
            w: nw,
        },
        n_top,
        gapping,
    );

    // --- reinsertion ------------------------------------------------------
    let rank = b.alloc::<u64>(lvl.space);
    for_slots(b, &survivors, &mut |b, i| {
        let mi = b.read(map, i) as usize;
        let v = b.read(nrank, mi);
        b.write(rank, i, v);
    });
    let selected: Vec<usize> = lvl
        .slots
        .iter()
        .copied()
        .filter(|&i| b.peek(sel, i) == 1)
        .collect();
    for_slots(b, &selected, &mut |b, i| {
        let s = b.read(lvl.succ, i) as usize;
        let wi = b.read(lvl.w, i);
        let rv = b.read(rank, s);
        b.write(rank, i, wi + rv);
    });
    rank
}

/// Build a weighted ranking inside an existing computation: returns the
/// rank array, where `rank[i] = Σ w over the path from i to the tail`
/// (excluding the tail's own weight, which is forced to 0). Used by the
/// Euler-tour tree computations (§4.6) to rank a tour twice with
/// different weights in one computation.
pub fn build_rank(b: &mut Builder, succ: &[usize], w: &[u64], gapping: bool) -> GArray<u64> {
    let n = succ.len();
    assert!(n >= 1 && w.len() == n);
    let s0 = b.input(&succ.iter().map(|&x| x as u64).collect::<Vec<_>>());
    let w0_data: Vec<u64> = (0..n)
        .map(|i| if succ[i] == i { 0 } else { w[i] })
        .collect();
    let w0 = b.input(&w0_data);
    let lvl = Level {
        slots: (0..n).collect(),
        space: n,
        succ: s0,
        w: w0,
    };
    rank_level(b, lvl, n, gapping)
}

/// Weighted List Ranking: `rank[i] = Σ w` along the path from `i` to the
/// tail (tail weight forced to 0; tail points to itself).
fn list_rank_weighted(
    succ: &[usize],
    w: &[u64],
    cfg: BuildConfig,
    gapping: bool,
) -> (Computation, GArray<u64>) {
    let mut out_h = None;
    let comp = Builder::build(cfg, succ.len() as u64, |b| {
        out_h = Some(build_rank(b, succ, w, gapping));
    });
    (comp, out_h.unwrap())
}

/// List Ranking: given `succ` (tail points to itself), compute
/// `rank[i]` = number of hops from `i` to the tail.
pub fn list_rank(succ: &[usize], cfg: BuildConfig, gapping: bool) -> (Computation, GArray<u64>) {
    let w = vec![1u64; succ.len()];
    list_rank_weighted(succ, &w, cfg, gapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_list;
    use crate::oracle;
    use crate::util::read_out;
    use hbp_model::analysis;

    #[test]
    fn ranks_match_oracle() {
        for n in [1usize, 2, 3, 8, 64, 300, 1024] {
            let succ = random_list(n, n as u64 + 1);
            let (comp, out) = list_rank(&succ, BuildConfig::default(), true);
            let got = read_out(&comp, out);
            let want = oracle::list_rank(&succ);
            assert_eq!(got[..n], want[..], "n={n}");
        }
    }

    #[test]
    fn gapping_does_not_change_results() {
        let succ = random_list(200, 99);
        let (c1, o1) = list_rank(&succ, BuildConfig::default(), true);
        let (c2, o2) = list_rank(&succ, BuildConfig::default(), false);
        assert_eq!(
            read_out(&c1, o1)[..200],
            read_out(&c2, o2)[..200],
            "gapped and ungapped ranks must agree"
        );
    }

    #[test]
    fn work_is_near_linear_per_level() {
        let succ = random_list(512, 5);
        let (comp, _) = list_rank(&succ, BuildConfig::default(), true);
        // W = O(n log n) for the pointer-jumping tail; the contraction
        // prefix is linear. Generous bound: 80·n·log n accesses.
        let bound = 80 * 512 * 10;
        assert!(comp.work() < bound as u64, "work {}", comp.work());
    }

    #[test]
    fn limited_access_bounded() {
        let succ = random_list(256, 11);
        let (comp, _) = list_rank(&succ, BuildConfig::default(), true);
        let (g, _) = analysis::write_counts(&comp);
        // sel/blocked cells may be written twice; everything else once
        assert!(g <= 2, "global writes ≤ 2, got {g}");
    }

    #[test]
    fn gapped_levels_use_strided_slots() {
        // With gapping, a contracted level of size r uses stride √(n/r):
        // verify that the recursion's allocations grow the heap beyond the
        // dense (ungapped) variant — the spreading is real.
        let succ = random_list(512, 21);
        let (cg, _) = list_rank(&succ, BuildConfig::default(), true);
        let (cd, _) = list_rank(&succ, BuildConfig::default(), false);
        assert!(cg.heap_words > cd.heap_words);
    }

    #[test]
    fn two_element_and_chain_lists() {
        // chain 0 -> 1 -> 2 -> ... -> n-1 (tail)
        let n = 33;
        let mut succ: Vec<usize> = (1..=n - 1).collect();
        succ.push(n - 1);
        let (comp, out) = list_rank(&succ, BuildConfig::default(), true);
        let got = read_out(&comp, out);
        for i in 0..n {
            assert_eq!(got[i], (n - 1 - i) as u64);
        }
    }
}
