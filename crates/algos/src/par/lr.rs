//! List ranking: contract to sublists, jump, expand.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use super::carve::{debug_assert_line_start, line_aligned, output, raise_arena_gauge, LINE_BYTES};
use super::{pjoin, SEQ_CUTOFF};

/// Distance between the index splitters of [`par_list_rank`]: every
/// `LR_STRIDE`-th node starts a sublist (≈ log₂ n at the sizes served).
const LR_STRIDE: usize = 16;

/// Sublists a walk leaf advances in turn: a step is one dependent random
/// load, so interleaving independent walks is what overlaps the misses.
const LR_LANES: usize = 8;

/// Splitters per walk leaf.
const LR_LEAF: usize = 4 * SEQ_CUTOFF / LR_STRIDE;

/// `u64`s in a cache line.
const LINE_WORDS: usize = LINE_BYTES / std::mem::size_of::<u64>();

/// Low half of a packed word: a sublist offset or a distance.
const LOW: u64 = u32::MAX as u64;

/// `(id, count)` in one word, so a random read fetches both at once.
fn pack(id: usize, count: u64) -> u64 {
    debug_assert!(id as u64 <= LOW && count <= LOW);
    (id as u64) << 32 | count
}

/// The node no node points to: `Σ i − Σ succ[i]` over the non-tail
/// nodes' successors, which are all nodes but the head once each. A
/// forked reduction — no scatter, no marks array.
fn lr_head(succ: &[usize], off: usize) -> usize {
    if succ.len() <= SEQ_CUTOFF {
        return succ.iter().enumerate().fold(0usize, |acc, (i, &s)| {
            let i = off + i;
            acc.wrapping_add(i).wrapping_sub(if s == i { 0 } else { s })
        });
    }
    let mid = succ.len() / 2;
    let (l, r) = pjoin(
        || lr_head(&succ[..mid], off),
        || lr_head(&succ[mid..], off + mid),
    );
    l.wrapping_add(r)
}

/// Walk the sublists `[lo, hi)`: sublist `id` starts at node
/// `id · LR_STRIDE` (`head` for the id past the index splitters) and
/// runs until the next node is an index splitter or the tail. Every
/// visited node gets `tags[node] = (id, offset in the sublist)`, every
/// sublist `contracted[id] = (next sublist, hops to its first node)` —
/// `(tail_id, hops to the tail)` for the last one. Each word has one
/// writer (a node lies on one sublist), so the stores race with nothing;
/// they are atomics only because the targets are scattered over slices
/// every leaf shares.
fn lr_walk(
    succ: &[usize],
    head: usize,
    lo: usize,
    hi: usize,
    tags: &[AtomicU64],
    contracted: &[AtomicU64],
) {
    if hi - lo > LR_LEAF {
        let mid = lo + (hi - lo) / 2;
        pjoin(
            || lr_walk(succ, head, lo, mid, tags, contracted),
            || lr_walk(succ, head, mid, hi, tags, contracted),
        );
        return;
    }
    let n = succ.len();
    let index_splitters = n.div_ceil(LR_STRIDE);
    let tail_id = index_splitters + 1;
    let start = |id: usize| {
        (
            if id == index_splitters {
                head
            } else {
                id * LR_STRIDE
            },
            id,
            0u64,
        )
    };
    // (node, sublist, offset) of each live lane; `next_id` refills them.
    let mut lanes = [(0usize, 0usize, 0u64); LR_LANES];
    let mut next_id = lo;
    let mut live = 0;
    while live < LR_LANES && next_id < hi {
        lanes[live] = start(next_id);
        live += 1;
        next_id += 1;
    }
    while live > 0 {
        let mut l = 0;
        while l < live {
            let (node, id, offset) = lanes[l];
            // A sublist longer than the list is a cycle: not a list.
            assert!(offset < n as u64, "succ does not describe a single list");
            tags[node].store(pack(id, offset), Relaxed);
            let next = succ[node];
            if next != node && !next.is_multiple_of(LR_STRIDE) {
                lanes[l] = (next, id, offset + 1);
                l += 1;
                continue;
            }
            let link = if next == node {
                pack(tail_id, offset)
            } else {
                pack(next / LR_STRIDE, offset + 1)
            };
            contracted[id].store(link, Relaxed);
            if next_id < hi {
                lanes[l] = start(next_id);
                next_id += 1;
                l += 1;
            } else {
                live -= 1;
                lanes[l] = lanes[live];
            }
        }
    }
}

/// One pointer-jumping round over the contracted list:
/// `next[i] = (succ[succ[i]], dist[i] + dist[succ[i]])`, forked over
/// disjoint output windows (`off` = the window's global start index).
fn lr_jump(cur: &[AtomicU64], next: &mut [AtomicU64], off: usize) {
    debug_assert_line_start(next);
    if next.len() <= SEQ_CUTOFF {
        for (out, c) in next.iter_mut().zip(&cur[off..]) {
            let c = c.load(Relaxed);
            let s = cur[(c >> 32) as usize].load(Relaxed);
            *out.get_mut() = (s & !LOW) | ((c & LOW) + (s & LOW));
        }
        return;
    }
    let mid = (next.len() / 2).next_multiple_of(LINE_WORDS);
    let (nl, nr) = next.split_at_mut(mid);
    pjoin(|| lr_jump(cur, nl, off), || lr_jump(cur, nr, off + mid));
}

/// `rank[i]` = rank of node `i`'s sublist start − its offset in the
/// sublist: one streaming pass over the tags, forked over output windows,
/// writing every element of `rank`.
fn lr_expand(tags: &[AtomicU64], ranked: &[AtomicU64], rank: &mut [MaybeUninit<u64>]) {
    if rank.len() > SEQ_CUTOFF {
        let mid = rank.len() / 2;
        let (tl, tr) = tags.split_at(mid);
        let (rl, rr) = rank.split_at_mut(mid);
        pjoin(|| lr_expand(tl, ranked, rl), || lr_expand(tr, ranked, rr));
        return;
    }
    for (r, t) in rank.iter_mut().zip(tags) {
        let t = t.load(Relaxed);
        r.write((ranked[(t >> 32) as usize].load(Relaxed) & LOW) - (t & LOW));
    }
}

/// Parallel list ranking in O(n) work: `rank[i]` = hops from node `i` to
/// the tail of the single list `succ` describes (the tail is its own
/// successor) — contract to n/log n nodes, jump, expand.
///
/// 1. **Splitters** are every `LR_STRIDE`-th index plus the head
///    (`lr_head`); each starts a sublist that ends where the next
///    splitter begins.
/// 2. **Walk** (`lr_walk`): leaves take ranges of sublists and follow
///    them `LR_LANES` at a time, tagging every node with
///    `(sublist, offset)` and every sublist with `(next, length)` — one
///    dependent load and one scattered store per node, where pointer
///    jumping over the whole list does ⌈log₂ n⌉ gathers.
/// 3. **Rank the contracted list** of ⌈n/`LR_STRIDE`⌉ + 2 nodes (an
///    optional head sublist and a virtual tail included) by Wyllie
///    pointer jumping, successor and distance fused in one word
///    (`lr_jump`).
/// 4. **Expand** (`lr_expand`): `rank[i] = rank[sublist] − offset`.
///
/// Output plus one workspace (tags, and the two ping-pong halves of the
/// contracted list); every phase is a fork-join tree, and the joins are
/// what orders one phase's relaxed stores before the next phase's loads.
///
/// What this is not: the paper's list ranking (`crate::listrank` records
/// that one for the simulator — independent-set contraction with a sort
/// per level, which at these sizes is more memory traffic than the
/// jumping it would replace). Two properties follow. The span is the
/// longest sublist: O(log n) expected hops per lane on a random list,
/// Θ(n) on an adversarial numbering that keeps multiples of
/// `LR_STRIDE` apart — the work stays O(n) either way. And the walk's
/// tag stores from different workers land in the same lines — Θ(n/B)
/// shared blocks, the pattern the paper routes through a sort — so the
/// kernel is as fast as the sequential walk on one core and gains next
/// to nothing from a second (see README, "native hot path").
pub fn par_list_rank(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    if n == 0 {
        return Vec::new();
    }
    // Ids, offsets and distances are packed into 32-bit halves.
    assert!(
        n < LOW as usize,
        "par_list_rank packs node counts in 32 bits"
    );
    debug_assert_eq!(
        succ.iter().enumerate().filter(|&(i, &s)| s == i).count(),
        1,
        "a single list has exactly one tail"
    );
    let head = lr_head(succ, 0);
    let index_splitters = n.div_ceil(LR_STRIDE);
    // A head off the stride starts one more sublist, past the others.
    let head_id = if head.is_multiple_of(LR_STRIDE) {
        head / LR_STRIDE
    } else {
        index_splitters
    };
    let sublists = index_splitters.max(head_id + 1);
    let tail_id = index_splitters + 1;

    let tags_len = n.next_multiple_of(LINE_WORDS);
    let half = (tail_id + 1).next_multiple_of(LINE_WORDS);
    let mut ws: Vec<AtomicU64> = std::iter::repeat_with(AtomicU64::default)
        .take(tags_len + 2 * half + LINE_WORDS)
        .collect();
    raise_arena_gauge(std::mem::size_of_val(ws.as_slice()));
    let (tags, halves) = line_aligned(&mut ws).split_at_mut(tags_len);
    let (mut cur, rest) = halves.split_at_mut(half);
    let mut next = &mut rest[..half];

    // An unused head slot (the head is an index splitter) stays (0, 0):
    // nothing links to it.
    *cur[tail_id].get_mut() = pack(tail_id, 0);
    lr_walk(succ, head, 0, sublists, tags, cur);
    let rounds = usize::BITS - tail_id.leading_zeros();
    for _ in 0..rounds {
        lr_jump(cur, next, 0);
        std::mem::swap(&mut cur, &mut next);
    }
    debug_assert_eq!(
        cur[head_id].load(Relaxed),
        pack(tail_id, n as u64 - 1),
        "every node lies on the one list"
    );
    // The expansion's leaves tile `0..n`, each writing its window.
    output(n, |rank| lr_expand(tags, cur, rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle;
    use crate::par::tests::{off_and_on_pools, on_two_workers};

    /// The list that visits the nodes in `order`.
    fn list_from_order(order: &[usize]) -> Vec<usize> {
        let mut succ = vec![0; order.len()];
        for w in order.windows(2) {
            succ[w[0]] = w[1];
        }
        if let Some(&tail) = order.last() {
            succ[tail] = tail;
        }
        succ
    }

    #[test]
    fn par_list_rank_matches_around_the_stride_and_the_cutoff() {
        off_and_on_pools(|| {
            assert_eq!(par_list_rank(&[]), Vec::<u64>::new());
            assert_eq!(par_list_rank(&[0]), vec![0], "a lone self-loop tail");
            let k = LR_STRIDE;
            for n in [2, k - 1, k, k + 1, 1023, 1025, 1 << 15] {
                let succ = gen::random_list(n, 8);
                assert_eq!(par_list_rank(&succ), oracle::list_rank(&succ), "n={n}");
            }
        });
    }

    #[test]
    fn par_list_rank_on_ordered_lists_and_every_head_and_tail_placement() {
        let k = LR_STRIDE;
        off_and_on_pools(|| {
            for n in [k + 1, 2 * k + 1, 4 * k, 4 * k + 5, 5000] {
                // Identity and reverse order: one sublist per splitter,
                // exactly LR_STRIDE long (the last one shorter).
                let identity: Vec<usize> = (0..n).collect();
                let reversed: Vec<usize> = (0..n).rev().collect();
                for order in [identity, reversed] {
                    let succ = list_from_order(&order);
                    let want: Vec<u64> = {
                        let mut rank = vec![0; n];
                        for (at, &node) in order.iter().enumerate() {
                            rank[node] = (n - 1 - at) as u64;
                        }
                        rank
                    };
                    assert_eq!(par_list_rank(&succ), want, "n={n} ordered");
                }
                if n <= 2 * k {
                    continue;
                }
                // Head and tail each on a multiple of the stride and not:
                // a head off the stride is the extra sublist, a tail on it
                // is a sublist of its own that ends at once.
                for (head, tail) in [(k, 2 * k), (k, 3), (5, 2 * k), (5, 3), (0, n - 1)] {
                    let mut order: Vec<usize> =
                        (0..n).filter(|&v| v != head && v != tail).collect();
                    // A fixed scramble, so sublists have mixed lengths.
                    let len = order.len();
                    for i in 0..len {
                        order.swap(i, (i * 7919 + 13) % len);
                    }
                    order.insert(0, head);
                    order.push(tail);
                    let succ = list_from_order(&order);
                    assert_eq!(
                        par_list_rank(&succ),
                        oracle::list_rank(&succ),
                        "n={n} head={head} tail={tail}"
                    );
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "single list")]
    fn par_list_rank_stops_on_a_cycle() {
        // 0 -> 1 -> 2 -> 1: node 3 is a tail, but the walk from 0 never
        // reaches it, nor a multiple of the stride.
        par_list_rank(&[1, 2, 1, 3, 5, 6, 7, 3]);
    }

    /// The kernel on a 2-worker pool, at the smallest size that reaches
    /// every window it hands out uninitialised: a debug build checks each
    /// one where it is read, and the size is small enough for Miri, which
    /// also reports a race between forked branches (CI runs
    /// `tests::uninit::` under it).
    mod uninit {
        use super::*;

        #[test]
        fn list_rank_writes_every_rank() {
            let succ = gen::random_list(2 * SEQ_CUTOFF + 3, 8);
            let got = on_two_workers(|| par_list_rank(&succ));
            assert_eq!(got, oracle::list_rank(&succ));
        }
    }
}
