//! Task-priority assignment (paper §4.1, §4.2.1).
//!
//! PWS requires integer priorities that strictly decrease along every
//! root→leaf path of the computation tree, with all tasks of a given
//! priority having (nearly) the same size. We assign each node a contiguous
//! *band* of priorities sized to its own priority depth:
//!
//! * the two children of a fork get priority one below the band cursor;
//! * sequenced forks inside one node get disjoint, decreasing sub-bands.
//!
//! For balanced HBP computations the recursive structure is symmetric across
//! parallel siblings, so same-priority tasks automatically fall in the same
//! size band — exactly the property §4.1 needs.

use crate::comp::{Computation, Item, NodeId};

/// Assign priorities to every fork of `comp` and to the two tasks it
/// creates ([`crate::comp::TNode::priority`]; the root gets `D' + 1`), and
/// set [`Computation::n_priorities`] to the number of distinct levels `D'`.
///
/// Two passes over the node table, no recursion: a node's id is smaller
/// than its children's, so descending id order visits children first
/// (for the priority depths) and ascending order visits parents first
/// (for the bands).
pub fn assign_priorities(comp: &mut Computation) {
    let n = comp.nodes.len();
    // depth[v]: number of priority levels needed below node `v`.
    let mut depth = vec![0u32; n];
    for id in (0..n).rev() {
        depth[id] = comp
            .items_of(NodeId(id as u32))
            .iter()
            .map(|it| match *it {
                Item::Fork { left, right, .. } => {
                    debug_assert!(left.idx() > id && right.idx() > id);
                    1 + depth[left.idx()].max(depth[right.idx()])
                }
                Item::Seg(_) => 0,
            })
            .sum();
    }
    let d = depth[comp.root.idx()];
    comp.n_priorities = d;
    comp.nodes[comp.root.idx()].priority = d + 1;
    for id in 0..n {
        let node = comp.nodes[id];
        // The band of a node starts one below its own priority.
        let mut cur = node.priority - 1;
        for it in &mut comp.items[node.body()] {
            if let Item::Fork {
                left,
                right,
                priority,
            } = it
            {
                let band = 1 + depth[left.idx()].max(depth[right.idx()]);
                debug_assert!(cur >= band, "priority band underflow");
                *priority = cur;
                comp.nodes[left.idx()].priority = cur;
                comp.nodes[right.idx()].priority = cur;
                cur -= band;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildConfig, Builder};

    /// Two sequenced BP phases must occupy disjoint priority bands: every
    /// priority in phase 2 is strictly below every priority in phase 1.
    #[test]
    fn sequenced_phases_get_disjoint_bands() {
        let comp = Builder::build(BuildConfig::default(), 8, |b| {
            // phase 1: depth-2 BP
            b.fork(
                4,
                4,
                |b| b.fork(2, 2, |_| {}, |_| {}),
                |b| b.fork(2, 2, |_| {}, |_| {}),
            );
            // phase 2: depth-1 BP
            b.fork(4, 4, |_| {}, |_| {});
        });
        let root_forks: Vec<u32> = comp
            .items_of(comp.root)
            .iter()
            .filter_map(|it| match it {
                Item::Fork { priority, .. } => Some(*priority),
                _ => None,
            })
            .collect();
        assert_eq!(root_forks.len(), 2);
        let all: Vec<(u32, u64)> = comp
            .forks()
            .map(|(_, _, l, _, p)| (p, comp.nodes[l.idx()].size))
            .collect();
        // phase-1 band: priorities > root_forks[1]; phase 2: <= root_forks[1]
        let phase1_min = all
            .iter()
            .filter(|(p, _)| *p > root_forks[1])
            .map(|(p, _)| *p)
            .min()
            .unwrap();
        assert!(phase1_min > root_forks[1]);
        assert_eq!(comp.n_priorities, 3); // 2 levels phase 1 + 1 level phase 2
    }

    #[test]
    fn n_priorities_matches_bp_depth() {
        // A BP tree over 2^k leaves has k priority levels.
        for k in 1..=6u32 {
            let n = 1u64 << k;
            let comp = Builder::build(BuildConfig::default(), n, |b| {
                fn rec(b: &mut Builder, size: u64) {
                    if size == 1 {
                        return;
                    }
                    b.fork(
                        size / 2,
                        size / 2,
                        |b| rec(b, size / 2),
                        |b| rec(b, size / 2),
                    );
                }
                rec(b, n);
            });
            assert_eq!(comp.n_priorities, k);
        }
    }
}
