//! Invariants of the recording's flat layout (`hbp_model::comp`): the
//! packed [`Access`] round-trips and refuses what it cannot hold, every
//! registry row's bodies tile the item arena, and the build-time
//! `parent` / `priority` of a node are what its creating fork says. (The
//! *content* of the recordings is pinned in `scheduler_invariants.rs`,
//! except that every row is limited access.)

use hbp_core::model::{Access, Item, NodeId, TNode, Target};
use hbp_core::prelude::*;
use proptest::prelude::*;

// The sizes the layout was chosen for.
const _: () = assert!(std::mem::size_of::<Access>() == 8);
const _: () = assert!(std::mem::size_of::<Item>() <= 16);
const _: () = assert!(std::mem::size_of::<TNode>() <= 32);

proptest! {
    #[test]
    fn access_round_trips_a_global(w in 0u64..1 << 62, write in prop::bool::ANY) {
        let a = Access::new(Target::Global(w), write);
        prop_assert_eq!(a.target(), Target::Global(w));
        prop_assert_eq!(a.write(), write);
    }

    #[test]
    fn access_round_trips_a_local(node in 0u32..1 << 31, off in 0u32..1 << 31, write in prop::bool::ANY) {
        let target = Target::Local { node: NodeId(node), off };
        let a = Access::new(target, write);
        prop_assert_eq!(a.target(), target);
        prop_assert_eq!(a.write(), write);
    }
}

#[test]
fn access_holds_the_largest_values() {
    let top = (1 << 31) - 1;
    for target in [
        Target::Global((1 << 62) - 1),
        Target::Local {
            node: NodeId(top),
            off: top,
        },
    ] {
        for write in [false, true] {
            let a = Access::new(target, write);
            assert_eq!((a.target(), a.write()), (target, write));
        }
    }
}

#[test]
#[should_panic(expected = "needs more than 62 bits")]
fn access_refuses_a_global_of_62_bits() {
    Access::new(Target::Global(1 << 62), false);
}

#[test]
#[should_panic(expected = "needs more than 31 bits")]
fn access_refuses_a_node_id_of_31_bits() {
    let node = NodeId(1 << 31);
    Access::new(Target::Local { node, off: 0 }, true);
}

#[test]
#[should_panic(expected = "needs more than 31 bits")]
fn access_refuses_a_frame_offset_of_31_bits() {
    let node = NodeId(0);
    Access::new(Target::Local { node, off: 1 << 31 }, false);
}

#[test]
fn bodies_tile_the_item_arena_and_nodes_know_their_fork() {
    for spec in registry() {
        let n = spec.size.pick(256, 16);
        for cfg in [BuildConfig::default(), BuildConfig::default().padded()] {
            let comp = (spec.build)(n, cfg, 7);
            let name = spec.name;

            // In bounds, pairwise disjoint, covering: sorted by start, each
            // range begins where the previous one ended.
            let mut ranges: Vec<(u32, u32)> = comp
                .nodes
                .iter()
                .map(|tn| (tn.first_item, tn.n_items))
                .collect();
            ranges.sort_unstable();
            let mut next = 0u32;
            for (first, len) in ranges {
                assert!(
                    len == 0 || first == next,
                    "{name}: gap or overlap at {first}"
                );
                next += len;
            }
            assert_eq!(next as usize, comp.items.len(), "{name}: arena not covered");

            // The table `Engine::new` used to rebuild from the forks.
            let mut parent = vec![NodeId::NONE; comp.n_nodes()];
            let mut priority = vec![comp.n_priorities + 1; comp.n_nodes()];
            for (p, _, l, r, pri) in comp.forks() {
                for child in [l, r] {
                    parent[child.idx()] = p;
                    priority[child.idx()] = pri;
                }
            }
            for (id, tn) in comp.nodes.iter().enumerate() {
                assert_eq!(tn.parent, parent[id], "{name}: parent of node {id}");
                assert_eq!(tn.priority, priority[id], "{name}: priority of node {id}");
            }
            assert_eq!(comp.nodes[comp.root.idx()].parent, NodeId::NONE, "{name}");
        }
    }
}

/// Limited access (Def 2.4): the most writes any global or local word
/// takes, `(global, local)`, does not grow with the input, at two sizes
/// 16× apart.
#[test]
fn every_row_writes_each_word_a_constant_number_of_times() {
    for spec in registry() {
        let writes = |n| analysis::write_counts(&(spec.build)(n, BuildConfig::default(), 7));
        let (small, large) = (
            writes(spec.size.pick(256, 16)),
            writes(spec.size.pick(4096, 64)),
        );
        assert_eq!(small, large, "{}", spec.name);
    }
}
