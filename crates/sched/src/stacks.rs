//! Kernel stack regions (paper §3.3).
//!
//! Every *kernel* — the root task, or a stolen task together with the
//! subcomputation it spawns — executes on a fresh **stack region**: a
//! contiguous range of words above the global heap. Node frames (locals +
//! padding) are pushed and popped LIFO within their kernel's region, so
//!
//! * sibling subtrees executed by the same core *reuse* the same stack
//!   blocks (the source of cheap, plain misses), and
//! * a stolen task's frames live in a *different* region from its
//!   ancestors', while up-pass writes into the parent frame still cross
//!   regions — exactly the stack block-sharing that Lemma 3.1 and §4.3
//!   charge for.
//!
//! Regions are sized from the recording. A task's frames sit on its
//! region while its unstolen descendants push theirs above them, so the
//! most a region ever holds is its task's deepest chain of pad + frame
//! words; the engine computes that chain for every node in one pass and
//! hands it to [`StackAllocator::new_region`]. Regions open end to end, each its task's chain rounded up
//! to whole blocks (at least one), so they are block-aligned and
//! disjoint and no two kernels share a stack block by construction. The
//! simulated machine sees only which addresses share a block, so where
//! a region sits moves no simulated number.

use hbp_machine::{MachineConfig, Word};
use hbp_model::{Computation, NodeId};

/// One kernel's stack region: the words up to `end`, filled from the
/// region's base by a bump-pointer `sp`.
#[derive(Debug, Clone, Copy)]
struct Region {
    /// The task the region was opened for.
    task: NodeId,
    end: Word,
    sp: Word,
}

/// Allocator for kernel stack regions and node frames within them.
#[derive(Debug)]
pub(crate) struct StackAllocator {
    /// First word above the (block-aligned) global heap.
    stack_base: Word,
    block_words: u64,
    /// First word above the regions opened so far.
    top: Word,
    regions: Vec<Region>,
}

impl StackAllocator {
    /// Place the stack area just above `comp`'s heap, block-aligned.
    pub(crate) fn new(comp: &Computation, cfg: MachineConfig) -> Self {
        let stack_base = (comp.heap_words.div_ceil(cfg.block_words) + 1) * cfg.block_words;
        Self {
            stack_base,
            block_words: cfg.block_words,
            top: stack_base,
            regions: Vec::new(),
        }
    }

    /// First stack address: `addr >= stack_base()` means "stack", below
    /// means "heap" (used to split the miss accounting).
    pub(crate) fn stack_base(&self) -> Word {
        self.stack_base
    }

    /// Open a fresh region for `task` (the root kernel or a stolen task),
    /// whose deepest frame chain is `chain` words, above the last one, and
    /// return its id.
    pub(crate) fn new_region(&mut self, task: NodeId, chain: u32) -> u32 {
        let id = self.regions.len() as u32;
        let blocks = (chain as u64).div_ceil(self.block_words).max(1);
        let base = self.top;
        self.top += blocks * self.block_words;
        self.regions.push(Region {
            task,
            end: self.top,
            sp: base,
        });
        id
    }

    /// Push a frame of `frame_words` words after `pad_words` of padding;
    /// returns the frame's base address.
    pub(crate) fn push_frame(&mut self, region: u32, pad_words: u32, frame_words: u32) -> Word {
        let r = &mut self.regions[region as usize];
        let fa = r.sp + pad_words as u64;
        r.sp = fa + frame_words as u64;
        assert!(
            r.sp <= r.end,
            "stack region {region} overflows: task {:?}'s frames exceed its deepest recorded chain",
            r.task
        );
        fa
    }

    /// Pop the frame at `fa` (must be the region's most recent — frames
    /// are strictly LIFO within a kernel).
    pub(crate) fn pop_frame(&mut self, region: u32, fa: Word, pad_words: u32, frame_words: u32) {
        let r = &mut self.regions[region as usize];
        debug_assert_eq!(
            r.sp,
            fa + frame_words as u64,
            "non-LIFO frame pop in region {region}"
        );
        r.sp = fa - pad_words as u64;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hbp_model::{BuildConfig, Builder, Item};

    /// The root (8 locals) forks a left leaf of 3 locals and a right one
    /// of 40.
    pub(crate) fn forked_comp(block: u64) -> Computation {
        let data: Vec<u64> = (0..8).collect();
        Builder::build(BuildConfig::with_block(block), 8, |b| {
            let a = b.input(&data);
            let out = b.alloc::<u64>(1);
            let locals = b.local_array::<u64>(8);
            let v = b.read(a, 0);
            b.warr(locals, 0, v);
            b.fork(
                4,
                4,
                |b| {
                    let l = b.local_array::<u64>(3);
                    b.warr(l, 0, 1u64);
                },
                |b| {
                    let l = b.local_array::<u64>(40);
                    b.warr(l, 0, 2u64);
                },
            );
            b.write(out, 0, v);
        })
    }

    /// `forked_comp`'s root and children, and each one's deepest pad +
    /// frame chain: the root's runs through its larger, right child.
    pub(crate) fn chains(comp: &Computation) -> [(NodeId, u32); 3] {
        let root = comp.root;
        let Some(&Item::Fork { left, right, .. }) = comp
            .items_of(root)
            .iter()
            .find(|item| matches!(item, Item::Fork { .. }))
        else {
            panic!("the root forks");
        };
        let words = |v: NodeId| comp.nodes[v.idx()].pad_words + comp.nodes[v.idx()].frame_words;
        [
            (root, words(root) + words(right)),
            (left, words(left)),
            (right, words(right)),
        ]
    }

    #[test]
    fn regions_open_end_to_end_each_its_tasks_chain_in_whole_blocks() {
        let comp = forked_comp(32);
        let [(root, root_chain), (_, left_chain), (right, _)] = chains(&comp);
        let mut s = StackAllocator::new(&comp, MachineConfig::new(2, 1 << 10, 32));
        assert!(left_chain < 32, "a chain under one block still gets one");
        let mut base = s.stack_base();
        assert_eq!(base % 32, 0);
        for (task, chain) in chains(&comp) {
            let r = s.new_region(task, chain);
            let blocks = chain.div_ceil(32).max(1) as u64;
            assert_eq!(
                s.push_frame(r, 0, 0),
                base,
                "region {r} opens where the last ended"
            );
            base += blocks * 32;
            assert_eq!(s.regions[r as usize].end, base);
        }

        // The root's deepest chain fits its region to the word.
        let mut s = StackAllocator::new(&comp, MachineConfig::new(1, 64, 1));
        let r = s.new_region(root, root_chain);
        for v in [root, right] {
            let tn = &comp.nodes[v.idx()];
            s.push_frame(r, tn.pad_words, tn.frame_words);
        }
        assert_eq!(s.regions[r as usize].sp, s.regions[r as usize].end);
    }

    #[test]
    #[should_panic(expected = "stack region 0 overflows: task NodeId(")]
    fn a_frame_past_the_chain_panics() {
        let comp = forked_comp(1);
        let mut s = StackAllocator::new(&comp, MachineConfig::new(1, 64, 1));
        let [(root, chain), ..] = chains(&comp);
        let r = s.new_region(root, chain);
        s.push_frame(r, 0, chain);
        s.push_frame(r, 0, 1);
    }

    #[test]
    fn frames_are_lifo_within_a_region() {
        let comp = forked_comp(32);
        let cfg = MachineConfig::new(2, 1 << 10, 32);
        let mut s = StackAllocator::new(&comp, cfg);
        let [(root, chain), ..] = chains(&comp);
        let r = s.new_region(root, chain);
        let a = s.push_frame(r, 0, 8);
        let b = s.push_frame(r, 4, 8);
        assert_eq!(b, a + 8 + 4);
        s.pop_frame(r, b, 4, 8);
        let b2 = s.push_frame(r, 4, 8);
        assert_eq!(b2, b, "pop must free the space for reuse");
    }
}
