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
//! words; [`StackAllocator::new`] computes that chain for every node in
//! one pass. Regions open end to end, each its task's chain rounded up
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
pub struct StackAllocator {
    /// First word above the (block-aligned) global heap.
    stack_base: Word,
    block_words: u64,
    /// Per node, the words of the deepest pad + frame chain it heads.
    chain: Vec<u32>,
    /// First word above the regions opened so far.
    top: Word,
    regions: Vec<Region>,
}

impl StackAllocator {
    /// Place the stack area just above `comp`'s heap, block-aligned, and
    /// size every node's deepest frame chain.
    pub fn new(comp: &Computation, cfg: MachineConfig) -> Self {
        let stack_base = (comp.heap_words.div_ceil(cfg.block_words) + 1) * cfg.block_words;
        // A node forks only nodes with larger ids, so a reverse pass sees
        // every child before its parent.
        let mut chain = vec![0u32; comp.nodes.len()];
        for (v, tn) in comp.nodes.iter().enumerate().rev() {
            let words = chain[v] as u64 + tn.pad_words as u64 + tn.frame_words as u64;
            chain[v] = u32::try_from(words).expect("a frame chain fits in u32 words");
            if tn.parent != NodeId::NONE {
                chain[tn.parent.idx()] = chain[tn.parent.idx()].max(chain[v]);
            }
        }
        Self {
            stack_base,
            block_words: cfg.block_words,
            chain,
            top: stack_base,
            regions: Vec::new(),
        }
    }

    /// First stack address: `addr >= stack_base()` means "stack", below
    /// means "heap" (used to split the miss accounting).
    pub fn stack_base(&self) -> Word {
        self.stack_base
    }

    /// Open a fresh region for `task` (the root kernel or a stolen task)
    /// above the last one, and return its id.
    pub fn new_region(&mut self, task: NodeId) -> u32 {
        let id = self.regions.len() as u32;
        let blocks = (self.chain[task.idx()] as u64)
            .div_ceil(self.block_words)
            .max(1);
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
    pub fn push_frame(&mut self, region: u32, pad_words: u32, frame_words: u32) -> Word {
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
    pub fn pop_frame(&mut self, region: u32, fa: Word, pad_words: u32, frame_words: u32) {
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
mod tests {
    use super::*;
    use hbp_model::{BuildConfig, Builder, Item};

    /// The root (8 locals) forks a left leaf of 3 locals and a right one
    /// of 40.
    fn forked_comp(block: u64) -> Computation {
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

    #[test]
    fn regions_open_end_to_end_each_its_tasks_chain_in_whole_blocks() {
        let comp = forked_comp(32);
        let root = comp.root;
        let Some(&Item::Fork { left, right, .. }) = comp
            .items_of(root)
            .iter()
            .find(|item| matches!(item, Item::Fork { .. }))
        else {
            panic!("the root forks");
        };
        let words = |v: NodeId| comp.nodes[v.idx()].pad_words + comp.nodes[v.idx()].frame_words;
        let mut s = StackAllocator::new(&comp, MachineConfig::new(2, 1 << 10, 32));
        assert_eq!(s.chain[root.idx()], words(root) + words(right));
        assert!(words(left) < 32, "a chain under one block still gets one");
        let mut base = s.stack_base();
        assert_eq!(base % 32, 0);
        for task in [root, left, right] {
            let r = s.new_region(task);
            let blocks = s.chain[task.idx()].div_ceil(32).max(1) as u64;
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
        let r = s.new_region(root);
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
        let r = s.new_region(comp.root);
        s.push_frame(r, 0, s.chain[comp.root.idx()]);
        s.push_frame(r, 0, 1);
    }

    #[test]
    fn frames_are_lifo_within_a_region() {
        let comp = forked_comp(32);
        let cfg = MachineConfig::new(2, 1 << 10, 32);
        let mut s = StackAllocator::new(&comp, cfg);
        let r = s.new_region(comp.root);
        let a = s.push_frame(r, 0, 8);
        let b = s.push_frame(r, 4, 8);
        assert_eq!(b, a + 8 + 4);
        s.pop_frame(r, b, 4, 8);
        let b2 = s.push_frame(r, 4, 8);
        assert_eq!(b2, b, "pop must free the space for reuse");
    }
}
