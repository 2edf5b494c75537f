//! The trace builder: algorithms run against it once, producing both real
//! output values and the full [`Computation`] DAG + access trace.

use std::marker::PhantomData;

use hbp_machine::{BlockAllocator, Word};

use crate::comp::{Access, Computation, Item, NodeId, Segment, TNode, Target};
use crate::priority::assign_priorities;
use crate::value::Wordable;

/// Build-time options.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Block size used for global allocation alignment (§2.2's system
    /// property). This is machine knowledge used by the *system allocator*,
    /// not by the algorithms, which remain resource-oblivious.
    pub block_words: u64,
    /// Build a *padded* computation (Def 3.3): each node's frame is preceded
    /// by a `⌈√|τ|⌉`-word pad.
    pub padded: bool,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            block_words: 32,
            padded: false,
        }
    }
}

impl BuildConfig {
    /// Config with the given block size, unpadded.
    pub fn with_block(block_words: u64) -> Self {
        Self {
            block_words,
            ..Self::default()
        }
    }

    /// Enable padding (Def 3.3).
    pub fn padded(mut self) -> Self {
        self.padded = true;
        self
    }
}

/// A typed global array living in the simulated heap. Allocation is
/// block-aligned, so distinct arrays never share a block.
#[derive(Debug)]
pub struct GArray<T: Wordable> {
    base: Word,
    len: usize,
    _t: PhantomData<T>,
}

// Manual Clone/Copy: derive would bound T: Clone unnecessarily.
impl<T: Wordable> Clone for GArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Wordable> Copy for GArray<T> {}

impl<T: Wordable> GArray<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base word address (for diagnostics / block accounting).
    pub fn base(&self) -> Word {
        self.base
    }

    /// Word address of element `i`.
    pub fn addr(&self, i: usize) -> Word {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + (i * T::WORDS) as Word
    }
}

/// Where a local's frame is: the declaring node and how deep that node
/// sits on the builder's stack of open nodes. The depth finds the frame's
/// build-time values in O(1) and tells a closed node from an open one.
#[derive(Debug, Clone, Copy)]
struct FrameRef {
    node: NodeId,
    depth: u32,
}

/// A typed local (execution-stack) variable of some task node.
#[derive(Debug)]
pub struct Local<T: Wordable> {
    frame: FrameRef,
    off: u32,
    _t: PhantomData<T>,
}

impl<T: Wordable> Clone for Local<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Wordable> Copy for Local<T> {}

/// A typed local *array* on some task node's stack frame (e.g. Strassen's
/// temporaries — the paper's "variables (arrays) declared at the start of
/// the calling procedure", Def 3.4, made exactly-linear-space-bounded by
/// Def 3.6).
#[derive(Debug)]
pub struct LArray<T: Wordable> {
    frame: FrameRef,
    off: u32,
    len: usize,
    _t: PhantomData<T>,
}

impl<T: Wordable> Clone for LArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Wordable> Copy for LArray<T> {}

impl<T: Wordable> LArray<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An open task node: where its body starts on the builder's `pending`
/// stack and its frame on the `frames` stack.
#[derive(Debug, Clone, Copy)]
struct Open {
    node: NodeId,
    body: usize,
    frame: usize,
}

/// Records an algorithm's execution as a [`Computation`].
///
/// The builder maintains a stack of *open* task nodes; accesses are appended
/// to the innermost one. [`Builder::fork`] closes the current access segment,
/// builds the two children, and records the fork.
///
/// Two more stacks run in step with it, so a build allocates per fork
/// *depth*, not per node. `pending` holds the bodies of the open nodes,
/// outermost first; when a node closes, its body — the top of `pending` —
/// moves into [`Computation::items`] as one contiguous range (children
/// close before their parent, so no range is ever split). `frames` holds
/// the build-time values of the open nodes' locals the same way; a node
/// declares locals only while it is innermost, so its frame grows at the
/// top, and the slots go when the node closes — after which its locals
/// are dead and using one panics.
pub struct Builder {
    cfg: BuildConfig,
    /// The recording so far (`heap_words` and the priorities are filled
    /// in by [`Builder::build`]).
    comp: Computation,
    pending: Vec<Item>,
    frames: Vec<u64>,
    alloc: BlockAllocator,
    open: Vec<Open>,
    seg_start: u32,
}

impl Builder {
    fn new(cfg: BuildConfig) -> Self {
        Self {
            cfg,
            comp: Computation {
                nodes: Vec::new(),
                items: Vec::new(),
                arena: Vec::new(),
                root: NodeId(0),
                heap_words: 0,
                block_words: cfg.block_words,
                n_priorities: 0,
                heap: Vec::new(),
            },
            pending: Vec::new(),
            frames: Vec::new(),
            alloc: BlockAllocator::new(cfg.block_words),
            open: Vec::new(),
            seg_start: 0,
        }
    }

    /// Record a whole computation: creates the root task of declared size
    /// `root_size`, runs `f`, assigns priorities, and returns the result.
    pub fn build(cfg: BuildConfig, root_size: u64, f: impl FnOnce(&mut Builder)) -> Computation {
        let mut b = Builder::new(cfg);
        b.comp.root = b.build_node(root_size, NodeId::NONE, f);
        assert!(b.open.is_empty(), "unbalanced node stack at end of build");
        let mut comp = b.comp;
        comp.heap_words = b.alloc.watermark();
        assign_priorities(&mut comp);
        comp
    }

    /// Open a node of declared size `size` under `parent`, run `f` inside
    /// it, and close it: its body leaves `pending` for the item arena and
    /// its frame values leave `frames`.
    fn build_node(&mut self, size: u64, parent: NodeId, f: impl FnOnce(&mut Builder)) -> NodeId {
        assert!(size >= 1, "task size must be a positive integer (Def 3.2)");
        let id = NodeId(self.comp.nodes.len() as u32);
        let pad = if self.cfg.padded {
            (size as f64).sqrt().ceil() as u32
        } else {
            0
        };
        self.comp.nodes.push(TNode {
            size,
            first_item: 0,
            n_items: 0,
            frame_words: 0,
            pad_words: pad,
            parent,
            priority: 0,
        });
        self.open.push(Open {
            node: id,
            body: self.pending.len(),
            frame: self.frames.len(),
        });
        self.seg_start = self.comp.arena.len() as u32;
        f(self);
        self.flush_seg();
        let o = self.open.pop().expect("the node opened above");
        let tn = &mut self.comp.nodes[id.idx()];
        tn.first_item = self.comp.items.len() as u32;
        tn.n_items = (self.pending.len() - o.body) as u32;
        self.comp.items.extend_from_slice(&self.pending[o.body..]);
        self.pending.truncate(o.body);
        self.frames.truncate(o.frame);
        id
    }

    fn cur(&self) -> NodeId {
        self.open.last().expect("an open node").node
    }

    fn flush_seg(&mut self) {
        let end = self.comp.arena.len() as u32;
        if end > self.seg_start {
            self.pending.push(Item::Seg(Segment {
                start: self.seg_start,
                end,
            }));
        }
        self.seg_start = end;
    }

    /// Fork two child tasks of declared sizes `lsize` / `rsize`, built by
    /// `lf` / `rf`. The right child is the steal candidate at run time.
    pub fn fork(
        &mut self,
        lsize: u64,
        rsize: u64,
        lf: impl FnOnce(&mut Builder),
        rf: impl FnOnce(&mut Builder),
    ) {
        self.flush_seg();
        let cur = self.cur();
        let left = self.build_node(lsize, cur, lf);
        let right = self.build_node(rsize, cur, rf);
        self.pending.push(Item::Fork {
            left,
            right,
            priority: 0,
        });
    }

    /// Like [`Builder::fork`], but with a single closure invoked twice —
    /// `f(b, false)` builds the left child, `f(b, true)` the right. Useful
    /// when both children share captured mutable state.
    pub fn fork_with(&mut self, lsize: u64, rsize: u64, mut f: impl FnMut(&mut Builder, bool)) {
        self.flush_seg();
        let cur = self.cur();
        let left = self.build_node(lsize, cur, |b| f(b, false));
        let right = self.build_node(rsize, cur, |b| f(b, true));
        self.pending.push(Item::Fork {
            left,
            right,
            priority: 0,
        });
    }

    // ---- global arrays ------------------------------------------------

    /// Allocate a zeroed global array of `len` elements (block-aligned).
    pub fn alloc<T: Wordable>(&mut self, len: usize) -> GArray<T> {
        let words = (len * T::WORDS) as u64;
        let base = self.alloc.alloc(words);
        let end = (base + words.max(1)) as usize;
        if self.comp.heap.len() < end {
            self.comp.heap.resize(end, 0);
        }
        GArray {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Allocate and fill a global array from a slice, *without* recording
    /// accesses (input initialization is not part of the computation).
    pub fn input<T: Wordable>(&mut self, data: &[T]) -> GArray<T> {
        let a = self.alloc::<T>(data.len());
        for (i, &v) in data.iter().enumerate() {
            self.poke(a, i, v);
        }
        a
    }

    /// Write `a[i] = v` silently (no access recorded). For initialization
    /// and test scaffolding only.
    pub fn poke<T: Wordable>(&mut self, a: GArray<T>, i: usize, v: T) {
        let addr = a.addr(i) as usize;
        v.to_words(&mut self.comp.heap[addr..addr + T::WORDS]);
    }

    /// Read `a[i]` silently (no access recorded). For oracles/tests.
    pub fn peek<T: Wordable>(&self, a: GArray<T>, i: usize) -> T {
        let addr = a.addr(i) as usize;
        T::from_words(&self.comp.heap[addr..addr + T::WORDS])
    }

    fn record(&mut self, target: Target, write: bool) {
        self.comp.arena.push(Access::new(target, write));
    }

    /// Read `a[i]`, recording one access per word.
    pub fn read<T: Wordable>(&mut self, a: GArray<T>, i: usize) -> T {
        let addr = a.addr(i);
        for w in 0..T::WORDS {
            self.record(Target::Global(addr + w as Word), false);
        }
        T::from_words(&self.comp.heap[addr as usize..addr as usize + T::WORDS])
    }

    /// Write `a[i] = v`, recording one access per word.
    pub fn write<T: Wordable>(&mut self, a: GArray<T>, i: usize, v: T) {
        let addr = a.addr(i);
        for w in 0..T::WORDS {
            self.record(Target::Global(addr + w as Word), true);
        }
        v.to_words(&mut self.comp.heap[addr as usize..addr as usize + T::WORDS]);
    }

    // ---- execution-stack locals ---------------------------------------

    /// Grow the current node's frame by `words` zeroed words; returns the
    /// frame and the offset of the first new word.
    fn grow_frame(&mut self, words: usize) -> (FrameRef, u32) {
        let depth = self.open.len() - 1;
        let o = self.open[depth];
        let tn = &mut self.comp.nodes[o.node.idx()];
        let off = tn.frame_words;
        tn.frame_words += words as u32;
        // The innermost node's frame is the top of the value stack.
        debug_assert_eq!(self.frames.len(), o.frame + off as usize);
        self.frames.resize(o.frame + tn.frame_words as usize, 0);
        let frame = FrameRef {
            node: o.node,
            depth: depth as u32,
        };
        (frame, off)
    }

    /// Index in `frames` of word `off` of `frame`. The node must still be
    /// open: a closed node's frame is gone, here as at run time.
    fn frame_slot(&self, frame: FrameRef, off: u32) -> usize {
        match self.open.get(frame.depth as usize) {
            Some(o) if o.node == frame.node => o.frame + off as usize,
            _ => panic!(
                "local of {:?} used after the node closed (dead frame)",
                frame.node
            ),
        }
    }

    /// Record one access per word of a `T` at `off` in `frame`; returns
    /// where its build-time value lives in `frames`.
    fn access_local<T: Wordable>(&mut self, frame: FrameRef, off: u32, write: bool) -> usize {
        let at = self.frame_slot(frame, off);
        for w in 0..T::WORDS {
            let target = Target::Local {
                node: frame.node,
                off: off + w as u32,
            };
            self.record(target, write);
        }
        at
    }

    /// Declare a local variable on the current node's frame, initialized to
    /// `v` (the initializing write is recorded: task heads do O(1) work).
    pub fn local<T: Wordable>(&mut self, v: T) -> Local<T> {
        let l = self.local_uninit::<T>();
        self.wloc(l, v);
        l
    }

    /// Declare a local without initializing (no access recorded).
    fn local_uninit<T: Wordable>(&mut self) -> Local<T> {
        let (frame, off) = self.grow_frame(T::WORDS);
        Local {
            frame,
            off,
            _t: PhantomData,
        }
    }

    /// Declare a zeroed local array of `len` elements on the current frame
    /// (allocation itself records no accesses, like a real stack pointer
    /// bump).
    pub fn local_array<T: Wordable>(&mut self, len: usize) -> LArray<T> {
        let (frame, off) = self.grow_frame(len * T::WORDS);
        LArray {
            frame,
            off,
            len,
            _t: PhantomData,
        }
    }

    /// Read a local variable (possibly of an ancestor node).
    pub fn rloc<T: Wordable>(&mut self, l: Local<T>) -> T {
        let at = self.access_local::<T>(l.frame, l.off, false);
        T::from_words(&self.frames[at..at + T::WORDS])
    }

    /// Write a local variable (possibly of an ancestor node).
    pub fn wloc<T: Wordable>(&mut self, l: Local<T>, v: T) {
        let at = self.access_local::<T>(l.frame, l.off, true);
        v.to_words(&mut self.frames[at..at + T::WORDS]);
    }

    /// Read element `i` of a local array silently (no access recorded).
    /// Build-time planning only (e.g. SPMS splitter selection) — the
    /// mirror of [`Builder::peek`] for stack arrays.
    pub fn peek_arr<T: Wordable>(&self, a: LArray<T>, i: usize) -> T {
        debug_assert!(i < a.len);
        let at = self.frame_slot(a.frame, a.off + (i * T::WORDS) as u32);
        T::from_words(&self.frames[at..at + T::WORDS])
    }

    /// Read element `i` of a local array.
    pub fn rarr<T: Wordable>(&mut self, a: LArray<T>, i: usize) -> T {
        debug_assert!(i < a.len);
        let at = self.access_local::<T>(a.frame, a.off + (i * T::WORDS) as u32, false);
        T::from_words(&self.frames[at..at + T::WORDS])
    }

    /// Write element `i` of a local array.
    pub fn warr<T: Wordable>(&mut self, a: LArray<T>, i: usize, v: T) {
        debug_assert!(i < a.len);
        let at = self.access_local::<T>(a.frame, a.off + (i * T::WORDS) as u32, true);
        v.to_words(&mut self.frames[at..at + T::WORDS]);
    }

    /// The block size (in words) the system allocator aligns to — machine
    /// knowledge exposed to *layout decisions* (e.g. SPMS's block-aligned
    /// output gaps), not to algorithmic control flow.
    pub fn block_words(&self) -> u64 {
        self.cfg.block_words
    }
}

/// Build a BP-like binary fan-out over `count` leaves (the paper's mechanism
/// for forking `v(n)` parallel recursive subproblems, §3.1). `per_size` is
/// the declared size of each leaf subproblem; internal tasks get the sum of
/// their leaves' sizes, keeping the tree balanced with `α = 1/2`.
pub fn fanout_uniform(
    b: &mut Builder,
    count: usize,
    per_size: u64,
    leaf: &mut impl FnMut(&mut Builder, usize),
) {
    fn rec(
        b: &mut Builder,
        lo: usize,
        hi: usize,
        per: u64,
        leaf: &mut impl FnMut(&mut Builder, usize),
    ) {
        debug_assert!(hi > lo);
        if hi - lo == 1 {
            leaf(b, lo);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        b.fork_with(
            (mid - lo) as u64 * per,
            (hi - mid) as u64 * per,
            |b, right| {
                if right {
                    rec(b, mid, hi, per, leaf)
                } else {
                    rec(b, lo, mid, per, leaf)
                }
            },
        );
    }
    assert!(count >= 1);
    rec(b, 0, count, per_size, leaf);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's M-Sum over 8 inputs and sanity-check the structure.
    fn msum(n: usize) -> (Computation, Word) {
        let data: Vec<u64> = (1..=n as u64).collect();
        let mut out_base = 0;
        let comp = Builder::build(BuildConfig::default(), n as u64, |b| {
            let a = b.input(&data);
            let out = b.alloc::<u64>(1);
            out_base = out.base();
            fn rec(b: &mut Builder, a: GArray<u64>, lo: usize, hi: usize, dst: Local<u64>) {
                if hi - lo == 1 {
                    let v = b.read(a, lo);
                    b.wloc(dst, v);
                    return;
                }
                let mid = lo + (hi - lo) / 2;
                let (s1, s2) = {
                    // parent declares result slots for the children
                    (b.local(0u64), b.local(0u64))
                };
                b.fork(
                    (mid - lo) as u64,
                    (hi - mid) as u64,
                    |b| rec(b, a, lo, mid, s1),
                    |b| rec(b, a, mid, hi, s2),
                );
                let v1 = b.rloc(s1);
                let v2 = b.rloc(s2);
                b.wloc(dst, v1 + v2);
            }
            let total = b.local(0u64);
            rec(b, a, 0, n, total);
            let v = b.rloc(total);
            b.write(out, 0, v);
        });
        (comp, out_base)
    }

    #[test]
    fn msum_computes_and_records() {
        let n = 8;
        let (comp, out) = msum(n);
        // sum 1..=8 = 36
        assert_eq!(comp.heap[out as usize], 36);
        // 7 forks for 8 leaves
        assert_eq!(comp.forks().count(), n - 1);
        // every access present; work = Θ(n)
        assert!(comp.work() >= 2 * n as u64);
        assert!(comp.n_priorities > 0);
    }

    #[test]
    fn priorities_strictly_decrease_on_paths() {
        let (comp, _) = msum(16);
        // For each fork, every fork inside the children must have a smaller
        // priority.
        fn max_child_pri(c: &Computation, node: NodeId) -> Option<u32> {
            c.items_of(node)
                .iter()
                .filter_map(|it| match *it {
                    Item::Fork {
                        left,
                        right,
                        priority,
                    } => {
                        let mut m = priority;
                        if let Some(x) = max_child_pri(c, left) {
                            m = m.max(x);
                        }
                        if let Some(x) = max_child_pri(c, right) {
                            m = m.max(x);
                        }
                        Some(m)
                    }
                    _ => None,
                })
                .max()
        }
        for (_, _, l, r, pri) in comp.forks() {
            for child in [l, r] {
                if let Some(m) = max_child_pri(&comp, child) {
                    assert!(m < pri, "child fork priority {m} !< parent {pri}");
                }
            }
        }
    }

    #[test]
    fn same_priority_same_size() {
        let (comp, _) = msum(32);
        let mut by_pri: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        for (_, _, l, r, pri) in comp.forks() {
            by_pri
                .entry(pri)
                .or_default()
                .extend([comp.nodes[l.idx()].size, comp.nodes[r.idx()].size]);
        }
        for (pri, sizes) in by_pri {
            let mn = *sizes.iter().min().unwrap();
            let mx = *sizes.iter().max().unwrap();
            assert!(mx <= 2 * mn, "priority {pri}: sizes {mn}..{mx} unbalanced");
        }
    }

    #[test]
    fn limited_access_holds_for_msum() {
        let n = 16;
        let data: Vec<u64> = vec![1; n];
        let comp = Builder::build(BuildConfig::default(), n as u64, |b| {
            let a = b.input(&data);
            let out = b.alloc::<u64>(1);
            let mut total = 0;
            for i in 0..n {
                total += b.read(a, i);
            }
            b.write(out, 0, total);
        });
        assert_eq!(crate::analysis::write_counts(&comp).0, 1);
    }

    #[test]
    fn arrays_are_block_disjoint() {
        let comp = Builder::build(BuildConfig::with_block(16), 4, |b| {
            let a = b.alloc::<u64>(3);
            let c = b.alloc::<u64>(3);
            assert!(c.base() >= a.base() + 16);
            b.write(a, 0, 1);
            b.write(c, 0, 2);
        });
        assert_eq!(comp.block_words, 16);
    }

    #[test]
    fn locals_live_on_frames() {
        let comp = Builder::build(BuildConfig::default(), 8, |b| {
            let x = b.local(7u64);
            b.fork(
                4,
                4,
                |b| {
                    let v = b.rloc(x); // child reads parent's local
                    let y = b.local(v * 2);
                    let _ = b.rloc(y);
                },
                |b| {
                    let _ = b.local(1u64);
                },
            );
            let v = b.rloc(x);
            assert_eq!(v, 7);
        });
        assert_eq!(comp.nodes[comp.root.idx()].frame_words, 1);
        // children declared one local each
        let (_, _, l, r, _) = comp.forks().next().unwrap();
        assert_eq!(comp.nodes[l.idx()].frame_words, 1);
        assert_eq!(comp.nodes[r.idx()].frame_words, 1);
    }

    #[test]
    fn padding_adds_sqrt_size_words() {
        let comp = Builder::build(BuildConfig::default().padded(), 100, |b| {
            b.fork(50, 50, |_| {}, |_| {});
        });
        assert_eq!(comp.nodes[comp.root.idx()].pad_words, 10);
        let (_, _, l, _, _) = comp.forks().next().unwrap();
        assert_eq!(comp.nodes[l.idx()].pad_words, 8); // ceil(sqrt(50)) = 8
    }

    #[test]
    fn fanout_builds_balanced_tree() {
        let mut seen = Vec::new();
        let comp = Builder::build(BuildConfig::default(), 10, |b| {
            fanout_uniform(b, 10, 1, &mut |b, i| {
                seen.push(i);
                let l = b.local(i as u64);
                let _ = b.rloc(l);
            });
        });
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(comp.forks().count(), 9);
    }

    /// A closed node's frame is gone: a local smuggled out of the left
    /// child and read by the right one — which sits at the left's depth
    /// by then — is a dead-frame access, loud at build time (before, the
    /// stale build-time value was returned and only a debug replay
    /// noticed).
    #[test]
    #[should_panic(expected = "used after the node closed (dead frame)")]
    fn a_closed_nodes_local_is_dead() {
        Builder::build(BuildConfig::default(), 2, |b| {
            let mut smuggled = None;
            b.fork_with(1, 1, |b, right| {
                if right {
                    b.rloc(smuggled.expect("the left child ran first"));
                } else {
                    smuggled = Some(b.local(7u64));
                }
            });
        });
    }

    /// The same for the silent array peek, once the fork is over.
    #[test]
    #[should_panic(expected = "used after the node closed (dead frame)")]
    fn a_closed_nodes_array_cannot_be_peeked() {
        Builder::build(BuildConfig::default(), 2, |b| {
            let mut smuggled = None;
            b.fork(1, 1, |b| smuggled = Some(b.local_array::<u64>(2)), |_| {});
            b.peek_arr(smuggled.expect("the left child ran"), 0);
        });
    }

    #[test]
    fn local_array_roundtrip() {
        Builder::build(BuildConfig::default(), 4, |b| {
            let a = b.local_array::<f64>(4);
            b.warr(a, 2, 2.5);
            assert_eq!(b.rarr(a, 2), 2.5);
            assert_eq!(b.rarr(a, 0), 0.0);
        });
    }
}
