//! The recorded computation: a series-parallel DAG of tasks with word-level
//! access traces.
//!
//! A recording is three flat tables and nothing else: the task nodes
//! ([`TNode`], 32 bytes of plain data each), their bodies laid end to end
//! in one [`Item`] arena ([`Computation::items_of`]), and the accesses
//! the bodies' segments point into ([`Access`], 8 bytes each). A node
//! knows its parent and its priority from the build on, so a scheduler
//! reads the structure and derives none of it.

use hbp_machine::Word;

/// Index of a task node in [`Computation::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// "No node": the root's [`TNode::parent`]. Never a valid index — a
    /// recording holds fewer than 2^31 nodes (see [`Access`]).
    pub const NONE: NodeId = NodeId(u32::MAX);

    /// The node's index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What an access refers to: a fixed global address, or a slot in some task
/// node's execution-stack frame (Def 3.1's local variables). Local targets
/// are resolved to physical addresses at schedule time, because where a
/// frame lives depends on which kernel (original or stolen task) executes
/// the node (§3.3, Lemma 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Absolute word address in the global heap.
    Global(Word),
    /// Word `off` of `node`'s stack frame.
    Local {
        /// The node whose frame is referenced (may be an ancestor).
        node: NodeId,
        /// Word offset within that frame.
        off: u32,
    },
}

/// One word-level memory access, packed into 8 bytes: bit 63 is the write
/// flag, bit 62 says "local"; a global keeps 62 address bits, a local 31
/// bits of node id above 31 bits of frame offset. [`Target`] is the
/// decoded view ([`Access::target`]); the limits are checked when the
/// access is recorded ([`Access::new`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Access(u64);

impl Access {
    const WRITE: u64 = 1 << 63;
    const LOCAL: u64 = 1 << 62;
    /// Bits of a local's node id, and of its frame offset.
    const LOCAL_FIELD: u32 = 31;

    /// Pack an access. Panics on a global address of 2^62 or more, or a
    /// local whose node id or frame offset is 2^31 or more.
    #[inline]
    pub fn new(target: Target, write: bool) -> Self {
        let bits = match target {
            Target::Global(w) => {
                assert!(
                    w < Self::LOCAL,
                    "global address {w} needs more than 62 bits"
                );
                w
            }
            Target::Local { node, off } => {
                assert!(
                    node.0 >> Self::LOCAL_FIELD == 0 && off >> Self::LOCAL_FIELD == 0,
                    "local {off} of {node:?} needs more than 31 bits"
                );
                Self::LOCAL | (node.0 as u64) << Self::LOCAL_FIELD | off as u64
            }
        };
        Access(bits | if write { Self::WRITE } else { 0 })
    }

    /// What is accessed.
    #[inline]
    pub fn target(self) -> Target {
        if self.0 & Self::LOCAL == 0 {
            Target::Global(self.0 & !Self::WRITE)
        } else {
            let field = (1 << Self::LOCAL_FIELD) - 1;
            Target::Local {
                node: NodeId((self.0 >> Self::LOCAL_FIELD & field) as u32),
                off: (self.0 & field) as u32,
            }
        }
    }

    /// `true` for a write.
    #[inline]
    pub fn write(self) -> bool {
        self.0 & Self::WRITE != 0
    }
}

impl std::fmt::Debug for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Access")
            .field("target", &self.target())
            .field("write", &self.write())
            .finish()
    }
}

/// A contiguous range of accesses in [`Computation::arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start index (inclusive).
    pub start: u32,
    /// End index (exclusive).
    pub end: u32,
}

impl Segment {
    /// Number of accesses in the segment.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One step in a task node's body: straight-line accesses, or a binary fork
/// whose right child is the steal candidate.
#[derive(Debug, Clone, Copy)]
pub enum Item {
    /// Straight-line accesses.
    Seg(Segment),
    /// Fork two child tasks; the parent resumes after both complete.
    Fork {
        /// Child executed in place by the forking core.
        left: NodeId,
        /// Child pushed on the deque (the steal candidate).
        right: NodeId,
        /// Task priority of the two children (filled by
        /// [`crate::priority::assign_priorities`]). Strictly smaller than
        /// the priority of the fork that created this node.
        priority: u32,
    },
}

/// A task node: the unit of stealing and of stack-frame allocation.
/// Plain data — the body lives in [`Computation::items`], see
/// [`Computation::items_of`].
#[derive(Debug, Clone, Copy)]
pub struct TNode {
    /// Declared task size `|τ|` (the paper's size = words accessed; we use
    /// the algorithm's natural size parameter, e.g. subarray length).
    pub size: u64,
    /// Start of the body in [`Computation::items`].
    pub first_item: u32,
    /// Length of the body: segments and forks, executed in order (series
    /// composition).
    pub n_items: u32,
    /// Words of local variables (and local arrays) declared by this node.
    pub frame_words: u32,
    /// Extra pad words prepended to the frame (padded computations, Def 3.3).
    pub pad_words: u32,
    /// The node whose fork created this one ([`NodeId::NONE`] for the root).
    pub parent: NodeId,
    /// Priority of the fork that created this node — the task's priority
    /// for PWS (§4.1). The root has `D' + 1`. Filled, like
    /// [`Item::Fork::priority`], by [`crate::priority::assign_priorities`].
    pub priority: u32,
}

impl TNode {
    /// The node's body as a range of [`Computation::items`].
    #[inline]
    pub fn body(&self) -> std::ops::Range<usize> {
        self.first_item as usize..(self.first_item + self.n_items) as usize
    }
}

/// A complete recorded computation, ready for scheduling.
#[derive(Debug, Clone)]
pub struct Computation {
    /// All task nodes; `nodes[root.idx()]` is the root task. A node's id
    /// is smaller than the ids of the nodes it forks.
    pub nodes: Vec<TNode>,
    /// Flat arena of all node bodies: node `n` owns the contiguous range
    /// [`TNode::body`] ([`Computation::items_of`]).
    /// The ranges are disjoint and cover the arena; they are in the order
    /// the nodes *closed* during the build (children before parents).
    pub items: Vec<Item>,
    /// Flat arena of all accesses; nodes reference it via [`Segment`]s.
    pub arena: Vec<Access>,
    /// The root task.
    pub root: NodeId,
    /// Global-heap high-water mark, in words. Execution stacks are placed
    /// above this by the scheduler.
    pub heap_words: u64,
    /// Block size the heap was allocated against.
    pub block_words: u64,
    /// Number of distinct task priorities `D'` (Cor 4.1). 0 until assigned.
    pub n_priorities: u32,
    /// Final heap contents after the (build-time) execution; used to check
    /// outputs against sequential oracles.
    pub heap: Vec<u64>,
}

impl Computation {
    /// Total number of recorded accesses — our measure of work `W`.
    pub fn work(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Number of task nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The body of `node`: its segments and forks, in execution order.
    #[inline]
    pub fn items_of(&self, node: NodeId) -> &[Item] {
        &self.items[self.nodes[node.idx()].body()]
    }

    /// Iterate over all forks: `(parent, item index, left, right, priority)`,
    /// the item index counted within the parent's body.
    pub fn forks(&self) -> impl Iterator<Item = (NodeId, usize, NodeId, NodeId, u32)> + '_ {
        (0..self.nodes.len()).flat_map(move |ni| {
            let body = self.items_of(NodeId(ni as u32));
            body.iter().enumerate().filter_map(move |(ii, it)| {
                if let Item::Fork {
                    left,
                    right,
                    priority,
                } = *it
                {
                    Some((NodeId(ni as u32), ii, left, right, priority))
                } else {
                    None
                }
            })
        })
    }
}
