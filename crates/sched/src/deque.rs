//! Per-core task deques with the paper's Obs 4.1 access discipline.
//!
//! Each core owns one deque of ready (forked, not yet started) tasks:
//!
//! * a **fork** pushes the right child at the *bottom* (owner end);
//! * the **owner** resumes work by popping the *bottom* — the most
//!   recently forked, smallest, deepest task;
//! * a **thief** steals from the *top* — the oldest, largest,
//!   highest-priority task.
//!
//! This ordering is exactly what makes priorities monotone along a deque
//! (Obs 4.1): tasks appear top-to-bottom in decreasing size / increasing
//! depth, so the top is always the best steal candidate.

use std::collections::VecDeque;

use hbp_model::NodeId;

/// The `p` per-core deques of the simulated machine.
#[derive(Debug)]
pub(crate) struct TaskDeques {
    queues: Vec<VecDeque<NodeId>>,
}

impl TaskDeques {
    /// One empty deque per core.
    pub(crate) fn new(p: usize) -> Self {
        Self {
            queues: vec![VecDeque::new(); p],
        }
    }

    /// Owner push: the just-forked right child goes to the bottom.
    pub(crate) fn push_bottom(&mut self, core: usize, node: NodeId) {
        self.queues[core].push_back(node);
    }

    /// Owner pop: resume the most recently forked task, if any.
    pub(crate) fn pop_bottom(&mut self, core: usize) -> Option<NodeId> {
        self.queues[core].pop_back()
    }

    /// Thief pop: take the largest / highest-priority task.
    pub(crate) fn steal_top(&mut self, victim: usize) -> Option<NodeId> {
        self.queues[victim].pop_front()
    }

    /// The task a thief *would* steal from `victim`, if any.
    pub(crate) fn head(&self, victim: usize) -> Option<NodeId> {
        self.queues[victim].front().copied()
    }

    /// Whether `core`'s deque holds no ready tasks.
    pub(crate) fn is_empty(&self, core: usize) -> bool {
        self.queues[core].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let mut d = TaskDeques::new(2);
        d.push_bottom(0, n(1));
        d.push_bottom(0, n(2));
        d.push_bottom(0, n(3));
        assert_eq!(d.head(0), Some(n(1)));
        assert_eq!(d.steal_top(0), Some(n(1))); // oldest = biggest
        assert_eq!(d.pop_bottom(0), Some(n(3))); // newest = deepest
        assert_eq!(d.pop_bottom(0), Some(n(2)));
        assert!(d.is_empty(0));
        assert!(d.pop_bottom(0).is_none());
        assert!(d.steal_top(1).is_none());
    }
}
