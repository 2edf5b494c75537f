//! Virtual time: the discrete-event heap and the sweep cadence.
//!
//! The simulator is event-driven. Each core advances on [`EvKind::Step`]
//! events stamped with its private virtual clock; steal rounds run on
//! [`EvKind::Sweep`] events. Ties are broken by a global sequence number,
//! so event order — and therefore every simulated execution — is fully
//! deterministic: two runs of the same computation on the same machine
//! pop the exact same event sequence.
//!
//! Sweeps are deduplicated by timestamp: scheduling a sweep at a time at
//! which (or before which) one is already pending is a no-op, so sweeps
//! never outnumber the forks and node completions that request them.
//!
//! The queue defines the order of execution; it need not carry every
//! step. [`EventQueue::runs_next`] tells a core whether the event it is
//! about to push would be popped next anyway, in which case the engine
//! skips the round trip (see [`crate::sim`], "Run-ahead"). Sequence
//! numbers only break ties among queued events, so skipping some leaves
//! the order of the rest as it was.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled event does when popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// Advance the given core by one chargeable action.
    Step(u32),
    /// Attempt steals for all idle cores.
    Sweep,
}

/// One scheduled event: `(time, seq)` orders the heap, `seq` makes the
/// order total (FIFO among events pushed for the same instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    /// Virtual time at which the event fires.
    pub time: u64,
    /// Global push sequence number (tie-breaker).
    pub seq: u64,
    /// The event's action.
    pub kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(o.time, o.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}

/// The event heap plus the sweep-dedup state.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    sweep_scheduled_at: Option<u64>,
}

impl EventQueue {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push an event at `time`; later pushes at equal times pop later.
    pub fn push(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<Ev> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Whether an event pushed now at `time` would be the next one popped:
    /// the heap is empty or its earliest event is *strictly* later. (An
    /// event already queued for `time` itself has a smaller sequence
    /// number and goes first.)
    pub fn runs_next(&self, time: u64) -> bool {
        self.heap.peek().is_none_or(|Reverse(ev)| ev.time > time)
    }

    /// Request a steal sweep at `time`. `wanted` gates the request (the
    /// engine passes "some core is idle"); a sweep already pending at an
    /// earlier-or-equal time absorbs the request.
    pub fn schedule_sweep(&mut self, time: u64, wanted: bool) {
        if !wanted {
            return;
        }
        if let Some(t) = self.sweep_scheduled_at {
            if t <= time {
                return;
            }
        }
        self.sweep_scheduled_at = Some(time);
        self.push(time, EvKind::Sweep);
    }

    /// Mark the pending sweep as started (called when its event pops), so
    /// the next request schedules a fresh one.
    pub fn sweep_started(&mut self) {
        self.sweep_scheduled_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(5, EvKind::Step(0));
        q.push(3, EvKind::Step(1));
        q.push(3, EvKind::Step(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![EvKind::Step(1), EvKind::Step(2), EvKind::Step(0)]
        );
    }

    #[test]
    fn runs_next_only_when_every_queued_event_is_strictly_later() {
        let mut q = EventQueue::new();
        assert!(q.runs_next(7), "empty queue");
        q.push(5, EvKind::Step(1));
        assert!(q.runs_next(4));
        // A push at 5 now would pop after the queued event at 5 (FIFO).
        assert!(!q.runs_next(5));
        assert!(!q.runs_next(6));
    }

    #[test]
    fn sweeps_dedupe_by_timestamp() {
        let mut q = EventQueue::new();
        q.schedule_sweep(4, true);
        q.schedule_sweep(4, true); // absorbed
        q.schedule_sweep(9, true); // absorbed (a sweep is pending earlier)
        q.schedule_sweep(2, true); // earlier: scheduled too
        let sweeps = std::iter::from_fn(|| q.pop())
            .filter(|e| e.kind == EvKind::Sweep)
            .count();
        assert_eq!(sweeps, 2);
    }

    #[test]
    fn unwanted_sweeps_are_dropped() {
        let mut q = EventQueue::new();
        q.schedule_sweep(1, false);
        assert!(q.pop().is_none());
    }
}
