//! Virtual time: the discrete-event calendar and the sweep cadence.
//!
//! The simulator is event-driven. Each core advances on [`EvKind::Step`]
//! events stamped with its private virtual clock; steal rounds run on
//! [`EvKind::Sweep`] events. Events pop in order of time, and among
//! events for the same instant in the order they were pushed, so event
//! order — and therefore every simulated execution — is fully
//! deterministic: two runs of the same computation on the same machine
//! pop the exact same event sequence.
//!
//! **The calendar.** Virtual time is integral and no event is ever
//! scheduled far ahead: a push lies within one *charge* of the current
//! time — an access costs at most `1 + miss_cost()`, a fork 1, a steal
//! `steal_cost()`, and a sweep is requested at the requester's own time.
//! So the queue is not a heap but a ring of FIFO buckets, one per
//! instant, indexed by `time & mask`: `push` appends to its bucket, `pop`
//! drains the bucket at the `now` cursor and moves on to the next
//! non-empty one. The order inside a bucket is push order, which is the
//! tie-break; no sequence numbers are kept. The ring is sized once, to
//! the power of two above the machine's largest charge — the **horizon**
//! ([`EventQueue::new`]); the costs are derived from `p`, so 128 buckets
//! cover every machine (`steal_cost() = 16·⌈log₂ 64⌉ = 96` at most). A
//! push beyond the horizon panics: there is no second queue to fall back
//! to.
//!
//! Sweeps are deduplicated by timestamp: scheduling a sweep at a time at
//! which (or before which) one is already pending is a no-op, so sweeps
//! never outnumber the forks and node completions that request them.
//!
//! The queue defines the order of execution; it need not carry every
//! step. [`EventQueue::runs_next`] tells a core whether the event it is
//! about to push at `t` would be popped next anyway — no event is pending
//! in the buckets `now..=t` — in which case the engine skips the round
//! trip (see [`crate::sim`], "Run-ahead") and the cursor moves to `t`,
//! where that core now is. Skipping a push leaves the order of the
//! events that are queued as it was.

use hbp_machine::MachineConfig;

/// What a scheduled event does when popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvKind {
    /// Advance the given core by one chargeable action.
    Step(u32),
    /// Attempt steals for all idle cores.
    Sweep,
}

/// One popped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    /// Virtual time at which the event fires.
    pub(crate) time: u64,
    /// The event's action.
    pub(crate) kind: EvKind,
}

/// The event calendar (see the module docs) plus the sweep-dedup state.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// `buckets[t & mask]`: the events due at `t`, in push order, for the
    /// one `t` in `now..=now + horizon` that maps there.
    buckets: Vec<Vec<EvKind>>,
    mask: u64,
    /// Farthest ahead of `now` a push may lie.
    horizon: u64,
    /// Time of the last event popped (or of the core running ahead).
    now: u64,
    /// How many events of the bucket at `now` have been popped already;
    /// every other bucket holds pending events only.
    head: usize,
    /// Events pushed and not yet popped.
    pending: usize,
    sweep_scheduled_at: Option<u64>,
}

impl EventQueue {
    /// An empty queue at virtual time zero whose horizon is the largest
    /// single charge of `cfg`: `1 + miss_cost()` or `steal_cost()` (an L2
    /// hit costs less than a miss).
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        Self::with_horizon(cfg.steal_cost().max(1 + cfg.miss_cost()))
    }

    /// An empty queue at virtual time zero accepting pushes up to
    /// `horizon` time units ahead of the current time.
    fn with_horizon(horizon: u64) -> Self {
        let ring = (horizon + 1).next_power_of_two();
        Self {
            buckets: vec![Vec::new(); ring as usize],
            mask: ring - 1,
            horizon,
            now: 0,
            head: 0,
            pending: 0,
            sweep_scheduled_at: None,
        }
    }

    #[inline]
    fn bucket(&self, time: u64) -> usize {
        (time & self.mask) as usize
    }

    /// Move the cursor from a fully drained bucket to `to`.
    fn advance(&mut self, to: u64) {
        let b = self.bucket(self.now);
        debug_assert_eq!(self.head, self.buckets[b].len());
        self.buckets[b].clear();
        self.head = 0;
        self.now = to;
    }

    /// Push an event at `time`; later pushes at equal times pop later.
    /// `time` may not lie before the current time nor more than the
    /// horizon after it.
    pub(crate) fn push(&mut self, time: u64, kind: EvKind) {
        assert!(
            time >= self.now && time - self.now <= self.horizon,
            "event at {time} lies outside the calendar's window {}..={}",
            self.now,
            self.now + self.horizon
        );
        let b = self.bucket(time);
        self.buckets[b].push(kind);
        self.pending += 1;
    }

    /// Pop the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<Ev> {
        if self.pending == 0 {
            return None;
        }
        loop {
            if let Some(&kind) = self.buckets[self.bucket(self.now)].get(self.head) {
                self.head += 1;
                self.pending -= 1;
                return Some(Ev {
                    time: self.now,
                    kind,
                });
            }
            self.advance(self.now + 1);
        }
    }

    /// Whether an event pushed now at `time` would be the next one popped:
    /// nothing is pending in the buckets `now..=time`. (An event already
    /// queued for `time` itself was pushed earlier and goes first.) On
    /// `true` the caller runs in place of that event, and the cursor moves
    /// to `time`.
    pub(crate) fn runs_next(&mut self, time: u64) -> bool {
        debug_assert!(time >= self.now);
        if self.pending > 0 {
            assert!(
                time - self.now <= self.horizon,
                "a charge to {time} lies outside the calendar's window {}..={}",
                self.now,
                self.now + self.horizon
            );
            if self.head < self.buckets[self.bucket(self.now)].len()
                || (self.now + 1..=time).any(|t| !self.buckets[self.bucket(t)].is_empty())
            {
                return false;
            }
        }
        if time > self.now {
            self.advance(time);
        }
        true
    }

    /// Request a steal sweep at `time`. `wanted` gates the request (the
    /// engine passes "some core is idle"); a sweep already pending at an
    /// earlier-or-equal time absorbs the request.
    pub(crate) fn schedule_sweep(&mut self, time: u64, wanted: bool) {
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
    pub(crate) fn sweep_started(&mut self) {
        self.sweep_scheduled_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(q: &mut EventQueue) -> Vec<EvKind> {
        std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect()
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::with_horizon(5);
        q.push(5, EvKind::Step(0));
        q.push(3, EvKind::Step(1));
        q.push(3, EvKind::Step(2));
        assert_eq!(
            q.pop(),
            Some(Ev {
                time: 3,
                kind: EvKind::Step(1)
            })
        );
        // A push into the bucket being drained queues behind what is there.
        q.push(3, EvKind::Step(3));
        assert_eq!(
            drain(&mut q),
            vec![EvKind::Step(2), EvKind::Step(3), EvKind::Step(0)]
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn runs_next_only_when_every_queued_event_is_strictly_later() {
        let mut q = EventQueue::with_horizon(8);
        assert!(q.runs_next(7), "empty queue");
        q.push(12, EvKind::Step(1));
        assert!(q.runs_next(11));
        // A push at 12 now would pop after the queued event at 12 (FIFO).
        assert!(!q.runs_next(12));
        assert!(!q.runs_next(13));
        // The successful probes moved the cursor: 11 + 8 is in the window.
        q.push(19, EvKind::Step(2));
        assert_eq!(q.pop().map(|e| e.time), Some(12));
        assert!(q.runs_next(12), "the bucket at 12 is drained");
        assert!(!q.runs_next(19));
    }

    #[test]
    fn sweeps_dedupe_by_timestamp() {
        let mut q = EventQueue::with_horizon(9);
        q.schedule_sweep(4, true);
        q.schedule_sweep(4, true); // absorbed
        q.schedule_sweep(9, true); // absorbed (a sweep is pending earlier)
        q.schedule_sweep(2, true); // earlier: scheduled too
        let sweeps = drain(&mut q)
            .iter()
            .filter(|&&k| k == EvKind::Sweep)
            .count();
        assert_eq!(sweeps, 2);
    }

    #[test]
    fn unwanted_sweeps_are_dropped() {
        let mut q = EventQueue::with_horizon(1);
        q.schedule_sweep(1, false);
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "outside the calendar's window")]
    fn a_push_beyond_the_horizon_panics() {
        let mut q = EventQueue::new(&MachineConfig::default_machine());
        q.push(1000, EvKind::Step(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The calendar against the heap it replaced — a
        /// `BinaryHeap<Reverse<(time, seq, kind)>>` — on one random
        /// monotone stream: pushes at `now + δ`, `δ ∈ 0..=horizon`, over
        /// many laps of the ring, with `runs_next` probes in between.
        /// Pop sequences and probe answers must be identical.
        #[test]
        fn matches_the_binary_heap_model(horizon in 0u64..=130, seed in 0u64..u64::MAX) {
            let mut q = EventQueue::with_horizon(horizon);
            let mut model: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            let mut rng = proptest::TestRng::new(seed);
            let (mut now, mut seq) = (0u64, 0u64);
            for _ in 0..4000 {
                match rng.below(5) {
                    0 | 1 => {
                        let (t, core) = (now + rng.below(horizon + 1), rng.below(8) as u32);
                        seq += 1;
                        q.push(t, EvKind::Step(core));
                        model.push(Reverse((t, seq, core)));
                    }
                    2 | 3 => {
                        let want = model.pop().map(|Reverse((t, _, core))| (t, EvKind::Step(core)));
                        prop_assert_eq!(q.pop().map(|e| (e.time, e.kind)), want);
                        now = want.map_or(now, |(t, _)| t);
                    }
                    _ => {
                        let t = now + rng.below(horizon + 1);
                        let want = model.peek().is_none_or(|Reverse((first, _, _))| *first > t);
                        prop_assert_eq!(q.runs_next(t), want);
                        if want {
                            now = t;
                        }
                    }
                }
            }
            while let Some(Reverse((t, _, core))) = model.pop() {
                prop_assert_eq!(q.pop(), Some(Ev { time: t, kind: EvKind::Step(core) }));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
