//! [`TraceSink`]: per-worker lock-free-append ring buffers.
//!
//! Each worker appends only to its own buffer, so an append is one
//! relaxed index load, one slot write, and one release index store — no
//! locks, no CAS, no cross-worker contention beyond the global sequence
//! counter (`fetch_add`, relaxed). The buffers are fixed-capacity rings:
//! when a worker outruns its capacity the oldest events are overwritten
//! and the overflow is reported as [`Trace::dropped`] (analyses that
//! need a complete trace, like the critical path, refuse truncated
//! traces instead of silently miscounting, and `trace_report` exits 2
//! on one).
//!
//! **Layout.** The sink keeps the rule the paper is about: no two
//! writers share a block. Each worker's ring header — its `len` is
//! stored on every append — is aligned to its own 64-byte line, and the
//! `seq` counter, which every append of every worker read-modify-writes,
//! sits on a line apart from the fields every append only reads.
//!
//! **Why `collect` is a placement, not a sort.** `seq` comes from one
//! `fetch_add` per append, so a sink that has taken `n` appends has
//! handed out exactly `0..n`, each once. If no ring overflowed, all `n`
//! events are still present and the seq-sorted trace is each event
//! copied to `events[seq]` — one pass over the rings where they lie, no
//! comparison. Once a ring has overflowed the surviving `seq`s have
//! holes; each worker's events are still ascending (from the ring's
//! oldest slot, wrapping), so they are merged by smallest head.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::event::{ClockDomain, EventKind, TraceEvent};
use crate::trace::Trace;

/// Default per-worker capacity (events). Overridable per sink with
/// [`TraceSink::with_capacity`]; the `HBP_TRACE_BUF` env knob is parsed
/// by `hbp_core::Config`, which passes the resolved capacity here.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// One worker's ring. Only the owning worker writes; `len` is the total
/// number of events ever appended (the ring holds the last `cap`).
/// Aligned to a cache line so that two workers' `len` stores never share
/// one (the rings sit side by side in a `Vec`).
#[repr(align(64))]
struct WorkerBuf {
    cap: usize,
    len: AtomicUsize,
    slots: UnsafeCell<Vec<TraceEvent>>,
}

const _: () = assert!(std::mem::align_of::<WorkerBuf>() == 64);

// SAFETY: the append contract (below) guarantees at most one thread
// writes a given buffer at a time, and readers observe `len` with
// Acquire after the writer's Release store, so every slot a reader
// dereferences was fully written first.
unsafe impl Sync for WorkerBuf {}

impl WorkerBuf {
    fn new(cap: usize) -> Self {
        // Start small and double: a short recording then fits a block the
        // allocator hands back warm from the previous sink, where a ring
        // reserved whole is mapped fresh each time and pays a page fault
        // per 4 KiB written — more than the copies doubling makes.
        Self {
            cap,
            len: AtomicUsize::new(0),
            slots: UnsafeCell::new(Vec::with_capacity(cap.min(1 << 12))),
        }
    }

    /// Owner-only append (see [`TraceSink::push`] for the contract).
    fn push(&self, ev: TraceEvent) {
        let n = self.len.load(Ordering::Relaxed);
        // SAFETY: only the owning worker writes this buffer (the sink's
        // push contract), so the &mut is unique; readers wait for the
        // Release store below.
        let slots = unsafe { &mut *self.slots.get() };
        if n < self.cap {
            slots.push(ev);
        } else {
            slots[n % self.cap] = ev;
        }
        self.len.store(n + 1, Ordering::Release);
    }

    /// The events present, read in place, as two seq-ascending runs —
    /// everything in the first was appended before anything in the
    /// second (an overflowed ring starts at its oldest slot and wraps;
    /// otherwise the second run is empty) — and the total ever appended.
    fn runs(&self) -> ([&[TraceEvent]; 2], usize) {
        let total = self.len.load(Ordering::Acquire);
        // SAFETY: quiescence contract of `TraceSink::collect` — no
        // concurrent appends while collecting.
        let slots = unsafe { &*self.slots.get() };
        let oldest = if total > slots.len() {
            total % self.cap
        } else {
            0
        };
        let (newer, older) = slots.split_at(oldest);
        ([older, newer], total)
    }
}

/// The global sequence counter, alone on its cache line: every push by
/// every worker read-modify-writes it, and every push also *reads* the
/// sink's other fields (`clock`, the `bufs` pointer), which would
/// otherwise be invalidated along with it.
#[repr(align(64))]
struct SeqCounter(AtomicU64);

const _: () = assert!(std::mem::align_of::<SeqCounter>() == 64);
const _: () = assert!(std::mem::size_of::<SeqCounter>() == 64);

/// The shared recording endpoint both backends write into.
///
/// # Contract
///
/// * [`TraceSink::push`] for a given `worker` index must be called by at
///   most one thread at a time (each native worker owns its index; the
///   single-threaded simulator owns all of them).
/// * [`TraceSink::collect`] must only run while no pushes are in flight
///   (after the pool scope joined / the sim run returned).
pub struct TraceSink {
    clock: ClockDomain,
    seq: SeqCounter,
    bufs: Vec<WorkerBuf>,
}

impl TraceSink {
    /// A sink for `workers` workers at the default per-worker capacity
    /// ([`DEFAULT_CAPACITY`]; use [`TraceSink::with_capacity`] — or the
    /// `HBP_TRACE_BUF` knob via `hbp_core::Config` — to size it).
    pub fn new(workers: usize, clock: ClockDomain) -> Self {
        Self::with_capacity(workers, clock, DEFAULT_CAPACITY)
    }

    /// A sink with an explicit per-worker ring capacity (events).
    pub fn with_capacity(workers: usize, clock: ClockDomain, cap: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(cap >= 1, "ring capacity must be positive");
        Self {
            clock,
            seq: SeqCounter(AtomicU64::new(0)),
            bufs: (0..workers).map(|_| WorkerBuf::new(cap)).collect(),
        }
    }

    /// Number of worker buffers.
    pub fn workers(&self) -> usize {
        self.bufs.len()
    }

    /// The clock domain events are stamped in.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Append an event to `worker`'s ring (see the sink contract).
    #[inline]
    pub fn push(&self, worker: usize, t: u64, kind: EventKind) {
        let seq = self.seq.0.fetch_add(1, Ordering::Relaxed);
        self.bufs[worker].push(TraceEvent {
            seq,
            t,
            worker: worker as u32,
            kind,
        });
    }

    /// Merge all worker rings into one seq-sorted [`Trace`]. Call only
    /// after the traced run has completed (quiescence contract).
    pub fn collect(&self) -> Trace {
        let (rings, totals): (Vec<_>, Vec<_>) = self.bufs.iter().map(WorkerBuf::runs).unzip();
        let appended: usize = totals.iter().sum();
        let present: usize = rings.iter().flatten().map(|run| run.len()).sum();
        let events = if present == appended {
            place_by_seq(&rings, present)
        } else {
            merge_by_seq(&rings, present)
        };
        Trace {
            clock: self.clock,
            workers: self.bufs.len(),
            events,
            dropped: (appended - present) as u64,
        }
    }
}

/// One worker's surviving events as [`WorkerBuf::runs`] hands them out.
type Ring<'a> = [&'a [TraceEvent]; 2];

/// The complete case: nothing was dropped, so the `n` events carry the
/// `n` distinct `seq`s the counter handed out, `0..n`, and sorting them
/// is putting each at `events[seq]`.
fn place_by_seq(rings: &[Ring], n: usize) -> Vec<TraceEvent> {
    let unset = TraceEvent {
        seq: u64::MAX,
        t: 0,
        worker: 0,
        kind: EventKind::StealFail,
    };
    let mut events = vec![unset; n];
    for ev in rings.iter().flatten().flat_map(|run| run.iter()) {
        events[ev.seq as usize] = *ev;
    }
    events
}

/// The overflowed case: the surviving `seq`s have holes, but each
/// worker's events are still ascending, so merging the workers by
/// smallest head orders them.
fn merge_by_seq(rings: &[Ring], n: usize) -> Vec<TraceEvent> {
    let mut runs: Vec<_> = rings
        .iter()
        .map(|[a, b]| a.iter().chain(b.iter()))
        .collect();
    let mut front: Vec<Option<&TraceEvent>> = runs.iter_mut().map(Iterator::next).collect();
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = front
        .iter()
        .enumerate()
        .filter_map(|(w, ev)| ev.map(|ev| Reverse((ev.seq, w))))
        .collect();
    let mut events = Vec::with_capacity(n);
    while let Some(Reverse((_, w))) = heads.pop() {
        events.push(*front[w].expect("a worker on the heap has a head event"));
        front[w] = runs[w].next();
        if let Some(ev) = front[w] {
            heads.push(Reverse((ev.seq, w)));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_collect_roundtrip_is_seq_sorted() {
        let sink = TraceSink::with_capacity(2, ClockDomain::Virtual, 16);
        sink.push(1, 5, EventKind::StealFail);
        sink.push(0, 0, EventKind::TaskBegin { task: 7 });
        sink.push(0, 9, EventKind::TaskEnd { task: 7 });
        let tr = sink.collect();
        assert_eq!(tr.workers, 2);
        assert_eq!(tr.dropped, 0);
        let seqs: Vec<u64> = tr.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(tr.events[1].worker, 0);
        assert_eq!(tr.events[1].kind, EventKind::TaskBegin { task: 7 });
    }

    #[test]
    fn ring_overflow_reports_dropped_and_keeps_latest() {
        let sink = TraceSink::with_capacity(1, ClockDomain::WallNs, 4);
        for i in 0..10 {
            sink.push(0, i, EventKind::StealFail);
        }
        let tr = sink.collect();
        assert_eq!(tr.dropped, 6);
        assert_eq!(tr.events.len(), 4);
        // The survivors are the newest four, in seq order.
        let ts: Vec<u64> = tr.events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_owner_appends_are_race_free() {
        let sink = std::sync::Arc::new(TraceSink::with_capacity(4, ClockDomain::WallNs, 1 << 12));
        std::thread::scope(|s| {
            for w in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..1000 {
                        sink.push(w, i, EventKind::TaskBegin { task: i as u32 });
                    }
                });
            }
        });
        let tr = sink.collect();
        assert_eq!(tr.events.len(), 4000);
        assert_eq!(tr.dropped, 0);
        // seqs are unique.
        let mut seqs: Vec<u64> = tr.events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 4000);
    }

    proptest::proptest! {
        /// `collect` against the obvious model — remember everything
        /// pushed, keep each worker's last `cap`, sort by `seq` — over
        /// sinks whose rings overflow in about half the cases.
        #[test]
        fn collect_matches_a_naive_model(
            workers in 1usize..=8,
            cap in 1usize..64,
            picks in proptest::prop::collection::vec(0usize..8, 0..200),
        ) {
            let sink = TraceSink::with_capacity(workers, ClockDomain::Virtual, cap);
            let mut pushed: Vec<Vec<TraceEvent>> = vec![Vec::new(); workers];
            for (seq, pick) in picks.iter().enumerate() {
                let (worker, t) = (pick % workers, 3 * seq as u64);
                let kind = EventKind::TaskBegin { task: seq as u32 };
                sink.push(worker, t, kind);
                pushed[worker].push(TraceEvent { seq: seq as u64, t, worker: worker as u32, kind });
            }
            let mut kept: Vec<TraceEvent> = pushed
                .iter()
                .flat_map(|evs| &evs[evs.len().saturating_sub(cap)..])
                .copied()
                .collect();
            kept.sort_by_key(|e| e.seq);
            let trace = sink.collect();
            assert_eq!(trace.dropped, (picks.len() - kept.len()) as u64);
            assert_eq!(trace.events, kept);
            assert_eq!(sink.collect().events, kept, "collecting reads, it does not drain");
        }
    }
}
