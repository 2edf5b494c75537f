//! Critical-path extraction from the recorded join DAG.
//!
//! A simulated execution ends when the root task's final segment closes.
//! Walking *backwards* from that segment, every segment's start is
//! released by exactly one predecessor:
//!
//! * a segment on the **same worker** closing at the same instant — the
//!   fork→left edge, the owner popping the sibling back, or the
//!   last-finishing child resuming the parent past a join;
//! * a **steal**: the thief's `StealCommit` immediately precedes the
//!   stolen task's `TaskBegin`, charging `steal_cost`; the causal
//!   predecessor is the fork that published the task, and the time the
//!   task sat in the victim's deque is *queue wait*.
//!
//! The chain terminates at the root's start (time 0), so the sum of
//! segment durations, steal charges, and queue waits along it equals
//! the virtual-time makespan **exactly** — the invariant
//! `tests/trace_invariants.rs` checks against the simulator's report
//! for every policy. The decomposition is the paper's accounting: work
//! (including miss stalls) versus scheduling delay on the longest chain.
//!
//! **Orders relied on.** Nothing here is searched for, hashed or sorted;
//! three orders make that possible. (1) `Trace::events` is in emission
//! (`seq`) order, and a worker's events appear in the order it emitted
//! them — so "what this worker did last before opening a segment" is
//! whatever an in-order pass saw last on that worker. (2)
//! [`Trace::segments`] lists segments in the order of their *closing*
//! events, so that pass meets the closes of `segs[0]`, `segs[1]`, … in
//! turn (a segment set that does not line up is refused). (3) Simulator
//! task ids are the recorded computation's dense node ids, so the fork
//! that published a task is a table indexed by id. Events are named by
//! their *position* in `Trace::events`, never by `seq` value: a
//! hand-built trace may number its events from anywhere, with gaps.

use crate::event::{ClockDomain, EventKind};
use crate::trace::{Segment, Segments, Trace};

/// Why a critical path could not be extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpError {
    /// Only virtual-time (sim) traces support exact critical paths; a
    /// wall-clock trace interleaves nested segments non-deterministically.
    WallClockTrace,
    /// The trace lost events to ring overflow; the chain would be wrong.
    Truncated,
    /// The event stream violates the emission protocol (should not
    /// happen for sink-recorded traces; the message says where).
    Malformed(String),
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::WallClockTrace => {
                write!(f, "critical path requires a virtual-time (sim) trace")
            }
            CpError::Truncated => write!(
                f,
                "trace lost events to ring overflow (raise HBP_TRACE_BUF)"
            ),
            CpError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

/// How a critical-path hop was released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopVia {
    /// First hop: the root's start at time 0.
    Start,
    /// Released by the same worker's previous segment closing (fork,
    /// sibling pop, or join resume) at the same instant.
    SameWorker,
    /// Released by a steal: committed at `committed`, after the task
    /// was published by a fork at `forked`.
    Steal {
        /// Virtual time the thief committed the steal.
        committed: u64,
        /// Virtual time the fork published the task.
        forked: u64,
    },
}

/// One segment on the critical path (listed root-start → root-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpHop {
    /// The segment's task.
    pub task: u32,
    /// The segment's worker.
    pub worker: u32,
    /// Segment open time.
    pub start: u64,
    /// Segment close time.
    pub end: u64,
    /// How the segment's start was released.
    pub via: HopVia,
}

/// The extracted critical path: `total = work + steal + queue_wait`
/// equals the virtual-time makespan of the traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// End-to-end length (== sim makespan).
    pub total: u64,
    /// Executed time on the path (compute + miss stalls).
    pub work: u64,
    /// Steal charges (`steal_cost` per steal hop) on the path.
    pub steal: u64,
    /// Time stolen tasks sat in their victim's deque before the commit.
    pub queue_wait: u64,
    /// Number of steal hops on the path.
    pub steals: u64,
    /// The path's segments, root-start first.
    pub hops: Vec<CpHop>,
}

/// What released a segment's start: the last thing its worker did
/// before the segment's opening event.
#[derive(Clone, Copy)]
enum Release {
    /// Nothing — the worker's first segment.
    Start,
    /// The segment at this index of [`Segments::segs`] closed.
    Closed(u32),
    /// The `StealCommit` at this position of [`Trace::events`].
    Steal(u32),
}

/// "No entry" in the `u32` index tables.
const NONE: u32 = u32::MAX;

/// Task-id tables up to this many entries are built whatever the ids
/// are; beyond it the ids must be the dense node ids the simulator
/// emits (every task begins once, so an id is below the event count).
const SPARSE_ID_SLACK: usize = 1 << 16;

/// Extract the critical path of a complete sim trace (see module docs).
pub fn critical_path(trace: &Trace) -> Result<CriticalPath, CpError> {
    critical_path_of(trace, &trace.segments())
}

/// [`critical_path`] over an already-reconstructed segment set, so that
/// `summarize` runs the O(events) reconstruction once.
pub(crate) fn critical_path_of(
    trace: &Trace,
    segments: &Segments,
) -> Result<CriticalPath, CpError> {
    if trace.clock != ClockDomain::Virtual {
        return Err(CpError::WallClockTrace);
    }
    if trace.dropped > 0 {
        return Err(CpError::Truncated);
    }
    if segments.unclosed > 0 {
        return Err(CpError::Malformed(format!(
            "{} unmatched segment opens",
            segments.unclosed
        )));
    }
    let segs = &segments.segs;
    if segs.is_empty() {
        return Err(CpError::Malformed("no segments".into()));
    }

    // One in-order pass over the events fills the two index tables the
    // walk reads: what released each opening event (by event position)
    // and which segment the fork that published each task closed (by
    // task id). `segments()` lists segments in the order their closing
    // events appear, so the next one to close is always `segs[next_seg]`
    // and nothing is searched for or sorted.
    let events = &trace.events;
    let mut released_by = vec![Release::Start; events.len()];
    let mut fork_seg: Vec<u32> = Vec::new();
    let mut last = vec![Release::Start; trace.workers];
    let mut next_seg = 0;
    for (pos, ev) in events.iter().enumerate() {
        let last = &mut last[ev.worker as usize];
        let mut closed = NONE;
        if segs.get(next_seg).is_some_and(|s| s.close as usize == pos) {
            closed = next_seg as u32;
            *last = Release::Closed(closed);
            next_seg += 1;
        }
        match ev.kind {
            EventKind::TaskBegin { .. } | EventKind::JoinResume { .. } => released_by[pos] = *last,
            EventKind::StealCommit { .. } => *last = Release::Steal(pos as u32),
            EventKind::Fork { right, .. } => {
                let right = right as usize;
                if right >= fork_seg.len() {
                    if right >= events.len().max(SPARSE_ID_SLACK) {
                        return Err(CpError::Malformed(format!(
                            "task id {right} is not a dense node id ({} events)",
                            events.len()
                        )));
                    }
                    fork_seg.resize(right + 1, NONE);
                }
                fork_seg[right] = closed;
            }
            _ => {}
        }
    }
    if next_seg != segs.len() {
        return Err(CpError::Malformed(format!(
            "segment {next_seg} of {} is out of close order or not of this trace",
            segs.len()
        )));
    }

    // Start from the segment that closes last (the root's TaskEnd).
    let mut cur = segs
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| (s.end, s.close))
        .map(|(i, _)| i)
        .expect("segments non-empty");

    let (mut work, mut steal, mut queue_wait, mut steals) = (0u64, 0u64, 0u64, 0u64);
    let mut hops: Vec<CpHop> = Vec::new();
    for _ in 0..=segs.len() * 2 {
        let s: Segment = segs[cur];
        work += s.duration();
        match released_by[s.open as usize] {
            Release::Start => {
                if s.start != 0 {
                    return Err(CpError::Malformed(format!(
                        "segment of task {} starts at {} with no predecessor",
                        s.task, s.start
                    )));
                }
                hops.push(hop(&s, HopVia::Start));
                hops.reverse();
                let total = work + steal + queue_wait;
                return Ok(CriticalPath {
                    total,
                    work,
                    steal,
                    queue_wait,
                    steals,
                    hops,
                });
            }
            Release::Steal(at) => {
                let ev = &events[at as usize];
                let EventKind::StealCommit { task, .. } = ev.kind else {
                    unreachable!("Release::Steal holds a StealCommit's position");
                };
                if task != s.task {
                    return Err(CpError::Malformed(format!(
                        "steal of task {task} precedes begin of task {}",
                        s.task
                    )));
                }
                let fork = match fork_seg.get(task as usize) {
                    Some(&seg) if seg != NONE => seg as usize,
                    _ => {
                        return Err(CpError::Malformed(format!(
                            "no fork closing a segment published stolen task {task}"
                        )))
                    }
                };
                let forked = segs[fork].end;
                if s.start < forked {
                    return Err(CpError::Malformed(format!(
                        "task {task} begins at {} before its fork at {forked}",
                        s.start
                    )));
                }
                // A sweep already pending at time `now` can steal a task
                // whose fork event is stamped `now + 1` (the fork's unit
                // charge advances the victim's clock past the sweep's
                // timestamp before the push is observed). Clamp the
                // commit instant into `[forked, begin]` so the
                // wait/steal split telescopes exactly.
                let committed = ev.t.clamp(forked, s.start);
                steal += s.start - committed;
                queue_wait += committed - forked;
                steals += 1;
                hops.push(hop(&s, HopVia::Steal { committed, forked }));
                cur = fork;
            }
            Release::Closed(p) => {
                let p = p as usize;
                if segs[p].end != s.start {
                    return Err(CpError::Malformed(format!(
                        "task {} opens at {} but predecessor closed at {}",
                        s.task, s.start, segs[p].end
                    )));
                }
                hops.push(hop(&s, HopVia::SameWorker));
                cur = p;
            }
        }
    }
    Err(CpError::Malformed("back-chain did not terminate".into()))
}

fn hop(s: &Segment, via: HopVia) -> CpHop {
    CpHop {
        task: s.task,
        worker: s.worker,
        start: s.start,
        end: s.end,
        via,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::tests::steal_trace;

    /// `diff`'s two-worker trace — the root forks task 1, worker 1
    /// steals it and, finishing last, resumes the root — restamped with
    /// the given `seq`s.
    fn stolen_fork(seqs: impl IntoIterator<Item = u64>) -> Trace {
        let mut trace = steal_trace(1);
        for (ev, seq) in trace.events.iter_mut().zip(seqs) {
            ev.seq = seq;
        }
        trace
    }

    #[test]
    fn seq_values_do_not_matter_only_their_order() {
        let dense = critical_path(&stolen_fork(0..)).expect("dense seqs");
        let sparse = critical_path(&stolen_fork((0..).map(|i| 1000 + i * i + 3 * i)))
            .expect("seqs from 1000 with growing gaps");
        assert_eq!(format!("{sparse:?}"), format!("{dense:?}"));
        assert_eq!(
            (dense.total, dense.work, dense.steal, dense.queue_wait),
            (7, 5, 1, 1)
        );
        let tasks: Vec<u32> = dense.hops.iter().map(|h| h.task).collect();
        assert_eq!(tasks, [0, 1, 0]);
        assert_eq!(
            dense.hops[1].via,
            HopVia::Steal {
                committed: 3,
                forked: 2
            }
        );
    }

    #[test]
    fn segments_of_another_trace_are_refused() {
        let trace = stolen_fork(0..);
        let mut segments = trace.segments();
        segments.segs.swap(0, 1);
        assert!(matches!(
            critical_path_of(&trace, &segments),
            Err(CpError::Malformed(_))
        ));
    }

    #[test]
    fn a_task_id_far_beyond_the_event_count_is_refused_not_allocated() {
        let mut trace = stolen_fork(0..);
        trace.events[1].kind = EventKind::Fork {
            parent: 0,
            left: 2,
            right: u32::MAX - 1,
        };
        assert!(matches!(
            critical_path(&trace),
            Err(CpError::Malformed(m)) if m.contains("dense")
        ));
    }
}
