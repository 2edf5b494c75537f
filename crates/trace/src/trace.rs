//! [`Trace`]: a collected event stream, and its segment reconstruction.

use crate::event::{ClockDomain, EventKind, TraceEvent};

/// A merged, seq-sorted recording of one execution.
#[derive(Debug, Clone)]
pub struct Trace {
    /// What the timestamps count.
    pub clock: ClockDomain,
    /// Number of workers the sink was sized for.
    pub workers: usize,
    /// All events, sorted by [`TraceEvent::seq`].
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (0 for a complete trace).
    pub dropped: u64,
}

impl Trace {
    /// Largest timestamp in the trace (the recorded end of execution).
    pub fn makespan(&self) -> u64 {
        self.events.iter().map(|e| e.t).max().unwrap_or(0)
    }

    /// Count of events matching `pred`.
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(&e.kind)).count() as u64
    }

    /// Reconstruct execution segments (see [`Segment`]), in the order
    /// their closing events appear. Unclosed opens (possible on truncated
    /// traces) are dropped and counted in [`Segments::unclosed`].
    pub fn segments(&self) -> Segments {
        assert!(
            u32::try_from(self.events.len()).is_ok(),
            "segments index events by u32 position; the trace holds {}",
            self.events.len()
        );
        let mut stacks: Vec<Vec<Segment>> = vec![Vec::new(); self.workers];
        // A segment takes an opening and a closing event.
        let mut segs: Vec<Segment> = Vec::with_capacity(self.events.len() / 2);
        let mut mismatched = 0u64;
        for (pos, ev) in self.events.iter().enumerate() {
            let stack = &mut stacks[ev.worker as usize];
            let closed = match ev.kind {
                EventKind::TaskBegin { task } | EventKind::JoinResume { task } => {
                    stack.push(Segment {
                        start: ev.t,
                        end: ev.t,
                        worker: ev.worker,
                        task,
                        depth: stack.len() as u32,
                        open: pos as u32,
                        close: pos as u32,
                        heap_block: 0,
                        stack_block: 0,
                        stack_plain: 0,
                        resumed: matches!(ev.kind, EventKind::JoinResume { .. }),
                    });
                    None
                }
                // On the sim backend a fork closes the parent's segment
                // (the left child's TaskBegin follows); on the native
                // backend the worker keeps running inside the current
                // segment, so the fork is only a marker.
                EventKind::Fork { parent, .. } if self.clock == ClockDomain::Virtual => {
                    Some(parent)
                }
                EventKind::TaskEnd { task } => Some(task),
                EventKind::MissDelta {
                    heap_block,
                    stack_block,
                    stack_plain,
                } => {
                    if let Some(s) = stack.last_mut() {
                        s.heap_block = s.heap_block.saturating_add(heap_block);
                        s.stack_block = s.stack_block.saturating_add(stack_block);
                        s.stack_plain = s.stack_plain.saturating_add(stack_plain);
                    }
                    None
                }
                _ => None,
            };
            if let Some(task) = closed {
                match stack.pop_if(|s| s.task == task) {
                    Some(mut s) => {
                        s.end = ev.t;
                        s.close = pos as u32;
                        segs.push(s);
                    }
                    None => mismatched += 1,
                }
            }
        }
        let unclosed = stacks.iter().map(|s| s.len() as u64).sum::<u64>() + mismatched;
        Segments { segs, unclosed }
    }
}

/// One contiguous run of a task on one worker.
///
/// On the sim backend segments are flat (`depth == 0`) and a task has
/// one segment per fork gap: `[begin..fork]`, `[resume..fork]`, …,
/// `[resume..end]`. On the native backend segments nest: a task stolen
/// during a join-wait executes at `depth + 1` inside the waiting
/// segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Open timestamp.
    pub start: u64,
    /// Close timestamp.
    pub end: u64,
    /// Executing worker.
    pub worker: u32,
    /// Task id (backend-scoped).
    pub task: u32,
    /// Nesting depth at open (0 = top-level).
    pub depth: u32,
    /// Position in [`Trace::events`] of the opening event
    /// ([`EventKind::TaskBegin`] / [`EventKind::JoinResume`]); its `seq`
    /// is `events[open].seq`.
    pub open: u32,
    /// Position in [`Trace::events`] of the closing event
    /// ([`EventKind::Fork`] on sim, or [`EventKind::TaskEnd`]).
    pub close: u32,
    /// Heap block misses charged to this segment. Like the two counts
    /// below it saturates at `u32::MAX` — a per-segment figure for
    /// display; exact totals are the sums over the `MissDelta` events.
    pub heap_block: u32,
    /// Stack block misses charged to this segment.
    pub stack_block: u32,
    /// Stack plain misses charged to this segment.
    pub stack_plain: u32,
    /// Whether the segment was opened by a [`EventKind::JoinResume`].
    pub resumed: bool,
}

const _: () = assert!(std::mem::size_of::<Segment>() <= 56);

impl Segment {
    /// Segment duration in the trace's clock domain.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Result of [`Trace::segments`].
#[derive(Debug, Clone)]
pub struct Segments {
    /// Closed segments, in the order of their closing events
    /// ([`Segment::close`] ascending).
    pub segs: Vec<Segment>,
    /// Opens without a matching close (0 for a complete trace).
    pub unclosed: u64,
}
