//! The backend-agnostic trace event model.
//!
//! Both execution backends — the discrete-event simulator
//! (`hbp-sched`'s `sim`) and the real-threads pool (`native`) — emit the
//! same [`EventKind`]s, so every analysis in this crate (segments,
//! critical path, utilization, Chrome export) is written once against
//! this model. The only difference between backends is the
//! [`ClockDomain`] of the timestamps: simulated virtual units versus
//! wall-clock nanoseconds.

/// What the `t` field of a [`TraceEvent`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Simulated virtual time units (the sim backend). Deterministic;
    /// the trace's critical path equals the simulator's makespan.
    Virtual,
    /// Wall-clock nanoseconds since the pool epoch (the native backend).
    WallNs,
}

/// One structured trace event.
///
/// `seq` is a globally unique sequence number assigned at emission. It
/// is causally consistent: events emitted by the same worker are
/// seq-ordered, and an event that observes another worker's effect
/// (e.g. a steal of a forked task) has a larger `seq` than the event it
/// observed (the synchronization that published the effect also orders
/// the counter updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission sequence number (total order, causally consistent).
    pub seq: u64,
    /// Timestamp in the trace's [`ClockDomain`].
    pub t: u64,
    /// Worker (native) / core (sim) that emitted the event.
    pub worker: u32,
    /// The event payload.
    pub kind: EventKind,
}

/// The event vocabulary shared by both backends.
///
/// Task identifiers are backend-scoped: the simulator uses the recorded
/// computation's node ids; the native pool numbers the root `0` and each
/// forked branch with a fresh id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task segment starts executing on the emitting worker. On the
    /// sim backend this opens a flat segment (one per worker at a time);
    /// on the native backend segments nest (a stolen task executes
    /// inside the join-wait of the enclosing one).
    TaskBegin {
        /// Task id in the backend's scope.
        task: u32,
    },
    /// The task finished on the emitting worker; closes the segment
    /// opened by the matching [`EventKind::TaskBegin`] /
    /// [`EventKind::JoinResume`].
    TaskEnd {
        /// Task id in the backend's scope.
        task: u32,
    },
    /// (sim) The last-finishing child resumes its parent past the join:
    /// opens a new segment for `task` on the emitting worker — the
    /// usurpation edge of Def 4.1 when the worker differs from the
    /// parent's previous executor.
    JoinResume {
        /// The resumed (parent) task.
        task: u32,
    },
    /// A fork: `parent` suspends, `right` is published for stealing.
    /// On the sim backend this closes the parent's segment and `left`
    /// begins immediately on the same worker; on the native backend the
    /// emitting worker simply continues into the left branch inside the
    /// current segment (`left == parent` there).
    Fork {
        /// Forking task.
        parent: u32,
        /// Branch the emitting worker continues with.
        left: u32,
        /// Branch pushed on the deque (the steal candidate).
        right: u32,
    },
    /// The emitting worker (the thief) took `task` from `victim`'s
    /// deque. On the sim backend the matching [`EventKind::TaskBegin`]
    /// follows `steal_cost` units later; on the native backend it
    /// follows immediately.
    StealCommit {
        /// The stolen task.
        task: u32,
        /// The worker it was stolen from.
        victim: u32,
        /// How many tasks this commit claimed: 1 on both backends, since
        /// every steal claims one task. Kept because the pinned trace
        /// digests hash it.
        count: u32,
    },
    /// An unsuccessful steal attempt by the emitting worker: a failed
    /// random probe (RWS / native) or a newly observed failed priority
    /// round (PWS, deduplicated like Cor 4.1's attempt accounting).
    StealFail,
    /// (sim) A fresh §3.3 stack region was attached for `task` — the
    /// root, or a stolen task opening its own region.
    RegionAttach {
        /// Task that owns the new region.
        task: u32,
        /// Region id from the stack allocator.
        region: u32,
    },
    /// Cache misses charged to the segment currently open on the
    /// emitting worker, emitted just before the segment closes. Summing
    /// deltas over a trace reproduces the `ExecReport` counters. Each
    /// count is 32 bits so that the whole payload is 16 bytes; an
    /// emitter with more than `u32::MAX` to report sends several events
    /// (the native counter path) or refuses (the simulator, where one
    /// segment cannot miss that often).
    MissDelta {
        /// Coherence (block) misses on global-heap addresses.
        heap_block: u32,
        /// Coherence (block) misses on execution-stack addresses.
        stack_block: u32,
        /// Plain (cold + capacity) misses on execution-stack addresses.
        stack_plain: u32,
    },
}

// The record layout the sink's rings and `collect` are sized by: a
// 16-byte payload in a 40-byte event (`seq` + `t` + `worker` + payload,
// padded to the `u64`s' alignment).
const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 40);
