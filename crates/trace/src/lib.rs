//! # hbp-trace — structured event tracing for both execution backends
//!
//! The paper's results are statements about *where time goes*: block
//! (false-sharing) misses, steal delays, and the critical path under
//! PWS/RWS. Aggregate counters (the `ExecReport`) say *how much*;
//! this crate records *when and on which worker*, for the simulator's
//! virtual time and the native pool's wall clock alike, and turns the
//! recording into analyses:
//!
//! * [`event`] — the backend-agnostic model: task begin/end, fork,
//!   join-resume, steal commit/fail, stack-region attach, cache-miss
//!   deltas, each stamped with a [`ClockDomain`] timestamp and a
//!   causally consistent sequence number. A record is **40 bytes**:
//!   `seq` and `t` (`u64`), `worker` (`u32`) and a 16-byte payload —
//!   a tag and at most three `u32`s, which is why a `MissDelta` count
//!   is 32-bit (the simulator, its one emitter, refuses a segment that
//!   would exceed it);
//! * [`sink`] — [`TraceSink`]: per-worker lock-free-append ring buffers
//!   (one relaxed load + slot write + release store per event; no locks,
//!   no CAS), each on its own cache line, the shared `seq` counter on
//!   another. Enabled and sized by configuration (`hbp_core::Config`
//!   parses `HBP_TRACE`/`HBP_TRACE_BUF`); overflow is reported, never
//!   silent, and fails `trace_report`. `collect` does not sort: the
//!   `seq`s of a complete recording are `0..n`, so each event is copied
//!   straight to `events[seq]`;
//! * [`trace`] — the collected [`Trace`] and its reconstruction into
//!   execution [`Segment`]s (flat per worker on the sim backend, nested
//!   on the native one), 56 bytes each, naming their opening and closing
//!   events by `u32` position in `Trace::events` (segment reconstruction
//!   refuses a trace of 2^32 events or more) and carrying per-segment
//!   miss counts that saturate at `u32::MAX` (totals are summed from the
//!   events, in `u64`);
//! * [`critical`] — [`critical_path`]: exact critical-path extraction
//!   from a sim trace's join DAG, decomposed into work, steal charges,
//!   and deque queue-wait — one in-order pass over the events into two
//!   index tables, then a walk. Its `total` equals the simulator's
//!   virtual-time makespan *exactly* (an invariant the integration
//!   tests enforce for PWS and RWS). It is the reference for the
//!   [`CpTotals`] split the simulator keeps forward as it runs, which is
//!   how a caller that needs only the four totals gets them untraced;
//! * [`analyze`] — [`summarize`], the one tally of a trace: a single
//!   pass over the events and one segment reconstruction give the
//!   paper-style [`TraceSummary`] (task, fork, steal and miss counts,
//!   per-worker utilization, the fork→steal latency histogram and the
//!   critical path, or why it is missing) that `trace_report` prints;
//! * [`diff`](mod@diff) — [`diff()`] summarizes two traces of the same
//!   kernel, aligns them by task id, and reports where their critical
//!   paths diverge; `hbp trace_diff` prints it;
//! * [`chrome`] — Chrome-trace JSON export ([`chrome_trace`] /
//!   [`chrome_trace_multi`]) viewable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>;
//! * [`json`] — a minimal JSON reader used to validate exports and to
//!   read reports and benchmark result lines back.
//!
//! The crate is dependency-free and backend-agnostic: `hbp-sched`
//! pushes events from the sim event loop and the native workers;
//! `hbp-core` attaches a per-job sink with `ExecSession::submit_traced`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod analyze;
pub mod chrome;
pub mod critical;
pub mod diff;
pub mod event;
pub mod json;
pub mod sink;
pub mod trace;

pub use analyze::{summarize, Histogram, TraceSummary};
pub use chrome::{chrome_trace, chrome_trace_multi};
pub use critical::{critical_path, CpError, CpHop, CpTotals, CriticalPath, HopVia};
pub use diff::{diff, CpDivergence, TraceDiff};
pub use event::{ClockDomain, EventKind, TraceEvent};
pub use sink::{TraceSink, DEFAULT_CAPACITY};
pub use trace::{Segment, Segments, Trace};
