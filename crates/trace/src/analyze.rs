//! The one tally of a trace: [`summarize`] walks the events once and
//! the segments once into a [`TraceSummary`] — counts, per-worker
//! utilization, the fork→steal latency histogram and the critical path
//! — which `trace_report` prints and [`diff`](crate::diff()) compares.

use std::collections::{HashMap, HashSet};

use crate::critical::{critical_path_of, CpError, CriticalPath};
use crate::event::{ClockDomain, EventKind};
use crate::trace::Trace;

/// One worker's busy accounting over the traced run.
///
/// Depth-0 segments only: on the native backend a task stolen during a
/// join-wait nests *inside* the waiting segment, so counting every
/// depth would double-charge the worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerUtil {
    /// Time spent inside top-level (depth-0) segments.
    pub busy: u64,
    /// `busy / makespan` (0 when the trace is empty).
    pub utilization: f64,
}

/// A log₂ histogram: `counts[i]` holds values in `[2^(i-1), 2^i)`
/// (bucket 0 holds the value 0).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts (see type docs for the bucket bounds).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Record one value.
    fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Inclusive-exclusive bounds `[lo, hi)` of bucket `i`.
    fn bounds(&self, i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// Total recorded values.
    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Render as `[lo,hi) count` pairs, skipping empty buckets.
    pub fn render(&self, unit: &str) -> String {
        if self.total() == 0 {
            return "(empty)".into();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = self.bounds(i);
                format!("[{lo},{hi}){unit}:{c}")
            })
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// The paper-style breakdown of one traced run: where the time went,
/// and the structural tallies [`diff`](crate::diff()) compares.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Clock domain of every time quantity below.
    pub clock: ClockDomain,
    /// Workers the sink was sized for.
    pub workers: usize,
    /// Largest timestamp (end of the traced run).
    pub makespan: u64,
    /// Total top-level busy time across workers (work incl. miss stalls).
    pub busy_total: u64,
    /// Distinct task ids with a `TaskBegin`.
    pub tasks: u64,
    /// `Fork` events.
    pub forks: u64,
    /// `TaskBegin` events.
    pub begins: u64,
    /// `TaskEnd` events.
    pub ends: u64,
    /// Closed execution segments.
    pub segments: u64,
    /// Committed steals (`StealCommit` events; each moved one task).
    pub steals: u64,
    /// Failed steal attempts (probes / newly-failed rounds).
    pub steal_fails: u64,
    /// Summed miss deltas: (heap block, stack block, stack plain). Sim
    /// traces carry model-predicted misses here; native traces carry no
    /// miss deltas, so theirs are zeros.
    pub misses: (u64, u64, u64),
    /// Events the sink's rings could not hold (see [`Trace::dropped`]).
    /// Nonzero means every analysis above ran on a truncated record —
    /// `trace_report` prints it and then exits 2.
    pub dropped: u64,
    /// Per-worker utilization.
    pub workers_util: Vec<WorkerUtil>,
    /// Fork→steal latencies: for every stolen task, the time from the
    /// fork that published it to the thief's `StealCommit` — how long
    /// work sat stealable before anyone took it. Both clock domains.
    pub steal_latency: Histogram,
    /// Critical path, or why there is none: only complete sim traces
    /// have one.
    pub critical: Result<CriticalPath, CpError>,
}

impl TraceSummary {
    /// Whether the trace on its own is a complete record: every begun
    /// task ended and no events were lost to ring overflow. This is the
    /// per-side check the cross-backend `trace_diff` mode falls back to
    /// when the two sides' task-id spaces don't align (sim node ids vs
    /// native fork ordinals).
    pub fn complete(&self) -> bool {
        self.begins == self.ends && self.dropped == 0
    }
}

/// Compute the [`TraceSummary`] of a trace: one pass over the events,
/// one segment reconstruction shared by utilization and the critical
/// path.
pub fn summarize(trace: &Trace) -> TraceSummary {
    let segments = trace.segments();
    let makespan = trace.makespan();
    let mut s = TraceSummary {
        clock: trace.clock,
        workers: trace.workers,
        makespan,
        busy_total: 0,
        tasks: 0,
        forks: 0,
        begins: 0,
        ends: 0,
        segments: segments.segs.len() as u64,
        steals: 0,
        steal_fails: 0,
        misses: (0, 0, 0),
        dropped: trace.dropped,
        workers_util: Vec::new(),
        steal_latency: Histogram::default(),
        critical: critical_path_of(trace, &segments),
    };
    let mut begun: HashSet<u32> = HashSet::new();
    let mut fork_t: HashMap<u32, u64> = HashMap::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::TaskBegin { task } => {
                begun.insert(task);
                s.begins += 1;
            }
            EventKind::TaskEnd { .. } => s.ends += 1,
            EventKind::Fork { right, .. } => {
                s.forks += 1;
                fork_t.insert(right, ev.t);
            }
            EventKind::StealCommit { task, .. } => {
                s.steals += 1;
                if let Some(&ft) = fork_t.get(&task) {
                    s.steal_latency.record(ev.t.saturating_sub(ft));
                }
            }
            EventKind::StealFail => s.steal_fails += 1,
            EventKind::MissDelta {
                heap_block,
                stack_block,
                stack_plain,
            } => {
                s.misses.0 += u64::from(heap_block);
                s.misses.1 += u64::from(stack_block);
                s.misses.2 += u64::from(stack_plain);
            }
            _ => {}
        }
    }
    s.tasks = begun.len() as u64;
    let mut busy = vec![0u64; trace.workers];
    for seg in segments.segs.iter().filter(|seg| seg.depth == 0) {
        busy[seg.worker as usize] += seg.duration();
    }
    s.busy_total = busy.iter().sum();
    s.workers_util = busy
        .into_iter()
        .map(|b| WorkerUtil {
            busy: b,
            utilization: if makespan == 0 {
                0.0
            } else {
                b as f64 / makespan as f64
            },
        })
        .collect();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::tests::steal_trace;

    #[test]
    fn a_complete_sim_trace_has_a_critical_path() {
        let s = summarize(&steal_trace(1));
        assert!(s.complete());
        assert_eq!((s.tasks, s.forks, s.begins, s.ends), (3, 1, 3, 3));
        assert_eq!(s.critical.map(|cp| cp.total), Ok(7));
        assert_eq!(s.steal_latency.total(), 1, "one stolen task");
    }

    #[test]
    fn a_truncated_trace_has_no_critical_path_and_is_incomplete() {
        let mut t = steal_trace(1);
        t.dropped = 5;
        let s = summarize(&t);
        assert_eq!(s.critical, Err(CpError::Truncated));
        assert!(!s.complete());
    }

    #[test]
    fn a_wall_clock_trace_has_no_critical_path() {
        let mut t = steal_trace(1);
        t.clock = ClockDomain::WallNs;
        let s = summarize(&t);
        assert_eq!(s.critical, Err(CpError::WallClockTrace));
        assert!(s.complete());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.total(), 9);
        assert_eq!(h.counts[0], 1); // the zero
        assert_eq!(h.counts[1], 2); // [1,2)
        assert_eq!(h.counts[2], 2); // [2,4): 2, 3
        assert_eq!(h.counts[3], 2); // [4,8): 4, 7
        assert_eq!(h.counts[4], 1); // [8,16)
        assert_eq!(h.bounds(11), (1024, 2048));
        assert_eq!(h.counts[11], 1);
        assert!(h.render("u").contains("[4,8)u:2"));
    }
}
