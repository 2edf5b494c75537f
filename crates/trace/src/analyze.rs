//! Trace analyses beyond the critical path: per-worker utilization,
//! steal-latency histograms, and the paper-style summary the
//! `trace_report` binary prints.

use std::collections::{HashMap, HashSet};

use crate::critical::{critical_path_of, CriticalPath};
use crate::event::{ClockDomain, EventKind};
use crate::trace::{Segments, Trace};

/// One worker's busy accounting over the traced run.
#[derive(Debug, Clone, Copy)]
pub struct WorkerUtil {
    /// Time spent inside top-level (depth-0) segments.
    pub busy: u64,
    /// `busy / makespan` (0 when the trace is empty).
    pub utilization: f64,
}

/// Per-worker top-level busy time and utilization.
///
/// Depth-0 segments only: on the native backend a task stolen during a
/// join-wait nests *inside* the waiting segment, so counting every
/// depth would double-charge the worker.
pub fn utilization(trace: &Trace) -> Vec<WorkerUtil> {
    utilization_of(trace, &trace.segments())
}

/// [`utilization`] over an already-reconstructed segment set (one
/// O(events) reconstruction shared across analyses — see [`summarize`]).
pub fn utilization_of(trace: &Trace, segments: &Segments) -> Vec<WorkerUtil> {
    let makespan = trace.makespan();
    let mut busy = vec![0u64; trace.workers];
    for s in &segments.segs {
        if s.depth == 0 {
            busy[s.worker as usize] += s.duration();
        }
    }
    busy.into_iter()
        .map(|b| WorkerUtil {
            busy: b,
            utilization: if makespan == 0 {
                0.0
            } else {
                b as f64 / makespan as f64
            },
        })
        .collect()
}

/// A log₂ histogram: `counts[i]` holds values in `[2^(i-1), 2^i)`
/// (bucket 0 holds the value 0).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Bucket counts (see type docs for the bucket bounds).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
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
    pub fn bounds(&self, i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
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

/// Steal latencies: for every stolen task, the time from the fork that
/// published it to the thief's `StealCommit` — how long work sat
/// stealable before anyone took it. Works in both clock domains.
pub fn steal_latency_histogram(trace: &Trace) -> Histogram {
    let mut fork_t: HashMap<u32, u64> = HashMap::new();
    let mut h = Histogram::default();
    for ev in &trace.events {
        match ev.kind {
            EventKind::Fork { right, .. } => {
                fork_t.insert(right, ev.t);
            }
            EventKind::StealCommit { task, .. } => {
                if let Some(&ft) = fork_t.get(&task) {
                    h.record(ev.t.saturating_sub(ft));
                }
            }
            _ => {}
        }
    }
    h
}

/// The paper-style breakdown of one traced run: where the time went.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Clock domain of every time quantity below.
    pub clock: ClockDomain,
    /// Workers the sink was sized for.
    pub workers: usize,
    /// Largest timestamp (end of the traced run).
    pub makespan: u64,
    /// Total top-level busy time across workers (work incl. miss stalls).
    pub busy_total: u64,
    /// Distinct task ids observed.
    pub tasks: u64,
    /// Closed execution segments.
    pub segments: u64,
    /// Committed steals (claiming sequences, not tasks: a batched steal
    /// counts once here).
    pub steals: u64,
    /// Tasks moved by committed steals (sum of `StealCommit::count`;
    /// equals `steals` when no steal was batched).
    pub stolen_tasks: u64,
    /// Failed steal attempts (probes / newly-failed rounds).
    pub steal_fails: u64,
    /// Summed miss deltas: (heap block, stack block, stack plain).
    pub misses: (u64, u64, u64),
    /// Events the sink's rings could not hold (see
    /// [`Trace::dropped`](crate::Trace)). Nonzero means every analysis
    /// above ran on a truncated record — `trace_report` prints it and
    /// then exits 2.
    pub dropped: u64,
    /// Per-worker utilization.
    pub workers_util: Vec<WorkerUtil>,
    /// Fork→steal latency histogram.
    pub steal_latency: Histogram,
    /// Critical path (sim traces only; `None` on wall-clock traces or
    /// truncated rings).
    pub critical: Option<CriticalPath>,
}

/// Compute the full [`TraceSummary`] of a trace. The segment
/// reconstruction runs once and is shared by every sub-analysis.
pub fn summarize(trace: &Trace) -> TraceSummary {
    let segments = trace.segments();
    let mut tasks: HashSet<u32> = HashSet::new();
    let (mut steals, mut stolen_tasks, mut fails) = (0u64, 0u64, 0u64);
    let mut misses = (0u64, 0u64, 0u64);
    for ev in &trace.events {
        match ev.kind {
            EventKind::TaskBegin { task }
            | EventKind::TaskEnd { task }
            | EventKind::JoinResume { task } => {
                tasks.insert(task);
            }
            EventKind::StealCommit { count, .. } => {
                steals += 1;
                stolen_tasks += u64::from(count);
            }
            EventKind::StealFail => fails += 1,
            EventKind::MissDelta {
                heap_block,
                stack_block,
                stack_plain,
            } => {
                misses.0 += u64::from(heap_block);
                misses.1 += u64::from(stack_block);
                misses.2 += u64::from(stack_plain);
            }
            _ => {}
        }
    }
    let workers_util = utilization_of(trace, &segments);
    TraceSummary {
        clock: trace.clock,
        workers: trace.workers,
        makespan: trace.makespan(),
        busy_total: workers_util.iter().map(|w| w.busy).sum(),
        tasks: tasks.len() as u64,
        segments: segments.segs.len() as u64,
        steals,
        stolen_tasks,
        steal_fails: fails,
        misses,
        dropped: trace.dropped,
        workers_util,
        steal_latency: steal_latency_histogram(trace),
        critical: critical_path_of(trace, &segments).ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
