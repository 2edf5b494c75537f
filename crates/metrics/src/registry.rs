//! The registry: one [`WorkerShard`] per worker slot plus a small set of
//! process-wide serve/session cells, all behind a single `enabled` flag.
//!
//! Worker shards are written once per job, not once per event: the
//! native pool's driver folds each worker's tally deltas in at the job's
//! quiesce point, and the simulator session folds its finished report.
//! The process cells are written at job and admission boundaries.

use crate::cells::{Counter, Gauge, HistSnapshot, LogHistogram};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Number of worker shards. Worker `w` publishes into shard `w % SHARDS`;
/// with the pool capped well below this, the mapping is the identity in
/// practice, and the fold keeps the registry allocation-free and lock-free
/// even for oversubscribed configurations.
pub const SHARDS: usize = 64;

/// Per-worker metric cells: running totals of what the worker's per-job
/// deltas reported.
#[derive(Debug, Default)]
pub struct WorkerShard {
    /// Tasks this worker ran to completion.
    pub tasks_executed: Counter,
    /// Steal attempts that claimed a task.
    pub steals_committed: Counter,
    /// Steal attempts that found every probed deque empty or lost a race.
    pub steals_failed: Counter,
    /// Transitions into the parked (condvar wait) state.
    pub parks: Counter,
}

impl WorkerShard {
    const fn new() -> Self {
        WorkerShard {
            tasks_executed: Counter::new(),
            steals_committed: Counter::new(),
            steals_failed: Counter::new(),
            parks: Counter::new(),
        }
    }

    fn reset(&self) {
        self.tasks_executed.reset();
        self.steals_committed.reset();
        self.steals_failed.reset();
        self.parks.reset();
    }
}

/// The process-wide registry. Obtain the shared instance with [`global`];
/// construct private instances only in tests.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    /// One past the highest worker index that has published, so snapshots
    /// and exposition cover exactly the active workers.
    workers_hi: AtomicUsize,
    /// Monotonic snapshot sequence number.
    seq: AtomicU64,
    shards: [WorkerShard; SHARDS],
    /// Jobs admitted to an executor (serve layer or session API).
    pub jobs_submitted: Counter,
    /// Jobs that ran to completion.
    pub jobs_completed: Counter,
    /// Jobs bounced by the admission queue with a hard rejection (no
    /// retry hint, or the client exhausted its retries).
    pub admission_rejected: Counter,
    /// Submissions deferred with a retry-after hint — each attempt a
    /// cooperative client paces out counts once here, so
    /// `deferred / rejected` measures how much of the backpressure was
    /// absorbed cooperatively instead of dropped.
    pub admission_deferred: Counter,
    /// End-to-end job latency in nanoseconds (sim: virtual ns).
    pub job_latency_ns: LogHistogram,
    /// Bytes currently reserved by the native pool's task arena.
    pub arena_bytes: Gauge,
    /// Jobs accepted but not yet started (the pool driver's backlog).
    pub pool_backlog: Gauge,
    /// High-water mark of `pool_backlog`.
    pub pool_backlog_peak: Gauge,
    /// Peak worker participation of the most recently completed job
    /// (driver included): how many of the pool's fixed workers woke in
    /// time to take part, at most the worker count.
    pub workers_active: Gauge,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub const fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            workers_hi: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            shards: [const { WorkerShard::new() }; SHARDS],
            jobs_submitted: Counter::new(),
            jobs_completed: Counter::new(),
            admission_rejected: Counter::new(),
            admission_deferred: Counter::new(),
            job_latency_ns: LogHistogram::new(),
            arena_bytes: Gauge::new(),
            pool_backlog: Gauge::new(),
            pool_backlog_peak: Gauge::new(),
            workers_active: Gauge::new(),
        }
    }

    /// Is publishing enabled? Every publish site checks this first and
    /// skips all metric work when it is false — the entire disabled-mode
    /// cost is this one relaxed load.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// The shard worker `w` publishes into. Also records `w` as active so
    /// snapshots include it.
    #[inline]
    pub fn shard(&self, w: usize) -> &WorkerShard {
        self.workers_hi.fetch_max((w % SHARDS) + 1, Relaxed);
        &self.shards[w % SHARDS]
    }

    fn workers(&self) -> usize {
        self.workers_hi.load(Relaxed)
    }

    /// Zero every cell and the active-worker watermark. Not synchronized
    /// against concurrent writers: call only from quiesced windows (between
    /// jobs, test setup).
    pub fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
        self.workers_hi.store(0, Relaxed);
        self.seq.store(0, Relaxed);
        self.jobs_submitted.reset();
        self.jobs_completed.reset();
        self.admission_rejected.reset();
        self.admission_deferred.reset();
        self.job_latency_ns.reset();
        self.arena_bytes.set(0);
        self.pool_backlog.set(0);
        self.pool_backlog_peak.set(0);
        self.workers_active.set(0);
    }

    /// Take a point-in-time copy of every cell. Each value is individually
    /// consistent; the set is not an atomic cut (it never needs to be).
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.seq.fetch_add(1, Relaxed);
        let hi = self.workers();
        let workers = (0..hi)
            .map(|w| {
                let s = &self.shards[w];
                WorkerSnap {
                    worker: w,
                    tasks_executed: s.tasks_executed.get(),
                    steals_committed: s.steals_committed.get(),
                    steals_failed: s.steals_failed.get(),
                    parks: s.parks.get(),
                }
            })
            .collect();
        Snapshot {
            seq,
            workers,
            jobs_submitted: self.jobs_submitted.get(),
            jobs_completed: self.jobs_completed.get(),
            admission_rejected: self.admission_rejected.get(),
            admission_deferred: self.admission_deferred.get(),
            job_latency_ns: self.job_latency_ns.snapshot(),
            arena_bytes: self.arena_bytes.get(),
            pool_backlog: self.pool_backlog.get(),
            pool_backlog_peak: self.pool_backlog_peak.get(),
            workers_active: self.workers_active.get(),
        }
    }
}

/// A copy of one worker shard inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnap {
    pub worker: usize,
    pub tasks_executed: u64,
    pub steals_committed: u64,
    pub steals_failed: u64,
    pub parks: u64,
}

/// A full point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic sequence number stamped by the registry.
    pub seq: u64,
    pub workers: Vec<WorkerSnap>,
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub admission_rejected: u64,
    pub admission_deferred: u64,
    pub job_latency_ns: HistSnapshot,
    pub arena_bytes: i64,
    pub pool_backlog: i64,
    pub pool_backlog_peak: i64,
    pub workers_active: i64,
}

impl Snapshot {
    /// Sum of tasks executed across workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_executed).sum()
    }

    /// (committed, failed) steal attempts across workers.
    pub fn total_steals(&self) -> (u64, u64) {
        self.workers.iter().fold((0, 0), |(c, f), w| {
            (c + w.steals_committed, f + w.steals_failed)
        })
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry. Publishing starts disabled; whoever reads
/// it turns it on with [`Registry::set_enabled`] (`hbp metrics_report`
/// does so itself, as do tests and the benchmark). No environment
/// variable switches it.
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_resettable() {
        let r = Registry::new();
        assert!(!r.on());
        r.set_enabled(true);
        r.shard(2).tasks_executed.inc();
        r.shard(0).steals_committed.add(3);
        assert_eq!(r.workers(), 3);
        let s = r.snapshot();
        assert_eq!(s.workers.len(), 3);
        assert_eq!(s.total_tasks(), 1);
        assert_eq!(s.total_steals(), (3, 0));
        r.reset();
        assert_eq!(r.workers(), 0);
        assert_eq!(r.snapshot().total_tasks(), 0);
    }

    #[test]
    fn shard_folding_wraps() {
        let r = Registry::new();
        r.shard(SHARDS + 1).tasks_executed.inc();
        // Folded into shard 1, watermark reflects the folded index.
        assert_eq!(r.snapshot().workers[1].tasks_executed, 1);
        assert_eq!(r.workers(), 2);
    }

    #[test]
    fn snapshot_seq_monotone() {
        let r = Registry::new();
        let a = r.snapshot();
        let b = r.snapshot();
        assert!(b.seq > a.seq);
    }
}
