//! Job descriptions and the two backend descriptors.
//!
//! An [`ExecJob`] names a row of the [`registry`](crate::registry) plus a
//! problem size and seed. A backend is described by one of two plain
//! structs and *opened* into an [`ExecSession`], which is the only thing
//! that runs jobs:
//!
//! * [`SimExecutor`] — the row's recorded computation replayed on the
//!   simulated machine under a [`Policy`]: deterministic, unit-cost
//!   virtual time, full cache/steal accounting;
//! * [`NativeExecutor`] — the row's `native` kernel on real
//!   `std::thread` workers ([`hbp_sched::native::NativePool`]):
//!   wall-clock nanoseconds, per-worker busy/steal counters, no cache
//!   simulation.
//!
//! [`crate::Config::open`] picks between them from `HBP_BACKEND`. The
//! [`Executor`] trait is one required method, `open()`; `execute` /
//! `execute_traced` are provided one-job sessions over it.

use std::sync::Arc;

use hbp_machine::MachineConfig;
use hbp_sched::native::NativeConfig;
use hbp_sched::{ExecReport, Policy};
use hbp_trace::TraceSink;

use crate::session::ExecSession;

/// One schedulable unit of work: a registry algorithm at a problem size.
#[derive(Debug, Clone)]
pub struct ExecJob {
    /// Registry name (prefix match, as in [`crate::find`]).
    pub algo: String,
    /// Problem size, with the registry entry's size semantics
    /// (element count or matrix side).
    pub n: usize,
    /// Input seed (and, for randomized backends, the scheduling seed).
    pub seed: u64,
}

impl ExecJob {
    /// Convenience constructor.
    pub fn new(algo: &str, n: usize, seed: u64) -> Self {
        Self {
            algo: algo.to_string(),
            n,
            seed,
        }
    }
}

/// A backend descriptor that can be opened into an [`ExecSession`].
pub trait Executor {
    /// Open a submission session: on the native backend this spawns one
    /// persistent worker pool that serves every [`ExecSession::submit`]
    /// until the session drops; on the sim backend submissions execute
    /// deterministically at submit time.
    fn open(&self) -> ExecSession;

    /// Run `job` on a one-job session, or `None` when this backend has
    /// no kernel for the algorithm (e.g. layout conversions on native).
    fn execute(&self, job: &ExecJob) -> Option<ExecReport> {
        self.open().submit(job).ok()?.wait().ok()
    }

    /// [`Executor::execute`] recording structured events into `trace`
    /// (sized for [`ExecSession::workers`] in
    /// [`ExecSession::clock_domain`]). Tracing is observational: the
    /// report is the same as an untraced run's (bit-identical on sim).
    fn execute_traced(&self, job: &ExecJob, trace: &Arc<TraceSink>) -> Option<ExecReport> {
        self.open().submit_traced(job, trace).ok()?.wait().ok()
    }
}

/// The simulator backend: records the computation, replays it under a
/// scheduling [`Policy`] on a simulated [`MachineConfig`].
#[derive(Debug, Clone, Copy)]
pub struct SimExecutor {
    /// Simulated machine geometry.
    pub machine: MachineConfig,
    /// Scheduling discipline.
    pub policy: Policy,
}

impl Executor for SimExecutor {
    fn open(&self) -> ExecSession {
        ExecSession::sim(*self)
    }
}

/// The real-threads backend: runs the row's native kernel on a
/// work-stealing pool (input generation is *outside* the timed region).
#[derive(Debug, Clone, Copy)]
pub struct NativeExecutor {
    /// The pool [`Executor::open`] spawns: its worker count, and
    /// `pool.seed`, the victim-selection RNG seed (input seeds come
    /// from the job).
    pub pool: NativeConfig,
}

impl NativeExecutor {
    /// A pool of `workers` threads seeded by `seed`.
    pub fn new(workers: usize, seed: u64) -> Self {
        Self {
            pool: NativeConfig { workers, seed },
        }
    }
}

impl Executor for NativeExecutor {
    fn open(&self) -> ExecSession {
        ExecSession::native(self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shots_return_none_for_jobs_the_backend_cannot_run() {
        let native = NativeExecutor::new(2, 1);
        assert!(native.execute(&ExecJob::new("RM to BI", 16, 1)).is_none());
        assert!(native
            .execute(&ExecJob::new("no such algo", 16, 1))
            .is_none());
        let sim = SimExecutor {
            machine: MachineConfig::new(2, 1 << 10, 32),
            policy: Policy::Pws,
        };
        assert!(sim
            .execute(&ExecJob::new("definitely-missing", 8, 0))
            .is_none());
    }
}
