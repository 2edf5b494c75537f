//! The session model: every job runs through an [`ExecSession`].
//!
//! A session splits *backend lifetime* from *job execution*, so a server
//! pays for a pool once, not per request:
//!
//! ```text
//! Config::open(machine) ─→ ExecSession ─ submit(job) ─→ ExecHandle ─ wait() ─→ ExecReport
//! (or Executor::open())        │                          (one per job,
//!                              └ native: one NativePool    delivered exactly once)
//!                                spawned once, parked
//!                                between jobs
//! ```
//!
//! Both backends share the API; a job resolves its registry row with
//! [`find`] and the backend reads the column it needs:
//!
//! * **native** — the session owns one
//!   [`NativePool`]: workers spawn when
//!   the session opens, successive submissions queue onto it, idle
//!   workers park between jobs, and the pool shuts down when the
//!   session drops. The row's `native` column builds the input on the
//!   *submitting* thread (outside the timed region), so the report's
//!   makespan covers the kernel alone;
//! * **sim** — the row's `build` column records the computation and the
//!   simulator replays it synchronously at [`ExecSession::submit`] on
//!   the calling thread (the simulator is single-threaded and
//!   deterministic; an async queue would add nondeterminism for no
//!   benefit), so the handle is born resolved. Same seed ⇒ bit-identical
//!   reports, which is what makes serve scenarios CI-able.
//!
//! Per-request tracing goes through the same path:
//! [`ExecSession::submit_traced`] attaches a per-job
//! [`TraceSink`], so a server can trace one request without tracing
//! unrelated ones. A caller that wants only a sim job's critical-path
//! split asks [`ExecSession::run_with_critical_path`], which the engine
//! keeps as it runs, with no trace recorded.
//! [`Executor::execute`](crate::Executor::execute) is a one-job session.

use std::sync::Arc;

use hbp_model::{BuildConfig, Computation};
use hbp_sched::native::{NativeConfig, NativePool, PoolHandle, SubmitError};
use hbp_sched::{run, run_traced, run_with_critical_path, ExecReport};
use hbp_trace::{ClockDomain, CpTotals, TraceSink};

use crate::executor::{ExecJob, SimExecutor};
use crate::registry::find;

/// Why a submitted job produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The backend has no kernel for the algorithm (e.g. layout
    /// conversions on the native backend, or a name the registry does
    /// not know).
    Unmapped {
        /// The algorithm name as submitted.
        algo: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Unmapped { algo } => {
                write!(f, "backend has no kernel for algorithm {algo:?}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A long-lived submission session over one backend — obtained from
/// [`Config::open`](crate::Config::open) or
/// [`Executor::open`](crate::Executor::open), dropped to release the
/// backend (on native, this shuts the pool down and joins its workers).
pub struct ExecSession {
    inner: Inner,
}

enum Inner {
    /// Sim jobs run at submit time; machine and policy are all the state.
    Sim(SimExecutor),
    /// Native jobs queue onto one persistent pool.
    Native { pool: NativePool },
}

impl ExecSession {
    pub(crate) fn sim(ex: SimExecutor) -> Self {
        Self {
            inner: Inner::Sim(ex),
        }
    }

    pub(crate) fn native(cfg: NativeConfig) -> Self {
        Self {
            inner: Inner::Native {
                pool: NativePool::new(cfg),
            },
        }
    }

    /// Short backend name (`"sim"` / `"native"`).
    pub fn backend(&self) -> &'static str {
        match &self.inner {
            Inner::Sim(_) => "sim",
            Inner::Native { .. } => "native",
        }
    }

    /// Workers a per-job [`TraceSink`] must be sized for.
    pub fn workers(&self) -> usize {
        match &self.inner {
            Inner::Sim(ex) => ex.machine.p,
            Inner::Native { pool } => pool.workers(),
        }
    }

    /// The clock domain of this session's traces.
    pub fn clock_domain(&self) -> ClockDomain {
        match &self.inner {
            Inner::Sim(_) => ClockDomain::Virtual,
            Inner::Native { .. } => ClockDomain::WallNs,
        }
    }

    /// Submit `job`. `Ok` carries the handle that resolves to the job's
    /// [`ExecReport`] (or to [`JobError::Unmapped`] when the backend has
    /// no kernel for the algorithm); `Err` is an admission refusal —
    /// the sim backend admits everything deterministically, the native
    /// backend refuses after shutdown ([`SubmitError::ShutDown`]) or,
    /// behind a bounded admission layer, with a pacing hint
    /// ([`SubmitError::RetryAfter`]).
    pub fn submit(&self, job: &ExecJob) -> Result<ExecHandle, SubmitError> {
        self.submit_inner(job, None)
    }

    /// [`ExecSession::submit`] with a per-job trace sink (sized for
    /// [`ExecSession::workers`] in [`ExecSession::clock_domain`]); the
    /// sink records exactly this job's events — collect it after the
    /// handle resolves.
    pub fn submit_traced(
        &self,
        job: &ExecJob,
        trace: &Arc<TraceSink>,
    ) -> Result<ExecHandle, SubmitError> {
        self.submit_inner(job, Some(Arc::clone(trace)))
    }

    /// Run `job` on the simulator and return its report with the split
    /// of its critical path: the totals `hbp_trace::critical_path` would
    /// extract from a trace of the run, kept by the engine as it goes
    /// ([`run_with_critical_path`]), so nothing is recorded. The report
    /// is the one [`ExecSession::submit`] delivers and is folded into
    /// the metrics registry the same way.
    ///
    /// # Panics
    ///
    /// On the native backend: a wall-clock run has no exact critical
    /// path.
    pub fn run_with_critical_path(
        &self,
        job: &ExecJob,
    ) -> Result<(ExecReport, CpTotals), JobError> {
        let Inner::Sim(ex) = &self.inner else {
            panic!("critical-path splits are exact on the sim backend only");
        };
        run_sim(ex, job, |comp| {
            run_with_critical_path(comp, ex.machine, ex.policy)
        })
    }

    fn submit_inner(
        &self,
        job: &ExecJob,
        trace: Option<Arc<TraceSink>>,
    ) -> Result<ExecHandle, SubmitError> {
        let inner = match &self.inner {
            Inner::Sim(ex) => HandleInner::Ready(
                run_sim(ex, job, |comp| {
                    let r = match &trace {
                        Some(tr) => run_traced(comp, ex.machine, ex.policy, tr),
                        None => run(comp, ex.machine, ex.policy),
                    };
                    (r, ())
                })
                .map(|(r, ())| Box::new(r)),
            ),
            Inner::Native { pool } => match find(&job.algo).and_then(|spec| spec.native) {
                Some(kernel) => {
                    HandleInner::Pool(pool.submit_traced(trace, kernel(job.n, job.seed))?)
                }
                None => HandleInner::Ready(Err(unmapped(job))),
            },
        };
        Ok(ExecHandle { inner })
    }
}

fn unmapped(job: &ExecJob) -> JobError {
    JobError::Unmapped {
        algo: job.algo.clone(),
    }
}

/// Record `job`'s computation for `ex`'s machine, replay it with
/// `replay`, and fold the report into the metrics registry — the one sim
/// path every submission and split takes.
fn run_sim<T>(
    ex: &SimExecutor,
    job: &ExecJob,
    replay: impl FnOnce(&Computation) -> (ExecReport, T),
) -> Result<(ExecReport, T), JobError> {
    let spec = find(&job.algo).ok_or_else(|| unmapped(job))?;
    let block = BuildConfig::with_block(ex.machine.block_words);
    let comp = (spec.build)(job.n, block, job.seed);
    let (r, extra) = replay(&comp);
    publish_sim_metrics(comp.n_nodes() as u64, &r);
    Ok((r, extra))
}

/// Fold one finished sim run into the global metrics registry.
///
/// The simulator's event loop has no live per-worker publish points (it
/// is single-threaded and deterministic — instrumenting the loop would
/// buy nothing), so the session folds the *report* in after the fact:
/// task/steal tallies land on worker shard 0, job latency is the
/// virtual-time makespan. Every quantity derives from the deterministic
/// report, so under a fixed seed two runs publish identical snapshots —
/// the property the registry-determinism test and the serve scenario
/// byte-comparison rely on.
fn publish_sim_metrics(nodes: u64, r: &ExecReport) {
    let m = hbp_metrics::global();
    if !m.on() {
        return;
    }
    m.jobs_submitted.inc();
    m.jobs_completed.inc();
    m.job_latency_ns.observe(r.makespan);
    let s0 = m.shard(0);
    s0.tasks_executed.add(nodes);
    s0.steals_committed.add(r.steals);
    s0.steals_failed
        .add(r.steal_attempts.saturating_sub(r.steals));
}

/// The waitable result of one [`ExecSession::submit`]. Consuming it is
/// the only way to observe the job's report, so each report is
/// delivered exactly once.
pub struct ExecHandle {
    inner: HandleInner,
}

enum HandleInner {
    /// Resolved at submit time (sim, or an algorithm with no kernel on
    /// this backend). Boxed: an `ExecReport` is an order of magnitude
    /// larger than the pool handle.
    Ready(Result<Box<ExecReport>, JobError>),
    /// Pending on the native pool.
    Pool(PoolHandle<()>),
}

impl ExecHandle {
    /// Block until the job completed;
    /// [`JobError::Unmapped`] when the backend had no kernel for the
    /// algorithm. A kernel panic is re-raised here, naming the worker
    /// that caught it.
    pub fn wait(self) -> Result<ExecReport, JobError> {
        match self.inner {
            HandleInner::Ready(r) => r.map(|b| *b),
            HandleInner::Pool(h) => Ok(h.wait().1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, NativeExecutor};
    use hbp_machine::MachineConfig;
    use hbp_sched::Policy;

    #[test]
    fn sim_session_matches_a_direct_run_of_the_row() {
        let machine = MachineConfig::new(4, 1 << 10, 32);
        let session = ExecSession::sim(SimExecutor {
            machine,
            policy: Policy::Pws,
        });
        assert_eq!(session.backend(), "sim");
        let via_session = session
            .submit(&ExecJob::new("Scans (M-Sum)", 512, 7))
            .unwrap()
            .wait()
            .unwrap();
        let spec = find("Scans (M-Sum)").unwrap();
        let comp = (spec.build)(512, BuildConfig::with_block(32), 7);
        let direct = run(&comp, machine, Policy::Pws);
        assert_eq!(direct.makespan, via_session.makespan);
        assert_eq!(direct.steals, via_session.steals);
        assert_eq!(direct.busy, via_session.busy);
        let (with_split, cp) = session
            .run_with_critical_path(&ExecJob::new("Scans (M-Sum)", 512, 7))
            .unwrap();
        assert_eq!(format!("{with_split:?}"), format!("{direct:?}"));
        assert_eq!(cp.total, direct.makespan);
    }

    #[test]
    fn traced_session_submission_isolates_the_jobs_events() {
        let ex = NativeExecutor::new(2, 9);
        let session = ex.open();
        // An untraced job first; its tasks must not appear in the sink.
        session
            .submit(&ExecJob::new("Scans (M-Sum)", 1 << 12, 1))
            .unwrap()
            .wait()
            .unwrap();
        let sink = Arc::new(TraceSink::new(session.workers(), session.clock_domain()));
        let r = session
            .submit_traced(&ExecJob::new("Scans (M-Sum)", 1 << 12, 2), &sink)
            .unwrap()
            .wait()
            .unwrap();
        let trace = sink.collect();
        let begins = trace.count(|k| matches!(k, hbp_trace::EventKind::TaskBegin { .. }));
        assert_eq!(begins, r.work, "sink holds exactly the traced job's tasks");
        assert_eq!(trace.segments().unclosed, 0);
    }
}
