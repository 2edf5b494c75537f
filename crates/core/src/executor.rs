//! Execution backends: one job description, two ways to run it.
//!
//! An [`ExecJob`] names an algorithm from the [`registry`](crate::registry)
//! plus a problem size and seed. An [`Executor`] turns it into an
//! [`ExecReport`]:
//!
//! * [`SimExecutor`] builds the recorded computation and replays it on the
//!   simulated machine under a [`Policy`] — deterministic, unit-cost
//!   virtual time, full cache/steal accounting;
//! * [`NativeExecutor`] runs the corresponding `hbp_algos::par_*` kernel
//!   on real `std::thread` workers via
//!   [`hbp_sched::native::NativePool`] — wall-clock nanoseconds,
//!   per-worker busy/steal counters, no cache simulation.
//!
//! The backend is usually chosen by the `HBP_BACKEND` environment
//! variable (`sim`, the default, or `native`) through
//! [`crate::Config::from_env`] and [`crate::Config::executor`].
//!
//! ## Tracing
//!
//! Every executor can record a structured event trace (`hbp-trace`):
//! [`Executor::execute_traced`] takes a [`TraceSink`] sized via
//! [`Executor::workers`] in the backend's [`Executor::clock_domain`];
//! [`crate::Config::sink`] builds one when `HBP_TRACE=1` is set.

use std::sync::Arc;

use hbp_algos::{gen, par};
use hbp_machine::MachineConfig;
use hbp_model::{BuildConfig, Cx};
use hbp_sched::native::NativeConfig;
use hbp_sched::{run, run_traced, ExecReport, Policy};
use hbp_trace::{ClockDomain, TraceSink};

use crate::registry::{bi_matrix, find, sort_input};

/// Which execution backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator (default).
    Sim,
    /// Real threads with randomized work stealing.
    Native,
}

impl Backend {
    /// Parse an `HBP_BACKEND` value: `None` (unset) or `sim` →
    /// [`Backend::Sim`], `native` → [`Backend::Native`]; anything else
    /// is an error naming the variable, the offending value, and the
    /// accepted ones.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("sim") => Ok(Backend::Sim),
            Some("native") => Ok(Backend::Native),
            Some(other) => Err(format!(
                "HBP_BACKEND must be `sim` or `native`, got {other:?}"
            )),
        }
    }
}

/// Parse an `HBP_WORKERS` value: a positive integer, or `None` (unset)
/// for the [`NativeConfig`] default (one per hardware thread, min 4).
pub fn parse_workers(value: Option<&str>) -> Result<usize, String> {
    match value {
        None | Some("") => Ok(NativeConfig::default().workers),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("HBP_WORKERS must be a positive integer, got {s:?}")),
    }
}

/// One schedulable unit of work: a registry algorithm at a problem size.
#[derive(Debug, Clone)]
pub struct ExecJob {
    /// Registry name (prefix match, as in [`find`]).
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

/// A backend that can execute [`ExecJob`]s into [`ExecReport`]s.
pub trait Executor {
    /// Short backend name for table headers (`"sim"` / `"native"`).
    fn name(&self) -> &'static str;

    /// Workers a [`TraceSink`] for this backend must be sized for
    /// (simulated cores / pool threads).
    fn workers(&self) -> usize;

    /// The clock domain this backend's traces are stamped in.
    fn clock_domain(&self) -> ClockDomain;

    /// Execute `job`, or `None` when this backend has no implementation
    /// for the algorithm (e.g. layout conversions have no native kernel).
    fn execute(&self, job: &ExecJob) -> Option<ExecReport>;

    /// Like [`Executor::execute`], recording structured events into
    /// `trace` (sized for [`Executor::workers`] in
    /// [`Executor::clock_domain`]). Tracing is observational: the report
    /// is the same as an untraced run's (bit-identical on the sim
    /// backend).
    fn execute_traced(&self, job: &ExecJob, trace: &Arc<TraceSink>) -> Option<ExecReport>;

    /// Open a submission session: on the native backend this spawns one
    /// persistent worker pool that serves every
    /// [`ExecSession::submit`](crate::session::ExecSession::submit)
    /// until the session drops; on the sim backend submissions execute
    /// deterministically at submit time. [`Executor::execute`] is the
    /// one-shot convenience over this.
    fn open(&self) -> crate::session::ExecSession;
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

impl SimExecutor {
    fn build(&self, job: &ExecJob) -> Option<hbp_model::Computation> {
        let spec = find(&job.algo)?;
        Some((spec.build)(
            job.n,
            BuildConfig::with_block(self.machine.block_words),
            job.seed,
        ))
    }
}

/// Fold one finished sim run into the global metrics registry.
///
/// The simulator's event loop has no live per-worker publish points (it
/// is single-threaded and deterministic — instrumenting the loop would
/// buy nothing), so the executor folds the *report* in after the fact:
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
    // The simulated machine is one cache domain: every steal is local.
    s0.steals_local.add(r.steals);
    s0.steals_failed
        .add(r.steal_attempts.saturating_sub(r.steals));
    // Sim steals move exactly one task per claiming sequence.
    s0.steal_batch.observe_n(1, r.steals);
}

impl Executor for SimExecutor {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn workers(&self) -> usize {
        self.machine.p
    }

    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::Virtual
    }

    fn execute(&self, job: &ExecJob) -> Option<ExecReport> {
        let comp = self.build(job)?;
        let r = run(&comp, self.machine, self.policy);
        publish_sim_metrics(comp.n_nodes() as u64, &r);
        Some(r)
    }

    fn execute_traced(&self, job: &ExecJob, trace: &Arc<TraceSink>) -> Option<ExecReport> {
        let comp = self.build(job)?;
        let r = run_traced(&comp, self.machine, self.policy, trace);
        publish_sim_metrics(comp.n_nodes() as u64, &r);
        Some(r)
    }

    fn open(&self) -> crate::session::ExecSession {
        crate::session::ExecSession::sim(*self)
    }
}

/// The real-threads backend: runs the algorithm's `par_*` kernel on a
/// native work-stealing pool (input generation is *outside* the timed
/// region).
#[derive(Debug, Clone, Copy)]
pub struct NativeExecutor {
    /// The pool this executor spawns — worker count, stealing
    /// discipline, domains, autoscale band. `pool.seed` is the
    /// victim-selection RNG seed (input seeds come from the job).
    pub pool: NativeConfig,
}

impl NativeExecutor {
    /// A pool of `workers` threads at the [`NativeConfig`] defaults
    /// (randomized stealing).
    pub fn new(workers: usize, seed: u64) -> Self {
        Self {
            pool: NativeConfig {
                workers,
                seed,
                ..NativeConfig::default()
            },
        }
    }

    /// The native slice of a [`crate::Config`]
    /// ([`crate::Config::native_config`]), with `seed` feeding the
    /// victim-selection RNG streams.
    pub fn from_config(cfg: &crate::Config, seed: u64) -> Self {
        Self {
            pool: cfg.native_config(seed),
        }
    }

    /// `None` when `job` names no native kernel — asked before
    /// [`Executor::open`], so the figure binaries that skip unmapped
    /// registry rows do not spawn and join a pool per skipped row.
    fn mapped(job: &ExecJob) -> Option<()> {
        find(&job.algo)
            .filter(|spec| has_native_kernel(spec.name))
            .map(|_| ())
    }
}

/// The native kernel table, keyed by the registry's *canonical* names:
/// build the job's input (outside the timed region — buffers are moved
/// into the returned closure) and wrap the matching `hbp_algos::par_*`
/// kernel as a submittable root closure. `None` for rows with no native
/// kernel (e.g. layout conversions).
///
/// Shared by [`crate::session::ExecSession`] (which
/// [`NativeExecutor::execute`] is a one-job session over) and the
/// `hbp-serve` job server (which batches several small kernels into one
/// launch), so they can never drift apart on which algorithms the
/// native backend serves.
pub fn native_kernel(
    name: &str,
    n: usize,
    seed: u64,
) -> Option<Box<dyn FnOnce() + Send + 'static>> {
    Some(match name {
        "Scans (M-Sum)" => {
            let a = gen::random_u64s(n, 1 << 30, seed);
            Box::new(move || {
                par::par_sum(&a);
            })
        }
        "Scans (PS)" => {
            let a = gen::random_u64s(n, 1 << 30, seed);
            Box::new(move || {
                par::par_prefix(&a);
            })
        }
        "MT" => {
            let mut m = bi_matrix(n, seed);
            Box::new(move || {
                par::par_transpose_bi(&mut m, n);
            })
        }
        "Strassen" => {
            let a = bi_matrix(n, seed);
            let b = bi_matrix(n, seed + 1);
            Box::new(move || {
                par::par_strassen_bi(&a, &b, n);
            })
        }
        "FFT" => {
            let mut x: Vec<Cx> = gen::random_u64s(2 * n, 1 << 20, seed)
                .chunks(2)
                .map(|w| Cx::new(w[0] as f64 / 1e6, w[1] as f64 / 1e6))
                .collect();
            Box::new(move || {
                par::par_fft(&mut x);
            })
        }
        "LR" => {
            let succ = gen::random_list(n, seed);
            Box::new(move || {
                par::par_list_rank(&succ);
            })
        }
        "Sort (SPMS)" => {
            let mut data = sort_input(n, seed);
            Box::new(move || {
                par::par_spms(&mut data);
            })
        }
        "Sort (merge std-in)" => {
            let mut data = sort_input(n, seed);
            Box::new(move || {
                par::par_mergesort(&mut data);
            })
        }
        _ => return None,
    })
}

/// Whether the native backend has a kernel for registry row `name`
/// (canonical name, as [`native_kernel`] expects). Lets callers — e.g.
/// `hbp-serve` scenario validation — fail loudly *before* serving
/// traffic instead of resolving to `None` per request.
pub fn has_native_kernel(name: &str) -> bool {
    // n = 2 builds a trivial input; the closure is dropped unrun.
    native_kernel(name, 2, 0).is_some()
}

impl Executor for NativeExecutor {
    fn name(&self) -> &'static str {
        "native"
    }

    fn workers(&self) -> usize {
        self.pool.workers
    }

    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::WallNs
    }

    fn execute(&self, job: &ExecJob) -> Option<ExecReport> {
        Self::mapped(job)?;
        self.open().submit(job).ok()?.wait().ok()
    }

    fn execute_traced(&self, job: &ExecJob, trace: &Arc<TraceSink>) -> Option<ExecReport> {
        Self::mapped(job)?;
        self.open().submit_traced(job, trace).ok()?.wait().ok()
    }

    fn open(&self) -> crate::session::ExecSession {
        crate::session::ExecSession::native(self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_executor_honours_backend_and_rws_seed() {
        // Robust to an ambient HBP_BACKEND: whatever is (or isn't) set
        // decides which executor we must get back.
        let machine = MachineConfig::new(2, 1 << 10, 32);
        let cfg = crate::Config::from_env().policy(Policy::Rws { seed: 9 });
        let ex = cfg.executor(machine);
        match cfg.backend {
            Backend::Sim => assert_eq!(ex.name(), "sim"),
            Backend::Native => assert_eq!(ex.name(), "native"),
        }
        // Both backends execute a registry job end-to-end.
        let r = ex
            .execute(&ExecJob::new("Scans (M-Sum)", 512, 3))
            .expect("M-Sum runs on every backend");
        assert!(r.makespan > 0);
    }

    #[test]
    fn sim_executor_matches_direct_run() {
        let machine = MachineConfig::new(4, 1 << 10, 32);
        let ex = SimExecutor {
            machine,
            policy: Policy::Pws,
        };
        let job = ExecJob::new("Scans (M-Sum)", 256, 42);
        let r = ex.execute(&job).expect("sim supports every registry row");
        let spec = find("Scans (M-Sum)").unwrap();
        let comp = (spec.build)(256, BuildConfig::with_block(32), 42);
        let direct = run(&comp, machine, Policy::Pws);
        assert_eq!(r.makespan, direct.makespan);
        assert_eq!(r.steals, direct.steals);
    }

    #[test]
    fn native_executor_runs_supported_kernels() {
        let ex = NativeExecutor::new(2, 1);
        for algo in ["Scans (M-Sum)", "FFT", "Sort (SPMS)", "Sort (merge std-in)"] {
            let r = ex
                .execute(&ExecJob::new(algo, 1 << 12, 7))
                .unwrap_or_else(|| panic!("{algo} should have a native kernel"));
            assert!(r.makespan > 0, "{algo}");
            assert!(r.work >= 1, "{algo}");
            assert_eq!(r.p, 2, "{algo}");
        }
    }

    #[test]
    fn native_executor_declines_unmapped_algorithms() {
        let ex = NativeExecutor::new(2, 1);
        assert!(ex.execute(&ExecJob::new("RM to BI", 16, 1)).is_none());
        assert!(ex.execute(&ExecJob::new("no such algo", 16, 1)).is_none());
    }

    #[test]
    fn unknown_algo_is_none_not_panic() {
        let machine = MachineConfig::new(2, 1 << 10, 32);
        let ex = SimExecutor {
            machine,
            policy: Policy::Pws,
        };
        assert!(ex
            .execute(&ExecJob::new("definitely-missing", 8, 0))
            .is_none());
    }

    #[test]
    fn backend_parse_accepts_valid_and_rejects_typos() {
        assert_eq!(Backend::parse(None), Ok(Backend::Sim));
        assert_eq!(Backend::parse(Some("")), Ok(Backend::Sim));
        assert_eq!(Backend::parse(Some("sim")), Ok(Backend::Sim));
        assert_eq!(Backend::parse(Some("native")), Ok(Backend::Native));
        for bad in ["nativ", "SIM", "threads", "1"] {
            let err = Backend::parse(Some(bad)).expect_err(bad);
            assert!(
                err.contains("HBP_BACKEND"),
                "error names the variable: {err}"
            );
            assert!(err.contains(bad), "error echoes the value: {err}");
            assert!(
                err.contains("sim") && err.contains("native"),
                "error lists the accepted values: {err}"
            );
        }
    }

    #[test]
    fn workers_parse_rejects_zero_and_garbage_with_clear_errors() {
        assert_eq!(
            parse_workers(None),
            Ok(NativeConfig::default().workers),
            "unset means the pool default"
        );
        assert_eq!(parse_workers(Some("3")), Ok(3));
        for bad in ["0", "-2", "abc", "1.5"] {
            let err = parse_workers(Some(bad)).expect_err(bad);
            assert!(
                err.contains("HBP_WORKERS"),
                "error names the variable: {err}"
            );
            assert!(
                err.contains("positive integer"),
                "error says what is accepted: {err}"
            );
            assert!(err.contains(bad), "error echoes the value: {err}");
        }
    }

    #[test]
    fn sim_execute_traced_report_is_bit_identical_and_trace_nonempty() {
        let machine = MachineConfig::new(4, 1 << 10, 32);
        let ex = SimExecutor {
            machine,
            policy: Policy::Pws,
        };
        let job = ExecJob::new("Scans (M-Sum)", 512, 11);
        let plain = ex.execute(&job).unwrap();
        let sink = Arc::new(TraceSink::new(ex.workers(), ex.clock_domain()));
        let traced = ex.execute_traced(&job, &sink).unwrap();
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.steals, traced.steals);
        assert_eq!(plain.busy, traced.busy);
        let trace = sink.collect();
        assert!(trace.events.len() > 2, "events recorded");
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn native_execute_traced_records_balanced_tasks() {
        let ex = NativeExecutor::new(2, 5);
        let sink = Arc::new(TraceSink::new(2, ClockDomain::WallNs));
        let r = ex
            .execute_traced(&ExecJob::new("Scans (M-Sum)", 1 << 12, 3), &sink)
            .expect("M-Sum has a native kernel");
        assert!(r.makespan > 0);
        let trace = sink.collect();
        let begins = trace.count(|k| matches!(k, hbp_trace::EventKind::TaskBegin { .. }));
        let ends = trace.count(|k| matches!(k, hbp_trace::EventKind::TaskEnd { .. }));
        assert_eq!(begins, ends, "every begun task ends");
        assert!(begins >= 1);
        assert_eq!(trace.segments().unclosed, 0);
    }
}
