//! [`NativePool`]: the persistent serve-forever pool.
//!
//! A [`NativePool`] spawns its workers **once**: worker 0 is the
//! *driver* — it drains a FIFO submission queue and executes each job's
//! root closure — and workers `1..p` are *thieves* that park on a
//! condvar between jobs and steal forked branches while a job runs, over
//! the Chase-Lev deques and the [`NativeStealPolicy`] facet, so a job
//! pays no thread spawn/join.
//!
//! [`NativeStealPolicy`]: crate::policy::NativeStealPolicy
//!
//! ## Job lifecycle
//!
//! [`NativePool::submit`] enqueues a `'static` root closure and returns
//! a [`PoolHandle`]; [`PoolHandle::wait`] blocks until the job ran and
//! yields the root's value plus a per-job [`ExecReport`] (counter
//! *deltas* between the job's start and its quiesce point, so reports
//! compose across the pool's lifetime). Jobs execute one at a time in
//! submission order — a kernel launch spreads over every worker, like a
//! GPU kernel owns the device — which is what makes per-job reports and
//! per-job trace sinks well-defined. Queueing time is reported
//! separately ([`JobOutcome::queue_ns`]), so a server layer can split
//! latency into queue wait vs service.
//!
//! ## Shutdown
//!
//! [`NativePool::shutdown`] is explicit and **idempotent**: the first
//! call asks the driver to drain the queue (already-accepted jobs still
//! run and their handles complete), rejects new submissions, and joins
//! every worker; further calls are no-ops. Dropping the pool calls it.
//!
//! ## Tracing
//!
//! [`NativePool::submit_traced`] attaches a per-job
//! [`TraceSink`]: the driver swaps the pool's sink in the quiesced
//! window between jobs (no thief holds a steal loop there — see the
//! registration protocol in [`super::runtime::thief_main`]), so every
//! request can get its own isolated trace with per-job timestamps
//! starting near zero.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hbp_machine::{CoreStats, MachineStats};
use hbp_trace::{ClockDomain, EventKind as TrEv, TraceSink};

use crate::report::ExecReport;

use super::runtime::{
    self, note_current_worker_panic, Ctx, Pool, WorkerCounters, CTX, CUR_TASK, DEPTH, FORK_DEPTH,
    RNG,
};
use super::NativeConfig;

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// [`NativePool::shutdown`] was already requested; the pool accepts
    /// no new jobs (queued ones still drain).
    ShutDown,
    /// The admission queue is saturated *right now*, but is expected to
    /// drain: resubmitting after the enclosed hint should succeed. The
    /// hint is computed by the admitting layer from its queue depth and
    /// observed drain rate (the pool itself queues unboundedly; bounded
    /// admission layers such as `hbp-serve` produce this variant).
    /// Cooperative clients sleep the hint and retry; impatient ones may
    /// treat it as a plain rejection.
    RetryAfter(std::time::Duration),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShutDown => write!(f, "pool is shut down"),
            SubmitError::RetryAfter(d) => {
                write!(f, "admission queue is full; retry after {}ns", d.as_nanos())
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One accepted job, queued until the driver picks it up.
pub(crate) struct Submission {
    /// The type-erased root runner: it catches its own unwind and stores
    /// the outcome where the submitter can reach it, so the driver
    /// thread never unwinds.
    pub(crate) run: Box<dyn FnOnce() + Send>,
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) enqueued: Instant,
    pub(crate) meta: Arc<JobMeta>,
}

/// What the driver publishes when a job completes.
pub(crate) struct JobDone {
    pub(crate) report: ExecReport,
    pub(crate) queue_ns: u64,
    pub(crate) panics: Vec<(usize, String)>,
}

/// Completion rendezvous between the driver and one submitter.
pub(crate) struct JobMeta {
    done: Mutex<Option<JobDone>>,
    cv: Condvar,
}

impl JobMeta {
    fn new() -> Self {
        Self {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, d: JobDone) {
        let mut g = self.done.lock().expect("job meta poisoned");
        debug_assert!(g.is_none(), "job completed twice");
        *g = Some(d);
        self.cv.notify_all();
    }

    pub(crate) fn wait(&self) -> JobDone {
        let mut g = self.done.lock().expect("job meta poisoned");
        loop {
            if let Some(d) = g.take() {
                return d;
            }
            g = self.cv.wait(g).expect("job meta poisoned");
        }
    }
}

/// Run a job's root, attributing a panic to the worker it ran on.
fn catch_root<R>(root: impl FnOnce() -> R) -> std::thread::Result<R> {
    let r = panic::catch_unwind(AssertUnwindSafe(root));
    if let Err(payload) = &r {
        note_current_worker_panic(payload.as_ref());
    }
    r
}

/// Result slot of a `'static` submission, shared between the closure that
/// fills it and the [`PoolHandle`] that takes it.
struct ResultCell<R>(Mutex<Option<std::thread::Result<R>>>);

/// Everything a completed job yields: the root's outcome (value or
/// panic payload), the per-job report, the time the job sat in the
/// submission queue, and the kernel panics recorded during it.
pub struct JobOutcome<R> {
    /// The root closure's return value, or the panic payload if it
    /// (or a forked branch) panicked.
    pub result: std::thread::Result<R>,
    /// Per-job execution report: counter deltas over the job window,
    /// `makespan` = root start → pool quiesce, wall-clock nanoseconds.
    pub report: ExecReport,
    /// Nanoseconds the job waited in the submission queue before the
    /// driver picked it up (not part of the report's makespan).
    pub queue_ns: u64,
    /// Kernel panics caught during the job, `(worker, message)`.
    pub panics: Vec<(usize, String)>,
}

/// Waitable handle to one submitted job. Consuming it with
/// [`PoolHandle::wait`] (or [`PoolHandle::outcome`]) is the only way to
/// observe the job's result, so every report is delivered exactly once.
pub struct PoolHandle<R> {
    result: Arc<ResultCell<R>>,
    meta: Arc<JobMeta>,
}

impl<R> PoolHandle<R> {
    /// Block until the job completed; return the full [`JobOutcome`]
    /// (never panics on a kernel panic — inspect `result` instead).
    pub fn outcome(self) -> JobOutcome<R> {
        let done = self.meta.wait();
        let result = self
            .result
            .0
            .lock()
            .expect("result slot poisoned")
            .take()
            .expect("job completed without a result");
        JobOutcome {
            result,
            report: done.report,
            queue_ns: done.queue_ns,
            panics: done.panics,
        }
    }

    /// Block until the job completed; return the root's value and the
    /// per-job report. A kernel panic is re-raised here, attributed to
    /// the worker that caught it (`kernel panicked on worker W: msg`).
    pub fn wait(self) -> (R, ExecReport) {
        let o = self.outcome();
        match o.result {
            Ok(v) => (v, o.report),
            Err(payload) => raise_job_panic(&o.panics, payload),
        }
    }
}

/// Re-raise a job panic with worker attribution when available.
fn raise_job_panic(panics: &[(usize, String)], payload: Box<dyn std::any::Any + Send>) -> ! {
    match panics.first() {
        Some((w, msg)) => panic!("kernel panicked on worker {w}: {msg}"),
        None => panic::resume_unwind(payload),
    }
}

/// A persistent work-stealing pool: workers spawn once, successive jobs
/// arrive through a submission queue, idle workers park between jobs,
/// shutdown is explicit (see the module docs).
pub struct NativePool {
    shared: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
}

impl NativePool {
    /// Spawn exactly `cfg.workers` threads — one driver and
    /// `cfg.workers - 1` thieves — with `cfg`'s policy facet and RNG
    /// stream seed. The set is fixed for the pool's lifetime.
    pub fn new(cfg: NativeConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        let shared = Arc::new(Pool::new(&cfg));
        let mut threads = Vec::with_capacity(cfg.workers);
        let p = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("hbp-pool-driver".into())
                .spawn(move || driver_main(&p))
                .expect("spawn pool driver"),
        );
        for w in 1..cfg.workers {
            let p = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hbp-pool-w{w}"))
                    .spawn(move || runtime::thief_main(&p, w))
                    .expect("spawn pool worker"),
            );
        }
        Self { shared, threads }
    }

    /// Number of worker threads (driver included).
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// Jobs accepted but not yet started (the driver's backlog).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool state poisoned")
            .queue
            .len()
    }

    /// Submit a root closure; the returned handle waits for its value
    /// and per-job report. Jobs run in submission order.
    pub fn submit<R, F>(&self, f: F) -> Result<PoolHandle<R>, SubmitError>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_traced(None, f)
    }

    /// [`NativePool::submit`] with a per-job trace sink (must be in
    /// [`ClockDomain::WallNs`] and sized for at least
    /// [`NativePool::workers`] workers). Event timestamps restart near
    /// zero at the job's start.
    pub fn submit_traced<R, F>(
        &self,
        trace: Option<Arc<TraceSink>>,
        f: F,
    ) -> Result<PoolHandle<R>, SubmitError>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let result = Arc::new(ResultCell(Mutex::new(None)));
        let slot = Arc::clone(&result);
        let run = Box::new(move || {
            *slot.0.lock().expect("result slot poisoned") = Some(catch_root(f));
        });
        let meta = self.enqueue(run, trace)?;
        Ok(PoolHandle { result, meta })
    }

    fn check_sink(&self, trace: Option<&TraceSink>) {
        if let Some(tr) = trace {
            assert!(
                tr.workers() >= self.workers(),
                "trace sink sized for {} workers, pool has {}",
                tr.workers(),
                self.workers()
            );
            assert!(
                tr.clock() == ClockDomain::WallNs,
                "native traces are wall-clock; use ClockDomain::WallNs"
            );
        }
    }

    fn enqueue(
        &self,
        run: Box<dyn FnOnce() + Send>,
        trace: Option<Arc<TraceSink>>,
    ) -> Result<Arc<JobMeta>, SubmitError> {
        self.check_sink(trace.as_deref());
        let meta = Arc::new(JobMeta::new());
        {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            if s.exit {
                return Err(SubmitError::ShutDown);
            }
            s.queue.push_back(Submission {
                run,
                trace,
                enqueued: Instant::now(),
                meta: Arc::clone(&meta),
            });
            let m = hbp_metrics::global();
            if m.on() {
                m.jobs_submitted.inc();
                let depth = s.queue.len() as i64;
                m.pool_backlog.set(depth);
                m.pool_backlog_peak.raise_to(depth);
            }
        }
        self.shared.work_cv.notify_all();
        Ok(meta)
    }

    /// One-shot execution on a throwaway pool: spawn it, run `root` to
    /// completion, shut it down, and report.
    ///
    /// `root` executes on worker 0; [`join`](super::join) calls inside it
    /// (directly or via `hbp_algos::par::pjoin`) fork onto the worker
    /// deques, and idle workers steal under the pool's policy facet.
    /// Unlike [`NativePool::submit`], `root` may borrow from the caller's
    /// frame. Spawning threads per call is the whole cost — servers that
    /// launch many kernels keep one pool and `submit` into it, or use
    /// the `hbp-core` session API.
    pub fn run<R, F>(cfg: NativeConfig, root: F) -> (R, ExecReport)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        Self::run_traced(cfg, None, root)
    }

    /// [`NativePool::run`] with optional structured-event recording.
    /// When `trace` is `Some`, the sink must be in
    /// [`ClockDomain::WallNs`] and sized for at least `cfg.workers`
    /// workers; collect it after this returns.
    pub fn run_traced<R, F>(
        cfg: NativeConfig,
        trace: Option<Arc<TraceSink>>,
        root: F,
    ) -> (R, ExecReport)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        assert!(
            CTX.get().is_none(),
            "a one-shot native run cannot be nested inside a pool worker"
        );
        let pool = NativePool::new(cfg);
        let mut result = None;
        let slot = &mut result;
        let run: Box<dyn FnOnce() + Send + '_> = Box::new(move || *slot = Some(catch_root(root)));
        // SAFETY: only the lifetime is erased. `run` borrows this frame
        // (`result`, and whatever `root` captured), and this frame blocks
        // on the job's meta below before it reads `result` or returns:
        // the driver calls — and thereby consumes — the box before it
        // completes the meta, and a refused submission drops it unrun
        // inside `enqueue`.
        let run: Box<dyn FnOnce() + Send> = unsafe { std::mem::transmute(run) };
        let done = pool
            .enqueue(run, trace)
            .expect("fresh pool accepts a submission")
            .wait();
        drop(pool); // joins the workers
        match result.expect("job completed without a result") {
            Ok(v) => (v, done.report),
            Err(payload) => raise_job_panic(&done.panics, payload),
        }
    }

    /// Drain the queue (accepted jobs still run), reject new
    /// submissions, and join every worker. Idempotent: repeat calls
    /// (including the one from `Drop`) are no-ops.
    pub fn shutdown(&mut self) {
        {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            s.exit = true;
        }
        self.shared.work_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NativePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's counter snapshot, used for per-job deltas.
#[derive(Clone, Copy, Default)]
struct CounterSnap {
    busy_ns: u64,
    steal_ns: u64,
    steals: u64,
    stolen_tasks: u64,
    failed_probes: u64,
    tasks: u64,
}

fn snapshot(counters: &[WorkerCounters]) -> Vec<CounterSnap> {
    counters
        .iter()
        .map(|c| CounterSnap {
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
            steal_ns: c.steal_ns.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            stolen_tasks: c.stolen_tasks.load(Ordering::Relaxed),
            failed_probes: c.failed_probes.load(Ordering::Relaxed),
            tasks: c.tasks.load(Ordering::Relaxed),
        })
        .collect()
}

/// Assemble a per-job [`ExecReport`] from before/after counter
/// snapshots (field semantics in the `native` module docs).
/// `workers_active` is the job's peak worker participation (driver
/// included): `1..=p`, since a thief that is still parked when the root
/// returns never registers.
fn delta_report(
    before: &[CounterSnap],
    after: &[CounterSnap],
    makespan: u64,
    workers_active: usize,
) -> ExecReport {
    let p = before.len();
    let busy: Vec<u64> = (0..p)
        .map(|w| after[w].busy_ns - before[w].busy_ns)
        .collect();
    let steal_overhead: Vec<u64> = (0..p)
        .map(|w| after[w].steal_ns - before[w].steal_ns)
        .collect();
    let idle: Vec<u64> = busy
        .iter()
        .zip(&steal_overhead)
        .map(|(&b, &s)| makespan.saturating_sub(b + s))
        .collect();
    let steals: u64 = (0..p).map(|w| after[w].steals - before[w].steals).sum();
    let stolen_tasks: u64 = (0..p)
        .map(|w| after[w].stolen_tasks - before[w].stolen_tasks)
        .sum();
    let failed: u64 = (0..p)
        .map(|w| after[w].failed_probes - before[w].failed_probes)
        .sum();
    ExecReport {
        p,
        makespan,
        work: (0..p).map(|w| after[w].tasks - before[w].tasks).sum(),
        machine: MachineStats {
            per_core: vec![CoreStats::default(); p],
            block_transfers: 0,
        },
        heap_block_misses: 0,
        stack_block_misses: 0,
        stack_plain_misses: 0,
        steals,
        stolen_tasks,
        steal_attempts: steals + failed,
        steals_by_priority: Vec::new(),
        stolen_sizes: Vec::new(),
        usurpations: 0,
        busy,
        steal_overhead,
        idle,
        n_priorities: 0,
        workers_active,
    }
}

/// The driver's main loop: drain the submission queue until shutdown.
fn driver_main(pool: &Pool) {
    CTX.set(Some(Ctx { pool, index: 0 }));
    RNG.set((pool.seed ^ 0x9E37_79B9_7F4A_7C15) | 1);
    loop {
        let sub = {
            let mut s = pool.state.lock().expect("pool state poisoned");
            loop {
                if let Some(sub) = s.queue.pop_front() {
                    let m = hbp_metrics::global();
                    if m.on() {
                        m.pool_backlog.set(s.queue.len() as i64);
                    }
                    break Some(sub);
                }
                if s.exit {
                    break None;
                }
                s = pool.work_cv.wait(s).expect("pool state poisoned");
            }
        };
        let Some(sub) = sub else { break };
        drive_one(pool, sub);
    }
    CTX.set(None);
    // Release parked thieves: with `exit` set, an empty queue, and
    // nothing running, their loop condition lets them return.
    pool.work_cv.notify_all();
}

/// Execute one submission on the pool: swap per-job state in the
/// quiesced window, wake the thieves, run the root as task 0 on the
/// driver, wait for quiescence, and publish the per-job outcome.
fn drive_one(pool: &Pool, sub: Submission) {
    let Submission {
        run,
        trace,
        enqueued,
        meta,
    } = sub;
    let queue_ns = enqueued.elapsed().as_nanos() as u64;
    // Quiesced window: no thief holds a steal loop (see thief_main's
    // registration protocol), so per-job state swaps are race-free.
    pool.set_trace(trace);
    pool.next_task.store(1, Ordering::Relaxed);
    pool.job_t0_ns
        .store(pool.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let before = snapshot(&pool.counters);
    pool.done.store(false, Ordering::Release);
    {
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.running = true;
        s.epoch += 1;
        // Reset the per-job participation peak to the driver alone;
        // every thief registration raises it (see thief_main).
        s.participants = 1;
    }
    pool.work_cv.notify_all();

    let t0 = Instant::now();
    DEPTH.set(1);
    CUR_TASK.set(0);
    FORK_DEPTH.set(0);
    let mut root_c0 = None;
    if let Some(tr) = pool.trace() {
        tr.push(0, pool.now_ns(), TrEv::TaskBegin { task: 0 });
        root_c0 = crate::perf::sample(pool.counters_mode, 0);
    }
    let tb = Instant::now();
    // The runner catches its own unwind; this outer catch is the
    // driver's last line of defense (a poisoned result slot, say) — the
    // driver thread must survive every job.
    let outcome = panic::catch_unwind(AssertUnwindSafe(run));
    pool.counters[0]
        .busy_ns
        .fetch_add(tb.elapsed().as_nanos() as u64, Ordering::Relaxed);
    pool.counters[0].tasks.fetch_add(1, Ordering::Relaxed);
    if let Some(tr) = pool.trace() {
        runtime::emit_miss_delta(pool, 0, tr, root_c0);
        tr.push(0, pool.now_ns(), TrEv::TaskEnd { task: 0 });
    }
    DEPTH.set(0);
    if let Err(payload) = outcome {
        pool.note_panic(0, payload.as_ref());
    }
    pool.done.store(true, Ordering::Release);
    let workers_active = {
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.running = false;
        while s.active > 0 {
            s = pool.quiesce_cv.wait(s).expect("pool state poisoned");
        }
        s.participants
    };
    let makespan = t0.elapsed().as_nanos() as u64;
    let after = snapshot(&pool.counters);
    let report = delta_report(&before, &after, makespan, workers_active);
    {
        // Per-job serve-level publish: one increment and one histogram
        // observation per job (end-to-end latency = queue wait + service),
        // plus the driver's own task count for this job — the per-task
        // increments in execute_task cover forked branches, and the root
        // runs outside it.
        let m = hbp_metrics::global();
        if m.on() {
            m.jobs_completed.inc();
            m.job_latency_ns.observe(queue_ns + makespan);
            m.workers_active.set(workers_active as i64);
            m.shard(0).tasks_executed.inc();
        }
    }
    let panics = pool
        .panics
        .lock()
        .map(|mut v| v.drain(..).collect())
        .unwrap_or_default();
    // Drop the job's sink reference before signaling completion, so a
    // waiter that collects its sink right after wait() observes the
    // quiesced rings (the sink's collect contract).
    pool.set_trace(None);
    meta.complete(JobDone {
        report,
        queue_ns,
        panics,
    });
}
