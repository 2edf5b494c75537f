//! [`NativePool`]: the persistent serve-forever pool.
//!
//! A [`NativePool`] spawns its workers **once**: worker 0 is the
//! *driver* — it drains a FIFO submission queue and executes each job's
//! root closure — and workers `1..p` are *thieves* that park on a
//! condvar between jobs and steal forked branches while a job runs, in
//! random victim order over the Chase-Lev deques, so a job pays no
//! thread spawn/join.
//!
//! ## Job lifecycle
//!
//! [`NativePool::submit`] enqueues a `'static` root closure and returns
//! a [`PoolHandle`]; [`PoolHandle::wait`] blocks until the job ran and
//! yields the root's value plus a per-job [`ExecReport`] (deltas of the
//! workers' single-writer tallies between two quiesce points, so reports
//! compose across the pool's lifetime; the same deltas are the job's one
//! publish into the metrics registry). Jobs execute one at a time in
//! submission order — a kernel launch spreads over every worker, like a
//! GPU kernel owns the device — which is what makes per-job reports and
//! per-job trace sinks well-defined. Queueing time is reported
//! separately ([`JobOutcome::queue_ns`]), so a server layer can split
//! latency into queue wait vs service.
//!
//! ## Parking
//!
//! Who sleeps where, all under the one pool-state mutex
//! (`runtime::PoolState`) unless said otherwise:
//!
//! - the **driver** sleeps on its own condvar, `Pool::driver_cv`, for a
//!   submission or shutdown between jobs, and for the job's last thief
//!   to deregister at the end of a job (the quiesce wait). Nothing else
//!   waits there, so a submission never wakes a thief;
//! - **thieves** sleep on `Pool::work_cv` for a new job epoch or
//!   shutdown;
//! - a **submitter** sleeps in [`PoolHandle::wait`] on its job's own
//!   mutex and condvar.
//!
//! **Counted notifies.** std's `Condvar` makes a `FUTEX_WAKE` syscall on
//! every `notify_*`, whether or not anyone waits (≈ 200 ns on a 2-vCPU
//! guest, ten times an uncontended lock), and a chained job boundary
//! used to cross three of them with nobody asleep. So every waiter
//! registers itself (`driver_asleep`, `thieves_asleep`, the job's
//! `waiting`) under the mutex that guards its condition before it waits,
//! and clears that after it wakes; a notifier reads the count under the
//! same mutex, in the critical section that changed the condition, and
//! calls `notify_*` only when it is non-zero (it may notify after
//! unlocking). No wake-up is lost: the count and the condition change
//! under one lock, and std's `wait` re-checks the futex word before it
//! sleeps.
//!
//! **The first push wakes the thieves.** Starting a job bumps the epoch
//! without notifying anyone. If a thief is asleep, the driver arms
//! `Pool::wake_thieves`; every push pays one relaxed load of it, and the
//! push that finds it armed swaps it off and notifies `work_cv`. A job
//! that never forks therefore wakes no thief, no thief registers, the
//! quiesce wait has nothing to wait for, and its report says
//! `workers_active = 1`. A thief still on its way back from the previous
//! job (between deregistering and parking) joins the next job without
//! being woken, so `workers_active` can exceed 1 even then.
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
//! registration protocol in `runtime::thief_main`), so every
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
    self, bump, note_current_worker_panic, Ctx, Pool, Tally, CTX, CUR_TASK, DEPTH, RNG,
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
#[derive(Default)]
pub(crate) struct JobMeta {
    slot: Mutex<MetaSlot>,
    cv: Condvar,
}

/// What [`JobMeta`]'s mutex guards: the outcome, and whether the
/// submitter is asleep waiting for it (the driver notifies only then).
#[derive(Default)]
struct MetaSlot {
    done: Option<JobDone>,
    waiting: bool,
}

impl JobMeta {
    pub(crate) fn complete(&self, d: JobDone) {
        let waiting = {
            let mut g = self.slot.lock().expect("job meta poisoned");
            debug_assert!(g.done.is_none(), "job completed twice");
            g.done = Some(d);
            g.waiting
        };
        if waiting {
            self.cv.notify_one();
        }
    }

    pub(crate) fn wait(&self) -> JobDone {
        let mut g = self.slot.lock().expect("job meta poisoned");
        loop {
            if let Some(d) = g.done.take() {
                return d;
            }
            g.waiting = true;
            g = self.cv.wait(g).expect("job meta poisoned");
            g.waiting = false;
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
    /// `cfg.workers - 1` thieves — whose RNG streams derive from
    /// `cfg.seed`. The set is fixed for the pool's lifetime.
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
        let meta = Arc::new(JobMeta::default());
        let driver_asleep = {
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
            s.driver_asleep
        };
        if driver_asleep {
            self.shared.driver_cv.notify_one();
        }
        Ok(meta)
    }

    /// One-shot execution on a throwaway pool: spawn it, run `root` to
    /// completion, shut it down, and report.
    ///
    /// `root` executes on worker 0; [`join`](super::join) calls inside it
    /// (directly or via `hbp_algos::par::pjoin`) fork onto the worker
    /// deques, and idle workers steal them in random victim order.
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
        let driver_asleep = {
            let mut s = self.shared.state.lock().expect("pool state poisoned");
            s.exit = true;
            s.driver_asleep
        };
        // The thieves are the driver's to release, once it has drained.
        if driver_asleep {
            self.shared.driver_cv.notify_one();
        }
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

/// Assemble a per-job [`ExecReport`] from each worker's tally `delta`
/// over the job (field semantics in the `native` module docs).
/// `workers_active` is the job's peak worker participation (driver
/// included): `1..=p`, since a thief that is still parked when the root
/// returns never registers — and one that no push woke stays parked, so
/// a leaf-only job reports 1.
fn delta_report(delta: &[Tally], makespan: u64, workers_active: usize) -> ExecReport {
    let p = delta.len();
    let mut r = ExecReport {
        p,
        makespan,
        work: 0,
        machine: MachineStats {
            per_core: vec![CoreStats::default(); p],
            block_transfers: 0,
        },
        heap_block_misses: 0,
        stack_block_misses: 0,
        stack_plain_misses: 0,
        steals: 0,
        stolen_tasks: 0,
        steal_attempts: 0,
        steals_by_priority: Vec::new(),
        stolen_sizes: Vec::new(),
        usurpations: 0,
        busy: Vec::with_capacity(p),
        steal_overhead: Vec::with_capacity(p),
        idle: Vec::with_capacity(p),
        n_priorities: 0,
        workers_active,
    };
    for d in delta {
        r.busy.push(d.busy_ns);
        r.steal_overhead.push(d.steal_ns);
        r.idle.push(makespan.saturating_sub(d.busy_ns + d.steal_ns));
        r.work += d.tasks;
        r.steals += d.steals;
        r.steal_attempts += d.steals + d.failed_probes;
    }
    // Every steal claims one task.
    r.stolen_tasks = r.steals;
    r
}

/// The tallies at the last quiesce point and each worker's delta over
/// the job that ended there, both overwritten in place every job.
///
/// Between two jobs' quiesce points the only tally a worker writes is
/// `parks` (no thief is registered, so nothing runs or steals), so a
/// delta from the previous job's end is the same, for every report
/// field, as one from this job's start, and the deltas of successive
/// jobs sum to the totals: no park goes uncounted.
struct Ledger {
    seen: Vec<Tally>,
    delta: Vec<Tally>,
}

impl Ledger {
    /// Read every worker's tally at a quiesce point; return the deltas.
    fn close(&mut self, pool: &Pool) -> &[Tally] {
        for ((seen, delta), rec) in self.seen.iter_mut().zip(&mut self.delta).zip(&pool.tally) {
            let now = rec.read();
            *delta = now.since(seen);
            *seen = now;
        }
        &self.delta
    }
}

/// The driver's main loop: drain the submission queue until shutdown.
fn driver_main(pool: &Pool) {
    CTX.set(Some(Ctx { pool, index: 0 }));
    RNG.set((pool.seed ^ 0x9E37_79B9_7F4A_7C15) | 1);
    let zero = vec![Tally::default(); pool.tally.len()];
    let mut ledger = Ledger {
        seen: zero.clone(),
        delta: zero,
    };
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
                s.driver_asleep = true;
                s = pool.driver_cv.wait(s).expect("pool state poisoned");
                s.driver_asleep = false;
            }
        };
        let Some(sub) = sub else { break };
        drive_one(pool, sub, &mut ledger);
    }
    CTX.set(None);
    // Release parked thieves: with `exit` set, an empty queue, and
    // nothing running, their loop condition lets them return.
    let thieves_asleep = pool
        .state
        .lock()
        .expect("pool state poisoned")
        .thieves_asleep;
    if thieves_asleep > 0 {
        pool.work_cv.notify_all();
    }
}

/// Execute one submission on the pool: swap per-job state in the
/// quiesced window, open a new epoch (arming the thieves' wake for the
/// job's first push), run the root as task 0 on the driver, wait for
/// quiescence, and publish the per-job outcome.
///
/// An untraced job reads the clock twice — once at its start (queue
/// wait, trace zero, root start) and once at the root's end (the root's
/// busy time and, unless thieves had to be waited out, the makespan).
fn drive_one(pool: &Pool, sub: Submission, ledger: &mut Ledger) {
    let Submission {
        run,
        trace,
        enqueued,
        meta,
    } = sub;
    let start = Instant::now();
    let queue_ns = start.duration_since(enqueued).as_nanos() as u64;
    // Quiesced window: no thief holds a steal loop (see thief_main's
    // registration protocol), so per-job state swaps are race-free.
    pool.set_trace(trace);
    pool.next_task.store(1, Ordering::Relaxed);
    pool.job_t0_ns.store(
        start.duration_since(pool.epoch).as_nanos() as u64,
        Ordering::Relaxed,
    );
    pool.done.store(false, Ordering::Release);
    {
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.running = true;
        s.epoch += 1;
        // Reset the per-job participation peak to the driver alone;
        // every thief registration raises it (see thief_main).
        s.participants = 1;
        // No notify here: a parked thief is woken by the job's first
        // push, so a job that never forks wakes nobody.
        pool.wake_thieves
            .store(s.thieves_asleep > 0, Ordering::Relaxed);
    }

    DEPTH.set(1);
    CUR_TASK.set(0);
    let mut root_c0 = None;
    if let Some(tr) = pool.trace() {
        tr.push(0, pool.now_ns(), TrEv::TaskBegin { task: 0 });
        root_c0 = crate::perf::sample();
    }
    // The runner catches its own unwind; this outer catch is the
    // driver's last line of defense (a poisoned result slot, say) — the
    // driver thread must survive every job.
    let outcome = panic::catch_unwind(AssertUnwindSafe(run));
    let root_ns = start.elapsed().as_nanos() as u64;
    bump(&pool.tally[0].busy_ns, root_ns);
    bump(&pool.tally[0].tasks, 1);
    if let Some(tr) = pool.trace() {
        runtime::emit_miss_delta(pool, 0, tr, root_c0);
        tr.push(0, pool.now_ns(), TrEv::TaskEnd { task: 0 });
    }
    DEPTH.set(0);
    if let Err(payload) = outcome {
        pool.note_panic(0, payload.as_ref());
    }
    pool.done.store(true, Ordering::Release);
    let (workers_active, waited) = {
        let mut s = pool.state.lock().expect("pool state poisoned");
        s.running = false;
        let waited = s.active > 0;
        while s.active > 0 {
            s.driver_asleep = true;
            s = pool.driver_cv.wait(s).expect("pool state poisoned");
            s.driver_asleep = false;
        }
        (s.participants, waited)
    };
    let makespan = if waited {
        start.elapsed().as_nanos() as u64
    } else {
        root_ns
    };
    let delta = ledger.close(pool);
    let report = delta_report(delta, makespan, workers_active);
    // The job's one registry publish: the workers' deltas, and its
    // end-to-end latency (queue wait + service).
    let m = hbp_metrics::global();
    if m.on() {
        for (w, d) in delta.iter().enumerate() {
            let sh = m.shard(w);
            sh.tasks_executed.add(d.tasks);
            sh.steals_committed.add(d.steals);
            sh.steals_failed.add(d.failed_probes);
            sh.parks.add(d.parks);
        }
        m.jobs_completed.inc();
        m.job_latency_ns.observe(queue_ns + makespan);
        m.workers_active.set(workers_active as i64);
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
