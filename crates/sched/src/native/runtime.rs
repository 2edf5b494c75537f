//! The randomized work-stealing runtime: per-worker deques, the
//! fork-join primitive, and the idle loop.
//!
//! There is one steal discipline: an idle worker probes every other
//! worker once per scan, starting at a uniformly random victim drawn
//! from its private xorshift stream ([`probe_order`]), and claims the
//! first task it finds — one task per steal, from the idle loop and from
//! a join-wait alike. That is the randomized work stealing whose
//! false-sharing costs arXiv:1103.4142 bounds; the paper's PWS needs
//! global priority rounds and stays a simulator schedule. Failed scans
//! of the idle loop back off by [`default_backoff`]; a join-wait only
//! yields between scans, so it resumes as soon as its stolen branch is
//! done.
//!
//! Single steals keep every worker's deque in one shape: it holds
//! exactly the right branches of the worker's open joins, oldest at the
//! top. A thief takes the oldest, so once a join's branch is stolen
//! every older one is gone too and the newer ones were settled by their
//! own joins: the join's `pop` finds the deque empty. Debug builds
//! assert this at every join and every top-level steal.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hbp_trace::{EventKind as TrEv, TraceSink};

use crate::cl_deque::{ClDeque, Steal};

use super::job::{payload_message, JobRef, StackJob};
use super::pool::Submission;
use super::NativeConfig;

/// One worker's running totals: the pool's only per-task and per-steal
/// bookkeeping. Both the per-job [`ExecReport`](crate::ExecReport) and the
/// metrics registry are folded from [`Tally`] deltas of these records,
/// taken by the driver at each job's quiesce point.
///
/// Single writer: only worker `w`'s thread writes record `w` (worker 0 is
/// the driver thread), so [`bump`] is a relaxed load + store, not a locked
/// read-modify-write; the driver reads the records once every thief has
/// deregistered under the state mutex, which orders the writes before
/// the reads. Each record owns two cache lines (the adjacent-line
/// prefetcher fetches lines in pairs), so no two workers' writes ever
/// share a block.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct WorkerTally {
    pub(crate) busy_ns: AtomicU64,
    pub(crate) steal_ns: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) failed_probes: AtomicU64,
    pub(crate) tasks: AtomicU64,
    /// Times this thief went to sleep on [`Pool::work_cv`].
    pub(crate) parks: AtomicU64,
}

const _: () = assert!(std::mem::align_of::<WorkerTally>() == 128);

/// Add `n` to a [`WorkerTally`] cell from its owner thread.
#[inline]
pub(crate) fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A copy of one [`WorkerTally`], or the difference of two.
#[derive(Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) busy_ns: u64,
    pub(crate) steal_ns: u64,
    pub(crate) steals: u64,
    pub(crate) failed_probes: u64,
    pub(crate) tasks: u64,
    pub(crate) parks: u64,
}

impl WorkerTally {
    pub(crate) fn read(&self) -> Tally {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Tally {
            busy_ns: get(&self.busy_ns),
            steal_ns: get(&self.steal_ns),
            steals: get(&self.steals),
            failed_probes: get(&self.failed_probes),
            tasks: get(&self.tasks),
            parks: get(&self.parks),
        }
    }
}

impl Tally {
    /// What was counted between `before` and `self`.
    pub(crate) fn since(&self, before: &Tally) -> Tally {
        Tally {
            busy_ns: self.busy_ns - before.busy_ns,
            steal_ns: self.steal_ns - before.steal_ns,
            steals: self.steals - before.steals,
            failed_probes: self.failed_probes - before.failed_probes,
            tasks: self.tasks - before.tasks,
            parks: self.parks - before.parks,
        }
    }
}

/// The mutex-guarded coordination state of a persistent pool: the
/// submission queue, the job epoch the thieves synchronize on, the
/// shutdown flag, and who is asleep on which condvar. One mutex guards
/// all of it — submissions, job start/stop, and thief registration are
/// rare events compared to the lock-free deque traffic inside a job.
///
/// The two sleeper fields are what lets a notifier skip its condvar:
/// a waiter sets them under this mutex before it waits and clears them
/// after it wakes, and a notifier reads them under this mutex in the
/// same critical section that changes the condition (the counted-notify
/// rule of the `pool` module docs).
#[derive(Default)]
pub(crate) struct PoolState {
    /// Jobs accepted but not yet driven (FIFO).
    pub(crate) queue: VecDeque<Submission>,
    /// Monotonic job counter; bumped when the driver starts a job so
    /// parked thieves can tell a *new* job from a spurious wakeup.
    pub(crate) epoch: u64,
    /// Whether a job is currently executing on the pool.
    pub(crate) running: bool,
    /// Thieves currently inside a steal loop for the running job. The
    /// driver completes a job only once this returns to zero, which is
    /// what makes the per-job trace-sink swap and counter snapshot safe.
    pub(crate) active: usize,
    /// Peak worker concurrency observed during the current job (driver
    /// included): reset to 1 by the driver at job start, raised on every
    /// thief registration. Reported as [`ExecReport::workers_active`].
    pub(crate) participants: usize,
    /// Shutdown requested: the driver drains the queue then exits, and
    /// thieves exit once nothing is running or queued.
    pub(crate) exit: bool,
    /// The driver is asleep on [`Pool::driver_cv`], waiting for a
    /// submission (or shutdown) or for the job's thieves to deregister.
    /// A submission, a shutdown and the last deregistration notify the
    /// driver only while this is set.
    pub(crate) driver_asleep: bool,
    /// Thieves asleep on [`Pool::work_cv`]. The driver reads it at job
    /// start to arm [`Pool::wake_thieves`], and on exit to release them.
    pub(crate) thieves_asleep: usize,
}

/// Shared state of one native pool: owned by [`super::pool::NativePool`]
/// behind an `Arc`, borrowed as `&Pool` by the worker threads (via
/// [`Ctx`]) for their lifetime.
pub(crate) struct Pool {
    pub(crate) deques: Vec<ClDeque<JobRef>>,
    pub(crate) tally: Vec<WorkerTally>,
    /// Per-job completion flag: reset by the driver before a job's root
    /// starts, set once the root returns (root return implies every
    /// forked branch joined, so the job is quiescent).
    pub(crate) done: AtomicBool,
    /// The pool seed the per-worker RNG streams derive from.
    pub(crate) seed: u64,
    /// The *current job's* structured-event recorder (None = tracing
    /// off, zero extra work). Swapped by the driver between jobs.
    ///
    /// # Safety protocol
    ///
    /// Written only by the driver thread in the quiesced window between
    /// jobs (`state.running == false && state.active == 0`, held under
    /// the state mutex transition). Read by workers only inside a job —
    /// thieves register in `state.active` under the mutex *before*
    /// entering their steal loop and deregister after leaving it, so no
    /// read can overlap a write; the mutex hand-offs provide the
    /// happens-before edges.
    trace_cell: UnsafeCell<Option<Arc<TraceSink>>>,
    /// Wall-clock zero of the pool (trace timestamps are relative to
    /// the current job's start; see [`Pool::now_ns`]).
    pub(crate) epoch: Instant,
    /// Nanoseconds from the pool epoch to the current job's start.
    pub(crate) job_t0_ns: AtomicU64,
    /// Next trace task id (0 is the root; reset per job).
    pub(crate) next_task: AtomicU32,
    /// Kernel panics observed in the current job: `(worker, message)` in
    /// the order they were caught; drained by the driver per job.
    pub(crate) panics: Mutex<Vec<(usize, String)>>,
    /// Coordination state (queue, epochs, shutdown, sleepers).
    pub(crate) state: Mutex<PoolState>,
    /// The driver's own condvar: a new submission or shutdown, and the
    /// last registered thief leaving its steal loop (`state.active` back
    /// to zero), wake it. Nothing else waits here, so a submission never
    /// wakes a thief.
    pub(crate) driver_cv: Condvar,
    /// Parked thieves wait here for a job epoch (or shutdown).
    pub(crate) work_cv: Condvar,
    /// Armed by the driver at job start when a thief is asleep; the first
    /// push of the job disarms it and notifies [`Pool::work_cv`], so a
    /// job that never forks wakes no thief. Relaxed throughout: the flag
    /// publishes nothing — a woken thief reads the epoch under the state
    /// mutex — and the swap lets exactly one push notify.
    pub(crate) wake_thieves: AtomicBool,
}

// SAFETY: every field but `trace_cell` is Sync on its own; `trace_cell`
// follows the quiesce protocol documented on the field (driver-only
// writes while no thief is registered, mutex hand-offs for ordering).
unsafe impl Sync for Pool {}

impl Pool {
    /// A pool of `cfg.workers` slots with `cfg`'s seed.
    pub(crate) fn new(cfg: &NativeConfig) -> Self {
        let workers = cfg.workers;
        Self {
            deques: (0..workers).map(|_| ClDeque::default()).collect(),
            tally: (0..workers).map(|_| WorkerTally::default()).collect(),
            done: AtomicBool::new(true),
            seed: cfg.seed,
            trace_cell: UnsafeCell::new(None),
            epoch: Instant::now(),
            job_t0_ns: AtomicU64::new(0),
            next_task: AtomicU32::new(1),
            panics: Mutex::new(Vec::new()),
            state: Mutex::new(PoolState::default()),
            driver_cv: Condvar::new(),
            work_cv: Condvar::new(),
            wake_thieves: AtomicBool::new(false),
        }
    }

    /// The current job's trace sink, if any.
    #[inline]
    pub(crate) fn trace(&self) -> Option<&Arc<TraceSink>> {
        // SAFETY: the quiesce protocol on `trace_cell` — reads happen
        // only inside a job, writes only between jobs.
        unsafe { (*self.trace_cell.get()).as_ref() }
    }

    /// Swap the per-job trace sink. Must only be called by the driver in
    /// the quiesced window between jobs (see the `trace_cell` docs).
    pub(crate) fn set_trace(&self, trace: Option<Arc<TraceSink>>) {
        // SAFETY: caller contract (driver thread, quiesced window).
        unsafe { *self.trace_cell.get() = trace }
    }

    /// Nanoseconds since the current job's start (trace timestamp).
    pub(crate) fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64)
            .saturating_sub(self.job_t0_ns.load(Ordering::Relaxed))
    }

    /// Record a caught kernel panic for attribution at the job boundary.
    pub(crate) fn note_panic(&self, worker: usize, payload: &(dyn std::any::Any + Send)) {
        let msg = payload_message(payload);
        if let Ok(mut v) = self.panics.lock() {
            v.push((worker, msg));
        }
    }

    /// Owner: publish a branch on `me`'s deque. The job's first push
    /// wakes the parked thieves ([`Pool::wake_thieves`]).
    pub(crate) fn push_bottom(&self, me: usize, j: JobRef) {
        self.deques[me].push(j);
        if self.wake_thieves.load(Ordering::Relaxed)
            && self.wake_thieves.swap(false, Ordering::Relaxed)
        {
            self.work_cv.notify_all();
        }
    }
}

/// The calling context of a worker thread: which pool, which index.
#[derive(Clone, Copy)]
pub(crate) struct Ctx {
    pub(crate) pool: *const Pool,
    pub(crate) index: usize,
}

thread_local! {
    /// Set for the lifetime of a worker's main function; `None` on every
    /// other thread (where [`join`] degrades to sequential calls).
    pub(crate) static CTX: Cell<Option<Ctx>> = const { Cell::new(None) };
    /// xorshift64* state for victim selection.
    pub(crate) static RNG: Cell<u64> = const { Cell::new(0) };
    /// Task nesting depth; busy time is measured at depth 0→1 only.
    pub(crate) static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Trace task id the worker is currently executing.
    pub(crate) static CUR_TASK: Cell<u32> = const { Cell::new(0) };
}

/// Attribute a caught kernel panic to the worker running on this thread
/// (no-op outside a pool worker).
pub(crate) fn note_current_worker_panic(payload: &(dyn std::any::Any + Send)) {
    if let Some(ctx) = CTX.get() {
        // SAFETY: CTX is only set inside a worker's main function,
        // whose thread owns an `Arc<Pool>` until after it clears CTX.
        unsafe { (*ctx.pool).note_panic(ctx.index, payload) };
    }
}

/// Failed probe scans before an idle worker starts sleeping instead of
/// yielding: long enough that steal latency stays in the microseconds
/// while work is flowing, short enough that persistently idle workers
/// stop contending with the workers doing measured work.
const SPIN_PROBES: u32 = 64;

/// Idle backoff after `fails` consecutive failed probe scans:
/// spin-yield for [`SPIN_PROBES`] of them, then sleep briefly (bounded,
/// so wakeup latency stays small).
fn default_backoff(fails: u32) {
    if fails < SPIN_PROBES {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// One xorshift64* step (the workers' victim-selection generator).
fn xorshift(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One probe scan's victims for `thief` among `p ≥ 2` workers: a
/// uniformly random start drawn from the thief's xorshift state `rng`,
/// then every other worker once, in rotation.
fn probe_order(thief: usize, p: usize, rng: &mut u64) -> impl Iterator<Item = usize> {
    let start = (xorshift(rng) % (p as u64 - 1)) as usize;
    (0..p - 1).map(move |k| {
        let v = (start + k) % (p - 1);
        if v >= thief {
            v + 1
        } else {
            v
        }
    })
}

/// Probe the other workers' deque tops in a [`probe_order`] rotation and
/// claim one task from the first victim that has any: `(victim, task)`,
/// or `None` after one full unsuccessful scan.
fn steal_from_others(pool: &Pool, me: usize) -> Option<(usize, JobRef)> {
    if pool.deques.len() <= 1 {
        return None;
    }
    let mut rng = RNG.get();
    let order = probe_order(me, pool.deques.len(), &mut rng);
    RNG.set(rng);
    for v in order {
        loop {
            match pool.deques[v].steal() {
                Steal::Data(j) => return Some((v, j)),
                // Lost a CAS race on a non-empty deque: retry the same
                // victim (someone made progress, so this terminates
                // when the deque drains).
                Steal::Retry => continue,
                Steal::Empty | Steal::Denied => break,
            }
        }
    }
    None
}

/// Execute a task, timing it into `busy_ns` when it is top-level and
/// counting it either way. With tracing on, brackets the execution in
/// `TaskBegin`/`TaskEnd` events (nested inside the enclosing task's
/// segment when called from a join-wait).
fn execute_task(pool: &Pool, me: usize, j: JobRef) {
    // Read before `execute`: once the job sets `done`, its owner may
    // return from `join`, and the job's frame goes with it.
    let id = j.id();
    let d = DEPTH.get();
    DEPTH.set(d + 1);
    let prev_task = CUR_TASK.get();
    if let Some(tr) = pool.trace() {
        CUR_TASK.set(id);
        tr.push(me, pool.now_ns(), TrEv::TaskBegin { task: id });
    }
    let tally = &pool.tally[me];
    let t0 = (d == 0).then(Instant::now);
    // SAFETY: we hold the only copy of `j` (it came from a pop or a won
    // steal), and its owner waits in `join` until it has run.
    unsafe { j.execute() };
    if let Some(t0) = t0 {
        bump(&tally.busy_ns, t0.elapsed().as_nanos() as u64);
    }
    if let Some(tr) = pool.trace() {
        tr.push(me, pool.now_ns(), TrEv::TaskEnd { task: id });
        CUR_TASK.set(prev_task);
    }
    DEPTH.set(d);
    bump(&tally.tasks, 1);
}

/// Fork-join on the native pool: runs `a` on the calling worker while `b`
/// is available for stealing; returns both results. Outside a pool worker
/// (`CTX` unset on this thread) `a` runs and then `b`, on the calling
/// thread: no thread is spawned.
/// Panics in either branch propagate to the caller, with the executing
/// worker named in the payload (see the module docs).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let Some(ctx) = CTX.get() else {
        return (a(), b());
    };
    // SAFETY: CTX is only set inside a worker's main function, whose
    // thread owns an `Arc<Pool>` until after it clears CTX.
    let pool = unsafe { &*ctx.pool };
    let me = ctx.index;

    let branch_id = match pool.trace() {
        Some(tr) => {
            let id = pool.next_task.fetch_add(1, Ordering::Relaxed);
            let cur = CUR_TASK.get();
            tr.push(
                me,
                pool.now_ns(),
                TrEv::Fork {
                    parent: cur,
                    left: cur,
                    right: id,
                },
            );
            id
        }
        None => 0,
    };
    let job = StackJob::new(b, branch_id);
    let job_ref = job.as_job_ref();
    pool.push_bottom(me, job_ref);

    // Run the left branch. Even if it panics we must settle the right
    // branch first: a thief executing `job` borrows this stack frame.
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    if let Err(payload) = &ra {
        pool.note_panic(me, payload.as_ref());
    }

    match pool.deques[me].pop() {
        Some(j) => {
            // Not stolen: run the right branch inline. Our branch is the
            // newest entry left on the deque (see the module docs).
            debug_assert!(j == job_ref, "a join popped another join's branch");
            execute_task(pool, me, j);
        }
        None => {
            // Stolen: steal other work while the thief finishes our
            // branch. Probe time inside a task is attributed to that
            // task (see the module docs), so no steal_ns accounting here.
            while !job.done.load(Ordering::Acquire) {
                steal_once(pool, me, None);
            }
        }
    }

    let ra = match ra {
        Ok(v) => v,
        Err(payload) => panic::resume_unwind(payload),
    };
    // SAFETY: the job has executed (inline or by a thief, done observed).
    let rb = match unsafe { job.take_result() } {
        Ok(v) => v,
        Err(payload) => panic::resume_unwind(payload),
    };
    (ra, rb)
}

/// One steal attempt for an idle context: probe the other deques in a
/// random rotation, record counters and trace events, and execute the
/// stolen task on success.
///
/// `idle_fails` is the consecutive-failure count of a thief's idle loop,
/// `None` in a join-wait. Only in the idle loop is the probe scan
/// charged to `steal_ns` (inside a join-wait it is attributed to the
/// waiting task), and only there does a failed scan back off into sleep.
/// A join-wait yields instead, so it sees its stolen branch finish as
/// soon as it does.
fn steal_once(pool: &Pool, me: usize, idle_fails: Option<&mut u32>) {
    let tally = &pool.tally[me];
    let t0 = idle_fails.is_some().then(Instant::now);
    let found = steal_from_others(pool, me);
    if let Some(t0) = t0 {
        bump(&tally.steal_ns, t0.elapsed().as_nanos() as u64);
    }
    match found {
        Some((victim, j)) => {
            if let Some(fails) = idle_fails {
                *fails = 0;
            }
            bump(&tally.steals, 1);
            if let Some(tr) = pool.trace() {
                tr.push(
                    me,
                    pool.now_ns(),
                    TrEv::StealCommit {
                        task: j.id(),
                        victim: victim as u32,
                        count: 1,
                    },
                );
            }
            execute_task(pool, me, j);
        }
        None => {
            bump(&tally.failed_probes, 1);
            if let Some(tr) = pool.trace() {
                tr.push(me, pool.now_ns(), TrEv::StealFail);
            }
            match idle_fails {
                Some(fails) => {
                    default_backoff(*fails);
                    *fails = fails.saturating_add(1);
                }
                None => std::thread::yield_now(),
            }
        }
    }
}

/// A thief's persistent loop: park between jobs, register for each new
/// job epoch, steal top-level tasks until the job is done, deregister.
///
/// Registration (`state.active`) happens under the state mutex in the
/// same critical section that observes the new epoch, so the driver's
/// quiesce wait (`active == 0` with `running == false`) cannot miss a
/// thief that is about to enter its steal loop — the guarantee the
/// per-job trace-sink swap and counter snapshots rely on. A parked
/// thief counts itself in `state.thieves_asleep` around its wait; what
/// wakes it is the job's first push (see [`Pool::wake_thieves`]) or the
/// driver's exit.
pub(crate) fn thief_main(pool: &Pool, me: usize) {
    CTX.set(Some(Ctx { pool, index: me }));
    RNG.set((pool.seed ^ (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
    let mut seen = 0u64;
    loop {
        {
            let mut s = pool.state.lock().expect("pool state poisoned");
            let mut parked = false;
            loop {
                if s.running && s.epoch != seen {
                    seen = s.epoch;
                    s.active += 1;
                    s.participants = s.participants.max(s.active + 1);
                    break;
                }
                if s.exit && !s.running && s.queue.is_empty() {
                    drop(s);
                    CTX.set(None);
                    return;
                }
                if !parked {
                    parked = true;
                    bump(&pool.tally[me].parks, 1);
                }
                s.thieves_asleep += 1;
                s = pool.work_cv.wait(s).expect("pool state poisoned");
                s.thieves_asleep -= 1;
            }
        }
        let mut fails = 0u32;
        while !pool.done.load(Ordering::Acquire) {
            // No join is open at the top level, so our deque is empty.
            debug_assert!(
                pool.deques[me].pop().is_none(),
                "a thief's deque held a task outside any join"
            );
            steal_once(pool, me, Some(&mut fails));
        }
        let quiesced = {
            let mut s = pool.state.lock().expect("pool state poisoned");
            s.active -= 1;
            s.active == 0 && s.driver_asleep
        };
        if quiesced {
            pool.driver_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_orders_cover_everyone_but_the_thief_exactly_once() {
        for p in [2usize, 3, 5, 8] {
            for thief in 0..p {
                let mut rng = 0x005D_EECE_66D1_u64;
                let order: Vec<usize> = probe_order(thief, p, &mut rng).collect();
                let mut seen = order.clone();
                seen.sort_unstable();
                let want: Vec<usize> = (0..p).filter(|&v| v != thief).collect();
                assert_eq!(seen, want, "p={p} thief={thief}: {order:?}");
            }
        }
    }

    #[test]
    fn rws_orders_vary_with_the_rng_and_are_reproducible() {
        let (mut r1, mut r2) = (7u64, 7u64);
        let a: Vec<usize> = probe_order(0, 8, &mut r1).collect();
        let b: Vec<usize> = probe_order(0, 8, &mut r2).collect();
        assert_eq!(a, b, "equal rng state ⇒ equal order");
        let varied = (0..16).any(|_| probe_order(0, 8, &mut r1).ne(a.iter().copied()));
        assert!(varied, "random rotation eventually picks another start");
    }
}
