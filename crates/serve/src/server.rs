//! The real-mode scenario driver (native backend).
//!
//! One persistent [`NativePool`] serves the whole scenario: client
//! threads build kernel inputs *outside* the pool and offer them to the
//! admission [`Desk`], and a dispatcher thread turns the desk's launches
//! into pool submissions — a batch of small requests as a single
//! fork-join tree — without ever respawning a worker. Who is admitted,
//! deferred or rejected, what shares a launch and what a row records is
//! the desk's business; this file owns only what is real about the
//! native server: the threads, the lock the desk sits behind, the
//! [`Ticket`] a client blocks on, the clock and the pool. A client told
//! to come back later sleeps the hinted time and offers the *same*
//! kernel again. Timestamps are wall-clock nanoseconds, so the report is
//! *not* byte-stable across runs (the sim backend's is); the schedule
//! itself still is.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hbp_core::native_kernel;
use hbp_core::sched::native::{join, NativePool};

use crate::desk::{Arrival, Desk};
use crate::gen::{build_schedule, per_client, Request};
use crate::report::ScenarioReport;
use crate::spec::{LoadMode, ScenarioSpec};

/// Completion rendezvous between the dispatcher and the waiting client.
#[derive(Default)]
struct Ticket {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Ticket {
    fn complete(&self) {
        *self.done.lock().expect("ticket poisoned") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("ticket poisoned");
        while !*done {
            done = self.cv.wait(done).expect("ticket poisoned");
        }
    }
}

/// What rides the desk's queue with a request: its kernel, and the
/// client to wake when it ran (open-loop arrivals have nobody waiting).
struct Job {
    kernel: Box<dyn FnOnce() + Send>,
    reply: Option<Arc<Ticket>>,
}

impl Job {
    fn new(r: &Request, reply: Option<Arc<Ticket>>) -> Self {
        let kernel = native_kernel(r.algo, r.n, r.seed)
            .unwrap_or_else(|| panic!("{:?} validated as natively served", r.algo));
        Self { kernel, reply }
    }
}

/// The desk behind the one lock clients and the dispatcher share.
struct Front<'a> {
    state: Mutex<State<'a>>,
    cv: Condvar,
    t0: Instant,
}

struct State<'a> {
    desk: Desk<'a, Job>,
    /// Set once every client is done: the dispatcher drains and exits.
    closed: bool,
}

/// Per-request drain time assumed by `RetryAfter` hints before the
/// first launch completed.
const EST_SEED_NS: u64 = 1_000_000;

/// Upper bound on a single `RetryAfter` sleep, so one misestimated drain
/// rate cannot park a client for seconds.
const RETRY_CAP_NS: u64 = 100_000_000;

impl<'a> Front<'a> {
    fn lock(&self) -> MutexGuard<'_, State<'a>> {
        self.state.lock().expect("desk poisoned")
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Offer request `idx` to the desk, waking the dispatcher if it was
    /// admitted.
    fn offer(&self, idx: usize, job: Job) -> Arrival<Job> {
        // Stamped before the lock: waiting for the desk is part of the
        // request's queue time.
        let now = self.now_ns();
        let mut s = self.lock();
        let answer = s.desk.arrive(idx, now, job, || EST_SEED_NS);
        drop(s);
        if matches!(answer, Arrival::Admitted) {
            self.cv.notify_one();
        }
        answer
    }

    /// Dispatcher side: block for the next launch, or `None` once the
    /// desk is closed and drained.
    fn next_launch(&self) -> Option<Vec<(usize, Job)>> {
        let mut s = self.lock();
        loop {
            let launch = s.desk.next_launch(self.now_ns());
            if !launch.is_empty() {
                return Some(launch);
            }
            if s.closed {
                return None;
            }
            s = self.cv.wait(s).expect("desk poisoned");
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Execute a batch of kernels as one fork-join tree — a single pool
/// submission whose makespan is the shared service time.
fn run_batch(mut kernels: Vec<Box<dyn FnOnce() + Send>>) {
    if kernels.len() <= 1 {
        if let Some(k) = kernels.pop() {
            k();
        }
        return;
    }
    let rest = kernels.split_off(kernels.len() / 2);
    join(|| run_batch(kernels), || run_batch(rest));
}

/// A closed-loop client's request: build the kernel once, offer it, and
/// (if admitted) wait for the dispatcher's ticket. A desk that defers
/// hands the job back with a hint — sleep it off and offer again.
fn submit_and_wait(front: &Front, r: &Request) {
    let ticket = Arc::new(Ticket::default());
    let mut job = Job::new(r, Some(Arc::clone(&ticket)));
    loop {
        match front.offer(r.id as usize, job) {
            Arrival::Admitted => return ticket.wait(),
            Arrival::Rejected => return,
            Arrival::Deferred { hint_ns, payload } => {
                std::thread::sleep(Duration::from_nanos(hint_ns.min(RETRY_CAP_NS)));
                job = payload;
            }
        }
    }
}

/// Run the scenario on real threads (see module docs).
pub fn run_real(spec: &ScenarioSpec) -> ScenarioReport {
    let schedule = build_schedule(spec);
    let pool = NativePool::new(spec.native_config());
    let t0 = Instant::now();
    let front = Front {
        state: Mutex::new(State {
            desk: Desk::new(spec, &schedule),
            closed: false,
        }),
        cv: Condvar::new(),
        t0,
    };

    let workers_active = std::thread::scope(|scope| {
        // Dispatcher: turn the desk's launches into pool submissions.
        let dispatcher = scope.spawn(|| {
            // Peak workers the pool actually engaged across the launches
            // (< workers when an autoscale band kept the pool small).
            let mut workers_active = 0;
            while let Some(launch) = front.next_launch() {
                let (kernels, replies): (Vec<_>, Vec<_>) =
                    launch.into_iter().map(|(_, j)| (j.kernel, j.reply)).unzip();
                let handle = pool
                    .submit(move || run_batch(kernels))
                    .expect("pool outlives the dispatcher");
                // `outcome` (not `wait`) so a panicking kernel cannot
                // take the dispatcher — and every waiter — down with it.
                let out = handle.outcome();
                for (w, msg) in &out.panics {
                    eprintln!("serve: kernel panicked on worker {w}: {msg}");
                }
                workers_active = out.report.workers_active.max(workers_active);
                let done = front.now_ns();
                for reply in replies.into_iter().flatten() {
                    reply.complete();
                }
                // After the replies: recording takes the desk lock, which
                // must not sit on a request's latency. Exact critical
                // paths need virtual-clock traces; the native rows keep
                // the field honest with `None`.
                front
                    .lock()
                    .desk
                    .served(out.report.makespan, done, |_| None);
            }
            workers_active
        });

        match spec.mode {
            LoadMode::Closed => {
                // One thread per client, each keeping one request
                // outstanding, thinking between completions.
                let clients: Vec<_> = per_client(spec, &schedule)
                    .into_iter()
                    .map(|stream| {
                        let front = &front;
                        scope.spawn(move || {
                            for r in &stream {
                                if r.think_ns > 0 {
                                    std::thread::sleep(Duration::from_nanos(r.think_ns));
                                }
                                submit_and_wait(front, r);
                            }
                        })
                    })
                    .collect();
                for c in clients {
                    c.join().expect("client thread panicked");
                }
            }
            LoadMode::Open => {
                // One pacing thread replays the absolute arrival times and
                // waits for nothing, so the arrival process never blocks
                // on service; the dispatcher drains what was admitted
                // after the desk closes.
                let pacer = scope.spawn(|| {
                    for r in &schedule {
                        let target = Duration::from_nanos(r.arrival_ns);
                        let elapsed = t0.elapsed();
                        if target > elapsed {
                            std::thread::sleep(target - elapsed);
                        }
                        front.offer(r.id as usize, Job::new(r, None));
                    }
                });
                pacer.join().expect("pacing thread panicked");
            }
        }

        front.close();
        dispatcher.join().expect("dispatcher panicked")
    });

    let makespan = t0.elapsed().as_nanos() as u64;
    drop(pool);
    let state = front.state.into_inner().expect("desk poisoned");
    state.desk.finish("native", makespan, workers_active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_mix;
    use hbp_core::{Backend, Policy};

    fn spec(requests: usize) -> ScenarioSpec {
        ScenarioSpec {
            seed: 5,
            requests,
            think_mean_ns: 0,
            mix: default_mix(Backend::Native),
            backend: Backend::Native,
            policy: Policy::Rws { seed: 1 },
            workers: 2,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn closed_loop_serves_every_request_on_one_pool() {
        let report = run_real(&spec(64));
        assert_eq!(report.completed, 64);
        assert_eq!(report.rejected, 0);
        assert!(report.latency.p50 > 0);
        assert!(report.workers_active >= 1 && report.workers_active <= 2);
        assert!(report.rows.iter().all(|r| r.cp.is_none()));
        assert!(report.rows.iter().all(|r| !r.rejected && r.batch >= 1));
    }

    #[test]
    fn open_loop_with_tiny_queue_rejects_and_counts() {
        let mut s = spec(48);
        s.mode = LoadMode::Open;
        s.queue_cap = 1;
        s.think_mean_ns = 0; // all arrivals due immediately
        let report = run_real(&s);
        assert_eq!(report.completed + report.rejected, 48);
        assert!(report.rejected > 0, "burst into cap-1 queue must reject");
    }

    #[test]
    fn pacing_clients_defer_instead_of_hard_rejecting() {
        // Many clients hammering a tiny queue: without pacing the burst
        // hard-rejects; with pacing the clients absorb the hints as
        // deferrals and every request completes (closed loop keeps one
        // request per client outstanding, so MAX_DEFERRALS retries give
        // the cap-1 queue time to drain).
        let mut s = spec(48);
        s.clients = 8;
        s.queue_cap = 1;
        s.pacing = true;
        let report = run_real(&s);
        assert_eq!(report.completed + report.rejected, 48);
        assert!(
            report.rejected == 0 || report.deferred > 0,
            "pacing must surface as deferrals before any rejection"
        );
    }
}
