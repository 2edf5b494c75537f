//! The real-mode scenario driver (native backend).
//!
//! One persistent [`NativePool`] serves the whole scenario, and no thread
//! stands between a request and it. Client threads build kernel inputs
//! *outside* the pool and offer them to the admission `Desk`; the
//! thread that finds the desk's launch slot free, or frees it, is the one
//! that launches. An admitted client takes the next launch under the same
//! lock and submits it to the pool itself — a batch of small requests as
//! a single fork-join tree. The launch's root closure, on the pool's
//! driver, times the batch, completes the members' `Ticket`s, books the
//! launch and submits the follow-up from where it stands, so a backlog
//! drains driver-to-driver: two thread hand-offs per request (client →
//! driver → client), each launch still its own pool job with its own
//! report, and never a respawned worker.
//!
//! Who is admitted, deferred or rejected, what shares a launch and what a
//! row records is the desk's business; this file owns only what is real
//! about the native server: the threads, the lock the desk sits behind,
//! the ticket a client blocks on, the clock and the pool. A client told
//! to come back later sleeps the hinted time and offers the *same* kernel
//! again. Timestamps are wall-clock nanoseconds, so the report is *not*
//! byte-stable across runs (the sim backend's is); the schedule itself
//! still is. A row's `queue_ns` runs from admission to launch, its
//! `service_ns` is the wall time of the launch's `run_batch` — what the
//! members waited on; replies leave before the pool quiesces — and its
//! `latency_ns` runs from admission to the moment the replies go out.
//!
//! The scenario ends when the desk is idle, not when a thread exits, and
//! the pool is only ever dropped on the scenario's own thread: every
//! launch closure holds the `Server` (hence the pool, whose `Drop`
//! joins the driver the closure runs on), so `Server::finish` waits out
//! every launch's [`PoolHandle`] before it takes the server apart.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hbp_core::native_kernel;
use hbp_core::sched::native::{join, NativePool, PoolHandle};

use crate::desk::{Arrival, Desk};
use crate::gen::{build_schedule, per_client, Request};
use crate::report::ScenarioReport;
use crate::spec::{LoadMode, ScenarioSpec};

/// Completion rendezvous between a launch and the waiting client.
#[derive(Default)]
struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

/// What a [`Ticket`]'s mutex guards. Every condvar here counts its
/// sleepers under the mutex of the condition it waits for, and is
/// notified only when that count is non-zero: std's condvar makes a
/// `FUTEX_WAKE` syscall on every notify, whether or not anyone waits.
#[derive(Default)]
struct TicketState {
    done: bool,
    sleepers: usize,
}

impl Ticket {
    fn complete(&self) {
        let sleepers = {
            let mut s = self.state.lock().expect("ticket poisoned");
            s.done = true;
            s.sleepers
        };
        if sleepers > 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut s = self.state.lock().expect("ticket poisoned");
        while !s.done {
            s.sleepers += 1;
            s = self.cv.wait(s).expect("ticket poisoned");
            s.sleepers -= 1;
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

/// The desk behind the one lock clients and launches share, and the pool
/// its launches run on.
struct Server {
    front: Mutex<Front>,
    /// Signalled when a launch ends with nothing queued behind it, if
    /// [`Server::finish`] is asleep on it.
    idle: Condvar,
    t0: Instant,
    pool: NativePool,
    /// One per launch, for [`Server::finish`] to wait out.
    handles: Mutex<Vec<PoolHandle<()>>>,
}

/// What the server's lock guards: the desk, and whether
/// [`Server::finish`] is asleep on [`Server::idle`].
struct Front {
    desk: Desk<Job>,
    finishing: bool,
}

/// Per-request drain time assumed by `RetryAfter` hints before the
/// first launch completed.
const EST_SEED_NS: u64 = 1_000_000;

/// Upper bound on a single `RetryAfter` sleep, so one misestimated drain
/// rate cannot park a client for seconds.
const RETRY_CAP_NS: u64 = 100_000_000;

impl Server {
    fn new(spec: &ScenarioSpec, schedule: &[Request]) -> Arc<Self> {
        // The clock starts once the workers are up.
        let pool = NativePool::new(spec.native_config());
        Arc::new(Self {
            front: Mutex::new(Front {
                desk: Desk::new(spec, schedule),
                finishing: false,
            }),
            idle: Condvar::new(),
            t0: Instant::now(),
            pool,
            handles: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Front> {
        self.front.lock().expect("desk poisoned")
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Offer request `idx` to the desk and, if that found the launch slot
    /// free, launch from here.
    fn offer(self: &Arc<Self>, idx: usize, job: Job) -> Arrival<Job> {
        // Stamped before the lock: waiting for the desk is part of the
        // request's queue time.
        let now = self.now_ns();
        let mut front = self.lock();
        let answer = front.desk.arrive(idx, now, job, || EST_SEED_NS);
        let launch = match answer {
            Arrival::Admitted => front.desk.next_launch(self.now_ns()),
            _ => Vec::new(),
        };
        drop(front);
        self.launch(launch);
        answer
    }

    /// Submit a launch the desk handed out (nothing to do if it had none)
    /// as one pool job.
    fn launch(self: &Arc<Self>, launch: Vec<(usize, Job)>) {
        if launch.is_empty() {
            return;
        }
        let server = Arc::clone(self);
        let handle = self
            .pool
            .submit(move || server.run_launch(launch))
            .expect("the pool outlives every launch");
        self.handles.lock().expect("handles poisoned").push(handle);
    }

    /// The root of one launch, on the pool's driver: run the batch, reply,
    /// book it, and chain the next launch if one is waiting.
    fn run_launch(self: Arc<Self>, launch: Vec<(usize, Job)>) {
        let (kernels, replies): (Vec<_>, Vec<_>) =
            launch.into_iter().map(|(_, j)| (j.kernel, j.reply)).unzip();
        let began = self.now_ns();
        // A panicking kernel must not strand its batch-mates' clients or
        // the requests queued behind it: `join` settles every branch
        // before it unwinds, so catch here and finish the launch first.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| run_batch(kernels)));
        // One stamp ends the service time and sends the replies.
        let replied = self.now_ns();
        for reply in replies.into_iter().flatten() {
            reply.complete();
        }
        // After the replies: the desk lock must not sit on a request's
        // latency. Exact critical paths need virtual-clock traces; the
        // native rows keep the field honest with `None`.
        let mut front = self.lock();
        front.desk.served(replied - began, replied, |_| None);
        // Stamped under the lock, so no queued arrival is later than it.
        let next = front.desk.next_launch(self.now_ns());
        let finishing = front.finishing;
        drop(front);
        if next.is_empty() && finishing {
            self.idle.notify_all();
        }
        self.launch(next);
        if let Err(payload) = ran {
            // Back to the pool, which attributes it to a worker in this
            // job's outcome exactly as if nothing had caught it.
            panic::resume_unwind(payload);
        }
    }

    /// Wait for the desk to go idle (every arrival must be in by now) and
    /// for every launch's pool job to complete, then close the books.
    fn finish(self: Arc<Self>) -> ScenarioReport {
        let mut front = self.lock();
        while !front.desk.idle() {
            front.finishing = true;
            front = self.idle.wait(front).expect("desk poisoned");
            front.finishing = false;
        }
        drop(front);
        let makespan = self.now_ns();
        // Peak workers the pool actually engaged across the launches
        // (< workers when no launch lasted long enough to wake them all).
        let mut workers_active = 0;
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles poisoned"));
        for handle in handles {
            // `outcome` (not `wait`): a kernel panic is reported, not
            // re-raised.
            let out = handle.outcome();
            for (w, msg) in &out.panics {
                eprintln!("serve: kernel panicked on worker {w}: {msg}");
            }
            workers_active = out.report.workers_active.max(workers_active);
        }
        // A completed job has dropped its closure, so this is the last
        // reference and the pool's workers are joined from here.
        let Ok(server) = Arc::try_unwrap(self) else {
            unreachable!("a launch closure outlived its pool job");
        };
        drop(server.pool);
        let front = server.front.into_inner().expect("desk poisoned");
        front.desk.finish("native", makespan, workers_active)
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
/// (if admitted) wait for the launch's ticket. A desk that defers hands
/// the job back with a hint — sleep it off and offer again.
fn submit_and_wait(server: &Arc<Server>, r: &Request) {
    let ticket = Arc::new(Ticket::default());
    let mut job = Job::new(r, Some(Arc::clone(&ticket)));
    loop {
        match server.offer(r.id as usize, job) {
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
    let server = Server::new(spec, &schedule);

    std::thread::scope(|scope| match spec.mode {
        LoadMode::Closed => {
            // One thread per client, each keeping one request
            // outstanding, thinking between completions.
            let clients: Vec<_> = per_client(spec, &schedule)
                .into_iter()
                .map(|stream| {
                    let server = &server;
                    scope.spawn(move || {
                        for r in &stream {
                            if r.think_ns > 0 {
                                std::thread::sleep(Duration::from_nanos(r.think_ns));
                            }
                            submit_and_wait(server, r);
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
            // waits for nothing, so the arrival process never blocks on
            // service; what it leaves admitted drains launch to launch.
            let pacer = scope.spawn(|| {
                for r in &schedule {
                    let target = Duration::from_nanos(r.arrival_ns);
                    let elapsed = server.t0.elapsed();
                    if target > elapsed {
                        std::thread::sleep(target - elapsed);
                    }
                    server.offer(r.id as usize, Job::new(r, None));
                }
            });
            pacer.join().expect("pacing thread panicked");
        }
    });

    server.finish()
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
    fn a_panicking_kernel_replies_to_its_whole_batch_and_the_chain_goes_on() {
        // Six requests, all small enough to share a launch of up to four.
        let s = ScenarioSpec {
            requests: 6,
            batch_max: 4,
            mix: vec![crate::spec::MixEntry {
                algo: "Scans (M-Sum)".into(),
                weight: 1,
                sizes: vec![1024],
            }],
            ..spec(6)
        };
        let server = Server::new(&s, &build_schedule(&s));
        let job = |kernel: Box<dyn FnOnce() + Send>| {
            let ticket = Arc::new(Ticket::default());
            let job = Job {
                kernel,
                reply: Some(Arc::clone(&ticket)),
            };
            (job, ticket)
        };
        // Request 0 finds the slot free, launches alone and holds the
        // driver until the other five are queued behind it.
        let gate = Arc::new(Ticket::default());
        let held = Arc::clone(&gate);
        let (blocker, first) = job(Box::new(move || held.wait()));
        assert!(matches!(server.offer(0, blocker), Arrival::Admitted));
        let mut tickets = vec![first];
        for idx in 1..6 {
            let (j, ticket) = job(if idx == 3 {
                Box::new(|| panic!("kernel 3 of the batch blew up"))
            } else {
                Box::new(|| {})
            });
            assert!(matches!(server.offer(idx, j), Arrival::Admitted));
            tickets.push(ticket);
        }
        // From here on no client touches the desk: the driver launches
        // 1..=4 as one batch (its third kernel panics), then 5.
        gate.complete();
        for ticket in &tickets {
            ticket.wait();
        }
        let report = server.finish(); // returns only once the slot is free
        assert_eq!((report.completed, report.rejected), (6, 0));
        assert_eq!((report.launches, report.batched_requests), (3, 4));
        let batches: Vec<usize> = report.rows.iter().map(|r| r.batch).collect();
        assert_eq!(batches, [1, 4, 4, 4, 4, 1]);
        assert!(report.rows.iter().all(|r| r.latency_ns >= r.service_ns));
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
