//! The real-mode scenario runner (native backend).
//!
//! One persistent [`NativePool`] serves the whole scenario: client
//! threads build kernel inputs *outside* the pool, push into a bounded
//! admission queue, and a dispatcher thread drains the queue — batching
//! consecutive small requests into a single pool submission via a
//! fork-join tree — without ever respawning a worker. A full queue
//! answers [`SubmitError::RetryAfter`] with a pacing hint computed from
//! the queue depth and the dispatcher's observed drain rate; closed-loop
//! clients with [`ScenarioSpec::pacing`] honor the hint (sleep, retry up
//! to [`MAX_DEFERRALS`] times), everyone else records a hard rejection.
//! Deferrals and rejections are counted separately — nothing is dropped
//! silently. Timestamps are wall-clock nanoseconds, so the report is
//! *not* byte-stable across runs (the sim backend is); the schedule
//! itself still is.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hbp_core::native_kernel;
use hbp_core::sched::native::{join, NativePool, SubmitError};

use crate::gen::{build_schedule, per_client, pop_launch, DrainEstimate, Request};
use crate::report::{RequestRecord, ScenarioReport};
use crate::spec::{LoadMode, ScenarioSpec, MAX_DEFERRALS};

/// A served request's timings, delivered through its [`Ticket`].
#[derive(Debug, Clone, Copy)]
struct TicketDone {
    queue_ns: u64,
    service_ns: u64,
    latency_ns: u64,
    batch: usize,
}

/// Completion rendezvous between the dispatcher and the waiting client.
#[derive(Default)]
struct Ticket {
    done: Mutex<Option<TicketDone>>,
    cv: Condvar,
}

impl Ticket {
    fn complete(&self, d: TicketDone) {
        *self.done.lock().expect("ticket poisoned") = Some(d);
        self.cv.notify_all();
    }

    fn wait(&self) -> TicketDone {
        let mut g = self.done.lock().expect("ticket poisoned");
        loop {
            if let Some(d) = *g {
                return d;
            }
            g = self.cv.wait(g).expect("ticket poisoned");
        }
    }
}

/// An admitted request waiting for the dispatcher.
struct Pending {
    idx: usize,
    kernel: Box<dyn FnOnce() + Send>,
    enq: Instant,
    ticket: Arc<Ticket>,
}

struct AdmState {
    q: VecDeque<Pending>,
    closed: bool,
    depth: Vec<(u64, usize)>,
    /// Per-request drain time, folded in by the dispatcher after every
    /// launch.
    est: DrainEstimate,
}

/// The bounded admission queue shared by clients and the dispatcher.
struct Admission {
    state: Mutex<AdmState>,
    cv: Condvar,
    cap: usize,
    t0: Instant,
}

/// Per-request drain time assumed by `RetryAfter` hints before the
/// first launch completed.
const EST_SEED_NS: u64 = 1_000_000;

/// Upper bound on a single `RetryAfter` hint, so one misestimated drain
/// rate cannot park a client for seconds.
const RETRY_CAP_NS: u64 = 100_000_000;

impl Admission {
    fn new(cap: usize, t0: Instant) -> Self {
        Self {
            state: Mutex::new(AdmState {
                q: VecDeque::new(),
                closed: false,
                depth: vec![(0, 0)],
                est: DrainEstimate::default(),
            }),
            cv: Condvar::new(),
            cap,
            t0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Fold one launch's observed per-request drain time into the EWMA.
    fn observe_drain(&self, service_ns: u64, batch: usize) {
        let mut s = self.state.lock().expect("admission poisoned");
        s.est.observe(service_ns, batch);
    }

    /// Admit, or answer with a pacing hint. `Err(RetryAfter)` means the
    /// queue was at capacity; the hint is the estimated time until it
    /// has room — `(depth + 1 − cap) ×` the observed per-request drain
    /// time. The *caller* decides whether that becomes a deferral
    /// (pacing client: sleep and retry) or a hard rejection, and counts
    /// it accordingly; nothing is dropped silently.
    fn submit(&self, p: Pending) -> Result<(), SubmitError> {
        let mut s = self.state.lock().expect("admission poisoned");
        if s.q.len() >= self.cap {
            let backlog = (s.q.len() + 1 - self.cap) as u64;
            let hint = s.est.hint(backlog, || EST_SEED_NS).min(RETRY_CAP_NS);
            return Err(SubmitError::RetryAfter(Duration::from_nanos(hint)));
        }
        s.q.push_back(p);
        let sample = (self.now_ns(), s.q.len());
        s.depth.push(sample);
        drop(s);
        self.cv.notify_one();
        Ok(())
    }

    /// Dispatcher side: pop the next launch (respecting the batching
    /// rule), or `None` once the queue is closed and drained.
    fn next_launch(&self, spec: &ScenarioSpec, schedule: &[Request]) -> Option<Vec<Pending>> {
        let mut s = self.state.lock().expect("admission poisoned");
        loop {
            if !s.q.is_empty() {
                break;
            }
            if s.closed {
                return None;
            }
            s = self.cv.wait(s).expect("admission poisoned");
        }
        let batch = pop_launch(spec, &mut s.q, |p| schedule[p.idx].n);
        let sample = (self.now_ns(), s.q.len());
        s.depth.push(sample);
        Some(batch)
    }

    fn close(&self) {
        self.state.lock().expect("admission poisoned").closed = true;
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

/// What a client records about one request.
#[derive(Debug, Clone, Copy, Default)]
struct Outcome {
    arrival_ns: u64,
    rejected: bool,
    deferrals: u32,
    queue_ns: u64,
    service_ns: u64,
    latency_ns: u64,
    batch: usize,
}

/// Record a hard rejection in the process-wide registry.
fn count_rejected() {
    let m = hbp_core::metrics::global();
    if m.on() {
        m.admission_rejected.inc();
    }
}

/// Record a deferral (a `RetryAfter` the client is about to honor).
fn count_deferred() {
    let m = hbp_core::metrics::global();
    if m.on() {
        m.admission_deferred.inc();
    }
}

/// Build the request's kernel, admit it, and (if admitted) wait for the
/// dispatcher's ticket. A pacing client honors `RetryAfter` hints —
/// sleep the hinted duration and resubmit, up to [`MAX_DEFERRALS`]
/// times — before recording a hard rejection. Returns the recorded
/// outcome.
fn submit_and_wait(adm: &Admission, spec: &ScenarioSpec, r: &Request) -> Outcome {
    let arrival_ns = adm.now_ns();
    let mut deferrals = 0u32;
    loop {
        let kernel = native_kernel(r.algo, r.n, r.seed)
            .unwrap_or_else(|| panic!("{:?} validated as natively served", r.algo));
        let ticket = Arc::new(Ticket::default());
        let pending = Pending {
            idx: r.id as usize,
            kernel,
            enq: Instant::now(),
            ticket: Arc::clone(&ticket),
        };
        match adm.submit(pending) {
            Err(SubmitError::RetryAfter(hint)) if spec.pacing && deferrals < MAX_DEFERRALS => {
                deferrals += 1;
                count_deferred();
                std::thread::sleep(hint);
            }
            Err(_) => {
                count_rejected();
                return Outcome {
                    arrival_ns,
                    rejected: true,
                    deferrals,
                    ..Outcome::default()
                };
            }
            Ok(()) => {
                let d = ticket.wait();
                return Outcome {
                    arrival_ns,
                    rejected: false,
                    deferrals,
                    queue_ns: d.queue_ns,
                    service_ns: d.service_ns,
                    latency_ns: d.latency_ns,
                    batch: d.batch,
                };
            }
        }
    }
}

/// Run the scenario on real threads (see module docs).
pub fn run_real(spec: &ScenarioSpec) -> ScenarioReport {
    let schedule = build_schedule(spec);
    let pool = NativePool::new(spec.native_config());
    let t0 = Instant::now();
    let adm = Admission::new(spec.queue_cap, t0);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(vec![Outcome::default(); schedule.len()]);
    // Peak workers the pool actually engaged across the scenario's
    // launches (< workers when an autoscale band kept the pool small).
    let workers_active = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Dispatcher: drain the admission queue into pool submissions.
        let dispatcher = scope.spawn(|| {
            while let Some(batch) = adm.next_launch(spec, &schedule) {
                let size = batch.len();
                let mut kernels = Vec::with_capacity(size);
                let mut waiters = Vec::with_capacity(size);
                for p in batch {
                    let queue_ns = p.enq.elapsed().as_nanos() as u64;
                    kernels.push(p.kernel);
                    waiters.push((p.enq, p.ticket, queue_ns));
                }
                let handle = pool
                    .submit(move || run_batch(kernels))
                    .expect("pool outlives the dispatcher");
                // `outcome` (not `wait`) so a panicking kernel cannot
                // take the dispatcher — and every waiter — down with it.
                let out = handle.outcome();
                for (w, msg) in &out.panics {
                    eprintln!("serve: kernel panicked on worker {w}: {msg}");
                }
                let service_ns = out.report.makespan;
                workers_active.fetch_max(out.report.workers_active, Ordering::Relaxed);
                for (enq, ticket, queue_ns) in waiters {
                    ticket.complete(TicketDone {
                        queue_ns,
                        service_ns,
                        latency_ns: enq.elapsed().as_nanos() as u64,
                        batch: size,
                    });
                }
                // After the replies: this takes the admission lock, which
                // must not sit on a request's latency.
                adm.observe_drain(service_ns, size);
            }
        });

        match spec.mode {
            LoadMode::Closed => {
                // One thread per client, each keeping one request
                // outstanding, thinking between completions.
                let streams = per_client(spec, &schedule);
                let mut clients = Vec::with_capacity(streams.len());
                for stream in streams {
                    let adm = &adm;
                    let outcomes = &outcomes;
                    clients.push(scope.spawn(move || {
                        for r in &stream {
                            if r.think_ns > 0 {
                                std::thread::sleep(Duration::from_nanos(r.think_ns));
                            }
                            let out = submit_and_wait(adm, spec, r);
                            outcomes.lock().expect("outcomes poisoned")[r.id as usize] = out;
                        }
                    }));
                }
                for c in clients {
                    c.join().expect("client thread panicked");
                }
            }
            LoadMode::Open => {
                // One pacing thread replays the absolute arrival times;
                // admitted requests are awaited on a second pass so the
                // arrival process never blocks on service.
                let pacer = scope.spawn(|| {
                    let mut waits: Vec<(usize, Arc<Ticket>)> = Vec::new();
                    for r in &schedule {
                        let target = Duration::from_nanos(r.arrival_ns);
                        let elapsed = t0.elapsed();
                        if target > elapsed {
                            std::thread::sleep(target - elapsed);
                        }
                        let kernel = native_kernel(r.algo, r.n, r.seed)
                            .unwrap_or_else(|| panic!("{:?} validated as natively served", r.algo));
                        let ticket = Arc::new(Ticket::default());
                        let arrival_ns = adm.now_ns();
                        // Open-loop arrivals are pre-scheduled: a full
                        // queue is a hard rejection, never a deferral
                        // (sleeping here would distort later arrivals).
                        let admitted = adm
                            .submit(Pending {
                                idx: r.id as usize,
                                kernel,
                                enq: Instant::now(),
                                ticket: Arc::clone(&ticket),
                            })
                            .is_ok();
                        if !admitted {
                            count_rejected();
                        }
                        let mut slots = outcomes.lock().expect("outcomes poisoned");
                        slots[r.id as usize].arrival_ns = arrival_ns;
                        slots[r.id as usize].rejected = !admitted;
                        drop(slots);
                        if admitted {
                            waits.push((r.id as usize, ticket));
                        }
                    }
                    for (idx, ticket) in waits {
                        let d = ticket.wait();
                        let mut slots = outcomes.lock().expect("outcomes poisoned");
                        slots[idx].queue_ns = d.queue_ns;
                        slots[idx].service_ns = d.service_ns;
                        slots[idx].latency_ns = d.latency_ns;
                        slots[idx].batch = d.batch;
                    }
                });
                pacer.join().expect("pacing thread panicked");
            }
        }

        adm.close();
        dispatcher.join().expect("dispatcher panicked");
    });

    let makespan = t0.elapsed().as_nanos() as u64;
    let depth = std::mem::take(&mut adm.state.lock().expect("admission poisoned").depth);
    let slots = outcomes.into_inner().expect("outcomes poisoned");
    let rows: Vec<RequestRecord> = schedule
        .iter()
        .map(|r| {
            let s = &slots[r.id as usize];
            RequestRecord {
                id: r.id,
                client: r.client,
                algo: r.algo,
                n: r.n,
                arrival_ns: s.arrival_ns,
                rejected: s.rejected,
                deferrals: s.deferrals,
                queue_ns: s.queue_ns,
                service_ns: s.service_ns,
                latency_ns: s.latency_ns,
                batch: s.batch,
                // Exact critical paths need virtual-clock traces; the
                // native report keeps the field honest with `None`.
                cp: None,
            }
        })
        .collect();
    drop(pool);
    ScenarioReport::assemble(
        spec,
        "native",
        rows,
        makespan,
        depth,
        workers_active.into_inner(),
    )
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
            clients: 4,
            mode: LoadMode::Closed,
            queue_cap: 64,
            batch_max: 8,
            small_n: 4096,
            think_mean_ns: 0,
            mix: default_mix(Backend::Native),
            backend: Backend::Native,
            policy: Policy::Rws { seed: 1 },
            workers: 2,
            pacing: false,
            native: hbp_core::sched::native::NativeConfig::default(),
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
