//! The virtual-time scenario driver (sim backend).
//!
//! A discrete-event simulation of the server: the same admission
//! `Desk` the native server runs, driven from an event heap instead of
//! threads. This file owns only the events (arrivals, re-arrivals of
//! deferred requests, launch completions) and the service oracle: each
//! request's *service time* is the kernel's virtual-time makespan under
//! the scenario policy, measured once per (algo, n) shape by replaying
//! the kernel on the simulated machine. The same replay gives the
//! shape's critical-path split (work, steal charges, queue wait), which
//! the engine keeps as it runs
//! ([`hbp_core::ExecSession::run_with_critical_path`]): no trace is
//! recorded, collected or walked, so a shape costs one untraced run.
//!
//! The oracle is a table built up front, before the first event: a
//! request's kernel seed depends on its shape alone, so the schedule's
//! distinct shapes are independent simulations. They run concurrently,
//! largest `n` first, on one scoped thread per available core (at most
//! one per shape), and the event loop only looks them up. Every entry is
//! the same computation on any thread count, so the report's bytes do
//! not depend on the host's cores.
//!
//! A deferred client "sleeps" as a re-arrival event at `now + hint`; it
//! stays blocked meanwhile, exactly like a sleeping native client
//! thread. Everything is integer virtual time off one seeded schedule,
//! so the same spec yields a byte-identical report.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::thread;

use hbp_core::{Config, ExecJob, MachineConfig};

use crate::desk::{Arrival, Desk};
use crate::gen::{build_schedule, Request};
use crate::report::{CpTotals, ScenarioReport};
use crate::spec::{LoadMode, ScenarioSpec};

/// The virtual service time and critical path of every request shape
/// of one schedule, measured before the first event (see module docs).
struct ServiceOracle {
    table: HashMap<(&'static str, usize), (u64, CpTotals)>,
}

impl ServiceOracle {
    /// Measure each distinct (algo, n) shape of `schedule` once, largest
    /// `n` first, on `threads` scoped threads that share one cursor
    /// (inline when `threads` is 1). A shape that fails panics with its
    /// own message, whichever thread measured it.
    fn build(spec: &ScenarioSpec, schedule: &[Request], threads: usize) -> Self {
        // The scenario's policy on its core count, with the workspace's
        // default cache (4K words, 32-word blocks).
        let session =
            Config::new()
                .policy(spec.policy)
                .open(MachineConfig::new(spec.workers, 1 << 12, 32));
        let mut seen = HashSet::new();
        let mut shapes: Vec<&Request> = schedule
            .iter()
            .filter(|r| seen.insert((r.algo, r.n)))
            .collect();
        shapes.sort_by_key(|r| Reverse(r.n));
        let threads = threads.min(shapes.len());
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut part = Vec::new();
            while let Some(&r) = shapes.get(cursor.fetch_add(1, Relaxed)) {
                let (report, cp) = session
                    .run_with_critical_path(&ExecJob::new(r.algo, r.n, r.seed))
                    .unwrap_or_else(|e| {
                        panic!("oracle cannot build {:?} (n={}): {e}", r.algo, r.n)
                    });
                part.push(((r.algo, r.n), (report.makespan, cp)));
            }
            part
        };
        let table = if threads <= 1 {
            worker().into_iter().collect()
        } else {
            // `resume_unwind` re-raises a helper's panic with its own
            // message, where `unwrap` would print `Any { .. }`.
            thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                    .collect()
            })
        };
        Self { table }
    }

    fn measure(&self, r: &Request) -> (u64, CpTotals) {
        self.table[&(r.algo, r.n)]
    }
}

/// What an agenda entry does when it pops.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    /// Request `idx` of the schedule arrives at the server.
    Arrive(usize),
    /// The in-flight launch completes, this long after it started.
    Done(u64),
}

/// The pending events as `(time, insertion seq, kind)`, earliest first:
/// the seq tiebreak makes simultaneous events pop in insertion order, and
/// since `(time, seq)` is unique the kind is never compared.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Reverse<(u64, u64, EvKind)>>,
    seq: u64,
}

impl Agenda {
    fn push(&mut self, t: u64, kind: EvKind) {
        self.heap.push(Reverse((t, self.seq, kind)));
        self.seq += 1;
    }
}

/// Run the scenario in virtual time (see module docs).
pub fn run_virtual(spec: &ScenarioSpec) -> ScenarioReport {
    let schedule = build_schedule(spec);
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    let oracle = ServiceOracle::build(spec, &schedule, threads);
    let mut desk: Desk<()> = Desk::new(spec, &schedule);
    let mut agenda = Agenda::default();

    // Per-client streams: the closed loop feeds each client its next
    // request a think time after the previous one finishes (or is
    // rejected — a stalled client would deadlock the scenario). Open-loop
    // arrivals are all on the agenda up front and the streams stay empty.
    let mut streams: Vec<VecDeque<usize>> = vec![VecDeque::new(); spec.clients];
    if spec.mode == LoadMode::Closed {
        for r in &schedule {
            streams[r.client].push_back(r.id as usize);
        }
    }
    let mut next_for_client = |agenda: &mut Agenda, client: usize, now: u64| {
        if let Some(next) = streams[client].pop_front() {
            agenda.push(now + schedule[next].think_ns, EvKind::Arrive(next));
        }
    };
    match spec.mode {
        LoadMode::Open => {
            for r in &schedule {
                agenda.push(r.arrival_ns, EvKind::Arrive(r.id as usize));
            }
        }
        LoadMode::Closed => {
            for client in 0..spec.clients {
                next_for_client(&mut agenda, client, 0);
            }
        }
    }

    let mut makespan = 0u64;
    while let Some(Reverse((now, _, kind))) = agenda.heap.pop() {
        makespan = makespan.max(now);
        match kind {
            EvKind::Arrive(idx) => {
                let r = &schedule[idx];
                // Until the first launch completes, a hint falls back to
                // the arriving request's own oracle service time (the
                // native side to a fixed seed).
                match desk.arrive(idx, now, (), || oracle.measure(r).0) {
                    Arrival::Admitted => {}
                    Arrival::Deferred { hint_ns, .. } => {
                        agenda.push(now + hint_ns, EvKind::Arrive(idx));
                    }
                    Arrival::Rejected => next_for_client(&mut agenda, r.client, now),
                }
            }
            EvKind::Done(service) => {
                let cp = |idx: usize| Some(oracle.measure(&schedule[idx]).1);
                for idx in desk.served(service, now, cp) {
                    next_for_client(&mut agenda, schedule[idx].client, now);
                }
            }
        }
        // Launch whenever the slot frees up and work is queued. A shared
        // launch's makespan is its slowest member's.
        let launch = desk.next_launch(now);
        if let Some(service) = launch
            .iter()
            .map(|&(idx, ())| oracle.measure(&schedule[idx]).0)
            .max()
        {
            agenda.push(now + service, EvKind::Done(service));
        }
    }

    // The single-launch-slot model engages every simulated core per
    // launch — workers_active is the configured core count.
    desk.finish("sim", makespan, spec.workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 11,
            requests: 40,
            queue_cap: 16,
            batch_max: 4,
            think_mean_ns: 50,
            workers: 4,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    #[should_panic(expected = "oracle cannot build \"No such kernel\" (n=64)")]
    fn a_shape_that_fails_on_a_helper_thread_keeps_its_message() {
        let request = |id, algo, n| Request {
            id,
            client: 0,
            algo,
            n,
            seed: 7,
            arrival_ns: 0,
            think_ns: 0,
        };
        let schedule = [
            request(0, "Scans (M-Sum)", 256),
            request(1, "No such kernel", 64),
            request(2, "Scans (M-Sum)", 128),
        ];
        ServiceOracle::build(&small_spec(), &schedule, 2);
    }

    #[test]
    fn the_oracle_table_does_not_depend_on_the_thread_count() {
        let default_sim = ScenarioSpec {
            mix: crate::spec::default_mix(hbp_core::Backend::Sim),
            backend: hbp_core::Backend::Sim,
            ..ScenarioSpec::default()
        };
        for spec in [small_spec(), default_sim] {
            let schedule = build_schedule(&spec);
            let one = ServiceOracle::build(&spec, &schedule, 1).table;
            assert_eq!(one.len(), 8, "every shape of the mix is requested");
            for threads in [2, 8] {
                let many = ServiceOracle::build(&spec, &schedule, threads).table;
                assert_eq!(many, one, "{threads} threads");
            }
        }
    }

    #[test]
    fn closed_loop_serves_every_request_deterministically() {
        let spec = small_spec();
        let a = run_virtual(&spec);
        let b = run_virtual(&spec);
        assert_eq!(a.completed, 40);
        assert_eq!(a.rejected, 0);
        assert_eq!(a.to_json(), b.to_json(), "same seed, same bytes");
        assert!(a.latency.p50 > 0 && a.latency.p99 >= a.latency.p95);
        assert!(a.rows.iter().all(|r| r.cp.is_some()));
        for r in &a.rows {
            let cp = r.cp.expect("sim rows carry a critical path");
            assert_eq!(cp.total, cp.work + cp.steal + cp.queue_wait);
            assert!(cp.total <= r.service_ns, "path cannot exceed the launch");
        }
    }

    #[test]
    fn open_loop_with_tiny_queue_rejects_and_counts() {
        let mut spec = small_spec();
        spec.mode = LoadMode::Open;
        spec.queue_cap = 1;
        spec.think_mean_ns = 1; // near-simultaneous arrivals swamp the queue
        let report = run_virtual(&spec);
        assert!(report.rejected > 0, "tiny queue under burst must reject");
        assert_eq!(report.completed + report.rejected, 40);
        let rejected_rows = report.rows.iter().filter(|r| r.rejected).count() as u64;
        assert_eq!(rejected_rows, report.rejected);
    }

    #[test]
    fn pacing_defers_deterministically_and_cuts_hard_rejections() {
        // Same offered load, tiny queue: the pacing run must be
        // byte-stable across runs, count its deferrals, and hard-reject
        // strictly less than the reject-only run.
        let mut spec = small_spec();
        spec.clients = 8;
        spec.queue_cap = 1;
        spec.think_mean_ns = 1;
        let hard = run_virtual(&spec);
        assert!(hard.rejected > 0, "baseline must actually reject");
        assert_eq!(hard.deferred, 0, "no pacing, no deferrals");
        spec.pacing = true;
        let paced = run_virtual(&spec);
        assert_eq!(paced.to_json(), run_virtual(&spec).to_json());
        assert!(paced.deferred > 0, "full queue must surface deferrals");
        assert!(
            paced.rejected < hard.rejected,
            "pacing must cut hard rejections: {} vs {}",
            paced.rejected,
            hard.rejected
        );
        assert_eq!(paced.completed + paced.rejected, 40);
        // Deferred-then-completed rows exist and carry their count.
        assert!(paced.rows.iter().any(|r| !r.rejected && r.deferrals > 0));
    }

    #[test]
    fn batching_shares_launches_for_small_requests() {
        let mut spec = small_spec();
        spec.mode = LoadMode::Open;
        spec.think_mean_ns = 1; // deep backlog => batches form
        let report = run_virtual(&spec);
        assert!(
            report.batched_requests > 0,
            "burst of small requests must share launches"
        );
        assert!(report.launches < report.completed);
        // Batch members share service time.
        for r in report.rows.iter().filter(|r| r.batch > 1) {
            assert!(r.latency_ns >= r.service_ns);
        }
    }

    #[test]
    fn batching_disabled_means_solo_launches() {
        let mut spec = small_spec();
        spec.batch_max = 1;
        let report = run_virtual(&spec);
        assert!(report.rows.iter().all(|r| r.rejected || r.batch == 1));
        assert_eq!(report.launches, report.completed);
    }
}
