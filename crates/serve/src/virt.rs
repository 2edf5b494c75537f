//! The virtual-time scenario driver (sim backend).
//!
//! A discrete-event simulation of the server: the same admission
//! `Desk` the native server runs, driven from an event heap instead of
//! threads. This file owns only the events (arrivals, re-arrivals of
//! deferred requests, launch completions) and the service oracle: each
//! request's *service time* is the kernel's virtual-time makespan under
//! the scenario policy, measured once per (algo, n) shape by replaying
//! the kernel on the simulated machine. A deferred client "sleeps" as a
//! re-arrival event at `now + hint`; it stays blocked meanwhile, exactly
//! like a sleeping native client thread. Everything is integer virtual
//! time off one seeded schedule, so the same spec yields a
//! byte-identical report.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use hbp_core::trace::{critical_path, TraceSink};
use hbp_core::{Config, ExecJob, ExecSession, MachineConfig};

use crate::desk::{Arrival, Desk};
use crate::gen::{build_schedule, Request};
use crate::report::{CpTotals, ScenarioReport};
use crate::spec::{LoadMode, ScenarioSpec};

/// Simulated-machine geometry for the service oracle: the scenario's
/// core count on the workspace's default cache (4K words, 32-word
/// blocks).
fn oracle_machine(spec: &ScenarioSpec) -> MachineConfig {
    MachineConfig::new(spec.workers, 1 << 12, 32)
}

/// Measures (once per request shape) the virtual service time and
/// critical path of a kernel launch.
struct ServiceOracle {
    session: ExecSession,
    cache: HashMap<(&'static str, usize), (u64, CpTotals)>,
}

impl ServiceOracle {
    fn new(spec: &ScenarioSpec) -> Self {
        Self {
            session: Config::new().policy(spec.policy).open(oracle_machine(spec)),
            cache: HashMap::new(),
        }
    }

    fn measure(&mut self, r: &Request) -> (u64, CpTotals) {
        if let Some(&hit) = self.cache.get(&(r.algo, r.n)) {
            return hit;
        }
        let session = &self.session;
        let sink = Arc::new(TraceSink::new(session.workers(), session.clock_domain()));
        let entry = measure_into(session, r, &sink);
        self.cache.insert((r.algo, r.n), entry);
        entry
    }
}

/// One traced launch of `r` recorded into `sink`: its makespan and the
/// totals of its critical path.
fn measure_into(session: &ExecSession, r: &Request, sink: &Arc<TraceSink>) -> (u64, CpTotals) {
    let report = session
        .submit_traced(&ExecJob::new(r.algo, r.n, r.seed), sink)
        .expect("the sim backend admits everything")
        .wait()
        .unwrap_or_else(|e| panic!("oracle cannot build {:?} (n={}): {e}", r.algo, r.n));
    let cp = critical_path(&sink.collect()).unwrap_or_else(|e| {
        panic!(
            "oracle cannot extract the critical path of {} n={}: {e}",
            r.algo, r.n
        )
    });
    (
        report.makespan,
        CpTotals {
            total: cp.total,
            work: cp.work,
            steal: cp.steal,
            queue_wait: cp.queue_wait,
        },
    )
}

/// A heap event. Ordering is (time, insertion seq) — the seq tiebreak
/// makes simultaneous events process in a deterministic order.
struct Ev {
    t: u64,
    seq: u64,
    kind: EvKind,
}

enum EvKind {
    /// Request `idx` of the schedule arrives at the server.
    Arrive(usize),
    /// The in-flight launch completes, this long after it started.
    Done(u64),
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (t, seq) pops
        // first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// The pending events, stamped in insertion order.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Ev>,
    seq: u64,
}

impl Agenda {
    fn push(&mut self, t: u64, kind: EvKind) {
        self.heap.push(Ev {
            t,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }
}

/// Run the scenario in virtual time (see module docs).
pub fn run_virtual(spec: &ScenarioSpec) -> ScenarioReport {
    let schedule = build_schedule(spec);
    let mut oracle = ServiceOracle::new(spec);
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
    while let Some(ev) = agenda.heap.pop() {
        let now = ev.t;
        makespan = makespan.max(now);
        match ev.kind {
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
    #[should_panic(
        expected = "oracle cannot extract the critical path of Sort (SPMS) n=512: trace lost events to ring overflow"
    )]
    fn an_overflowed_trace_ring_is_reported_as_such_with_the_shape() {
        let spec = ScenarioSpec {
            mix: vec![crate::spec::MixEntry {
                algo: "Sort (SPMS)".into(),
                weight: 1,
                sizes: vec![512],
            }],
            ..small_spec()
        };
        let oracle = ServiceOracle::new(&spec);
        let session = &oracle.session;
        let tiny = TraceSink::with_capacity(session.workers(), session.clock_domain(), 16);
        measure_into(session, &build_schedule(&spec)[0], &Arc::new(tiny));
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
