//! The admission desk: every *decision* of the job server, as one
//! clock-free, thread-free state machine that both drivers run.
//!
//! The desk owns the bounded queue, the batching rule, the
//! defer-or-reject rule, the drain estimate behind `RetryAfter` hints,
//! the single launch slot (one `NativePool` serializes kernel launches),
//! the queue-depth samples, the `admission_*` metric bumps and the
//! per-request rows. A driver supplies what the desk cannot know: the
//! time (`now`, in its own unit), a payload `P` to carry through the
//! queue, how long a launch took, and a hint fallback for the time before
//! the first launch completed. [`virt`](crate::virt) calls it from an
//! event heap in integer virtual time; [`server`](crate::server) puts it
//! behind one mutex taken by real client threads when they arrive and by
//! the pool's driver when a launch ends — whoever finds or frees the
//! launch slot starts the next launch, no thread sits in between — so the
//! sim report is the exact model of the native server by construction,
//! not by keeping two copies in step.

use std::collections::VecDeque;

use crate::gen::Request;
use crate::report::{CpTotals, RequestRecord, ScenarioReport};
use crate::spec::{LoadMode, ScenarioSpec, MAX_DEFERRALS};

/// The desk's answer to an arriving request.
pub(crate) enum Arrival<P> {
    /// Queued; a later [`Desk::next_launch`] hands the payload back.
    Admitted,
    /// The queue is full and the client paces: offer the *same* payload
    /// again `hint_ns` from now. The hint is the estimated time until the
    /// queue has room — `(depth + 1 − cap) ×` the per-request drain time.
    Deferred { hint_ns: u64, payload: P },
    /// The queue is full: rejected and counted, never silently dropped.
    Rejected,
}

/// An admitted request waiting for a launch.
struct Queued<P> {
    idx: usize,
    enq_ns: u64,
    payload: P,
}

/// The server's state (see module docs). `P` is whatever the driver
/// attaches to a queued request.
pub(crate) struct Desk<P> {
    /// The scenario's own copy: a native launch carries the desk onto the
    /// pool's driver, past any borrow of the caller's spec.
    spec: ScenarioSpec,
    queue: VecDeque<Queued<P>>,
    /// The launch in flight: (schedule index, admission time) per member.
    flying: Vec<(usize, u64)>,
    est: DrainEstimate,
    depth: Vec<(u64, usize)>,
    /// One row per scheduled request, filled in as its fate unfolds.
    rows: Vec<RequestRecord>,
    launches: u64,
    batched_requests: u64,
}

impl<P> Desk<P> {
    pub(crate) fn new(spec: &ScenarioSpec, schedule: &[Request]) -> Self {
        let rows = schedule
            .iter()
            .map(|r| RequestRecord {
                id: r.id,
                client: r.client,
                algo: r.algo,
                n: r.n,
                arrival_ns: 0,
                rejected: false,
                deferrals: 0,
                queue_ns: 0,
                service_ns: 0,
                latency_ns: 0,
                batch: 0,
                cp: None,
            })
            .collect();
        Self {
            spec: spec.clone(),
            queue: VecDeque::new(),
            flying: Vec::new(),
            est: DrainEstimate::default(),
            depth: vec![(0, 0)],
            rows,
            launches: 0,
            batched_requests: 0,
        }
    }

    /// Request `idx` of the schedule arrives (or, after a deferral,
    /// re-arrives) at `now`. `fallback_ns` is the per-request drain time
    /// a hint assumes while no launch has completed yet; it is evaluated
    /// only then.
    pub(crate) fn arrive(
        &mut self,
        idx: usize,
        now: u64,
        payload: P,
        fallback_ns: impl FnOnce() -> u64,
    ) -> Arrival<P> {
        let row = &mut self.rows[idx];
        if row.deferrals == 0 {
            // First attempt; re-arrivals of a deferred request keep the
            // original arrival stamp.
            row.arrival_ns = now;
        }
        if self.queue.len() < self.spec.queue_cap {
            self.queue.push_back(Queued {
                idx,
                enq_ns: now,
                payload,
            });
            self.depth.push((now, self.queue.len()));
            return Arrival::Admitted;
        }
        let m = hbp_core::metrics::global();
        // Only closed-loop clients pace: open-loop arrivals are
        // pre-scheduled, and waiting would distort the later ones.
        if self.spec.pacing && self.spec.mode == LoadMode::Closed && row.deferrals < MAX_DEFERRALS {
            row.deferrals += 1;
            if m.on() {
                m.admission_deferred.inc();
            }
            let backlog = (self.queue.len() + 1 - self.spec.queue_cap) as u64;
            Arrival::Deferred {
                hint_ns: self.est.hint(backlog, fallback_ns),
                payload,
            }
        } else {
            row.rejected = true;
            if m.on() {
                m.admission_rejected.inc();
            }
            Arrival::Rejected
        }
    }

    /// Start the next launch at `now` if the launch slot is free and work
    /// is queued: the members' schedule indices and payloads, empty
    /// otherwise. The members stay in flight until [`Desk::served`].
    pub(crate) fn next_launch(&mut self, now: u64) -> Vec<(usize, P)> {
        if !self.flying.is_empty() {
            return Vec::new();
        }
        let rows = &self.rows;
        let batch = pop_launch(&self.spec, &mut self.queue, |q| rows[q.idx].n);
        if batch.is_empty() {
            return Vec::new();
        }
        let size = batch.len();
        self.depth.push((now, self.queue.len()));
        self.launches += 1;
        if size > 1 {
            self.batched_requests += size as u64;
        }
        batch
            .into_iter()
            .map(|q| {
                self.rows[q.idx].queue_ns = now - q.enq_ns;
                self.rows[q.idx].batch = size;
                self.flying.push((q.idx, q.enq_ns));
                (q.idx, q.payload)
            })
            .collect()
    }

    /// The launch in flight completed at `now` after `service_ns` (its
    /// makespan, shared by the members); `cp` gives a member's critical
    /// path where the driver has one. Frees the launch slot and returns
    /// the members' schedule indices.
    pub(crate) fn served(
        &mut self,
        service_ns: u64,
        now: u64,
        mut cp: impl FnMut(usize) -> Option<CpTotals>,
    ) -> Vec<usize> {
        self.est.observe(service_ns, self.flying.len());
        self.flying
            .drain(..)
            .map(|(idx, enq_ns)| {
                let row = &mut self.rows[idx];
                row.service_ns = service_ns;
                row.latency_ns = now - enq_ns;
                row.cp = cp(idx);
                idx
            })
            .collect()
    }

    /// Nothing queued and nothing in flight. Every caller pairs `arrive`
    /// and `served` with `next_launch`, so work is never queued behind a
    /// free slot and a desk that is idle once its arrivals ended stays so.
    pub(crate) fn idle(&self) -> bool {
        self.flying.is_empty() && self.queue.is_empty()
    }

    /// Close the books: every request was served or rejected by now.
    pub(crate) fn finish(
        self,
        backend: &'static str,
        makespan_ns: u64,
        workers_active: usize,
    ) -> ScenarioReport {
        debug_assert!(
            self.rows.iter().all(|r| r.rejected || r.batch >= 1),
            "a request neither completed nor was rejected"
        );
        ScenarioReport::assemble(
            &self.spec,
            backend,
            self.rows,
            makespan_ns,
            self.depth,
            workers_active,
            self.launches,
            self.batched_requests,
        )
    }
}

/// Whether a request of size `n` is eligible for a shared launch.
fn batchable(spec: &ScenarioSpec, n: usize) -> bool {
    spec.batch_max > 1 && n <= spec.small_n
}

/// Pop the next launch off an admission queue: the head and, when the
/// head is [`batchable`], the consecutive batchable entries behind it up
/// to `spec.batch_max`. `n_of` gives an entry's problem size. Empty only
/// when the queue is.
fn pop_launch<T>(
    spec: &ScenarioSpec,
    queue: &mut VecDeque<T>,
    n_of: impl Fn(&T) -> usize,
) -> Vec<T> {
    let Some(head) = queue.pop_front() else {
        return Vec::new();
    };
    let mut batch = vec![head];
    if batchable(spec, n_of(&batch[0])) {
        while batch.len() < spec.batch_max {
            match queue.front() {
                Some(m) if batchable(spec, n_of(m)) => batch.extend(queue.pop_front()),
                _ => break,
            }
        }
    }
    batch
}

/// EWMA of the per-request drain time (ns) — the basis of the
/// `RetryAfter` hint a full desk answers with.
#[derive(Debug, Clone, Copy, Default)]
struct DrainEstimate {
    /// 0 until the first launch completes.
    est_ns: u64,
}

impl DrainEstimate {
    /// Fold in one completed launch (service time ÷ batch size): the
    /// first sample is adopted, later ones blend in 3:1.
    fn observe(&mut self, service_ns: u64, batch: usize) {
        let per_req = (service_ns / batch.max(1) as u64).max(1);
        self.est_ns = if self.est_ns == 0 {
            per_req
        } else {
            (3 * self.est_ns + per_req) / 4
        };
    }

    /// Estimated ns until a queue `backlog` requests over capacity has
    /// room: `backlog ×` the drain estimate, or `× fallback_ns()` while
    /// no launch has completed yet (only then is it evaluated).
    fn hint(&self, backlog: u64, fallback_ns: impl FnOnce() -> u64) -> u64 {
        let per_req = if self.est_ns > 0 {
            self.est_ns
        } else {
            fallback_ns().max(1)
        };
        backlog * per_req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::build_schedule;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            requests: 8,
            clients: 2,
            queue_cap: 2,
            batch_max: 4,
            think_mean_ns: 0,
            pacing: true,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn pop_launch_takes_the_head_plus_its_batchable_prefix() {
        let s = spec(); // batch_max 4, small_n 4096
        let pop = |sizes: &[usize]| {
            let mut q: VecDeque<usize> = sizes.iter().copied().collect();
            (pop_launch(&s, &mut q, |&n| n), q.len())
        };
        assert_eq!(pop(&[]), (vec![], 0));
        // A large head launches alone, whatever follows it.
        assert_eq!(pop(&[8192, 64, 64]), (vec![8192], 2));
        // A small head takes small followers up to the first large one…
        assert_eq!(pop(&[64, 128, 8192, 64]), (vec![64, 128], 2));
        // …and never more than batch_max.
        assert_eq!(pop(&[1, 2, 3, 4, 5, 6]), (vec![1, 2, 3, 4], 2));
    }

    #[test]
    fn drain_estimate_adopts_the_first_sample_then_blends() {
        let mut est = DrainEstimate::default();
        assert_eq!(est.hint(3, || 1_000), 3_000, "fallback before any launch");
        est.observe(8_000, 4);
        assert_eq!(est.hint(1, || panic!("fallback unused once warm")), 2_000);
        est.observe(6_000, 1);
        assert_eq!(est.hint(2, || 0), 2 * 3_000, "(3 * 2000 + 6000) / 4");
    }

    #[test]
    fn a_full_desk_hands_the_payload_back_and_keeps_the_first_arrival_stamp() {
        let s = spec(); // cap 2, pacing closed loop
        let schedule = build_schedule(&s);
        let mut desk: Desk<&str> = Desk::new(&s, &schedule);
        assert!(matches!(desk.arrive(0, 10, "a", || 0), Arrival::Admitted));
        assert!(matches!(desk.arrive(1, 11, "b", || 0), Arrival::Admitted));
        // Full: deferred up to MAX_DEFERRALS times with the payload
        // returned, the hint from the fallback while nothing has drained.
        for attempt in 0..MAX_DEFERRALS as u64 {
            match desk.arrive(2, 20 + attempt, "c", || 500) {
                Arrival::Deferred { hint_ns, payload } => {
                    assert_eq!((hint_ns, payload), (500, "c"));
                }
                _ => panic!("attempt {attempt} must defer"),
            }
        }
        assert!(matches!(desk.arrive(2, 30, "c", || 500), Arrival::Rejected));
        let row = &desk.rows[2];
        assert_eq!(
            (row.arrival_ns, row.deferrals, row.rejected),
            (20, MAX_DEFERRALS, true),
            "re-arrivals keep the first stamp"
        );
    }

    #[test]
    fn launches_are_counted_where_they_happen_and_one_flies_at_a_time() {
        let s = ScenarioSpec {
            requests: 7,
            queue_cap: 8,
            mix: vec![crate::spec::MixEntry {
                algo: "Scans (M-Sum)".into(),
                weight: 1,
                sizes: vec![1024], // every request batchable
            }],
            ..spec()
        };
        let schedule = build_schedule(&s);
        let mut desk: Desk<()> = Desk::new(&s, &schedule);
        for idx in 0..6 {
            desk.arrive(idx, idx as u64, (), || 0);
        }
        assert_eq!(desk.next_launch(10).len(), 4, "batch_max bounds the launch");
        assert!(desk.next_launch(11).is_empty(), "the launch slot is taken");
        assert_eq!(desk.served(100, 110, |_| None), vec![0, 1, 2, 3]);
        assert_eq!(desk.next_launch(110).len(), 2);
        desk.served(80, 190, |_| None);
        desk.arrive(6, 200, (), || 0);
        assert_eq!(desk.next_launch(200).len(), 1);
        desk.served(50, 250, |_| None);
        assert!(desk.next_launch(250).is_empty(), "nothing queued");
        let report = desk.finish("sim", 250, 1);
        assert_eq!(
            (report.completed, report.launches, report.batched_requests),
            (7, 3, 6)
        );
        let row = &report.rows[1];
        assert_eq!(
            (row.queue_ns, row.service_ns, row.latency_ns, row.batch),
            (9, 100, 109, 4)
        );
    }
}
