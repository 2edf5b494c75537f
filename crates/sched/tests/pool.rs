//! Behavioural tests of the persistent [`NativePool`]: spawn-once /
//! serve-forever lifetime, shutdown idempotence, exactly-once report
//! delivery under concurrent clients, per-job trace isolation, one task
//! per steal, and the park protocol (a leaf-only job wakes no thief, the
//! first fork does, and no wake-up is lost under a storm).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbp_sched::native::{join, NativeConfig, NativePool, SubmitError};
use hbp_trace::{ClockDomain, EventKind, TraceSink};

/// Recursive join-based sum (same shape as the `native.rs` suite).
fn spin_sum(xs: &[u64], leaf: usize) -> u64 {
    if xs.len() <= leaf {
        let mut acc = 0u64;
        for _ in 0..50 {
            for &x in xs {
                acc = acc.wrapping_add(x).rotate_left(7) ^ x;
            }
        }
        let _ = std::hint::black_box(acc);
        return xs.iter().sum();
    }
    let (l, r) = xs.split_at(xs.len() / 2);
    let (a, b) = join(|| spin_sum(l, leaf), || spin_sum(r, leaf));
    a + b
}

fn cfg(workers: usize, seed: u64) -> NativeConfig {
    NativeConfig { workers, seed }
}

#[test]
fn one_pool_serves_many_jobs_without_respawning() {
    let pool = NativePool::new(cfg(4, 11));
    for i in 0..16u64 {
        let xs: Vec<u64> = (0..1 << 10).map(|x| x + i).collect();
        let want: u64 = xs.iter().sum();
        let (got, r) = pool
            .submit(move || spin_sum(&xs, 32))
            .expect("live pool accepts jobs")
            .wait();
        assert_eq!(got, want, "job {i}");
        // Per-job reports are counter *deltas*: every job sees its own
        // task count, not the pool's running total.
        assert_eq!(r.work, (1u64 << 10) / 32, "job {i} report is per-job");
        assert_eq!(r.p, 4);
        assert!(
            (1..=4).contains(&r.workers_active),
            "job {i}: peak participation {} outside the fixed pool",
            r.workers_active
        );
    }
}

#[test]
fn shutdown_twice_is_idempotent_and_does_not_hang() {
    let mut pool = NativePool::new(cfg(3, 5));
    let (got, _) = pool
        .submit(|| 6 * 7)
        .expect("accepts before shutdown")
        .wait();
    assert_eq!(got, 42);
    pool.shutdown();
    pool.shutdown(); // regression: second call must be a no-op, not a double-join
    assert!(matches!(pool.submit(|| 0), Err(SubmitError::ShutDown)));
}

#[test]
fn drop_with_queued_jobs_drains_them() {
    // Dropping a pool with a backlog must neither hang nor abandon
    // accepted jobs: shutdown drains the queue, then joins.
    let pool = NativePool::new(cfg(2, 23));
    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            let xs: Vec<u64> = (0..512).map(|x| x ^ i).collect();
            pool.submit(move || spin_sum(&xs, 64)).expect("accepted")
        })
        .collect();
    drop(pool); // implicit shutdown with jobs still queued
    for (i, h) in handles.into_iter().enumerate() {
        let xs: Vec<u64> = (0..512).map(|x| x ^ i as u64).collect();
        let (got, _) = h.wait();
        assert_eq!(got, xs.iter().sum::<u64>(), "queued job {i} still ran");
    }
}

#[test]
fn concurrent_clients_each_get_every_report_exactly_once() {
    // Acceptance shape: one pool, ≥4 concurrent clients, many mixed
    // jobs, every handle resolves exactly once with the right value.
    let pool = Arc::new(NativePool::new(cfg(4, 31)));
    let clients = 4;
    let jobs_per_client = 64u64;
    let mut threads = Vec::new();
    for c in 0..clients {
        let pool = Arc::clone(&pool);
        threads.push(std::thread::spawn(move || {
            let mut total_work = 0u64;
            for j in 0..jobs_per_client {
                let n = 256 << (j % 3); // mixed sizes
                let xs: Vec<u64> = (0..n).map(|x| x * (c as u64 + 1) + j).collect();
                let want: u64 = xs.iter().sum();
                let (got, r) = pool
                    .submit(move || spin_sum(&xs, 64))
                    .expect("live pool accepts concurrent submissions")
                    .wait();
                assert_eq!(got, want, "client {c} job {j}");
                total_work += r.work;
            }
            total_work
        }));
    }
    let per_client: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // Work counts are structural (leaves per job), so each client's sum
    // is exact — a duplicated or lost report would break it.
    let want_per_client: u64 = (0..jobs_per_client).map(|j| (256u64 << (j % 3)) / 64).sum();
    for (c, &w) in per_client.iter().enumerate() {
        assert_eq!(w, want_per_client, "client {c} report accounting");
    }
}

#[test]
fn pool_survives_a_panicking_job_and_serves_the_next() {
    let pool = NativePool::new(cfg(4, 43));
    let outcome = pool
        .submit(|| {
            let (_, _) = join(|| 1u64, || -> u64 { panic!("bad request") });
        })
        .expect("accepted")
        .outcome();
    assert!(outcome.result.is_err(), "panic captured, not propagated");
    assert!(
        outcome
            .panics
            .iter()
            .any(|(_, m)| m.contains("bad request")),
        "panic attributed: {:?}",
        outcome.panics
    );
    // The same pool — same workers, no respawn — serves the next job.
    let xs: Vec<u64> = (0..1 << 10).collect();
    let want: u64 = xs.iter().sum();
    let (got, _) = pool
        .submit(move || spin_sum(&xs, 32))
        .expect("still live")
        .wait();
    assert_eq!(got, want);
}

#[test]
fn per_job_traces_are_isolated_and_timestamps_restart() {
    let pool = NativePool::new(cfg(4, 17));
    // Warm the pool with an untraced job first: its events must not
    // leak into the traced jobs' sinks.
    let xs: Vec<u64> = (0..1 << 10).collect();
    let warm = xs.clone();
    pool.submit(move || spin_sum(&warm, 32)).unwrap().wait();
    for round in 0..2 {
        let sink = Arc::new(TraceSink::new(4, ClockDomain::WallNs));
        let xs = xs.clone();
        let (_, r) = pool
            .submit_traced(Some(Arc::clone(&sink)), move || spin_sum(&xs, 64))
            .unwrap()
            .wait();
        let trace = sink.collect();
        let begins = trace.count(|k| matches!(k, EventKind::TaskBegin { .. }));
        let ends = trace.count(|k| matches!(k, EventKind::TaskEnd { .. }));
        assert_eq!(begins, ends, "round {round}: every begun task ends");
        assert_eq!(
            begins, r.work,
            "round {round}: sink holds exactly this job's tasks"
        );
        assert_eq!(trace.segments().unclosed, 0);
        // Timestamps are per-job, not per-pool-lifetime: the root begins
        // near zero even though the pool has been running for a while.
        let first_ts = trace
            .events
            .iter()
            .map(|e| e.t)
            .min()
            .expect("traced events");
        assert!(
            first_ts < 1_000_000_000,
            "round {round}: job-relative timestamps (first = {first_ts}ns)"
        );
    }
}

#[test]
fn every_steal_claims_exactly_one_task() {
    // The paper's schedulers move one task per steal, and so does the
    // pool, from a thief's idle loop and from a join-wait alike: every
    // `StealCommit` names one task, and a report's stolen-task count is
    // its steal count. A thief that claimed several tasks at once would
    // fail here as soon as it found three or more on a victim's deque,
    // which a depth-10 join tree offers from its first steal on.
    let pool = NativePool::new(cfg(4, 31));
    let xs: Vec<u64> = (0..1 << 14).collect();
    let want: u64 = xs.iter().sum();
    let mut commits = 0;
    for round in 0..4 {
        let sink = Arc::new(TraceSink::new(4, ClockDomain::WallNs));
        let xs = xs.clone();
        let (got, r) = pool
            .submit_traced(Some(Arc::clone(&sink)), move || spin_sum(&xs, 16))
            .unwrap()
            .wait();
        assert_eq!(got, want, "round {round}");
        let trace = sink.collect();
        for ev in &trace.events {
            if let EventKind::StealCommit { count, .. } = ev.kind {
                assert_eq!(count, 1, "round {round}: one steal claimed {count} tasks");
                commits += 1;
            }
        }
        assert_eq!(r.stolen_tasks, r.steals, "round {round}");
    }
    assert!(commits > 0, "four forking jobs on four workers never stole");
}

#[test]
fn queue_depth_reflects_backlog() {
    let pool = NativePool::new(cfg(2, 3));
    // A slow job at the head lets a backlog build up behind it.
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let head = pool
        .submit(move || {
            while !g.load(std::sync::atomic::Ordering::Acquire) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    let tail: Vec<_> = (0..4).map(|i| pool.submit(move || i).unwrap()).collect();
    // The head job may or may not have started; the backlog is ≤ 5 and,
    // once the driver picked the head up, exactly 4.
    assert!(pool.queue_depth() <= 5);
    gate.store(true, std::sync::atomic::Ordering::Release);
    head.wait();
    for (i, h) in tail.into_iter().enumerate() {
        assert_eq!(h.wait().0, i);
    }
    assert_eq!(pool.queue_depth(), 0);
}

/// Spin the calling thread for `d`, forking nothing.
fn spin_for(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A balanced join tree of `2^depth` empty leaves; returns the leaf count.
fn fan(depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = join(|| fan(depth - 1), || fan(depth - 1));
    a + b
}

#[test]
fn a_job_that_never_forks_never_engages_a_thief() {
    // Thieves park between jobs and only a job's first push wakes them,
    // so a leaf-only job runs on the driver alone. The pool idles before
    // each job, so every thief is parked when it starts (a thief still on
    // its way back from the last job joins the next one by design); one
    // job of the 20 may still meet a thief that had not parked yet.
    for workers in [2, 4] {
        let pool = NativePool::new(cfg(workers, 7));
        std::thread::sleep(Duration::from_millis(5));
        let alone = (0..20)
            .filter(|_| {
                std::thread::sleep(Duration::from_millis(1));
                let (_, r) = pool
                    .submit(|| spin_for(Duration::from_millis(2)))
                    .expect("live pool")
                    .wait();
                r.workers_active == 1 && r.steal_attempts == 0
            })
            .count();
        assert!(
            alone >= 19,
            "{workers} workers: only {alone} of 20 leaf-only jobs ran without a thief"
        );
    }
}

#[test]
fn the_first_fork_after_a_serial_prelude_wakes_parked_thieves() {
    // The left branch can only finish early if a thief steals the right
    // one, so this hangs for 10 s and fails if the fork wakes nobody.
    for workers in [2, 4] {
        let pool = NativePool::new(cfg(workers, 9));
        std::thread::sleep(Duration::from_millis(5)); // every thief parks
        let ((stolen_set_it, ()), r) = pool
            .submit(|| {
                spin_for(Duration::from_millis(2));
                let flag = AtomicBool::new(false);
                join(
                    || {
                        let t = Instant::now();
                        while !flag.load(Ordering::Acquire) {
                            if t.elapsed() > Duration::from_secs(10) {
                                return false;
                            }
                            std::hint::spin_loop();
                        }
                        true
                    },
                    || flag.store(true, Ordering::Release),
                )
            })
            .expect("live pool")
            .wait();
        assert!(
            stolen_set_it,
            "{workers} workers: no thief took the right branch within 10 s"
        );
        assert!(r.steals >= 1, "{workers} workers: {} steals", r.steals);
    }
}

#[test]
fn a_mixed_storm_delivers_every_report_exactly_once_then_shuts_down() {
    // Four submitters in seeded bursts of leaf-only jobs and 2^8-leaf
    // join trees: a lost wake-up of the driver, of a thief or of a
    // submitter is a hang, so a watchdog turns it into a failure
    // (`exit`, not a panic: a panic in the watchdog thread cannot fail a
    // test whose own thread is stuck).
    const SUBMITTERS: u64 = 4;
    const JOBS: u64 = 2_000;
    let (done, watched) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if watched.recv_timeout(Duration::from_secs(30)) == Err(RecvTimeoutError::Timeout) {
            eprintln!("mixed storm still running after 30 s: a wake-up was lost");
            std::process::exit(1);
        }
    });
    for workers in [2, 4] {
        let pool = Arc::new(NativePool::new(cfg(workers, 61)));
        let roots = Arc::new(AtomicU64::new(0));
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|c| {
                let (pool, roots) = (Arc::clone(&pool), Arc::clone(&roots));
                std::thread::spawn(move || {
                    let mut rng = (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let (mut sent, mut reports) = (0, 0);
                    while sent < JOBS {
                        // Bursts of 1..=4 outstanding jobs: some handles
                        // wait before their job completes, some after.
                        let burst = (1 + next() % 4).min(JOBS - sent);
                        let handles: Vec<_> = (0..burst)
                            .map(|_| {
                                let depth = if next() % 2 == 0 { 0 } else { 8 };
                                let roots = Arc::clone(&roots);
                                let h = pool
                                    .submit(move || {
                                        roots.fetch_add(1, Ordering::Relaxed);
                                        fan(depth)
                                    })
                                    .expect("live pool");
                                (1u64 << depth, h)
                            })
                            .collect();
                        sent += burst;
                        for (want, h) in handles {
                            let (leaves, r) = h.wait();
                            assert_eq!(leaves, want, "submitter {c}");
                            assert_eq!(r.work, want, "submitter {c}: report is the job's own");
                            reports += 1;
                        }
                    }
                    reports
                })
            })
            .collect();
        let reports: u64 = submitters
            .into_iter()
            .map(|s| s.join().expect("submitter panicked"))
            .sum();
        assert_eq!(reports, SUBMITTERS * JOBS, "{workers} workers");
        assert_eq!(roots.load(Ordering::Relaxed), SUBMITTERS * JOBS);
        let Ok(mut pool) = Arc::try_unwrap(pool) else {
            unreachable!("every submitter has joined");
        };
        pool.shutdown();
    }
    done.send(()).expect("watchdog is listening");
    watchdog.join().expect("watchdog panicked");
}

/// One link of [`chained_turnaround_probe`]'s chain: stamp the root's
/// start, then submit the next link from inside this job; the last link
/// reports back on `done`.
fn chain_link(
    pool: Arc<NativePool>,
    t0: Instant,
    stamps: Arc<Vec<[AtomicU64; 2]>>,
    k: usize,
    done: mpsc::Sender<()>,
) {
    let ns = || t0.elapsed().as_nanos() as u64;
    stamps[k][1].store(ns(), Ordering::Relaxed);
    if k + 1 == stamps.len() {
        done.send(()).expect("the probe is listening");
        return;
    }
    let (next_pool, next_stamps) = (Arc::clone(&pool), Arc::clone(&stamps));
    stamps[k][0].store(ns(), Ordering::Relaxed);
    // The handle is dropped: the job runs regardless.
    let _ = pool
        .submit(move || chain_link(next_pool, t0, next_stamps, k + 1, done))
        .expect("live pool");
}

/// The pool's job-to-job hand-off — the hop a served request's `reply`
/// floor pays when one launch submits the next from the driver: from a
/// `submit` inside a job to the next job's root starting, over a chain
/// of 20 000 leaf-only jobs, on 1 and 2 workers.
///
/// `cargo test --release -p hbp-sched --test pool -- --ignored --nocapture chained_turnaround`
#[test]
#[ignore = "timing probe; run in release with --ignored --nocapture"]
fn chained_turnaround_probe() {
    const JOBS: usize = 20_000;
    for workers in [1, 2] {
        let pool = Arc::new(NativePool::new(cfg(workers, 3)));
        let stamps: Arc<Vec<[AtomicU64; 2]>> = Arc::new(
            (0..JOBS)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
        );
        let (p, s) = (Arc::clone(&pool), Arc::clone(&stamps));
        let (done, last) = mpsc::channel();
        let t0 = Instant::now();
        let _ = pool.submit(move || chain_link(p, t0, s, 0, done));
        last.recv().expect("the chain ran to its end");
        // FIFO: once this job ran, the last link has dropped its pool
        // reference, so the pool is dropped (and joined) from here.
        pool.submit(|| ()).expect("live pool").wait();
        let mut hops: Vec<u64> = stamps
            .windows(2)
            .map(|w| w[1][1].load(Ordering::Relaxed) - w[0][0].load(Ordering::Relaxed))
            .collect();
        hops.sort_unstable();
        let us = |q: f64| hops[((hops.len() - 1) as f64 * q) as usize] as f64 / 1e3;
        println!(
            "chained turnaround, {workers} worker(s), {} hops: min {:.2} / p50 {:.2} / p90 {:.2} us",
            hops.len(),
            us(0.0),
            us(0.5),
            us(0.9)
        );
    }
}
