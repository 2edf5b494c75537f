//! Behavioural tests of the persistent [`NativePool`]: spawn-once /
//! serve-forever lifetime, shutdown idempotence, exactly-once report
//! delivery under concurrent clients, and per-job trace isolation.

use std::sync::Arc;

use hbp_sched::native::{join, NativeConfig, NativePool, SubmitError};
use hbp_sched::Policy;
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
    NativeConfig {
        workers,
        seed,
        policy: Policy::Rws { seed: 1 },
        ..NativeConfig::default()
    }
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
