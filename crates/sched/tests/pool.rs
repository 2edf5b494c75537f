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

// ---------------------------------------------------------------------
// Elasticity (PR 10): the pool's participation target can move in both
// directions — between jobs and mid-job — without losing, duplicating,
// or corrupting work.
// ---------------------------------------------------------------------

use proptest::prelude::*;

#[test]
fn shrink_caps_participation_and_grow_restores_it() {
    let pool = NativePool::new(cfg(4, 7));
    let xs: Vec<u64> = (0..1 << 12).collect();
    let want: u64 = xs.iter().sum();

    // Shrunk to 1, only the driver registers for new jobs: the per-job
    // participation peak is exactly 1, deterministically.
    pool.set_desired_workers(1);
    let x1 = xs.clone();
    let (got, r) = pool.submit(move || spin_sum(&x1, 64)).unwrap().wait();
    assert_eq!(got, want);
    assert_eq!(r.workers_active, 1, "driver-only after shrink");
    assert_eq!(r.work, (1u64 << 12) / 64, "exactly-once accounting");

    // Grown back, parked thieves may rejoin (scheduling decides how
    // many actually get work before the job ends).
    pool.set_desired_workers(4);
    let x2 = xs.clone();
    let (got, r) = pool.submit(move || spin_sum(&x2, 64)).unwrap().wait();
    assert_eq!(got, want);
    assert!(
        (1..=4).contains(&r.workers_active),
        "grown pool peaks within capacity, got {}",
        r.workers_active
    );
    assert_eq!(r.work, (1u64 << 12) / 64, "exactly-once after regrow");
}

#[test]
fn desired_workers_is_clamped_to_capacity() {
    let pool = NativePool::new(cfg(3, 13));
    pool.set_desired_workers(64);
    assert_eq!(pool.desired_workers(), 3, "clamped to capacity");
    pool.set_desired_workers(0);
    assert_eq!(pool.desired_workers(), 1, "driver never retires");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Grow → shrink → grow churn while a stream of jobs flows through
    /// one pool: every job's answer matches the sequential oracle and
    /// its structural task count is exact — a lost task would hang the
    /// join, a duplicated one would inflate `work`. The schedule is
    /// retargeted *between* submissions and the backlog keeps jobs
    /// running *across* retargets, so retirement and rejoin both happen
    /// while work is in flight.
    #[test]
    fn elastic_churn_keeps_every_job_exactly_once(
        seed in 0u64..1024,
        targets in prop::collection::vec(1usize..=4, 4..9),
        lg_sizes in prop::collection::vec(9usize..=11, 8..14),
    ) {
        let pool = NativePool::new(cfg(4, seed));
        // Guarantee both directions at least once, whatever proptest drew.
        let schedule: Vec<usize> =
            [4, 1, 4].iter().chain(targets.iter()).copied().collect();
        let mut handles = Vec::new();
        for (i, &lg) in lg_sizes.iter().enumerate() {
            pool.set_desired_workers(schedule[i % schedule.len()]);
            let n = 1u64 << lg;
            let xs: Vec<u64> = (0..n).map(|x: u64| x.wrapping_mul(seed | 1)).collect();
            let want: u64 = xs.iter().sum();
            let h = pool
                .submit(move || spin_sum(&xs, 64))
                .expect("live pool accepts during churn");
            handles.push((h, want, n));
        }
        for (i, (h, want, n)) in handles.into_iter().enumerate() {
            let (got, r) = h.wait();
            prop_assert_eq!(got, want, "job {} oracle", i);
            prop_assert_eq!(r.work, n / 64, "job {} ran exactly once", i);
            prop_assert!(
                (1..=4).contains(&r.workers_active),
                "job {} peak participation {} out of band", i, r.workers_active
            );
        }
    }
}
