//! Behavioural tests of the native (real-threads) execution backend.

use hbp_sched::native::{join, NativeConfig, NativePool};

/// Recursive join-based sum with busy leaves, so there is enough work for
/// idle workers to steal even under adversarial OS scheduling.
fn spin_sum(xs: &[u64], leaf: usize) -> u64 {
    if xs.len() <= leaf {
        // ~tens of microseconds of real work per leaf.
        let mut acc = 0u64;
        for _ in 0..200 {
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

#[test]
fn join_outside_pool_is_sequential_and_correct() {
    let (a, b) = join(|| 21 * 2, || "ok");
    assert_eq!((a, b), (42, "ok"));
}

#[test]
fn single_worker_pool_computes_without_steals() {
    let xs: Vec<u64> = (0..4096).collect();
    let want: u64 = xs.iter().sum();
    let cfg = NativeConfig {
        workers: 1,
        seed: 1,
    };
    let (got, r) = NativePool::run(cfg, || spin_sum(&xs, 64));
    assert_eq!(got, want);
    assert_eq!(r.p, 1);
    assert_eq!(r.steals, 0, "one worker has nobody to steal from");
    assert!(r.work > 1, "root + inline branches are counted");
    assert!(r.busy[0] > 0);
    assert!(r.makespan >= r.busy[0]);
}

#[test]
fn multi_worker_pool_computes_steals_and_reports() {
    let xs: Vec<u64> = (0..1 << 15).collect();
    let want: u64 = xs.iter().sum();
    // Retry a few times: stealing is guaranteed by construction only if
    // the OS ever schedules a second worker while work is available,
    // which is overwhelmingly likely per attempt but not certain.
    let mut last = None;
    for attempt in 0..5 {
        let cfg = NativeConfig {
            workers: 4,
            seed: 7 + attempt,
        };
        let (got, r) = NativePool::run(cfg, || spin_sum(&xs, 128));
        assert_eq!(got, want);
        assert_eq!(r.p, 4);
        assert_eq!(r.busy.len(), 4);
        // tasks = the root + one forked (right) branch per join = #leaves
        assert_eq!(r.work, ((1usize << 15) / 128) as u64);
        if r.steals > 0 && r.busy.iter().filter(|&&b| b > 0).count() >= 2 {
            return; // multi-worker execution observed
        }
        last = Some(r);
    }
    panic!("no stealing across 5 attempts: {last:?}");
}

#[test]
fn report_shape_matches_simulator_fields() {
    let cfg = NativeConfig {
        workers: 2,
        seed: 3,
    };
    let (_, r) = NativePool::run(cfg, || {
        let (a, b) = join(|| 1u64, || 2u64);
        a + b
    });
    // Simulator-only metrics are zero/empty, per the module contract.
    assert_eq!(r.machine.total().accesses(), 0);
    assert_eq!(r.heap_block_misses + r.stack_block_misses, 0);
    assert!(r.steals_by_priority.is_empty());
    assert!(r.stolen_sizes.is_empty());
    assert_eq!(r.usurpations, 0);
    assert!(r.steal_attempts >= r.steals);
    assert_eq!(r.idle.len(), 2);
}

#[test]
fn panics_propagate_from_forked_branch() {
    let cfg = NativeConfig {
        workers: 2,
        seed: 9,
    };
    let res = std::panic::catch_unwind(|| {
        NativePool::run(cfg, || {
            let (_, _) = join(|| 1, || panic!("branch boom"));
        })
    });
    assert!(res.is_err(), "branch panic must reach the caller");
}

#[test]
fn a_panicking_run_returns_its_borrows_to_the_caller() {
    // `run` takes a root that borrows this frame. When a forked branch
    // panics, the root's captures must be dropped and the borrow over by
    // the time the panic reaches us: the closure did not outlive `run`.
    use std::sync::atomic::{AtomicBool, Ordering};
    struct SetOnDrop<'a>(&'a AtomicBool);
    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let cfg = NativeConfig {
        workers: 2,
        seed: 19,
    };
    let dropped = AtomicBool::new(false);
    let mut buf = vec![0u64; 64];
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let guard = SetOnDrop(&dropped);
        let out = &mut buf;
        NativePool::run(cfg, move || {
            let _held = guard;
            let (l, r) = out.split_at_mut(32);
            join(
                || l.fill(1),
                || {
                    r.fill(2);
                    panic!("branch boom");
                },
            );
        })
    }));
    assert!(res.is_err(), "branch panic must reach the caller");
    assert!(
        dropped.load(Ordering::SeqCst),
        "the root's captures dropped"
    );
    assert_eq!(buf[..32], [1; 32], "left branch wrote through the borrow");
    assert_eq!(buf[32..], [2; 32], "right branch wrote before it panicked");
}

/// Payload of a caught panic as text (`String` or `&str` payloads).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

#[test]
fn kernel_panic_surfaces_worker_id_and_message() {
    let cfg = NativeConfig {
        workers: 3,
        seed: 11,
    };
    let payload = std::panic::catch_unwind(|| {
        NativePool::run(cfg, || {
            // Enough forks that the panicking branch may be stolen; the
            // attribution must hold whichever worker executes it.
            let (_, _) = join(
                || spin_sum(&[1, 2, 3, 4], 1),
                || -> u64 { panic!("kernel boom {}", 6 * 7) },
            );
        })
    })
    .expect_err("kernel panic must reach the caller");
    let msg = panic_text(payload.as_ref());
    assert!(
        msg.contains("kernel panicked on worker "),
        "panic names the worker: {msg}"
    );
    assert!(
        msg.contains("kernel boom 42"),
        "panic keeps the original message: {msg}"
    );
}

#[test]
fn root_panic_is_attributed_to_worker_zero() {
    let cfg = NativeConfig {
        workers: 2,
        seed: 13,
    };
    let payload = std::panic::catch_unwind(|| {
        NativePool::run(cfg, || -> u64 { panic!("root boom") });
    })
    .expect_err("root panic must reach the caller");
    let msg = panic_text(payload.as_ref());
    assert!(
        msg.contains("kernel panicked on worker 0: root boom"),
        "root runs on worker 0: {msg}"
    );
}

#[test]
fn pool_survives_panic_then_runs_again() {
    // The regression: a panicking kernel must not poison the pool
    // machinery for subsequent runs in the same process.
    let cfg = NativeConfig {
        workers: 4,
        seed: 17,
    };
    let _ = std::panic::catch_unwind(|| {
        NativePool::run(cfg, || {
            let (_, _) = join(|| 1u64, || -> u64 { panic!("one-off boom") });
        })
    });
    let xs: Vec<u64> = (0..1 << 12).collect();
    let want: u64 = xs.iter().sum();
    let (got, r) = NativePool::run(cfg, || spin_sum(&xs, 64));
    assert_eq!(got, want, "a fresh pool after a panic works normally");
    assert!(r.makespan > 0);
}

#[test]
fn nested_joins_deeply_recurse_without_deadlock() {
    let xs: Vec<u64> = (0..1 << 12).collect();
    let want: u64 = xs.iter().sum();
    let cfg = NativeConfig {
        workers: 3,
        seed: 5,
    };
    // leaf = 1: maximum join depth, thousands of tasks.
    let (got, _) = NativePool::run(cfg, || spin_sum(&xs, 1));
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// Every pool seed computes correctly, with deterministic task accounting.
// ---------------------------------------------------------------------

#[test]
fn every_pool_seed_computes_correctly() {
    let xs: Vec<u64> = (0..1 << 13).collect();
    let want: u64 = xs.iter().sum();
    // 8 workers oversubscribe a small host: real cross-thread stress.
    for workers in [4, 8] {
        for seed in [0, 5, 21] {
            let cfg = NativeConfig { workers, seed };
            let (got, r) = NativePool::run(cfg, || spin_sum(&xs, 64));
            assert_eq!(got, want, "seed {seed} on {workers}");
            // tasks = root + one forked branch per join = #leaves.
            assert_eq!(
                r.work,
                ((1usize << 13) / 64) as u64,
                "seed {seed} on {workers}"
            );
            assert_eq!(r.p, workers);
            assert!((1..=workers).contains(&r.workers_active), "seed {seed}");
        }
    }
}

#[test]
fn work_accounting_is_deterministic_across_runs() {
    let xs: Vec<u64> = (0..1 << 12).collect();
    let runs: Vec<u64> = (0..2)
        .map(|_| {
            let cfg = NativeConfig {
                workers: 3,
                seed: 9,
            };
            NativePool::run(cfg, || spin_sum(&xs, 32)).1.work
        })
        .collect();
    assert_eq!(runs[0], runs[1], "fixed seed ⇒ identical task count");
}

#[test]
fn chase_lev_traced_run_is_panic_free_and_task_count_deterministic() {
    // Acceptance regression (ISSUE 4): traced Chase-Lev pool reports
    // are panic-free and deterministic in task count under a fixed seed.
    use std::sync::Arc;
    let xs: Vec<u64> = (0..1 << 12).collect();
    let counts: Vec<(u64, u64, u64)> = (0..2)
        .map(|_| {
            let cfg = NativeConfig {
                workers: 4,
                seed: 17,
            };
            let sink = Arc::new(hbp_trace::TraceSink::new(4, hbp_trace::ClockDomain::WallNs));
            let (_, r) = NativePool::run_traced(cfg, Some(Arc::clone(&sink)), || spin_sum(&xs, 64));
            let trace = sink.collect();
            let begins = trace.count(|k| matches!(k, hbp_trace::EventKind::TaskBegin { .. }));
            let ends = trace.count(|k| matches!(k, hbp_trace::EventKind::TaskEnd { .. }));
            assert_eq!(begins, ends, "every begun task ends");
            assert_eq!(trace.segments().unclosed, 0);
            (r.work, begins, ends)
        })
        .collect();
    assert_eq!(counts[0], counts[1], "fixed seed ⇒ identical task counts");
    assert_eq!(counts[0].0, counts[0].1, "report work == traced tasks");
}
