//! Concurrency hammer: 8 publisher threads pound one registry; every
//! increment must land. Relaxed atomics guarantee no lost updates on a
//! single cell — this test is the executable form of that claim for the
//! whole shard layout (and would catch an accidental shard aliasing or
//! a non-atomic read-modify-write sneaking into the cells).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use hbp_metrics::Registry;

static REG: Registry = Registry::new();

#[test]
fn eight_workers_lose_no_increments() {
    const WORKERS: usize = 8;
    const PER_WORKER: u64 = 200_000;

    REG.set_enabled(true);
    let go = AtomicBool::new(false);
    thread::scope(|s| {
        for w in 0..WORKERS {
            let go = &go;
            s.spawn(move || {
                while !go.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                let shard = REG.shard(w);
                for i in 0..PER_WORKER {
                    shard.tasks_executed.inc();
                    if i % 3 == 0 {
                        shard.steals_committed.inc();
                        shard.parks.add(1 + (i % 7));
                    } else {
                        shard.steals_failed.inc();
                    }
                    REG.jobs_submitted.inc();
                    REG.job_latency_ns.observe(i);
                }
            });
        }
        go.store(true, Ordering::Relaxed);
    });

    let snap = REG.snapshot();
    assert_eq!(snap.workers.len(), WORKERS);
    assert_eq!(snap.total_tasks(), WORKERS as u64 * PER_WORKER);
    let committed_per_worker = PER_WORKER.div_ceil(3); // i % 3 == 0
    let (committed, failed) = snap.total_steals();
    assert_eq!(committed, WORKERS as u64 * committed_per_worker);
    assert_eq!(failed, WORKERS as u64 * (PER_WORKER - committed_per_worker));
    let parks_per_worker: u64 = (0..PER_WORKER).step_by(3).map(|i| 1 + i % 7).sum();
    assert_eq!(
        snap.workers.iter().map(|w| w.parks).sum::<u64>(),
        WORKERS as u64 * parks_per_worker
    );
    assert_eq!(snap.jobs_submitted, WORKERS as u64 * PER_WORKER);
    assert_eq!(snap.job_latency_ns.count, WORKERS as u64 * PER_WORKER);
    for w in snap.workers {
        assert_eq!(w.tasks_executed, PER_WORKER, "worker {}", w.worker);
    }
}
