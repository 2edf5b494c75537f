//! A native steal as the metrics registry exposes it. A job whose left
//! branch spins until its right branch has run cannot finish unless a
//! thief steals that right branch, so the exposition must count at least
//! one committed steal, and exactly the steals the job's report counts.
//!
//! Lives in its own integration-test binary (own process): the registry
//! is process-global, and no other test's pool may publish into it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hbp_metrics::prometheus_text;
use hbp_sched::native::{join, NativeConfig, NativePool};

/// Sum of a Prometheus family's samples over its label sets.
fn total(text: &str, family: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(family))
        .map(|l| {
            let value = l.rsplit(' ').next().expect("a sample line has a value");
            value.parse::<u64>().expect("counters are integers")
        })
        .sum()
}

/// Busy-wait for `d` (a serial prelude no thief can help with).
fn spin_for(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn a_forced_steal_is_exposed_as_the_report_counts_it() {
    let m = hbp_metrics::global();
    m.set_enabled(true);
    for workers in [2, 4] {
        m.reset();
        let pool = NativePool::new(NativeConfig { workers, seed: 9 });
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
        let text = prometheus_text(&m.snapshot());
        assert!(
            stolen_set_it,
            "{workers} workers: no thief took the right branch within 10 s"
        );
        let exposed = total(&text, "hbp_steals_committed_total");
        assert!(exposed >= 1, "{workers} workers: no steal exposed:\n{text}");
        assert_eq!(
            exposed, r.steals,
            "{workers} workers: the exposition counts the report's steals"
        );
    }
    m.set_enabled(false);
}
