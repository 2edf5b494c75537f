//! Registry snapshot determinism on the sim backend: a fixed-seed sim
//! job folds report-derived tallies into the registry, and the report
//! is deterministic — so reset → run → expose must render byte-identical
//! Prometheus-text and JSON documents on every repetition.
//!
//! Lives in its own integration-test binary (own process) so no other
//! test's native pool can publish into the global registry mid-window.

use std::sync::Mutex;

use hbp_core::metrics::{json, prometheus_text};
use hbp_core::prelude::*;

/// Both tests mutate the process-global registry; run them one at a
/// time (the test harness threads them in parallel by default).
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn run_once(ex: &SimExecutor, job: &ExecJob) -> (String, String) {
    let m = hbp_core::metrics::global();
    m.set_enabled(true);
    m.reset();
    ex.execute(job).expect("sim runs every registry row");
    let snap = m.snapshot();
    (prometheus_text(&snap), json(&snap))
}

#[test]
fn sim_registry_exposition_is_byte_deterministic() {
    let _g = REGISTRY_LOCK.lock().unwrap();
    let ex = SimExecutor {
        machine: MachineConfig::new(4, 1 << 12, 32),
        policy: Policy::Pws,
    };
    let job = ExecJob::new("Sort (SPMS)", 1 << 12, 42);

    let (prom_a, json_a) = run_once(&ex, &job);
    let (prom_b, json_b) = run_once(&ex, &job);

    assert_eq!(prom_a, prom_b, "Prometheus text must not drift");
    assert_eq!(json_a, json_b, "JSON snapshot must not drift");

    // And the folded tallies are real: tasks and steals both nonzero.
    assert!(
        prom_a.contains("hbp_tasks_executed_total"),
        "task family present"
    );
    let m = hbp_core::metrics::global();
    let snap = m.snapshot();
    assert!(snap.total_tasks() > 0, "sim folds task counts in");
    assert!(snap.jobs_completed == 1, "one job per window");
    m.set_enabled(false);
}

/// The native pool folds each job's per-worker tally deltas into the
/// registry: the exposition must count exactly what the reports count.
#[test]
fn native_registry_counts_what_the_reports_count() {
    const JOBS: u64 = 6;
    let _g = REGISTRY_LOCK.lock().unwrap();
    let m = hbp_core::metrics::global();
    m.set_enabled(true);
    m.reset();
    let session = Config::new()
        .backend(Backend::Native)
        .workers(2)
        .open(MachineConfig::new(2, 1 << 12, 32));
    let reports: Vec<ExecReport> = (0..JOBS)
        .map(|seed| {
            let job = ExecJob::new("Sort (SPMS)", 1 << 14, seed);
            session.submit(&job).unwrap().wait().unwrap()
        })
        .collect();
    let snap = m.snapshot();
    m.set_enabled(false);

    let sum = |f: fn(&ExecReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.work) > JOBS, "SPMS 2^14 forks");
    assert_eq!(snap.total_tasks(), sum(|r| r.work));
    assert_eq!(
        snap.total_steals(),
        (sum(|r| r.steals), sum(|r| r.steal_attempts - r.steals))
    );
    assert_eq!(snap.jobs_submitted, JOBS);
    assert_eq!(snap.jobs_completed, JOBS);
}

#[test]
fn disabled_registry_publishes_nothing() {
    let _g = REGISTRY_LOCK.lock().unwrap();
    let ex = SimExecutor {
        machine: MachineConfig::new(2, 1 << 10, 32),
        policy: Policy::Pws,
    };
    let m = hbp_core::metrics::global();
    m.set_enabled(false);
    m.reset();
    ex.execute(&ExecJob::new("Scans (M-Sum)", 512, 3))
        .expect("sim runs M-Sum");
    let snap = m.snapshot();
    assert_eq!(snap.total_tasks(), 0);
    assert_eq!(snap.jobs_completed, 0);
}
