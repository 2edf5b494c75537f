//! Run one load scenario with the metrics registry live and print what
//! the registry saw: Prometheus text, the JSON snapshot, and the
//! per-tenant rollup from the scenario report.
//!
//! The command enables the registry itself (no environment variable
//! does) and resets it first, so the exposition covers exactly this scenario.
//! Configuration is the same environment surface as `serve_scenario`:
//! `HBP_SERVE_*` for the load, `HBP_BACKEND` / `HBP_POLICY` /
//! `HBP_WORKERS` for the execution. The admission queue's depth over
//! time comes from the scenario report, stamped in the scenario's own
//! clock, so a fixed-seed sim scenario prints byte-identical output on
//! every run.

use hbp_core::metrics::{json, prometheus_text};
use hbp_serve::{run_scenario, ScenarioSpec};

pub fn main() {
    let spec = ScenarioSpec::from_env();
    let m = hbp_core::metrics::global();
    m.set_enabled(true);
    m.reset();

    let report = run_scenario(&spec);
    let snap = m.snapshot();

    println!(
        "# scenario: backend={} policy={} workers={} seed={} requests={}",
        report.backend, report.policy, report.workers, report.seed, report.requests
    );
    print!("{}", prometheus_text(&snap));
    println!();
    println!("{}", json(&snap));
    println!();

    println!("# admission (pool-wide, from the registry)");
    println!(
        "admission: rejected {} deferred {} (report: rejected {} deferred {} workers_active {} launches {})",
        snap.admission_rejected,
        snap.admission_deferred,
        report.rejected,
        report.deferred,
        report.workers_active,
        report.launches,
    );
    println!();

    println!("# per-tenant (derived from the scenario report, not the registry)");
    for c in &report.clients_stats {
        println!(
            "tenant {}: submitted {} completed {} rejected {} latency p50/p95/p99 = {}/{}/{} ns queue-wait p50/p95/p99 = {}/{}/{} ns",
            c.client,
            c.submitted,
            c.completed,
            c.rejected,
            c.latency.p50,
            c.latency.p95,
            c.latency.p99,
            c.queue_wait.p50,
            c.queue_wait.p95,
            c.queue_wait.p99,
        );
    }

    println!();
    println!(
        "# admission queue depth timeline ({} points)",
        report.queue_depth.len()
    );
    let line = report
        .queue_depth
        .iter()
        .map(|(t, d)| format!("{t}:{d}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{line}");
}
