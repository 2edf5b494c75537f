//! Serve tour: run a seeded multi-tenant load scenario against the job
//! server — mixed sort/scan/LR kernels from concurrent clients, bounded
//! admission, small-request batching — and read the report.
//!
//! Respects the workspace knobs (`HBP_BACKEND`, `HBP_POLICY`,
//! `HBP_WORKERS`) and the scenario's own `HBP_SERVE_*`
//! family; `HBP_EXAMPLE_N` shrinks the request count for the smoke test.
//!
//! ```text
//! cargo run --release --example serve_tour
//! HBP_BACKEND=native cargo run --release --example serve_tour
//! ```

use hbp_core::Backend;
use hbp_serve::{run_scenario, LoadMode, ScenarioSpec};

fn main() {
    // 1. The scenario: env-configured, with the request count scaled for
    //    smoke runs. Same seed ⇒ same schedule on both backends.
    let mut spec = ScenarioSpec::from_env();
    spec.requests = hbp_repro::example_size(spec.requests);
    spec.think_mean_ns = spec.think_mean_ns.min(20_000);
    let report = run_scenario(&spec);
    println!(
        "{} backend, {} policy, {} workers: {} requests from {} clients ({} loop)",
        report.backend, report.policy, report.workers, spec.requests, spec.clients, report.mode
    );
    println!(
        "  completed {} / rejected {} in {} ns  ->  {}.{:03} req/s",
        report.completed,
        report.rejected,
        report.makespan_ns,
        report.throughput_milli_rps / 1000,
        report.throughput_milli_rps % 1000
    );
    println!(
        "  latency p50/p95/p99 = {} / {} / {} ns (max {})",
        report.latency.p50, report.latency.p95, report.latency.p99, report.latency.max
    );
    println!(
        "  {} launches served {} requests; {} rode shared (batched) launches",
        report.launches, report.completed, report.batched_requests
    );
    assert_eq!(
        report.completed + report.rejected,
        spec.requests as u64,
        "every generated request is accounted for"
    );
    assert!(report.latency.p99 >= report.latency.p50);

    // 2. On the sim backend the whole report is reproducible — rerun and
    //    compare bytes. (Native timings are wall-clock; only the request
    //    schedule is reproducible there.)
    if spec.backend == Backend::Sim {
        let again = run_scenario(&spec);
        assert_eq!(
            report.to_json(),
            again.to_json(),
            "fixed seed must reproduce the sim report byte-for-byte"
        );
        let on_path = report.rows.iter().filter(|r| r.cp.is_some()).count();
        println!("  reproducible: yes (byte-identical rerun); {on_path} rows carry critical paths");
    }

    // 3. Overload behaviour: an open-loop burst into a single-slot queue
    //    must reject loudly, not buffer or drop.
    let mut burst = spec.clone();
    burst.mode = LoadMode::Open;
    burst.queue_cap = 1;
    burst.think_mean_ns = 0;
    burst.requests = burst.requests.min(32);
    let overload = run_scenario(&burst);
    println!(
        "  overload probe (open loop, queue_cap=1): {} rejected of {}",
        overload.rejected, burst.requests
    );
    assert_eq!(
        overload.completed + overload.rejected,
        burst.requests as u64
    );
    assert!(
        overload.rejected > 0,
        "a burst into a one-slot queue must reject"
    );
}
