//! What the metrics registry sees of a served scenario, read off
//! `hbp metrics_report` the way an operator would. The command runs
//! as a child process: the registry is process-global, and the sim
//! exposition must be byte-identical across *processes*.

use std::process::Command;

/// Stdout of one `hbp metrics_report` run with exactly these `HBP_*`
/// variables set.
fn metrics_report(env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hbp"));
    cmd.arg("metrics_report");
    for (key, _) in std::env::vars().filter(|(key, _)| key.starts_with("HBP_")) {
        cmd.env_remove(key);
    }
    let out = cmd
        .envs(env.iter().copied())
        .output()
        .expect("metrics_report runs");
    assert!(out.status.success(), "metrics_report failed: {out:?}");
    String::from_utf8(out.stdout).expect("the exposition is text")
}

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

#[test]
fn sim_exposition_is_byte_identical_with_tasks_and_steals_folded_in() {
    let env = [("HBP_WORKERS", "4"), ("HBP_SERVE_REQUESTS", "64")];
    let text = metrics_report(&env);
    assert_eq!(text, metrics_report(&env), "same seed, same bytes");
    assert!(total(&text, "hbp_tasks_executed_total") > 0, "no tasks");
    assert!(total(&text, "hbp_steals_committed_total") > 0, "no steals");
    assert!(text.contains("hbp_job_latency_ns_count"));
}

#[test]
fn native_exposition_counts_one_pool_job_per_launch() {
    let text = metrics_report(&[
        ("HBP_BACKEND", "native"),
        ("HBP_WORKERS", "4"),
        ("HBP_SERVE_REQUESTS", "64"),
    ]);
    assert!(total(&text, "hbp_tasks_executed_total") > 0, "no tasks");
    // The worker shards hold what a per-job fold delivers, nothing more:
    // no queue-depth gauges, unpark count or steal-batch histogram.
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    assert_eq!(
        families,
        [
            "hbp_tasks_executed_total",
            "hbp_steals_committed_total",
            "hbp_steals_failed_total",
            "hbp_parks_total",
            "hbp_jobs_submitted_total",
            "hbp_jobs_completed_total",
            "hbp_admission_rejected_total",
            "hbp_admission_deferred_total",
            "hbp_workers_active",
            "hbp_arena_bytes",
            "hbp_pool_backlog",
            "hbp_pool_backlog_peak",
            "hbp_job_latency_ns",
        ]
    );
    // Whether a scenario's launches are ever stolen from is a scheduling
    // outcome; `crates/sched/tests/pool_metrics.rs` forces a steal and
    // checks that the registry exposes it.
    // Every launch is its own pool job, whoever submitted it (a client,
    // or the previous launch from the pool's driver), and the scenario
    // ends only once each has completed.
    let launches = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("admission: ")?
                .rsplit_once("launches ")?
                .1
                .strip_suffix(')')
        })
        .expect("the admission line reports the launches");
    let launches: u64 = launches.parse().expect("launches is a count");
    assert!(launches > 0, "nothing launched");
    assert_eq!(total(&text, "hbp_jobs_completed_total"), launches);
    assert_eq!(total(&text, "hbp_jobs_submitted_total"), launches);
}
