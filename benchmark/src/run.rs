//! One run of one workload inside the child process: repeated set-up,
//! the measured phase, and the result line the driver reads.

use crate::schema::{self, END_TO_END};
use crate::spans::Tracer;
use crate::stats::{setup_ns, Steps};
use crate::workloads::{KernelRounds, ServeClosed, ServeVirtual, SimTable1};
use crate::{bench_dir, layers};
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per run. `setup_s` is the sum over the set-up's timed steps
/// of each step's minimum (median for steps that serve requests) over
/// these repetitions, so neither a burst on the host nor one slow set-up
/// moves the metric.
pub const SETUP_REPS: usize = 5;

/// How a traced run spends `--seconds`: the workload untraced, the
/// workload under the span recorder, and the layer probes.
const TRACED_PLAIN: f64 = 0.2;
const TRACED_SPANS: f64 = 0.2;
const TRACED_PROBES: f64 = 0.6;

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host_cpus: usize,
    /// w = min(host_cpus, 4): pool workers and closed-loop clients.
    pub workers: usize,
    /// Traced run: probe only the layers this workload prices (the
    /// suite's `--trace`, which prints each per-layer metric once)
    /// instead of all of them (the driver's `--trace 1`).
    pub own_layers: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for exact counts and ratios of
    /// other metrics).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What a workload's measured phase yields.
pub struct Measured {
    /// Operations attempted / failed in the measured phase.
    pub attempted: u64,
    pub failed: u64,
    pub best_case_latency_us: f64,
    /// Rounds, passes or requests behind the estimate.
    pub samples: u64,
}

pub trait Workload: Sized {
    /// Fixed work before the first timed op: spawn, build, verify
    /// outputs, warm up — each piece timed as one of `steps`.
    fn setup(cfg: &RunCfg, steps: &mut Steps) -> Self;
    /// `(attempted, failed)` output checks made by [`Workload::setup`].
    fn checks(&self) -> (u64, u64);
    /// Measure for `seconds`, recording spans into `tr`.
    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Measured;
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits, in JSON's number syntax.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn run_workload<W: Workload>(cfg: &RunCfg) -> RunResult {
    let mut setups: Vec<Steps> = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let mut steps = Steps::default();
        state = Some(W::setup(cfg, &mut steps));
        setups.push(steps);
    }
    let mut w = state.expect("SETUP_REPS >= 1");
    let setup_s = setup_ns(&setups) as f64 / 1e9;
    println!(
        "set-up: {} fixed + {} loaded timed steps x {SETUP_REPS} repetitions",
        setups[0].fixed.len(),
        setups[0].loaded.len()
    );
    let (mut attempted, mut failed) = w.checks();
    let mut metrics = Vec::new();

    if !cfg.trace {
        let m = w.measure(cfg.seconds, &mut Tracer::new(false));
        drop(w);
        println!(
            "peak_rss_mb={:.1} (VmHWM; a per-layer metric of the traced run)",
            peak_rss_mb()
        );
        attempted += m.attempted;
        failed += m.failed;
        for e in &END_TO_END {
            let (value, samples) = match e.name {
                "best_case_latency_us" => (m.best_case_latency_us, m.samples),
                "setup_s" => (setup_s, SETUP_REPS as u64),
                other => unreachable!("no measurement behind end-to-end metric {other}"),
            };
            metrics.push(Metric::new(e.name, value, e.unit, samples));
        }
    } else {
        // Traced run, all of it inside `--seconds`: the workload
        // untraced, then under the span recorder (their ratio is the
        // recorder's own overhead), then the layer probes. End-to-end
        // metrics never come from here.
        let plain = w.measure(cfg.seconds * TRACED_PLAIN, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let traced = w.measure(cfg.seconds * TRACED_SPANS, &mut tr);
        drop(w);
        // Before the probes run: the workload's own high-water mark.
        let rss = peak_rss_mb();
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        let path: PathBuf = bench_dir()
            .join("out")
            .join(format!("trace-{}.json", cfg.workload));
        tr.write(&path, &cfg.workload, cfg.seed)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("spans: {} written to {}", tr.spans().len(), path.display());
        metrics = layers::probe(cfg, Duration::from_secs_f64(cfg.seconds * TRACED_PROBES));
        metrics.push(Metric::new(
            "bench.trace_overhead_ratio",
            traced.best_case_latency_us / plain.best_case_latency_us,
            "ratio",
            traced.samples.min(plain.samples),
        ));
        metrics.push(Metric::new(
            "bench.harness_share",
            tr.harness_share(),
            "ratio",
            tr.spans().len() as u64,
        ));
        metrics.push(Metric::new(
            "bench.spans",
            tr.spans().len() as f64,
            "count",
            0,
        ));
        metrics.push(Metric::new("bench.peak_rss_mb", rss, "MiB", 1));
        if !cfg.own_layers {
            let want: Vec<String> = schema::per_layer().into_iter().map(|m| m.name).collect();
            let got: Vec<&String> = metrics.iter().map(|m| &m.name).collect();
            assert!(
                want.iter().eq(got.iter().copied()),
                "traced run must print exactly the per-layer metrics of the schema"
            );
        }
    }
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

/// Run `cfg.workload` in this process and print its metrics; the last
/// line of stdout is the result object.
pub fn run_child(cfg: &RunCfg) -> RunResult {
    println!(
        "workload={} seed={} seconds={} trace={}{} host_cpus={} workers={} setup_reps={SETUP_REPS}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        if cfg.own_layers { " (own layers)" } else { "" },
        cfg.host_cpus,
        cfg.workers
    );
    if cfg.host_cpus == 1 {
        println!(
            "NOTE: host_cpus == 1 — kernel-par degenerates to kernel-seq plus thief \
             time-slicing; make no parallel speed-up claim from this host"
        );
    }
    let result = match cfg.workload.as_str() {
        "serve-closed-small" => run_workload::<ServeClosed>(cfg),
        "kernel-par" | "kernel-seq" => run_workload::<KernelRounds>(cfg),
        "sim-table1" => run_workload::<SimTable1>(cfg),
        "serve-open-virtual" => run_workload::<ServeVirtual>(cfg),
        other => unreachable!("main() validated the workload name, got {other}"),
    };
    for m in &result.metrics {
        println!(
            "  {:<32} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "fail_ratio={} ({} failed of {} attempted)",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    println!("{}", result.to_json_line());
    result
}
