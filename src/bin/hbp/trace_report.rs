//! **`hbp trace_report [<algo-prefix> [n]]`** — record a structured
//! trace of one registry kernel on either backend and print the
//! paper-style breakdown: work, span (critical path), steals, block
//! misses, per-worker utilization, and the fork→steal latency histogram.
//!
//! * `algo-prefix` — registry lookup, as in `hbp_core::find` (default
//!   `FFT`); `n` is elements for linear kernels, the matrix side for
//!   matrix kernels (defaults 4096 / 32). A bad argument prints usage
//!   and exits 2.
//! * `HBP_BACKEND=sim|native` picks the backend (sim default);
//!   `HBP_WORKERS` sizes the native pool; `HBP_POLICY=pws|rws[:seed]|bsp[:levels]`
//!   picks the simulator's schedule. The native pool steals randomized
//!   and takes only `rws[:seed]` (unset: `rws:0`), which the header
//!   prints.
//! * `HBP_TRACE_OUT=<path>` additionally writes the Chrome-trace JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//! * Block misses are the simulator's prediction, so only a sim report
//!   prints them; a native trace carries no miss deltas.
//! * `HBP_TRACE_BUF=<events>` sizes each worker's trace ring. A ring
//!   overflow (dropped events) makes every number a lower bound, so the
//!   report is printed and the exit status is 2.

use hbp_core::prelude::*;
use hbp_core::trace::{chrome_trace_multi, summarize, CpError, HopVia};

use crate::common::parse_algo_n;
use crate::usage;

/// The argument synopsis `hbp help` and a usage error print.
pub const ARGS: &str = "[<algo-prefix> [n]]   (backend, policy, workers: HBP_* variables)";

pub fn main(args: &[String]) {
    let (spec, n) = parse_algo_n(args).unwrap_or_else(|e| usage("trace_report", &e));

    let cfg = Config::try_from_env().unwrap_or_else(|e| usage("trace_report", &e));
    let session = cfg.open(MachineConfig::default_machine());
    let backend = session.backend();
    let unit = match session.clock_domain() {
        ClockDomain::Virtual => "u",
        ClockDomain::WallNs => "ns",
    };
    println!(
        "trace report — {} (n = {n}, backend = {backend}, workers = {}, policy = {:?})",
        spec.name,
        session.workers(),
        cfg.policy
    );

    let sink = std::sync::Arc::new(TraceSink::with_capacity(
        session.workers(),
        session.clock_domain(),
        cfg.trace_buf,
    ));
    let report = session
        .submit_traced(&ExecJob::new(spec.name, n, 42), &sink)
        .expect("a fresh session admits")
        .wait()
        .unwrap_or_else(|e| usage("trace_report", &format!("{backend} {e}")));
    let trace = sink.collect();
    let s = summarize(&trace);

    println!("\n== paper-style breakdown ({unit} = {:?}) ==", s.clock);
    println!("  makespan         = {} {unit}", s.makespan);
    println!(
        "  work (busy)      = {} {unit} across {} workers ({} segments, {} tasks)",
        s.busy_total, s.workers, s.segments, s.tasks
    );
    match &s.critical {
        Ok(cp) => {
            let spine_steals = cp
                .hops
                .iter()
                .filter(|h| matches!(h.via, HopVia::Steal { .. }))
                .count();
            println!(
                "  critical path    = {} {unit} (work {} + steal {} + deque wait {}; {} hops, {} stolen)",
                cp.total, cp.work, cp.steal, cp.queue_wait, cp.hops.len(), spine_steals
            );
            println!(
                "  parallelism      = {:.2} (work / critical path)",
                s.busy_total as f64 / cp.total.max(1) as f64
            );
        }
        Err(CpError::WallClockTrace) => {
            println!("  critical path    = n/a (wall-clock trace; run HBP_BACKEND=sim for the exact span)");
        }
        Err(e) => println!("  critical path    = unavailable: {e}"),
    }
    println!(
        "  steals           = {} committed, {} failed attempts (report: {} / {})",
        s.steals, s.steal_fails, report.steals, report.steal_attempts
    );
    if backend == "sim" {
        let (hb, sb, sp) = s.misses;
        println!(
            "  block misses     = heap {hb}, stack {sb} (+ stack plain {sp}) — report: {} / {}",
            report.heap_block_misses, report.stack_block_misses
        );
    }
    let util: Vec<String> = s
        .workers_util
        .iter()
        .enumerate()
        .map(|(w, u)| format!("w{w} {:.2}", u.utilization))
        .collect();
    println!("  utilization      = {}", util.join("  "));
    println!("  steal latency    = {}", s.steal_latency.render(unit));
    if s.dropped > 0 {
        println!(
            "  (ring overflow: {} events dropped — raise HBP_TRACE_BUF)",
            s.dropped
        );
    }

    if let Ok(path) = std::env::var("HBP_TRACE_OUT") {
        let json = chrome_trace_multi([(spec.name, &trace)]);
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        println!(
            "\nwrote Chrome trace ({} bytes) to {path} — open in chrome://tracing or https://ui.perfetto.dev",
            json.len()
        );
    }

    // A truncated trace means every number above is a lower bound: no
    // caller may take that for a clean run.
    if s.dropped > 0 {
        eprintln!(
            "trace_report: {} events were dropped (ring overflow)",
            s.dropped
        );
        std::process::exit(2);
    }
}
