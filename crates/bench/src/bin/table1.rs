//! **T1 — Table 1**: regenerate the paper's table of structural parameters
//! for every algorithm: HBP type, measured work growth `W(n)`, measured
//! span growth `T∞(n)`, measured `Q(n, M, B)`, and the measured
//! cache-friendliness / block-sharing behaviour versus the claims.
//!
//! ```text
//! cargo run --release -p hbp-bench --bin table1
//! ```
//!
//! With `HBP_TRACE=1`, each algorithm's smaller instance is additionally
//! run under the `HBP_POLICY` discipline (PWS by default, so PWS-vs-RWS
//! trace exports are one env var apart) with a structured-event
//! recorder, and all traces are exported into one Chrome-trace JSON
//! (`HBP_TRACE_OUT`, default `table1_trace.json`) — one process lane per
//! algorithm, viewable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. CI smokes this path and uploads the file
//! as an artifact. The printed table itself is policy-independent
//! (sequential replays + structural estimators), so its numbers are
//! byte-stable across `HBP_POLICY` values.

use hbp_bench::growth_exponent;
use hbp_core::prelude::*;
use hbp_core::trace::{chrome_trace_multi, Trace};

fn main() {
    let machine = MachineConfig::default_machine();
    let env = Config::from_env();
    let tracing = env.trace;
    let trace_policy = env.policy;
    let mut traces: Vec<(String, Trace)> = Vec::new();
    println!(
        "Table 1 (measured) — machine: p={}, M={}, B={}\n",
        machine.p, machine.cache_words, machine.block_words
    );
    println!(
        "{:<20} {:>4} | {:>6} {:>6} | {:>8} {:>9} | {:>7} {:>7} | {:<28}",
        "algorithm",
        "type",
        "W-exp",
        "T-exp",
        "Q(n,M,B)",
        "Q/(n/B)",
        "f-exc",
        "L-max",
        "claims (f, L, W, T)"
    );
    hbp_bench::rule(130);

    for spec in registry() {
        let (n1, n2) = match spec.size {
            SizeKind::Linear => (1usize << 11, 1usize << 13),
            SizeKind::MatrixSide => (16usize, 32usize),
        };
        let c1 = (spec.build)(n1, BuildConfig::with_block(machine.block_words), 42);
        let c2 = (spec.build)(n2, BuildConfig::with_block(machine.block_words), 42);
        let e1 = spec.elements(n1) as f64;
        let e2 = spec.elements(n2) as f64;
        let w_exp = growth_exponent(e1, c1.work() as f64, e2, c2.work() as f64);
        let t_exp = growth_exponent(
            e1,
            analysis::span(&c1) as f64,
            e2,
            analysis::span(&c2) as f64,
        );
        let seq = run_sequential(&c2, machine);
        let scan_bound = (c2.work() as f64) / machine.block_words as f64;
        // f and L estimates on the smaller instance (the estimators are
        // quadratic-ish in computation size).
        let f_exc = analysis::f_estimate(&c1, machine.block_words)
            .iter()
            .map(|r| r.blocks.saturating_sub(r.accesses / machine.block_words))
            .max()
            .unwrap_or(0);
        let l_max = analysis::l_estimate(&c1, machine.block_words)
            .iter()
            .map(|r| r.shared_blocks)
            .max()
            .unwrap_or(0);
        if tracing {
            // A dedicated small instance: the export is a CI artifact,
            // and the structure (lanes, steals, miss counters) is what
            // the trace is for — not volume.
            let nt = match spec.size {
                SizeKind::Linear => 512,
                SizeKind::MatrixSide => 16,
            };
            let ct = (spec.build)(nt, BuildConfig::with_block(machine.block_words), 42);
            let sink = TraceSink::new(machine.p, ClockDomain::Virtual);
            let _ = run_traced(&ct, machine, trace_policy, &sink);
            traces.push((spec.name.to_string(), sink.collect()));
        }
        println!(
            "{:<20} {:>4} | {:>6.2} {:>6.2} | {:>8} {:>9.3} | {:>7} {:>7} | f={}, L={}, W={}, T={}",
            spec.name,
            spec.hbp_type,
            w_exp,
            t_exp,
            seq.q_misses,
            seq.q_misses as f64 / scan_bound,
            f_exc,
            l_max,
            spec.f_claim,
            spec.l_claim,
            spec.w_claim,
            spec.t_claim,
        );
    }
    println!(
        "\nW-exp / T-exp: measured growth exponents of work and span in the\n\
         input size (elements); e.g. scans expect W-exp = 1, Strassen 1.40\n\
         (= log4 7 in n² elements), Depth-n-MM 1.5, MT/conversions 1.0.\n\
         T-exp near 0 = polylog depth; Depth-n-MM expects 0.5 (T∞ = n = √(n²)).\n\
         Q/(n/B): sequential misses normalized by the scan bound.\n\
         f-exc: max over tasks of blocks touched beyond r/B (0/O(1) = cache\n\
         friendly; grows with task size = √r-friendly).\n\
         L-max: max blocks a steal-candidate shares with its sibling subtree."
    );
    if tracing {
        let path =
            std::env::var("HBP_TRACE_OUT").unwrap_or_else(|_| "table1_trace.json".to_string());
        let json = chrome_trace_multi(traces.iter().map(|(n, t)| (n.as_str(), t)));
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        println!(
            "\nHBP_TRACE=1: wrote Chrome trace of {} {trace_policy:?} runs ({} bytes) to {path}\n\
             (open in chrome://tracing or https://ui.perfetto.dev)",
            traces.len(),
            json.len()
        );
    }
}
