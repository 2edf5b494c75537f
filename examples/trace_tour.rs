//! Trace tour: record a structured event trace of an FFT under PWS,
//! extract the critical path from the join DAG, verify it against the
//! simulator's makespan, and export a Chrome trace for Perfetto.
//!
//! ```text
//! cargo run --release --example trace_tour
//! ```

use hbp_core::prelude::*;
use hbp_core::trace::{chrome_trace, summarize, HopVia};

fn main() {
    let n = hbp_repro::example_size(1 << 12);
    let spec = hbp_core::find("FFT").expect("FFT is in the registry");
    let machine = MachineConfig::default_machine();
    let comp = (spec.build)(n, BuildConfig::with_block(machine.block_words), 42);

    // 1. Run under PWS with a trace sink attached. Tracing is purely
    //    observational — the report matches an untraced run exactly.
    let sink = TraceSink::new(machine.p, ClockDomain::Virtual);
    let report = run_traced(&comp, machine, Policy::Pws, &sink);
    let trace = sink.collect();
    println!(
        "FFT (n = {n}) under PWS on p = {}: {} events recorded, {} dropped",
        machine.p,
        trace.events.len(),
        trace.dropped
    );

    // 2. The critical path: the longest chain through the join DAG,
    //    decomposed into executed work, steal charges, and time stolen
    //    tasks waited in their victim's deque.
    let s = summarize(&trace);
    let cp = s.critical.as_ref().expect("complete sim trace");
    println!(
        "critical path = {} (work {} + steal {} + deque wait {}) over {} hops",
        cp.total,
        cp.work,
        cp.steal,
        cp.queue_wait,
        cp.hops.len()
    );
    assert_eq!(
        cp.total, report.makespan,
        "the trace's critical path equals the simulator's makespan exactly"
    );
    let stolen = cp
        .hops
        .iter()
        .filter(|h| matches!(h.via, HopVia::Steal { .. }))
        .count();
    println!(
        "the path crosses {stolen} steals; parallelism W/CP = {:.2}",
        s.busy_total as f64 / cp.total.max(1) as f64
    );

    // 3. Where the misses happened: per-segment deltas sum back to the
    //    report's counters.
    assert_eq!(
        s.misses,
        (
            report.heap_block_misses,
            report.stack_block_misses,
            report.stack_plain_misses
        )
    );
    println!(
        "block misses: heap {} / stack {} (+ {} plain stack) — attributed per segment",
        s.misses.0, s.misses.1, s.misses.2
    );

    // 4. Export for chrome://tracing or https://ui.perfetto.dev.
    let out = std::env::temp_dir().join("hbp_trace_tour.json");
    std::fs::write(&out, chrome_trace(&trace)).expect("write trace json");
    println!("Chrome trace written to {}", out.display());
}
