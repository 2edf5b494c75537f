//! Invariants of the `hbp-trace` subsystem against both backends.
//!
//! The load-bearing one: on the sim backend, the **critical path
//! extracted from a recorded trace equals the simulator's virtual-time
//! makespan exactly** — for multiple kernels under both PWS and RWS.
//! The critical path is computed by back-chaining released segments
//! through fork/join/steal edges (see `hbp_trace::critical`), an
//! entirely different computation from the engine's max-over-core
//! clocks, so agreement pins down both the event emission protocol and
//! the simulator's time accounting.

use hbp_core::prelude::*;
use hbp_core::trace::{chrome_trace, critical_path, json, summarize, CpError, EventKind, HopVia};

fn machine() -> MachineConfig {
    MachineConfig::new(4, 1 << 10, 32)
}

fn build(algo: &str) -> Computation {
    let spec = find(algo).unwrap_or_else(|| panic!("registry has {algo}"));
    let n = match spec.size {
        SizeKind::Linear => 1 << 10,
        SizeKind::MatrixSide => 16,
    };
    (spec.build)(n, BuildConfig::with_block(32), 42)
}

fn traced(comp: &Computation, policy: Policy) -> (ExecReport, hbp_core::trace::Trace) {
    let sink = TraceSink::new(machine().p, ClockDomain::Virtual);
    let report = run_traced(comp, machine(), policy, &sink);
    (report, sink.collect())
}

#[test]
fn critical_path_equals_sim_makespan_for_kernels_and_policies() {
    // ≥ 2 kernels × {PWS, RWS}; FFT and Strassen fork heavily, PS is the
    // paper's two-pass Type-1 shape, MT is a matrix kernel, and SPMS is
    // the irregular sample–partition–merge recursion (data-dependent
    // bucket fanouts — the acceptance row for the real sort).
    for algo in ["Scans (PS)", "FFT", "Strassen", "MT", "Sort (SPMS)"] {
        let comp = build(algo);
        for policy in [
            Policy::Pws,
            Policy::Rws { seed: 1 },
            Policy::Rws { seed: 1234 },
        ] {
            let (report, trace) = traced(&comp, policy);
            assert_eq!(trace.dropped, 0, "{algo}/{policy:?}: complete trace");
            let cp = critical_path(&trace)
                .unwrap_or_else(|e| panic!("{algo}/{policy:?}: critical path failed: {e}"));
            assert_eq!(
                cp.total, report.makespan,
                "{algo}/{policy:?}: critical path must equal the virtual-time makespan"
            );
            assert_eq!(
                cp.total,
                cp.work + cp.steal + cp.queue_wait,
                "{algo}/{policy:?}: decomposition adds up"
            );
            // The path is a contiguous chain from time 0 to the makespan.
            assert_eq!(cp.hops.first().map(|h| h.start), Some(0));
            assert_eq!(cp.hops.last().map(|h| h.end), Some(report.makespan));
            assert!(matches!(
                cp.hops.first().map(|h| h.via),
                Some(HopVia::Start)
            ));
        }
    }
}

#[test]
fn trace_miss_deltas_sum_to_report_counters() {
    for algo in ["Scans (PS)", "FFT"] {
        let comp = build(algo);
        for policy in [Policy::Pws, Policy::Rws { seed: 7 }] {
            let (report, trace) = traced(&comp, policy);
            let s = summarize(&trace);
            assert_eq!(
                s.misses,
                (
                    report.heap_block_misses,
                    report.stack_block_misses,
                    report.stack_plain_misses
                ),
                "{algo}/{policy:?}: per-segment miss deltas must sum to the report"
            );
            assert_eq!(s.steals, report.steals, "{algo}/{policy:?}: steal commits");
            assert_eq!(
                s.steals + s.steal_fails,
                report.steal_attempts,
                "{algo}/{policy:?}: traced attempts match Cor 4.1 accounting"
            );
        }
    }
}

#[test]
fn tracing_is_observational_reports_identical() {
    let comp = build("FFT");
    for policy in [Policy::Pws, Policy::Rws { seed: 3 }] {
        let plain = run(&comp, machine(), policy);
        let (traced_report, _) = traced(&comp, policy);
        assert_eq!(plain.makespan, traced_report.makespan);
        assert_eq!(plain.work, traced_report.work);
        assert_eq!(plain.steals, traced_report.steals);
        assert_eq!(plain.steal_attempts, traced_report.steal_attempts);
        assert_eq!(plain.busy, traced_report.busy);
        assert_eq!(plain.idle, traced_report.idle);
        assert_eq!(plain.usurpations, traced_report.usurpations);
    }
}

#[test]
fn chrome_export_parses_and_contains_every_worker_lane() {
    let comp = build("Scans (PS)");
    let (_, trace) = traced(&comp, Policy::Pws);
    let jtext = chrome_trace(&trace);
    let doc = json::parse(&jtext).expect("chrome export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every worker appears as a named thread lane.
    for w in 0..machine().p {
        let lane = format!("worker {w}");
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|n| n.as_str())
                        == Some(&lane)
            }),
            "missing {lane}"
        );
    }
    // Segment events carry numeric ts/dur.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(|p| p.as_str()) == Some("X")
            && e.get("dur").and_then(|d| d.as_f64()).is_some()
    }));
}

#[test]
fn truncated_ring_reports_dropped_and_refuses_critical_path() {
    let comp = build("FFT");
    let sink = hbp_core::trace::TraceSink::with_capacity(machine().p, ClockDomain::Virtual, 64);
    let _ = run_traced(&comp, machine(), Policy::Pws, &sink);
    let trace = sink.collect();
    assert!(trace.dropped > 0, "tiny ring must overflow");
    assert!(matches!(critical_path(&trace), Err(CpError::Truncated)));
}

#[test]
fn native_trace_has_balanced_nesting_and_consistent_steals() {
    let ex = NativeExecutor::new(3, 9);
    let sink = std::sync::Arc::new(TraceSink::new(3, ClockDomain::WallNs));
    let report = ex
        .execute_traced(&ExecJob::new("Sort (SPMS)", 1 << 12, 5), &sink)
        .expect("sort has a native kernel");
    let trace = sink.collect();
    assert_eq!(trace.clock, ClockDomain::WallNs);
    let segments = trace.segments();
    assert_eq!(segments.unclosed, 0, "all begin/end pairs balance");
    assert_eq!(
        trace.count(|k| matches!(k, EventKind::TaskBegin { .. })),
        trace.count(|k| matches!(k, EventKind::TaskEnd { .. }))
    );
    // Every traced steal commit is also in the report's counter.
    let traced_steals = trace.count(|k| matches!(k, EventKind::StealCommit { .. }));
    assert_eq!(traced_steals, report.steals);
    // Wall-clock traces decline critical-path extraction explicitly.
    assert!(matches!(
        critical_path(&trace),
        Err(CpError::WallClockTrace)
    ));
    let s = summarize(&trace);
    assert_eq!(s.workers, 3);
    assert!(s.busy_total > 0);
}
