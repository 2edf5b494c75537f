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
            assert_eq!(
                summarize(&trace).critical.as_ref(),
                Ok(&cp),
                "{algo}/{policy:?}: the summary's path is critical_path's, hop for hop"
            );
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

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: impl Into<u64>) {
        for b in x.into().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a collected trace, independent of the record layout: per
/// event its `seq`, `t`, `worker`, a kind tag and every payload field,
/// each widened to `u64`.
fn trace_digest(trace: &hbp_core::trace::Trace) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.events.len() as u64);
    h.word(trace.dropped);
    for e in &trace.events {
        h.word(e.seq);
        h.word(e.t);
        h.word(e.worker);
        match e.kind {
            EventKind::TaskBegin { task } => {
                h.word(1u64);
                h.word(task);
            }
            EventKind::TaskEnd { task } => {
                h.word(2u64);
                h.word(task);
            }
            EventKind::JoinResume { task } => {
                h.word(3u64);
                h.word(task);
            }
            EventKind::Fork {
                parent,
                left,
                right,
            } => {
                h.word(4u64);
                h.word(parent);
                h.word(left);
                h.word(right);
            }
            EventKind::StealCommit {
                task,
                victim,
                count,
            } => {
                h.word(5u64);
                h.word(task);
                h.word(victim);
                h.word(count);
            }
            EventKind::StealFail => h.word(6u64),
            EventKind::RegionAttach { task, region } => {
                h.word(7u64);
                h.word(task);
                h.word(region);
            }
            EventKind::MissDelta {
                heap_block,
                stack_block,
                stack_plain,
            } => {
                h.word(8u64);
                h.word(heap_block);
                h.word(stack_block);
                h.word(stack_plain);
            }
        }
    }
    h.0
}

/// Digest of an extracted critical path: the totals and every hop,
/// `HopVia` included.
fn critical_path_digest(cp: &hbp_core::trace::CriticalPath) -> u64 {
    let mut h = Fnv::new();
    for x in [cp.total, cp.work, cp.steal, cp.queue_wait, cp.steals] {
        h.word(x);
    }
    h.word(cp.hops.len() as u64);
    for hop in &cp.hops {
        h.word(hop.task);
        h.word(hop.worker);
        h.word(hop.start);
        h.word(hop.end);
        match hop.via {
            HopVia::Start => h.word(1u64),
            HopVia::SameWorker => h.word(2u64),
            HopVia::Steal { committed, forked } => {
                h.word(3u64);
                h.word(committed);
                h.word(forked);
            }
        }
    }
    h.0
}

/// `[trace digest, critical-path digest]` of every registry row at the
/// scheduler pins' small size (256 / side 16, build seed 7) on the
/// default machine: `PINNED_PIPELINE[row].1[policy]`, policies PWS then
/// RWS seed 1. Computed with `crates/` at `d29ed3c`, before the event
/// record was compacted and `collect` / `critical_path` stopped sorting
/// and hashing; the trace column re-derived with `crates/` at `bc240c4`
/// once `StealCommit`'s always-false cross-domain flag left the digest. A
/// change to the record → collect → analyse path that moves one field
/// of one event or one hop fails here.
#[rustfmt::skip]
const PINNED_PIPELINE: [(&str, [[u64; 2]; 2]); 14] = [
    ("Scans (M-Sum)", [[0x381ede674a370cf8, 0xc089120e1882022f], [0x251c0e6b135512e1, 0xf51532ad7601c458]]),
    ("Scans (PS)", [[0x005b4eb3edf51d6e, 0x2b915643cf24d766], [0xf0206f29c03718c7, 0x783bfec5e13b5a75]]),
    ("MT", [[0xdf0f3b31ebc42f42, 0x76de5290b3648d5e], [0xc4879d729f7afda3, 0x7dc874db6d817d4d]]),
    ("Strassen", [[0x836afcc0e5b1fe38, 0xc8bb51a8ebc5db9f], [0xbd18bc43977943ae, 0x2ad1c061795b9b3c]]),
    ("RM to BI", [[0x596f1cfaa0833590, 0xfca6f5de353892a2], [0xdbe0b6a6a8bf06a5, 0xb3f259642e41aa53]]),
    ("Direct BI to RM", [[0xf6d82c10a65825ef, 0x2f59252e614eba2d], [0x9684ccdc64745851, 0x91f2acdefe67f2b5]]),
    ("BI-RM (gap RM)", [[0xba581c681ddb0cf4, 0x819d8260902fef13], [0x34a31170b0ed9ed9, 0xda0e328f992ab16e]]),
    ("BI-RM for FFT", [[0x156268b10b28b87e, 0xf1350ff9b0966694], [0x5cd921538661dafc, 0x4ccfb0053e257a1b]]),
    ("FFT", [[0xc4dec28696af0af7, 0x6f024d814d3c77a2], [0xe793f1949390b07e, 0xabc45713f69a33e6]]),
    ("LR", [[0x91e724623e848716, 0x39efe6d38b95e02a], [0xfe16baa9917e4687, 0xd19deef6e6e82731]]),
    ("CC", [[0xf97f2762fa5b01a4, 0xa8000063f25f4514], [0x711ddec9daacbd0a, 0xbc4ada2d6e2f2e41]]),
    ("Depth-n-MM", [[0x38e8298c90c67d41, 0x264dee01717c07d8], [0xdec3940536aa0d5e, 0xcf14df1697a238ec]]),
    ("Sort (SPMS)", [[0xd2f8db736ec4e5b9, 0xc212a7d0403adf17], [0x49d72972493763fe, 0x7bc1fee7a31d357c]]),
    ("Sort (merge std-in)", [[0xdb3d80cf670f91d5, 0xac946cee1ae7e091], [0x4b63e42bd88279f0, 0x28105eb4635e1fdc]]),
];

#[test]
fn traces_and_critical_paths_match_the_pinned_digests() {
    let cfg = MachineConfig::default_machine();
    let actual: Vec<(&str, [[u64; 2]; 2])> = registry()
        .iter()
        .map(|spec| {
            let n = match spec.size {
                SizeKind::Linear => 256,
                SizeKind::MatrixSide => 16,
            };
            let comp = (spec.build)(n, BuildConfig::default(), 7);
            let row = [Policy::Pws, Policy::Rws { seed: 1 }].map(|policy| {
                let sink = TraceSink::new(cfg.p, ClockDomain::Virtual);
                let report = run_traced(&comp, cfg, policy, &sink);
                let trace = sink.collect();
                let cp = critical_path(&trace)
                    .unwrap_or_else(|e| panic!("{}/{policy:?}: {e}", spec.name));
                assert_eq!(cp.total, report.makespan, "{}/{policy:?}", spec.name);
                [trace_digest(&trace), critical_path_digest(&cp)]
            });
            (spec.name, row)
        })
        .collect();
    assert!(
        actual == PINNED_PIPELINE,
        "trace / critical-path digests moved; the table now reads:\n{}",
        actual
            .iter()
            .map(|(name, row)| format!(
                "    ({name:?}, [[{:#018x}, {:#018x}], [{:#018x}, {:#018x}]]),\n",
                row[0][0], row[0][1], row[1][0], row[1][1]
            ))
            .collect::<String>()
    );
}
