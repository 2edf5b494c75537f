//! End-to-end scenario acceptance tests for the job server.

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use hbp_core::trace::json::{parse, Json};
use hbp_core::{Backend, Policy};
use hbp_serve::{default_mix, run_scenario, LoadMode, MixEntry, ScenarioSpec};

/// A small-kernel mix that exercises every served family without
/// dominating test wall-clock.
fn tiny_mix() -> Vec<MixEntry> {
    vec![
        MixEntry {
            algo: "Sort (SPMS)".into(),
            weight: 2,
            sizes: vec![256, 512],
        },
        MixEntry {
            algo: "Scans (M-Sum)".into(),
            weight: 3,
            sizes: vec![512, 1024],
        },
        MixEntry {
            algo: "LR".into(),
            weight: 2,
            sizes: vec![256, 512],
        },
        MixEntry {
            algo: "FFT".into(),
            weight: 1,
            sizes: vec![256],
        },
    ]
}

#[test]
fn one_pool_serves_a_thousand_mixed_requests_from_four_clients() {
    let spec = ScenarioSpec {
        requests: 1000,
        queue_cap: 1024,
        think_mean_ns: 0,
        mix: tiny_mix(),
        backend: Backend::Native,
        policy: Policy::Rws { seed: 1 },
        workers: 2,
        ..ScenarioSpec::default()
    };
    let report = run_scenario(&spec);
    assert_eq!(report.completed, 1000, "every request is served");
    assert_eq!(report.rejected, 0, "roomy queue admits everything");
    assert_eq!(report.rows.len(), 1000);
    assert!(report.latency.p99 >= report.latency.p95);
    assert!(report.latency.p95 >= report.latency.p50);
    assert!(report.throughput_milli_rps > 0);
    // With four closed-loop clients hammering small kernels, some
    // launches must have been shared.
    assert!(report.batched_requests > 0, "batching never engaged");
    assert!(report.launches < report.completed);
}

#[test]
fn fixed_seed_sim_scenario_reports_are_byte_identical() {
    let spec = ScenarioSpec {
        mix: tiny_mix(),
        workers: 4,
        ..ScenarioSpec::default()
    };
    let a = run_scenario(&spec).to_json();
    let b = run_scenario(&spec).to_json();
    assert_eq!(a, b, "same seed must serialize to the same bytes");
    // The report carries the per-request critical-path breakdown on sim.
    assert!(a.contains("\"cp\": {\"total\":"));
    assert!(a.contains("\"latency_ns\": {\"p50\":"));
}

#[test]
fn default_env_spec_parses_and_validates() {
    // No HBP_* variables set in the test environment: the default
    // scenario must parse, validate, and target the sim backend.
    let spec = ScenarioSpec::try_from_env().expect("default scenario is valid");
    assert_eq!(spec.backend, Backend::Sim);
    assert_eq!(spec.requests, 120);
    assert_eq!(spec.clients, 4);
    assert!(spec.queue_cap >= spec.clients);
    assert!(!spec.mix.is_empty());
}

#[test]
fn an_empty_environment_yields_the_default_spec() {
    let from_env = ScenarioSpec::try_from_env().expect("default scenario is valid");
    assert_eq!(
        format!("{from_env:?}"),
        format!("{:?}", ScenarioSpec::default())
    );
}

/// The 200-request scenario of the acceptance cells below: the default
/// mix of `backend`, four clients, four workers.
fn cell(backend: Backend, policy: Policy) -> ScenarioSpec {
    ScenarioSpec {
        requests: 200,
        mix: default_mix(backend),
        backend,
        policy,
        workers: 4,
        ..ScenarioSpec::default()
    }
}

/// The unsigned number at `path` of a parsed report.
fn num(doc: &Json, path: &[&str]) -> u64 {
    let leaf = path.iter().fold(doc, |at, key| {
        at.get(key)
            .unwrap_or_else(|| panic!("report has no {path:?}"))
    });
    leaf.as_f64()
        .unwrap_or_else(|| panic!("{path:?} is not a number")) as u64
}

#[test]
fn every_backend_and_policy_cell_reports_all_200_requests_in_valid_json() {
    let cells = [
        (Backend::Sim, Policy::Pws),
        (Backend::Sim, Policy::Rws { seed: 3 }),
        (Backend::Native, Policy::Rws { seed: 3 }),
    ];
    for (backend, policy) in cells {
        let spec = cell(backend, policy);
        let json = run_scenario(&spec).to_json();
        let label = format!("{backend:?} x {policy:?}");
        if backend == Backend::Sim {
            assert_eq!(
                json,
                run_scenario(&spec).to_json(),
                "{label}: sim report is byte-identical across runs"
            );
        }
        let doc = parse(&json).unwrap_or_else(|e| panic!("{label}: {e}"));
        let want = if backend == Backend::Sim {
            "sim"
        } else {
            "native"
        };
        let scenario = doc.get("scenario").expect("scenario block");
        assert_eq!(scenario.get("backend").and_then(Json::as_str), Some(want));
        assert_eq!(num(&doc, &["scenario", "requests"]), 200, "{label}");
        assert_eq!(num(&doc, &["scenario", "clients"]), 4, "{label}");
        let completed = num(&doc, &["totals", "completed"]);
        assert_eq!(
            completed + num(&doc, &["totals", "rejected"]),
            200,
            "{label}: every request is completed or rejected"
        );
        assert!(completed > 0 && num(&doc, &["totals", "makespan_ns"]) > 0);
        let lat = |p| num(&doc, &["latency_ns", p]);
        assert!(
            lat("p50") <= lat("p95") && lat("p95") <= lat("p99") && lat("p99") <= lat("max"),
            "{label}: percentiles are ordered"
        );
        let rows = doc.get("requests").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 200, "{label}");
        for row in rows {
            if row.get("rejected") == Some(&Json::Bool(true)) {
                continue;
            }
            assert!(num(row, &["latency_ns"]) >= num(row, &["service_ns"]));
            let cp = row.get("cp").expect("cp key");
            if backend == Backend::Sim {
                assert_eq!(
                    num(cp, &["total"]),
                    num(cp, &["work"]) + num(cp, &["steal"]) + num(cp, &["queue_wait"]),
                    "{label}: sim rows carry a critical path that adds up"
                );
            } else {
                assert_eq!(cp, &Json::Null, "native rows must not fake critical paths");
            }
        }
    }
}

#[test]
fn pacing_under_pressure_defers_rejects_less_and_loses_nothing() {
    // Eight clients with no think time to speak of on a cap-2 queue.
    let hard_spec = ScenarioSpec {
        clients: 8,
        queue_cap: 2,
        think_mean_ns: 1,
        ..cell(Backend::Sim, Policy::Pws)
    };
    let paced_spec = ScenarioSpec {
        pacing: true,
        ..hard_spec.clone()
    };
    let hard = run_scenario(&hard_spec);
    let paced = run_scenario(&paced_spec);
    assert_eq!(
        paced.to_json(),
        run_scenario(&paced_spec).to_json(),
        "paced sim scenario is byte-identical across runs"
    );
    assert_eq!(hard.completed + hard.rejected, 200);
    assert_eq!(paced.completed + paced.rejected, 200);
    assert!(hard.rejected > 0, "load too light to exercise admission");
    assert_eq!(hard.deferred, 0, "no pacing, no deferrals");
    assert!(paced.deferred > 0, "pacing never engaged");
    assert!(
        paced.rejected < hard.rejected,
        "pacing must cut hard rejections: {} vs {}",
        paced.rejected,
        hard.rejected
    );
}

#[test]
fn two_hundred_back_to_back_native_scenarios_all_tear_down() {
    // What a 16-request scenario ends on: the last launch signalling an
    // idle desk, every launch's pool job waited out, and the pool joined
    // from this thread. A pool dropped on its own driver, a lost idle
    // signal or an admitted-but-never-launched open-loop tail is a hang,
    // so a watchdog turns it into a failure. (`exit`, not a panic: a
    // panic in the watchdog thread cannot fail a test whose own thread
    // is stuck.)
    let (done, watched) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        // A failed assertion below hangs up instead, and reports itself.
        if watched.recv_timeout(Duration::from_secs(30)) == Err(RecvTimeoutError::Timeout) {
            eprintln!("teardown storm still running after 30 s: a scenario hung");
            std::process::exit(1);
        }
    });
    for round in 0..200usize {
        let spec = ScenarioSpec {
            seed: round as u64,
            requests: 16,
            mode: [LoadMode::Closed, LoadMode::Open][round % 2],
            workers: 1 + (round / 2) % 2,
            queue_cap: [1, 64][(round / 4) % 2],
            think_mean_ns: 1_000,
            mix: tiny_mix(),
            backend: Backend::Native,
            policy: Policy::Rws { seed: round as u64 },
            ..ScenarioSpec::default()
        };
        let report = run_scenario(&spec);
        assert_eq!(
            report.completed + report.rejected,
            16,
            "round {round}: {:?} on {} workers, cap {}",
            spec.mode,
            spec.workers,
            spec.queue_cap
        );
        assert!(report.launches >= 1, "round {round} launched nothing");
    }
    done.send(()).expect("watchdog is listening");
    watchdog.join().expect("watchdog panicked");
}

/// 64-bit FNV-1a of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn sim_reports_match_the_pinned_digests() {
    // Two runs of one build agree with each other even when both move;
    // these digests pin the bytes themselves. Open and closed loop, PWS
    // and RWS, and a paced run under pressure (deferrals and rejections).
    let open = |policy| ScenarioSpec {
        mode: LoadMode::Open,
        think_mean_ns: 2_000,
        queue_cap: 8,
        ..cell(Backend::Sim, policy)
    };
    let cases = [
        (
            "closed x pws",
            cell(Backend::Sim, Policy::Pws),
            0x7007_c109_6c84_a2d1,
        ),
        (
            "open x rws:3",
            open(Policy::Rws { seed: 3 }),
            0x289b_4a77_e597_8b9b,
        ),
        (
            "paced closed x rws:3",
            ScenarioSpec {
                clients: 8,
                queue_cap: 2,
                think_mean_ns: 1,
                pacing: true,
                mix: tiny_mix(),
                ..cell(Backend::Sim, Policy::Rws { seed: 3 })
            },
            0x2a19_6a5e_0341_553e,
        ),
        ("open x pws", open(Policy::Pws), 0xd344_e7ba_b36c_7ae5),
    ];
    for (label, spec, want) in cases {
        let got = fnv1a(&run_scenario(&spec).to_json());
        assert_eq!(got, want, "{label}: report digest moved");
    }
}
