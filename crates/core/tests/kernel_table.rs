//! The registry's `native` column is the contract: which rows each
//! backend runs is read off [`registry`] and nothing else.
//!
//! One `#[test]` in its own binary, so the metrics window at the end
//! sees exactly one job (no sibling test's pool publishes into the
//! process-global registry meanwhile).

use std::sync::Arc;

use hbp_core::prelude::*;
use hbp_core::{has_native_kernel, native_kernel};

const WORKERS: usize = 2;

fn small_n(spec: &AlgoSpec) -> usize {
    spec.size.pick(256, 8)
}

#[test]
fn every_row_resolves_where_its_columns_say_it_does() {
    let machine = MachineConfig::new(4, 1 << 10, 32);
    let sim = Config::new().open(machine);
    let native = Config::new()
        .backend(Backend::Native)
        .workers(WORKERS)
        .open(machine);
    assert_eq!((sim.backend(), sim.workers()), ("sim", machine.p));
    assert_eq!(sim.clock_domain(), ClockDomain::Virtual);
    assert_eq!((native.backend(), native.workers()), ("native", WORKERS));
    assert_eq!(native.clock_domain(), ClockDomain::WallNs);

    let mut served = 0;
    for spec in registry() {
        let job = ExecJob::new(spec.name, small_n(spec), 7);
        let wait = |s: &ExecSession| s.submit(&job).expect("live session admits").wait();

        let r = wait(&sim).unwrap_or_else(|e| panic!("sim runs every row: {e}"));
        assert!(r.makespan > 0 && r.work > 0, "{}", spec.name);

        assert_eq!(has_native_kernel(spec.name), spec.native.is_some());
        assert_eq!(
            native_kernel(spec.name, job.n, job.seed).is_some(),
            spec.native.is_some(),
            "{}",
            spec.name
        );
        match spec.native {
            Some(_) => {
                served += 1;
                let r = wait(&native).unwrap_or_else(|e| panic!("{e}"));
                assert!(r.makespan > 0 && r.work >= 1, "{}", spec.name);
                assert_eq!(r.p, WORKERS, "{}", spec.name);
            }
            None => assert_eq!(
                wait(&native).expect_err(spec.name),
                JobError::Unmapped {
                    algo: spec.name.to_string()
                }
            ),
        }
    }
    assert_eq!(served, 8, "the eight served rows");

    // The crate-root functions take canonical names only: spellings that
    // `find` would resolve are refused, as is an unknown name.
    for name in ["fft", "Sort", "sort (spms)", "no such algo"] {
        assert!(!has_native_kernel(name), "{name}");
        assert!(native_kernel(name, 64, 1).is_none(), "{name}");
    }
    // A name no row matches is admitted (the session is live) and
    // resolves to the typed error, on either backend.
    for session in [&sim, &native] {
        let err = session
            .submit(&ExecJob::new("no such algo", 16, 1))
            .expect("live session admits")
            .wait()
            .expect_err("no such row");
        assert!(err.to_string().contains("no such algo"), "{err}");
    }

    // The provided one-shot on a sim descriptor is the session's run
    // path: bit-identical to a direct `run_traced` of the row, and the
    // snapshot it publishes is that report's tallies.
    let spec = lookup("Sort (SPMS)");
    let (n, seed) = (1 << 10, 42);
    let comp = (spec.build)(n, BuildConfig::with_block(machine.block_words), seed);
    let sink = || Arc::new(TraceSink::new(machine.p, ClockDomain::Virtual));
    let (direct_sink, shot_sink) = (sink(), sink());
    let direct = run_traced(&comp, machine, Policy::Pws, &direct_sink);

    let m = hbp_core::metrics::global();
    m.set_enabled(true);
    m.reset();
    let shot = SimExecutor {
        machine,
        policy: Policy::Pws,
    }
    .execute_traced(&ExecJob::new(spec.name, n, seed), &shot_sink)
    .expect("sim runs SPMS");
    let snap = m.snapshot();
    m.set_enabled(false);

    assert_eq!(shot.makespan, direct.makespan);
    assert_eq!(shot.steals, direct.steals);
    assert_eq!(shot.busy, direct.busy);
    assert_eq!(
        shot_sink.collect().events.len(),
        direct_sink.collect().events.len()
    );
    assert_eq!((snap.jobs_submitted, snap.jobs_completed), (1, 1));
    assert_eq!(
        (snap.job_latency_ns.count, snap.job_latency_ns.sum),
        (1, direct.makespan)
    );
    assert_eq!(snap.total_tasks(), comp.n_nodes() as u64);
    assert_eq!(
        snap.total_steals(),
        (direct.steals, direct.steal_attempts - direct.steals)
    );
}
