//! The session API contract, end to end: one opened session serves many
//! jobs from many client threads, every submission resolves to exactly
//! one report, and traced runs are structurally deterministic under a
//! fixed seed.

use std::sync::Arc;

use hbp_core::prelude::*;
use hbp_core::trace::EventKind;

#[test]
fn native_session_delivers_every_report_exactly_once_across_client_threads() {
    const CLIENTS: usize = 4;
    const JOBS: u64 = 25;
    let session = NativeExecutor::new(2, 7).open();
    // The task count of a kernel is structural (forks don't depend on
    // who steals what), so one reference run pins what every job's
    // report must say.
    let reference = session
        .submit(&ExecJob::new("Scans (M-Sum)", 1 << 10, 0))
        .expect("live session admits")
        .wait()
        .expect("M-Sum has a native kernel")
        .work;
    assert!(reference > 0);

    let all: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let session = &session;
                scope.spawn(move || {
                    (0..JOBS)
                        .map(|i| {
                            session
                                .submit(&ExecJob::new("Scans (M-Sum)", 1 << 10, c as u64 * 100 + i))
                                .expect("live session admits")
                                .wait()
                                .expect("mapped kernel resolves")
                                .work
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Exactly once: every handle resolved (wait() consumed it), and the
    // structural work accounting shows each job ran in full exactly once.
    assert_eq!(all.len(), CLIENTS * JOBS as usize);
    assert!(all.iter().all(|&w| w == reference));
}

#[test]
fn sim_session_is_shareable_and_matches_the_one_shot_path() {
    let ex = SimExecutor {
        machine: MachineConfig::new(4, 1 << 10, 32),
        policy: Policy::Pws,
    };
    let session = ex.open();
    let job = ExecJob::new("FFT", 512, 3);
    let one_shot = ex.execute(&job).expect("FFT builds");
    let results: Vec<ExecReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let session = &session;
                let job = &job;
                scope.spawn(move || {
                    session
                        .submit(job)
                        .expect("sim admits everything")
                        .wait()
                        .expect("FFT builds")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for r in &results {
        assert_eq!(
            r.makespan, one_shot.makespan,
            "sim sessions are deterministic"
        );
        assert_eq!(r.work, one_shot.work);
    }
}

#[test]
fn traced_session_task_counts_are_deterministic_under_a_fixed_seed() {
    let count_tasks = |seed: u64| -> Vec<u64> {
        let session = NativeExecutor::new(2, seed).open();
        (0..4u64)
            .map(|i| {
                let sink = Arc::new(TraceSink::new(2, ClockDomain::WallNs));
                session
                    .submit_traced(&ExecJob::new("LR", 512, i), &sink)
                    .expect("live session admits")
                    .wait()
                    .expect("LR has a native kernel");
                sink.collect()
                    .count(|k| matches!(k, EventKind::TaskBegin { .. }))
            })
            .collect()
    };
    let a = count_tasks(7);
    let b = count_tasks(7);
    assert_eq!(
        a, b,
        "same seed, same jobs: the traced task structure must repeat"
    );
    assert!(a.iter().all(|&c| c > 0), "every job recorded tasks");
}

#[test]
fn unmapped_algorithm_yields_a_job_error_not_a_hang() {
    // CC has no par_* kernel: the native session resolves the job at
    // submit time and the handle reports the typed error instead of
    // stranding a waiter.
    let session = NativeExecutor::new(2, 3).open();
    let handle = session
        .submit(&ExecJob::new("CC", 256, 0))
        .expect("admission succeeds; resolution fails");
    assert!(matches!(handle.wait(), Err(JobError::Unmapped { algo }) if algo == "CC"));
    // The session (and its pool) still serves mapped jobs afterwards.
    assert!(session
        .submit(&ExecJob::new("Sort (SPMS)", 512, 1))
        .expect("live session admits")
        .wait()
        .is_ok());
}
