//! SPMS tour: the real Sample–Partition–Merge sort on whichever backend
//! `HBP_BACKEND` selects, checked against the sequential oracle.
//!
//! ```text
//! cargo run --release --example spms_tour                      # simulator
//! HBP_BACKEND=native HBP_POLICY=rws \
//!     cargo run --release --example spms_tour                  # real threads
//! ```
//!
//! This is the CI `spms-matrix` smoke: every `sim × {pws,rws,bsp}` cell
//! and `native × rws` (the native pool's one discipline) run this binary
//! on a tiny duplicate-heavy input and the assertions inside prove (a) the
//! output is oracle-sorted **and stable**, and (b) the pool survives the
//! run (and a second one) with a sane report. `HBP_EXAMPLE_N` scales the
//! problem size; `HBP_WORKERS` sizes the native pool.

use hbp_core::prelude::*;
use hbp_repro::algos::{oracle, par, spms};

fn main() {
    let n = hbp_repro::example_size(1 << 12);
    // Duplicate-heavy keys (universe n/4) with the input position as
    // payload: equal pairs in the output ⇔ the sort is stable.
    let keys = hbp_repro::algos::gen::random_u64s(n, (n as u64 / 4).max(3), 42);
    let data: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let want = oracle::sort_pairs(&data);
    let env = Config::from_env();
    let policy = env.policy;

    match env.backend {
        Backend::Sim => {
            let machine = MachineConfig::default_machine();
            let (comp, out) = spms::spms(&data, BuildConfig::with_block(machine.block_words));
            let got = hbp_repro::algos::util::read_out(&comp, out);
            assert_eq!(got, want, "sim SPMS output must be oracle-sorted + stable");
            let report = run(&comp, machine, policy);
            assert_eq!(report.work, comp.work(), "every recorded access executed");
            println!(
                "SPMS (sim, n = {n}, {policy:?}): makespan {}u, work {}, {} steals, \
                 {} heap + {} stack block misses",
                report.makespan,
                report.work,
                report.steals,
                report.heap_block_misses,
                report.stack_block_misses
            );
        }
        Backend::Native => {
            let cfg = env.native_config(7);
            // Two runs on two pools: the second proves the first shut its
            // pool down cleanly (no leaked workers, no poisoned state).
            for round in 0..2 {
                let mut d = data.clone();
                let (_, report) =
                    hbp_repro::sched::native::NativePool::run(cfg, || par::par_spms(&mut d));
                assert_eq!(
                    d, want,
                    "native SPMS output must be oracle-sorted + stable (round {round})"
                );
                assert!(report.makespan > 0, "wall clock advanced");
                assert!(report.work >= 1, "the pool executed the root task");
                assert_eq!(report.p, cfg.workers, "report covers the whole pool");
                println!(
                    "SPMS (native round {round}, n = {n}, {policy:?}, {} workers): \
                     {:.3} ms, {} tasks, {} steals / {} attempts",
                    cfg.workers,
                    report.makespan as f64 / 1e6,
                    report.work,
                    report.steals,
                    report.steal_attempts
                );
            }
        }
    }
    println!("ok: SPMS sorted {n} duplicate-heavy pairs stably on this backend");
}
