//! **F7 — Lemma 4.12 / §4.5 runtime decomposition**: the paper's running
//! time form is
//!
//! ```text
//! T ≈ (W(n) + b·Q(n,M,B)) / p + sP·T∞(n)
//! ```
//!
//! For every algorithm we compare the measured PWS makespan against this
//! model; the ratio should be a bounded constant (≥ 1 because the model
//! drops block misses and idle time; ≈ 1 for the scan-like algorithms).
//!
//! With `HBP_BACKEND=native` the supported kernels instead run on the
//! real-threads pool over a sweep of worker counts, reporting wall-clock
//! makespan and steal counters (`HBP_EXAMPLE_N` scales the input,
//! `HBP_WORKERS` caps the sweep).

use hbp_core::prelude::*;

use crate::common::{matrix_side_for, rule};

pub fn main() {
    match Config::from_env().backend {
        Backend::Sim => sim_main(),
        Backend::Native => native_main(),
    }
}

fn sim_main() {
    let machine = MachineConfig::default_machine();
    let (p, b, sp) = (machine.p as u64, machine.miss_cost(), machine.steal_cost());
    println!("F7: makespan vs (W + b·Q)/p + sP·T∞   (p={p}, b={b}, sP={sp})\n");
    println!(
        "{:<20} {:>9} {:>9} {:>7} | {:>10} {:>10} {:>7}",
        "algorithm", "W", "Q", "T∞", "model", "measured", "ratio"
    );
    rule(82);
    for spec in registry() {
        let n = spec.size.pick(1 << 13, 32);
        let comp = (spec.build)(n, BuildConfig::with_block(machine.block_words), 42);
        let seq = run_sequential(&comp, machine);
        let par = run(&comp, machine, Policy::Pws);
        let span = analysis::span(&comp);
        let model = (comp.work() + b * seq.q_misses) / p + sp * span;
        println!(
            "{:<20} {:>9} {:>9} {:>7} | {:>10} {:>10} {:>7.2}",
            spec.name,
            comp.work(),
            seq.q_misses,
            span,
            model,
            par.makespan,
            par.makespan as f64 / model as f64
        );
    }
    println!(
        "\nratio ≈ O(1): the measured makespan tracks the paper's runtime\n\
         form; values above 1 come from block misses and join idling, which\n\
         the two-term model intentionally omits."
    );
}

fn native_main() {
    // Rounded down to a power of two, which the FFT (and the
    // matrix-side derivation) require: a smoke run must not abort
    // mid-table on an odd override.
    let linear = 1 << hbp_repro::example_size(1 << 18).ilog2();
    let side = matrix_side_for(linear);
    let base = NativeExecutor {
        pool: Config::from_env().native_config(0),
    };
    let max_workers = base.pool.workers;
    let mut sweep: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w < max_workers)
        .collect();
    // Always measure the configured parallelism itself, even when it is
    // not a power of two (e.g. HBP_WORKERS=6).
    sweep.push(max_workers);
    println!(
        "F7 (native backend): wall-clock makespan over worker counts {sweep:?}\n\
         (times in ms; steals/probes are pool-wide totals)\n"
    );
    println!(
        "{:<20} {:>8} {:>3} | {:>10} {:>7} {:>7} | {:>10} {:>10}",
        "algorithm", "n", "w", "ms", "steals", "probes", "busy ms", "idle ms"
    );
    rule(90);
    for spec in registry().iter().filter(|spec| spec.native.is_some()) {
        let n = spec.size.pick(linear, side);
        let job = ExecJob::new(spec.name, n, 42);
        for &w in &sweep {
            let mut ex = base;
            ex.pool.workers = w;
            let r = ex.execute(&job).expect("the row has a native kernel");
            let busy: u64 = r.busy.iter().sum();
            let idle: u64 = r.idle.iter().sum();
            println!(
                "{:<20} {:>8} {:>3} | {:>10.2} {:>7} {:>7} | {:>10.2} {:>10.2}",
                spec.name,
                n,
                w,
                r.makespan as f64 / 1e6,
                r.steals,
                r.steal_attempts - r.steals,
                busy as f64 / 1e6,
                idle as f64 / 1e6,
            );
        }
    }
    println!(
        "\nOn a host with real cores the ms column should fall as w grows\n\
         until memory bandwidth dominates; per-worker busy/idle expose the\n\
         load balance the simulated figures measure in virtual time."
    );
}
