//! **F4 — the headline comparison**: PWS vs randomized work stealing on
//! the same simulated machine, for the main algorithm families.
//!
//! The paper's claim (§1, §4.5): PWS's priority rounds steal only the
//! largest available tasks, so it incurs (a) fewer steals, (b) fewer
//! cache-miss excess reads, and (c) far fewer **block misses** than RWS,
//! which freely steals small, block-sharing tasks. RWS numbers are averaged
//! over 5 seeds.
//!
//! ```text
//! cargo run --release -p hbp-bench --bin fig_pws_vs_rws
//! ```
//!
//! With `HBP_BACKEND=native` the same algorithm families run as real
//! `par_*` kernels on the native work-stealing thread pool instead:
//! wall-clock makespan, executed tasks, and steal counters per worker
//! count (`HBP_WORKERS` sets the pool size, `HBP_FIG_N` the linear
//! problem size).

use hbp_bench::rws_avg;
use hbp_core::prelude::*;

// Canonical registry names, resolved through the fail-loud `lookup` so a
// registry rename can never silently drop a row from this figure. Both
// sort rows run: SPMS (the paper's) and the mergesort stand-in (A/B).
const ALGOS: [&str; 8] = [
    "Scans (PS)",
    "MT",
    "Strassen",
    "FFT",
    "Sort (SPMS)",
    "Sort (merge std-in)",
    "LR",
    "Depth-n-MM",
];

fn main() {
    match Config::from_env().backend {
        Backend::Sim => sim_main(),
        Backend::Native => native_main(),
    }
}

fn sim_main() {
    let seeds = [11u64, 22, 33, 44, 55];
    println!("F4: PWS vs RWS (RWS averaged over {} seeds)\n", seeds.len());
    println!(
        "{:<20} {:>3} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>9} | {:>7} {:>7}",
        "algorithm",
        "p",
        "PWS miss",
        "PWS blk",
        "PWS stl",
        "RWS miss",
        "RWS blk",
        "RWS stl",
        "blk x",
        "stl x"
    );
    hbp_bench::rule(112);
    for name in ALGOS {
        let spec = lookup(name);
        let n = match spec.size {
            SizeKind::Linear => 1 << 12,
            SizeKind::MatrixSide => 32,
        };
        let comp = (spec.build)(n, BuildConfig::with_block(32), 42);
        for p in [4usize, 8, 16] {
            let cfg = MachineConfig::new(p, 1 << 12, 32);
            let pws = run(&comp, cfg, Policy::Pws);
            let rws = rws_avg(&comp, cfg, &seeds);
            println!(
                "{:<20} {:>3} | {:>9} {:>9} {:>7} | {:>9.0} {:>9.0} {:>9.0} | {:>7.2} {:>7.2}",
                spec.name,
                p,
                pws.plain_misses(),
                pws.block_misses(),
                pws.steals,
                rws.plain_misses,
                rws.block_misses,
                rws.steals,
                rws.block_misses / pws.block_misses().max(1) as f64,
                rws.steals / pws.steals.max(1) as f64,
            );
        }
    }
    println!("\nblk x / stl x: RWS-to-PWS ratios — above 1.0 means PWS wins.");
}

fn native_main() {
    let linear = hbp_bench::fig_size(1 << 18);
    let side = hbp_bench::matrix_side_for(linear);
    let ex = NativeExecutor {
        pool: Config::from_env().native_config(0),
    };
    let mut solo = ex;
    solo.pool.workers = 1;
    println!(
        "F4 (native backend): randomized work stealing on real threads, \
         {} workers vs 1\n",
        ex.pool.workers
    );
    println!(
        "{:<20} {:>8} | {:>10} {:>10} {:>6} | {:>7} {:>7} {:>7} {:>5}",
        "algorithm", "n", "1w ms", "ms", "spdup", "tasks", "steals", "probes", "busy#"
    );
    hbp_bench::rule(96);
    for name in ALGOS {
        let spec = lookup(name);
        let n = match spec.size {
            SizeKind::Linear => linear,
            SizeKind::MatrixSide => side,
        };
        if spec.native.is_none() {
            println!("{:<20} {:>8} | (no native kernel — skipped)", spec.name, n);
            continue;
        }
        let job = ExecJob::new(spec.name, n, 42);
        let run = |ex: NativeExecutor| ex.execute(&job).expect("the row has a native kernel");
        let (par, seq) = (run(ex), run(solo));
        let busy_workers = par.busy.iter().filter(|&&b| b > 0).count();
        println!(
            "{:<20} {:>8} | {:>10.2} {:>10.2} {:>6.2} | {:>7} {:>7} {:>7} {:>5}",
            spec.name,
            n,
            seq.makespan as f64 / 1e6,
            par.makespan as f64 / 1e6,
            seq.makespan as f64 / par.makespan.max(1) as f64,
            par.work,
            par.steals,
            par.steal_attempts - par.steals,
            busy_workers,
        );
    }
    println!(
        "\nms = wall-clock; tasks = root + forked branches executed; busy# =\n\
         workers with non-zero busy time. Speedup above 1 needs real cores —\n\
         on a single-CPU host expect ≈ 1 with non-zero steals (the point is\n\
         that the work moved between workers, not that it got faster)."
    );
}
