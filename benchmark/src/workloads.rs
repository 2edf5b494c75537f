//! The five workloads. Every spec is built in code — never `from_env` —
//! and every size and count below is frozen: changing one redefines the
//! benchmark and invalidates the recorded baseline.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hbp_core::sched::native::{NativeConfig, NativePool};
use hbp_core::{
    native_kernel, registry, run, run_sequential, AlgoSpec, Backend, BuildConfig, MachineConfig,
    Policy, SizeKind,
};
use hbp_serve::{
    default_mix, run_scenario, LoadMode, MixEntry, RequestRecord, ScenarioReport, ScenarioSpec,
};

use crate::kernels::{self, KERNELS};
use crate::run::{Measured, RunCfg, Workload};
use crate::spans::Tracer;
use crate::stats::{median, quantile, OpSamples, Steps};
use crate::{bench_dir, bless_requested};

/// Keep measuring until `seconds` have passed and at least `min`
/// rounds ran (quantiles over fewer are meaningless).
fn keep_going(start: Instant, seconds: f64, done: u64, min: u64) -> bool {
    done < min || start.elapsed().as_secs_f64() < seconds
}

/// The load-seeing estimates of a round-based workload, printed with
/// every run but gated by nothing: they follow the host's phase (see
/// README.md, "What the host noise looks like").
fn print_under_load(unit: &str, ops: &OpSamples, rounds: u64) {
    println!(
        "  under load (host-dependent, not gated): {unit} takes sum-of-q25 {:.1} us, \
         sum-of-medians {:.1} us  (n={rounds})",
        ops.sum_quantile(0.25) / 1e3,
        ops.sum_quantile(0.5) / 1e3
    );
}

/// Compare `current` with the golden file `name` byte for byte (or
/// rewrite the file under `--bless`). Returns whether they agree and
/// prints the first differing line when they do not.
fn golden_agrees(name: &str, current: &str) -> bool {
    let path = bench_dir().join("golden").join(name);
    if bless_requested() {
        std::fs::create_dir_all(path.parent().expect("golden dir"))
            .and_then(|()| std::fs::write(&path, current))
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        println!("blessed {}", path.display());
        return true;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with --bless once",
            path.display()
        )
    });
    if golden == current {
        return true;
    }
    let diff = golden
        .lines()
        .zip(current.lines())
        .find(|(g, c)| g != c)
        .map_or_else(
            || "files differ in length".to_string(),
            |(g, c)| format!("golden  {g}\n  current {c}"),
        );
    println!("GOLDEN MISMATCH in {}:\n  {diff}", path.display());
    false
}

// ---------------------------------------------------------------- kernels

/// A pool of `workers` threads, default `NativeConfig` otherwise.
pub fn pool_of(workers: usize) -> NativePool {
    NativePool::new(NativeConfig {
        workers,
        ..NativeConfig::default()
    })
}

/// Warm-up rounds in set-up (fixed work).
const KERNEL_WARMUP_ROUNDS: u64 = 4;

/// What kernel rounds record: per kernel the timed `submit` → `wait`
/// span and the input build before it, plus the launches' summed
/// `ExecReport` counters.
pub struct RoundSamples {
    pub run: OpSamples,
    pub gen: OpSamples,
    pub launches: u64,
    pub steals: u64,
    pub steal_attempts: u64,
    pub workers_active: u64,
}

impl RoundSamples {
    pub fn new() -> Self {
        Self {
            run: OpSamples::new(KERNELS.len()),
            gen: OpSamples::new(KERNELS.len()),
            launches: 0,
            steals: 0,
            steal_attempts: 0,
            workers_active: 0,
        }
    }
}

/// `kernel-par` (workers = w) and `kernel-seq` (workers = 1): one pool,
/// and per round each of the eight kernels once — closure built by
/// `native_kernel` outside the timed span, then `submit` → `wait` timed.
pub struct KernelRounds {
    pool: NativePool,
    seed: u64,
    checks: (u64, u64),
}

impl KernelRounds {
    /// A pool and nothing else: no output check, no warm-up (the layer
    /// probes' constructor).
    pub fn bare(workers: usize, seed: u64) -> Self {
        Self {
            pool: pool_of(workers),
            seed,
            checks: (0, 0),
        }
    }

    /// The workloads' set-up: pool spawn, every kernel's output against
    /// its oracle at the benchmark size, the timed-closure guard, and
    /// the warm-up rounds — each a timed step.
    fn set_up(workers: usize, seed: u64, steps: &mut Steps) -> Self {
        let pool = steps.time(|| pool_of(workers));
        let wrong = KERNELS
            .iter()
            .filter(|k| {
                let (ok, _) = steps.time(|| kernels::check(&pool, k.key, k.n, seed));
                if !ok {
                    println!("WRONG OUTPUT: {} disagrees with its oracle", k.name);
                }
                !ok
            })
            .count();
        let drifted = steps.time(|| kernels::timed_closure_drifted(seed));
        if !drifted.is_empty() {
            println!(
                "UNCHECKED KERNEL: native_kernel's closure no longer runs what \
                 kernels::check verifies for {drifted:?}"
            );
        }
        let this = Self {
            pool,
            seed,
            checks: (2 * KERNELS.len() as u64, (wrong + drifted.len()) as u64),
        };
        let mut warm = RoundSamples::new();
        for round in 0..KERNEL_WARMUP_ROUNDS {
            this.round(round, &mut warm, &mut Tracer::new(false));
        }
        for ops in [&warm.gen, &warm.run] {
            steps.fixed.extend(ops.ns.iter().flatten());
        }
        this
    }

    pub fn round(&self, round: u64, samples: &mut RoundSamples, tr: &mut Tracer) {
        tr.span("bench.round", round, |tr| {
            for (i, k) in KERNELS.iter().enumerate() {
                let (kernel, gen_ns) = tr.timed("core.native_kernel", round, || {
                    native_kernel(k.name, k.n, self.seed).expect("KERNELS rows have native kernels")
                });
                let ((_, report), run_ns) = tr.timed("sched.pool.submit_wait", round, || {
                    self.pool.submit(kernel).expect("pool is open").wait()
                });
                samples.gen.push(i, gen_ns);
                samples.run.push(i, run_ns);
                samples.launches += 1;
                samples.steals += report.steals;
                samples.steal_attempts += report.steal_attempts;
                samples.workers_active += report.workers_active as u64;
                tr.count("pool.launches", 1);
                tr.count("pool.steals", report.steals);
            }
        });
    }
}

impl Workload for KernelRounds {
    fn setup(cfg: &RunCfg, steps: &mut Steps) -> Self {
        let workers = if cfg.workload == "kernel-seq" {
            1
        } else {
            cfg.workers
        };
        Self::set_up(workers, cfg.seed, steps)
    }

    fn checks(&self) -> (u64, u64) {
        self.checks
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Measured {
        let mut samples = RoundSamples::new();
        let start = Instant::now();
        let mut rounds = 0;
        while keep_going(start, seconds, rounds, 5) {
            self.round(rounds, &mut samples, tr);
            rounds += 1;
        }
        let ops = &samples.run;
        for (i, k) in KERNELS.iter().enumerate() {
            println!(
                "  op {:<10} min {:>10.1} us  q25 {:>10.1} us  median {:>10.1} us  (n={rounds})",
                k.key,
                ops.op_us(i, 0.0),
                ops.op_us(i, 0.25),
                ops.op_us(i, 0.5)
            );
        }
        print_under_load("a round of 8 launches", ops, rounds);
        Measured {
            // A kernel that panics takes the process down with a
            // non-zero exit; outputs were checked in set-up.
            attempted: samples.launches,
            failed: 0,
            best_case_latency_us: ops.sum_quantile(0.0) / 1e3,
            samples: rounds,
        }
    }
}

// ------------------------------------------------------ serve-closed-small

/// Requests per measured segment (~0.35 s on the 2-vCPU host): one
/// `run_scenario` call, so the run can stop when its time is up.
const SERVE_SEGMENT_REQUESTS: usize = 2500;
/// Set-up: this many warm-up scenarios of this many requests.
const SERVE_WARMUP_SCENARIOS: usize = 5;
const SERVE_WARMUP_REQUESTS: usize = 1000;

/// The served request shapes: (kernel key, registry row, weight, sizes).
const SERVE_MIX: [(&str, &str, u64, [usize; 2]); 4] = [
    ("spms", "Sort (SPMS)", 2, [512, 2048]),
    ("msum", "Scans (M-Sum)", 3, [1024, 4096]),
    ("lr", "LR", 2, [512, 2048]),
    ("fft", "FFT", 1, [256, 1024]),
];

/// The frozen native closed-loop spec: clients = workers = w, no think
/// time, no pacing, four small kernels.
pub fn serve_closed_spec(w: usize, seed: u64, requests: usize) -> ScenarioSpec {
    let mix = SERVE_MIX
        .into_iter()
        .map(|(_, algo, weight, sizes)| MixEntry {
            algo: algo.to_string(),
            weight,
            sizes: sizes.to_vec(),
        })
        .collect();
    ScenarioSpec {
        seed,
        requests,
        clients: w,
        mode: LoadMode::Closed,
        queue_cap: 256,
        batch_max: 8,
        small_n: 4096,
        think_mean_ns: 0,
        mix,
        backend: Backend::Native,
        policy: Policy::Rws { seed: 0 },
        workers: w,
        pacing: false,
        native: NativeConfig::default(),
    }
}

/// Rows that break the serve contract: every request is completed or
/// rejected, a completed row has `latency_ns > 0` and `batch >= 1`.
/// With `allow_rejections == false` a rejection is a failure too.
pub fn serve_failures(report: &ScenarioReport, allow_rejections: bool) -> u64 {
    let bad_rows = report
        .rows
        .iter()
        .filter(|r| !r.rejected && (r.latency_ns == 0 || r.batch < 1))
        .count() as u64;
    let lost = (report.requests as u64).abs_diff(report.completed + report.rejected);
    let rejected = if allow_rejections { 0 } else { report.rejected };
    bad_rows + lost + rejected
}

/// The stages a served request crosses, as its row records them: wait
/// in the admission queue, the pool launch, and the rest of submit →
/// reply (dispatch and the hand-off back). Named as the traced run's
/// boundary counts.
const SERVE_STAGES: [&str; 3] = ["serve.queue_ns", "serve.service_ns", "serve.reply_ns"];

pub fn serve_stage_ns(r: &RequestRecord) -> [u64; 3] {
    [
        r.queue_ns,
        r.service_ns,
        r.latency_ns.saturating_sub(r.queue_ns + r.service_ns),
    ]
}

/// Per request shape: how many completed, and the minimum seen of each
/// stage and of the whole submit → reply latency.
#[derive(Default)]
pub struct ShapeFloors(BTreeMap<(&'static str, usize), (u64, [u64; 4])>);

impl ShapeFloors {
    pub fn add(&mut self, report: &ScenarioReport) {
        for r in report.rows.iter().filter(|r| !r.rejected) {
            let e = self.0.entry((r.algo, r.n)).or_insert((0, [u64::MAX; 4]));
            e.0 += 1;
            let [q, s, reply] = serve_stage_ns(r);
            for (floor, ns) in e.1.iter_mut().zip([q, s, reply, r.latency_ns]) {
                *floor = (*floor).min(ns);
            }
        }
    }

    pub fn completed(&self) -> u64 {
        self.0.values().map(|&(n, _)| n).sum()
    }

    /// Σ over shapes of the shape's share of the completed requests ×
    /// `f(floors)`, in microseconds.
    fn weighted_us(&self, f: impl Fn(&[u64; 4]) -> u64) -> f64 {
        let completed = self.completed() as f64;
        self.0
            .values()
            .map(|(n, floors)| *n as f64 / completed * f(floors) as f64 / 1e3)
            .sum()
    }

    /// The request path's floor: each stage at its best, summed.
    pub fn stage_floor_us(&self) -> f64 {
        self.weighted_us(|f| f[0] + f[1] + f[2])
    }

    /// The best whole request seen (every stage lucky at once).
    pub fn best_request_us(&self) -> f64 {
        self.weighted_us(|f| f[3])
    }
}

pub struct ServeClosed {
    spec: ScenarioSpec,
    checks: (u64, u64),
}

impl ServeClosed {
    fn segment(&self, id: u64, floors: &mut ShapeFloors, tr: &mut Tracer) -> (f64, ScenarioReport) {
        tr.span("bench.segment", id, |tr| {
            let (report, wall_ns) = tr.timed("serve.run_scenario", id, || run_scenario(&self.spec));
            tr.count("serve.completed", report.completed);
            tr.count("serve.rejected", report.rejected);
            tr.count("serve.launches", report.launches);
            tr.count("serve.batched_requests", report.batched_requests);
            // Requests cross their layer boundaries inside the program;
            // the rows carry the times, so the sums are counted here.
            for r in report.rows.iter().filter(|r| !r.rejected) {
                for (stage, ns) in SERVE_STAGES.into_iter().zip(serve_stage_ns(r)) {
                    tr.count(stage, ns);
                }
            }
            floors.add(&report);
            (wall_ns as f64 / 1e9, report)
        })
    }
}

impl Workload for ServeClosed {
    fn setup(cfg: &RunCfg, steps: &mut Steps) -> Self {
        // Every served shape against its oracle, on a pool like the
        // server's.
        let mut checks = (0, 0);
        let mut pool = steps.time(|| pool_of(cfg.workers));
        for (key, algo, _, sizes) in SERVE_MIX {
            for n in sizes {
                let (ok, _) = steps.time(|| kernels::check(&pool, key, n, cfg.seed));
                if !ok {
                    println!("WRONG OUTPUT: {algo} n={n} disagrees with its oracle");
                }
                checks.0 += 1;
                checks.1 += u64::from(!ok);
            }
        }
        steps.time(|| pool.shutdown());
        // Warm-up scenarios, checked like the measured segments. Each is
        // a loaded step: validation, schedule build, pool spawn, serving
        // 1000 requests, report assembly and pool shutdown.
        let warm = serve_closed_spec(cfg.workers, cfg.seed, SERVE_WARMUP_REQUESTS);
        for _ in 0..SERVE_WARMUP_SCENARIOS {
            let t = Instant::now();
            let report = run_scenario(&warm);
            steps.loaded.push(t.elapsed().as_nanos() as u64);
            checks.0 += report.requests as u64;
            checks.1 += serve_failures(&report, false);
        }
        Self {
            spec: serve_closed_spec(cfg.workers, cfg.seed, SERVE_SEGMENT_REQUESTS),
            checks,
        }
    }

    fn checks(&self) -> (u64, u64) {
        self.checks
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Measured {
        // The ops of this workload are its request shapes and, inside a
        // request, its stages: every (algo, n) keeps its own floors, like
        // a kernel in a round.
        let mut floors = ShapeFloors::default();
        let (mut rps, mut p50) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0, 0);
        let start = Instant::now();
        while keep_going(start, seconds, rps.len() as u64, 5) {
            let (wall, report) = self.segment(rps.len() as u64, &mut floors, tr);
            attempted += report.requests as u64;
            failed += serve_failures(&report, false);
            rps.push(report.completed as f64 / wall);
            p50.push(report.latency.p50);
        }
        for (&(algo, n), &(count, f)) in &floors.0 {
            println!(
                "  op {algo:<14} n={n:<5} min queue {:>6.1} + service {:>6.1} + reply {:>6.1} us; \
                 best whole request {:>6.1} us  (n={count})",
                f[0] as f64 / 1e3,
                f[1] as f64 / 1e3,
                f[2] as f64 / 1e3,
                f[3] as f64 / 1e3
            );
        }
        println!(
            "  under load (host-dependent, not gated): {} segments of {SERVE_SEGMENT_REQUESTS} \
             requests, completed / wall median {:.0} rps, best quartile {:.0} rps; \
             median p50 {:.1} us; best whole request {:.1} us",
            rps.len(),
            median(&rps),
            quantile(&rps, 0.75),
            median(&p50) as f64 / 1e3,
            floors.best_request_us()
        );
        Measured {
            attempted,
            failed,
            best_case_latency_us: floors.stage_floor_us(),
            samples: floors.completed(),
        }
    }
}

// -------------------------------------------------------------- sim-table1

/// Seed of the golden pass (the measured passes use `--seed`).
const SIM_GOLDEN_SEED: u64 = 42;
const SIM_WARMUP_PASSES: u64 = 2;
/// Timed calls per registry row: build, sequential replay, PWS, RWS.
/// Op `row * SIM_STAGES.len() + stage` of a pass is row `row`'s `stage`.
pub const SIM_STAGES: [&str; 4] = ["build", "seq", "pws", "rws"];

/// Frozen problem sizes (~340 ms per pass over the 14 rows).
pub fn sim_size(spec: &AlgoSpec) -> usize {
    match (spec.size, spec.name) {
        (SizeKind::MatrixSide, _) => 16,
        (SizeKind::Linear, "FFT" | "LR") => 512,
        (SizeKind::Linear, "CC") => 256,
        (SizeKind::Linear, _) => 2048,
    }
}

/// The exact statistics of one row — compared with the golden file at
/// the golden seed, and pass against pass at `--seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRow {
    pub name: &'static str,
    pub n: usize,
    pub nodes: u64,
    pub work: u64,
    pub q_misses: u64,
    pub seq_makespan: u64,
    pub pws_makespan: u64,
    pub pws_block_misses: u64,
    pub pws_steals: u64,
    pub rws_block_misses: u64,
    pub rws_steals: u64,
    /// Scheduled work equals recorded work on both policies.
    pub work_conserved: bool,
}

/// One pass over every registry row; `on_op(op, ns)` receives each timed
/// call (see [`SIM_STAGES`] for the op numbering).
pub fn sim_pass(
    seed: u64,
    id: u64,
    tr: &mut Tracer,
    mut on_op: impl FnMut(usize, u64),
) -> Vec<SimRow> {
    let machine = MachineConfig::default_machine();
    tr.span("bench.pass", id, |tr| {
        registry()
            .into_iter()
            .enumerate()
            .map(|(row, spec)| {
                let n = sim_size(&spec);
                let (comp, ns) = tr.timed("hbp.build", id, || {
                    (spec.build)(n, BuildConfig::with_block(machine.block_words), seed)
                });
                on_op(row * SIM_STAGES.len(), ns);
                let (seq, ns) = tr.timed("sched.sim.run_sequential", id, || {
                    run_sequential(&comp, machine)
                });
                on_op(row * SIM_STAGES.len() + 1, ns);
                let (pws, ns) =
                    tr.timed("sched.sim.run_pws", id, || run(&comp, machine, Policy::Pws));
                on_op(row * SIM_STAGES.len() + 2, ns);
                let (rws, ns) = tr.timed("sched.sim.run_rws", id, || {
                    run(&comp, machine, Policy::Rws { seed: 1 })
                });
                on_op(row * SIM_STAGES.len() + 3, ns);
                SimRow {
                    name: spec.name,
                    n,
                    nodes: comp.n_nodes() as u64,
                    work: comp.work(),
                    q_misses: seq.q_misses,
                    seq_makespan: seq.makespan,
                    pws_makespan: pws.makespan,
                    pws_block_misses: pws.block_misses(),
                    pws_steals: pws.steals,
                    rws_block_misses: rws.block_misses(),
                    rws_steals: rws.steals,
                    work_conserved: pws.work == comp.work() && rws.work == comp.work(),
                }
            })
            .collect()
    })
}

fn sim_golden_json(rows: &[SimRow]) -> String {
    let mut s = format!("{{\n  \"seed\": {SIM_GOLDEN_SEED},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"nodes\": {}, \"work\": {}, \"q_misses\": {}, \"seq_makespan\": {}, \"pws_makespan\": {}, \"pws_block_misses\": {}, \"pws_steals\": {}, \"rws_block_misses\": {}, \"rws_steals\": {}}}{}\n",
            r.name, r.n, r.nodes, r.work, r.q_misses, r.seq_makespan, r.pws_makespan,
            r.pws_block_misses, r.pws_steals, r.rws_block_misses, r.rws_steals,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

pub struct SimTable1 {
    seed: u64,
    /// The first `--seed` pass; every later pass must reproduce it.
    reference: Vec<SimRow>,
    checks: (u64, u64),
}

impl Workload for SimTable1 {
    fn setup(cfg: &RunCfg, steps: &mut Steps) -> Self {
        let off = &mut Tracer::new(false);
        let mut pass = |seed| sim_pass(seed, 0, off, |_, ns| steps.fixed.push(ns));
        let golden = pass(SIM_GOLDEN_SEED);
        let mut failed = u64::from(!golden_agrees("sim-table1.json", &sim_golden_json(&golden)));
        let reference = pass(cfg.seed);
        for _ in 1..SIM_WARMUP_PASSES {
            failed += u64::from(pass(cfg.seed) != reference);
        }
        failed += reference.iter().filter(|r| !r.work_conserved).count() as u64;
        Self {
            seed: cfg.seed,
            checks: (SIM_WARMUP_PASSES + reference.len() as u64, failed),
            reference,
        }
    }

    fn checks(&self) -> (u64, u64) {
        self.checks
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Measured {
        let n_ops = self.reference.len() * SIM_STAGES.len();
        let mut ops = OpSamples::new(n_ops);
        let (mut passes, mut failed) = (0, 0);
        let start = Instant::now();
        while keep_going(start, seconds, passes, 5) {
            let rows = sim_pass(self.seed, passes, tr, |op, ns| ops.push(op, ns));
            // The simulator is deterministic: a pass that differs from
            // the first is a wrong output.
            failed += u64::from(rows != self.reference);
            passes += 1;
        }
        for (s, stage) in SIM_STAGES.iter().enumerate() {
            let sum: f64 = (0..self.reference.len())
                .map(|row| ops.op_us(row * SIM_STAGES.len() + s, 0.5))
                .sum();
            println!(
                "  stage {stage:<6} sum of medians {:>10.3} ms  (n={passes})",
                sum / 1e3
            );
        }
        print_under_load("a pass of 56 simulator calls", &ops, passes);
        Measured {
            attempted: passes,
            failed,
            best_case_latency_us: ops.sum_quantile(0.0) / 1e3,
            samples: passes,
        }
    }
}

// ------------------------------------------------------ serve-open-virtual

/// Seed of the golden scenario (the measured ones derive from `--seed`).
const VIRT_GOLDEN_SEED: u64 = 11;
/// Sub-scenarios pooled into one run's exact metrics.
const VIRT_SCENARIOS: u64 = 4;
pub const VIRT_REQUESTS: usize = 20_000;
/// Mean inter-arrival time, calibrated once (seed 11..16: 1.9-2.8 % of
/// arrivals rejected) and frozen. The queue is 16 deep, not 64: with a
/// deep queue the rejection band sits at the critical load, where p50
/// swings 418-665 us from seed to seed.
const VIRT_THINK_MEAN_NS: u64 = 18_000;
const VIRT_QUEUE_CAP: usize = 16;

/// The frozen sim open-loop spec.
fn serve_virtual_spec(seed: u64, requests: usize) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        requests,
        clients: 4,
        mode: LoadMode::Open,
        queue_cap: VIRT_QUEUE_CAP,
        batch_max: 8,
        small_n: 4096,
        think_mean_ns: VIRT_THINK_MEAN_NS,
        mix: default_mix(Backend::Sim),
        backend: Backend::Sim,
        policy: Policy::Pws,
        workers: 8,
        pacing: false,
        native: NativeConfig::default(),
    }
}

fn virt_golden_json(r: &ScenarioReport) -> String {
    format!(
        "{{\n  \"seed\": {},\n  \"requests\": {},\n  \"completed\": {},\n  \"rejected\": {},\n  \"deferred\": {},\n  \"launches\": {},\n  \"batched_requests\": {},\n  \"makespan_ns\": {},\n  \"latency_p50_ns\": {},\n  \"latency_p95_ns\": {},\n  \"queue_wait_p95_ns\": {}\n}}\n",
        r.seed, r.requests, r.completed, r.rejected, r.deferred, r.launches,
        r.batched_requests, r.makespan_ns, r.latency.p50, r.latency.p95, r.queue_wait.p95
    )
}

/// The exact numbers of one run: `VIRT_SCENARIOS` scenarios with seeds
/// derived from `--seed`, pooled.
#[derive(Default)]
struct VirtPooled {
    completed: u64,
    rejected: u64,
    launches: u64,
    makespan_ns: u64,
    /// Completed rows' latencies, all scenarios.
    latency_ns: Vec<u64>,
    failures: u64,
    /// Each scenario's report JSON, for the replay check.
    json: Vec<String>,
}

/// Scenario `scenario` of a run with `--seed seed`, cut to `requests`.
pub fn virt_spec(seed: u64, scenario: u64, requests: usize) -> ScenarioSpec {
    serve_virtual_spec(
        seed.wrapping_mul(1_000_003).wrapping_add(scenario),
        requests,
    )
}

fn virt_pooled(seed: u64, tr: &mut Tracer) -> VirtPooled {
    let mut p = VirtPooled::default();
    for s in 0..VIRT_SCENARIOS {
        tr.span("bench.scenario", s, |tr| {
            let spec = virt_spec(seed, s, VIRT_REQUESTS);
            let report = tr.span("serve.virt.run_scenario", s, |_| run_scenario(&spec));
            tr.count("virt.completed", report.completed);
            tr.count("virt.rejected", report.rejected);
            tr.count("virt.launches", report.launches);
            p.completed += report.completed;
            p.rejected += report.rejected;
            p.launches += report.launches;
            p.makespan_ns += report.makespan_ns;
            p.failures += serve_failures(&report, true);
            p.latency_ns.extend(
                report
                    .rows
                    .iter()
                    .filter(|r| !r.rejected)
                    .map(|r| r.latency_ns),
            );
            p.json
                .push(tr.span("serve.report.to_json", s, |_| report.to_json()));
        });
    }
    p
}

pub struct ServeVirtual {
    seed: u64,
    checks: (u64, u64),
}

impl Workload for ServeVirtual {
    fn setup(cfg: &RunCfg, steps: &mut Steps) -> Self {
        let golden =
            steps.time(|| run_scenario(&serve_virtual_spec(VIRT_GOLDEN_SEED, VIRT_REQUESTS)));
        let failed = u64::from(!golden_agrees(
            "serve-open-virtual.json",
            &virt_golden_json(&golden),
        )) + serve_failures(&golden, true);
        Self {
            seed: cfg.seed,
            checks: (1 + VIRT_REQUESTS as u64, failed),
        }
    }

    fn checks(&self) -> (u64, u64) {
        self.checks
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Measured {
        let start = Instant::now();
        let p = virt_pooled(self.seed, tr);
        let mut attempted = VIRT_SCENARIOS * VIRT_REQUESTS as u64;
        let mut failed = p.failures;
        // Replays fill the rest of the run: virtual time is exact, so a
        // replay that is not byte-identical is a wrong output.
        let mut replays = 0u64;
        while start.elapsed() < Duration::from_secs_f64(seconds) {
            let s = replays % VIRT_SCENARIOS;
            let json = tr.span("bench.replay", s, |tr| {
                let spec = virt_spec(self.seed, s, VIRT_REQUESTS);
                tr.span("serve.virt.run_scenario", s, |_| run_scenario(&spec))
                    .to_json()
            });
            attempted += VIRT_REQUESTS as u64;
            if json != p.json[s as usize] {
                println!("REPLAY MISMATCH: scenario {s} is not byte-identical");
                failed += VIRT_REQUESTS as u64;
            }
            replays += 1;
        }
        println!(
            "  {VIRT_SCENARIOS} scenarios x {VIRT_REQUESTS} requests: completed {} rejected {} \
             launches {}, {:.1} completed per virtual second, p95 {:.1} us (all exact); \
             {replays} byte-identical replays",
            p.completed,
            p.rejected,
            p.launches,
            p.completed as f64 / (p.makespan_ns as f64 / 1e9),
            quantile(&p.latency_ns, 0.95) as f64 / 1e3
        );
        Measured {
            attempted,
            failed,
            // In virtual time the host adds nothing: the typical request
            // is also the best case, and it is exact.
            best_case_latency_us: median(&p.latency_ns) as f64 / 1e3,
            samples: p.completed,
        }
    }
}
