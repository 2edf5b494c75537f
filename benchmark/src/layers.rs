//! Per-layer probes of the traced run: one cost line per layer below the
//! end-to-end metrics, each from the layer's public API. README.md says
//! which end-to-end metric each one should move.
//!
//! The probes are grouped by the layer they price ([`GROUPS`]). The
//! driver's `--trace 1` must print every per-layer metric whichever
//! workload it names, so there every group runs and a name means the same
//! measurement everywhere. The suite's `--trace` prints each metric once:
//! a workload's traced child runs only the groups it owns. Either way the
//! selected groups share one time budget (a slice of `--seconds`) in
//! proportion to their `share`, and every probe repeats until its part of
//! the budget is spent, so a traced run takes `--seconds` however slow
//! the host is.
//!
//! Timings are the nearest-rank median over the repeats, except
//! `kernel.<k>.seq_us` / `par_us`, which are the q25 of the timed span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbp_core::model::analysis;
use hbp_core::sched::native::{join, NativePool};
use hbp_core::sched::{ClDeque, Steal};
use hbp_core::trace::{critical_path, ClockDomain, TraceSink};
use hbp_core::{
    native_kernel, registry, run, run_traced, try_lookup, BuildConfig, ExecJob, Executor,
    MachineConfig, MemSystem, NativeExecutor, Policy,
};
use hbp_serve::{build_schedule, run_scenario};

use crate::kernels::{time_reference, KERNELS};
use crate::run::{Metric, RunCfg};
use crate::schema;
use crate::spans::Tracer;
use crate::stats::{median, quantile, OpSamples};
use crate::workloads::{
    pool_of, serve_closed_spec, serve_stage_ns, sim_pass, sim_size, virt_spec, KernelRounds,
    RoundSamples, SimRow, SIM_STAGES, VIRT_REQUESTS,
};

/// Metric name → (value, samples behind it).
struct Probe(BTreeMap<String, (f64, u64)>);

impl Probe {
    fn put(&mut self, name: impl Into<String>, value: f64, samples: u64) {
        let name = name.into();
        assert!(
            self.0.insert(name.clone(), (value, samples)).is_none(),
            "{name} probed twice"
        );
    }

    /// The nearest-rank median of `ns`, scaled by `1 / per`.
    fn put_median(&mut self, name: &str, ns: &[u64], per: f64) {
        self.put(name, median(ns) as f64 / per, ns.len() as u64);
    }
}

/// What every group gets: the host, the seed, and its time.
struct Ctx {
    w: usize,
    seed: u64,
    host_cpus: usize,
    budget: Duration,
}

impl Ctx {
    /// `frac` of the group's budget.
    fn part(&self, frac: f64) -> Duration {
        self.budget.mul_f64(frac)
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    ns_since(t)
}

/// Call `f` until `budget` is spent, at least `min` times.
fn repeat(budget: Duration, min: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        f();
        done += 1;
    }
}

/// The samples (ns) `f` returns when repeated like [`repeat`].
fn sample(budget: Duration, min: usize, mut f: impl FnMut() -> u64) -> Vec<u64> {
    let mut out = Vec::new();
    repeat(budget, min, || out.push(f()));
    out
}

/// `sched.cl_deque`: the public `ClDeque`, owner and one thief.
fn cl_deque(p: &mut Probe, c: &Ctx) {
    const BATCH: usize = 1024;
    let dq: ClDeque<usize> = ClDeque::with_capacity(2 * BATCH);

    let push_pop = sample(c.part(0.2), 20, || {
        timed(|| {
            for i in 0..BATCH {
                dq.push(black_box(i));
            }
            while let Some(v) = dq.pop() {
                black_box(v);
            }
        })
    });
    p.put_median("cl_deque.push_pop_ns", &push_pop, BATCH as f64);

    // Uncontended steals: time only the thief side.
    let fill = || (0..BATCH).for_each(|i| dq.push(i));
    let (mut steal_ns, mut batch_ns) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(BATCH);
    repeat(c.part(0.3), 20, || {
        fill();
        steal_ns.push(timed(|| {
            while let Steal::Data(v) = dq.steal() {
                black_box(v);
            }
        }));
        fill();
        out.clear();
        batch_ns.push(timed(|| {
            while let Steal::Data(_) = dq.steal_batch_with(8, |_| true, &mut out) {}
        }));
        assert_eq!(out.len(), BATCH, "batched steals claim every task once");
    });
    p.put_median("cl_deque.steal_ns", &steal_ns, BATCH as f64);
    p.put_median("cl_deque.steal_batch_ns", &batch_ns, BATCH as f64);

    // One thief against an owner that keeps pushing and popping. The
    // clock starts once the owner is running and stops after a fixed
    // number of *successful* steals, so the number prices the deque, not
    // how the two threads happened to be scheduled.
    const STEALS: u64 = 20_000;
    const FLOOR: u64 = STEALS / 20;
    const GIVE_UP: Duration = Duration::from_secs(2);
    let (mut per_steal, mut retry_ratio) = (Vec::new(), Vec::new());
    repeat(c.part(0.5), 3, || {
        let dq: Arc<ClDeque<usize>> = Arc::new(ClDeque::with_capacity(256));
        let running = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let owner = {
            let (dq, running, stop) = (Arc::clone(&dq), Arc::clone(&running), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..32 {
                        dq.push(i);
                    }
                    running.store(true, Ordering::Relaxed);
                    while dq.pop().is_some() {}
                }
            })
        };
        while !running.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let (mut taken, mut retries, mut attempts) = (0u64, 0u64, 0u64);
        let t = Instant::now();
        while taken < STEALS && (attempts % 4096 != 0 || t.elapsed() < GIVE_UP) {
            attempts += 1;
            match dq.steal() {
                Steal::Data(v) => {
                    black_box(v);
                    taken += 1;
                }
                Steal::Retry => retries += 1,
                // With one CPU the owner only runs when the thief yields.
                Steal::Empty | Steal::Denied if c.host_cpus == 1 => std::thread::yield_now(),
                Steal::Empty | Steal::Denied => std::hint::spin_loop(),
            }
        }
        let ns = ns_since(t);
        stop.store(true, Ordering::Relaxed);
        owner.join().expect("deque owner thread");
        assert!(
            taken >= FLOOR,
            "contended-steal probe: {taken} steals in {attempts} attempts over {GIVE_UP:?} — \
             the owner thread was not running beside the thief"
        );
        per_steal.push(ns as f64 / taken as f64);
        retry_ratio.push(retries as f64 / attempts as f64);
    });
    let rounds = per_steal.len() as u64;
    p.put("cl_deque.steal_contended_ns", median(&per_steal), rounds);
    p.put("cl_deque.steal_retry_ratio", median(&retry_ratio), rounds);
}

/// A balanced join tree with `2^depth` empty leaves.
fn join_tree(depth: u32) {
    if depth > 0 {
        join(|| join_tree(depth - 1), || join_tree(depth - 1));
    }
}

/// `sched.pool`: spawn/shutdown, dispatch and idle-wake latency, the
/// per-fork cost of `join`.
fn pool(p: &mut Probe, c: &Ctx) {
    let (mut spawn, mut shutdown) = (Vec::new(), Vec::new());
    repeat(c.part(0.1), 5, || {
        let t = Instant::now();
        let mut pool = pool_of(c.w);
        spawn.push(ns_since(t));
        shutdown.push(timed(|| pool.shutdown()));
    });
    p.put_median("pool.spawn_us", &spawn, 1e3);
    p.put_median("pool.shutdown_us", &shutdown, 1e3);

    let busy = pool_of(c.w);
    let (mut round_trip, mut queued) = (Vec::new(), Vec::new());
    repeat(c.part(0.15), 200, || {
        let t = Instant::now();
        let outcome = busy.submit(|| ()).expect("pool is open").outcome();
        round_trip.push(ns_since(t));
        queued.push(outcome.queue_ns);
    });
    p.put_median("pool.submit_wait_us", &round_trip, 1e3);
    p.put_median("pool.queue_us", &queued, 1e3);

    // The same empty job after the pool sat idle: workers parked, vCPUs
    // halted — the wake path serve requests pay.
    let wake = sample(c.part(0.35), 30, || {
        std::thread::sleep(Duration::from_millis(2));
        timed(|| {
            busy.submit(|| ()).expect("pool is open").wait();
        })
    });
    p.put_median("pool.wake_us", &wake, 1e3);

    const DEPTH: u32 = 16;
    let forks = ((1u64 << DEPTH) - 1) as f64;
    let one = pool_of(1);
    let tree = |pool: &NativePool| {
        timed(|| {
            pool.submit(|| join_tree(DEPTH))
                .expect("pool is open")
                .wait();
        })
    };
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    repeat(c.part(0.4), 5, || {
        seq.push(tree(&one));
        par.push(tree(&busy));
    });
    p.put_median("pool.join_seq_ns", &seq, forks);
    p.put_median("pool.join_par_ns", &par, forks);
}

/// `algos.par`: the eight kernels on one worker, on `w` workers and as
/// plain references, interleaved round by round; plus what the same
/// rounds say about stealing (`sched.pool`) and input building (`core`).
fn kernels(p: &mut Probe, c: &Ctx) {
    let seq = KernelRounds::bare(1, c.seed);
    let par = KernelRounds::bare(c.w, c.seed);
    let off = &mut Tracer::new(false);
    // One unrecorded round each: first-touch page faults are set-up.
    seq.round(0, &mut RoundSamples::new(), off);
    par.round(0, &mut RoundSamples::new(), off);
    let (mut s, mut q) = (RoundSamples::new(), RoundSamples::new());
    let mut reference = OpSamples::new(KERNELS.len());
    let mut rounds = 0;
    repeat(c.part(0.8), 3, || {
        seq.round(rounds, &mut s, off);
        par.round(rounds, &mut q, off);
        for k in 0..KERNELS.len() {
            reference.push(k, time_reference(k, c.seed));
        }
        rounds += 1;
    });
    for (i, k) in KERNELS.iter().enumerate() {
        let (seq_us, par_us) = (s.run.op_us(i, 0.25), q.run.op_us(i, 0.25));
        p.put(format!("kernel.{}.seq_us", k.key), seq_us, rounds);
        p.put(format!("kernel.{}.par_us", k.key), par_us, rounds);
        p.put(format!("kernel.{}.speedup", k.key), seq_us / par_us, 0);
        p.put(
            format!("kernel.{}.vs_oracle", k.key),
            seq_us / reference.op_us(i, 0.25),
            0,
        );
    }
    p.put(
        "pool.steals_per_launch",
        q.steals as f64 / q.launches as f64,
        q.launches,
    );
    p.put(
        "pool.steal_success_ratio",
        q.steals as f64 / q.steal_attempts.max(1) as f64,
        q.steal_attempts,
    );
    p.put(
        "pool.workers_active",
        q.workers_active as f64 / q.launches as f64,
        q.launches,
    );
    p.put(
        "core.input_gen_us",
        q.gen.sum_quantile(0.5) / 1e3,
        2 * rounds,
    );
}

/// `core`: what the session API and the registry lookup add.
fn core_layer(p: &mut Probe, c: &Ctx) {
    let (algo, n) = ("Scans (M-Sum)", 4096);
    let session = NativeExecutor::new(c.w, c.seed).open();
    let direct = pool_of(c.w);
    let job = ExecJob::new(algo, n, c.seed);
    let (mut via_session, mut via_pool) = (Vec::new(), Vec::new());
    repeat(c.part(0.8), 50, || {
        via_session.push(timed(|| {
            session
                .submit(&job)
                .expect("session is open")
                .wait()
                .expect("M-Sum has a native kernel");
        }));
        via_pool.push(timed(|| {
            let kernel = native_kernel(algo, n, c.seed).expect("M-Sum has a native kernel");
            direct.submit(kernel).expect("pool is open").wait();
        }));
    });
    p.put(
        "core.session_overhead_us",
        (median(&via_session) as f64 - median(&via_pool) as f64) / 1e3,
        via_pool.len() as u64,
    );
    const LOOKUPS: usize = 100;
    let lookups = sample(c.part(0.2), 10, || {
        timed(|| {
            for _ in 0..LOOKUPS {
                black_box(try_lookup(black_box("Sort (SPMS)")).expect("registry row"));
            }
        })
    });
    p.put_median("core.lookup_us", &lookups, LOOKUPS as f64 * 1e3);
}

/// Run `kernels` as one fork-join tree — what serve's dispatcher does
/// with a batch.
fn run_batch(mut kernels: Vec<Box<dyn FnOnce() + Send>>) {
    if kernels.len() <= 1 {
        if let Some(k) = kernels.pop() {
            k();
        }
        return;
    }
    let rest = kernels.split_off(kernels.len() / 2);
    join(|| run_batch(kernels), || run_batch(rest));
}

/// `serve`: the rows of `serve-closed-small` scenarios (typical numbers,
/// median over the scenarios), and the native cost of batching measured
/// directly.
fn serve_layer(p: &mut Probe, c: &Ctx) {
    const REQUESTS: usize = 2500;
    let spec = serve_closed_spec(c.w, c.seed, REQUESTS);
    let build = sample(c.part(0.05), 3, || {
        timed(|| {
            black_box(build_schedule(&spec));
        })
    });
    p.put_median("serve.schedule_build_ms", &build, 1e6);

    // One sample per scenario of each typical number.
    const TYPICAL: [&str; 7] = [
        "serve.throughput_rps",
        "serve.lat_p50_us",
        "serve.lat_p95_us",
        "serve.queue_wait_p50_us",
        "serve.queue_wait_p95_us",
        "serve.service_p50_us",
        "serve.reply_p50_us",
    ];
    let mut typical: [Vec<f64>; 7] = Default::default();
    let (mut completed, mut launches, mut batched, mut rejected, mut deferred) = (0, 0, 0, 0, 0);
    let mut last = None;
    repeat(c.part(0.6), 1, || {
        let t = Instant::now();
        let report = run_scenario(&spec);
        let wall = t.elapsed().as_secs_f64();
        let done: Vec<[u64; 3]> = report
            .rows
            .iter()
            .filter(|r| !r.rejected)
            .map(serve_stage_ns)
            .collect();
        let stage_p50 = |i: usize| median(&done.iter().map(|s| s[i]).collect::<Vec<u64>>());
        let us = |ns: u64| ns as f64 / 1e3;
        let values = [
            report.completed as f64 / wall,
            us(report.latency.p50),
            us(report.latency.p95),
            us(report.queue_wait.p50),
            us(report.queue_wait.p95),
            us(stage_p50(1)),
            us(stage_p50(2)),
        ];
        for (samples, v) in typical.iter_mut().zip(values) {
            samples.push(v);
        }
        completed += report.completed;
        launches += report.launches;
        batched += report.batched_requests;
        rejected += report.rejected;
        deferred += report.deferred;
        last = Some(report);
    });
    for (name, samples) in TYPICAL.iter().zip(&typical) {
        p.put(
            *name,
            median(samples),
            samples.len() as u64 * REQUESTS as u64,
        );
    }
    p.put(
        "serve.batch_mean",
        completed as f64 / launches.max(1) as f64,
        launches,
    );
    p.put(
        "serve.batched_share",
        batched as f64 / completed.max(1) as f64,
        completed,
    );
    p.put("serve.rejected", rejected as f64, 0);
    p.put("serve.deferred", deferred as f64, 0);
    let report = last.expect("at least one scenario ran");
    let json = sample(c.part(0.05), 2, || {
        timed(|| {
            black_box(report.to_json());
        })
    });
    p.put_median("serve.report_json_ms", &json, 1e6);

    let shapes = [
        ("Scans (M-Sum)", 1024),
        ("Sort (SPMS)", 512),
        ("LR", 512),
        ("FFT", 256),
    ];
    let eight = || -> Vec<Box<dyn FnOnce() + Send>> {
        shapes
            .iter()
            .cycle()
            .take(8)
            .map(|&(algo, n)| native_kernel(algo, n, c.seed).expect("served natively"))
            .collect()
    };
    let pool = pool_of(c.w);
    let (mut batch8, mut solo8) = (Vec::new(), Vec::new());
    repeat(c.part(0.3), 30, || {
        let kernels = eight();
        batch8.push(timed(|| {
            pool.submit(move || run_batch(kernels))
                .expect("pool is open")
                .wait();
        }));
        let kernels = eight();
        solo8.push(timed(|| {
            for k in kernels {
                pool.submit(k).expect("pool is open").wait();
            }
        }));
    });
    p.put_median("serve.batch8_launch_us", &batch8, 1e3);
    p.put_median("serve.solo8_launch_us", &solo8, 1e3);
}

/// `serve.virt`: host cost of the virtual-time server and the exact
/// outcome of the first of `serve-open-virtual`'s scenarios at this seed.
fn virt_layer(p: &mut Probe, c: &Ctx) {
    // 256 requests touch all eight request shapes, so this run is the
    // service oracle (one traced simulation per shape) and little else.
    let oracle_only = virt_spec(c.seed, 0, 256);
    let oracle = sample(c.part(0.45), 1, || {
        timed(|| {
            black_box(run_scenario(&oracle_only));
        })
    });
    p.put_median("virt.oracle_ms", &oracle, 1e6);
    let spec = virt_spec(c.seed, 0, VIRT_REQUESTS);
    let mut report = None;
    let host = sample(c.part(0.55), 1, || {
        timed(|| report = Some(run_scenario(&spec)))
    });
    p.put_median("virt.host_ms", &host, 1e6);
    let report = report.expect("at least one scenario ran");
    let done = || report.rows.iter().filter(|r| !r.rejected);
    let latency: Vec<u64> = done().map(|r| r.latency_ns).collect();
    let queue: Vec<u64> = done().map(|r| r.queue_ns).collect();
    let n = latency.len() as u64;
    p.put("virt.launches", report.launches as f64, 0);
    p.put("virt.batched_requests", report.batched_requests as f64, 0);
    p.put(
        "virt.queue_wait_p95_us",
        quantile(&queue, 0.95) as f64 / 1e3,
        n,
    );
    p.put("virt.rejected", report.rejected as f64, 0);
    p.put("virt.lat_p50_us", median(&latency) as f64 / 1e3, n);
    p.put("virt.lat_p95_us", quantile(&latency, 0.95) as f64 / 1e3, n);
}

/// `hbp`, `sched.sim` and `trace` on the simulator: the `sim-table1`
/// pass split by stage, the structural estimators, and what recording
/// and analysing a sim trace costs.
fn sim_layers(p: &mut Probe, c: &Ctx) {
    let (rows_n, stages) = (registry().len(), SIM_STAGES.len());
    let mut ops = OpSamples::new(rows_n * stages);
    let mut rows = Vec::new();
    let mut passes = 0;
    repeat(c.part(0.45), 2, || {
        rows = sim_pass(c.seed, passes, &mut Tracer::new(false), |op, ns| {
            ops.push(op, ns)
        });
        passes += 1;
    });
    let stage_ms = |stage: usize| -> f64 {
        (0..rows_n)
            .map(|row| ops.op_us(row * stages + stage, 0.5))
            .sum::<f64>()
            / 1e3
    };
    let sum = |f: fn(&SimRow) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    let nodes = sum(|r| r.nodes);
    p.put("hbp.build_ms", stage_ms(0), passes);
    p.put("hbp.nodes", nodes, 0);
    p.put("sim.seq_ms", stage_ms(1), passes);
    p.put("sim.pws_ms", stage_ms(2), passes);
    p.put("sim.rws_ms", stage_ms(3), passes);
    p.put("sim.pws_ns_per_node", stage_ms(2) * 1e6 / nodes, passes);
    p.put("sim.q_misses", sum(|r| r.q_misses), 0);
    p.put("sim.pws_makespan", sum(|r| r.pws_makespan), 0);
    p.put("sim.pws_block_misses", sum(|r| r.pws_block_misses), 0);
    p.put("sim.pws_steals", sum(|r| r.pws_steals), 0);
    p.put("sim.rws_block_misses", sum(|r| r.rws_block_misses), 0);

    let machine = MachineConfig::default_machine();
    let block = machine.block_words;
    let comps: Vec<_> = registry()
        .iter()
        .map(|spec| (spec.build)(sim_size(spec), BuildConfig::with_block(block), c.seed))
        .collect();
    let span = sample(c.part(0.1), 2, || {
        timed(|| {
            for comp in &comps {
                black_box(analysis::span(comp));
            }
        })
    });
    p.put_median("hbp.span_ms", &span, 1e6);
    let estimators = sample(c.part(0.1), 2, || {
        timed(|| {
            for comp in &comps {
                black_box(analysis::f_estimate(comp, block));
                black_box(analysis::l_estimate(comp, block));
            }
        })
    });
    p.put_median("hbp.estimators_ms", &estimators, 1e6);

    let (mut plain, mut traced, mut collect, mut cp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    repeat(c.part(0.35), 2, || {
        let (mut t_plain, mut t_traced, mut t_collect, mut t_cp) = (0, 0, 0, 0);
        for comp in &comps {
            t_plain += timed(|| {
                black_box(run(comp, machine, Policy::Pws));
            });
            let sink = TraceSink::new(machine.p, ClockDomain::Virtual);
            t_traced += timed(|| {
                black_box(run_traced(comp, machine, Policy::Pws, &sink));
            });
            let t = Instant::now();
            let trace = sink.collect();
            t_collect += ns_since(t);
            t_cp += timed(|| {
                black_box(critical_path(&trace).expect("complete virtual-clock trace"));
            });
        }
        plain.push(t_plain);
        traced.push(t_traced);
        collect.push(t_collect);
        cp.push(t_cp);
    });
    p.put(
        "trace.sim_overhead_ratio",
        median(&traced) as f64 / median(&plain) as f64,
        plain.len() as u64,
    );
    p.put_median("trace.collect_ms", &collect, 1e6);
    p.put_median("trace.critical_path_ms", &cp, 1e6);
}

/// `machine`: one `MemSystem::access` that hits, that misses to memory,
/// and that ping-pongs a block between two cores.
fn machine_layer(p: &mut Probe, c: &Ctx) {
    const ACCESSES: u64 = 200_000;
    let cfg = MachineConfig::default_machine();
    let mut mem = MemSystem::new(cfg);
    let hit = sample(c.part(0.33), 3, || {
        timed(|| {
            for _ in 0..ACCESSES {
                black_box(mem.access(0, black_box(64), false));
            }
        })
    });
    p.put_median("machine.hit_ns", &hit, ACCESSES as f64);
    // A stride of one block over four times the cache: every access
    // evicts and misses.
    let span_blocks = 4 * cfg.cache_words / cfg.block_words;
    let mut mem = MemSystem::new(cfg);
    let mut next = 0u64;
    let miss = sample(c.part(0.33), 3, || {
        timed(|| {
            for _ in 0..ACCESSES {
                black_box(mem.access(0, next * cfg.block_words, false));
                next = (next + 1) % span_blocks;
            }
        })
    });
    p.put_median("machine.miss_ns", &miss, ACCESSES as f64);
    let mut mem = MemSystem::new(cfg);
    let coherence = sample(c.part(0.33), 3, || {
        timed(|| {
            for i in 0..ACCESSES {
                black_box(mem.access((i % 2) as usize, 64, true));
            }
        })
    });
    p.put_median("machine.coherence_ns", &coherence, ACCESSES as f64);
}

/// One kernel round on `pool`, each launch recording into its own
/// `TraceSink` when `traced`. Returns (Σ launch ns, events recorded).
fn native_round(pool: &NativePool, seed: u64, traced: bool) -> (u64, u64) {
    let (mut run_ns, mut events) = (0, 0);
    for k in &KERNELS {
        let kernel = native_kernel(k.name, k.n, seed).expect("KERNELS rows have native kernels");
        let sink = traced.then(|| Arc::new(TraceSink::new(pool.workers(), ClockDomain::WallNs)));
        run_ns += timed(|| {
            pool.submit_traced(sink.clone(), kernel)
                .expect("pool is open")
                .wait();
        });
        if let Some(sink) = sink {
            events += sink.collect().events.len() as u64;
        }
    }
    (run_ns, events)
}

/// `trace` and `metrics` on the native pool: a kernel round with the
/// instrumentation on ÷ the same round with it off, interleaved. Both
/// are off in every end-to-end measurement; this is their budget.
fn instrumentation(p: &mut Probe, c: &Ctx) {
    let pool = pool_of(c.w);
    native_round(&pool, c.seed, false); // first-touch page faults
    let registry = hbp_core::metrics::global();
    let (mut off, mut traced, mut metrics_off, mut metrics_on) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut events = 0;
    repeat(c.part(0.9), 2, || {
        off.push(native_round(&pool, c.seed, false).0);
        let (ns, ev) = native_round(&pool, c.seed, true);
        traced.push(ns);
        events += ev;
        registry.set_enabled(false);
        metrics_off.push(native_round(&pool, c.seed, false).0);
        registry.set_enabled(true);
        metrics_on.push(native_round(&pool, c.seed, false).0);
        registry.set_enabled(false);
    });
    let rounds = off.len() as u64;
    p.put(
        "trace.native_overhead_ratio",
        median(&traced) as f64 / median(&off) as f64,
        rounds,
    );
    let launches = rounds * KERNELS.len() as u64;
    p.put(
        "trace.events_per_launch",
        events as f64 / launches as f64,
        launches,
    );
    p.put(
        "metrics.on_overhead_ratio",
        median(&metrics_on) as f64 / median(&metrics_off) as f64,
        rounds,
    );
    registry.set_enabled(true);
    let snapshots = sample(c.part(0.05), 20, || {
        timed(|| {
            black_box(registry.snapshot());
        })
    });
    p.put_median("metrics.snapshot_us", &snapshots, 1e3);
    registry.set_enabled(false);
    registry.reset();
}

struct Group {
    /// The layers it prices, as printed.
    layers: &'static str,
    /// The workload whose traced child runs it under the suite's
    /// `--trace`: the one that exercises those layers.
    owner: &'static str,
    /// Its part of the probe budget when every group runs (sums to 1).
    share: f64,
    run: fn(&mut Probe, &Ctx),
}

const GROUPS: [Group; 9] = [
    Group {
        layers: "sched.cl_deque",
        owner: "kernel-seq",
        share: 0.02,
        run: cl_deque,
    },
    Group {
        layers: "sched.pool",
        owner: "kernel-seq",
        share: 0.08,
        run: pool,
    },
    Group {
        layers: "algos.par",
        owner: "kernel-par",
        share: 0.24,
        run: kernels,
    },
    Group {
        layers: "trace + metrics (native)",
        owner: "kernel-seq",
        share: 0.17,
        run: instrumentation,
    },
    Group {
        layers: "core",
        owner: "kernel-seq",
        share: 0.02,
        run: core_layer,
    },
    Group {
        layers: "serve",
        owner: "serve-closed-small",
        share: 0.10,
        run: serve_layer,
    },
    Group {
        layers: "serve.virt",
        owner: "serve-open-virtual",
        share: 0.16,
        run: virt_layer,
    },
    Group {
        layers: "hbp + sched.sim + trace (sim)",
        owner: "sim-table1",
        share: 0.20,
        run: sim_layers,
    },
    Group {
        layers: "machine",
        owner: "sim-table1",
        share: 0.01,
        run: machine_layer,
    },
];

/// Run the probe groups of this traced run within `budget`; returns
/// their metrics in schema order (without `bench.*`, which the traced
/// workload run itself provides).
pub fn probe(cfg: &RunCfg, budget: Duration) -> Vec<Metric> {
    let selected: Vec<&Group> = GROUPS
        .iter()
        .filter(|g| !cfg.own_layers || g.owner == cfg.workload)
        .collect();
    let shares: f64 = selected.iter().map(|g| g.share).sum();
    let mut p = Probe(BTreeMap::new());
    let start = Instant::now();
    for g in selected {
        let t = Instant::now();
        let ctx = Ctx {
            w: cfg.workers,
            seed: cfg.seed,
            host_cpus: cfg.host_cpus,
            budget: budget.mul_f64(g.share / shares),
        };
        (g.run)(&mut p, &ctx);
        println!(
            "probes: {:<30} {:>5.2} s of {:>5.2} s",
            g.layers,
            t.elapsed().as_secs_f64(),
            ctx.budget.as_secs_f64()
        );
    }
    println!(
        "probes took {:.1} s of a {:.1} s budget",
        start.elapsed().as_secs_f64(),
        budget.as_secs_f64()
    );
    schema::per_layer()
        .into_iter()
        .filter(|m| m.layer != "bench")
        .filter_map(|m| {
            let (value, samples) = p.0.remove(&m.name)?;
            Some(Metric::new(m.name, value, m.unit, samples))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::WORKLOADS;

    #[test]
    fn every_group_has_an_owner_and_the_shares_sum_to_one() {
        let total: f64 = GROUPS.iter().map(|g| g.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        for g in &GROUPS {
            assert!(
                WORKLOADS.iter().any(|w| w.name == g.owner),
                "{} is owned by unknown workload {}",
                g.layers,
                g.owner
            );
        }
        for w in &WORKLOADS {
            assert!(
                GROUPS.iter().any(|g| g.owner == w.name),
                "{} owns no probe group",
                w.name
            );
        }
    }
}
