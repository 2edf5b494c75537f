//! The repo's benchmark (see README.md and ../BENCHMARK.json).
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 11
//! ```
//!
//! runs the five workloads, one child process each with every `HBP_*`
//! variable scrubbed from its environment, verifies outputs, and prints
//! every end-to-end metric by name with its unit. `--trace` adds a
//! separate traced run per workload that prints the per-layer metrics of
//! the layers that workload exercises (so each is printed once) and
//! writes `benchmark/out/trace-<workload>.json`.
//!
//! The driver's form — `--workload W --seed N --seconds S --trace 0|1` —
//! runs one workload and ends stdout with one JSON result object.

mod kernels;
mod layers;
mod repeat;
mod run;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

use run::RunCfg;
use schema::{RUN_SECONDS, WORKLOADS};

static BLESS: AtomicBool = AtomicBool::new(false);

/// Whether this run regenerates the golden files instead of checking
/// them (`--bless`, never implied).
pub fn bless_requested() -> bool {
    BLESS.load(Ordering::Relaxed)
}

/// The benchmark's directory: `benchmark/` under the current directory
/// when run from the root of a checkout (the driver's case), else where
/// the crate was built.
pub fn bench_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

const USAGE: &str = "\
usage: hbp-benchmark [--seed N] [--seconds S] [--trace [0|1]] [--workload NAME]
                     [--repeat K [--out FILE]] [--agree A.json B.json] [--bless] [--schema]
  (no --workload)   run all five workloads, print every end-to-end metric
  --workload NAME   run one workload; the last stdout line is the result object
  --trace           also (suite: each per-layer metric once, from the workload that exercises
                    its layer) or instead (--workload ... --trace 1: every per-layer metric)
                    do the traced run
  --repeat K        run the suite K times (seeds N, N+1, ...); print median, quartiles, spread
  --agree A B       exit non-zero when two --out sets' medians differ by more than the bound
  --bless           regenerate benchmark/golden/*.json instead of checking them
  --schema          print BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    own_layers: bool,
    bless: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
    agree: Option<(PathBuf, PathBuf)>,
    schema: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: false,
        child: false,
        own_layers: false,
        bless: false,
        repeat: None,
        out: None,
        agree: None,
        schema: false,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|k| k.name).collect();
                    return Err(format!("unknown workload {w:?}; known: {known:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                // `--trace 0|1` (driver) or a bare `--trace` (suite).
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--repeat" => {
                a.repeat = Some(
                    value(&mut it, flag)?
                        .parse()
                        .ok()
                        .filter(|&k| k >= 2)
                        .ok_or("--repeat needs K >= 2")?,
                )
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--agree" => {
                a.agree = Some((
                    PathBuf::from(value(&mut it, flag)?),
                    PathBuf::from(value(&mut it, flag)?),
                ))
            }
            "--child" => a.child = true,
            "--own-layers" => a.own_layers = true,
            "--bless" => a.bless = true,
            "--schema" => a.schema = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// Everything but the workload list that identifies a result: echoed at
/// the top of every run so a number is never seen without its host.
pub struct Host {
    pub cpus: usize,
    pub workers: usize,
    pub git: String,
}

impl Host {
    fn detect() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let git = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(bench_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpus,
            workers: cpus.min(4),
            git,
        }
    }
}

/// Re-execute this binary as the workload's own process, with every
/// `HBP_*` variable removed so no knob leaks into a measurement. Returns
/// the child's stdout (captured only when `capture`) and whether it
/// exited with 0. `trace` is `None` for the untraced run, else whether
/// the traced run probes only the workload's own layers.
pub fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    capture: bool,
) -> (String, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }]);
    if trace == Some(true) {
        cmd.arg("--own-layers");
    }
    if bless_requested() {
        cmd.arg("--bless");
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("HBP_") {
            cmd.env_remove(key);
        }
    }
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .unwrap_or_else(|e| panic!("cannot run the {workload} child: {e}"));
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    BLESS.store(args.bless, Ordering::Relaxed);
    if args.schema {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.agree {
        return repeat::agree(a, b);
    }
    let host = Host::detect();

    if args.child {
        let workload = args.workload.expect("--child comes with --workload");
        // The thread budget: load-generating threads and pool workers
        // never exceed the host's CPUs.
        assert!(host.workers <= host.cpus, "workers <= nproc");
        let result = run::run_child(&RunCfg {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host_cpus: host.cpus,
            workers: host.workers,
            own_layers: args.own_layers,
        });
        return if result.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    println!(
        "hbp-benchmark git={} host_cpus={} workers={} seed={} seconds={}",
        host.git, host.cpus, host.workers, args.seed, args.seconds
    );
    if let Some(workload) = &args.workload {
        // The driver's form: one workload, the child's stdout is ours.
        let trace = args.trace.then_some(false);
        let (_, ok) = spawn_child(workload, args.seed, args.seconds, trace, false);
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match args.repeat {
        Some(k) => repeat::repeat(&host, k, args.seed, args.seconds, args.out.as_deref()),
        None => repeat::suite(args.seed, args.seconds, args.trace),
    }
}
