//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root is this file rendered by
//! `--schema`; a unit test keeps the two identical. Later PRs are
//! accepted or rejected on these names — do not rename one casually.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve-closed-small",
        why: "Full request path (admission, queue, batch, pool, kernel, reply), closed loop of ~25us kernels in ~200us requests: serve + sched.pool do the work, algos.par little.",
    },
    Workload {
        name: "kernel-par",
        why: "Eight 1-16 MiB kernels on a w-worker pool, serve bypassed: algos.par plus stealing/join in sched do all the work, so kernel, deque, steal-policy or padding changes show here.",
    },
    Workload {
        name: "kernel-seq",
        why: "Same kernels on one worker: no thieves, so it prices pjoin fork/join overhead and the sequential cutoff; its round time / (w * kernel-par's) is the scaling efficiency.",
    },
    Workload {
        name: "sim-table1",
        why: "Every registry row built, replayed sequentially and scheduled under PWS and RWS on the simulated machine: hbp + machine + sched.sim only, the native runtime is bypassed.",
    },
    Workload {
        name: "serve-open-virtual",
        why: "Open-loop arrivals, batching and bounded-admission rejections on the sim backend in integer virtual time: exact per seed, so any movement is a behaviour change, not noise.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "best_case_latency_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Crate/module the number prices.
    pub layer: &'static str,
}

/// Short names of the eight native kernels, in round order.
pub const KERNEL_KEYS: [&str; 8] = ["msum", "ps", "mt", "strassen", "fft", "lr", "spms", "msort"];

/// Every per-layer metric a traced run prints, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    const LOWER: &str = "lower";
    const HIGHER: &str = "higher";
    type Row = (&'static str, &'static str, &'static str, &'static str);
    let sched: &[Row] = &[
        ("cl_deque.push_pop_ns", "ns", LOWER, "sched.cl_deque"),
        ("cl_deque.steal_ns", "ns", LOWER, "sched.cl_deque"),
        ("cl_deque.steal_contended_ns", "ns", LOWER, "sched.cl_deque"),
        (
            "cl_deque.steal_retry_ratio",
            "ratio",
            LOWER,
            "sched.cl_deque",
        ),
        ("cl_deque.steal_batch_ns", "ns", LOWER, "sched.cl_deque"),
        ("pool.spawn_us", "us", LOWER, "sched.pool"),
        ("pool.shutdown_us", "us", LOWER, "sched.pool"),
        ("pool.submit_wait_us", "us", LOWER, "sched.pool"),
        ("pool.wake_us", "us", LOWER, "sched.pool"),
        ("pool.queue_us", "us", LOWER, "sched.pool"),
        ("pool.join_seq_ns", "ns", LOWER, "sched.pool"),
        ("pool.join_par_ns", "ns", LOWER, "sched.pool"),
        ("pool.steals_per_launch", "count", LOWER, "sched.pool"),
        ("pool.steal_success_ratio", "ratio", HIGHER, "sched.pool"),
        ("pool.workers_active", "count", HIGHER, "sched.pool"),
    ];
    let rest: &[Row] = &[
        ("core.input_gen_us", "us", LOWER, "core"),
        ("core.session_overhead_us", "us", LOWER, "core"),
        ("core.lookup_us", "us", LOWER, "core"),
        ("serve.throughput_rps", "1/s", HIGHER, "serve"),
        ("serve.lat_p50_us", "us", LOWER, "serve"),
        ("serve.lat_p95_us", "us", LOWER, "serve"),
        ("serve.queue_wait_p50_us", "us", LOWER, "serve"),
        ("serve.queue_wait_p95_us", "us", LOWER, "serve"),
        ("serve.service_p50_us", "us", LOWER, "serve"),
        ("serve.reply_p50_us", "us", LOWER, "serve"),
        ("serve.batch_mean", "count", HIGHER, "serve"),
        ("serve.batched_share", "ratio", HIGHER, "serve"),
        ("serve.rejected", "count", LOWER, "serve"),
        ("serve.deferred", "count", LOWER, "serve"),
        ("serve.schedule_build_ms", "ms", LOWER, "serve"),
        ("serve.report_json_ms", "ms", LOWER, "serve"),
        ("serve.batch8_launch_us", "us", LOWER, "serve"),
        ("serve.solo8_launch_us", "us", LOWER, "serve"),
        ("virt.host_ms", "ms", LOWER, "serve.virt"),
        ("virt.oracle_ms", "ms", LOWER, "serve.virt"),
        ("virt.launches", "count", LOWER, "serve.virt"),
        ("virt.batched_requests", "count", HIGHER, "serve.virt"),
        ("virt.queue_wait_p95_us", "us", LOWER, "serve.virt"),
        ("virt.rejected", "count", LOWER, "serve.virt"),
        ("virt.lat_p50_us", "us", LOWER, "serve.virt"),
        ("virt.lat_p95_us", "us", LOWER, "serve.virt"),
        ("hbp.build_ms", "ms", LOWER, "hbp"),
        ("hbp.nodes", "count", LOWER, "hbp"),
        ("hbp.span_ms", "ms", LOWER, "hbp"),
        ("hbp.estimators_ms", "ms", LOWER, "hbp"),
        ("machine.hit_ns", "ns", LOWER, "machine"),
        ("machine.miss_ns", "ns", LOWER, "machine"),
        ("machine.coherence_ns", "ns", LOWER, "machine"),
        ("sim.seq_ms", "ms", LOWER, "sched.sim"),
        ("sim.pws_ms", "ms", LOWER, "sched.sim"),
        ("sim.rws_ms", "ms", LOWER, "sched.sim"),
        ("sim.pws_ns_per_node", "ns", LOWER, "sched.sim"),
        ("sim.q_misses", "count", LOWER, "sched.sim"),
        ("sim.pws_makespan", "count", LOWER, "sched.sim"),
        ("sim.pws_block_misses", "count", LOWER, "sched.sim"),
        ("sim.pws_steals", "count", LOWER, "sched.sim"),
        ("sim.rws_block_misses", "count", LOWER, "sched.sim"),
        ("trace.native_overhead_ratio", "ratio", LOWER, "trace"),
        ("trace.sim_overhead_ratio", "ratio", LOWER, "trace"),
        ("trace.events_per_launch", "count", LOWER, "trace"),
        ("trace.collect_ms", "ms", LOWER, "trace"),
        ("trace.critical_path_ms", "ms", LOWER, "trace"),
        ("metrics.on_overhead_ratio", "ratio", LOWER, "metrics"),
        ("metrics.snapshot_us", "us", LOWER, "metrics"),
        ("bench.trace_overhead_ratio", "ratio", LOWER, "bench"),
        ("bench.harness_share", "ratio", LOWER, "bench"),
        ("bench.spans", "count", LOWER, "bench"),
        ("bench.peak_rss_mb", "MiB", LOWER, "bench"),
    ];
    let mut out: Vec<PerLayer> = Vec::new();
    let mut push = |name: String, unit, better, layer| {
        out.push(PerLayer {
            name,
            unit,
            better,
            layer,
        })
    };
    for &(name, unit, better, layer) in sched {
        push(name.to_string(), unit, better, layer);
    }
    for k in KERNEL_KEYS {
        push(format!("kernel.{k}.seq_us"), "us", LOWER, "algos.par");
        push(format!("kernel.{k}.par_us"), "us", LOWER, "algos.par");
        push(format!("kernel.{k}.speedup"), "ratio", HIGHER, "algos.par");
        push(format!("kernel.{k}.vs_oracle"), "ratio", LOWER, "algos.par");
    }
    for &(name, unit, better, layer) in rest {
        push(name.to_string(), unit, better, layer);
    }
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut s = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n",
        quoted.join(", ")
    );
    let sep = |i: usize, n: usize| if i + 1 < n { "," } else { "" };
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.why,
            sep(i, WORKLOADS.len())
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better,
            m.bound,
            sep(i, END_TO_END.len())
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better,
            sep(i, layers.len())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbp_core::trace::json::{parse, Json};
    use std::collections::BTreeSet;

    fn committed() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            src,
            benchmark_json(),
            "BENCHMARK.json must be `--schema` output"
        );
        parse(&src).expect("BENCHMARK.json parses")
    }

    fn names(j: &Json, key: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let j = committed();
        let workloads = names(&j, "workloads");
        let e2e = names(&j, "end_to_end");
        let layers = names(&j, "per_layer");
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(e2e, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(
            layers,
            per_layer().into_iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
        assert!(all.iter().all(|n| name_ok(n)), "{all:?}");
        let unique: BTreeSet<&String> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
        assert!(src_len_ok(), "whole file at most 64 KiB");
    }

    fn src_len_ok() -> bool {
        benchmark_json().len() <= 64 * 1024
    }

    #[test]
    fn limits_of_the_contract_hold() {
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(matches!(m.better, "higher" | "lower"));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in per_layer() {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
        }
    }
}
