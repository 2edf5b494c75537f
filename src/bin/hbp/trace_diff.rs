//! **`hbp trace_diff <algo-prefix> [n] [side-a] [side-b]`** — run one
//! registry kernel under two scheduling configurations, align the
//! traces, and report where they diverge.
//!
//! * `algo-prefix` — registry lookup, as in `hbp_core::find` (default
//!   `FFT`); `n` as in `trace_report` (defaults 4096 / 32).
//! * `side-a` / `side-b` — `[backend:]policy`, where `backend` is `sim`
//!   (default) or `native` and `policy` uses the `HBP_POLICY` syntax
//!   (`pws`, `rws[:seed]`, `bsp[:levels]`). A `native:` side steals
//!   randomized and takes only `rws[:seed]`. Defaults `pws` vs `rws:1`,
//!   both sim.
//!
//! **Same backend on both sides** (the classic mode): task ids share an
//! id space, so the diff checks *structural equality* — same task set,
//! same fork/begin/end tallies — and pinpoints the first critical-path
//! hop where the schedules part ways. Exit 1 on structural mismatch.
//!
//! **Mixed sim vs native**: sim ids are the recorded computation's node
//! ids while native ids are scheduling-dependent fork ordinals, so
//! cross-backend id alignment is meaningless. The diff degrades to each
//! side's *completeness* (every begun task ended, nothing dropped) and
//! prints the model-predicted miss totals beside the hardware-measured
//! ones — the model-vs-hardware loop the `MissDelta` counter sampling
//! exists for — or says that the native side measured nothing, where
//! the kernel denies `perf_event_open`. Exit 1 when either side is
//! incomplete.
//!
//! Exit status: 0 clean, 1 mismatch/incomplete, 2 usage errors.

use hbp_core::prelude::*;

use crate::common::parse_algo_n;
use crate::usage;

/// The argument synopsis `hbp help` and a usage error print.
pub const ARGS: &str = "<algo-prefix> [n] [side-a] [side-b]
       side = [sim:]policy | native:rws[:seed]   (policy = pws | rws[:seed] | bsp[:levels])";

/// One side of the diff: which backend runs the kernel, under which
/// policy.
#[derive(Debug, Clone, Copy)]
struct Side {
    backend: Backend,
    policy: Policy,
}

fn parse_side(s: &str) -> Side {
    let (backend, policy) = match s.split_once(':') {
        Some(("sim", rest)) => (Backend::Sim, rest),
        Some(("native", rest)) => (Backend::Native, rest),
        _ => (Backend::Sim, s),
    };
    let policy = Policy::parse(Some(policy))
        .and_then(|p| backend.check_policy(p))
        .unwrap_or_else(|e| usage("trace_diff", &format!("side {s:?}: {e}")));
    Side { backend, policy }
}

pub fn main(args: &[String]) {
    let (spec, n) = parse_algo_n(args).unwrap_or_else(|e| usage("trace_diff", &e));
    let side_a = parse_side(args.get(2).map_or("pws", String::as_str));
    let side_b = parse_side(args.get(3).map_or("rws:1", String::as_str));
    let env = Config::try_from_env().unwrap_or_else(|e| usage("trace_diff", &e));

    let machine = MachineConfig::default_machine();
    let trace_of = |side: Side| -> Trace {
        let session = env.backend(side.backend).policy(side.policy).open(machine);
        let sink = std::sync::Arc::new(TraceSink::new(session.workers(), session.clock_domain()));
        session
            .submit_traced(&ExecJob::new(spec.name, n, 42), &sink)
            .expect("a fresh session admits")
            .wait()
            .unwrap_or_else(|e| usage("trace_diff", &format!("{:?} {e}", side.backend)));
        sink.collect()
    };
    let (ta, tb) = (trace_of(side_a), trace_of(side_b));
    let d = hbp_core::trace::diff(&ta, &tb);

    println!(
        "trace diff — {} (n = {n})\n  A = {:?} on {:?}\n  B = {:?} on {:?}\n",
        spec.name, side_a.policy, side_a.backend, side_b.policy, side_b.backend
    );
    print!("{d}");

    if side_a.backend == side_b.backend {
        if d.structurally_equal() {
            println!("\nstructurally equal: both schedules execute the same task DAG");
        } else {
            println!("\nSTRUCTURAL MISMATCH: the two runs did not execute the same task DAG");
            std::process::exit(1);
        }
    } else {
        // Cross-backend: id spaces differ by construction (node ids vs
        // fork ordinals), so alignment degrades to per-side completeness
        // plus the predicted-vs-measured miss totals printed above.
        let (sim_m, nat_m) = if side_a.backend == Backend::Sim {
            (d.a.misses, d.b.misses)
        } else {
            (d.b.misses, d.a.misses)
        };
        let native = if hbp_core::sched::perf::granted() {
            format!(
                "native measured {}/{}/{} via perf",
                nat_m.0, nat_m.1, nat_m.2
            )
        } else {
            "native: no counter source on this host (perf_event_open denied); \
             nothing measured"
                .into()
        };
        println!(
            "\ncross-backend: sim predicts {}/{}/{} (heap/stack/plain) block misses; {native}",
            sim_m.0, sim_m.1, sim_m.2,
        );
        let mut bad = false;
        for (name, side) in [("A", &d.a), ("B", &d.b)] {
            if !side.complete() {
                println!(
                    "side {name} INCOMPLETE: {} begins vs {} ends, {} dropped",
                    side.begins, side.ends, side.dropped
                );
                bad = true;
            }
        }
        if bad {
            std::process::exit(1);
        }
        println!("both sides complete: every begun task ended, nothing dropped");
    }
}
