//! # hbp-serve — kernel-as-a-service on the persistent pool runtime
//!
//! PR 5 made the native runtime a pool you *start once and keep*
//! ([`hbp_core::sched::native::NativePool`]); this crate is the service
//! built on top of it: a **multi-tenant job server** that accepts a
//! stream of kernel requests (sort / scan / list-ranking / … at mixed
//! sizes) from concurrent clients and serves them all from one pool,
//! never respawning a worker.
//!
//! The traffic comes from a **deterministic-seed load generator**
//! ([`gen`]): one `ChaCha8Rng` drives the mix picks, problem sizes, and
//! log-normal pacing, so a scenario is fully described by its
//! [`ScenarioSpec`] — same spec, same schedule, CI-able. Serving adds:
//!
//! * **bounded admission** — a full queue rejects (and counts) instead
//!   of buffering unboundedly or dropping silently;
//! * **small-request batching** — consecutive requests with
//!   `n <= small_n` share one kernel launch (a fork-join tree in a
//!   single pool submission);
//! * a **[`ScenarioReport`]** with p50/p95/p99 latency, queue-wait
//!   percentiles, queue depth over time, throughput, and (on the sim
//!   backend) each request's critical-path breakdown.
//!
//! One state machine decides, two drivers run it. The admission desk
//! (`desk.rs`, private) owns every decision: the bounded queue, who is
//! admitted, deferred (with which hint) or rejected, which queued
//! requests share a launch, the single launch slot, the depth samples,
//! the `admission_*` metric bumps and the report rows. It has no clock
//! and no threads; a driver tells it the time and what a launch cost:
//!
//! * [`virt::run_virtual`] (sim) owns an event heap in integer virtual
//!   time and a per-shape service oracle (the kernel's simulated makespan
//!   and critical path under the scenario policy). Byte-identical JSON
//!   across runs for a fixed seed.
//! * [`server::run_real`] (native) owns real client threads blocking on
//!   a condvar reply, one real [`NativePool`] and the mutex the desk sits
//!   behind; wall-clock timings. No service thread: an admitted client
//!   that finds the launch slot free submits the launch itself, and a
//!   finished launch submits the next from the pool's driver.
//!
//! So the sim report is the exact model of the native server by
//! construction: a change to admission, pacing or batching lands in one
//! place and both backends move together.
//!
//! ```no_run
//! use hbp_serve::{run_scenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_env(); // HBP_SERVE_*, HBP_BACKEND, ...
//! let report = run_scenario(&spec);
//! println!("{}", report.to_json());
//! ```
//!
//! [`hbp_core::sched::native::NativePool`]: hbp_core::sched::native::NativePool
//! [`NativePool`]: hbp_core::sched::native::NativePool

mod desk;
pub mod gen;
pub mod report;
pub mod server;
pub mod spec;
pub mod virt;

pub use gen::{build_schedule, per_client, Request};
pub use report::{ClientStats, CpTotals, LatencyStats, RequestRecord, ScenarioReport};
pub use spec::{default_mix, LoadMode, MixEntry, ScenarioSpec};

use hbp_core::Backend;

/// Run a scenario on the backend it names: [`virt::run_virtual`] on
/// sim, [`server::run_real`] on native. Validates the spec first
/// (fail-loud registry resolution, see [`ScenarioSpec::validate`]).
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    spec.validate();
    match spec.backend {
        Backend::Sim => virt::run_virtual(spec),
        Backend::Native => server::run_real(spec),
    }
}
