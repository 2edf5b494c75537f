//! # hbp-core — resource-oblivious multicore algorithms with false sharing
//!
//! Facade crate for the reproduction of Cole & Ramachandran, *"Efficient
//! Resource Oblivious Algorithms for Multicores with False Sharing"*
//! (IPDPS 2012; full version arXiv:1103.4071).
//!
//! The library lets you:
//!
//! 1. **record** an HBP computation (fork-join algorithm with task sizes,
//!    execution-stack locals, limited-access writes) via
//!    [`model::Builder`], or use one of the paper's algorithms from
//!    [`algos`];
//! 2. **schedule** it with the deterministic PWS scheduler (or the RWS
//!    baseline) on a simulated multicore — `p` cores, private LRU caches of
//!    `M` words, `B`-word blocks, write-invalidate coherence — via
//!    [`sched::run`];
//! 3. **measure** exactly what the paper's lemmas bound: cache misses,
//!    **block misses (false sharing)**, steals per priority, usurpations,
//!    idle time, and the excess of each over the sequential cache
//!    complexity `Q(n, M, B)`;
//! 4. **run** any row of the paper's Table 1 by name on either backend:
//!    the [`registry`](mod@registry) row carries both the recorded builder and — where
//!    one exists — the native kernel on the same input, and
//!    [`Config::open`] returns the [`ExecSession`] every job goes through
//!    (simulated machine or real work-stealing pool).
//!
//! ```
//! use hbp_core::prelude::*;
//!
//! // Record the paper's M-Sum over 1024 elements.
//! let data: Vec<u64> = (0..1024).collect();
//! let (comp, _out) = hbp_core::algos::scan::m_sum(&data, BuildConfig::default());
//!
//! // Sequential baseline Q(n, M, B), then PWS on 8 cores.
//! let machine = MachineConfig::new(8, 1 << 12, 32);
//! let seq = run_sequential(&comp, machine);
//! let par = run(&comp, machine, Policy::Pws);
//!
//! assert_eq!(par.work, comp.work());
//! assert!(par.max_steals_per_priority() <= 7); // Obs 4.3: ≤ p − 1
//! let excess = par.excess_vs(&seq);
//! assert!(excess.q_sequential > 0);
//! ```

pub mod config;
pub mod executor;
pub mod registry;
pub mod session;

/// The paper's algorithm suite (paper §3.2): recorded HBP builders and
/// the native `par_*` kernels.
pub use hbp_algos as algos;
/// The simulated machine: caches, blocks, coherence (paper §1–§2).
pub use hbp_machine as machine;
/// Lock-free runtime metrics: per-worker counters, gauges and
/// histograms with Prometheus-text / JSON exposition (off until a
/// caller enables it, as `hbp metrics_report` does).
pub use hbp_metrics as metrics;
/// The HBP computation model (paper §2–§3).
pub use hbp_model as model;
/// PWS / RWS scheduling on the simulated machine (paper §4).
pub use hbp_sched as sched;
/// Structured event tracing for both backends (Chrome export, critical
/// path, utilization — see the `hbp-trace` crate docs).
pub use hbp_trace as trace;

pub use config::{Backend, Config};
pub use executor::{ExecJob, Executor, NativeExecutor, SimExecutor};
pub use hbp_machine::{MachineConfig, MemSystem};
pub use hbp_model::{BuildConfig, Builder, Computation};
pub use hbp_sched::native::SubmitError;
pub use hbp_sched::{
    run, run_sequential, run_traced, run_with_critical_path, ExecReport, Policy, SeqReport,
};
pub use registry::{
    find, has_native_kernel, lookup, native_kernel, registry, try_lookup, AlgoSpec, SizeKind,
};
pub use session::{ExecHandle, ExecSession, JobError};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::config::{Backend, Config};
    pub use crate::executor::{ExecJob, Executor, NativeExecutor, SimExecutor};
    pub use crate::registry::{find, lookup, registry, try_lookup, AlgoSpec, SizeKind};
    pub use crate::session::{ExecHandle, ExecSession, JobError};
    pub use hbp_machine::{MachineConfig, MemSystem};
    pub use hbp_model::analysis;
    pub use hbp_model::{BuildConfig, Builder, Computation, Cx, GArray};
    pub use hbp_sched::native::SubmitError;
    pub use hbp_sched::{
        run, run_sequential, run_traced, run_with_critical_path, ExecReport, Policy, SeqReport,
    };
    pub use hbp_trace::{ClockDomain, Trace, TraceSink};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn doc_example_flow_works() {
        let data: Vec<u64> = (0..256).collect();
        let (comp, _) = crate::algos::scan::m_sum(&data, BuildConfig::default());
        let machine = MachineConfig::new(4, 1 << 10, 32);
        let seq = run_sequential(&comp, machine);
        let par = run(&comp, machine, Policy::Pws);
        assert_eq!(par.work, comp.work());
        assert!(par.max_steals_per_priority() <= 3);
        assert!(par.excess_vs(&seq).q_sequential > 0);
    }
}
