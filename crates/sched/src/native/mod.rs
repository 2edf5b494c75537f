//! Real-threads execution backend: randomized work stealing on a
//! persistent pool of `std::thread` workers over lock-free Chase-Lev
//! deques.
//!
//! Where the simulator replays a *recorded* computation on a simulated
//! machine, this module runs *actual Rust closures* — the `par_*` kernels
//! of `hbp-algos` — on a pool of OS threads, and reports wall-clock time
//! in the same [`ExecReport`] shape the simulator produces, so figure
//! binaries can switch backends without changing their reporting path.
//!
//! The runtime is layered:
//!
//! * **deque** ([`crate::cl_deque`]): each worker owns a lock-free
//!   **Chase-Lev deque** — the owner pushes and pops at the *bottom*
//!   without locks, thieves CAS the *top*, and the last-element conflict
//!   is arbitrated by a `SeqCst` fence — the real realization of the
//!   Obs 4.1 discipline the simulator models;
//! * **worker loop** (`runtime`): [`join`] is the fork primitive — the
//!   right branch is published on the owner's deque while the owner runs
//!   the left branch; on return the owner pops it back (inline
//!   execution) or, if a thief took it, steals *other* work while
//!   waiting for the branch's completion flag. Idle workers probe every
//!   other worker once per scan, from a random start drawn from their
//!   own xorshift stream, until the job's root completes — randomized
//!   work stealing, the one native discipline (PWS's global priority
//!   rounds and the §5.3 BSP mapping are simulator schedules). Every
//!   steal, from either place, claims exactly one task with
//!   [`ClDeque::steal`](crate::cl_deque::ClDeque::steal), as the paper's
//!   schedulers do, so a worker's deque only ever holds the right
//!   branches of its own open joins;
//! * **pool** ([`pool`]): a [`NativePool`] spawns its fixed set of
//!   [`NativeConfig::workers`] threads **once** and serves successive
//!   jobs through a submission queue — every worker steals from every
//!   other (one flat victim set, no cache-domain grouping), workers
//!   park on a condvar between jobs, shutdown is explicit and
//!   idempotent, and every job gets its own [`ExecReport`] (and
//!   optionally its own trace sink). [`NativePool::run`] is the
//!   one-shot convenience: spawn a pool, submit one job, wait, shut down.
//!
//! ## Report semantics
//!
//! All times are **nanoseconds of wall-clock**, not simulated units:
//! `makespan` is the job's runtime (root start to pool quiescence),
//! `busy[w]` is the time worker `w` spent inside top-level tasks (the
//! root, or a task stolen from its main loop — join-wait spinning inside
//! a task is attributed to that task), `steal_overhead[w]` is the time
//! spent probing between top-level tasks, and `work` counts executed
//! tasks (the root plus every forked branch). On a persistent pool these
//! are per-job counter *deltas*, so successive reports compose.
//! Simulator-only fields (cache counters, priorities, stolen sizes) are
//! zero/empty.
//!
//! ## Tracing
//!
//! [`NativePool::run_traced`] and [`NativePool::submit_traced`] additionally
//! record structured events (`hbp-trace`, [`ClockDomain::WallNs`]): task
//! begin/end around every executed task (nested when a join-wait
//! steals), forks, steal commits/failures. Each worker appends only to
//! its own lock-free ring, so the cost per event is one
//! `Instant::elapsed` plus three relaxed atomics; with tracing off the
//! only overhead is one `Option` check per site. Timestamps are relative
//! to the traced job's start, not the pool's.
//!
//! ## Panics
//!
//! A panicking kernel closure does not poison the pool: every branch is
//! executed under `catch_unwind`, the remaining workers drain, the pool
//! stays serviceable for the next job, and the panic is re-raised from
//! [`NativePool::run`] / [`PoolHandle::wait`] as a `String` payload naming
//! the worker that panicked — `kernel panicked on worker W: message`.
//! [`PoolHandle::outcome`] exposes the caught payload instead, for
//! servers that must survive bad requests.
//!
//! [`ExecReport`]: crate::ExecReport
//! [`ClockDomain::WallNs`]: hbp_trace::ClockDomain::WallNs

mod job;
pub mod pool;
pub(crate) mod runtime;

pub use pool::{JobOutcome, NativePool, PoolHandle, SubmitError};
pub use runtime::join;

/// Configuration of one native pool.
#[derive(Debug, Clone, Copy)]
pub struct NativeConfig {
    /// Number of worker threads (≥ 1).
    pub workers: usize,
    /// Seed the workers' victim-selection RNG streams derive from.
    pub seed: u64,
}

impl Default for NativeConfig {
    /// One worker per hardware thread — but at least 4, so stealing
    /// exists even on small hosts (the same default `hbp_core::Config`
    /// uses when `HBP_WORKERS` is unset) — seed 0, randomized stealing.
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4),
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pool_streams_from_its_seed_alone() {
        // The same stream seed a default pool had under the former
        // `rws:0` policy mix, `seed ^ 0·φ`: victim sequences unchanged.
        for s in [0, 1, 42, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let cfg = NativeConfig {
                seed: s,
                ..NativeConfig::default()
            };
            assert_eq!(runtime::Pool::new(&cfg).seed, s);
        }
    }
}
