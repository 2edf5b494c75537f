//! # hbp-sched — PWS and RWS scheduling, simulated and native
//!
//! Implements §4 of Cole & Ramachandran (IPDPS 2012 / arXiv:1103.4071):
//! a discrete-event multicore engine that executes a recorded
//! [`hbp_model::Computation`] on the simulated memory system of
//! `hbp-machine`, under a pluggable work-stealing policy — plus a
//! real-threads backend that runs actual fork-join closures on OS
//! workers with randomized work stealing.
//!
//! ## Layout
//!
//! The simulator is a layered subsystem:
//!
//! * [`engine`] — the stable entry points: [`Policy`], [`run`],
//!   [`run_traced`], [`run_with_critical_path`] and [`run_sequential`];
//! * [`sim`] — the policy-independent event-loop core ([`sim::Engine`]):
//!   per-core virtual clocks, fork/join and usurpation bookkeeping,
//!   word-granularity miss accounting;
//! * [`policy`] — the [`StealPolicy`] trait and the paper's three
//!   disciplines: [`policy::Pws`] (§4.1, §4.7 priority rounds),
//!   [`policy::Rws`] (seeded randomized baseline of \[13\]), and
//!   [`policy::Bsp`] (§5.3 bulk-synchronous mapping);
//! * [`clock`] — the event calendar (a ring of per-instant FIFO buckets),
//!   virtual time, and sweep cadence;
//! * [`deque`] — per-core task deques with Obs 4.1's push/pop/steal
//!   ordering (fork pushes the right child at the bottom; owners pop the
//!   bottom; thieves steal the top);
//! * [`stacks`] — §3.3 kernel stack regions: every kernel owns a fresh
//!   region of [`hbp_machine::MachineConfig::region_words`] words; frames
//!   are pushed/popped LIFO within it, so stack blocks are *reused* by
//!   sibling subtrees and *shared* between a stolen task and its
//!   ancestors — exactly the block-miss sources of Lemma 3.1 / §4.3;
//! * [`cl_deque`] — a real lock-free Chase-Lev deque (growable circular
//!   array of one-word atomic slots, CAS-on-steal, `SeqCst` fence on the
//!   last-element conflict, retired-buffer reclamation) — the native
//!   realization of the Obs 4.1 discipline;
//! * [`native`] — the real-threads backend: a [`native::NativePool`] runs
//!   closures on a fixed set of persistent `std::thread` workers over
//!   per-worker [`ClDeque`]s, stealing flat (the pool never learns the
//!   cache topology, as the paper's resource-oblivious schedulers do
//!   not) in seeded random victim order — randomized work stealing, its
//!   one discipline; the [`policy`] schedules are the simulator's —
//!   reporting wall-clock makespan and per-worker busy/steal counters
//!   in the same [`ExecReport`] shape.
//!
//! Both backends can additionally record **structured event traces**
//! (`hbp-trace`): [`run_traced`] hooks the sim event loop (task
//! begin/end, forks, join resumes, steals, stack-region attaches,
//! per-segment cache-miss deltas in virtual time), and
//! [`native::NativePool::run_traced`] records the same vocabulary, less
//! the miss deltas only the simulator can predict, from the pool workers
//! in wall-clock nanoseconds. Tracing is
//! observational: reports are bit-identical with and without a sink
//! attached. A caller that needs only a sim run's critical-path split
//! asks [`run_with_critical_path`], which keeps it forward as the engine
//! runs and records nothing.
//!
//! Outputs are an [`ExecReport`]: makespan, per-core busy/idle/steal time,
//! miss counts split heap vs stack and by kind (cold / capacity /
//! coherence), per-priority steal counts (Obs 4.3), steal attempt totals
//! (Cor 4.1), stolen-task sizes (Lemma 2.1), and usurpations (Lemma 4.6).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod cl_deque;
pub mod clock;
pub mod deque;
pub mod engine;
pub mod native;
pub mod policy;
pub mod report;
pub mod sim;
pub mod stacks;

pub use cl_deque::{ClDeque, Steal, Word};
pub use engine::{run, run_sequential, run_traced, run_with_critical_path, Policy};
pub use policy::StealPolicy;
pub use report::{ExcessReport, ExecReport, SeqReport};
