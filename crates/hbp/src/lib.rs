//! # hbp-model — the HBP computation model
//!
//! This crate implements §2–§3 of Cole & Ramachandran (IPDPS 2012 /
//! arXiv:1103.4071): multithreaded computations that expose parallelism by
//! **binary forking**, structured as **Balanced Parallel (BP)** computations
//! and their hierarchical composition, **HBP** computations.
//!
//! A computation is represented as a *series-parallel task DAG* recorded by a
//! [`Builder`]: algorithms are written once, against typed global arrays and
//! execution-stack locals; running the algorithm through the builder both
//! *computes real values* (so outputs can be checked against sequential
//! oracles) and *records the exact word-level access trace* of every task.
//! The recorded [`Computation`] is then executed by `hbp-sched` under PWS or
//! RWS on the simulated machine from `hbp-machine`.
//!
//! Structural features of the paper captured here:
//!
//! * **task sizes** `|τ|`, declared by every fork;
//! * **priorities** that strictly decrease along every root→leaf path
//!   (§4.1);
//! * **limited-access** writes (Def 2.4) — checkable per computation;
//! * **execution-stack locals** (Def 3.1) with symbolic addresses resolved
//!   at schedule time, so stack-block sharing between a stolen task and its
//!   ancestors is modeled faithfully (§3.3);
//! * **padded** BP/HBP computations (Def 3.3): a `⌈√|τ|⌉`-word pad per frame;
//! * estimators for the **cache-friendliness** `f(r)` (Def 2.1) and the
//!   **block-sharing** function `L(r)` (Def 2.3).

pub mod analysis;
pub mod builder;
pub mod comp;
pub mod priority;
pub mod value;

pub use builder::{BuildConfig, Builder, GArray, LArray, Local};
pub use comp::{Access, Computation, Item, NodeId, Segment, TNode, Target};
pub use value::{Cx, Wordable};

pub use hbp_machine::Word;
