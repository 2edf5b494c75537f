//! # hbp-metrics — the live runtime metrics registry
//!
//! A dependency-free, lock-free metrics layer for the work-stealing
//! runtime: [`Counter`]/[`Gauge`]/[`LogHistogram`] cells, per-worker
//! [`WorkerShard`]s, a process-wide [`Registry`] ([`global`]),
//! point-in-time [`Snapshot`]s, and [`prometheus_text`]/[`json`]
//! exposition.
//!
//! ## Contract
//!
//! - **Nothing on the task path.** The registry is written at job and
//!   admission boundaries only. The native pool counts tasks, steals,
//!   failed probes and parks in its own per-worker records and folds each
//!   job's deltas into the worker shards once, at the job's quiesce point;
//!   the sim session folds its finished report the same way.
//! - **Zero overhead when disabled.** Every publish site checks
//!   [`Registry::on`] (one relaxed load) and skips all metric work when the
//!   registry is off. Enable with [`Registry::set_enabled`]; no
//!   environment variable does (`hbp metrics_report` enables it itself).
//! - **Deterministic exposition.** Snapshots carry no wall-clock state, and
//!   both exposition formats emit fixed key order — on the sim backend two
//!   runs under one seed render byte-identical documents.
//!
//! Publishers: the native pool's driver (per-job worker deltas, job
//! latency, backlog), the `par_*` kernels (arena bytes), the sim session
//! and the serve layer (admission). Consumers: `hbp metrics_report`
//! and the serve scenario report.

pub mod cells;
pub mod expo;
pub mod registry;

pub use cells::{Counter, Gauge, HistSnapshot, LogHistogram, HIST_BUCKETS};
pub use expo::{json, prometheus_text};
pub use registry::{global, Registry, Snapshot, WorkerShard, WorkerSnap, SHARDS};
