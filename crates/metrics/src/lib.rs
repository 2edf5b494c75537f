//! # hbp-metrics — the live runtime metrics registry
//!
//! A dependency-free, lock-free metrics layer for the work-stealing
//! runtime: per-worker [`Counter`]/[`Gauge`]/[`LogHistogram`] cells in
//! cache-line-isolated shards, a process-wide [`Registry`] ([`global`]),
//! point-in-time [`Snapshot`]s, and [`prometheus_text`]/[`json`]
//! exposition.
//!
//! ## Contract
//!
//! - **Zero overhead when disabled.** Every instrumented site checks
//!   [`Registry::on`] (one relaxed load) and skips all metric work when the
//!   registry is off. Enable with [`Registry::set_enabled`] (the
//!   `HBP_METRICS=1` env switch is applied by `hbp_core::Config`).
//! - **Lock-free publishing.** Cells are relaxed atomics; a publish is a
//!   handful of `fetch_add`s with no CAS loops and no locks, safe from any
//!   worker thread including inside the Chase-Lev steal path.
//! - **Deterministic exposition.** Snapshots carry no wall-clock state, and
//!   both exposition formats emit fixed key order — on the sim backend two
//!   runs under one seed render byte-identical documents.
//!
//! Publishers: the native pool (per-job counter deltas, queue depth, arena
//! bytes), worker threads (park/unpark, steal batches) and the serve layer
//! (admission, job latency). Consumers: the `metrics_report` bin and the
//! serve scenario report.

pub mod cells;
pub mod expo;
pub mod registry;

pub use cells::{Counter, Gauge, HistSnapshot, LogHistogram, HIST_BUCKETS};
pub use expo::{json, prometheus_text};
pub use registry::{global, Registry, Snapshot, WorkerShard, WorkerSnap, SHARDS};
