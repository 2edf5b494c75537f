//! # hbp-machine — simulated multicore memory system
//!
//! This crate implements the machine model of Cole & Ramachandran,
//! *"Efficient Resource Oblivious Algorithms for Multicores with False
//! Sharing"* (IPDPS 2012; arXiv:1103.4071, §1–§2):
//!
//! * `p` cores, each with a **private cache** of `M` words, managed LRU;
//! * data organized in **blocks** of `B` words; an arbitrarily large shared
//!   memory behind the caches;
//! * a **write-invalidate coherence protocol**: when core `C'` writes into a
//!   block `β` held by core `C`, the copy of `β` in `C`'s cache is
//!   invalidated, and `C`'s next access to `β` misses — a **block miss**
//!   (the paper's generalization of false sharing);
//! * every miss costs `b` time units; space is allocated in block-sized
//!   units so allocations to different requesters never share a block (§2.2).
//!
//! The crate is a pure, deterministic state machine: feed it a sequence of
//! `(core, address, read/write)` accesses and it reports, per core, how many
//! were hits, **cold** misses, **capacity** misses, and **coherence (block)
//! misses**, plus per-block transfer counts (the paper's *block delay*,
//! Definition 2.2). The scheduler crate (`hbp-sched`) drives it at
//! per-access granularity.

pub mod alloc;
pub mod cache;
pub mod config;
pub mod stats;
pub mod system;

pub use alloc::BlockAllocator;
pub use cache::LruCache;
pub use config::MachineConfig;
pub use stats::{AccessOutcome, CoreStats, MachineStats, MissKind};
pub use system::MemSystem;

/// A word address in the simulated global memory.
pub type Word = u64;

/// A block identifier: `addr / B`.
pub type BlockId = u64;
