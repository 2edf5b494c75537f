//! The multicore memory system: p private caches + write-invalidate
//! coherence directory + miss classification.
//!
//! One access costs one index into the block directory and, unless the
//! block is already the core's most recent one, one probe of that core's
//! LRU; both are O(1). The directory is a vector indexed by block id that
//! grows on first touch: the simulated address space is dense (the heap,
//! then the stack regions end to end), so it is as long as the highest
//! block touched. The directory entry's holder mask is the authority on
//! residency — it is kept in step with the caches, and debug builds
//! check it.

use crate::{AccessOutcome, CoreStats, LruCache, MachineConfig, MachineStats, MissKind, Word};

/// Per-block coherence/bookkeeping state, packed into core bitmasks
/// (`p <= 64`).
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Cores currently holding a valid copy.
    holders: u64,
    /// Cores whose last loss of the block was a coherence invalidation
    /// (so their next miss on it is a *block miss*).
    invalidated: u64,
    /// Cores that have ever held the block (cold- vs capacity-miss split).
    ever: u64,
}

/// The simulated memory system (paper §1–§2.2), optionally with a
/// second-level cache (paper §5.2).
///
/// Drive it with [`MemSystem::access`] (or [`MemSystem::access_costed`] to
/// get the time cost); read results from [`MemSystem::stats`]. The
/// directory and the caches are indexed by block id, so memory grows with
/// the highest address accessed (24 bytes per block for the directory,
/// and 4 per block for each cache, up to the highest block it has held):
/// keep addresses dense.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MachineConfig,
    caches: Vec<LruCache>,
    /// One cache if the L2 is shared, `p` segment caches if partitioned.
    l2: Vec<LruCache>,
    /// `blocks[block]`: the block's state; blocks past the end were never
    /// touched.
    blocks: Vec<BlockState>,
    stats: Vec<CoreStats>,
}

impl MemSystem {
    /// A fresh machine with all caches empty.
    pub fn new(cfg: MachineConfig) -> Self {
        let frames = cfg.frames();
        let l2 = match cfg.l2 {
            None => Vec::new(),
            Some(l2c) if l2c.partitioned => {
                let seg = ((l2c.words / cfg.p as u64) / cfg.block_words).max(1) as usize;
                (0..cfg.p).map(|_| LruCache::new(seg)).collect()
            }
            Some(l2c) => vec![LruCache::new((l2c.words / cfg.block_words).max(1) as usize)],
        };
        Self {
            cfg,
            caches: (0..cfg.p).map(|_| LruCache::new(frames)).collect(),
            l2,
            blocks: Vec::new(),
            stats: vec![CoreStats::default(); cfg.p],
        }
    }

    /// Index of `core`'s L2 cache (its segment, or the single shared one).
    fn l2_idx(&self, core: usize) -> usize {
        match self.cfg.l2 {
            Some(l2c) if l2c.partitioned => core,
            _ => 0,
        }
    }

    /// Perform one access by `core` to word `addr`. Returns the outcome;
    /// callers that need the time cost should use
    /// [`MemSystem::access_costed`] (the cost depends on the L2).
    pub fn access(&mut self, core: usize, addr: Word, write: bool) -> AccessOutcome {
        self.access_costed(core, addr, write).0
    }

    /// Perform one access and return `(outcome, time cost)`:
    /// hit = 1; L1 miss served by the L2 = `1 + L2Config::hit_cost()`;
    /// miss to memory = `1 + b`.
    ///
    /// The block directory is read once: the entry's `holders` bit says
    /// whether this is a hit (the LRU is not asked), and the miss
    /// classification and the write's ownership change are applied in
    /// the same borrow. Only an eviction indexes it again, for the block
    /// that left.
    pub fn access_costed(&mut self, core: usize, addr: Word, write: bool) -> (AccessOutcome, u64) {
        debug_assert!(core < self.cfg.p);
        let block = self.cfg.block_of(addr);
        let bit = 1u64 << core;
        let i = block as usize;
        if i >= self.blocks.len() {
            self.blocks.resize(i + 1, BlockState::default());
        }
        let st = &mut self.blocks[i];
        let miss = if st.holders & bit != 0 {
            None
        } else {
            let kind = if st.invalidated & bit != 0 {
                st.invalidated &= !bit;
                MissKind::Coherence
            } else if st.ever & bit != 0 {
                MissKind::Capacity
            } else {
                MissKind::Cold
            };
            st.ever |= bit;
            st.holders |= bit;
            Some(kind)
        };
        // Write-invalidate coherence: every other holder loses its copy.
        let others = if write { st.holders & !bit } else { 0 };
        if others != 0 {
            st.holders = bit;
            st.invalidated |= others;
        }

        let (outcome, cost) = match miss {
            None => {
                let resident = self.caches[core].touch(block);
                debug_assert!(resident, "holder bitmask out of sync");
                self.stats[core].hits += 1;
                (AccessOutcome::Hit, 1)
            }
            Some(kind) => {
                match kind {
                    MissKind::Cold => self.stats[core].cold += 1,
                    MissKind::Capacity => self.stats[core].capacity += 1,
                    MissKind::Coherence => self.stats[core].coherence += 1,
                }
                // L2 lookup (non-inclusive: an L2 eviction leaves L1s alone).
                let cost = match self.cfg.l2 {
                    None => 1 + self.cfg.miss_cost(),
                    Some(l2c) => {
                        let idx = self.l2_idx(core);
                        if self.l2[idx].touch(block) {
                            self.stats[core].l2_hits += 1;
                            1 + l2c.hit_cost()
                        } else {
                            self.stats[core].l2_misses += 1;
                            self.l2[idx].insert(block);
                            1 + self.cfg.miss_cost()
                        }
                    }
                };
                if let Some(evicted) = self.caches[core].insert(block) {
                    self.stats[core].evictions += 1;
                    // Silent capacity eviction: drop from holders; the next
                    // miss on it by this core is a capacity miss (not
                    // coherence).
                    let est = &mut self.blocks[evicted as usize];
                    est.holders &= !bit;
                    est.invalidated &= !bit;
                }
                (AccessOutcome::Miss(kind), cost)
            }
        };

        if others != 0 {
            let partitioned = matches!(self.cfg.l2, Some(l2c) if l2c.partitioned);
            let mut mask = others;
            while mask != 0 {
                let victim = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let removed = self.caches[victim].invalidate(block);
                debug_assert!(removed, "holder bitmask out of sync");
                // Partitioned L2 segments act as private second levels:
                // the victim's segment copy dies too. A shared L2 keeps
                // its (written-through) copy valid.
                if partitioned {
                    self.l2[victim].invalidate(block);
                }
                self.stats[victim].invalidations_received += 1;
            }
            self.stats[core].invalidations_sent += others.count_ones() as u64;
        }
        (outcome, cost)
    }

    /// Snapshot of all counters. Every miss fetches its block into the
    /// missing core's cache, so `block_transfers` is the miss total.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            per_core: self.stats.clone(),
            block_transfers: self.stats.iter().map(CoreStats::misses).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockId;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn machine(p: usize, m: u64, b: u64) -> MemSystem {
        MemSystem::new(MachineConfig::new(p, m, b))
    }

    #[test]
    fn cold_then_hit() {
        let mut ms = machine(1, 1024, 32);
        assert_eq!(ms.access(0, 0, false), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(ms.access(0, 1, false), AccessOutcome::Hit); // same block
        assert_eq!(ms.access(0, 31, false), AccessOutcome::Hit);
        assert_eq!(ms.access(0, 32, false), AccessOutcome::Miss(MissKind::Cold));
    }

    #[test]
    fn capacity_miss_after_eviction() {
        // 2 frames: touching 3 blocks evicts the first.
        let mut ms = machine(1, 64, 32);
        ms.access(0, 0, false);
        ms.access(0, 32, false);
        ms.access(0, 64, false); // evicts block 0
        assert_eq!(
            ms.access(0, 0, false),
            AccessOutcome::Miss(MissKind::Capacity)
        );
        let t = ms.stats().total();
        assert_eq!(t.cold, 3);
        assert_eq!(t.capacity, 1);
        assert_eq!(t.coherence, 0);
        assert_eq!(t.evictions, 2);
    }

    #[test]
    fn false_sharing_ping_pong() {
        // Two cores writing into the same block alternate coherence misses —
        // the motivating Θ(B) ping-pong of §1.
        let mut ms = machine(2, 1024, 32);
        assert!(ms.access(0, 0, true).is_miss()); // cold
        assert!(ms.access(1, 1, true).is_miss()); // cold, invalidates core 0
        for i in 0..10u64 {
            let o0 = ms.access(0, 2 + (i % 8), true);
            assert_eq!(o0, AccessOutcome::Miss(MissKind::Coherence));
            let o1 = ms.access(1, 10 + (i % 8), true);
            assert_eq!(o1, AccessOutcome::Miss(MissKind::Coherence));
        }
        let t = ms.stats().total();
        assert_eq!(t.coherence, 20);
        assert_eq!(t.cold, 2);
    }

    #[test]
    fn read_sharing_is_free() {
        // Many cores reading one block: one cold miss each, no coherence.
        let mut ms = machine(8, 1024, 32);
        for c in 0..8 {
            assert_eq!(ms.access(c, 5, false), AccessOutcome::Miss(MissKind::Cold));
            assert_eq!(ms.access(c, 6, false), AccessOutcome::Hit);
        }
        assert_eq!(ms.stats().total().coherence, 0);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut ms = machine(3, 1024, 32);
        ms.access(0, 0, false);
        ms.access(1, 0, false);
        ms.access(2, 0, true); // invalidates cores 0 and 1
        assert_eq!(ms.stats().per_core[2].invalidations_sent, 2);
        assert!(ms.access(0, 0, false).is_block_miss());
        assert!(ms.access(1, 0, false).is_block_miss());
        // core 2 still holds it? No: cores 0/1 re-reading did not invalidate.
        assert_eq!(ms.access(2, 0, false), AccessOutcome::Hit);
    }

    #[test]
    fn eviction_then_remote_write_is_capacity_not_coherence() {
        // If the core lost the block to capacity before the remote write,
        // its re-miss is a capacity miss, not a block miss.
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, false); // block 0
        ms.access(0, 32, false);
        ms.access(0, 64, false); // evicts block 0 from core 0
        ms.access(1, 0, true); // core 1 writes block 0; core 0 has no copy
        assert_eq!(
            ms.access(0, 0, false),
            AccessOutcome::Miss(MissKind::Capacity)
        );
    }

    #[test]
    fn invalidated_block_does_not_occupy_frame() {
        // After invalidation the frame is free: inserting a new block must
        // not evict anything.
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, false);
        ms.access(0, 32, false); // cache of core 0 full
        ms.access(1, 0, true); // invalidates block 0 in core 0
        ms.access(0, 64, false); // should use the freed frame
        assert_eq!(ms.stats().per_core[0].evictions, 0);
        // block 32 must still be resident:
        assert_eq!(ms.access(0, 33, false), AccessOutcome::Hit);
    }

    #[test]
    fn shared_l2_serves_invalidated_refills_cheaply() {
        // Shared L2: after a coherence invalidation, the victim refills
        // from L2 at the cheap cost (1 + b), not the memory cost.
        let cfg = MachineConfig::new(2, 64, 32).with_l2(1 << 10, false);
        let mut ms = MemSystem::new(cfg);
        let (_, c0) = ms.access_costed(0, 0, false); // L1+L2 miss -> memory
        assert_eq!(c0, 1 + cfg.miss_cost());
        ms.access(1, 0, true); // invalidates core 0's L1 copy
        let (o, c1) = ms.access_costed(0, 0, false); // block miss, L2 hit
        assert!(o.is_block_miss());
        assert_eq!(c1, 1 + cfg.l2.unwrap().hit_cost());
        assert_eq!(ms.stats().per_core[0].l2_hits, 1);
    }

    #[test]
    fn partitioned_l2_segments_are_invalidated_too() {
        let cfg = MachineConfig::new(2, 64, 32).with_l2(1 << 10, true);
        let mut ms = MemSystem::new(cfg);
        ms.access(0, 0, false);
        ms.access(1, 0, true); // kills core 0's L1 AND its L2 segment copy
        let (o, c) = ms.access_costed(0, 0, false);
        assert!(o.is_block_miss());
        assert_eq!(c, 1 + cfg.miss_cost()); // segment copy was invalidated
        assert_eq!(ms.stats().per_core[0].l2_misses, 2);
    }

    #[test]
    fn l2_captures_capacity_spill() {
        // Working set bigger than L1 but within L2: repeated sweeps hit L2.
        let cfg = MachineConfig::new(1, 64, 32).with_l2(1 << 10, false);
        let mut ms = MemSystem::new(cfg);
        for pass in 0..2 {
            for blk in 0..4u64 {
                let (_, cost) = ms.access_costed(0, blk * 32, false);
                if pass == 1 {
                    assert_eq!(cost, 1 + cfg.l2.unwrap().hit_cost(), "second pass hits L2");
                }
            }
        }
        let s = ms.stats().per_core[0];
        assert_eq!(s.l2_misses, 4);
        assert_eq!(s.l2_hits, 4);
    }

    #[test]
    fn flat_machine_costs_unchanged() {
        let cfg = MachineConfig::new(1, 64, 32);
        let mut ms = MemSystem::new(cfg);
        let (_, miss) = ms.access_costed(0, 0, false);
        let (_, hit) = ms.access_costed(0, 1, false);
        assert_eq!(miss, 1 + cfg.miss_cost());
        assert_eq!(hit, 1);
    }

    #[test]
    fn transfers_count_every_fetch() {
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, false); // 1
        ms.access(1, 0, false); // 2
        ms.access(1, 0, true); // hit, no transfer, invalidates core 0
        ms.access(0, 0, false); // 3 (block miss)
        assert_eq!(ms.stats().block_transfers, 3);
    }

    /// The memory system written the slow, obvious way: each cache a
    /// `Vec` in recency order searched linearly (front = LRU), the
    /// directory a `BTreeMap` of per-block core sets. Residency is read
    /// off the caches themselves, never off a holder mask.
    struct NaiveSystem {
        cfg: MachineConfig,
        l1: Vec<Vec<BlockId>>,
        l2: Vec<Vec<BlockId>>,
        l2_frames: usize,
        /// block -> (cores whose copy was invalidated, cores that ever
        /// held it, fetches)
        dir: BTreeMap<BlockId, (BTreeSet<usize>, BTreeSet<usize>, u64)>,
        stats: Vec<CoreStats>,
    }

    impl NaiveSystem {
        fn new(cfg: MachineConfig) -> Self {
            let (l2_caches, l2_frames) = match cfg.l2 {
                None => (0, 0),
                Some(c) if c.partitioned => (cfg.p, c.words / cfg.p as u64 / cfg.block_words),
                Some(c) => (1, c.words / cfg.block_words),
            };
            Self {
                cfg,
                l1: vec![Vec::new(); cfg.p],
                l2: vec![Vec::new(); l2_caches],
                l2_frames: l2_frames.max(1) as usize,
                dir: BTreeMap::new(),
                stats: vec![CoreStats::default(); cfg.p],
            }
        }

        /// Make `block` the most recent entry of `cache`; `false` if absent.
        fn touch(cache: &mut Vec<BlockId>, block: BlockId) -> bool {
            let Some(pos) = cache.iter().position(|&b| b == block) else {
                return false;
            };
            cache.remove(pos);
            cache.push(block);
            true
        }

        fn access(&mut self, core: usize, addr: Word, write: bool) -> (AccessOutcome, u64) {
            let block = addr / self.cfg.block_words;
            let (invalidated, ever, fetches) = self.dir.entry(block).or_default();
            let (outcome, cost) = if Self::touch(&mut self.l1[core], block) {
                self.stats[core].hits += 1;
                (AccessOutcome::Hit, 1)
            } else {
                let kind = if invalidated.remove(&core) {
                    self.stats[core].coherence += 1;
                    MissKind::Coherence
                } else if ever.contains(&core) {
                    self.stats[core].capacity += 1;
                    MissKind::Capacity
                } else {
                    self.stats[core].cold += 1;
                    MissKind::Cold
                };
                ever.insert(core);
                *fetches += 1;
                let cost = match self.cfg.l2 {
                    None => 1 + self.cfg.miss_cost(),
                    Some(l2c) => {
                        let l2 = &mut self.l2[if l2c.partitioned { core } else { 0 }];
                        if Self::touch(l2, block) {
                            self.stats[core].l2_hits += 1;
                            1 + l2c.hit_cost()
                        } else {
                            self.stats[core].l2_misses += 1;
                            if l2.len() == self.l2_frames {
                                l2.remove(0);
                            }
                            l2.push(block);
                            1 + self.cfg.miss_cost()
                        }
                    }
                };
                if self.l1[core].len() == self.cfg.frames() {
                    self.l1[core].remove(0);
                    self.stats[core].evictions += 1;
                }
                self.l1[core].push(block);
                (AccessOutcome::Miss(kind), cost)
            };
            if write {
                let partitioned = self.cfg.l2.is_some_and(|c| c.partitioned);
                for victim in (0..self.cfg.p).filter(|&v| v != core) {
                    let Some(pos) = self.l1[victim].iter().position(|&b| b == block) else {
                        continue;
                    };
                    self.l1[victim].remove(pos);
                    if partitioned {
                        self.l2[victim].retain(|&b| b != block);
                    }
                    self.dir
                        .get_mut(&block)
                        .expect("entry made above")
                        .0
                        .insert(victim);
                    self.stats[victim].invalidations_received += 1;
                    self.stats[core].invalidations_sent += 1;
                }
            }
            (outcome, cost)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// `MemSystem` against `NaiveSystem` on random multi-core
        /// read/write streams: outcome, cost and every core's counters
        /// agree after every access, and the block-transfer total at the
        /// end.
        /// Four frames per core, so evictions are constant; half the
        /// accesses go to six hot blocks (sharing, invalidations), the
        /// rest to a range wider than all caches together, part of it
        /// spread far enough apart that the directory grows in jumps.
        #[test]
        fn matches_naive_model(seed in 0u64..u64::MAX) {
            const B: u64 = 4;
            for p in [1usize, 2, 8, 64] {
                let flat = MachineConfig::new(p, 4 * B, B);
                let l2_words = 4 * B * p as u64;
                for cfg in [flat, flat.with_l2(l2_words, false), flat.with_l2(l2_words, true)] {
                    let mut ms = MemSystem::new(cfg);
                    let mut model = NaiveSystem::new(cfg);
                    let mut rng = proptest::TestRng::new(seed ^ p as u64);
                    for i in 0..3000 {
                        let core = rng.below(p as u64) as usize;
                        let block = match rng.below(4) {
                            0 | 1 => rng.below(6),
                            2 => rng.below(6 * p as u64 + 6),
                            _ => rng.below(p as u64 + 2) << 10,
                        };
                        let addr = block * B + rng.below(B);
                        let write = rng.below(3) == 0;
                        prop_assert_eq!(
                            ms.access_costed(core, addr, write),
                            model.access(core, addr, write),
                            "access {} of {:?}: core {} addr {} write {}", i, cfg, core, addr, write
                        );
                        prop_assert_eq!(&ms.stats, &model.stats, "access {} of {:?}", i, cfg);
                    }
                    let fetched: u64 = model.dir.values().map(|d| d.2).sum();
                    prop_assert_eq!(ms.stats().block_transfers, fetched);
                }
            }
        }
    }
}
