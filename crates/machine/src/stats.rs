//! Accounting: hit/miss outcomes, per-core and aggregate counters.

/// Why an access missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// First access to the block by this core.
    Cold,
    /// The core held the block before but evicted it for capacity.
    Capacity,
    /// The core's copy was invalidated by another core's write — the paper's
    /// **block miss** (false sharing and its generalizations, §2.2).
    Coherence,
}

/// Outcome of a single access, with its time cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// In-cache. Cost 1.
    Hit,
    /// Missed for the given reason. Cost `1 + b`.
    Miss(MissKind),
}

impl AccessOutcome {
    /// Whether this access missed.
    pub fn is_miss(&self) -> bool {
        matches!(self, AccessOutcome::Miss(_))
    }

    /// Whether this is a coherence (block) miss.
    pub fn is_block_miss(&self) -> bool {
        matches!(self, AccessOutcome::Miss(MissKind::Coherence))
    }
}

/// Counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Accesses that hit in the private cache.
    pub hits: u64,
    /// Cold misses.
    pub cold: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Coherence misses — the paper's block misses.
    pub coherence: u64,
    /// Invalidations this core's writes sent to other caches.
    pub invalidations_sent: u64,
    /// Copies of blocks this core lost to other cores' writes.
    pub invalidations_received: u64,
    /// Capacity evictions performed by this core's cache.
    pub evictions: u64,
    /// L1 misses served by the level-2 cache (0 when no L2, paper §5.2).
    pub l2_hits: u64,
    /// L1 misses that also missed in L2 and went to memory.
    pub l2_misses: u64,
}

impl CoreStats {
    /// Total misses of any kind.
    pub fn misses(&self) -> u64 {
        self.cold + self.capacity + self.coherence
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Cache misses *excluding* coherence misses — the quantity compared
    /// against the sequential cache complexity `Q(n, M, B)` in the paper's
    /// cache-miss-excess lemmas.
    pub fn plain_misses(&self) -> u64 {
        self.cold + self.capacity
    }

    /// Accumulate another core's counters into this one.
    pub fn merge(&mut self, other: &CoreStats) {
        self.hits += other.hits;
        self.cold += other.cold;
        self.capacity += other.capacity;
        self.coherence += other.coherence;
        self.invalidations_sent += other.invalidations_sent;
        self.invalidations_received += other.invalidations_received;
        self.evictions += other.evictions;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
    }
}

/// Aggregate machine statistics.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    /// Per-core counters.
    pub per_core: Vec<CoreStats>,
    /// Total block transfers (every fetch of a block into some cache):
    /// the basis of the paper's *block delay* (Def 2.2).
    pub block_transfers: u64,
}

impl MachineStats {
    /// Sum of all cores' counters.
    pub fn total(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.per_core {
            t.merge(c);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = MachineStats {
            per_core: vec![CoreStats::default(); 2],
            block_transfers: 0,
        };
        s.per_core[0].hits = 3;
        s.per_core[0].cold = 1;
        s.per_core[1].coherence = 2;
        let t = s.total();
        assert_eq!(t.hits, 3);
        assert_eq!(t.misses(), 3);
        assert_eq!(t.plain_misses(), 1);
        assert_eq!(t.accesses(), 6);
    }

    #[test]
    fn outcome_classification() {
        assert!(AccessOutcome::Miss(MissKind::Coherence).is_block_miss());
        assert!(!AccessOutcome::Miss(MissKind::Cold).is_block_miss());
        assert!(!AccessOutcome::Hit.is_miss());
    }
}
