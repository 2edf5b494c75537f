//! Machine parameters: `p`, `M`, `B`, an optional L2, and the cost model
//! derived from them.

use crate::{BlockId, Word};

/// Cost `b` of a cache miss (and of a block miss), in time units.
const MISS_COST: u64 = 16;

/// Optional second-level cache (paper §5.2: "Hierarchy of Caches",
/// the common `d = 2` configuration — private L1s of `M₁` words below one
/// level-2 cache of `M₂ > p·M₁` words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// L2 capacity `M₂`, in words.
    pub words: u64,
    /// The paper's "simple (but non-optimal)" scheme: partition the L2 into
    /// `p` disjoint equal segments, one per core, each behaving like a
    /// second private level (coherence invalidations apply per segment).
    /// `false` = one truly shared L2 (writes keep the shared copy valid, so
    /// invalidated L1 copies refill cheaply from L2).
    pub partitioned: bool,
}

impl L2Config {
    /// Cost of an L1 miss served by the L2: a quarter of the memory cost
    /// `b`. An L1+L2 miss pays the full [`MachineConfig::miss_cost`].
    pub fn hit_cost(&self) -> u64 {
        MISS_COST / 4
    }
}

/// Parameters of the simulated multicore (paper §1): `p` cores, each with
/// a private cache of `M` words in blocks of `B` words, optionally over an
/// L2. The costs are derived, not stored: see [`MachineConfig::miss_cost`],
/// [`MachineConfig::steal_cost`] and [`MachineConfig::probe_cost`].
///
/// The algorithms and the PWS scheduler are *oblivious* to `cache_words` and
/// `block_words`; only the machine simulation itself consults them. `p` is
/// used by the scheduler solely to know the set of cores tasks may be stolen
/// from — exactly the extent of processor knowledge the paper permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores `p`. Must satisfy `1 <= p <= 64`.
    pub p: usize,
    /// Private cache size `M`, in words.
    pub cache_words: u64,
    /// Block size `B`, in words.
    pub block_words: u64,
    /// Optional level-2 cache (paper §5.2). `None` = flat memory behind
    /// the private caches.
    pub l2: Option<L2Config>,
}

impl MachineConfig {
    /// A machine with `p` cores, cache size `m` words and block size
    /// `b_words` words.
    pub fn new(p: usize, m: u64, b_words: u64) -> Self {
        assert!((1..=64).contains(&p), "p must be in 1..=64 (got {p})");
        assert!(b_words >= 1, "block size must be >= 1");
        assert!(m >= b_words, "cache must hold at least one block");
        Self {
            p,
            cache_words: m,
            block_words: b_words,
            l2: None,
        }
    }

    /// Add a level-2 cache of `m2` words (paper §5.2). `partitioned`
    /// selects the per-core-segment scheme.
    pub fn with_l2(mut self, m2: u64, partitioned: bool) -> Self {
        assert!(
            m2 >= self.cache_words * self.p as u64,
            "M2 must exceed p*M1"
        );
        self.l2 = Some(L2Config {
            words: m2,
            partitioned,
        });
        self
    }

    /// The default machine used across the experiment suite:
    /// `p = 8`, `M = 2^14` words, `B = 32` words (a "standard tall cache",
    /// `M ≥ B²`).
    pub fn default_machine() -> Self {
        Self::new(8, 1 << 14, 32)
    }

    /// Cost `b` of a cache miss (and of a block miss): 16 time units.
    pub fn miss_cost(&self) -> u64 {
        MISS_COST
    }

    /// Cost `sP` charged to a thief for a successful steal:
    /// `b·⌈log₂ max(p, 2)⌉`, the paper's `Θ(b log p)` for its distributed
    /// PWS implementation (§4.7). At most 96, at `p = 64`.
    pub fn steal_cost(&self) -> u64 {
        MISS_COST * (usize::BITS - (self.p.max(2) - 1).leading_zeros()) as u64
    }

    /// Cost charged for an unsuccessful steal attempt (a probe): 1.
    pub fn probe_cost(&self) -> u64 {
        1
    }

    /// Number of block frames per private cache: `M / B`.
    pub fn frames(&self) -> usize {
        ((self.cache_words / self.block_words).max(1)) as usize
    }

    /// The block containing word address `addr`.
    #[inline]
    pub fn block_of(&self, addr: Word) -> BlockId {
        addr / self.block_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_block_math() {
        let c = MachineConfig::new(4, 1024, 32);
        assert_eq!(c.frames(), 32);
        assert_eq!(c.block_of(0), 0);
        assert_eq!(c.block_of(31), 0);
        assert_eq!(c.block_of(32), 1);
    }

    #[test]
    fn steal_cost_scales_with_log_p() {
        let c2 = MachineConfig::new(2, 1024, 32);
        let c16 = MachineConfig::new(16, 1024, 32);
        assert_eq!(c2.steal_cost(), c2.miss_cost()); // ceil(log2 2) = 1
        assert_eq!(c16.steal_cost(), c16.miss_cost() * 4);
    }

    #[test]
    #[should_panic]
    fn rejects_too_many_cores() {
        MachineConfig::new(65, 1024, 32);
    }

    #[test]
    #[should_panic]
    fn rejects_cache_smaller_than_block() {
        MachineConfig::new(2, 16, 32);
    }
}
