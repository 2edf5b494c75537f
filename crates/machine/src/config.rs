//! Machine parameters: `p`, `M`, `B`, and cost model.

use crate::{BlockId, Word};

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
    /// Cost of an L1 miss served by the L2 (must be < `miss_cost`); an
    /// L1+L2 miss pays the full memory cost `miss_cost`. Bounded like
    /// [`MachineConfig::miss_cost`].
    pub hit_cost: u64,
}

/// Parameters of the simulated multicore (paper §1).
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
    /// Cost `b` of a cache miss (and of a block miss), in time units.
    ///
    /// The scheduler's event calendar is a ring with one bucket per time
    /// unit, sized to the largest single charge — `1 + miss_cost`,
    /// `1 + l2.hit_cost` or `steal_cost` — so each of the three must stay
    /// below 4096 (`hbp_sched::clock::EventQueue::MAX_HORIZON`; the
    /// constructors here yield at most 96). A larger cost panics when a
    /// run starts.
    pub miss_cost: u64,
    /// Cost `sP` charged to a thief for a successful steal. The paper's
    /// distributed PWS implementation gives `sP = Θ(b log p)` (§4.7).
    /// Bounded like `miss_cost`.
    pub steal_cost: u64,
    /// Cost charged for an unsuccessful steal attempt (a probe).
    pub probe_cost: u64,
    /// Optional level-2 cache (paper §5.2). `None` = flat memory behind
    /// the private caches.
    pub l2: Option<L2Config>,
    /// Words reserved per kernel stack region (paper §3.3): every stolen
    /// task's frames live in their own region of this many words. Frames
    /// of one kernel must fit; must be a block-aligned multiple of
    /// `block_words` so regions never share a block by construction.
    /// Defaults to [`MachineConfig::DEFAULT_REGION_WORDS`]; shrink it via
    /// [`MachineConfig::with_region_words`] for extreme-geometry tests.
    pub region_words: u64,
}

impl MachineConfig {
    /// Default words per kernel stack region (`2^26`, the value the
    /// engine hard-coded before it became configurable).
    pub const DEFAULT_REGION_WORDS: u64 = 1 << 26;

    /// A machine with `p` cores, cache size `m` words, block size `b_words`
    /// words, and the paper's default cost model: `b = 16`,
    /// `sP = b·⌈log₂ p⌉`, probe = 1.
    ///
    /// The default stack-region size adapts to the block size (rounded up
    /// to the next block multiple), so any block size the constructor
    /// accepted before regions became configurable remains accepted.
    pub fn new(p: usize, m: u64, b_words: u64) -> Self {
        assert!((1..=64).contains(&p), "p must be in 1..=64 (got {p})");
        assert!(b_words >= 1, "block size must be >= 1");
        assert!(m >= b_words, "cache must hold at least one block");
        let miss_cost = 16;
        let cfg = Self {
            p,
            cache_words: m,
            block_words: b_words,
            miss_cost,
            steal_cost: miss_cost * (usize::BITS - (p.max(2) - 1).leading_zeros()) as u64,
            probe_cost: 1,
            l2: None,
            region_words: Self::DEFAULT_REGION_WORDS.div_ceil(b_words) * b_words,
        };
        cfg.validate_regions();
        cfg
    }

    /// Replace the per-kernel stack-region size (words). An explicit size
    /// must be exact: panics unless it holds at least one block and is
    /// block-aligned.
    pub fn with_region_words(mut self, words: u64) -> Self {
        self.region_words = words;
        self.validate_regions();
        self
    }

    /// Region geometry must agree with cache geometry: a region holds at
    /// least one block, and region boundaries fall on block boundaries
    /// (otherwise two kernels' stacks could share a block structurally,
    /// which the §3.3 model rules out).
    fn validate_regions(&self) {
        assert!(
            self.region_words >= self.block_words,
            "region_words ({}) must hold at least one block ({} words)",
            self.region_words,
            self.block_words
        );
        assert_eq!(
            self.region_words % self.block_words,
            0,
            "region_words ({}) must be a multiple of block_words ({})",
            self.region_words,
            self.block_words
        );
    }

    /// Add a level-2 cache of `m2` words (paper §5.2). `partitioned`
    /// selects the per-core-segment scheme; an L2 hit costs a quarter of a
    /// memory access.
    pub fn with_l2(mut self, m2: u64, partitioned: bool) -> Self {
        assert!(
            m2 >= self.cache_words * self.p as u64,
            "M2 must exceed p*M1"
        );
        self.l2 = Some(L2Config {
            words: m2,
            partitioned,
            hit_cost: (self.miss_cost / 4).max(1),
        });
        self
    }

    /// The default machine used across the experiment suite:
    /// `p = 8`, `M = 2^14` words, `B = 32` words (a "standard tall cache",
    /// `M ≥ B²`).
    pub fn default_machine() -> Self {
        Self::new(8, 1 << 14, 32)
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

    /// Whether the cache is *tall*: `M ≥ B²` (§3.2, Lemma 4.4(iii)).
    pub fn is_tall(&self) -> bool {
        self.cache_words >= self.block_words * self.block_words
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
        assert!(c.is_tall());
    }

    #[test]
    fn steal_cost_scales_with_log_p() {
        let c2 = MachineConfig::new(2, 1024, 32);
        let c16 = MachineConfig::new(16, 1024, 32);
        assert_eq!(c2.steal_cost, c2.miss_cost); // ceil(log2 2) = 1
        assert_eq!(c16.steal_cost, c16.miss_cost * 4);
    }

    #[test]
    fn not_tall_when_b_large() {
        let c = MachineConfig::new(2, 256, 32);
        assert!(!c.is_tall()); // 256 < 32^2
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

    #[test]
    fn region_words_defaults_and_shrinks() {
        let c = MachineConfig::new(4, 1024, 32);
        assert_eq!(c.region_words, MachineConfig::DEFAULT_REGION_WORDS);
        let small = c.with_region_words(1 << 12);
        assert_eq!(small.region_words, 1 << 12);
    }

    #[test]
    fn non_power_of_two_blocks_get_an_aligned_default_region() {
        // The constructor accepted any block size before regions became
        // configurable; it must keep doing so, by rounding the default
        // region up to the next block multiple.
        let c = MachineConfig::new(4, 1024, 48);
        assert_eq!(c.region_words % 48, 0);
        assert!(c.region_words >= MachineConfig::DEFAULT_REGION_WORDS);
    }

    #[test]
    #[should_panic(expected = "multiple of block_words")]
    fn rejects_unaligned_region() {
        MachineConfig::new(2, 1024, 32).with_region_words(48);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_region_smaller_than_block() {
        MachineConfig::new(2, 1024, 32).with_region_words(16);
    }
}
