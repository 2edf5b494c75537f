//! The hasher behind every `BlockId`-keyed map of the simulated machine.
//!
//! Block ids come from the simulator, not from outside the program, so
//! SipHash's collision resistance buys nothing here and costs more than
//! the rest of a simulated cache hit. One multiplication is enough — but
//! not an identity hash: stack-region block ids are multiples of 2^21
//! apart (`region_words / B`), so their low bits are all equal, and a
//! product's low bits depend only on the factor's low bits. `std`'s table
//! takes the bucket index from the low bits of the hash and the control
//! tag from the top seven, so the high half of the product — where every
//! input bit has been mixed in — is folded onto the low half.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::BlockId;

/// A map keyed by block id (see the module docs for the hash).
pub(crate) type BlockMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockHasher>>;

/// Multiplicative (Fibonacci) hash of one `u64`, high half folded down.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("block ids hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Keys a stack-region stride apart must not share their low hash
    /// bits (the bucket index), nor their top seven (the control tag).
    #[test]
    fn region_strided_keys_spread_over_buckets_and_tags() {
        let build = BuildHasherDefault::<BlockHasher>::default();
        let mut buckets = std::collections::BTreeSet::new();
        let mut tags = std::collections::BTreeSet::new();
        for region in 0..4096u64 {
            let h = build.hash_one(region << 21);
            buckets.insert(h & 0xfff);
            tags.insert(h >> 57);
        }
        assert!(buckets.len() > 2000, "{} of 4096 buckets", buckets.len());
        assert_eq!(tags.len(), 128);
    }
}
