//! Block-aligned bump allocation for the simulated global memory.
//!
//! The paper's system property (§2.2): "Whenever a core requests space it is
//! allocated in block sized units; naturally, the allocations to different
//! cores are disjoint and entail no block sharing." We enforce the same for
//! all global arrays: every allocation starts on a block boundary and is
//! rounded up to whole blocks, so distinct arrays never share a block.

use crate::Word;

/// A bump allocator over the simulated word-address space.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    block_words: u64,
    next: Word,
}

impl BlockAllocator {
    /// An allocator for block size `block_words`, starting at address 0.
    pub fn new(block_words: u64) -> Self {
        assert!(block_words >= 1);
        Self {
            block_words,
            next: 0,
        }
    }

    fn round_up(&self, x: Word) -> Word {
        x.div_ceil(self.block_words) * self.block_words
    }

    /// Allocate `words` words, block-aligned, rounded up to whole blocks.
    /// Zero-word requests still consume one block (they remain disjoint).
    pub fn alloc(&mut self, words: u64) -> Word {
        let base = self.next;
        let len = self.round_up(words.max(1));
        self.next = base + len;
        base
    }

    /// First unallocated address.
    pub fn watermark(&self) -> Word {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_block_aligned_and_disjoint() {
        let mut a = BlockAllocator::new(32);
        let x = a.alloc(10);
        let y = a.alloc(33);
        let z = a.alloc(1);
        assert_eq!(x % 32, 0);
        assert_eq!(y % 32, 0);
        assert_eq!(z % 32, 0);
        assert_eq!(x, 0);
        assert_eq!(y, 32);
        assert_eq!(z, 96); // 33 words -> 2 blocks
        assert_eq!(a.watermark(), 128);
    }

    #[test]
    fn zero_sized_allocations_stay_disjoint() {
        let mut a = BlockAllocator::new(8);
        let x = a.alloc(0);
        let y = a.alloc(0);
        assert_ne!(x / 8, y / 8);
    }
}
