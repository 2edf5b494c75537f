//! A single private cache with true LRU replacement.
//!
//! The paper assumes an optimal replacement policy but notes "LRU suffices
//! for our algorithms" (§1). We implement exact LRU over block frames:
//! `M / B` frames, each holding one block.
//!
//! Every operation is O(1): the frames are a slab of slots threaded as a
//! doubly-linked recency list, and one hashed map finds a block's slot.
//! Nothing here iterates a map, so behaviour is fully deterministic.

use crate::hash::BlockMap;
use crate::BlockId;

/// "No slot": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// One frame: its block and its neighbours in the recency list (or, for a
/// frame freed by an invalidation, `next` threads the free list).
#[derive(Debug, Clone, Copy)]
struct Slot {
    block: BlockId,
    prev: u32,
    next: u32,
}

/// A fully-associative LRU cache of block frames.
///
/// A slab of `Slot`s linked from `head` (least recently used) to `tail`
/// (most recently used), a free list for slots an invalidation emptied,
/// and a `block → slot` map. The slab grows on demand up to `frames`
/// slots; `touch`, `insert` and `invalidate` are O(1), and a `touch` of
/// the block that is already the most recent one (a scan walking along a
/// block) does not even probe the map.
#[derive(Debug, Clone)]
pub struct LruCache {
    frames: usize,
    slots: Vec<Slot>,
    slot_of: BlockMap<u32>,
    head: u32,
    tail: u32,
    free: u32,
}

impl LruCache {
    /// A cache with capacity for `frames` blocks (`frames >= 1`).
    pub fn new(frames: usize) -> Self {
        assert!(frames >= 1, "cache must have at least one frame");
        assert!(frames < NIL as usize, "slot indices are u32");
        Self {
            frames,
            slots: Vec::new(),
            slot_of: BlockMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Number of block frames.
    pub fn capacity(&self) -> usize {
        self.frames
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockId) -> bool {
        self.slot_of.contains_key(&block)
    }

    /// Take slot `s` out of the recency list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Append slot `s` at the most-recently-used end.
    fn push_mru(&mut self, s: u32) {
        let tail = self.tail;
        let slot = &mut self.slots[s as usize];
        slot.prev = tail;
        slot.next = NIL;
        match tail {
            NIL => self.head = s,
            t => self.slots[t as usize].next = s,
        }
        self.tail = s;
    }

    /// Mark `block` as most recently used. Returns `false` if not resident.
    pub fn touch(&mut self, block: BlockId) -> bool {
        if self.tail != NIL && self.slots[self.tail as usize].block == block {
            return true;
        }
        let Some(&s) = self.slot_of.get(&block) else {
            return false;
        };
        self.unlink(s);
        self.push_mru(s);
        true
    }

    /// Bring `block` in as most recently used, evicting the LRU block if the
    /// cache is full. Returns the evicted block, if any.
    ///
    /// Panics if `block` is already resident (callers must `touch` instead).
    pub fn insert(&mut self, block: BlockId) -> Option<BlockId> {
        // The slot the block will occupy: the LRU one when full, else a
        // freed one, else a new one.
        let full = self.slot_of.len() == self.frames;
        let s = if full {
            self.head
        } else if self.free != NIL {
            self.free
        } else {
            self.slots.len() as u32
        };
        assert!(
            self.slot_of.insert(block, s).is_none(),
            "insert of resident block {block}; use touch"
        );
        let mut evicted = None;
        if full {
            let victim = self.slots[s as usize].block;
            self.slot_of.remove(&victim);
            self.unlink(s);
            evicted = Some(victim);
        } else if self.free != NIL {
            self.free = self.slots[s as usize].next;
        } else {
            self.slots.push(Slot {
                block,
                prev: NIL,
                next: NIL,
            });
        }
        self.slots[s as usize].block = block;
        self.push_mru(s);
        evicted
    }

    /// Remove `block` (a coherence invalidation). Returns whether it was
    /// resident.
    pub fn invalidate(&mut self, block: BlockId) -> bool {
        let Some(s) = self.slot_of.remove(&block) else {
            return false;
        };
        self.unlink(s);
        self.slots[s as usize].next = self.free;
        self.free = s;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert!(c.touch(1)); // order now: 2 (LRU), 1 (MRU)
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn invalidate_frees_a_frame() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.insert(3), None); // no eviction needed
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn touch_missing_is_noop() {
        let mut c = LruCache::new(1);
        assert!(!c.touch(42));
        c.insert(42);
        assert!(c.touch(42));
    }

    #[test]
    fn single_frame_cache_thrashes() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.insert(3), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "insert of resident block 7")]
    fn insert_of_the_resident_lru_block_panics() {
        // Full single-frame cache: block 7 is resident *and* the block an
        // insert would evict; it must still be refused.
        let mut c = LruCache::new(1);
        c.insert(7);
        c.insert(7);
    }

    #[test]
    fn invalidated_slots_are_reused_before_the_slab_grows() {
        let mut c = LruCache::new(3);
        for b in [1, 2, 3] {
            c.insert(b);
        }
        c.invalidate(2);
        c.invalidate(1);
        assert_eq!(c.insert(4), None);
        assert_eq!(c.insert(5), None);
        assert_eq!(c.slots.len(), 3);
        // Recency order is now 3, 4, 5.
        assert_eq!(c.insert(6), Some(3));
        assert_eq!(c.insert(7), Some(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential test against a naive `VecDeque` LRU (front = LRU,
        /// back = MRU) over mixed touch / insert / invalidate streams.
        /// Half the key space sits a stack-region stride (2^21 block ids)
        /// apart, the pattern an identity hash would collapse.
        #[test]
        fn matches_reference_model(frames in 1usize..=64, seed in 0u64..u64::MAX) {
            let mut c = LruCache::new(frames);
            let mut model: VecDeque<BlockId> = VecDeque::new();
            let keys = 2 * frames as u64 + 1; // more keys than frames: evictions
            let mut rng = proptest::TestRng::new(seed);
            for _ in 0..10_000 {
                let k = rng.below(keys);
                let block = if k & 1 == 0 { k } else { k << 21 };
                let pos = model.iter().position(|&b| b == block);
                match rng.below(3) {
                    0 | 1 => {
                        // access: touch, or insert on a miss
                        prop_assert_eq!(c.touch(block), pos.is_some());
                        if let Some(pos) = pos {
                            model.remove(pos);
                        } else {
                            let expect_evict = if model.len() == frames {
                                model.pop_front()
                            } else {
                                None
                            };
                            prop_assert_eq!(c.insert(block), expect_evict);
                        }
                        model.push_back(block);
                    }
                    _ => {
                        if let Some(pos) = pos {
                            model.remove(pos);
                        }
                        prop_assert_eq!(c.invalidate(block), pos.is_some());
                    }
                }
                prop_assert_eq!(c.len(), model.len());
                prop_assert_eq!(c.contains(block), model.contains(&block));
            }
            // The whole recency order, not only the evictions seen so far.
            let mut order = Vec::new();
            let mut s = c.head;
            while s != NIL {
                order.push(c.slots[s as usize].block);
                s = c.slots[s as usize].next;
            }
            prop_assert_eq!(order, Vec::from(model));
        }
    }
}
