//! Bulk-synchronous mapping (paper §5.3).

use crate::sim::Engine;

use super::pws::priority_sweep;
use super::StealPolicy;

/// PWS restricted to the top of the recursion: only tasks of size at
/// least `root_size / 2^prefix_levels` may be stolen — each collection's
/// recursion is unravelled for `prefix_levels` levels, those subtrees are
/// distributed, and everything below runs without further stealing.
#[derive(Debug, Clone, Copy)]
pub struct Bsp {
    prefix_levels: u32,
}

impl Bsp {
    /// Open the top `prefix_levels` recursion levels for stealing (the
    /// paper's `log p` unravelling; pass `⌈log₂p⌉ + 1`).
    pub fn new(prefix_levels: u32) -> Self {
        Self { prefix_levels }
    }
}

impl StealPolicy for Bsp {
    fn sweep(&mut self, eng: &mut Engine<'_>, now: u64) {
        // §5.3: only subtrees from the top `prefix_levels` levels of
        // unravelling (size ≥ root/2^levels) may move.
        let floor = (eng.root_size() >> self.prefix_levels.min(63)).max(1);
        priority_sweep(eng, now, floor);
    }
}
