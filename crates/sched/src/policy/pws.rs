//! Deterministic Priority Work Stealing (paper §4, §4.7).

use crate::sim::Engine;

use super::StealPolicy;

/// The paper's PWS scheduler: steals proceed in rounds of decreasing task
/// priority; idle cores are served in index order (the deterministic rank
/// matching of the distributed implementation, §4.7); busy cores with
/// empty deques publish a flagged *pending priority* upper bound that
/// makes thieves wait instead of stealing deeper tasks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pws;

impl StealPolicy for Pws {
    fn sweep(&mut self, eng: &mut Engine<'_>, now: u64) {
        priority_sweep(eng, now, 0);
    }
}

/// The round's view of the victims: the best stealable deque head as
/// `(priority, victim)`, and the highest pending-priority flag — maxima
/// over deque heads and busy cores, restricted to the stealable sizes
/// (`min_size > 1` under §5.3).
fn scan_victims(eng: &Engine<'_>, min_size: u64) -> (Option<(u32, usize)>, Option<u32>) {
    let mut best_head: Option<(u32, usize)> = None;
    for v in 0..eng.p() {
        if let (Some(pri), Some(size)) = (eng.head_pri(v), eng.head_size(v)) {
            if size >= min_size && best_head.is_none_or(|(bp, _)| pri > bp) {
                best_head = Some((pri, v));
            }
        }
    }
    let max_pending = (0..eng.p())
        .filter(|&v| {
            // a busy core can still generate stealable tasks only
            // while its current node is big enough to fork them
            eng.running_node_size(v)
                .is_some_and(|size| size / 2 >= min_size)
        })
        .filter_map(|v| eng.pending_pri(v))
        .max();
    (best_head, max_pending)
}

/// One PWS priority round restricted to tasks of size at least
/// `min_size` (`0` = unrestricted PWS; [`super::Bsp`] passes the §5.3
/// size floor).
pub(crate) fn priority_sweep(eng: &mut Engine<'_>, now: u64, min_size: u64) {
    // Within a sweep only a committed steal changes what `scan_victims`
    // reads, so the scan is shared by the thieves between two steals.
    let mut scan = None;
    // Serve idle cores in index order (the deterministic rank matching
    // of the distributed implementation, §4.7).
    for thief in 0..eng.p() {
        if !eng.is_idle(thief) || eng.is_done() {
            continue;
        }
        match *scan.get_or_insert_with(|| scan_victims(eng, min_size)) {
            (Some((pri, victim)), pending) => {
                if let Some(pp) = pending.filter(|&pp| pp > pri) {
                    // A busy core may yet generate a higher-priority
                    // task: wait for it (round has not started).
                    eng.note_failed_round(thief, pp);
                    continue;
                }
                eng.commit_steal(thief, victim, now);
                scan = None;
            }
            (None, Some(pp)) => eng.note_failed_round(thief, pp),
            (None, None) => {}
        }
    }
}
