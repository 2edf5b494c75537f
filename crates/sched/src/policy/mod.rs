//! Steal policies: *who* steals *what* when a sweep fires.
//!
//! The engine core ([`crate::sim::Engine`]) is policy-independent; each
//! scheduling discipline is a [`StealPolicy`] that the event loop invokes
//! on every sweep with the current virtual time. The paper's three
//! disciplines ship as:
//!
//! * [`Pws`] — deterministic Priority Work Stealing (§4): priority
//!   rounds, rank matching, pending-priority flags;
//! * [`Rws`] — seeded randomized work stealing (the baseline of \[13\]);
//! * [`Bsp`] — the bulk-synchronous mapping (§5.3): PWS restricted to
//!   tasks from the top `prefix_levels` recursion levels.
//!
//! A custom policy implements [`StealPolicy`] against the engine's
//! query/effect API (`head_pri`, `pending_pri`, `commit_steal`, …) and
//! hands itself to [`Engine::drive`](crate::sim::Engine::drive): the
//! simulator, reports, and invariant accounting all come for free.
//!
//! These are simulator schedules: `HBP_POLICY` selects among them on the
//! sim backend only. The real-threads runtime ([`crate::native`]) has
//! one discipline of its own, randomized stealing, because PWS's
//! priority rounds need the global sweep the simulator provides.

mod bsp;
mod pws;
mod rws;

pub use bsp::Bsp;
pub use pws::Pws;
pub use rws::Rws;

use crate::sim::Engine;

/// A work-stealing discipline driven by the engine's sweep events.
///
/// `sweep` runs once per [`Sweep`](crate::clock::EvKind::Sweep) event at
/// virtual time `now`. Implementations inspect the engine (idle cores,
/// deque heads, pending flags) and apply steals via
/// [`Engine::commit_steal`]; unsuccessful attempts are recorded with
/// [`Engine::note_failed_round`] / [`Engine::note_failed_probe`] so the
/// report's attempt accounting (Cor 4.1) stays meaningful.
pub trait StealPolicy {
    /// Attempt steals for the idle cores at virtual time `now`.
    fn sweep(&mut self, eng: &mut Engine<'_>, now: u64);
}
