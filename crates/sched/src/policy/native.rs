//! The native facet of the policy family: *who* a real-threads worker
//! probes and *what* it may take.
//!
//! The simulator's [`StealPolicy`](super::StealPolicy) is driven by a
//! global sweep with a consistent snapshot of every deque — a luxury OS
//! threads do not have. [`NativeStealPolicy`] is the same policy family
//! re-expressed for the native runtime's reality: each idle worker plans
//! its own probe order, steals are individual lock-free CAS races, and
//! the only cross-worker information is what a Chase-Lev top read
//! provides. The paper's three disciplines keep their identities:
//!
//! * [`Rws`](super::Rws) — uniformly random victim rotation per scan
//!   (the baseline of [13]; the per-worker xorshift streams make victim
//!   sequences reproducible for a fixed pool seed);
//! * [`Pws`](super::Pws) — deterministic index-order probing (the §4.7
//!   rank-matching analogue: thief `i` scans victims in a fixed rotation
//!   starting at `i + 1`, so concurrent thieves fan out instead of
//!   colliding), shallowest published depth first. True global priority
//!   rounds need the sweep snapshot and remain sim-only;
//! * [`Bsp`](super::Bsp) — rank-order probing plus the §5.3 admission
//!   floor: only tasks from the top `prefix_levels` fork levels may be
//!   stolen, using the branch's fork depth as the native proxy for task
//!   size (each fork halves the subproblem, so depth `d` ≈ size
//!   `root / 2^d`).
//!
//! [`native_facet`] maps the [`Policy`](crate::engine::Policy) enum —
//! and therefore `HBP_POLICY` — onto these facets; `native::NativePool`
//! consumes the boxed trait object.

use crate::engine::Policy;

use super::{Bsp, Pws, Rws};

/// Failed probe scans before an idle worker starts sleeping instead of
/// yielding: long enough that steal latency stays in the microseconds
/// while work is flowing, short enough that persistently idle workers
/// stop contending with the workers doing measured work.
pub const SPIN_PROBES: u32 = 64;

/// Idle backoff after `fails` consecutive failed probe scans:
/// spin-yield for [`SPIN_PROBES`] of them, then sleep briefly (bounded,
/// so wakeup latency stays small).
pub fn default_backoff(fails: u32) {
    if fails < SPIN_PROBES {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// A work-stealing discipline for the native (real-threads) runtime.
///
/// Implementations are shared by every worker (`Send + Sync`) and hold
/// no per-worker state: the worker's xorshift RNG word is threaded
/// through [`plan_probes`](NativeStealPolicy::plan_probes) so victim
/// sequences stay per-worker reproducible.
pub trait NativeStealPolicy: Send + Sync {
    /// Plan one probe scan for `thief` among `p` workers: fill `out`
    /// with the victim indices to probe, in order, excluding `thief`.
    /// `rng` is the thief's private xorshift64* state; `hint(v)` is the
    /// shallowest fork depth published on `v`'s deque (`u32::MAX` when
    /// it looks empty), possibly stale.
    fn plan_probes(
        &self,
        thief: usize,
        p: usize,
        rng: &mut u64,
        hint: &dyn Fn(usize) -> u32,
        out: &mut Vec<usize>,
    );

    /// May a task published at fork depth `depth` be stolen? Consulted
    /// on the thief's side *before* the claiming CAS, so a refused task
    /// stays on its owner's deque (see `ClDeque::steal_with`).
    fn admit(&self, depth: u32) -> bool {
        let _ = depth;
        true
    }
}

/// Index-order probe plan used by the deterministic facets: victims in a
/// fixed rotation starting after the thief.
fn rank_order_probes(thief: usize, p: usize, out: &mut Vec<usize>) {
    out.clear();
    out.extend((1..p).map(|k| (thief + k) % p));
}

/// One xorshift64* step (the workers' victim-selection generator).
fn xorshift(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl NativeStealPolicy for Rws {
    /// Random rotation: a uniformly random start, then every other
    /// worker once — one full scan per plan. Ignores the depth hint.
    fn plan_probes(
        &self,
        thief: usize,
        p: usize,
        rng: &mut u64,
        _hint: &dyn Fn(usize) -> u32,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let start = (xorshift(rng) % (p as u64 - 1)) as usize;
        for k in 0..p - 1 {
            let mut v = (start + k) % (p - 1);
            if v >= thief {
                v += 1;
            }
            out.push(v);
        }
    }
}

impl NativeStealPolicy for Pws {
    /// The shallowest-victim hint: keep the deterministic rank rotation
    /// as the tie-break, but visit victims whose published top depth is
    /// shallower first. Shallow top-of-deque tasks are the biggest
    /// subproblems (each fork halves the work), so this approximates the
    /// §4.7 priority rounds — "steal the highest-priority stealable
    /// task" — using only one relaxed atomic per victim instead of a
    /// global sweep. Stale hints cost at most a reordered scan; the
    /// probe itself re-validates against the live deque.
    fn plan_probes(
        &self,
        thief: usize,
        p: usize,
        _rng: &mut u64,
        hint: &dyn Fn(usize) -> u32,
        out: &mut Vec<usize>,
    ) {
        rank_order_probes(thief, p, out);
        // Stable by construction: sort_by_key on (depth, rotation rank)
        // where the rotation rank is the pre-sort position.
        out.sort_by_key(|&v| (hint(v), (v + p - thief - 1) % p));
    }
}

impl NativeStealPolicy for Bsp {
    fn plan_probes(
        &self,
        thief: usize,
        p: usize,
        _rng: &mut u64,
        _hint: &dyn Fn(usize) -> u32,
        out: &mut Vec<usize>,
    ) {
        rank_order_probes(thief, p, out);
    }

    /// §5.3 on fork depth: only branches from the top `prefix_levels`
    /// levels of the recursion may move between workers.
    fn admit(&self, depth: u32) -> bool {
        depth <= self.prefix_levels()
    }
}

/// The native facet the [`Policy`] enum (and thus `HBP_POLICY`) selects.
pub fn native_facet(policy: Policy) -> Box<dyn NativeStealPolicy> {
    match policy {
        Policy::Pws => Box::new(Pws),
        Policy::Rws { .. } => Box::new(Rws::new(0)),
        Policy::Bsp { prefix_levels } => Box::new(Bsp::new(prefix_levels)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facet_of(p: Policy) -> Box<dyn NativeStealPolicy> {
        native_facet(p)
    }

    #[test]
    fn probe_plans_cover_everyone_but_the_thief_exactly_once() {
        for policy in [
            Policy::Pws,
            Policy::Rws { seed: 3 },
            Policy::Bsp { prefix_levels: 2 },
        ] {
            let f = facet_of(policy);
            for p in [2usize, 3, 5, 8] {
                for thief in 0..p {
                    let mut rng = 0x005D_EECE_66D1_u64;
                    let mut out = Vec::new();
                    f.plan_probes(thief, p, &mut rng, &|v| (v as u32) % 3, &mut out);
                    let mut seen = out.clone();
                    seen.sort_unstable();
                    let want: Vec<usize> = (0..p).filter(|&v| v != thief).collect();
                    assert_eq!(seen, want, "{policy:?} p={p} thief={thief}: {out:?}");
                }
            }
        }
    }

    #[test]
    fn rws_plans_vary_with_the_rng_and_are_reproducible() {
        let f = facet_of(Policy::Rws { seed: 0 });
        let (mut r1, mut r2) = (7u64, 7u64);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        f.plan_probes(0, 8, &mut r1, &|_| 0, &mut a);
        f.plan_probes(0, 8, &mut r2, &|_| 0, &mut b);
        assert_eq!(a, b, "equal rng state ⇒ equal plan");
        let mut later = Vec::new();
        let mut varied = false;
        for _ in 0..16 {
            f.plan_probes(0, 8, &mut r1, &|_| 0, &mut later);
            varied |= later != a;
        }
        assert!(varied, "random rotation eventually picks another start");
    }

    #[test]
    fn pws_plan_probes_shallowest_victims_first_in_rank_rotation() {
        let f = facet_of(Policy::Pws);
        let mut rng = 1u64;
        let mut out = Vec::new();
        // Equal hints: the deterministic rank rotation.
        f.plan_probes(2, 5, &mut rng, &|_| u32::MAX, &mut out);
        assert_eq!(out, vec![3, 4, 0, 1]);
        assert!(f.admit(u32::MAX), "PWS admits every depth");
        // Victim depths: w0 = 5, w1 = empty, w3 = 2, w4 = 5 (thief = 2).
        let depth = |v: usize| [5u32, u32::MAX, 0, 2, 5][v];
        f.plan_probes(2, 5, &mut rng, &depth, &mut out);
        // Shallowest first; equal depths keep the rank rotation (3, 4,
        // 0, 1) as the tie-break; the empty-looking deque goes last.
        assert_eq!(out, vec![3, 4, 0, 1]);
        let depth2 = |v: usize| [1u32, 3, 0, 9, 9][v];
        f.plan_probes(2, 5, &mut rng, &depth2, &mut out);
        assert_eq!(out, vec![0, 1, 3, 4]);
    }

    #[test]
    fn bsp_admits_only_the_top_prefix_levels() {
        let f = facet_of(Policy::Bsp { prefix_levels: 3 });
        assert!(f.admit(0) && f.admit(3));
        assert!(!f.admit(4) && !f.admit(u32::MAX));
    }
}
