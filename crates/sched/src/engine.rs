//! Entry points of the simulator: [`Policy`], [`run`], [`run_sequential`].
//!
//! This module is a thin facade over the layered scheduler subsystem —
//! see [`crate::sim`] for the event-loop core, [`crate::clock`] /
//! [`crate::deque`] / [`crate::stacks`] for its parts, and
//! [`crate::policy`] for the [`StealPolicy`]
//! implementations the [`Policy`] enum selects between. The signatures
//! here are stable: call sites in `hbp-bench`, the examples, and the
//! tests use `run(comp, cfg, policy)` unchanged across the refactor.

use hbp_machine::MachineConfig;
use hbp_model::Computation;
use hbp_trace::TraceSink;

use crate::policy::{Bsp, Pws, Rws, StealPolicy};
use crate::report::{ExecReport, SeqReport};
use crate::sim::Engine;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's deterministic Priority Work Stealing scheduler (§4).
    Pws,
    /// Randomized work stealing with the given seed (baseline, \[13\]).
    Rws {
        /// RNG seed: runs with equal seeds are identical.
        seed: u64,
    },
    /// Bulk-synchronous mapping (paper §5.3): like PWS, but only tasks of
    /// size at least `root_size / 2^prefix_levels` may be stolen — i.e.
    /// each collection's recursion is unravelled for `prefix_levels`
    /// levels, those subtrees are distributed, and everything below runs
    /// without further stealing.
    Bsp {
        /// Number of recursion levels open for stealing
        /// (the paper's `log p` unravelling; pass `⌈log₂p⌉ + 1`).
        prefix_levels: u32,
    },
}

impl Policy {
    /// The [`StealPolicy`] implementation this variant selects.
    pub fn steal_policy(self) -> Box<dyn StealPolicy> {
        match self {
            Policy::Pws => Box::new(Pws),
            Policy::Rws { seed } => Box::new(Rws::new(seed)),
            Policy::Bsp { prefix_levels } => Box::new(Bsp::new(prefix_levels)),
        }
    }

    /// Parse an `HBP_POLICY` value: `None` (unset), the empty string or
    /// `pws` → [`Policy::Pws`]; `rws` / `rws:<seed>` → [`Policy::Rws`]
    /// (default seed 1); `bsp` / `bsp:<levels>` → [`Policy::Bsp`]
    /// (default 4 levels). Anything else is an error naming the
    /// variable, the offending value, and the accepted forms.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        let Some(s) = value else {
            return Ok(Policy::Pws);
        };
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let num = |default: u64| -> Result<u64, String> {
            match arg {
                None => Ok(default),
                Some(a) => a.parse().map_err(|_| {
                    format!("HBP_POLICY argument must be an integer, got {a:?} in {s:?}")
                }),
            }
        };
        match name {
            "" | "pws" => {
                if arg.is_some() {
                    return Err(format!("HBP_POLICY pws takes no argument, got {s:?}"));
                }
                Ok(Policy::Pws)
            }
            "rws" => Ok(Policy::Rws { seed: num(1)? }),
            "bsp" => Ok(Policy::Bsp {
                prefix_levels: u32::try_from(num(4)?)
                    .map_err(|_| format!("HBP_POLICY bsp levels must fit in 32 bits, got {s:?}"))?,
            }),
            other => Err(format!(
                "HBP_POLICY must be pws, rws[:seed] or bsp[:levels], got {other:?}"
            )),
        }
    }
}

/// The spelling [`Policy::parse`] reads back: `pws`, `rws:SEED`,
/// `bsp:LEVELS`.
impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Policy::Pws => f.write_str("pws"),
            Policy::Rws { seed } => write!(f, "rws:{seed}"),
            Policy::Bsp { prefix_levels } => write!(f, "bsp:{prefix_levels}"),
        }
    }
}

/// Execute `comp` on the machine `cfg` under `policy` and report.
pub fn run(comp: &Computation, cfg: MachineConfig, policy: Policy) -> ExecReport {
    run_with_policy(comp, cfg, policy.steal_policy().as_mut())
}

/// Execute `comp` under a caller-supplied [`StealPolicy`] — the extension
/// point for scheduling disciplines beyond the built-in [`Policy`] set.
pub fn run_with_policy(
    comp: &Computation,
    cfg: MachineConfig,
    policy: &mut dyn StealPolicy,
) -> ExecReport {
    let mut eng = Engine::new(comp, cfg);
    eng.drive(policy);
    eng.report()
}

/// Like [`run`], recording structured events into `sink` along the way.
///
/// Tracing is purely observational: the returned [`ExecReport`] is
/// bit-identical to the untraced [`run`]. The sink must be in
/// [`hbp_trace::ClockDomain::Virtual`] and sized for at least `cfg.p`
/// workers; collect it afterwards with [`TraceSink::collect`].
pub fn run_traced(
    comp: &Computation,
    cfg: MachineConfig,
    policy: Policy,
    sink: &TraceSink,
) -> ExecReport {
    run_with_policy_traced(comp, cfg, policy.steal_policy().as_mut(), sink)
}

/// [`run_with_policy`] with structured-event recording (see [`run_traced`]).
pub fn run_with_policy_traced(
    comp: &Computation,
    cfg: MachineConfig,
    policy: &mut dyn StealPolicy,
    sink: &TraceSink,
) -> ExecReport {
    let mut eng = Engine::new(comp, cfg);
    eng.attach_trace(sink);
    eng.drive(policy);
    eng.report()
}

/// Execute `comp` sequentially on a single core with the same cache
/// geometry: yields the sequential cache complexity `Q(n, M, B)`.
pub fn run_sequential(comp: &Computation, cfg: MachineConfig) -> SeqReport {
    let seq_cfg = MachineConfig { p: 1, ..cfg };
    let r = run(comp, seq_cfg, Policy::Pws);
    let t = r.machine.total();
    SeqReport {
        q_misses: t.misses(),
        work: r.work,
        makespan: r.makespan,
    }
}
