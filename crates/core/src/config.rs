//! [`Config`]: the one typed construction path for sessions and pools
//! ([`Config::open`], [`Config::native_config`]) — and the **only**
//! place the `HBP_*` environment variables are parsed.
//!
//! Every knob the runtime exposes is a field here, settable three ways:
//!
//! 1. **builder** — `Config::new().workers(8).policy(Policy::Pws)…`;
//! 2. **environment** — [`Config::from_env`] /
//!    [`Config::try_from_env`], which read the full `HBP_*` family in
//!    one pass and report *every* invalid variable in one error (no
//!    first-wins panics: a CI job with two typos sees both);
//! 3. **struct literal** over [`Config::default`].
//!
//! Downstream layers never read the environment themselves: the pure
//! `parse` functions stay on their owning types (`Policy::parse`,
//! `Backend::parse`), but the `std::env::var` calls live in this
//! module alone — a test-enforced property (`tests/env_surface.rs` fails
//! on an `HBP_*` read outside this file), so adding a knob forces the
//! loud-error aggregation and the README table to stay in sync.
//!
//! | Variable | Field | Default |
//! |---|---|---|
//! | `HBP_BACKEND` | [`Config::backend`] | `sim` |
//! | `HBP_POLICY` | [`Config::policy`] | `pws` (sim), `rws:0` (native) |
//! | `HBP_WORKERS` | [`Config::workers`] | hardware threads (min 4) |
//! | `HBP_TRACE` | [`Config::trace`] | off |
//! | `HBP_TRACE_BUF` | [`Config::trace_buf`] | 2^20 events/worker |
//!
//! A retired variable (`HBP_DEQUE`, `HBP_STEAL_BATCH`, `HBP_DOMAINS`,
//! `HBP_CROSS_DEPTH`, `HBP_AUTOSCALE`, `HBP_COUNTERS`,
//! `HBP_METRICS_INTERVAL`, `HBP_TRACE_STRICT`, `HBP_FIG_N`,
//! `HBP_METRICS`; the README says why each went) is reported as an
//! error naming what replaced it when set, to any value, not silently
//! ignored. So is a policy the backend cannot run: the native pool has
//! one discipline, randomized stealing, and takes only `rws[:seed]`.

use hbp_sched::native::NativeConfig;
use hbp_sched::Policy;

use crate::executor::SimExecutor;
use crate::session::ExecSession;

/// Which execution backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator (default).
    Sim,
    /// Real threads with randomized work stealing.
    Native,
}

impl Backend {
    /// Parse an `HBP_BACKEND` value: `None` (unset) or `sim` →
    /// [`Backend::Sim`], `native` → [`Backend::Native`]; anything else
    /// is an error naming the variable, the offending value, and the
    /// accepted ones.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("sim") => Ok(Backend::Sim),
            Some("native") => Ok(Backend::Native),
            Some(other) => Err(format!(
                "HBP_BACKEND must be `sim` or `native`, got {other:?}"
            )),
        }
    }

    /// `policy`, if this backend can run it: the simulator runs every
    /// schedule; the native pool steals randomized, so it takes only
    /// [`Policy::Rws`] (whose seed seeds it).
    pub fn check_policy(self, policy: Policy) -> Result<Policy, String> {
        match (self, policy) {
            (Backend::Native, Policy::Pws | Policy::Bsp { .. }) => {
                Err("the native pool steals randomized; use `rws[:seed]`".into())
            }
            _ => Ok(policy),
        }
    }
}

/// Parse an `HBP_WORKERS` value: a positive integer, or `None` (unset)
/// for the [`NativeConfig`] default (one per hardware thread, min 4).
fn parse_workers(value: Option<&str>) -> Result<usize, String> {
    match value {
        None | Some("") => Ok(NativeConfig::default().workers),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("HBP_WORKERS must be a positive integer, got {s:?}")),
    }
}

/// Parse a boolean-ish `HBP_*` switch: unset/empty/`0`/`off`/`false` →
/// false; `1`/`on`/`true`/`yes` → true; anything else errors, naming
/// `var`.
pub fn parse_switch(var: &str, value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("") | Some("0") | Some("off") | Some("false") => Ok(false),
        Some("1") | Some("on") | Some("true") | Some("yes") => Ok(true),
        Some(other) => Err(format!(
            "{var} must be `1`/`on`/`true` or `0`/`off`/`false`, got {other:?}"
        )),
    }
}

/// Parse an `HBP_TRACE_BUF` value: unset/empty → [`hbp_trace::DEFAULT_CAPACITY`];
/// a positive integer → that many events per worker ring.
fn parse_trace_buf(value: Option<&str>) -> Result<usize, String> {
    match value {
        None | Some("") => Ok(hbp_trace::DEFAULT_CAPACITY),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("HBP_TRACE_BUF must be a positive integer, got {s:?}")),
    }
}

/// Retired `HBP_*` variables and what replaced each: setting one, to
/// any value, is an error (see [`Config::from_lookup`]).
const RETIRED: [(&str, &str); 10] = [
    ("HBP_DEQUE", "Chase-Lev is the only deque"),
    ("HBP_STEAL_BATCH", "every steal claims one task"),
    (
        "HBP_DOMAINS",
        "every worker steals from every other, one flat pool",
    ),
    (
        "HBP_CROSS_DEPTH",
        "native steals take any task; the depth floor is the simulator's `bsp:<k>`",
    ),
    ("HBP_AUTOSCALE", "the pool runs exactly HBP_WORKERS threads"),
    (
        "HBP_COUNTERS",
        "native traces carry no miss deltas; the simulator predicts them",
    ),
    (
        "HBP_METRICS_INTERVAL",
        "there is no background sampler; metrics_report prints the \
         scenario's own queue-depth timeline",
    ),
    (
        "HBP_TRACE_STRICT",
        "trace_report always exits 2 when the trace dropped events",
    ),
    (
        "HBP_FIG_N",
        "HBP_EXAMPLE_N shrinks a figure run for a smoke test",
    ),
    ("HBP_METRICS", "metrics_report enables the registry itself"),
];

/// The full runtime configuration (see the module docs for the env
/// table). Construct with [`Config::new`] and the builder methods, or
/// [`Config::from_env`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Execution backend (`HBP_BACKEND`).
    pub backend: Backend,
    /// The simulator's schedule (`HBP_POLICY`). The native pool always
    /// steals randomized; there the policy is `rws:<seed>` and its seed
    /// seeds the pool's RNG streams.
    pub policy: Policy,
    /// Native worker threads / trace-sink width (`HBP_WORKERS`).
    pub workers: usize,
    /// Structured event tracing on/off (`HBP_TRACE`).
    pub trace: bool,
    /// Per-worker trace ring capacity, events (`HBP_TRACE_BUF`).
    pub trace_buf: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            backend: Backend::Sim,
            policy: Policy::Pws,
            workers: NativeConfig::default().workers,
            trace: false,
            trace_buf: hbp_trace::DEFAULT_CAPACITY,
        }
    }
}

impl Config {
    /// The defaults: sim backend, PWS, one worker per hardware thread
    /// (min 4), no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    // --- builder methods ---------------------------------------------------

    /// Select the execution backend.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Select the simulator's schedule (the native pool's seed, for
    /// [`Policy::Rws`]).
    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }

    /// Set the native worker count (≥ 1).
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    // --- environment -------------------------------------------------------

    /// Read the whole `HBP_*` family from the environment. Unset
    /// variables keep their defaults; **every** invalid variable is
    /// reported in the single returned error (one line each), so a job
    /// with several typos fixes them all in one round trip.
    pub fn try_from_env() -> Result<Self, String> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`Config::try_from_env`] against an explicit variable lookup
    /// (tests feed a map; the env wrapper feeds `std::env::var`).
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut errors: Vec<String> = Vec::new();
        macro_rules! set {
            ($field:expr, $parsed:expr) => {
                match $parsed {
                    Ok(v) => $field = v,
                    Err(e) => errors.push(e),
                }
            };
        }
        set!(cfg.backend, Backend::parse(get("HBP_BACKEND").as_deref()));
        // Unset on native names the one discipline the pool runs.
        let backend = cfg.backend;
        set!(
            cfg.policy,
            match get("HBP_POLICY").filter(|p| !p.is_empty()) {
                None if backend == Backend::Native => Ok(Policy::Rws { seed: 0 }),
                p => Policy::parse(p.as_deref()).and_then(|parsed| {
                    backend.check_policy(parsed).map_err(|e| {
                        let p = p.as_deref().unwrap_or_default();
                        format!("HBP_POLICY={p:?} with HBP_BACKEND=native: {e}")
                    })
                }),
            }
        );
        set!(cfg.workers, parse_workers(get("HBP_WORKERS").as_deref()));
        for (var, now) in RETIRED {
            if get(var).is_some() {
                errors.push(format!("{var} was removed: {now}"));
            }
        }
        set!(
            cfg.trace,
            parse_switch("HBP_TRACE", get("HBP_TRACE").as_deref())
        );
        set!(
            cfg.trace_buf,
            parse_trace_buf(get("HBP_TRACE_BUF").as_deref())
        );
        if errors.is_empty() {
            Ok(cfg)
        } else {
            Err(format!(
                "invalid HBP_* environment ({} problem{}):\n  - {}",
                errors.len(),
                if errors.len() == 1 { "" } else { "s" },
                errors.join("\n  - ")
            ))
        }
    }

    /// [`Config::try_from_env`], panicking with the aggregated error
    /// (typos must not silently fall back in CI).
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    // --- consumers ---------------------------------------------------------

    /// The native-pool slice of this configuration, with `seed` feeding
    /// the victim-selection RNG streams.
    pub fn native_config(&self, seed: u64) -> NativeConfig {
        NativeConfig {
            workers: self.workers,
            seed,
        }
    }

    /// The seed [`Config::open`] gives a native pool: the `rws:<seed>`
    /// policy's, 0 under any other policy.
    fn pool_seed(&self) -> u64 {
        match self.policy {
            Policy::Rws { seed } => seed,
            Policy::Pws | Policy::Bsp { .. } => 0,
        }
    }

    /// Open a session on the configured backend: the simulator on
    /// `machine` under [`Config::policy`] for [`Backend::Sim`], one
    /// randomized-stealing native pool for [`Backend::Native`]
    /// (`machine` is a simulator-only knob), seeded by an `rws:<seed>`
    /// policy.
    pub fn open(&self, machine: hbp_machine::MachineConfig) -> ExecSession {
        match self.backend {
            Backend::Sim => ExecSession::sim(SimExecutor {
                machine,
                policy: self.policy,
            }),
            Backend::Native => ExecSession::native(self.native_config(self.pool_seed())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_defaults_hold() {
        let cfg = Config::new()
            .backend(Backend::Native)
            .policy(Policy::Rws { seed: 7 })
            .workers(3);
        assert_eq!(cfg.backend, Backend::Native);
        assert_eq!(cfg.workers, 3);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.trace_buf, Config::default().trace_buf);
        assert!(!cfg.trace);
        let native = cfg.native_config(5);
        assert_eq!(native.workers, 3);
        assert_eq!(native.seed, 5);
    }

    #[test]
    fn backend_parse_accepts_valid_and_rejects_typos() {
        assert_eq!(Backend::parse(None), Ok(Backend::Sim));
        assert_eq!(Backend::parse(Some("")), Ok(Backend::Sim));
        assert_eq!(Backend::parse(Some("sim")), Ok(Backend::Sim));
        assert_eq!(Backend::parse(Some("native")), Ok(Backend::Native));
        for bad in ["nativ", "SIM", "threads", "1"] {
            let err = Backend::parse(Some(bad)).expect_err(bad);
            assert!(
                err.contains("HBP_BACKEND"),
                "error names the variable: {err}"
            );
            assert!(err.contains(bad), "error echoes the value: {err}");
            assert!(
                err.contains("sim") && err.contains("native"),
                "error lists the accepted values: {err}"
            );
        }
    }

    #[test]
    fn workers_parse_rejects_zero_and_garbage_with_clear_errors() {
        assert_eq!(
            parse_workers(None),
            Ok(NativeConfig::default().workers),
            "unset means the pool default"
        );
        assert_eq!(parse_workers(Some("3")), Ok(3));
        for bad in ["0", "-2", "abc", "1.5"] {
            let err = parse_workers(Some(bad)).expect_err(bad);
            assert!(
                err.contains("HBP_WORKERS"),
                "error names the variable: {err}"
            );
            assert!(
                err.contains("positive integer"),
                "error says what is accepted: {err}"
            );
            assert!(err.contains(bad), "error echoes the value: {err}");
        }
    }

    #[test]
    fn from_lookup_reports_every_invalid_var_at_once() {
        let vars = [
            ("HBP_BACKEND", "quantum"),
            ("HBP_POLICY", "pws"),
            ("HBP_WORKERS", "zero"),
            ("HBP_TRACE_BUF", "0"),
            ("HBP_TRACE", "1"),
        ];
        let err = Config::from_lookup(|v| {
            vars.iter()
                .find(|(k, _)| *k == v)
                .map(|(_, val)| val.to_string())
        })
        .expect_err("three invalid vars");
        for var in ["HBP_BACKEND", "HBP_WORKERS", "HBP_TRACE_BUF"] {
            assert!(err.contains(var), "error must name {var}: {err}");
        }
        for val in ["quantum", "zero", "\"0\""] {
            assert!(err.contains(val), "error must echo {val}: {err}");
        }
        assert!(err.contains("3 problems"), "{err}");
        // Valid vars still parse when the invalid ones are fixed.
        let ok = Config::from_lookup(|v| match v {
            "HBP_POLICY" => Some("rws:9".into()),
            "HBP_TRACE_BUF" => Some("64".into()),
            "HBP_TRACE" => Some("1".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(ok.policy, Policy::Rws { seed: 9 });
        assert_eq!(ok.trace_buf, 64);
        assert!(ok.trace);
    }

    #[test]
    fn retired_knobs_are_reported_not_ignored() {
        // Set to any value — even the old default — each is an error
        // naming what replaced it, and they aggregate with each other
        // and the other problems.
        for values in [
            [
                "mutex", "off", "4", "0", "1..8", "stub", "50", "1", "16384", "1",
            ],
            [
                "cl", "policy", "tag:2", "inf", "2..2", "perf", "off", "0", "1", "on",
            ],
            ["", "", "auto", "3", "off", "auto", "", "", "", ""],
        ] {
            let err = Config::from_lookup(|v| match v {
                "HBP_WORKERS" => Some("zero".into()),
                _ => RETIRED
                    .iter()
                    .position(|(var, _)| *var == v)
                    .map(|i| values[i].into()),
            })
            .expect_err("a set retired knob is an error");
            for want in [
                "HBP_DEQUE was removed: Chase-Lev is the only deque",
                "HBP_STEAL_BATCH was removed: every steal claims one task",
                "HBP_DOMAINS was removed: every worker steals from every other, \
                 one flat pool",
                "HBP_CROSS_DEPTH was removed: native steals take any task; the \
                 depth floor is the simulator's `bsp:<k>`",
                "HBP_AUTOSCALE was removed: the pool runs exactly HBP_WORKERS \
                 threads",
                "HBP_COUNTERS was removed: native traces carry no miss deltas; \
                 the simulator predicts them",
                "HBP_METRICS_INTERVAL was removed: there is no background \
                 sampler; metrics_report prints the scenario's own queue-depth \
                 timeline",
                "HBP_TRACE_STRICT was removed: trace_report always exits 2 when \
                 the trace dropped events",
                "HBP_FIG_N was removed: HBP_EXAMPLE_N shrinks a figure run for a \
                 smoke test",
                "HBP_METRICS was removed: metrics_report enables the registry itself",
            ] {
                assert!(err.contains(want), "{want:?} missing from {err}");
            }
            assert!(err.contains("HBP_WORKERS must"), "{err}");
            assert!(err.contains("11 problems"), "{err}");
        }
        for (var, _) in RETIRED {
            let err =
                Config::from_lookup(|v| (v == var).then(|| "4".into())).expect_err("alone, too");
            assert!(err.contains("1 problem)"), "{var}: {err}");
            assert!(err.contains(&format!("{var} was removed")), "{err}");
        }
        // The native pool's retired policies: only `rws[:seed]` runs
        // there, loudly, and aggregated with the other problems.
        let native = |policy: Option<&str>| {
            Config::from_lookup(|v| match v {
                "HBP_BACKEND" => Some("native".into()),
                "HBP_POLICY" => policy.map(Into::into),
                "HBP_CROSS_DEPTH" => Some("2".into()),
                _ => None,
            })
        };
        for policy in ["pws", "bsp", "bsp:3"] {
            let err = native(Some(policy)).expect_err(policy);
            assert!(
                err.contains(&format!(
                    "HBP_POLICY={policy:?} with HBP_BACKEND=native: the native pool \
                     steals randomized; use `rws[:seed]`"
                )),
                "{err}"
            );
            assert!(err.contains("2 problems"), "{err}");
        }
        let ok = |policy: Option<&str>| {
            Config::from_lookup(|v| match v {
                "HBP_BACKEND" => Some("native".into()),
                "HBP_POLICY" => policy.map(Into::into),
                _ => None,
            })
            .expect("an rws policy runs natively")
        };
        // Unset on native names the discipline that runs, seeded 0.
        for unset in [None, Some("")] {
            assert_eq!(ok(unset).policy, Policy::Rws { seed: 0 });
            assert_eq!(ok(unset).pool_seed(), 0);
        }
        // `rws:<s>` still seeds the pool; the sim default stays PWS.
        assert_eq!(ok(Some("rws:7")).policy, Policy::Rws { seed: 7 });
        assert_eq!(ok(Some("rws:7")).pool_seed(), 7);
        assert_eq!(Config::from_lookup(|_| None).unwrap().policy, Policy::Pws);
    }

    #[test]
    fn switch_and_size_parsers_reject_garbage() {
        assert_eq!(parse_switch("HBP_TRACE", Some("on")), Ok(true));
        assert_eq!(parse_switch("HBP_TRACE", None), Ok(false));
        assert!(parse_switch("HBP_TRACE", Some("maybe"))
            .unwrap_err()
            .contains("HBP_TRACE"));
        assert_eq!(parse_trace_buf(None), Ok(hbp_trace::DEFAULT_CAPACITY));
        assert_eq!(parse_trace_buf(Some("64")), Ok(64));
        assert!(parse_trace_buf(Some("0")).is_err());
    }
}
