//! Scenario specification: what traffic to serve, on which backend,
//! under which admission/batching policy — parsed fail-loud from
//! `HBP_SERVE_*` environment variables (plus the shared `HBP_*` knobs
//! via [`hbp_core::Config`], the single place those are parsed).

use hbp_core::config::parse_switch;
use hbp_core::sched::native::NativeConfig;
use hbp_core::{lookup, registry, Backend, Policy};

/// How the load generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Open loop: requests arrive at pre-scheduled instants regardless
    /// of completions (arrival rate is the independent variable; queue
    /// growth and rejections are the signal).
    Open,
    /// Closed loop: each client keeps one request outstanding and
    /// submits the next one a think-time after the previous completes
    /// (concurrency is the independent variable).
    Closed,
}

impl LoadMode {
    /// Parse an `HBP_SERVE_MODE` value (`open` / `closed`; unset or
    /// empty means closed).
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("closed") => Ok(LoadMode::Closed),
            Some("open") => Ok(LoadMode::Open),
            Some(other) => Err(format!(
                "HBP_SERVE_MODE must be `open` or `closed`, got {other:?}"
            )),
        }
    }

    /// The mode's report label.
    pub fn label(&self) -> &'static str {
        match self {
            LoadMode::Open => "open",
            LoadMode::Closed => "closed",
        }
    }
}

/// One slice of the request mix: a registry algorithm, its relative
/// weight, and the problem sizes it is requested at.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// Registry row name — resolved through [`hbp_core::lookup`] when
    /// the scenario is validated, so a renamed row breaks the scenario
    /// loudly instead of silently dropping traffic.
    pub algo: String,
    /// Relative weight (≥ 1) in the request mix.
    pub weight: u64,
    /// Problem sizes requests of this algorithm are drawn from
    /// (uniformly).
    pub sizes: Vec<usize>,
}

/// A complete load scenario. Same spec + same seed ⇒ same request
/// schedule; on the sim backend the whole scenario report is
/// byte-identical across runs.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Master seed: drives the request schedule (mix picks, sizes,
    /// think/inter-arrival times), the kernels' input seeds and, on
    /// native, the pool's victim-selection RNG streams.
    pub seed: u64,
    /// Total requests the generator emits.
    pub requests: usize,
    /// Concurrent clients (closed loop: one outstanding request each;
    /// open loop: requests are attributed round-robin).
    pub clients: usize,
    /// Open vs closed loop (see [`LoadMode`]).
    pub mode: LoadMode,
    /// Admission-queue bound: a submission finding the queue at this
    /// depth is *rejected and counted* — never silently dropped.
    pub queue_cap: usize,
    /// Max requests batched into one shared kernel launch (1 disables
    /// batching).
    pub batch_max: usize,
    /// Only requests with `n <= small_n` are batched (large kernels
    /// launch alone).
    pub small_n: usize,
    /// Mean think time (closed) / inter-arrival time (open) in
    /// nanoseconds — log-normally distributed with σ = 0.5. 0 means no
    /// pacing.
    pub think_mean_ns: u64,
    /// The request mix (must be non-empty; weights ≥ 1).
    pub mix: Vec<MixEntry>,
    /// Which backend serves the scenario.
    pub backend: Backend,
    /// The simulator's schedule; on native it must be `rws[:seed]`, the
    /// randomized stealing the pool runs (see [`ScenarioSpec::validate`]).
    pub policy: Policy,
    /// Pool workers (native) / simulated cores (sim).
    pub workers: usize,
    /// Closed-loop clients honor `RetryAfter` pacing hints: a full
    /// queue *defers* the submission (sleep the hinted duration, retry
    /// up to [`MAX_DEFERRALS`] times) instead of hard-rejecting it
    /// outright. Open-loop arrivals are pre-scheduled and never pace.
    pub pacing: bool,
    /// The native pool's base configuration. Both of its fields,
    /// `workers` and `seed`, are overridden by the spec's own, so a run
    /// never reads it — see [`ScenarioSpec::native_config`].
    pub native: NativeConfig,
}

impl Default for ScenarioSpec {
    /// The small deterministic scenario an empty environment describes:
    /// 120 closed-loop requests from 4 clients on
    /// [`hbp_core::Config::default`]'s backend, policy and workers.
    fn default() -> Self {
        let cfg = hbp_core::Config::default();
        let seed = 42;
        Self {
            seed,
            requests: 120,
            clients: 4,
            mode: LoadMode::Closed,
            queue_cap: 64,
            batch_max: 8,
            small_n: 4096,
            think_mean_ns: 20_000,
            mix: default_mix(cfg.backend),
            backend: cfg.backend,
            policy: cfg.policy,
            workers: cfg.workers,
            pacing: false,
            native: cfg.native_config(seed),
        }
    }
}

/// How many times a pacing client retries a deferred submission before
/// recording a hard rejection.
pub const MAX_DEFERRALS: u32 = 3;

/// The default request mix: the paper's sort/scan/LR workloads plus CC
/// on the sim backend. CC has no `par_*` kernel yet, so the native
/// default substitutes FFT to keep a 4-algorithm mix (an explicit
/// `HBP_SERVE_MIX` naming CC on native fails loudly in
/// [`ScenarioSpec::validate`]).
pub fn default_mix(backend: Backend) -> Vec<MixEntry> {
    let fourth = match backend {
        Backend::Sim => "CC",
        Backend::Native => "FFT",
    };
    vec![
        MixEntry {
            algo: "Sort (SPMS)".into(),
            weight: 2,
            sizes: vec![512, 2048],
        },
        MixEntry {
            algo: "Scans (M-Sum)".into(),
            weight: 3,
            sizes: vec![1024, 8192],
        },
        MixEntry {
            algo: "LR".into(),
            weight: 2,
            sizes: vec![512, 2048],
        },
        MixEntry {
            algo: fourth.into(),
            weight: 1,
            sizes: vec![256, 1024],
        },
    ]
}

/// Parse an `HBP_SERVE_MIX` value:
/// `ALGO:WEIGHT:SIZE|SIZE,...` — e.g.
/// `Sort (SPMS):2:512|2048,LR:1:1024`. Every malformed field is an
/// error naming the variable and the offending entry.
fn parse_mix(value: &str) -> Result<Vec<MixEntry>, String> {
    let mut mix = Vec::new();
    for entry in value.split(',') {
        let mut parts = entry.splitn(3, ':');
        let (algo, weight, sizes) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(w), Some(s)) => (a.trim(), w.trim(), s),
            _ => {
                return Err(format!(
                    "HBP_SERVE_MIX entry must be ALGO:WEIGHT:SIZE|SIZE, got {entry:?}"
                ))
            }
        };
        let weight: u64 = weight.parse().ok().filter(|&w| w >= 1).ok_or_else(|| {
            format!("HBP_SERVE_MIX weight must be a positive integer in {entry:?}")
        })?;
        let sizes: Vec<usize> = sizes
            .split('|')
            .map(|s| {
                s.trim().parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("HBP_SERVE_MIX size must be a positive integer in {entry:?}")
                })
            })
            .collect::<Result<_, String>>()?;
        if sizes.is_empty() {
            return Err(format!("HBP_SERVE_MIX entry {entry:?} has no sizes"));
        }
        mix.push(MixEntry {
            algo: algo.to_string(),
            weight,
            sizes,
        });
    }
    if mix.is_empty() {
        return Err("HBP_SERVE_MIX must name at least one entry".into());
    }
    Ok(mix)
}

/// The integer knob `var`, read through `get`: unset or empty →
/// `default`; otherwise an integer no smaller than `min`, or an error
/// naming `var` and the bound.
fn num<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    get: &impl Fn(&str) -> Option<String>,
    var: &str,
    default: T,
    min: T,
) -> Result<T, String> {
    match get(var).as_deref() {
        None | Some("") => Ok(default),
        Some(s) => s
            .parse::<T>()
            .ok()
            .filter(|v| *v >= min)
            .ok_or_else(|| format!("{var} must be an integer >= {min}, got {s:?}")),
    }
}

impl ScenarioSpec {
    /// Build the spec from the environment (`HBP_SERVE_*` plus the
    /// shared `HBP_BACKEND` / `HBP_POLICY` / `HBP_WORKERS` knobs),
    /// overlaid on [`ScenarioSpec::default`]. Every
    /// invalid value is an error naming the variable — no silent
    /// defaults on typos. The result is already
    /// [validated](ScenarioSpec::validate).
    pub fn try_from_env() -> Result<Self, String> {
        Self::from_lookup(hbp_core::Config::try_from_env()?, |var| {
            std::env::var(var).ok()
        })
    }

    /// [`ScenarioSpec::try_from_env`] on the shared knobs `cfg`, with the
    /// `HBP_SERVE_*` values read through `get`.
    fn from_lookup(
        cfg: hbp_core::Config,
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, String> {
        let d = Self::default();
        let mix = match get("HBP_SERVE_MIX") {
            Some(s) if !s.is_empty() => parse_mix(&s)?,
            _ => default_mix(cfg.backend),
        };
        let seed = num(&get, "HBP_SERVE_SEED", d.seed, 0)?;
        let spec = Self {
            seed,
            requests: num(&get, "HBP_SERVE_REQUESTS", d.requests, 1)?,
            clients: num(&get, "HBP_SERVE_CLIENTS", d.clients, 1)?,
            mode: LoadMode::parse(get("HBP_SERVE_MODE").as_deref())?,
            queue_cap: num(&get, "HBP_SERVE_QUEUE_CAP", d.queue_cap, 1)?,
            batch_max: num(&get, "HBP_SERVE_BATCH", d.batch_max, 1)?,
            small_n: num(&get, "HBP_SERVE_SMALL_N", d.small_n, 0)?,
            think_mean_ns: num(&get, "HBP_SERVE_THINK_NS", d.think_mean_ns, 0)?,
            mix,
            backend: cfg.backend,
            policy: cfg.policy,
            workers: cfg.workers,
            pacing: parse_switch("HBP_SERVE_PACING", get("HBP_SERVE_PACING").as_deref())?,
            native: cfg.native_config(seed),
        };
        spec.validate();
        Ok(spec)
    }

    /// [`ScenarioSpec::try_from_env`], panicking with the parse error.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolve every mix row through [`hbp_core::lookup`] (panics
    /// listing the known rows on a miss — a renamed registry row breaks
    /// the scenario loudly) and, on the native backend, require an
    /// `rws[:seed]` policy and a native kernel for each row (panics
    /// listing the rows whose `native` column is filled). Builds no
    /// input.
    pub fn validate(&self) {
        if let Err(e) = self.backend.check_policy(self.policy) {
            panic!("policy {} on the native backend: {e}", self.policy);
        }
        for entry in &self.mix {
            let spec = lookup(&entry.algo);
            if self.backend == Backend::Native && spec.native.is_none() {
                let served: Vec<&str> = registry()
                    .iter()
                    .filter(|row| row.native.is_some())
                    .map(|row| row.name)
                    .collect();
                panic!(
                    "mix row {:?} has no native kernel; the native backend serves {served:?}",
                    spec.name
                );
            }
        }
        assert!(!self.mix.is_empty(), "scenario mix is empty");
    }

    /// The scenario's canonical mix: every algo name resolved through
    /// the registry (exact, fail-loud).
    pub fn canonical_mix(&self) -> Vec<MixEntry> {
        self.mix
            .iter()
            .map(|e| MixEntry {
                algo: lookup(&e.algo).name.to_string(),
                weight: e.weight,
                sizes: e.sizes.clone(),
            })
            .collect()
    }

    /// The native pool's config for this scenario: the spec's
    /// `workers`/`seed`, so there is exactly one source of truth for the
    /// fields [`ScenarioSpec::native`] also holds.
    pub fn native_config(&self) -> NativeConfig {
        NativeConfig {
            workers: self.workers,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parse_roundtrips_and_rejects_garbage() {
        let mix = parse_mix("Sort (SPMS):2:512|2048,LR:1:1024").unwrap();
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].algo, "Sort (SPMS)");
        assert_eq!(mix[0].weight, 2);
        assert_eq!(mix[0].sizes, vec![512, 2048]);
        assert_eq!(mix[1].algo, "LR");
        for bad in ["LR", "LR:0:512", "LR:1:", "LR:1:abc", ""] {
            let err = parse_mix(bad).expect_err(bad);
            assert!(
                err.contains("HBP_SERVE_MIX"),
                "error names the variable: {err}"
            );
        }
    }

    #[test]
    fn knob_errors_name_the_bound() {
        let with = |var: &str, value: &str| {
            ScenarioSpec::from_lookup(hbp_core::Config::default(), |v| {
                (v == var).then(|| value.to_string())
            })
        };
        for (var, min, bad) in [
            ("HBP_SERVE_REQUESTS", 1, "0"),
            ("HBP_SERVE_CLIENTS", 1, "0"),
            ("HBP_SERVE_QUEUE_CAP", 1, "0"),
            ("HBP_SERVE_BATCH", 1, "0"),
            ("HBP_SERVE_SEED", 0, "-1"),
            ("HBP_SERVE_SMALL_N", 0, "-1"),
            ("HBP_SERVE_THINK_NS", 0, "-1"),
        ] {
            let want = format!("{var} must be an integer >= {min}, got {bad:?}");
            assert_eq!(with(var, bad).expect_err(var), want);
            with(var, &min.to_string()).expect(var);
        }
        assert!(with("HBP_SERVE_PACING", "yes").unwrap().pacing);
        let err = with("HBP_SERVE_PACING", "maybe").expect_err("not a switch");
        assert!(err.starts_with("HBP_SERVE_PACING must be"), "{err}");
    }

    #[test]
    fn validate_reads_the_native_column() {
        for backend in [Backend::Sim, Backend::Native] {
            ScenarioSpec {
                mix: default_mix(backend),
                backend,
                policy: Policy::Rws { seed: 0 },
                ..ScenarioSpec::default()
            }
            .validate();
        }
        // Every row the native backend does not serve is refused by
        // name, with the served rows listed; sim takes every row.
        for row in registry() {
            let spec = |backend| ScenarioSpec {
                mix: vec![MixEntry {
                    algo: row.name.into(),
                    weight: 1,
                    sizes: vec![64],
                }],
                backend,
                policy: Policy::Rws { seed: 0 },
                ..ScenarioSpec::default()
            };
            spec(Backend::Sim).validate();
            let native = std::panic::catch_unwind(|| spec(Backend::Native).validate());
            assert_eq!(native.is_ok(), row.native.is_some(), "{}", row.name);
            if let Err(err) = native {
                let msg = err.downcast_ref::<String>().expect("String payload");
                let (refused, served) = msg
                    .split_once(" has no native kernel; the native backend serves ")
                    .expect(msg);
                assert_eq!(refused, format!("mix row {:?}", row.name));
                assert!(served.contains("Sort (SPMS)") && !served.contains(row.name));
            }
        }
    }

    #[test]
    fn validate_refuses_a_policy_the_native_pool_cannot_run() {
        for policy in [Policy::Pws, Policy::Bsp { prefix_levels: 3 }] {
            let spec = |backend| ScenarioSpec {
                mix: default_mix(backend),
                backend,
                policy,
                ..ScenarioSpec::default()
            };
            spec(Backend::Sim).validate();
            let err = std::panic::catch_unwind(|| spec(Backend::Native).validate()).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("String payload");
            assert!(msg.contains("the native pool steals randomized"), "{msg}");
        }
    }

    #[test]
    fn validate_fails_loudly_on_renamed_rows() {
        let spec = ScenarioSpec {
            mix: vec![MixEntry {
                algo: "Sort (renamed away)".into(),
                weight: 1,
                sizes: vec![64],
            }],
            ..ScenarioSpec::default()
        };
        let err = std::panic::catch_unwind(|| spec.validate()).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("String payload");
        assert!(msg.contains("no registry row named"), "{msg}");
    }
}
