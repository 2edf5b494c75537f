//! The deterministic-seed load generator: turns a [`ScenarioSpec`] into
//! a concrete request schedule.
//!
//! All randomness comes from one `ChaCha8Rng` seeded with the scenario
//! seed, drawn in a fixed order (mix pick, size pick, pacing sample per
//! request), so the same spec always yields the same schedule — the
//! property that makes load scenarios CI-able. Pacing times are
//! log-normal (service-time-like heavy tail), sampled via Box–Muller
//! from the integer stream.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spec::ScenarioSpec;

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Schedule position (also the report row id).
    pub id: u64,
    /// Submitting client (round-robin over the schedule).
    pub client: usize,
    /// Canonical registry algorithm name.
    pub algo: &'static str,
    /// Problem size.
    pub n: usize,
    /// Kernel input seed — derived from (scenario seed, algo, n), so
    /// requests of the same shape share inputs and a virtual-time
    /// service oracle can measure each shape once, up front.
    pub seed: u64,
    /// Open loop: absolute arrival instant (ns from scenario start).
    pub arrival_ns: u64,
    /// Closed loop: think time before this request is submitted (ns
    /// after the client's previous completion).
    pub think_ns: u64,
}

/// Sample a log-normal with the given mean and shape σ via Box–Muller.
/// Mean 0 short-circuits to 0 (no pacing).
fn log_normal_ns(rng: &mut ChaCha8Rng, mean_ns: u64, sigma: f64) -> u64 {
    if mean_ns == 0 {
        return 0;
    }
    // Two uniforms in (0, 1]: 53-bit mantissas, never exactly zero.
    let scale = 1.0 / (1u64 << 53) as f64;
    let u1 = ((rng.next_u64() >> 11) + 1) as f64 * scale;
    let u2 = ((rng.next_u64() >> 11) + 1) as f64 * scale;
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    // E[exp(N(mu, sigma))] = exp(mu + sigma^2/2) = mean.
    let mu = (mean_ns as f64).ln() - sigma * sigma / 2.0;
    (mu + sigma * z).exp() as u64
}

/// SplitMix64 finalizer — derives per-shape kernel input seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the scenario's full request schedule (see module docs).
/// Mix rows resolve through [`hbp_core::lookup`], so a renamed registry
/// row panics here, before any traffic is served.
pub fn build_schedule(spec: &ScenarioSpec) -> Vec<Request> {
    let mix = spec.canonical_mix();
    // Canonical &'static names via the registry (lookup can't fail for
    // a canonical mix; keeps Request free of owned strings).
    let names: Vec<&'static str> = mix.iter().map(|e| hbp_core::lookup(&e.algo).name).collect();
    let total_weight: u64 = mix.iter().map(|e| e.weight).sum();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut arrival = 0u64;
    let mut requests = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests as u64 {
        let mut pick = rng.random_range(0..total_weight);
        let mut slot = 0usize;
        for (i, e) in mix.iter().enumerate() {
            if pick < e.weight {
                slot = i;
                break;
            }
            pick -= e.weight;
        }
        let entry = &mix[slot];
        let n = entry.sizes[rng.random_range(0..entry.sizes.len())];
        let pace = log_normal_ns(&mut rng, spec.think_mean_ns, 0.5);
        arrival += pace;
        requests.push(Request {
            id,
            client: (id as usize) % spec.clients,
            algo: names[slot],
            n,
            seed: spec.seed ^ mix64((slot as u64) << 32 | n as u64),
            arrival_ns: arrival,
            think_ns: pace,
        });
    }
    requests
}

/// The per-client request streams of a closed-loop run: client `c` gets
/// the schedule's requests with `client == c`, in schedule order.
pub fn per_client(spec: &ScenarioSpec, schedule: &[Request]) -> Vec<Vec<Request>> {
    let mut streams: Vec<Vec<Request>> = vec![Vec::new(); spec.clients];
    for r in schedule {
        streams[r.client].push(r.clone());
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 7,
            requests: 64,
            clients: 3,
            think_mean_ns: 10_000,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let s = spec();
        let a = build_schedule(&s);
        let b = build_schedule(&s);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.algo, x.n, x.seed, x.arrival_ns),
                (y.algo, y.n, y.seed, y.arrival_ns)
            );
        }
        let mut other = s.clone();
        other.seed = 8;
        let c = build_schedule(&other);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.n != y.n || x.algo != y.algo || x.arrival_ns != y.arrival_ns),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn schedule_draws_every_mix_row_and_respects_sizes() {
        let s = spec();
        let sched = build_schedule(&s);
        for entry in &s.mix {
            let hits = sched.iter().filter(|r| r.algo == entry.algo).count();
            assert!(hits > 0, "{} never drawn in 64 requests", entry.algo);
            for r in sched.iter().filter(|r| r.algo == entry.algo) {
                assert!(
                    entry.sizes.contains(&r.n),
                    "{} at unlisted size {}",
                    r.algo,
                    r.n
                );
            }
        }
        // Arrivals are nondecreasing; same-shape requests share seeds.
        assert!(sched.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        for a in &sched {
            for b in &sched {
                if a.algo == b.algo && a.n == b.n {
                    assert_eq!(a.seed, b.seed);
                }
            }
        }
    }

    #[test]
    fn zero_think_means_no_pacing() {
        let mut s = spec();
        s.think_mean_ns = 0;
        let sched = build_schedule(&s);
        assert!(sched.iter().all(|r| r.think_ns == 0 && r.arrival_ns == 0));
    }
}
