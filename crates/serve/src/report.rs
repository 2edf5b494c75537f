//! The scenario report: per-request records, latency percentiles, queue
//! depth over time — and a *stable* hand-rolled JSON writer, so a
//! fixed-seed sim scenario serializes byte-identically across runs.

use hbp_core::trace::json::escape;
/// Critical-path totals of one request's kernel execution (virtual time
/// units; sim backend only — a wall-clock run has no exact critical
/// path, see `hbp_trace::critical`).
pub use hbp_core::trace::CpTotals;

use crate::spec::ScenarioSpec;

/// One request's fate, as reported.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Schedule id.
    pub id: u64,
    /// Submitting client.
    pub client: usize,
    /// Canonical algorithm name.
    pub algo: &'static str,
    /// Problem size.
    pub n: usize,
    /// When the request was submitted (ns from scenario start —
    /// virtual units on sim, wall-clock on native).
    pub arrival_ns: u64,
    /// Rejected at admission (queue full). Rejected requests have zero
    /// queue/service/latency and no critical path.
    pub rejected: bool,
    /// Times this request was *deferred* — answered `RetryAfter` and
    /// resubmitted by a pacing client — before completing (or before
    /// the final hard rejection). Always 0 without pacing.
    pub deferrals: u32,
    /// Admission-queue wait: submit → kernel launch.
    pub queue_ns: u64,
    /// Service time: the launch's makespan (shared by batch members).
    pub service_ns: u64,
    /// End-to-end: submit → completion.
    pub latency_ns: u64,
    /// Number of requests sharing the launch (1 = solo).
    pub batch: usize,
    /// Per-request critical-path totals (sim backend only).
    pub cp: Option<CpTotals>,
}

/// Latency distribution summary (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

/// Nearest-rank percentile of an already-sorted sample (`pct` in 1..=100).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    sorted[rank.max(1) - 1]
}

impl LatencyStats {
    /// Summarize a sample (need not be sorted).
    fn of(mut sample: Vec<u64>) -> Self {
        sample.sort_unstable();
        Self {
            p50: percentile(&sample, 50),
            p95: percentile(&sample, 95),
            p99: percentile(&sample, 99),
            max: sample.last().copied().unwrap_or(0),
        }
    }
}

/// One client's (tenant's) share of the scenario, derived entirely from
/// the per-request rows in `ScenarioReport::assemble` — *not* from the
/// global metrics registry, so the sim report stays byte-deterministic
/// even when a concurrent job pollutes the process-wide counters.
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// Client (tenant) index.
    pub client: usize,
    /// Requests this client submitted.
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// End-to-end latency percentiles over this client's completed
    /// requests.
    pub latency: LatencyStats,
    /// Admission-queue wait percentiles over this client's completed
    /// requests.
    pub queue_wait: LatencyStats,
}

/// The complete scenario outcome.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Backend label (`sim` / `native`).
    pub backend: &'static str,
    /// Policy label (`pws` / `rws:SEED` / `bsp:LEVELS`).
    pub policy: String,
    /// Pool workers / simulated cores.
    pub workers: usize,
    /// The scenario seed.
    pub seed: u64,
    /// Load mode label.
    pub mode: &'static str,
    /// Generated requests.
    pub requests: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Admission-queue bound.
    pub queue_cap: usize,
    /// Batching knobs.
    pub batch_max: usize,
    pub small_n: usize,
    /// Whether closed-loop clients honored `RetryAfter` pacing hints.
    pub pacing: bool,
    /// Completed (served) requests.
    pub completed: u64,
    /// Rejected (queue-full) requests — counted, never silent.
    pub rejected: u64,
    /// Deferral events: `RetryAfter` answers that pacing clients
    /// honored (slept and resubmitted). Counted separately from
    /// rejections — a deferred request usually still completes.
    pub deferred: u64,
    /// Peak workers the backend engaged: the pool's per-launch
    /// `workers_active` maximum on native, the simulated core count on
    /// sim. On native this is what the scenario *used*, not what was
    /// configured.
    pub workers_active: usize,
    /// Scenario end-to-end time (virtual units on sim, wall ns native).
    pub makespan_ns: u64,
    /// Completed requests per second × 1000 (integer, so the sim report
    /// stays float-free and byte-stable).
    pub throughput_milli_rps: u64,
    /// End-to-end latency percentiles over completed requests.
    pub latency: LatencyStats,
    /// Admission-queue wait percentiles over completed requests.
    pub queue_wait: LatencyStats,
    /// Kernel launches performed, and how many requests rode shared ones.
    pub launches: u64,
    pub batched_requests: u64,
    /// (time, depth) samples of the admission queue, ≤ 64 points.
    pub queue_depth: Vec<(u64, usize)>,
    /// Per-client (tenant) rollups, ascending client index.
    pub clients_stats: Vec<ClientStats>,
    /// Every request, schedule order.
    pub rows: Vec<RequestRecord>,
}

impl ScenarioReport {
    /// Assemble the report from the desk's books: the per-request
    /// records, the depth samples, and the launches it counted as they
    /// happened.
    pub(crate) fn assemble(
        spec: &ScenarioSpec,
        backend: &'static str,
        rows: Vec<RequestRecord>,
        makespan_ns: u64,
        queue_depth: Vec<(u64, usize)>,
        workers_active: usize,
        launches: u64,
        batched_requests: u64,
    ) -> Self {
        let completed = rows.iter().filter(|r| !r.rejected).count() as u64;
        let rejected = rows.iter().filter(|r| r.rejected).count() as u64;
        let deferred = rows.iter().map(|r| r.deferrals as u64).sum();
        let latencies: Vec<u64> = rows
            .iter()
            .filter(|r| !r.rejected)
            .map(|r| r.latency_ns)
            .collect();
        let waits: Vec<u64> = rows
            .iter()
            .filter(|r| !r.rejected)
            .map(|r| r.queue_ns)
            .collect();
        let throughput_milli_rps = if makespan_ns == 0 {
            0
        } else {
            (completed as u128 * 1_000_000_000_000u128 / makespan_ns as u128) as u64
        };
        let clients_stats = (0..spec.clients)
            .map(|c| {
                let mine = || rows.iter().filter(move |r| r.client == c);
                ClientStats {
                    client: c,
                    submitted: mine().count() as u64,
                    completed: mine().filter(|r| !r.rejected).count() as u64,
                    rejected: mine().filter(|r| r.rejected).count() as u64,
                    latency: LatencyStats::of(
                        mine()
                            .filter(|r| !r.rejected)
                            .map(|r| r.latency_ns)
                            .collect(),
                    ),
                    queue_wait: LatencyStats::of(
                        mine().filter(|r| !r.rejected).map(|r| r.queue_ns).collect(),
                    ),
                }
            })
            .collect();
        Self {
            backend,
            policy: spec.policy.to_string(),
            workers: spec.workers,
            seed: spec.seed,
            mode: spec.mode.label(),
            requests: spec.requests,
            clients: spec.clients,
            queue_cap: spec.queue_cap,
            batch_max: spec.batch_max,
            small_n: spec.small_n,
            pacing: spec.pacing,
            completed,
            rejected,
            deferred,
            workers_active,
            makespan_ns,
            throughput_milli_rps,
            latency: LatencyStats::of(latencies),
            queue_wait: LatencyStats::of(waits),
            launches,
            batched_requests,
            queue_depth: compress_depth(queue_depth),
            clients_stats,
            rows,
        }
    }

    /// Serialize to JSON with a fixed key order and integer-only values
    /// — byte-identical for identical runs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096 + self.rows.len() * 160);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"scenario\": {{\"backend\": \"{}\", \"policy\": \"{}\", \"workers\": {}, \"seed\": {}, \"mode\": \"{}\", \"requests\": {}, \"clients\": {}, \"queue_cap\": {}, \"batch_max\": {}, \"small_n\": {}, \"pacing\": {}}},\n",
            self.backend, escape(&self.policy), self.workers, self.seed, self.mode,
            self.requests, self.clients, self.queue_cap, self.batch_max, self.small_n,
            self.pacing
        ));
        s.push_str(&format!(
            "  \"totals\": {{\"completed\": {}, \"rejected\": {}, \"deferred\": {}, \"workers_active\": {}, \"makespan_ns\": {}, \"throughput_milli_rps\": {}, \"launches\": {}, \"batched_requests\": {}}},\n",
            self.completed, self.rejected, self.deferred, self.workers_active,
            self.makespan_ns, self.throughput_milli_rps,
            self.launches, self.batched_requests
        ));
        s.push_str(&format!(
            "  \"latency_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n",
            self.latency.p50, self.latency.p95, self.latency.p99, self.latency.max
        ));
        s.push_str(&format!(
            "  \"queue_wait_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n",
            self.queue_wait.p50, self.queue_wait.p95, self.queue_wait.p99, self.queue_wait.max
        ));
        s.push_str("  \"queue_depth\": [");
        for (i, (t, d)) in self.queue_depth.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("[{t}, {d}]"));
        }
        s.push_str("],\n");
        s.push_str("  \"clients\": [\n");
        for (i, c) in self.clients_stats.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"client\": {}, \"submitted\": {}, \"completed\": {}, \"rejected\": {}, \"latency_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}, \"queue_wait_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}{}\n",
                c.client, c.submitted, c.completed, c.rejected,
                c.latency.p50, c.latency.p95, c.latency.p99, c.latency.max,
                c.queue_wait.p50, c.queue_wait.p95, c.queue_wait.p99, c.queue_wait.max,
                if i + 1 < self.clients_stats.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"requests\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": {}, \"client\": {}, \"algo\": \"{}\", \"n\": {}, \"arrival_ns\": {}, \"rejected\": {}, \"deferrals\": {}, \"queue_ns\": {}, \"service_ns\": {}, \"latency_ns\": {}, \"batch\": {}, \"cp\": {}}}{}\n",
                r.id,
                r.client,
                escape(r.algo),
                r.n,
                r.arrival_ns,
                r.rejected,
                r.deferrals,
                r.queue_ns,
                r.service_ns,
                r.latency_ns,
                r.batch,
                match &r.cp {
                    Some(cp) => format!(
                        "{{\"total\": {}, \"work\": {}, \"steal\": {}, \"queue_wait\": {}}}",
                        cp.total, cp.work, cp.steal, cp.queue_wait
                    ),
                    None => "null".to_string(),
                },
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Keep the queue-depth timeline readable: at most 64 evenly-strided
/// samples (first and last always kept).
fn compress_depth(samples: Vec<(u64, usize)>) -> Vec<(u64, usize)> {
    const MAX: usize = 64;
    if samples.len() <= MAX {
        return samples;
    }
    let last = *samples.last().expect("non-empty");
    let stride = samples.len().div_ceil(MAX);
    let mut out: Vec<(u64, usize)> = samples.into_iter().step_by(stride).collect();
    if out.last() != Some(&last) {
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 95), 95);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 99), 0);
        // Small samples: rank rounds up, never out of bounds.
        assert_eq!(percentile(&[1, 2], 99), 2);
        assert_eq!(percentile(&[1, 2], 1), 1);
    }

    #[test]
    fn depth_compression_bounds_points_and_keeps_endpoints() {
        let samples: Vec<(u64, usize)> = (0..1000).map(|i| (i, (i % 7) as usize)).collect();
        let out = compress_depth(samples.clone());
        assert!(out.len() <= 65, "got {}", out.len());
        assert_eq!(out.first(), samples.first());
        assert_eq!(out.last(), samples.last());
        let short: Vec<(u64, usize)> = (0..10).map(|i| (i, 1)).collect();
        assert_eq!(compress_depth(short.clone()), short);
    }
}
