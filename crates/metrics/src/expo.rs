//! Exposition formats: Prometheus text (the 0.0.4 wire format) and a
//! stable, hand-rolled JSON document.
//!
//! Both formats are pure functions of a [`Snapshot`], emit keys in a fixed
//! order, and never include wall-clock timestamps — so on the deterministic
//! sim backend two runs under the same seed produce byte-identical output
//! (a property CI checks).

use crate::cells::{HistSnapshot, LogHistogram, HIST_BUCKETS};
use crate::registry::Snapshot;
use std::fmt::Write;

/// Render a snapshot in the Prometheus text exposition format.
///
/// Counters get a `_total` suffix, histograms emit cumulative `_bucket`
/// lines with log2 `le` bounds plus `_sum`/`_count`, and every family is
/// preceded by `# TYPE`. Trailing empty histogram families are still
/// declared so scrapers see a stable schema.
pub fn prometheus_text(s: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);

    counter_family(&mut out, "hbp_tasks_executed_total", s, |w| {
        w.tasks_executed
    });
    counter_family(&mut out, "hbp_steals_committed_total", s, |w| {
        w.steals_committed
    });
    counter_family(&mut out, "hbp_steals_failed_total", s, |w| w.steals_failed);
    counter_family(&mut out, "hbp_parks_total", s, |w| w.parks);

    writeln!(out, "# TYPE hbp_jobs_submitted_total counter").unwrap();
    writeln!(out, "hbp_jobs_submitted_total {}", s.jobs_submitted).unwrap();
    writeln!(out, "# TYPE hbp_jobs_completed_total counter").unwrap();
    writeln!(out, "hbp_jobs_completed_total {}", s.jobs_completed).unwrap();
    writeln!(out, "# TYPE hbp_admission_rejected_total counter").unwrap();
    writeln!(out, "hbp_admission_rejected_total {}", s.admission_rejected).unwrap();
    writeln!(out, "# TYPE hbp_admission_deferred_total counter").unwrap();
    writeln!(out, "hbp_admission_deferred_total {}", s.admission_deferred).unwrap();
    writeln!(out, "# TYPE hbp_workers_active gauge").unwrap();
    writeln!(out, "hbp_workers_active {}", s.workers_active).unwrap();
    writeln!(out, "# TYPE hbp_arena_bytes gauge").unwrap();
    writeln!(out, "hbp_arena_bytes {}", s.arena_bytes).unwrap();
    writeln!(out, "# TYPE hbp_pool_backlog gauge").unwrap();
    writeln!(out, "hbp_pool_backlog {}", s.pool_backlog).unwrap();
    writeln!(out, "# TYPE hbp_pool_backlog_peak gauge").unwrap();
    writeln!(out, "hbp_pool_backlog_peak {}", s.pool_backlog_peak).unwrap();

    histogram(&mut out, "hbp_job_latency_ns", &s.job_latency_ns);

    out
}

fn counter_family(
    out: &mut String,
    name: &str,
    s: &Snapshot,
    get: impl Fn(&crate::registry::WorkerSnap) -> u64,
) {
    writeln!(out, "# TYPE {name} counter").unwrap();
    for w in &s.workers {
        writeln!(out, "{name}{{worker=\"{}\"}} {}", w.worker, get(w)).unwrap();
    }
}

fn histogram(out: &mut String, name: &str, h: &HistSnapshot) {
    writeln!(out, "# TYPE {name} histogram").unwrap();
    // Emit buckets up to the last occupied one; the +Inf bucket carries the
    // total, so the cumulative contract holds regardless of where we stop.
    let last = h
        .buckets
        .iter()
        .rposition(|&b| b != 0)
        .map(|i| (i + 1).min(HIST_BUCKETS - 1))
        .unwrap_or(0);
    let mut cum = 0u64;
    for i in 0..=last {
        cum += h.buckets[i];
        writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cum}",
            LogHistogram::bucket_bound(i)
        )
        .unwrap();
    }
    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count).unwrap();
    writeln!(out, "{name}_sum {}", h.sum).unwrap();
    writeln!(out, "{name}_count {}", h.count).unwrap();
}

/// Render a snapshot as one stable JSON object (no whitespace, fixed key
/// order, no timestamps).
pub fn json(s: &Snapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("{{\"seq\":{},\"workers\":[", s.seq));
    for (i, w) in s.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"worker\":{},\"tasks\":{},\"steals_committed\":{},\"steals_failed\":{},\
             \"parks\":{}}}",
            w.worker, w.tasks_executed, w.steals_committed, w.steals_failed, w.parks,
        ));
    }
    let (sc, sf) = s.total_steals();
    out.push_str(&format!(
        "],\"totals\":{{\"tasks\":{},\"steals_committed\":{sc},\"steals_failed\":{sf}}},\
         \"serve\":{{\"jobs_submitted\":{},\"jobs_completed\":{},\"admission_rejected\":{},\
         \"admission_deferred\":{},\"latency_ns\":{},\"pool_backlog\":{},\
         \"pool_backlog_peak\":{},\"workers_active\":{}}},\
         \"arena_bytes\":{}}}",
        s.total_tasks(),
        s.jobs_submitted,
        s.jobs_completed,
        s.admission_rejected,
        s.admission_deferred,
        hist_json(&s.job_latency_ns),
        s.pool_backlog,
        s.pool_backlog_peak,
        s.workers_active,
        s.arena_bytes,
    ));
    out
}

fn hist_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        h.count,
        h.sum,
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.set_enabled(true);
        for w in 0..2 {
            let s = r.shard(w);
            s.tasks_executed.add(10 + w as u64);
            s.steals_committed.add(3);
            s.steals_failed.add(2);
            s.parks.add(1);
        }
        r.jobs_submitted.add(5);
        r.jobs_completed.add(5);
        r.job_latency_ns.observe(1_000);
        r.job_latency_ns.observe(3_000);
        r.snapshot()
    }

    #[test]
    fn prometheus_shape() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE hbp_tasks_executed_total counter"));
        assert!(text.contains("hbp_tasks_executed_total{worker=\"0\"} 10"));
        assert!(text.contains("hbp_tasks_executed_total{worker=\"1\"} 11"));
        assert!(text.contains("# TYPE hbp_steals_failed_total counter"));
        assert!(text.contains("hbp_steals_failed_total{worker=\"0\"} 2"));
        assert!(text.contains("hbp_parks_total{worker=\"0\"} 1"));
        assert!(text.contains("hbp_job_latency_ns_count 2"));
        // Cumulative buckets: +Inf equals the count.
        assert!(text.contains("hbp_job_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hbp_job_latency_ns_bucket{le=\"1023\"} 1"));
        assert!(text.contains("hbp_job_latency_ns_bucket{le=\"4095\"} 2"));
    }

    #[test]
    fn json_stable_and_parsable_shape() {
        let s = sample();
        let a = json(&s);
        let b = json(&s);
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"totals\":{\"tasks\":21,\"steals_committed\":6,\"steals_failed\":4}"));
        assert!(a.contains("\"steals_committed\":3,\"steals_failed\":2,\"parks\":1"));
        assert!(a.contains("\"jobs_submitted\":5"));
    }
}
