//! The benchmark's own in-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public
//! function: name (`<layer>.<call>`), start, end, the span that caused
//! it, and the round/request id the spans of one round share. Counts are
//! recorded at the same boundaries. Nothing is written until the run
//! ends ([`Tracer::write`]). A layer's **self time** is its span's
//! duration minus the part its child spans cover. End-to-end metrics
//! never come from a traced run; spans *inside* the program are a later
//! change.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name rollup of a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a plain pass-through,
    /// so the untraced run executes the same code path minus the clock
    /// reads and the push.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// A leaf span around `f` that also returns `f`'s duration in
    /// nanoseconds — taken by its own clock reads, so the sample is the
    /// same measurement whether the recorder is on or off.
    pub fn timed<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, u64) {
        self.span(name, id, |_| {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_nanos() as u64)
        })
    }

    /// Add `n` to the boundary count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of the recorded time that is the harness's own: self time
    /// of the `bench.*` spans ÷ total of the root spans. Everything else
    /// was spent inside calls into the program.
    pub fn harness_share(&self) -> f64 {
        harness_share(&self.spans)
    }

    /// The trace file: per-name self-time rollup, boundary counts, and
    /// every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"self_time\": {{\n"
        );
        let rollup = self_times(&self.spans);
        for (i, (name, st)) in rollup.iter().enumerate() {
            s.push_str(&format!(
                "    \"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}\n",
                st.calls,
                st.total_ns,
                st.self_ns,
                if i + 1 < rollup.len() { "," } else { "" }
            ));
        }
        s.push_str("  },\n  \"counts\": {");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            s.push_str(&format!("{}\"{name}\": {n}", if i > 0 { ", " } else { "" }));
        }
        s.push_str("},\n  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                sp.name,
                sp.id,
                sp.start_ns,
                sp.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the trace file, creating its directory.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}

/// Self time per span name: duration minus the time covered by direct
/// children (children of one span never overlap — the recorder is
/// single-threaded and strictly nested).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_ns[p] += sp.end_ns - sp.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, sp) in spans.iter().enumerate() {
        let dur = sp.end_ns - sp.start_ns;
        let e = out.entry(sp.name).or_default();
        e.calls += 1;
        e.total_ns += dur;
        e.self_ns += dur - child_ns[i];
    }
    out
}

fn harness_share(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|sp| sp.parent.is_none())
        .map(|sp| sp.end_ns - sp.start_ns)
        .sum();
    let own: u64 = self_times(spans)
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, st)| st.self_ns)
        .sum();
    own as f64 / roots.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // round [0,100] ⊃ gen [10,30], run [30,90] ⊃ inner [40,60].
        let spans = [
            sp("round", None, 0, 100),
            sp("gen", Some(0), 10, 30),
            sp("run", Some(0), 30, 90),
            sp("inner", Some(2), 40, 60),
            sp("round", None, 100, 150),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["round"],
            SelfTime {
                calls: 2,
                total_ns: 150,
                self_ns: 70
            }
        );
        assert_eq!(st["gen"].self_ns, 20);
        // Grandchildren are charged to their parent only.
        assert_eq!(st["run"].self_ns, 40);
        assert_eq!(st["inner"].self_ns, 20);
        let total_self: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 150, "self times partition the root spans");
    }

    #[test]
    fn harness_share_is_the_bench_spans_self_time() {
        // bench.round [0,100] ⊃ core.gen [10,30], pool.run [30,90].
        let spans = [
            sp("bench.round", None, 0, 100),
            sp("core.gen", Some(0), 10, 30),
            sp("pool.run", Some(0), 30, 90),
        ];
        assert_eq!(harness_share(&spans), 0.2);
        assert_eq!(harness_share(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_passes_through_when_off() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", 7, |tr| {
            tr.count("outer.calls", 2);
            tr.span("inner", 7, |_| 41) + 1
        });
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = tr.to_json("w", 1);
        assert!(hbp_core::trace::json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"outer.calls\": 2"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |tr| tr.span("y", 0, |_| 5)), 5);
        off.count("c", 1);
        assert!(off.spans().is_empty());
    }
}
