//! Chrome-trace (a.k.a. Trace Event Format) JSON export.
//!
//! The output loads in `chrome://tracing` and <https://ui.perfetto.dev>:
//! one *process* per exported trace (so a multi-algorithm run like
//! `HBP_TRACE=1 table1` renders as parallel process lanes), one *thread*
//! per worker, complete (`"ph":"X"`) events for execution segments,
//! instant events for steals / failed probes / region attaches, and
//! counter tracks for the cache-miss deltas.
//!
//! Timestamps: Chrome expects microseconds. Virtual-time traces export
//! one virtual unit as one microsecond; wall-clock traces divide
//! nanoseconds by 1000 (keeping sub-µs precision as fractions).

use crate::event::{ClockDomain, EventKind};
use crate::json::escape;
use crate::trace::Trace;

/// Export one trace as Chrome-trace JSON.
pub fn chrome_trace(trace: &Trace) -> String {
    chrome_trace_multi([("hbp", trace)])
}

/// Export several named traces into one Chrome-trace JSON document,
/// one process lane per entry.
pub fn chrome_trace_multi<'a>(entries: impl IntoIterator<Item = (&'a str, &'a Trace)>) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (pid0, (name, trace)) in entries.into_iter().enumerate() {
        let pid = pid0 + 1;
        emit_process(&mut out, &mut first, pid, name, trace);
    }
    out.push_str("\n]}\n");
    out
}

fn emit_process(out: &mut String, first: &mut bool, pid: usize, name: &str, trace: &Trace) {
    let ts = |t: u64| -> String {
        match trace.clock {
            ClockDomain::Virtual => format!("{t}"),
            ClockDomain::WallNs => format!("{:.3}", t as f64 / 1000.0),
        }
    };
    let mut push = |line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    push(format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ));
    push(format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{pid}}}}}"
    ));
    for w in 0..trace.workers {
        push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{w},\"name\":\"thread_name\",\"args\":{{\"name\":\"worker {w}\"}}}}"
        ));
    }

    // Execution segments as complete events.
    for s in &trace.segments().segs {
        let misses = if [s.heap_block, s.stack_block, s.stack_plain] != [0; 3] {
            format!(
                ",\"heap_block\":{},\"stack_block\":{},\"stack_plain\":{}",
                s.heap_block, s.stack_block, s.stack_plain
            )
        } else {
            String::new()
        };
        push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"task {}\",\"cat\":\"task\",\"args\":{{\"task\":{}{}}}}}",
            s.worker,
            ts(s.start),
            ts(s.end - s.start),
            s.task,
            s.task,
            misses
        ));
    }

    // Instant events and miss counters.
    let mut cum = vec![(0u64, 0u64, 0u64); trace.workers];
    for ev in &trace.events {
        let w = ev.worker;
        match ev.kind {
            EventKind::StealCommit { task, victim, .. } => {
                push(format!(
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{w},\"ts\":{},\"s\":\"t\",\"name\":\"steal task {task} <- w{victim}\",\"cat\":\"steal\"}}",
                    ts(ev.t)
                ))
            }
            EventKind::StealFail => push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{w},\"ts\":{},\"s\":\"t\",\"name\":\"steal fail\",\"cat\":\"steal\"}}",
                ts(ev.t)
            )),
            EventKind::RegionAttach { task, region } => push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{w},\"ts\":{},\"s\":\"t\",\"name\":\"region {region} for task {task}\",\"cat\":\"region\"}}",
                ts(ev.t)
            )),
            EventKind::MissDelta { heap_block, stack_block, stack_plain } => {
                let c = &mut cum[w as usize];
                c.0 += u64::from(heap_block);
                c.1 += u64::from(stack_block);
                c.2 += u64::from(stack_plain);
                push(format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{w},\"ts\":{},\"name\":\"misses w{w}\",\"args\":{{\"heap_block\":{},\"stack_block\":{},\"stack_plain\":{}}}}}",
                    ts(ev.t), c.0, c.1, c.2
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::sink::TraceSink;

    #[test]
    fn export_parses_and_has_segment_and_steal_events() {
        let sink = TraceSink::with_capacity(2, ClockDomain::Virtual, 64);
        sink.push(0, 0, EventKind::TaskBegin { task: 0 });
        sink.push(
            0,
            4,
            EventKind::Fork {
                parent: 0,
                left: 1,
                right: 2,
            },
        );
        sink.push(0, 4, EventKind::TaskBegin { task: 1 });
        sink.push(
            1,
            6,
            EventKind::StealCommit {
                task: 2,
                victim: 0,
                count: 1,
            },
        );
        sink.push(1, 10, EventKind::TaskBegin { task: 2 });
        sink.push(
            1,
            12,
            EventKind::MissDelta {
                heap_block: 3,
                stack_block: 1,
                stack_plain: 0,
            },
        );
        sink.push(1, 12, EventKind::TaskEnd { task: 2 });
        sink.push(0, 13, EventKind::TaskEnd { task: 1 });
        let json = chrome_trace(&sink.collect());
        let doc = json::parse(&json).expect("exported chrome trace must parse");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(events.len() >= 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"X"), "segment events present");
        assert!(phases.contains(&"i"), "instant events present");
        assert!(phases.contains(&"C"), "counter events present");
        assert!(phases.contains(&"M"), "metadata events present");
    }
}
