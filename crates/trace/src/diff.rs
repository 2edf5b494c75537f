//! Structural trace diffing: summarize two traces of the same kernel
//! and report where they diverge.
//!
//! [`diff`] runs [`summarize`] once per side and compares the two
//! [`TraceSummary`]s. Traces are aligned **by task id**: on the sim
//! backend task ids are the recorded computation's node ids, so two runs
//! of the same kernel under different policies (or before/after a
//! scheduler change) share an id space and their critical paths can be
//! compared hop by hop. On the native backend ids are fork ordinals —
//! scheduling-dependent names — so the comparison degrades to the
//! structural checks: same task-id *set*, same fork/begin/end tallies,
//! every begun task ended. Two pools executing the same kernel must
//! pass those even though every timestamp differs.

use std::collections::BTreeSet;

use crate::analyze::{summarize, TraceSummary};
use crate::critical::CriticalPath;
use crate::event::EventKind;
use crate::trace::Trace;

/// First hop index at which two critical paths part ways.
#[derive(Debug, Clone)]
pub struct CpDivergence {
    /// Index into both hop lists (root-start = 0).
    pub hop: usize,
    /// `(task, worker)` of the hop in trace A (`None` when A's path is
    /// a strict prefix of B's).
    pub a: Option<(u32, u32)>,
    /// `(task, worker)` of the hop in trace B (`None` symmetric).
    pub b: Option<(u32, u32)>,
}

/// The result of [`diff`]: both summaries, the id-set alignment, and
/// (for sim traces) where the critical paths part.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Summary of trace A.
    pub a: TraceSummary,
    /// Summary of trace B.
    pub b: TraceSummary,
    /// Task ids begun in A but not in B (alignment leftovers; capped at
    /// [`TraceDiff::ID_CAP`] entries, `only_a_total` is the real count).
    pub only_a: Vec<u32>,
    /// Total ids only in A.
    pub only_a_total: u64,
    /// Task ids begun in B but not in A (same cap).
    pub only_b: Vec<u32>,
    /// Total ids only in B.
    pub only_b_total: u64,
    /// Where the two critical paths first diverge (`None` when either
    /// path is unavailable, or when they visit identical
    /// task-on-worker hops).
    pub divergence: Option<CpDivergence>,
}

impl TraceDiff {
    /// Listing cap for the `only_*` id vectors.
    pub const ID_CAP: usize = 16;

    /// Whether the two traces execute the same task structure: same
    /// task-id set, same fork/begin/end tallies, both balanced and
    /// complete. Timestamps, workers, and steal counts may differ
    /// freely — this is the invariant two *correct* schedulers of the
    /// same kernel must share.
    pub fn structurally_equal(&self) -> bool {
        self.only_a_total == 0
            && self.only_b_total == 0
            && self.a.tasks == self.b.tasks
            && self.a.forks == self.b.forks
            && self.a.complete()
            && self.b.complete()
    }
}

/// Align `a` and `b` by task id and compare (see module docs).
pub fn diff(a: &Trace, b: &Trace) -> TraceDiff {
    let begun = |t: &Trace| -> BTreeSet<u32> {
        t.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskBegin { task } => Some(task),
                _ => None,
            })
            .collect()
    };
    let (ids_a, ids_b) = (begun(a), begun(b));
    let only_a_all: Vec<u32> = ids_a.difference(&ids_b).copied().collect();
    let only_b_all: Vec<u32> = ids_b.difference(&ids_a).copied().collect();

    let (sa, sb) = (summarize(a), summarize(b));
    let divergence = match (&sa.critical, &sb.critical) {
        (Ok(pa), Ok(pb)) => {
            let key = |p: &CriticalPath, i: usize| p.hops.get(i).map(|h| (h.task, h.worker));
            (0..pa.hops.len().max(pb.hops.len()))
                .find(|&i| key(pa, i) != key(pb, i))
                .map(|i| CpDivergence {
                    hop: i,
                    a: key(pa, i),
                    b: key(pb, i),
                })
        }
        _ => None,
    };

    TraceDiff {
        a: sa,
        b: sb,
        only_a_total: only_a_all.len() as u64,
        only_a: only_a_all.into_iter().take(TraceDiff::ID_CAP).collect(),
        only_b_total: only_b_all.len() as u64,
        only_b: only_b_all.into_iter().take(TraceDiff::ID_CAP).collect(),
        divergence,
    }
}

impl std::fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let row = |f: &mut std::fmt::Formatter<'_>, name: &str, a: u64, b: u64| {
            let mark = if a == b { " " } else { "≠" };
            writeln!(f, "  {name:<14} {a:>12} {b:>12}  {mark}")
        };
        writeln!(f, "  {:<14} {:>12} {:>12}", "", "A", "B")?;
        row(f, "tasks", self.a.tasks, self.b.tasks)?;
        row(f, "forks", self.a.forks, self.b.forks)?;
        row(f, "begins", self.a.begins, self.b.begins)?;
        row(f, "ends", self.a.ends, self.b.ends)?;
        row(f, "steals", self.a.steals, self.b.steals)?;
        row(f, "stolen tasks", self.a.stolen_tasks, self.b.stolen_tasks)?;
        row(f, "steal fails", self.a.steal_fails, self.b.steal_fails)?;
        row(f, "makespan", self.a.makespan, self.b.makespan)?;
        row(f, "dropped", self.a.dropped, self.b.dropped)?;
        let miss_sum = |m: (u64, u64, u64)| m.0 + m.1 + m.2;
        if miss_sum(self.a.misses) + miss_sum(self.b.misses) > 0 {
            writeln!(
                f,
                "  {:<14} {:>12} {:>12}   (heap block / stack block / stack plain; \
                 predicted vs measured — not compared)",
                "misses",
                format!(
                    "{}/{}/{}",
                    self.a.misses.0, self.a.misses.1, self.a.misses.2
                ),
                format!(
                    "{}/{}/{}",
                    self.b.misses.0, self.b.misses.1, self.b.misses.2
                ),
            )?;
        }
        if self.only_a_total + self.only_b_total > 0 {
            writeln!(
                f,
                "  id alignment: {} task(s) only in A {:?}, {} only in B {:?}",
                self.only_a_total, self.only_a, self.only_b_total, self.only_b
            )?;
        } else {
            writeln!(f, "  id alignment: identical task-id sets")?;
        }
        match (&self.a.critical, &self.b.critical) {
            (Ok(pa), Ok(pb)) => {
                writeln!(
                    f,
                    "  critical path: A = {} (work {} + steal {} + wait {}, {} hops) | \
                     B = {} (work {} + steal {} + wait {}, {} hops)",
                    pa.total,
                    pa.work,
                    pa.steal,
                    pa.queue_wait,
                    pa.hops.len(),
                    pb.total,
                    pb.work,
                    pb.steal,
                    pb.queue_wait,
                    pb.hops.len()
                )?;
                match &self.divergence {
                    None => writeln!(f, "  critical paths visit identical hops")?,
                    Some(d) => {
                        let side = |s: &Option<(u32, u32)>| match s {
                            Some((t, w)) => format!("task {t} on worker {w}"),
                            None => "path already ended".to_string(),
                        };
                        writeln!(
                            f,
                            "  critical paths diverge at hop {}: A runs {}, B runs {}",
                            d.hop,
                            side(&d.a),
                            side(&d.b)
                        )?;
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => writeln!(f, "  critical path: unavailable: {e}")?,
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{ClockDomain, TraceEvent};

    fn ev(seq: u64, t: u64, worker: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            t,
            worker,
            kind,
        }
    }

    /// A tiny two-worker sim-style trace: root forks task 1, worker 1
    /// steals it; both run to completion.
    pub(crate) fn steal_trace(stolen_by: u32) -> Trace {
        Trace {
            clock: ClockDomain::Virtual,
            workers: 2,
            events: vec![
                ev(1, 0, 0, EventKind::TaskBegin { task: 0 }),
                ev(
                    2,
                    2,
                    0,
                    EventKind::Fork {
                        parent: 0,
                        left: 2,
                        right: 1,
                    },
                ),
                ev(3, 2, 0, EventKind::TaskBegin { task: 2 }),
                ev(4, 4, 0, EventKind::TaskEnd { task: 2 }),
                ev(
                    5,
                    3,
                    stolen_by,
                    EventKind::StealCommit {
                        task: 1,
                        victim: 0,
                        count: 1,
                    },
                ),
                ev(6, 4, stolen_by, EventKind::TaskBegin { task: 1 }),
                ev(7, 6, stolen_by, EventKind::TaskEnd { task: 1 }),
                ev(8, 6, stolen_by, EventKind::JoinResume { task: 0 }),
                ev(9, 7, stolen_by, EventKind::TaskEnd { task: 0 }),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn identical_traces_diff_clean() {
        let t = steal_trace(1);
        let d = diff(&t, &t);
        assert!(d.structurally_equal());
        assert_eq!(d.only_a_total + d.only_b_total, 0);
        assert!(d.divergence.is_none(), "{:?}", d.divergence);
        assert_eq!(d.a, d.b);
        let text = d.to_string();
        assert!(text.contains("identical task-id sets"), "{text}");
        assert!(text.contains("identical hops"), "{text}");
    }

    #[test]
    fn different_thief_diverges_on_the_critical_path_but_not_structure() {
        // Same computation, same task ids — only the executing worker
        // of the stolen task changes (a scheduling difference).
        let d = diff(&steal_trace(1), &steal_trace(0));
        assert!(
            d.structurally_equal(),
            "structure is worker-independent: {d}"
        );
        let div = d.divergence.clone().expect("paths visit different workers");
        assert_eq!(div.a.map(|(t, _)| t), div.b.map(|(t, _)| t));
        assert_ne!(div.a.map(|(_, w)| w), div.b.map(|(_, w)| w));
        assert!(d.to_string().contains("diverge at hop"), "{d}");
    }

    /// A native-style trace where worker 0 forks tasks 1..=3 and worker
    /// 1 takes all three — either in one batched claiming sequence
    /// (`batched = true`: a single `StealCommit` with `count: 3`) or as
    /// three separate commits. Task structure is identical either way.
    fn batch_trace(batched: bool) -> Trace {
        let mut events = vec![ev(1, 0, 0, EventKind::TaskBegin { task: 0 })];
        let mut seq = 2;
        for t in 1..=3u32 {
            events.push(ev(
                seq,
                seq,
                0,
                EventKind::Fork {
                    parent: 0,
                    left: 0,
                    right: t,
                },
            ));
            seq += 1;
        }
        if batched {
            events.push(ev(
                seq,
                seq,
                1,
                EventKind::StealCommit {
                    task: 1,
                    victim: 0,
                    count: 3,
                },
            ));
            seq += 1;
        } else {
            for t in 1..=3u32 {
                events.push(ev(
                    seq,
                    seq,
                    1,
                    EventKind::StealCommit {
                        task: t,
                        victim: 0,
                        count: 1,
                    },
                ));
                seq += 1;
            }
        }
        for t in 1..=3u32 {
            events.push(ev(seq, seq, 1, EventKind::TaskBegin { task: t }));
            events.push(ev(seq + 1, seq + 1, 1, EventKind::TaskEnd { task: t }));
            seq += 2;
        }
        events.push(ev(seq, seq, 0, EventKind::TaskEnd { task: 0 }));
        Trace {
            clock: ClockDomain::WallNs,
            workers: 2,
            events,
            dropped: 0,
        }
    }

    #[test]
    fn batched_steals_do_not_break_structural_equality() {
        // Regression: one StealCommit covering k tasks must compare
        // structurally equal to k single-task commits — batching is a
        // scheduling choice, not a change to the computation.
        let d = diff(&batch_trace(true), &batch_trace(false));
        assert!(d.structurally_equal(), "batched steal flagged: {d}");
        assert_eq!(d.a.stolen_tasks, 3);
        assert_eq!(d.b.stolen_tasks, 3);
        assert_eq!(d.a.steals, 1, "one claiming sequence on the batched side");
        assert_eq!(d.b.steals, 3);
        let text = d.to_string();
        assert!(text.contains("stolen tasks"), "{text}");
    }

    #[test]
    fn miss_deltas_tally_per_side_without_breaking_equality() {
        // A sim trace predicting misses vs a native-style trace
        // measuring different ones: the totals surface side by side but
        // never participate in structural equality.
        let a = steal_trace(1);
        let mut b = steal_trace(1);
        b.events.push(ev(
            10,
            6,
            1,
            EventKind::MissDelta {
                heap_block: 7,
                stack_block: 3,
                stack_plain: 1,
            },
        ));
        let d = diff(&a, &b);
        assert!(d.structurally_equal(), "miss deltas are advisory: {d}");
        assert_eq!(d.a.misses, (0, 0, 0));
        assert_eq!(d.b.misses, (7, 3, 1));
        assert!(d.a.complete() && d.b.complete());
        assert!(d.to_string().contains("7/3/1"), "{d}");
    }

    #[test]
    fn incomplete_side_fails_the_per_side_check() {
        let mut t = steal_trace(1);
        t.events
            .retain(|e| !matches!(e.kind, EventKind::TaskEnd { task: 2 }));
        let d = diff(&t, &t);
        assert!(!d.a.complete(), "unended task must fail completeness");
        let mut dr = steal_trace(1);
        dr.dropped = 5;
        let d2 = diff(&dr, &dr);
        assert!(!d2.a.complete(), "dropped events must fail completeness");
        assert!(d2.to_string().contains("dropped"), "{d2}");
    }

    #[test]
    fn missing_task_breaks_alignment() {
        let a = steal_trace(1);
        let mut b = steal_trace(1);
        // Drop task 2's begin/end from B: the id sets no longer align.
        b.events.retain(|e| {
            !matches!(
                e.kind,
                EventKind::TaskBegin { task: 2 } | EventKind::TaskEnd { task: 2 }
            )
        });
        let d = diff(&a, &b);
        assert!(!d.structurally_equal());
        assert_eq!(d.only_a, vec![2]);
        assert_eq!(d.only_b_total, 0);
        assert!(d.to_string().contains("only in A"), "{d}");
    }
}
