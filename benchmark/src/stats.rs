//! Estimators. Every quantile here is **nearest-rank** on the sorted
//! sample (rank = ⌈q·n⌉), except [`quartiles`], which reproduces Python's
//! `statistics.quantiles(values, n=4)` because that is what the gate
//! that accepts or rejects this benchmark computes spreads with.
//!
//! Round-based workloads never take a percentile over a mix of different
//! operations: each op keeps its own sample, and a workload metric is the
//! **sum over the op set of a per-op quantile** ([`OpSamples::sum_quantile`]).
//! Host contention arrives in bursts, so a low quantile of many short
//! repeats sees through it where a mean, a total or a tail does not (see
//! README.md, "What the host noise looks like").

/// Nearest-rank quantile of an unsorted sample (`q` in [0, 1]; 0 is the
/// minimum). Panics on an empty sample: a metric with no samples is a
/// harness bug.
pub fn quantile<T: Copy + PartialOrd>(sample: &[T], q: f64) -> T {
    assert!(!sample.is_empty(), "quantile of an empty sample");
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median<T: Copy + PartialOrd>(sample: &[T]) -> T {
    quantile(sample, 0.5)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut x = values.to_vec();
    x.sort_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
    let (len, n) = (x.len(), 4usize);
    let cut = |i: usize| {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        (x[j - 1] * (n as f64 - delta) + x[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the "spread" every
/// repeatability statement in this benchmark uses.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Timed steps (nanoseconds) of one repetition of a fixed sequence of
/// work — one set-up.
#[derive(Default)]
pub struct Steps {
    /// Single-threaded or fork-join compute: the same instructions every
    /// repetition, so the minimum over the repetitions is what the step
    /// costs in a quiet moment on the host.
    pub fixed: Vec<u64>,
    /// Steps that serve requests across client, dispatcher and worker
    /// threads. They have no quiet-moment floor — about one scenario in
    /// six runs 1.5x faster because no vCPU halted between requests — so
    /// they count at their median over the repetitions.
    pub loaded: Vec<u64>,
}

impl Steps {
    /// Run `f` as the next fixed step.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let r = f();
        self.fixed.push(t.elapsed().as_nanos() as u64);
        r
    }
}

/// What the sequence costs: Σ over fixed steps of the step's minimum
/// over the repetitions, plus Σ over loaded steps of the step's median.
pub fn setup_ns(reps: &[Steps]) -> u64 {
    let first = reps.first().expect("at least one repetition");
    assert!(
        reps.iter()
            .all(|r| r.fixed.len() == first.fixed.len() && r.loaded.len() == first.loaded.len()),
        "every repetition runs the same steps"
    );
    let across = |step: fn(&Steps) -> &Vec<u64>, i: usize| -> Vec<u64> {
        reps.iter().map(|r| step(r)[i]).collect()
    };
    let fixed: u64 = (0..first.fixed.len())
        .map(|i| quantile(&across(|r| &r.fixed, i), 0.0))
        .sum();
    let loaded: u64 = (0..first.loaded.len())
        .map(|i| median(&across(|r| &r.loaded, i)))
        .sum();
    fixed + loaded
}

/// Timed samples (nanoseconds) of a fixed, ordered set of operations that
/// a round-based workload repeats round after round.
pub struct OpSamples {
    /// `ns[op]` holds one sample per round.
    pub ns: Vec<Vec<u64>>,
}

impl OpSamples {
    pub fn new(ops: usize) -> Self {
        Self {
            ns: vec![Vec::new(); ops],
        }
    }

    pub fn push(&mut self, op: usize, ns: u64) {
        self.ns[op].push(ns);
    }

    /// Σ over ops of the op's nearest-rank `q`-quantile, in nanoseconds.
    pub fn sum_quantile(&self, q: f64) -> f64 {
        self.ns.iter().map(|s| quantile(s, q) as f64).sum()
    }

    /// One op's nearest-rank `q`-quantile in microseconds.
    pub fn op_us(&self, op: usize, q: f64) -> f64 {
        quantile(&self.ns[op], q) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&s, 0.25), 25);
        assert_eq!(median(&s), 50);
        assert_eq!(quantile(&s, 0.95), 95);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(median(&[7u64]), 7);
        // Rank rounds up and never leaves the sample.
        assert_eq!(median(&[1u64, 2]), 1);
        assert_eq!(quantile(&[1u64, 2, 3], 0.34), 2);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.01), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        assert_eq!(spread(&[5.0, 4.0, 3.0, 2.0, 1.0]), 1.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn set_up_sums_fixed_minima_and_loaded_medians() {
        let rep = |fixed: [u64; 3], loaded: u64| Steps {
            fixed: fixed.to_vec(),
            loaded: vec![loaded],
        };
        let reps = [
            rep([10, 200, 30], 500),
            rep([12, 100, 90], 900),
            rep([50, 150, 31], 700),
        ];
        assert_eq!(setup_ns(&reps), 10 + 100 + 30 + 700);
        let mut s = Steps::default();
        assert_eq!(s.time(|| 7), 7);
        assert_eq!((s.fixed.len(), s.loaded.len()), (1, 0));
    }

    #[test]
    fn sum_of_per_op_quantiles_ignores_a_burst_on_one_op() {
        let mut ops = OpSamples::new(2);
        for round in 0..8u64 {
            // Op a is steady at 10; op b is 100 except for two bursts.
            ops.push(0, 10);
            ops.push(1, if round >= 6 { 10_000 } else { 100 });
        }
        assert_eq!(ops.sum_quantile(0.0), 110.0);
        assert_eq!(ops.sum_quantile(0.25), 110.0);
        assert_eq!(ops.sum_quantile(0.5), 110.0);
        assert_eq!(ops.sum_quantile(1.0), 10_010.0);
        assert_eq!(ops.op_us(1, 0.5), 0.1);
    }
}
