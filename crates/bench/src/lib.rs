//! Shared helpers for the experiment binaries (`src/bin/*`): growth-rate
//! fitting, standard machine grids, table formatting, and the trace
//! tools' argument parser.
//!
//! Each binary regenerates one table/figure of the paper; its module
//! docs say which, and the README's "Experiments" section lists them all.

use hbp_core::prelude::*;

/// Log-log slope between two measurements — the measured growth exponent.
pub fn growth_exponent(n1: f64, w1: f64, n2: f64, w2: f64) -> f64 {
    (w2 / w1).ln() / (n2 / n1).ln()
}

/// Problem size for the native-backend figure paths: the figure's
/// default, unless `HBP_FIG_N` overrides it (the CI smoke step uses this
/// to run the native paths on tiny inputs). Rounded *down* to a power of
/// two, which the FFT (and the matrix-side derivation) require — a
/// figure run must not abort mid-table on an odd override.
pub fn fig_size(default: usize) -> usize {
    let n = match std::env::var("HBP_FIG_N") {
        Ok(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => panic!("HBP_FIG_N must be a positive integer, got {s:?}"),
        },
        Err(_) => default,
    };
    if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    }
}

/// Matrix side matching a linear problem size `n`: the power of two
/// nearest to `√n` from below, at least 16 (so the matrix kernels and
/// the linear kernels move comparable data volumes in the native runs).
pub fn matrix_side_for(n: usize) -> usize {
    let mut side = 16usize;
    while side * side * 4 <= n.max(1) {
        side *= 2;
    }
    side
}

/// The `<algo-prefix> [n]` arguments `trace_report` and `trace_diff`
/// share: `algo-prefix` resolves as in [`find`] (default `FFT`); `n` is a
/// positive integer — elements for linear kernels, the matrix side for
/// matrix kernels (defaults 4096 / 32). The error is the usage message:
/// an unknown algorithm lists every known row.
pub fn parse_algo_n(args: &[String]) -> Result<(&'static AlgoSpec, usize), String> {
    let algo = args.first().map_or("FFT", String::as_str);
    let spec = find(algo).map_or_else(|| try_lookup(algo), Ok)?;
    let n = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("n must be a positive integer, got {s:?}"))?,
        None => match spec.size {
            SizeKind::Linear => 4096,
            SizeKind::MatrixSide => 32,
        },
    };
    Ok((spec, n))
}

/// Average the RWS results over `seeds` for a fair randomized baseline.
pub fn rws_avg(comp: &Computation, cfg: MachineConfig, seeds: &[u64]) -> RwsSummary {
    let mut s = RwsSummary::default();
    for &seed in seeds {
        let r = run(comp, cfg, Policy::Rws { seed });
        s.makespan += r.makespan as f64;
        s.plain_misses += r.plain_misses() as f64;
        s.block_misses += r.block_misses() as f64;
        s.steals += r.steals as f64;
        s.attempts += r.steal_attempts as f64;
    }
    let k = seeds.len() as f64;
    s.makespan /= k;
    s.plain_misses /= k;
    s.block_misses /= k;
    s.steals /= k;
    s.attempts /= k;
    s
}

/// Averaged RWS metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct RwsSummary {
    /// Mean makespan.
    pub makespan: f64,
    /// Mean plain (cold+capacity) misses.
    pub plain_misses: f64,
    /// Mean coherence (block) misses.
    pub block_misses: f64,
    /// Mean successful steals.
    pub steals: f64,
    /// Mean steal attempts.
    pub attempts: f64,
}

/// Print a rule line matching a header width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_quadratic_is_two() {
        let e = growth_exponent(8.0, 64.0, 16.0, 256.0);
        assert!((e - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fig_size_rounds_down_to_a_power_of_two() {
        // Robust to an ambient HBP_FIG_N: every value this helper returns
        // must be a power of two (the native FFT path's precondition).
        for default in [1usize, 7, 1000, 1 << 14, (1 << 14) + 1] {
            let n = fig_size(default);
            assert!(n.is_power_of_two(), "fig_size({default}) = {n}");
            if std::env::var("HBP_FIG_N").is_err() {
                assert!(n <= default && default < 2 * n);
            }
        }
    }

    #[test]
    fn matrix_side_is_a_power_of_two_floor() {
        assert_eq!(matrix_side_for(1), 16);
        assert_eq!(matrix_side_for(1 << 10), 32);
        assert_eq!(matrix_side_for(1 << 18), 512);
        assert!(matrix_side_for(1 << 20).is_power_of_two());
    }

    #[test]
    fn algo_n_parser_defaults_resolves_prefixes_and_rejects_bad_sizes() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_algo_n(&args).map(|(spec, n)| (spec.name, n))
        };
        assert_eq!(parse(&[]), Ok(("FFT", 4096)));
        assert_eq!(parse(&["strassen"]), Ok(("Strassen", 32)));
        assert_eq!(parse(&["Sort", "512"]), Ok(("Sort (SPMS)", 512)));
        for bad in ["0", "-3", "4k", ""] {
            let err = parse(&["FFT", bad]).expect_err(bad);
            assert!(
                err.contains("positive integer") && err.contains(bad),
                "{err}"
            );
        }
        let err = parse(&["no such algo"]).unwrap_err();
        assert!(
            err.contains("known rows") && err.contains("Sort (SPMS)"),
            "{err}"
        );
    }

    #[test]
    fn rws_avg_runs() {
        let data: Vec<u64> = (0..256).collect();
        let (comp, _) = hbp_core::algos::scan::m_sum(&data, BuildConfig::default());
        let s = rws_avg(&comp, MachineConfig::new(4, 1 << 10, 32), &[1, 2]);
        assert!(s.makespan > 0.0);
    }
}
