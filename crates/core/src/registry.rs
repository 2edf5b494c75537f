//! The Table-1 algorithm registry: one entry per row of the paper's
//! Table 1, with the claimed structural parameters, a builder that
//! produces the recorded computation for a given problem size, and —
//! for the rows the native backend serves — the `par_*` kernel that runs
//! the same input on the real pool.
//!
//! This is the **only** kernel table in the workspace: which rows exist,
//! what input each runs on and which of them have a native kernel are all
//! read off [`registry`] (`tests/env_surface.rs` fails when another file
//! under `crates/*/src` names a `par::par_*` kernel).

use hbp_algos::{cc, fft, gen, layout, listrank, mm, mt, par, scan, sort, spms, strassen};
use hbp_model::{BuildConfig, Computation, Cx};

/// How an algorithm's "input size n" maps to elements processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeKind {
    /// `n` is the element count.
    Linear,
    /// `n` is the matrix side; the input has `n²` elements.
    MatrixSide,
}

impl SizeKind {
    /// The size that fits this kind: `linear` for a linear row, `side`
    /// for a matrix row.
    pub fn pick(self, linear: usize, side: usize) -> usize {
        match self {
            SizeKind::Linear => linear,
            SizeKind::MatrixSide => side,
        }
    }
}

/// One row of Table 1.
pub struct AlgoSpec {
    /// Paper's name for the algorithm.
    pub name: &'static str,
    /// HBP type (Table 1 column "Type").
    pub hbp_type: u8,
    /// Claimed cache-friendliness `f(r)`.
    pub f_claim: &'static str,
    /// Claimed block-sharing `L(r)`.
    pub l_claim: &'static str,
    /// Claimed work `W(n)`.
    pub w_claim: &'static str,
    /// Claimed depth `T∞(n)`.
    pub t_claim: &'static str,
    /// Claimed sequential cache complexity `Q(n, M, B)`.
    pub q_claim: &'static str,
    /// Input-size semantics.
    pub size: SizeKind,
    /// Build the recorded computation for problem size `n` (elements or
    /// matrix side per [`AlgoSpec::size`]), block size from `cfg`.
    pub build: fn(n: usize, cfg: BuildConfig, seed: u64) -> Computation,
    /// The native kernel on the input [`AlgoSpec::build`] records, or
    /// `None` for rows the native backend does not serve (the layout
    /// conversions, CC, Depth-n-MM). The input is generated *inside this
    /// call* and moved into the returned root closure, so running the
    /// closure times the `hbp_algos::par` kernel alone.
    pub native: Option<fn(n: usize, seed: u64) -> Box<dyn FnOnce() + Send>>,
}

impl AlgoSpec {
    /// Number of input elements for problem size `n`.
    pub fn elements(&self, n: usize) -> usize {
        self.size.pick(n, n * n)
    }
}

/// BI-layout random matrix of side `n`.
fn bi_matrix(n: usize, seed: u64) -> Vec<f64> {
    layout::to_bi(&gen::random_matrix(n, seed), n)
}

fn bi_matrix_u64(n: usize, seed: u64) -> Vec<u64> {
    layout::to_bi(&gen::random_u64s(n * n, 1 << 40, seed), n)
}

/// The scan rows' input.
fn scan_input(n: usize, seed: u64) -> Vec<u64> {
    gen::random_u64s(n, 1 << 30, seed)
}

/// The FFT row's input: `n` complex points.
fn fft_input(n: usize, seed: u64) -> Vec<Cx> {
    let mut draw = gen::u64_draws(1 << 20, seed);
    // the real part draws first: arguments evaluate left to right
    (0..n)
        .map(|_| Cx::new(draw() as f64 / 1e6, draw() as f64 / 1e6))
        .collect()
}

/// The shared sort workload: random keys with their input position as
/// payload, so both sort rows (and their native kernels) see identical
/// data and stability is observable.
fn sort_input(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut draw = gen::u64_draws(u64::MAX / 2, seed);
    (0..n as u64).map(|i| (draw(), i)).collect()
}

/// All Table-1 rows. The Sort row is the real SPMS
/// (`hbp_algos::spms`); the earlier mergesort stand-in survives as the
/// extra "Sort (merge std-in)" row for A/B comparisons. Each row's two
/// columns `build` and `native` draw the same input from the same seed,
/// so a recorded run and a native run of one row are comparable.
static REGISTRY: [AlgoSpec; 14] = [
    AlgoSpec {
        name: "Scans (M-Sum)",
        hbp_type: 1,
        f_claim: "1",
        l_claim: "1",
        w_claim: "n",
        t_claim: "log n",
        q_claim: "n/B",
        size: SizeKind::Linear,
        build: |n, cfg, seed| scan::m_sum(&scan_input(n, seed), cfg).0,
        native: Some(|n, seed| {
            let a = scan_input(n, seed);
            Box::new(move || {
                par::par_sum(&a);
            })
        }),
    },
    AlgoSpec {
        name: "Scans (PS)",
        hbp_type: 1,
        f_claim: "1",
        l_claim: "1",
        w_claim: "n",
        t_claim: "log n",
        q_claim: "n/B",
        size: SizeKind::Linear,
        build: |n, cfg, seed| scan::prefix_sums(&scan_input(n, seed), cfg).0,
        native: Some(|n, seed| {
            let a = scan_input(n, seed);
            Box::new(move || {
                par::par_prefix(&a);
            })
        }),
    },
    AlgoSpec {
        name: "MT",
        hbp_type: 1,
        f_claim: "1",
        l_claim: "1",
        w_claim: "n^2",
        t_claim: "log n",
        q_claim: "n^2/B",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| mt::transpose_bi(&bi_matrix(n, seed), n, cfg).0,
        native: Some(|n, seed| {
            let mut m = bi_matrix(n, seed);
            Box::new(move || {
                par::par_transpose_bi(&mut m, n);
            })
        }),
    },
    AlgoSpec {
        name: "Strassen",
        hbp_type: 2,
        f_claim: "1",
        l_claim: "1",
        w_claim: "n^2.807",
        t_claim: "log^2 n",
        q_claim: "n^l/(B M^(l/2-1))",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| {
            strassen::strassen_bi(&bi_matrix(n, seed), &bi_matrix(n, seed + 1), n, cfg).0
        },
        native: Some(|n, seed| {
            let a = bi_matrix(n, seed);
            let b = bi_matrix(n, seed + 1);
            Box::new(move || {
                par::par_strassen_bi(&a, &b, n);
            })
        }),
    },
    AlgoSpec {
        name: "RM to BI",
        hbp_type: 1,
        f_claim: "sqrt(r)",
        l_claim: "1",
        w_claim: "n^2",
        t_claim: "log n",
        q_claim: "n^2/B",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| layout::rm_to_bi(&gen::random_u64s(n * n, 1 << 40, seed), n, cfg).0,
        native: None,
    },
    AlgoSpec {
        name: "Direct BI to RM",
        hbp_type: 1,
        f_claim: "sqrt(r)",
        l_claim: "sqrt(r)",
        w_claim: "n^2",
        t_claim: "log n",
        q_claim: "n^2/B",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| layout::bi_to_rm_direct(&bi_matrix_u64(n, seed), n, cfg).0,
        native: None,
    },
    AlgoSpec {
        name: "BI-RM (gap RM)",
        hbp_type: 1,
        f_claim: "sqrt(r)",
        l_claim: "gap",
        w_claim: "n^2",
        t_claim: "log n",
        q_claim: "n^2/B",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| layout::bi_to_rm_gap(&bi_matrix_u64(n, seed), n, cfg).0,
        native: None,
    },
    AlgoSpec {
        name: "BI-RM for FFT",
        hbp_type: 2,
        f_claim: "sqrt(r)",
        l_claim: "1",
        w_claim: "n^2 loglog n",
        t_claim: "log n",
        q_claim: "(n^2/B) log_M n",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| layout::bi_to_rm_fft(&bi_matrix_u64(n, seed), n, cfg).0,
        native: None,
    },
    AlgoSpec {
        name: "FFT",
        hbp_type: 2,
        f_claim: "sqrt(r)",
        l_claim: "1",
        w_claim: "n log n",
        t_claim: "log n loglog n",
        q_claim: "(n/B) log_M n",
        size: SizeKind::Linear,
        build: |n, cfg, seed| fft::fft(&fft_input(n, seed), cfg).0,
        native: Some(|n, seed| {
            let mut x = fft_input(n, seed);
            Box::new(move || {
                par::par_fft(&mut x);
            })
        }),
    },
    AlgoSpec {
        name: "LR",
        hbp_type: 3,
        f_claim: "sqrt(r)",
        l_claim: "gap",
        w_claim: "n log n",
        t_claim: "log^2 n loglog n",
        q_claim: "(n/B) log_M n",
        size: SizeKind::Linear,
        build: |n, cfg, seed| listrank::list_rank(&gen::random_list(n, seed), cfg, true).0,
        native: Some(|n, seed| {
            let succ = gen::random_list(n, seed);
            Box::new(move || {
                par::par_list_rank(&succ);
            })
        }),
    },
    AlgoSpec {
        name: "CC",
        hbp_type: 4,
        f_claim: "sqrt(r)",
        l_claim: "gap",
        w_claim: "n log^2 n",
        t_claim: "log^3 n loglog n",
        q_claim: "(n/B) log_M n log n",
        size: SizeKind::Linear,
        build: |n, cfg, seed| {
            let m = 2 * n;
            cc::connected_components(n, &gen::random_graph(n, m, seed), cfg).0
        },
        native: None,
    },
    AlgoSpec {
        name: "Depth-n-MM",
        hbp_type: 2,
        f_claim: "1",
        l_claim: "1",
        w_claim: "n^3",
        t_claim: "n",
        q_claim: "n^3/(B sqrt(M))",
        size: SizeKind::MatrixSide,
        build: |n, cfg, seed| {
            mm::depth_n_mm(&bi_matrix(n, seed), &bi_matrix(n, seed + 1), n, cfg).0
        },
        native: None,
    },
    AlgoSpec {
        name: "Sort (SPMS)",
        hbp_type: 2,
        f_claim: "sqrt(r)",
        l_claim: "1",
        w_claim: "n log n",
        t_claim: "log n loglog n",
        q_claim: "(n/B) log_M n",
        size: SizeKind::Linear,
        build: |n, cfg, seed| spms::spms(&sort_input(n, seed), cfg).0,
        native: Some(|n, seed| {
            let mut data = sort_input(n, seed);
            Box::new(move || {
                par::par_spms(&mut data);
            })
        }),
    },
    AlgoSpec {
        name: "Sort (merge std-in)",
        hbp_type: 2,
        f_claim: "sqrt(r)",
        l_claim: "1",
        w_claim: "n log^2 n",
        t_claim: "log^3 n",
        q_claim: "(n/B) log n",
        size: SizeKind::Linear,
        build: |n, cfg, seed| sort::mergesort(&sort_input(n, seed), cfg).0,
        native: Some(|n, seed| {
            let mut data = sort_input(n, seed);
            Box::new(move || {
                par::par_mergesort(&mut data);
            })
        }),
    },
];

/// All Table-1 rows, in table order.
pub fn registry() -> &'static [AlgoSpec] {
    &REGISTRY
}

/// Look up a registry entry by (case-insensitive prefix of) name.
/// An *exact* match wins over a prefix match, so "Sort (SPMS)" is never
/// shadowed by another row starting with the same words.
pub fn find(name: &str) -> Option<&'static AlgoSpec> {
    let matches = || {
        REGISTRY.iter().filter(|a| {
            let head = a.name.as_bytes().get(..name.len());
            head.is_some_and(|head| head.eq_ignore_ascii_case(name.as_bytes()))
        })
    };
    // An exact match is a prefix match of the full length.
    matches()
        .find(|a| a.name.len() == name.len())
        .or_else(|| matches().next())
}

/// Look up a registry entry by its **exact** (case-insensitive) name;
/// a miss returns an error message listing every known row. Binaries
/// that take algorithm names from the command line route through this
/// so a typo prints the menu and exits instead of panicking with a
/// backtrace.
pub fn try_lookup(name: &str) -> Result<&'static AlgoSpec, String> {
    REGISTRY
        .iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = REGISTRY.iter().map(|a| a.name).collect();
            format!("no registry row named {name:?}; known rows: {known:?}")
        })
}

/// [`try_lookup`], panicking on a miss. The `hbp fig_*` commands name their
/// rows through this, so renaming a registry row can never silently
/// drop it from a figure — the run fails loudly instead.
pub fn lookup(name: &str) -> &'static AlgoSpec {
    try_lookup(name).unwrap_or_else(|e| panic!("{e}"))
}

/// The native root closure for the row whose *canonical* name is `name`
/// (no prefix or case folding — callers that accept user spellings
/// resolve through [`find`] / [`lookup`] first): the row's
/// [`AlgoSpec::native`] column applied to `(n, seed)`. `None` for an
/// unknown name or a row the native backend does not serve.
pub fn native_kernel(
    name: &str,
    n: usize,
    seed: u64,
) -> Option<Box<dyn FnOnce() + Send + 'static>> {
    let kernel = REGISTRY.iter().find(|a| a.name == name)?.native?;
    Some(kernel(n, seed))
}

/// Whether the row whose canonical name is `name` has a native kernel.
pub fn has_native_kernel(name: &str) -> bool {
    REGISTRY
        .iter()
        .any(|a| a.name == name && a.native.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_table1_rows() {
        let r = registry();
        // 12 paper rows + M-Sum/PS split + the mergesort A/B row
        assert_eq!(r.len(), 14);
        let names: Vec<&str> = r.iter().map(|a| a.name).collect();
        for want in [
            "MT",
            "Strassen",
            "FFT",
            "LR",
            "CC",
            "Depth-n-MM",
            "Sort (SPMS)",
            "Sort (merge std-in)",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn every_entry_builds_and_has_positive_work() {
        for spec in registry() {
            let n = spec.size.pick(64, 8);
            let comp = (spec.build)(n, BuildConfig::default(), 42);
            assert!(comp.work() > 0, "{} built empty", spec.name);
            assert!(comp.n_priorities > 0, "{} has no priorities", spec.name);
        }
    }

    #[test]
    fn find_by_prefix() {
        assert!(find("strassen").is_some());
        assert!(find("fft").is_some());
        assert!(find("nonexistent").is_none());
        // Prefix "Sort" resolves to the SPMS row (registry order), and
        // exact names always win over prefixes.
        assert_eq!(find("Sort").unwrap().name, "Sort (SPMS)");
        assert_eq!(
            find("sort (merge std-in)").unwrap().name,
            "Sort (merge std-in)"
        );
    }

    #[test]
    fn lookup_is_exact_and_fails_loudly() {
        assert_eq!(lookup("Sort (SPMS)").name, "Sort (SPMS)");
        assert_eq!(lookup("fft").name, "FFT");
        let err = std::panic::catch_unwind(|| lookup("Sort").name).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic message is a String");
        assert!(msg.contains("no registry row named"), "{msg}");
        assert!(
            msg.contains("Sort (SPMS)") && msg.contains("Sort (merge std-in)"),
            "panic lists the known rows: {msg}"
        );
    }

    #[test]
    fn both_sort_rows_sort_the_same_input() {
        // The two rows must be the same workload (A/B comparable): same
        // input builder, same sorted key sequence out.
        let n = 128;
        let data = sort_input(n, 9);
        let (cs, hs) = spms::spms(&data, BuildConfig::default());
        let (cm, hm) = sort::mergesort(&data, BuildConfig::default());
        let ks: Vec<u64> = hbp_algos::util::read_out(&cs, hs)
            .iter()
            .map(|p| p.0)
            .collect();
        let km: Vec<u64> = hbp_algos::util::read_out(&cm, hm)
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(ks, km);
        assert!(
            cs.work() < cm.work(),
            "SPMS ({}) must do less recorded work than the stand-in ({})",
            cs.work(),
            cm.work()
        );
    }
}
