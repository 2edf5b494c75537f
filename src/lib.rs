//! Root crate of the `hbp-repro` workspace.
//!
//! The actual library lives in the sub-crates (see `crates/`); this crate
//! hosts the `hbp` binary (`src/bin/hbp`: the paper's tables and figures,
//! the trace tools and the job server's reports, one subcommand each;
//! `hbp help` lists them), the cross-crate integration tests in `tests/`
//! and the runnable examples in `examples/`. It re-exports the facade
//! crate so that the binary, examples and tests have a single import root.

pub use hbp_core::*;

/// Problem size for the runnable examples and `hbp fig_runtime`'s native
/// sweep: the default, unless the `HBP_EXAMPLE_N` environment variable
/// overrides it. The smoke test in `tests/examples_smoke.rs` and CI's
/// native smoke use this to run on tiny inputs; interactive runs are
/// unaffected.
pub fn example_size(default: usize) -> usize {
    match std::env::var("HBP_EXAMPLE_N") {
        Ok(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => panic!("HBP_EXAMPLE_N must be a positive integer, got {s:?}"),
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn example_size_respects_env_or_default() {
        // Robust to an ambient HBP_EXAMPLE_N: whatever is (or isn't) set
        // must be what the helper returns.
        match std::env::var("HBP_EXAMPLE_N") {
            Ok(v) => assert_eq!(super::example_size(64), v.parse::<usize>().unwrap()),
            Err(_) => assert_eq!(super::example_size(64), 64),
        }
    }
}
