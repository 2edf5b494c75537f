//! Single-owner properties, checked by scanning the sources.
//!
//! **The typed config**: `hbp_core::Config::from_env`
//! (`crates/core/src/config.rs`) is the only place the `HBP_*` runtime
//! environment is read.
//!
//! Exempt families: `HBP_SERVE_*` (scenario knobs owned by hbp-serve's
//! `ScenarioSpec`, which folds `Config`'s errors into its own),
//! `HBP_EXAMPLE_N` (problem-size shaping for the examples' and the `hbp`
//! binary's smoke runs), `HBP_TRACE_OUT` (an output *path*, not runtime
//! configuration).
//!
//! **The kernel table**: `crates/core/src/registry.rs` is the only file
//! under `crates/*/src` and the root `src/`, outside `crates/algos` where
//! they are defined, that names a `par::par_*` kernel — which rows the native backend
//! serves is the registry's `native` column and nothing else.
//!
//! **Uninitialised memory**: `crates/algos/src/par/carve.rs` is the
//! only file under `crates/algos/src` that turns uninitialised memory
//! into data — no other file contains `assume_init`, `.set_len(` or a
//! `*mut [MaybeUninit` cast — so the native kernels' one proof
//! obligation, "every element is written before it is read", has one
//! owner, and its debug check covers every window.
//!
//! **The empty stubs**: no Rust source outside `vendor/` uses the
//! `rayon` or `serde` stub crates. Outside comments, no file under
//! `crates/`, `src/`, `tests/` or `examples/` paths into either crate or
//! derives `Serialize` or `Deserialize`, so the stubs stay empty until
//! they are deleted.

use std::path::Path;

const EXEMPT: [&str; 3] = ["HBP_SERVE_", "HBP_EXAMPLE_N", "HBP_TRACE_OUT"];

/// Every line under `dir`, outside the file `owner`, that `names` flags.
fn scan(
    root: &Path,
    dir: &Path,
    owner: &str,
    names: &dyn Fn(&str) -> bool,
    hits: &mut Vec<String>,
) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            scan(root, &path, owner, names, hits);
            continue;
        }
        let rel = path.strip_prefix(root).expect("under the repo root");
        if path.extension().is_none_or(|e| e != "rs") || rel == Path::new(owner) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("utf-8 source");
        for (i, line) in text.lines().enumerate() {
            if names(line) {
                hits.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
}

#[test]
fn config_owns_the_env_surface() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let owner = "crates/core/src/config.rs";
    // Split so this file does not match itself.
    let needle = concat!("env::var(\"", "HBP_");
    let reads_env = |line: &str| line.contains(needle) && !EXEMPT.iter().any(|e| line.contains(e));
    let mut hits = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        scan(root, &root.join(dir), owner, &reads_env, &mut hits);
    }
    assert!(
        hits.is_empty(),
        "HBP_* environment reads outside {owner}:\n{}",
        hits.join("\n")
    );
}

#[test]
fn registry_owns_the_kernel_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let owner = "crates/core/src/registry.rs";
    // A named kernel (`par_sum`, `par::par_fft`), not the family `par_*`.
    let names_kernel = |line: &str| {
        line.match_indices("par_")
            .any(|(i, m)| line[i + m.len()..].starts_with(|c: char| c.is_ascii_lowercase()))
    };
    let mut hits = Vec::new();
    scan(root, &root.join("src"), owner, &names_kernel, &mut hits);
    for krate in std::fs::read_dir(root.join("crates")).expect("readable crates dir") {
        let krate = krate.expect("readable dir entry").path();
        if krate.file_name().is_some_and(|name| name != "algos") {
            scan(root, &krate.join("src"), owner, &names_kernel, &mut hits);
        }
    }
    assert!(
        hits.is_empty(),
        "native kernels named outside {owner}:\n{}",
        hits.join("\n")
    );
}

#[test]
fn carve_owns_uninitialised_memory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let owner = "crates/algos/src/par/carve.rs";
    let makes_data = |line: &str| {
        ["assume_init", ".set_len(", "*mut [MaybeUninit"]
            .iter()
            .any(|site| line.contains(site))
    };
    let dir = root.join("crates/algos/src");
    let mut hits = Vec::new();
    scan(root, &dir, owner, &makes_data, &mut hits);
    assert!(
        hits.is_empty(),
        "uninitialised memory made data outside {owner}:\n{}",
        hits.join("\n")
    );
}

#[test]
fn no_source_uses_the_stubbed_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // This file names what it looks for.
    let owner = "tests/env_surface.rs";
    let uses_stub = |line: &str| {
        let code = line.trim_start();
        let derives = code.contains("derive(")
            && (code.contains("Serialize") || code.contains("Deserialize"));
        !code.starts_with("//") && (code.contains("rayon::") || code.contains("serde::") || derives)
    };
    let mut hits = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        scan(root, &root.join(dir), owner, &uses_stub, &mut hits);
    }
    assert!(hits.is_empty(), "stub crates used:\n{}", hits.join("\n"));
}
