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
//! **The public surface**: every `pub fn` and `pub const fn` under
//! `crates/*/src` and the root `src/` (not `pub(crate)` or `pub(super)`)
//! is named, as a whole word on a line that is not a comment and not
//! part of a `use` item, in some other `.rs` file under `crates/`,
//! `src/`, `tests/`, `examples/` or `benchmark/src`, so an API that only
//! its own file calls leaves the tree or loses its `pub` (a re-export
//! is not a caller). The exceptions are `UNCALLED_PUB_FNS`, each
//! with the reason it stays (none today). The match is by name, not by
//! path: a method named like a common word (`new`, `get`, `len`) passes
//! by accident whenever any other file uses that word.
//!
//! **No foreign declarations**: no `.rs` file under `crates/` or `src/`
//! opens an `extern` block (`extern "C" {`, `extern {`), so every call
//! leaves the process through std and no hand-declared ABI can drift
//! from the platform's.
//!
//! **The empty stubs**: no Rust source outside `vendor/` uses the
//! `rayon` or `serde` stub crates. Outside comments, no file under
//! `crates/`, `src/`, `tests/` or `examples/` paths into either crate or
//! derives `Serialize` or `Deserialize`, so the stubs stay empty until
//! they are deleted.

use std::collections::{HashMap, HashSet};
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

#[test]
fn no_foreign_declarations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // An `extern`, an optional ABI string, then the block's brace: not
    // `extern crate` and not an `extern "C" fn` definition.
    let declares = |line: &str| {
        let code = line.trim_start();
        !code.starts_with("//")
            && code.match_indices("extern").any(|(i, m)| {
                let word = !code[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_');
                let rest = code[i + m.len()..].trim_start();
                let rest = match rest.strip_prefix('"') {
                    Some(abi) => abi.split_once('"').map_or("", |(_, r)| r.trim_start()),
                    None => rest,
                };
                word && rest.starts_with('{')
            })
    };
    let mut hits = Vec::new();
    for dir in ["crates", "src"] {
        scan(root, &root.join(dir), "", &declares, &mut hits);
    }
    assert!(hits.is_empty(), "extern blocks:\n{}", hits.join("\n"));
}

/// `pub fn`s that no other file calls, each with the reason it stays.
const UNCALLED_PUB_FNS: [(&str, &str); 0] = [];

#[test]
fn every_pub_fn_has_a_caller_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = |line: &str| !line.trim_start().starts_with("//");
    let mut lines = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        scan(root, &root.join(dir), "", &code, &mut lines);
    }
    // `scan` gives `file:line: code`; each word of it, with its files.
    let lines: Vec<(&str, &str)> = lines
        .iter()
        .map(|hit| hit.split_once(':').expect("file:line: code"))
        .collect();
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut files_of: HashMap<&str, HashSet<&str>> = HashMap::new();
    // Set while inside a `use` item, which may span lines up to its `;`.
    let mut in_use = false;
    for &(file, code) in &lines {
        let text = code.split_once(": ").expect("line: code").1;
        if in_use
            || ["use ", "pub use ", "pub(crate) use "]
                .iter()
                .any(|kw| text.starts_with(kw))
        {
            in_use = !text.contains(';');
            continue;
        }
        for w in code.split(|c: char| !word(c)) {
            files_of.entry(w).or_default().insert(file);
        }
    }
    let defines = |file: &str| {
        file.starts_with("src/")
            || (file.starts_with("crates/") && file.split('/').nth(2) == Some("src"))
    };
    let mut uncalled = Vec::new();
    for &(file, code) in lines.iter().filter(|(file, _)| defines(file)) {
        let code = code.split_once(": ").expect("line: code").1;
        let Some(sig) = code
            .strip_prefix("pub fn ")
            .or(code.strip_prefix("pub const fn "))
        else {
            continue;
        };
        let name = sig.split(|c: char| !word(c)).next().unwrap_or_default();
        let alone = files_of[name].iter().all(|f| *f == file);
        if alone && UNCALLED_PUB_FNS.iter().all(|(allowed, _)| *allowed != name) {
            uncalled.push(format!("{file}: {name}"));
        }
    }
    uncalled.sort();
    assert!(
        uncalled.is_empty(),
        "pub fns with no caller outside their file:\n{}",
        uncalled.join("\n")
    );
}
