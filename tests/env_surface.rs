//! The typed-config property: `hbp_core::Config::from_env`
//! (`crates/core/src/config.rs`) is the only place the `HBP_*` runtime
//! environment is read.
//!
//! Exempt families: `HBP_SERVE_*` (scenario knobs owned by hbp-serve's
//! `ScenarioSpec`, which folds `Config`'s errors into its own),
//! `HBP_EXAMPLE_N` / `HBP_FIG_N` (problem-size shaping in example and
//! bench harness code), `HBP_TRACE_OUT` (an output *path*, not runtime
//! configuration).

use std::path::Path;

const OWNER: &str = "crates/core/src/config.rs";
const EXEMPT: [&str; 4] = ["HBP_SERVE_", "HBP_EXAMPLE_N", "HBP_FIG_N", "HBP_TRACE_OUT"];

fn scan(root: &Path, dir: &Path, needle: &str, hits: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            scan(root, &path, needle, hits);
            continue;
        }
        let rel = path.strip_prefix(root).expect("under the repo root");
        if path.extension().is_none_or(|e| e != "rs") || rel == Path::new(OWNER) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("utf-8 source");
        for (i, line) in text.lines().enumerate() {
            if line.contains(needle) && !EXEMPT.iter().any(|e| line.contains(e)) {
                hits.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
}

#[test]
fn config_owns_the_env_surface() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Split so this file does not match itself.
    let needle = concat!("env::var(\"", "HBP_");
    let mut hits = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        scan(root, &root.join(dir), needle, &mut hits);
    }
    assert!(
        hits.is_empty(),
        "HBP_* environment reads outside {OWNER}:\n{}",
        hits.join("\n")
    );
}
