//! Smoke tests: run every `examples/*.rs` main on tiny inputs so the
//! examples can never silently rot. Each example reads `HBP_EXAMPLE_N`
//! (see `hbp_repro::example_size`) to shrink its problem size; the
//! assertions inside the examples still run, so this checks behaviour,
//! not just that the binaries launch.

use std::path::PathBuf;
use std::process::Command;

/// Path of a compiled example binary, next to this test binary
/// (`target/<profile>/deps/examples_smoke-…` → `target/<profile>/examples/`).
fn example_bin(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push("examples");
    p.push(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    p
}

/// Run one example with a tiny problem size; panic with its output on
/// failure so CI logs show what broke.
fn run_example(name: &str, tiny_n: usize) {
    run_example_with(name, tiny_n, &[]);
}

/// [`run_example`] with extra environment variables set for the child.
fn run_example_with(name: &str, tiny_n: usize, env: &[(&str, &str)]) {
    let out = spawn_example(name, tiny_n, env);
    assert!(
        out.status.success(),
        "example `{name}` (HBP_EXAMPLE_N={tiny_n}, {env:?}) failed with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// Run one example to completion and hand back its output.
fn spawn_example(name: &str, tiny_n: usize, env: &[(&str, &str)]) -> std::process::Output {
    let bin = example_bin(name);
    assert!(
        bin.exists(),
        "example binary {} not built; run `cargo test` (which builds examples) \
         or `cargo build --examples` first",
        bin.display()
    );
    Command::new(&bin)
        .env("HBP_EXAMPLE_N", tiny_n.to_string())
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", bin.display()))
}

#[test]
fn quickstart_smoke() {
    run_example("quickstart", 512);
}

#[test]
fn false_sharing_demo_smoke() {
    // Must stay large enough that the shared-block run still shows a
    // >100x block-miss blowup (the example asserts it).
    run_example("false_sharing_demo", 400);
}

#[test]
fn matrix_pipeline_smoke() {
    run_example("matrix_pipeline", 8);
}

#[test]
fn signal_fft_smoke() {
    run_example("signal_fft", 256);
}

#[test]
fn tree_analytics_smoke() {
    run_example("tree_analytics", 48);
}

#[test]
fn trace_tour_smoke() {
    // The example itself asserts critical path == makespan and the
    // miss-delta reconciliation.
    run_example("trace_tour", 256);
}

#[test]
fn serve_tour_smoke() {
    // Runs a full (shrunk) load scenario on the ambient backend: closed
    // loop, then an open-loop overload probe; the example asserts
    // accounting and (on sim) byte-identical reproduction.
    run_example("serve_tour", 48);
}

#[test]
fn spms_tour_smoke() {
    // The example asserts oracle-sorted, stable output on whichever
    // backend the ambient HBP_BACKEND selects.
    run_example("spms_tour", 512);
}

#[test]
fn spms_tour_passes_on_every_backend_and_policy() {
    // The acceptance matrix for the real SPMS sort: a tiny
    // duplicate-heavy instance on every simulator policy and on the
    // native pool's one discipline. The example asserts oracle-sorted,
    // stable output and clean pool shutdown (it runs the native pool
    // twice), so a pass here means the kernel is correct under every
    // scheduling discipline.
    let cells = [
        ("sim", "pws"),
        ("sim", "rws:3"),
        ("sim", "bsp:3"),
        ("native", "rws:3"),
    ];
    let env = |(backend, policy)| {
        [
            ("HBP_BACKEND", backend),
            ("HBP_POLICY", policy),
            ("HBP_WORKERS", "4"),
        ]
    };
    for cell in cells {
        run_example_with("spms_tour", 2048, &env(cell));
    }
    // A policy the native pool cannot run is refused, by name.
    let out = spawn_example("spms_tour", 2048, &env(("native", "pws")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "native x pws must fail: {stderr}");
    assert!(
        stderr.contains("HBP_POLICY=\"pws\" with HBP_BACKEND=native"),
        "{stderr}"
    );
}
