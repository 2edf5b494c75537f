//! Run one load scenario and print its JSON report to stdout.
//!
//! Configuration is entirely environment-driven: `HBP_SERVE_*` for the
//! scenario (seed, requests, clients, mode, queue cap, batching, mix,
//! pacing) plus the workspace-wide `HBP_BACKEND` / `HBP_POLICY` /
//! `HBP_WORKERS` knobs. On the sim backend the output is
//! byte-identical for a fixed seed.

use hbp_serve::{run_scenario, ScenarioSpec};

pub fn main() {
    let spec = ScenarioSpec::from_env();
    let report = run_scenario(&spec);
    print!("{}", report.to_json());
}
