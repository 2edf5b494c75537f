//! Suite and repeatability harness: run all five workloads, repeat the
//! suite K times and report the spread, and compare two recorded sets
//! against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use hbp_core::trace::json::{parse, Json};

use crate::run::json_number;
use crate::schema::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};
use crate::{spawn_child, Host};

/// `(name, value, unit)` of each metric on a child's result line, or
/// `None` when the child failed or reported wrong output.
fn child_metrics(stdout: &str, ok: bool) -> Option<Vec<(String, f64, String)>> {
    let last = stdout.lines().last()?;
    let j = parse(last).ok()?;
    let correct = matches!(j.get("correct"), Some(Json::Bool(true)));
    if !ok || !correct {
        return None;
    }
    let Json::Obj(metrics) = j.get("metrics")? else {
        return None;
    };
    metrics
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// One workload's child, echoed and parsed.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    echo: bool,
) -> Option<Vec<(String, f64, String)>> {
    let (stdout, ok) = spawn_child(workload, seed, seconds, trace, true);
    if echo {
        for line in stdout.lines() {
            println!("  | {line}");
        }
    }
    let metrics = child_metrics(&stdout, ok);
    if metrics.is_none() {
        println!("FAILED: {workload} (seed {seed}) exited non-zero or reported wrong output");
        if !echo {
            print!("{stdout}");
        }
    }
    metrics
}

/// Run every workload once (and once more traced under `trace`, probing
/// the layers that workload exercises), printing each metric by name
/// with its unit.
pub fn suite(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let mut failed = false;
    let mut summary = Vec::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            println!("== {}{}", w.name, if traced { " (traced)" } else { "" });
            match run_one(w.name, seed, seconds, traced.then_some(true), true) {
                Some(metrics) => summary.extend(
                    metrics
                        .into_iter()
                        .map(|(name, value, unit)| (w.name, name, value, unit)),
                ),
                None => failed = true,
            }
        }
    }
    println!("== summary (seed {seed})");
    for (workload, name, value, unit) in &summary {
        println!("{workload:<20} {name:<32} {value:>16.4} {unit}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the suite `k` times with seeds `seed..seed+k`; print per
/// (workload, metric) the median, quartiles and relative spread, and
/// write the set to `out`.
pub fn repeat(host: &Host, k: usize, seed: u64, seconds: f64, out: Option<&Path>) -> ExitCode {
    // "<workload>/<metric>" -> (unit, values in run order)
    let mut set: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for i in 0..k as u64 {
        for w in &WORKLOADS {
            println!("== run {} of {k}: {} seed {}", i + 1, w.name, seed + i);
            let Some(metrics) = run_one(w.name, seed + i, seconds, None, false) else {
                return ExitCode::FAILURE;
            };
            for (name, value, unit) in metrics {
                println!("  {name:<20} {value:>16.4} {unit}");
                set.entry(format!("{}/{name}", w.name))
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "== {k} runs, seeds {seed}..{}: median [q1, q3] spread=(q3-q1)/median",
        seed + k as u64 - 1
    );
    for (key, (unit, values)) in &set {
        let (q1, q2, q3) = quartiles(values);
        println!(
            "{key:<40} {q2:>14.4} [{q1:.4}, {q3:.4}] {unit:<5} spread {:.2}%",
            100.0 * spread(values)
        );
    }
    if let Some(path) = out {
        let mut s = format!(
            "{{\n  \"git\": \"{}\",\n  \"host_cpus\": {},\n  \"workers\": {},\n  \"seed\": {seed},\n  \"runs\": {k},\n  \"seconds\": {},\n  \"metrics\": {{\n",
            host.git, host.cpus, host.workers, json_number(seconds)
        );
        for (i, (key, (unit, values))) in set.iter().enumerate() {
            let vals: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
            s.push_str(&format!(
                "    \"{key}\": {{\"unit\": \"{unit}\", \"values\": [{}]}}{}\n",
                vals.join(", "),
                if i + 1 < set.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n}\n");
        if let Err(e) = std::fs::write(path, s) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn read_set(path: &Path) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        return Err(format!("{}: no \"metrics\" object", path.display()));
    };
    metrics
        .iter()
        .map(|(key, m)| {
            let values = m
                .get("values")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
                .filter(|v| v.len() >= 2)
                .ok_or_else(|| format!("{}: {key} needs >= 2 values", path.display()))?;
            Ok((key.clone(), values))
        })
        .collect()
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Compare two `--out` sets: for every (workload, end-to-end metric)
/// the medians may not differ, in either direction, by more than the
/// metric's bound.
pub fn agree(a: &Path, b: &Path) -> ExitCode {
    let (sa, sb) = match (read_set(a), read_set(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut disagreements = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = format!("{}/{}", w.name, m.name);
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                println!("{key:<40} MISSING from one set");
                disagreements += 1;
                continue;
            };
            let ((_, ma, _), (_, mb, _)) = (quartiles(va), quartiles(vb));
            let worse = worsening(ma, mb, m.better);
            let ok = worse.abs() <= m.bound;
            println!(
                "{key:<40} {ma:>14.4} vs {mb:>14.4} {:<5} {:+.2}% (bound {:.0}%) spreads {:.2}% / {:.2}%{}",
                m.unit,
                100.0 * worse,
                100.0 * m.bound,
                100.0 * spread(va),
                100.0 * spread(vb),
                if ok { "" } else { "  DISAGREE" }
            );
            disagreements += u32::from(!ok);
        }
    }
    if disagreements == 0 {
        println!("the two sets agree within the benchmark's bounds");
        ExitCode::SUCCESS
    } else {
        println!("{disagreements} (workload, metric) pairs disagree");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = crate::run::RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![crate::run::Metric::new(
                "best_case_latency_us",
                1.25,
                "us",
                3,
            )],
        }
        .to_json_line();
        let got = child_metrics(&format!("noise\n{line}\n"), true).expect("parses");
        assert_eq!(
            got,
            vec![("best_case_latency_us".to_string(), 1.25, "us".to_string())]
        );
        assert!(child_metrics(&line, false).is_none(), "non-zero exit");
        let wrong = line.replace("\"correct\": true", "\"correct\": false");
        assert!(child_metrics(&wrong, true).is_none(), "wrong output");
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(100.0, 110.0, "lower"), 0.1);
        assert_eq!(worsening(100.0, 90.0, "higher"), 0.1);
        assert_eq!(worsening(100.0, 90.0, "lower"), -0.1);
    }
}
