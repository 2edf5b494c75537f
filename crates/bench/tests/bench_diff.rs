//! Behavioural tests of the `bench_diff` binary: clear errors, never
//! panics, correct exit statuses for row-set mismatches.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_tmp(name: &str, content: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hbp_bench_diff_{}_{name}", std::process::id()));
    std::fs::write(&p, content).expect("write temp BENCH file");
    p
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .expect("spawn bench_diff")
}

fn text(o: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    )
}

const BASE: &str = r#"{"table1": [
  {"algorithm": "FFT", "q_misses": 100, "f_excess": 2},
  {"algorithm": "LR", "q_misses": 50, "f_excess": 1}
]}"#;

#[test]
fn equal_records_pass() {
    let a = write_tmp("eq_a.json", BASE);
    let b = write_tmp("eq_b.json", BASE);
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(o.status.success(), "{}", text(&o));
    assert!(text(&o).contains("ok: no regression"), "{}", text(&o));
}

#[test]
fn row_only_in_old_is_a_clear_regression_not_a_panic() {
    let a = write_tmp("old_only_a.json", BASE);
    let b = write_tmp(
        "old_only_b.json",
        r#"{"table1": [{"algorithm": "FFT", "q_misses": 100, "f_excess": 2}]}"#,
    );
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let t = text(&o);
    assert_eq!(o.status.code(), Some(1), "{t}");
    assert!(t.contains("REGRESSION LR"), "{t}");
    assert!(t.contains("present only in"), "names the file: {t}");
    assert!(!t.contains("panicked"), "{t}");
}

#[test]
fn row_only_in_new_is_noted_and_passes() {
    let a = write_tmp(
        "new_only_a.json",
        r#"{"table1": [{"algorithm": "FFT", "q_misses": 100, "f_excess": 2}]}"#,
    );
    let b = write_tmp("new_only_b.json", BASE);
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let t = text(&o);
    assert!(o.status.success(), "{t}");
    assert!(t.contains("note: row LR present only in"), "{t}");
}

#[test]
fn regressed_metric_fails_with_the_delta() {
    let a = write_tmp("reg_a.json", BASE);
    let b = write_tmp(
        "reg_b.json",
        r#"{"table1": [
  {"algorithm": "FFT", "q_misses": 150, "f_excess": 2},
  {"algorithm": "LR", "q_misses": 50, "f_excess": 1}
]}"#,
    );
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let t = text(&o);
    assert_eq!(o.status.code(), Some(1), "{t}");
    assert!(t.contains("REGRESSION FFT.q_misses: 100 -> 150"), "{t}");
    // The same delta passes under a 60% threshold.
    let o = run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--threshold",
        "0.6",
    ]);
    assert!(o.status.success(), "{}", text(&o));
}

#[test]
fn unusable_inputs_exit_2_with_named_file_and_no_panic() {
    let good = write_tmp("usable.json", BASE);
    let bad_json = write_tmp("bad.json", "{ not json");
    let no_table = write_tmp("no_table.json", r#"{"other": 1}"#);
    let bad_row = write_tmp("bad_row.json", r#"{"table1": [{"q_misses": 3}]}"#);
    for bad in [&bad_json, &no_table, &bad_row] {
        for order in [
            [good.to_str().unwrap(), bad.to_str().unwrap()],
            [bad.to_str().unwrap(), good.to_str().unwrap()],
        ] {
            let o = run(&order);
            let t = text(&o);
            assert_eq!(o.status.code(), Some(2), "{order:?}: {t}");
            assert!(t.contains("bench_diff: error:"), "{t}");
            assert!(
                t.contains(bad.file_name().unwrap().to_str().unwrap()),
                "error names the offending file: {t}"
            );
            assert!(!t.contains("panicked"), "{t}");
        }
    }
    let o = run(&[good.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2), "missing second path is usage");
}

#[test]
fn rename_maps_old_row_onto_new_name() {
    // The renamed row must diff metric-by-metric under its new name
    // (here: with a regression, to prove it is actually compared).
    let a = write_tmp("ren_a.json", BASE);
    let b = write_tmp(
        "ren_b.json",
        r#"{"table1": [
  {"algorithm": "FFT (six-step)", "q_misses": 150, "f_excess": 2},
  {"algorithm": "LR", "q_misses": 50, "f_excess": 1}
]}"#,
    );
    let o = run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--rename",
        "FFT=FFT (six-step)",
    ]);
    let t = text(&o);
    assert_eq!(o.status.code(), Some(1), "{t}");
    assert!(t.contains("rename"), "{t}");
    assert!(
        t.contains("REGRESSION FFT (six-step).q_misses: 100 -> 150"),
        "renamed row is compared: {t}"
    );
    assert!(
        !t.contains("present only in"),
        "no lost-coverage noise: {t}"
    );

    // Same records, equal metrics: rename alone passes clean.
    let c = write_tmp(
        "ren_c.json",
        r#"{"table1": [
  {"algorithm": "FFT (six-step)", "q_misses": 100, "f_excess": 2},
  {"algorithm": "LR", "q_misses": 50, "f_excess": 1}
]}"#,
    );
    let o = run(&[
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--rename",
        "FFT=FFT (six-step)",
    ]);
    assert!(o.status.success(), "{}", text(&o));
}

#[test]
fn expect_waives_growth_but_not_coverage() {
    let a = write_tmp("exp_a.json", BASE);
    let b = write_tmp(
        "exp_b.json",
        r#"{"table1": [
  {"algorithm": "FFT", "q_misses": 300, "f_excess": 2},
  {"algorithm": "LR", "q_misses": 50, "f_excess": 1}
]}"#,
    );
    // Without --expect: the tripled metric is a regression.
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1), "{}", text(&o));
    // With --expect FFT: reported as an expected change, exit 0.
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap(), "--expect", "FFT"]);
    let t = text(&o);
    assert!(o.status.success(), "{t}");
    assert!(t.contains("changed (expected) FFT.q_misses"), "{t}");
    assert!(!t.contains("REGRESSION"), "{t}");
    // An undeclared row still gates: LR regressing alongside fails.
    let c = write_tmp(
        "exp_c.json",
        r#"{"table1": [
  {"algorithm": "FFT", "q_misses": 300, "f_excess": 2},
  {"algorithm": "LR", "q_misses": 90, "f_excess": 1}
]}"#,
    );
    let o = run(&[a.to_str().unwrap(), c.to_str().unwrap(), "--expect", "FFT"]);
    let t = text(&o);
    assert_eq!(o.status.code(), Some(1), "{t}");
    assert!(t.contains("REGRESSION LR.q_misses"), "{t}");
    // --expect of a row missing from either side is a usage error.
    let o = run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--expect",
        "NoSuchRow",
    ]);
    assert_eq!(o.status.code(), Some(2), "{}", text(&o));
}

#[test]
fn rename_of_a_missing_row_is_a_usage_error() {
    let a = write_tmp("ren_miss_a.json", BASE);
    let b = write_tmp("ren_miss_b.json", BASE);
    let o = run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--rename",
        "NoSuchRow=Whatever",
    ]);
    let t = text(&o);
    assert_eq!(o.status.code(), Some(2), "{t}");
    assert!(t.contains("NoSuchRow"), "{t}");
    let o = run(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--rename",
        "missing-equals-sign",
    ]);
    assert_eq!(o.status.code(), Some(2), "{}", text(&o));
}

#[test]
fn differing_host_cpus_warns_loudly_but_does_not_fail() {
    let a = write_tmp(
        "cpus_a.json",
        r#"{"host_cpus": 1, "table1": [{"algorithm": "FFT", "q_misses": 100}]}"#,
    );
    let b = write_tmp(
        "cpus_b.json",
        r#"{"host_cpus": 8, "table1": [{"algorithm": "FFT", "q_misses": 100}]}"#,
    );
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let t = text(&o);
    assert!(
        o.status.success(),
        "different hosts alone must not gate: {t}"
    );
    assert!(t.contains("WARNING: host_cpus differ"), "{t}");
    assert!(t.contains("NOT comparable"), "{t}");
    // Loud = on stderr too, so CI log scanners catch it even when
    // stdout is folded away.
    assert!(
        String::from_utf8_lossy(&o.stderr).contains("host_cpus differ"),
        "{t}"
    );
    assert!(t.contains("ok: no regression"), "{t}");
}

#[test]
fn matching_or_absent_host_cpus_stays_quiet() {
    let a = write_tmp(
        "cpus_same_a.json",
        r#"{"host_cpus": 4, "table1": [{"algorithm": "FFT", "q_misses": 100}]}"#,
    );
    let b = write_tmp(
        "cpus_same_b.json",
        r#"{"host_cpus": 4, "table1": [{"algorithm": "FFT", "q_misses": 100}]}"#,
    );
    let o = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let t = text(&o);
    assert!(o.status.success(), "{t}");
    assert!(!t.contains("WARNING"), "{t}");
    // Records predating the field note the skip instead of guessing.
    let c = write_tmp("cpus_none.json", BASE);
    let o = run(&[c.to_str().unwrap(), c.to_str().unwrap()]);
    let t = text(&o);
    assert!(o.status.success(), "{t}");
    assert!(t.contains("no host_cpus"), "{t}");
    assert!(!t.contains("WARNING"), "{t}");
}

#[test]
fn committed_records_still_compare_clean() {
    // The real CI gates: PR 3 -> PR 4 unchanged, PR 4 -> PR 5 with the
    // sort-row rename (the SPMS stand-in became "Sort (merge std-in)"
    // when the real SPMS row landed), and PR 9 -> PR 10 with no waivers
    // (elasticity and backpressure are pool/serve-side; the sim rows
    // must match exactly).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let pr3 = root.join("BENCH_pr3.json");
    let pr4 = root.join("BENCH_pr4.json");
    let pr5 = root.join("BENCH_pr5.json");
    if pr3.exists() && pr4.exists() {
        let o = run(&[pr3.to_str().unwrap(), pr4.to_str().unwrap()]);
        assert!(o.status.success(), "{}", text(&o));
    }
    if pr4.exists() && pr5.exists() {
        // LR and CC are declared changes in PR 5: both now sort through
        // the real SPMS (LR routes its predecessor scatter through a
        // sort; CC swapped the mergesort stand-in out).
        let o = run(&[
            pr4.to_str().unwrap(),
            pr5.to_str().unwrap(),
            "--rename",
            "Sort (SPMS std-in)=Sort (merge std-in)",
            "--expect",
            "LR",
            "--expect",
            "CC",
        ]);
        assert!(o.status.success(), "{}", text(&o));
    }
    let o = run(&[
        root.join("BENCH_pr9.json").to_str().unwrap(),
        root.join("BENCH_pr10.json").to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", text(&o));
}
