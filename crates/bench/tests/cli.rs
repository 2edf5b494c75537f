//! The trace tools as processes: the observability loop end to end
//! (stub counter source, cross-backend diff, strict overflow gate), the
//! PWS-vs-RWS structural diff, and the shared usage errors.

use std::process::Command;

const TRACE_REPORT: &str = env!("CARGO_BIN_EXE_trace_report");
const TRACE_DIFF: &str = env!("CARGO_BIN_EXE_trace_diff");

/// `(exit code, stdout, stderr)` of one run of `bin` with exactly these
/// `HBP_*` variables set (the ambient ones are scrubbed).
fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars().filter(|(key, _)| key.starts_with("HBP_")) {
        cmd.env_remove(key);
    }
    let out = cmd.args(args).envs(env.iter().copied()).output();
    let out = out.expect("binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn stub_counters_reach_the_report_and_the_cross_backend_diff() {
    let stub = [("HBP_COUNTERS", "stub"), ("HBP_WORKERS", "4")];
    let native_stub = [stub[0], stub[1], ("HBP_BACKEND", "native")];
    let (code, stdout, stderr) = run(TRACE_REPORT, &["Sort (SPMS)"], &native_stub);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("counter source   = stub"), "{stdout}");
    assert!(stdout.contains("block misses"), "{stdout}");

    // Model-predicted vs stub-measured misses, side by side.
    let sides = ["Sort (SPMS)", "4096", "sim:pws", "native:rws:1"];
    let (code, stdout, stderr) = run(TRACE_DIFF, &sides, &stub);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("via stub"), "{stdout}");
    assert!(stdout.contains("both sides complete"), "{stdout}");
}

#[test]
fn strict_mode_fails_a_truncated_trace() {
    let env = [
        ("HBP_BACKEND", "native"),
        ("HBP_WORKERS", "4"),
        ("HBP_TRACE_BUF", "32"),
        ("HBP_TRACE_STRICT", "1"),
    ];
    let (code, _, stderr) = run(TRACE_REPORT, &["Sort (SPMS)", "65536"], &env);
    assert_ne!(code, Some(0), "ring overflow under strict mode");
    assert!(stderr.contains("events were dropped"), "{stderr}");
}

#[test]
fn pws_and_rws_schedules_are_structurally_equal() {
    let (code, stdout, stderr) = run(TRACE_DIFF, &["Scans (M-Sum)", "2048", "pws", "rws:1"], &[]);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("structurally equal"), "{stdout}");
}

#[test]
fn argument_errors_print_usage_and_exit_2() {
    let native = [("HBP_BACKEND", "native"), ("HBP_WORKERS", "2")];
    let bad: [(&[&str], &[(&str, &str)]); 5] = [
        (&["FFT", "0"], &[]),
        (&["FFT", "many"], &[]),
        (&["FFT", "-1"], &[]),
        (&["no such algo"], &[]),
        // A row the backend has no kernel for is an argument error too.
        (&["CC", "64", "native:pws"], &native),
    ];
    for bin in [TRACE_REPORT, TRACE_DIFF] {
        for (args, env) in bad {
            let (code, _, stderr) = run(bin, args, env);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("error: "), "{args:?}: {stderr}");
            assert!(stderr.contains("usage: trace_"), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
}
