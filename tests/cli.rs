//! The `hbp` binary as a process: its command table; the trace tools'
//! observability loop end to end (the native counter source,
//! cross-backend diff, overflow gate), eight-worker native traces, the
//! PWS-vs-RWS structural diff, and the shared usage errors; and the
//! traced `table1` run with its Chrome-trace export.

use std::path::Path;
use std::process::Command;

use hbp_core::trace::json::{parse, Json};

const TRACE_REPORT: &str = "trace_report";
const TRACE_DIFF: &str = "trace_diff";
const TABLE1: &str = "table1";

/// `hbp <sub> <args>` with exactly these `HBP_*` variables set (the
/// ambient ones are scrubbed).
fn command(sub: &str, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hbp"));
    for (key, _) in std::env::vars().filter(|(key, _)| key.starts_with("HBP_")) {
        cmd.env_remove(key);
    }
    cmd.arg(sub).args(args).envs(env.iter().copied());
    cmd
}

/// `(exit code, stdout, stderr)` of one run of [`command`].
fn run(sub: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let out = command(sub, args, env).output();
    let out = out.expect("binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// `hbp help` prints the table of all sixteen commands; no command, or
/// an unknown one, prints the same table to stderr and exits 2.
#[test]
fn help_lists_every_command_and_a_missing_or_unknown_one_exits_2() {
    let (code, table, stderr) = run("help", &[], &[]);
    assert_eq!(code, Some(0), "{stderr}");
    let names = "table1 fig_pws_vs_rws fig_block_excess fig_cache_excess fig_steals \
                 fig_steal_sizes fig_gapping fig_padding fig_hierarchy fig_bsp fig_listrank \
                 fig_runtime trace_report trace_diff serve_scenario metrics_report";
    let listed: Vec<&str> = table
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in names.split_whitespace() {
        assert!(listed.contains(&name), "{name} missing from\n{table}");
    }
    let bare = Command::new(env!("CARGO_BIN_EXE_hbp")).output();
    let bare = bare.expect("binary runs");
    assert_eq!(bare.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&bare.stderr), table);
    let (code, stdout, stderr) = run("no_such_command", &[], &[]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(
        stderr.contains("unknown command") && stderr.ends_with(&table),
        "{stderr}"
    );
}

/// A native report names a real counter source or none — never a
/// synthetic one — and with none it prints no block misses at all; the
/// sim-vs-native diff completes either way.
#[test]
fn native_misses_are_measured_or_absent() {
    let env = [("HBP_BACKEND", "native"), ("HBP_WORKERS", "4")];
    let (code, stdout, stderr) = run(TRACE_REPORT, &["Sort (SPMS)"], &env);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    let perf = stdout.contains("counter source   = perf");
    assert!(
        perf || stdout.contains("counter source   = none"),
        "{stdout}"
    );
    assert!(perf || !stdout.contains("block misses"), "{stdout}");

    let sides = ["Sort (SPMS)", "4096", "sim:pws", "native:rws:1"];
    let (code, stdout, stderr) = run(TRACE_DIFF, &sides, &[env[1]]);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("both sides complete"), "{stdout}");
}

/// A ring too small for the run: the report still prints, and the exit
/// status says the trace is truncated.
#[test]
fn a_truncated_trace_fails_trace_report() {
    let env = [
        ("HBP_BACKEND", "native"),
        ("HBP_WORKERS", "4"),
        ("HBP_TRACE_BUF", "32"),
    ];
    let (code, stdout, stderr) = run(TRACE_REPORT, &["Sort (SPMS)", "65536"], &env);
    assert_eq!(code, Some(2), "ring overflow: {stderr}");
    assert!(stdout.contains("ring overflow"), "{stdout}");
    assert!(stderr.contains("events were dropped"), "{stderr}");
}

/// The native pool oversubscribed: eight workers on whatever the host
/// has, a traced 65536-element run per kernel, every steal accounted.
/// The header names the discipline that ran: unset, that is `rws:0`.
#[test]
fn eight_worker_native_traces_complete() {
    for (algo, policy, header) in [
        ("FFT", "", "policy = Rws { seed: 0 }"),
        ("Sort (SPMS)", "rws", "policy = Rws { seed: 1 }"),
    ] {
        let env = [
            ("HBP_BACKEND", "native"),
            ("HBP_WORKERS", "8"),
            ("HBP_POLICY", policy),
        ];
        let (code, stdout, stderr) = run(TRACE_REPORT, &[algo, "65536"], &env);
        assert_eq!(code, Some(0), "{algo}/{policy}: {stdout}\n{stderr}");
        assert!(stdout.contains("workers = 8"), "{algo}/{policy}: {stdout}");
        assert!(stdout.contains(header), "{algo}/{policy}: {stdout}");
        assert!(
            stdout.contains("across 8 workers"),
            "{algo}/{policy}: {stdout}"
        );
    }
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
    let native_pws = [native[0], native[1], ("HBP_POLICY", "pws")];
    let both = [TRACE_REPORT, TRACE_DIFF];
    let bad: [(&[&str], &[&str], &[(&str, &str)]); 7] = [
        (&both, &["FFT", "0"], &[]),
        (&both, &["FFT", "many"], &[]),
        (&both, &["FFT", "-1"], &[]),
        (&both, &["no such algo"], &[]),
        // A row the backend has no kernel for is an argument error too.
        (&both, &["CC", "64", "native:rws"], &native),
        // So is a policy the native pool cannot run: it steals
        // randomized, from the environment or a trace_diff side.
        (&both, &["FFT", "64"], &native_pws),
        (
            &[TRACE_DIFF],
            &["FFT", "4096", "sim:pws", "native:bsp:3"],
            &[],
        ),
    ];
    for (subs, args, env) in bad {
        for &sub in subs {
            let (code, _, stderr) = run(sub, args, env);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("error: "), "{args:?}: {stderr}");
            assert!(stderr.contains("usage: hbp trace_"), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
}

/// `HBP_TRACE=1 table1` twice, each in its own directory: the export is
/// a Chrome trace that parses, with process lanes and recorded segments,
/// and the run is deterministic down to the byte — stdout and export.
#[test]
fn traced_table1_exports_a_chrome_trace_and_is_byte_stable() {
    let env = [("HBP_TRACE", "1"), ("HBP_TRACE_OUT", "table1_trace.json")];
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let traced_run = |name: &str| {
        let dir = tmp.join(name);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = command(TABLE1, &[], &env).current_dir(&dir).output();
        let out = out.expect("table1 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let export = std::fs::read_to_string(dir.join("table1_trace.json")).expect("export");
        (out.stdout, export)
    };
    let (a, b) = std::thread::scope(|s| {
        let b = s.spawn(|| traced_run("table1-trace-b"));
        (traced_run("table1-trace-a"), b.join().expect("second run"))
    });
    assert!(a.0 == b.0, "table1 stdout differs between two runs");
    assert!(a.1 == b.1, "table1 trace export differs between two runs");

    let doc = parse(&a.1).expect("the export is JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array);
    let events = events.expect("traceEvents array");
    assert!(!events.is_empty(), "empty trace");
    let has = |key: &str, want: &str| {
        events
            .iter()
            .any(|e| e.get(key).and_then(Json::as_str) == Some(want))
    };
    assert!(
        has("name", "process_name"),
        "no process lanes in the export"
    );
    assert!(has("ph", "X"), "no segment events in the export");
    for name in ["table1-trace-a", "table1-trace-b"] {
        std::fs::remove_dir_all(tmp.join(name)).expect("temp dir removed");
    }
}
