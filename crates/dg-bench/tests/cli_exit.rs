//! Every bench binary shares one strict argument-parsing contract
//! (`dg_bench::argparse`): anything outside the closed flag set —
//! typos, duplicates, missing values — must abort with usage on stderr
//! and exit status 2 before any work starts. These tests pin the
//! *process-level* behaviour (the in-library parser tests can't see the
//! exit status), so a refactor that keeps the parser but drops the
//! `usage_error` call path still fails CI.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("binary spawns")
}

fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr must show usage, got: {stderr}");
}

#[test]
fn repro_all_rejects_unknown_and_duplicate_flags_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_repro_all");
    // A typo must not fall back to the paper-scale run.
    assert_usage_exit(bin, &["--smal"]);
    assert_usage_exit(bin, &["--cehck"]);
    assert_usage_exit(bin, &["--small", "--small"]);
    assert_usage_exit(bin, &["--json"]);
    assert_usage_exit(bin, &["--sampled=0"]);
    assert_usage_exit(bin, &["--sampled=1"]);
    assert_usage_exit(bin, &["--small", "--medium"]);
}

#[test]
fn serve_bench_rejects_unknown_and_duplicate_flags_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_serve_bench");
    assert_usage_exit(bin, &["--smok"]);
    assert_usage_exit(bin, &["--smoke", "--smoke"]);
    assert_usage_exit(bin, &["--validate"]);
    assert_usage_exit(bin, &["--json", "--smoke"]);
    // The gate is the only mode: report flags are unknown and a run
    // without `--check` is an error.
    assert_usage_exit(bin, &["--smoke", "--check", "--json", "x"]);
    assert_usage_exit(bin, &["--check", "--validate", "x"]);
    assert_usage_exit(bin, &["--smoke"]);
}

#[test]
fn simulate_rejects_typos_and_bad_values_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_simulate");
    assert_usage_exit(bin, &["--smal"]);
    assert_usage_exit(bin, &["--small", "--kernel"]);
    assert_usage_exit(bin, &["--small", "--kernel", "jpge"]);
    assert_usage_exit(bin, &["--small", "--llc", "bogus"]);
}

#[test]
fn serve_monitor_rejects_typos_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_serve_monitor");
    assert_usage_exit(bin, &["--smok"]);
    assert_usage_exit(bin, &["--smoke", "--smoke"]);
    assert_usage_exit(bin, &["--json"]);
    // Each document is validated as it is written: there is no
    // separate validation mode.
    assert_usage_exit(bin, &["--validate", "x"]);
    assert_usage_exit(bin, &["--validate-incident", "x"]);
}

/// `trace_tool`: usage errors exit 2, unreadable traces exit 1 with a
/// message and no panic, and a small capture → info → replay round trip
/// succeeds.
#[test]
fn trace_tool_exits_2_on_usage_1_on_bad_traces_and_round_trips() {
    let bin = env!("CARGO_BIN_EXE_trace_tool");
    let dir = std::env::temp_dir().join(format!("dg_trace_tool_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (good, missing, garbage, truncated) =
        (path("good.trace"), path("missing.trace"), path("garbage.trace"), path("truncated.trace"));

    assert_usage_exit(bin, &["capture", "--kernel", "inversek2j", "--out", &good, "--bogus"]);
    assert_usage_exit(bin, &["info", "--in", &good, "--in", &good]);
    assert_usage_exit(bin, &["replay", "--in", &good, "--llc", "bogus"]);
    assert_usage_exit(bin, &["frob"]);

    let ok = |args: &[&str]| {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    ok(&["capture", "--kernel", "inversek2j", "--out", &good, "--small"]);
    assert!(ok(&["info", "--in", &good]).contains("cores:"));
    assert!(ok(&["replay", "--in", &good, "--llc", "split", "--small"]).contains("replayed"));

    std::fs::write(&garbage, b"garbage").unwrap();
    let bytes = std::fs::read(&good).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    for input in [missing.as_str(), garbage.as_str(), truncated.as_str()] {
        for args in [vec!["info", "--in", input], vec!["replay", "--in", input, "--small"]] {
            let out = run(bin, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1, stderr: {stderr}");
            assert!(stderr.contains("trace_tool: "), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
