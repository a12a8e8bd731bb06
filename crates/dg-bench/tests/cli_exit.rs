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
fn figure_binaries_reject_typos_with_exit_2() {
    // A typo must not fall back to the minutes-long paper-scale run.
    assert_usage_exit(env!("CARGO_BIN_EXE_fig09_mapspace_perf"), &["--smal"]);
}

#[test]
fn sweep_mapspace_rejects_a_missing_kernel_value_with_exit_2() {
    assert_usage_exit(env!("CARGO_BIN_EXE_sweep_mapspace"), &["--small", "--kernel"]);
}
