//! The committed files agree with the tables in the code.

use dg_benchmark::metrics;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let committed = read(repo_root().join("BENCHMARK.json"));
    assert_eq!(
        committed,
        metrics::manifest_json(),
        "BENCHMARK.json is stale: regenerate it with `dg-benchmark manifest > BENCHMARK.json`"
    );
    // And it says what the contract needs, read back as JSON.
    let doc = dg_bench::json::Json::parse(&committed).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("a name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), metrics::WORKLOADS.map(|w| w.name.to_string()));
    assert_eq!(names("end_to_end"), metrics::END_TO_END.map(|m| m.name.to_string()));
    let layers: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
    assert_eq!(names("per_layer"), layers);
    for name in names("workloads").iter().chain(&names("end_to_end")).chain(&layers) {
        assert!(metrics::valid_name(name), "{name}");
    }
    assert_eq!(doc.get("run_seconds").and_then(|v| v.as_u64()), Some(metrics::RUN_SECONDS));
    let paths = doc.get("paths").and_then(|v| v.as_array()).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split('#').next().and_then(|kv| kv.split_once('=')))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[test]
fn release_profile_equals_the_roots() {
    let root = release_profile(&read(repo_root().join("Cargo.toml")));
    let ours = release_profile(&read(repo_root().join("benchmark/Cargo.toml")));
    assert!(root.contains_key("lto"), "the root manifest sets lto: {root:?}");
    assert_eq!(ours, root, "benchmark/Cargo.toml must build with the root's release profile");
}

#[test]
fn refuses_to_start_when_a_dg_knob_is_set() {
    // A valid command line is refused before anything runs.
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dg-benchmark"));
    let refused = cmd
        .args(["run", "--workload", "sim_levels", "--smoke"])
        .env("DG_PAR_THREADS", "1")
        .output()
        .expect("run dg-benchmark");
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&refused.stderr).contains("DG_PAR_THREADS"));
}
