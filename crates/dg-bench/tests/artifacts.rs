//! The committed serving artifacts pass the same validators that
//! `serve_monitor` applies before it writes them, so a hand edit or a
//! format change that leaves them stale fails here.

use dg_bench::monitor::{validate_incident, validate_monitor_report};

fn committed(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts/");
    std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("cannot read artifacts/{name}: {e}"))
}

#[test]
fn committed_monitor_report_is_valid() {
    validate_monitor_report(&committed("MONITOR_serve.json")).unwrap();
}

#[test]
fn committed_incident_is_valid() {
    validate_incident(&committed("INCIDENT_serve.jsonl")).unwrap();
}
