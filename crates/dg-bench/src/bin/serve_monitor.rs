//! Long-running monitored serve with an injected degradation phase.
//!
//! Usage:
//! `cargo run --release -p dg-bench --bin serve_monitor [--smoke] [--json PATH] [--incident PATH]`
//!
//! Drives a sharded `dg-serve` server under the `dg-obs` windowed
//! monitor: a steady Zipf-over-similarity phase whose per-shard hit
//! rates the Che oracle predicts, then a mid-run skew mutation into the
//! low-similarity adversarial preset. The run *gates* on the monitor's
//! behaviour — every steady window must be silent, the degradation must
//! be flagged within the anomaly-window budget, and the triggering
//! alarms must include the hit-rate drift detector (the watermark
//! detector may fire alongside it; anything else is a failure). On
//! detection the flight recorder is dumped to an incident JSONL file
//! with full provenance. Both documents are validated before either is
//! written (`artifacts/MONITOR_serve.json` and
//! `artifacts/INCIDENT_serve.jsonl` by default). Exit status: 0 when
//! every gate holds, 1 otherwise or on an invalid document, 2 on a
//! usage error.

use dg_bench::argparse::usage_error;
use dg_bench::meta::RunMeta;
use dg_bench::monitor::{self, MonitorArgs};

/// Print `msg` and exit 1.
fn fail(msg: String) -> ! {
    eprintln!("serve_monitor: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = match MonitorArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => usage_error("serve_monitor", &e, MonitorArgs::USAGE),
    };

    eprintln!(
        "[serve_monitor] running {} monitored serve",
        if args.smoke { "smoke" } else { "full" }
    );
    let out = monitor::run_monitor(args.smoke);
    for r in &out.rows {
        if r.alarms > 0 || r.window.index % 10 == 0 {
            eprintln!(
                "[serve_monitor] {:>7} window {:>3}: {:>6} ops, hit rate {:.4}, {} alarm(s)",
                r.phase,
                r.window.index,
                r.window.ops(),
                r.window.hit_rate(),
                r.alarms
            );
        }
    }

    let report_path = args.json.as_deref().unwrap_or("artifacts/MONITOR_serve.json");
    let incident_path = args.incident.as_deref().unwrap_or("artifacts/INCIDENT_serve.jsonl");
    let report = monitor::report_json(args.scale(), &out) + "\n";
    let jsonl =
        out.incident.as_ref().map(|i| monitor::incident_jsonl(&RunMeta::capture(args.scale()), i));
    // Both documents are validated before either is written, so an
    // invalid one never leaves a mismatched report/incident pair.
    if let Err(e) = monitor::validate_monitor_report(&report) {
        fail(format!("invalid report, nothing written: {e}"));
    }
    if let Err(e) = jsonl.as_deref().map_or(Ok(()), monitor::validate_incident) {
        fail(format!("invalid incident, nothing written: {e}"));
    }
    let write = |path: &str, text: &str| {
        std::fs::write(path, text).unwrap_or_else(|e| fail(format!("failed to write {path}: {e}")));
    };
    write(report_path, &report);
    eprintln!("[serve_monitor] wrote {report_path}");
    if let (Some(incident), Some(jsonl)) = (out.incident.as_ref(), jsonl.as_deref()) {
        write(incident_path, jsonl);
        eprintln!(
            "[serve_monitor] wrote {incident_path} ({} alarms, {} windows, {} events)",
            incident.alarms.len(),
            incident.windows.len(),
            incident.events.len()
        );
    }

    // The gates: steady silence, bounded detection, expected detectors.
    let mut ok = true;
    if out.steady_alarms > 0 {
        eprintln!(
            "serve_monitor: FAIL — {} false alarm(s) across {} steady windows",
            out.steady_alarms,
            out.steady_windows()
        );
        ok = false;
    }
    match out.detection_window {
        Some(w) => {
            eprintln!(
                "[serve_monitor] degradation flagged on anomaly window {w} of {} \
                 (kinds: {})",
                out.plan.max_anomaly_windows,
                out.alarm_kinds.join(", ")
            );
            if !out.alarm_kinds.contains(&"hit_rate_drift") {
                eprintln!("serve_monitor: FAIL — drift detector missing from the triggers");
                ok = false;
            }
            for kind in &out.alarm_kinds {
                if !["hit_rate_drift", "watermark"].contains(kind) {
                    eprintln!("serve_monitor: FAIL — unexpected trigger kind '{kind}'");
                    ok = false;
                }
            }
        }
        None => {
            eprintln!(
                "serve_monitor: FAIL — anomaly not flagged within {} windows",
                out.plan.max_anomaly_windows
            );
            ok = false;
        }
    }
    if out.events_dropped > 0 {
        eprintln!(
            "[serve_monitor] warning: {} events dropped by the ring (incident event \
             tail is incomplete)",
            out.events_dropped
        );
    }
    if ok {
        eprintln!(
            "[serve_monitor] OK: {} silent steady windows, detection within budget",
            out.steady_windows()
        );
    }
    std::process::exit(if ok { 0 } else { 1 });
}
