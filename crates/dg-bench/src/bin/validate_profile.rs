//! CI validator for `PROFILE_repro.json` (written by `repro_all
//! --profile`): parses the file with the in-repo JSON parser and
//! asserts the expected shape — a `meta` provenance stamp, a non-empty
//! `rows` array covering the full (configuration × kernel) grid, and a
//! metric registry per row including the hot-path histograms.
//!
//! Usage: `cargo run --release -p dg-bench --bin validate_profile [PATH]`
//! (default `PROFILE_repro.json`). Exits 1 with a message on the first
//! violation, and 2 with usage on a flag-shaped or second argument.

use dg_bench::argparse::usage_error;
use dg_bench::json::Json;

const USAGE: &str = "usage: validate_profile [PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("validate_profile: {msg}");
    std::process::exit(1);
}

fn parse_path() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "PROFILE_repro.json".to_string());
    if path.starts_with("--") {
        return Err(format!("unknown argument '{path}'"));
    }
    match args.next() {
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
        None => Ok(path),
    }
}

fn main() {
    let path = parse_path().unwrap_or_else(|e| usage_error("validate_profile", &e, USAGE));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not JSON: {e}")));

    let meta = doc.get("meta").unwrap_or_else(|| fail("missing `meta` object"));
    for key in ["git_sha", "scale", "host"] {
        if meta.get(key).and_then(Json::as_str).is_none() {
            fail(&format!("meta.{key} missing or not a string"));
        }
    }
    if meta.get("threads").and_then(Json::as_u64).is_none() {
        fail("meta.threads missing or not an integer");
    }

    // Event loss is surfaced, not hidden, but it is a capacity warning
    // rather than a shape error: the profile rows and histograms are
    // complete either way, only the EVENTS_repro.jsonl tail may be
    // truncated (the ring drops oldest-first).
    match doc.get("events_dropped").and_then(Json::as_u64) {
        Some(0) => {}
        Some(n) => eprintln!(
            "validate_profile: warning: {n} events were dropped by the ring — \
             EVENTS_repro.jsonl is missing the oldest events (raise the event \
             capacity if the full log matters)"
        ),
        None => fail("missing `events_dropped` counter"),
    }

    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("missing `rows` array"));
    if rows.is_empty() {
        fail("`rows` is empty");
    }

    let mut configs = Vec::new();
    let mut kernels = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let config = row
            .get("config")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("row {i}: missing config")));
        let kernel = row
            .get("kernel")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("row {i}: missing kernel")));
        if !configs.contains(&config.to_string()) {
            configs.push(config.to_string());
        }
        if !kernels.contains(&kernel.to_string()) {
            kernels.push(kernel.to_string());
        }
        for key in ["runtime_cycles", "instructions", "off_chip_blocks"] {
            if row.get(key).and_then(Json::as_u64).is_none() {
                fail(&format!("row {i} ({config}/{kernel}): {key} missing or not an integer"));
            }
        }
        if row.get("output_error").and_then(Json::as_f64).is_none() {
            fail(&format!("row {i} ({config}/{kernel}): output_error missing"));
        }
        let metrics = row
            .get("metrics")
            .unwrap_or_else(|| fail(&format!("row {i} ({config}/{kernel}): missing metrics")));
        for key in ["system.runtime_cycles", "llc.lookups", "llc.hits", "l1.hits", "l2.hits"] {
            if metrics.get(key).and_then(Json::as_u64).is_none() {
                fail(&format!("row {i} ({config}/{kernel}): metric {key} missing"));
            }
        }
        for key in
            ["system.access_latency_cycles", "system.wb_residency", "llc.set_occupancy", "llc.chain_depth"]
        {
            let hist = metrics
                .get(key)
                .unwrap_or_else(|| fail(&format!("row {i} ({config}/{kernel}): histogram {key} missing")));
            if hist.get("count").and_then(Json::as_u64).is_none()
                || hist.get("buckets").and_then(Json::as_array).is_none()
            {
                fail(&format!("row {i} ({config}/{kernel}): histogram {key} malformed"));
            }
        }
        // The run was profiled at Level::Trace, so the per-access
        // latency histogram must actually hold samples.
        let lat = metrics.get("system.access_latency_cycles").unwrap();
        if lat.get("count").and_then(Json::as_u64) == Some(0) {
            fail(&format!(
                "row {i} ({config}/{kernel}): access-latency histogram is empty — was the run profiled?"
            ));
        }
    }

    if rows.len() != configs.len() * kernels.len() {
        fail(&format!(
            "expected a full grid: {} configs x {} kernels != {} rows",
            configs.len(),
            kernels.len(),
            rows.len()
        ));
    }

    println!(
        "ok: {path} valid ({} rows, {} configs x {} kernels, sha {})",
        rows.len(),
        configs.len(),
        kernels.len(),
        meta.get("git_sha").and_then(Json::as_str).unwrap_or("?")
    );
}
