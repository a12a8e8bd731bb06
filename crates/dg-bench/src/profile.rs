//! The profiling pass behind `repro_all --profile`.
//!
//! Runs every suite kernel under every configuration of the paper's
//! tables and figures (the same (configuration × kernel) grid as the
//! `--check` gate; the ablation variants are not in it) at full
//! observability (`Level::Trace`) and exports three artifacts:
//!
//! * `PROFILE_repro.json` — `{meta, rows}`: run provenance plus one row
//!   per (configuration, kernel) carrying the headline evaluation
//!   numbers and the full metric registry snapshot of the final system
//!   state ([`dg_system::System::metrics_registry`]).
//! * `TRACE_repro.json` — the span timeline in Chrome `trace_event`
//!   format (load in `chrome://tracing` or Perfetto): one `par.job`
//!   span per pool job plus one `profile.config` span per configuration.
//! * `EVENTS_repro.jsonl` — the surviving structured events (LLC miss
//!   fills, directory back-invalidations) as JSON Lines.
//!
//! [`write_profile`] checks the profile document's shape before it
//! writes any of the three, so an invalid profile never reaches disk.
//!
//! Instrumentation is observation-only, so the evaluation numbers in
//! the profile rows are bit-identical to an unprofiled run (enforced by
//! `tests/obs_identity.rs`). The observability level is restored on
//! exit so a profile pass can share a process with level-sensitive
//! benchmarking.

use crate::check::check_configs;
use crate::experiments::{suite, suite_goldens, Scale, SEED};
use crate::json::{array_document, req_f64, req_str, req_u64, Json, ObjectWriter};
use crate::meta::{validate_meta, RunMeta};
use crate::obs_export::{chrome_trace, events_jsonl, registry_json};
use dg_obs::{Level, Registry};
use dg_par::Pool;
use dg_system::{evaluate_profiled, EvalResult};
use std::path::{Path, PathBuf};

/// Everything one profiling pass produces, rendered and ready to write.
#[derive(Debug)]
pub struct ProfileArtifacts {
    /// The `PROFILE_repro.json` document.
    pub profile_json: String,
    /// The Chrome `trace_event` document.
    pub trace_json: String,
    /// The JSON-Lines event log.
    pub events_jsonl: String,
}

/// Run the full profiling grid at `Level::Trace` and render every
/// artifact. The previous observability level is restored before
/// returning.
pub fn run_profile(scale: Scale) -> ProfileArtifacts {
    let prev = dg_obs::level();
    dg_obs::set_level(Level::Trace);
    dg_obs::configure_events(dg_obs::DEFAULT_EVENT_CAPACITY);
    let _ = dg_obs::take_spans(); // drop spans from earlier phases

    let threads = scale.threads();
    let kernels = suite(scale);
    let goldens = suite_goldens(scale, SEED, threads);
    let configs = check_configs(scale);
    let pool = Pool::new();

    let mut rows = Vec::with_capacity(configs.len() * kernels.len());
    for &(label, cfg) in &configs {
        // One span per configuration wave; jobs inside it get their own
        // `par.job` spans from the pool.
        let config_span = dg_obs::span("profile.config", 0);
        let jobs: Vec<_> = kernels
            .iter()
            .zip(&goldens)
            .map(|(kernel, golden)| {
                move || evaluate_profiled(kernel.as_ref(), cfg, threads, golden)
            })
            .collect();
        let results = pool.run(jobs);
        drop(config_span);
        rows.extend(results.iter().map(|(r, reg)| profile_row(label, r, reg)));
        eprintln!("[profile] finished configuration '{label}'");
    }

    let spans = dg_obs::take_spans();
    let events = dg_obs::take_events();
    dg_obs::set_level(prev);

    ProfileArtifacts {
        profile_json: profile_document(&RunMeta::capture(scale), dg_obs::events_dropped(), &rows),
        trace_json: chrome_trace(&spans),
        events_jsonl: events_jsonl(&events),
    }
}

/// One `rows` element: the headline numbers of one (configuration,
/// kernel) evaluation plus its metric registry.
fn profile_row(config: &str, r: &EvalResult, reg: &Registry) -> String {
    let mut o = ObjectWriter::with_indent(1);
    o.str_field("config", config)
        .str_field("kernel", r.kernel)
        .u64_field("runtime_cycles", r.runtime_cycles)
        .u64_field("instructions", r.instructions)
        .f64_field("output_error", r.output_error)
        .u64_field("off_chip_blocks", r.off_chip_blocks)
        .f64_field("approx_fraction", r.approx_fraction)
        .raw_field("metrics", &registry_json(reg, 2));
    o.finish()
}

/// The `PROFILE_repro.json` document around rendered rows.
fn profile_document(meta: &RunMeta, events_dropped: u64, rows: &[String]) -> String {
    let mut doc = ObjectWriter::with_indent(0);
    doc.raw_field("meta", &meta.to_json(1))
        .u64_field("events_dropped", events_dropped)
        .raw_field("rows", &array_document(rows));
    doc.finish()
}

/// Sibling path of the profile file carrying a fixed artifact name
/// (`TRACE_repro.json`, `EVENTS_repro.jsonl` land next to the profile).
fn sibling(profile_path: &Path, name: &str) -> PathBuf {
    profile_path.with_file_name(name)
}

/// Validate a `PROFILE_repro.json` document: a `meta` provenance
/// stamp, the `events_dropped` counter, and a non-empty `rows` array
/// covering the full (configuration × kernel) grid, each row with its
/// headline numbers and a metric registry holding the hot-path counters
/// and histograms, the access-latency histogram populated (the grid
/// runs at `Level::Trace`).
///
/// Dropped events are a capacity warning printed to stderr, not an
/// error: the rows and histograms are complete either way, only the
/// `EVENTS_repro.jsonl` tail is truncated (the ring drops oldest-first).
///
/// # Errors
///
/// Returns the first violation, naming the row and field.
pub(crate) fn validate_profile_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    validate_meta(doc.get("meta").ok_or("missing 'meta' object")?, "meta")?;
    let dropped = req_u64(&doc, "events_dropped", "profile")?;
    if dropped > 0 {
        eprintln!(
            "[profile] warning: {dropped} events were dropped by the ring — \
             EVENTS_repro.jsonl is missing the oldest events (raise the event \
             capacity if the full log matters)"
        );
    }

    let rows = doc.get("rows").and_then(Json::as_array).ok_or("missing 'rows' array")?;
    if rows.is_empty() {
        return Err("'rows' is empty".into());
    }
    let mut configs = Vec::new();
    let mut kernels = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let config = req_str(row, "config", &format!("rows[{i}]"))?;
        let kernel = req_str(row, "kernel", &format!("rows[{i}]"))?;
        let what = format!("rows[{i}] ({config}/{kernel})");
        if !configs.contains(&config) {
            configs.push(config);
        }
        if !kernels.contains(&kernel) {
            kernels.push(kernel);
        }
        for key in ["runtime_cycles", "instructions", "off_chip_blocks"] {
            req_u64(row, key, &what)?;
        }
        req_f64(row, "output_error", &what)?;
        let metrics = row.get("metrics").ok_or(format!("{what}: missing metrics"))?;
        let what = format!("{what}.metrics");
        for key in ["system.runtime_cycles", "llc.lookups", "llc.hits", "l1.hits", "l2.hits"] {
            req_u64(metrics, key, &what)?;
        }
        for key in
            ["system.access_latency_cycles", "system.wb_residency", "llc.set_occupancy", "llc.chain_depth"]
        {
            let hist = metrics.get(key).ok_or(format!("{what}: histogram {key} missing"))?;
            let hist_what = format!("{what}.{key}");
            let count = req_u64(hist, "count", &hist_what)?;
            hist.get("buckets")
                .and_then(Json::as_array)
                .ok_or(format!("{hist_what}.buckets missing or not an array"))?;
            // The grid runs at Level::Trace, so every access is sampled.
            if key == "system.access_latency_cycles" && count == 0 {
                return Err(format!("{hist_what} is empty — was the run profiled?"));
            }
        }
    }
    if rows.len() != configs.len() * kernels.len() {
        return Err(format!(
            "expected a full grid: {} configs x {} kernels != {} rows",
            configs.len(),
            kernels.len(),
            rows.len()
        ));
    }
    Ok(())
}

/// Run [`run_profile`], validate the profile document, and write all
/// three artifacts: the profile to `path`, the trace and event log
/// alongside it. Nothing is written when the profile is invalid.
///
/// Returns the paths written, profile first.
///
/// # Errors
///
/// Returns an [`std::io::ErrorKind::InvalidData`] error naming the first
/// violation when the rendered profile fails `validate_profile_json`,
/// else the first I/O error from writing any artifact.
pub fn write_profile(scale: Scale, path: &Path) -> std::io::Result<[PathBuf; 3]> {
    let artifacts = run_profile(scale);
    validate_profile_json(&artifacts.profile_json).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("invalid profile: {e}"))
    })?;
    let trace = sibling(path, "TRACE_repro.json");
    let events = sibling(path, "EVENTS_repro.jsonl");
    std::fs::write(path, &artifacts.profile_json)?;
    std::fs::write(&trace, &artifacts.trace_json)?;
    std::fs::write(&events, &artifacts.events_jsonl)?;
    Ok([path.to_path_buf(), trace, events])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn sibling_replaces_only_the_file_name() {
        let p = Path::new("out/PROFILE_repro.json");
        assert_eq!(sibling(p, "TRACE_repro.json"), Path::new("out/TRACE_repro.json"));
        assert_eq!(
            sibling(Path::new("PROFILE_repro.json"), "EVENTS_repro.jsonl"),
            Path::new("EVENTS_repro.jsonl")
        );
    }

    // The full grid is exercised by the verify.sh smoke (and the
    // identity test); here one configuration subset keeps unit-test
    // time sane while still covering the render path and the validator
    // end to end.
    #[test]
    fn profile_rows_render_registries() {
        let prev = dg_obs::level();
        dg_obs::set_level(Level::Trace);
        let scale = Scale::Small;
        let threads = scale.threads();
        let kernels = suite(scale);
        let goldens = suite_goldens(scale, SEED, threads);
        let (r, reg) = dg_system::evaluate_profiled(
            kernels[0].as_ref(),
            scale.split_default(),
            threads,
            &goldens[0],
        );
        dg_obs::set_level(prev);
        let meta = RunMeta::capture(scale);
        let row = profile_row("split", &r, &reg);
        let good = profile_document(&meta, 0, &[row.clone()]);
        validate_profile_json(&good).unwrap();
        let parsed = Json::parse(&row).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert!(metrics.get("system.runtime_cycles").unwrap().as_u64().unwrap() > 0);
        // Dropped events warn; they do not invalidate the rows.
        validate_profile_json(&profile_document(&meta, 3, &[row.clone()])).unwrap();

        let err = |doc: &str| validate_profile_json(doc).unwrap_err();
        let without = |key: &str| good.replace(&format!("\"{key}\":"), "\"renamed\":");
        assert!(err("not json").contains("not valid JSON"));
        assert!(err(&without("git_sha")).contains("meta.git_sha"));
        assert!(err(&without("events_dropped")).contains("events_dropped"));
        assert!(err(&profile_document(&meta, 0, &[])).contains("empty"));
        assert!(err(&without("llc.hits")).contains("llc.hits"));
        assert!(err(&without("llc.chain_depth")).contains("histogram llc.chain_depth missing"));
        // The access-latency histogram with its count zeroed.
        let at = good.find("\"system.access_latency_cycles\": {").unwrap();
        let count = at + good[at..].find("\"count\": ").unwrap() + "\"count\": ".len();
        let digits = good[count..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let empty = format!("{}0{}", &good[..count], &good[count + digits..]);
        assert!(err(&empty).contains("was the run profiled?"));

        // Two configurations over two kernels in three rows: not a grid.
        let other = row.replace(&format!("\"kernel\": \"{}\"", r.kernel), "\"kernel\": \"x\"");
        let mut rows = vec![row, profile_row("unified", &r, &reg), other.clone()];
        assert!(err(&profile_document(&meta, 0, &rows)).contains("full grid"));
        rows.push(other.replace("\"config\": \"split\"", "\"config\": \"unified\""));
        validate_profile_json(&profile_document(&meta, 0, &rows)).unwrap();
    }
}
