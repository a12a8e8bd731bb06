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
//! Instrumentation is observation-only, so the evaluation numbers in
//! the profile rows are bit-identical to an unprofiled run (enforced by
//! `tests/obs_identity.rs`). The observability level is restored on
//! exit so a profile pass can share a process with level-sensitive
//! benchmarking.

use crate::check::check_configs;
use crate::experiments::{suite, suite_goldens, Scale, SEED};
use crate::json::{array_document, ObjectWriter};
use crate::meta::RunMeta;
use crate::obs_export::{chrome_trace, events_jsonl, registry_json};
use dg_obs::Level;
use dg_par::Pool;
use dg_system::evaluate_profiled;
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
        for (r, reg) in results {
            let mut o = ObjectWriter::with_indent(1);
            o.str_field("config", label)
                .str_field("kernel", r.kernel)
                .u64_field("runtime_cycles", r.runtime_cycles)
                .u64_field("instructions", r.instructions)
                .f64_field("output_error", r.output_error)
                .u64_field("off_chip_blocks", r.off_chip_blocks)
                .f64_field("approx_fraction", r.approx_fraction)
                .raw_field("metrics", &registry_json(&reg, 2));
            rows.push(o.finish());
        }
        eprintln!("[profile] finished configuration '{label}'");
    }

    let spans = dg_obs::take_spans();
    let events = dg_obs::take_events();
    dg_obs::set_level(prev);

    let meta = RunMeta::capture(scale);
    let mut doc = ObjectWriter::with_indent(0);
    doc.raw_field("meta", &meta.to_json(1))
        .u64_field("events_dropped", dg_obs::events_dropped())
        .raw_field("rows", &array_document(&rows));

    ProfileArtifacts {
        profile_json: doc.finish(),
        trace_json: chrome_trace(&spans),
        events_jsonl: events_jsonl(&events),
    }
}

/// Sibling path of the profile file carrying a fixed artifact name
/// (`TRACE_repro.json`, `EVENTS_repro.jsonl` land next to the profile).
fn sibling(profile_path: &Path, name: &str) -> PathBuf {
    profile_path.with_file_name(name)
}

/// Run [`run_profile`] and write all three artifacts: the profile to
/// `path`, the trace and event log alongside it.
///
/// Returns the paths written, profile first.
///
/// # Errors
///
/// Returns the first I/O error from writing any artifact.
pub fn write_profile(scale: Scale, path: &Path) -> std::io::Result<[PathBuf; 3]> {
    let artifacts = run_profile(scale);
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
    // time sane while still covering the render path end to end.
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
        assert!(!reg.is_empty());
        let mut o = ObjectWriter::with_indent(0);
        o.str_field("kernel", r.kernel).raw_field("metrics", &registry_json(&reg, 1));
        let parsed = Json::parse(&o.finish()).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert!(metrics.get("system.runtime_cycles").unwrap().as_u64().unwrap() > 0);
        assert!(metrics.get("llc.hits").is_some());
        assert!(metrics.get("system.access_latency_cycles").unwrap().get("count").is_some());
    }
}
