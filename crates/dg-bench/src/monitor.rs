//! Driver and serialization for the `serve_monitor` binary: a
//! long-running sharded `dg-serve` server under windowed online
//! monitoring (DESIGN.md §12, docs/OBSERVABILITY.md).
//!
//! The run has two phases. A *steady* phase drives the server with the
//! calibrated Zipf-over-similarity workload whose per-shard hit rates
//! the Che oracle predicts ([`SimilarityWorkload::expected_shard_hit_rates`]);
//! the armed [`ServerMonitor`] must stay silent across every steady
//! window. Then the workload's cluster skew mutates mid-run into the
//! low-similarity adversarial preset (same traffic volume, collapsed
//! similarity) and the monitor must flag the degradation within a
//! bounded number of windows. On detection the flight recorder is
//! dumped: the last K windows plus the drained event ring become an
//! incident file in JSON Lines, stamped with full [`RunMeta`]
//! provenance.
//!
//! Two artifacts, each validated by `serve_monitor` before it is
//! written (the committed full-scale pair lives under `artifacts/`):
//!
//! * `MONITOR_serve.json` — `{meta, events_dropped, config, summary,
//!   rows}`: one row per closed window with per-window rates and alarm
//!   counts ([`validate_monitor_report`]).
//! * `INCIDENT_serve.jsonl` — one object per line, `t`-tagged: a
//!   leading `meta` line, then the triggering `alarm` lines, the
//!   recorded `window` lines (oldest first) and the drained `event`
//!   lines ([`validate_incident`]).

use crate::argparse::{set_flag, set_value, take_value};
use crate::experiments::Scale;
use crate::json::{
    array_document, escape, number, opt_u64_field, req_f64, req_str, req_u64, Json, ObjectWriter,
};
use crate::meta::{validate_meta, RunMeta};
use dg_obs::monitor::{
    AlarmKind, DriftRule, ImbalanceRule, Incident, LatencyRule, MonitorConfig, WatermarkRule,
    Window,
};
use dg_obs::Level;
use dg_serve::{ServeConfig, Server, ServerMonitor, SimilarityWorkload, WorkloadSpec};

/// Parsed arguments of the `serve_monitor` binary (strict: anything
/// outside this set aborts with usage, like the other bench binaries).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorArgs {
    /// Reduced-scale run: small server, tier-1 workload (`--smoke`).
    pub smoke: bool,
    /// Report path (`--json PATH`, default
    /// `artifacts/MONITOR_serve.json`).
    pub json: Option<String>,
    /// Incident path (`--incident PATH`, default
    /// `artifacts/INCIDENT_serve.jsonl`).
    pub incident: Option<String>,
}

impl MonitorArgs {
    /// The usage message printed on a parse error.
    pub const USAGE: &'static str = "usage: serve_monitor [--smoke] [--json PATH] \
                                     [--incident PATH]\n\
                                     \n\
                                     --smoke          short run: small server, tier-1 workload\n\
                                     --json PATH      report path (default artifacts/MONITOR_serve.json)\n\
                                     --incident PATH  incident path (default artifacts/INCIDENT_serve.jsonl)";

    /// Parse the arguments after the program name.
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut out = MonitorArgs::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => set_flag(&mut out.smoke, "--smoke")?,
                "--json" | "--incident" => {
                    let value = take_value(&mut it, &arg)?;
                    let slot =
                        if arg == "--json" { &mut out.json } else { &mut out.incident };
                    set_value(slot, &arg, value)?;
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(out)
    }

    /// The scale stamped into the report's provenance.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Small
        } else {
            Scale::Paper
        }
    }
}

/// Shape of one monitored run.
#[derive(Clone, Debug)]
pub struct MonitorPlan {
    /// Server configuration.
    pub cfg: ServeConfig,
    /// Steady-phase workload (Che-predictable).
    pub steady: WorkloadSpec,
    /// Anomaly-phase workload (low-similarity adversarial preset).
    pub adversarial: WorkloadSpec,
    /// Requests per batch.
    pub batch: usize,
    /// Batches between window closes.
    pub batches_per_window: usize,
    /// Unmonitored warm-up batches before arming (the Che baseline
    /// models steady state, not the cold-start transient).
    pub warmup_batches: usize,
    /// Steady windows to observe (all must be silent).
    pub steady_windows: usize,
    /// Window budget for detecting the injected anomaly.
    pub max_anomaly_windows: usize,
    /// Flight-recorder depth (K).
    pub history: usize,
}

/// The run shape at each scale. The smoke plan mirrors the tier-1
/// hit-rate gate calibration (same config, same workload, ~160k warm-up
/// ops); the full plan runs the 16-shard bench server.
#[must_use]
pub fn plan(smoke: bool) -> MonitorPlan {
    if smoke {
        MonitorPlan {
            cfg: ServeConfig::small(),
            steady: WorkloadSpec::tier1(),
            adversarial: WorkloadSpec::tier1_adversarial(),
            batch: 4_096,
            batches_per_window: 2,
            warmup_batches: 40,
            steady_windows: 50,
            max_anomaly_windows: 5,
            history: 12,
        }
    } else {
        MonitorPlan {
            cfg: ServeConfig::bench(),
            steady: WorkloadSpec::bench(),
            adversarial: WorkloadSpec::bench_adversarial(),
            batch: 32_768,
            batches_per_window: 2,
            warmup_batches: 16,
            steady_windows: 60,
            max_anomaly_windows: 5,
            history: 16,
        }
    }
}

/// The detector rules `serve_monitor` arms: Che drift with the oracle
/// gate's band, a conservative latency-tail EWMA (8× with persistence,
/// sized for noisy CI hosts), shard imbalance, and displacement /
/// writeback watermarks. The occupancy watermark is disabled — a
/// healthy steady-state server runs with a full data array, so
/// occupancy alone carries no alarm signal here.
#[must_use]
pub fn detector_config(history: usize, baseline: Vec<f64>) -> MonitorConfig {
    MonitorConfig {
        history,
        drift: Some(DriftRule {
            baseline,
            model_tolerance: dg_serve::MODEL_TOLERANCE,
            sigmas: 3.0,
            min_lookups: 256,
        }),
        latency: Some(LatencyRule {
            alpha: 0.25,
            multiplier: 8.0,
            warmup_windows: 5,
            persistence: 3,
        }),
        imbalance: Some(ImbalanceRule { max_over_mean: 3.0, min_ops: 1024 }),
        watermark: Some(WatermarkRule {
            displaced_per_lookup: 0.6,
            dirty_per_op: 0.5,
            occupancy: f64::INFINITY,
            min_lookups: 256,
        }),
    }
}

/// One closed window in the report, tagged with its phase.
#[derive(Clone, Debug)]
pub struct WindowRow {
    /// `"steady"` or `"anomaly"`.
    pub phase: &'static str,
    /// The observed window.
    pub window: Window,
    /// Alarms this window raised.
    pub alarms: u64,
}

impl WindowRow {
    /// Render as a JSON object at array-element depth.
    #[must_use]
    pub fn to_json(&self) -> String {
        let w = &self.window;
        let displaced: u64 = w.shards.iter().map(|s| s.displaced).sum();
        let dirty: u64 = w.shards.iter().map(|s| s.dirty_writebacks).sum();
        let occupancy_max = w.shards.iter().map(|s| s.occupancy).fold(0.0, f64::max);
        let mut o = ObjectWriter::with_indent(1);
        o.str_field("phase", self.phase)
            .u64_field("index", w.index)
            .u64_field("wall_ns", w.wall_ns)
            .u64_field("ops", w.ops())
            .f64_field("ops_per_sec", w.ops_per_sec())
            .u64_field("lookups", w.lookups())
            .u64_field("hits", w.hits())
            .f64_field("hit_rate", w.hit_rate())
            .u64_field("displaced", displaced)
            .u64_field("dirty_writebacks", dirty)
            .f64_field("occupancy_max", occupancy_max)
            .raw_field("batch_p50_ns", &opt_u64(w.batch_p50_ns))
            .raw_field("batch_p99_ns", &opt_u64(w.batch_p99_ns))
            .u64_field("alarms", self.alarms);
        o.finish()
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// Everything one monitored run produced.
#[derive(Debug)]
pub struct MonitorOutcome {
    /// The plan the run executed.
    pub plan: MonitorPlan,
    /// Every closed window, steady phase first.
    pub rows: Vec<WindowRow>,
    /// Alarms raised during the steady phase (must be 0).
    pub steady_alarms: u64,
    /// 1-based anomaly window the first alarm fired on, if any.
    pub detection_window: Option<u64>,
    /// Distinct alarm kinds in the triggering set.
    pub alarm_kinds: Vec<&'static str>,
    /// The flight-recorder dump captured at detection.
    pub incident: Option<Incident>,
    /// Global event-ring drops over the run (surfaced in the report;
    /// nonzero means the incident's event tail is incomplete).
    pub events_dropped: u64,
}

impl MonitorOutcome {
    /// Steady windows observed.
    pub fn steady_windows(&self) -> u64 {
        self.rows.iter().filter(|r| r.phase == "steady").count() as u64
    }

    /// Anomaly windows observed before the run stopped.
    pub fn anomaly_windows(&self) -> u64 {
        self.rows.iter().filter(|r| r.phase == "anomaly").count() as u64
    }
}

/// Run the monitored two-phase serve: warm up, arm, hold the steady
/// phase, inject the adversarial phase, stop at the first alarm.
///
/// The process observability level is forced to [`Level::Metrics`] for
/// the duration (the latency detector needs batch timings) and restored
/// before returning. Monitoring is observation-only, so the forced
/// level changes no response byte (`obs_identity`, `tests/monitor.rs`
/// in dg-serve).
pub fn run_monitor(smoke: bool) -> MonitorOutcome {
    let plan = plan(smoke);
    let prev = dg_obs::level();
    dg_obs::set_level(Level::Metrics);
    dg_obs::configure_events(dg_obs::DEFAULT_EVENT_CAPACITY);
    let _ = dg_obs::take_events(); // drop events from earlier phases

    let server = Server::new(plan.cfg).expect("monitor plan config is valid");
    let mut steady = SimilarityWorkload::new(plan.steady, &plan.cfg);
    let baseline: Vec<f64> =
        steady.expected_shard_hit_rates(&server).iter().map(|e| e.hit_rate).collect();
    for _ in 0..plan.warmup_batches {
        server.run_batch(&steady.batch(plan.batch));
    }

    let mut mon = ServerMonitor::arm(&server, detector_config(plan.history, baseline));
    let mut rows = Vec::with_capacity(plan.steady_windows + plan.max_anomaly_windows);
    let mut steady_alarms = 0u64;
    for _ in 0..plan.steady_windows {
        for _ in 0..plan.batches_per_window {
            server.run_batch(&steady.batch(plan.batch));
        }
        let (window, alarms) = mon.window(&server);
        steady_alarms += alarms.len() as u64;
        rows.push(WindowRow { phase: "steady", window, alarms: alarms.len() as u64 });
    }

    // Mid-run skew mutation: same traffic volume, similarity collapsed.
    let mut adversarial = SimilarityWorkload::new(plan.adversarial, &plan.cfg);
    let mut detection_window = None;
    let mut alarm_kinds: Vec<&'static str> = Vec::new();
    let mut incident = None;
    for i in 1..=plan.max_anomaly_windows as u64 {
        for _ in 0..plan.batches_per_window {
            server.run_batch(&adversarial.batch(plan.batch));
        }
        let (window, alarms) = mon.window(&server);
        rows.push(WindowRow { phase: "anomaly", window, alarms: alarms.len() as u64 });
        if !alarms.is_empty() {
            detection_window = Some(i);
            for a in &alarms {
                if !alarm_kinds.contains(&a.kind.name()) {
                    alarm_kinds.push(a.kind.name());
                }
            }
            incident = Some(mon.incident(alarms));
            break;
        }
    }

    // The incident captured the drop count before draining the sink;
    // without one (no detection) read it directly.
    let events_dropped = incident
        .as_ref()
        .map_or_else(dg_obs::events_dropped, |i: &Incident| i.events_dropped);
    let _ = dg_obs::take_spans(); // don't leak this run's spans to later phases
    dg_obs::set_level(prev);

    MonitorOutcome {
        plan,
        rows,
        steady_alarms,
        detection_window,
        alarm_kinds,
        incident,
        events_dropped,
    }
}

/// Render the `MONITOR_serve.json` document.
#[must_use]
pub fn report_json(scale: Scale, out: &MonitorOutcome) -> String {
    let mut config = ObjectWriter::with_indent(1);
    config
        .u64_field("shards", out.plan.cfg.shards as u64)
        .u64_field("batch", out.plan.batch as u64)
        .u64_field("batches_per_window", out.plan.batches_per_window as u64)
        .u64_field("warmup_batches", out.plan.warmup_batches as u64)
        .u64_field("steady_windows", out.plan.steady_windows as u64)
        .u64_field("max_anomaly_windows", out.plan.max_anomaly_windows as u64)
        .u64_field("history", out.plan.history as u64);

    let kinds: Vec<String> =
        out.alarm_kinds.iter().map(|k| format!("\"{}\"", escape(k))).collect();
    let mut summary = ObjectWriter::with_indent(1);
    summary
        .u64_field("steady_windows", out.steady_windows())
        .u64_field("steady_alarms", out.steady_alarms)
        .u64_field("anomaly_windows", out.anomaly_windows())
        .raw_field("detected", if out.detection_window.is_some() { "true" } else { "false" })
        .raw_field("detection_window", &opt_u64(out.detection_window))
        .raw_field("alarm_kinds", &format!("[{}]", kinds.join(", ")));

    let rendered: Vec<String> = out.rows.iter().map(WindowRow::to_json).collect();
    let mut doc = ObjectWriter::with_indent(0);
    doc.raw_field("meta", &RunMeta::capture(scale).to_json(1))
        .u64_field("events_dropped", out.events_dropped)
        .raw_field("config", &config.finish())
        .raw_field("summary", &summary.finish())
        .raw_field("rows", &array_document(&rendered));
    doc.finish()
}

/// Render an incident dump as JSON Lines: a `meta` line (provenance
/// plus section counts), then the triggering alarms, the recorded
/// windows oldest-first, and the drained events.
#[must_use]
pub fn incident_jsonl(meta: &RunMeta, incident: &Incident) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"t\": \"meta\", \"git_sha\": \"{}\", \"threads\": {}, \"scale\": \"{}\", \
         \"host\": \"{}\", \"simd\": \"{}\", \"alarms\": {}, \"windows\": {}, \
         \"events\": {}, \"windows_dropped\": {}, \"events_dropped\": {}}}\n",
        escape(&meta.git_sha),
        meta.threads,
        escape(meta.scale),
        escape(&meta.host),
        escape(meta.simd),
        incident.alarms.len(),
        incident.windows.len(),
        incident.events.len(),
        incident.windows_dropped,
        incident.events_dropped,
    ));
    for a in &incident.alarms {
        out.push_str(&format!(
            "{{\"t\": \"alarm\", \"window\": {}, \"shard\": {}, \"kind\": \"{}\", \
             \"measured\": {}, \"expected\": {}, \"threshold\": {}, \"message\": \"{}\"}}\n",
            a.window,
            a.shard.map_or("null".to_string(), |s| s.to_string()),
            a.kind.name(),
            number(a.measured),
            number(a.expected),
            number(a.threshold),
            escape(&a.message),
        ));
    }
    for w in &incident.windows {
        let displaced: u64 = w.shards.iter().map(|s| s.displaced).sum();
        let dirty: u64 = w.shards.iter().map(|s| s.dirty_writebacks).sum();
        let occupancy_max = w.shards.iter().map(|s| s.occupancy).fold(0.0, f64::max);
        let shards: Vec<String> = w
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\": {}, \"ops\": {}, \"lookups\": {}, \"hits\": {}, \
                     \"displaced\": {}, \"dirty_writebacks\": {}, \"occupancy\": {}}}",
                    s.shard, s.ops, s.lookups, s.hits, s.displaced, s.dirty_writebacks,
                    number(s.occupancy),
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"t\": \"window\", \"index\": {}, \"wall_ns\": {}, \"ops\": {}, \
             \"lookups\": {}, \"hits\": {}, \"hit_rate\": {}, \"displaced\": {}, \
             \"dirty_writebacks\": {}, \"occupancy_max\": {}, \"batch_p50_ns\": {}, \
             \"batch_p99_ns\": {}, \"shards\": [{}]}}\n",
            w.index,
            w.wall_ns,
            w.ops(),
            w.lookups(),
            w.hits(),
            number(w.hit_rate()),
            displaced,
            dirty,
            number(occupancy_max),
            opt_u64(w.batch_p50_ns),
            opt_u64(w.batch_p99_ns),
            shards.join(", "),
        ));
    }
    for e in &incident.events {
        out.push_str(&format!(
            "{{\"t\": \"event\", \"seq\": {}, \"ts_us\": {}, \"kind\": \"{}\", \
             \"a\": {}, \"b\": {}}}\n",
            e.seq,
            e.ts_us,
            escape(e.kind),
            e.a,
            e.b,
        ));
    }
    out
}

/// Validate the shape of a `MONITOR_serve.json` document: provenance,
/// run configuration, a summary consistent with the rows, and one
/// well-formed row per closed window (steady phase first, indices
/// strictly increasing, rates in range, latency quantiles monotone
/// where present).
pub fn validate_monitor_report(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    validate_meta(doc.get("meta").ok_or("missing 'meta' object")?, "meta")?;
    req_u64(&doc, "events_dropped", "report")?;

    let config = doc.get("config").ok_or("missing 'config' object")?;
    for field in [
        "shards",
        "batch",
        "batches_per_window",
        "warmup_batches",
        "steady_windows",
        "max_anomaly_windows",
        "history",
    ] {
        if req_u64(config, field, "config")? == 0 {
            return Err(format!("config.{field} is zero"));
        }
    }

    let summary = doc.get("summary").ok_or("missing 'summary' object")?;
    let steady_windows = req_u64(summary, "steady_windows", "summary")?;
    let steady_alarms = req_u64(summary, "steady_alarms", "summary")?;
    let anomaly_windows = req_u64(summary, "anomaly_windows", "summary")?;
    let detected = match summary.get("detected") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("summary.detected missing or not a bool".into()),
    };
    let detection = opt_u64_field(summary, "detection_window", "summary")?;
    match (detected, detection) {
        (true, Some(w)) if w >= 1 && w <= anomaly_windows => {}
        (false, None) => {}
        _ => {
            return Err(format!(
                "summary.detected = {detected} inconsistent with detection_window = \
                 {detection:?} over {anomaly_windows} anomaly windows"
            ))
        }
    }
    let kinds = summary
        .get("alarm_kinds")
        .and_then(Json::as_array)
        .ok_or("summary.alarm_kinds missing or not an array")?;
    for k in kinds {
        let k = k.as_str().ok_or("summary.alarm_kinds entry is not a string")?;
        AlarmKind::parse(k).ok_or(format!("summary.alarm_kinds has unknown kind '{k}'"))?;
    }
    if detected && kinds.is_empty() {
        return Err("detected run must name at least one alarm kind".into());
    }

    let rows = doc.get("rows").and_then(Json::as_array).ok_or("missing 'rows' array")?;
    if rows.len() as u64 != steady_windows + anomaly_windows {
        return Err(format!(
            "summary counts {steady_windows}+{anomaly_windows} windows but rows holds {}",
            rows.len()
        ));
    }
    let mut seen_anomaly = false;
    let mut counted_steady_alarms = 0u64;
    let mut prev_index = None;
    for (i, row) in rows.iter().enumerate() {
        let what = format!("rows[{i}]");
        let phase = req_str(row, "phase", &what)?;
        match phase {
            "steady" => {
                if seen_anomaly {
                    return Err(format!("{what}: steady row after an anomaly row"));
                }
                counted_steady_alarms += req_u64(row, "alarms", &what)?;
            }
            "anomaly" => seen_anomaly = true,
            other => return Err(format!("{what}: unknown phase '{other}'")),
        }
        let index = req_u64(row, "index", &what)?;
        if let Some(prev) = prev_index {
            if index <= prev {
                return Err(format!("{what}: window index {index} not above {prev}"));
            }
        }
        prev_index = Some(index);
        for field in ["wall_ns", "ops", "lookups", "hits", "displaced", "dirty_writebacks"] {
            req_u64(row, field, &what)?;
        }
        if req_u64(row, "hits", &what)? > req_u64(row, "lookups", &what)? {
            return Err(format!("{what}: hits exceed lookups"));
        }
        let ops_per_sec = req_f64(row, "ops_per_sec", &what)?;
        if !(ops_per_sec.is_finite() && ops_per_sec >= 0.0) {
            return Err(format!("{what}.ops_per_sec = {ops_per_sec} is not a rate"));
        }
        let hit_rate = req_f64(row, "hit_rate", &what)?;
        if !(0.0..=1.0).contains(&hit_rate) {
            return Err(format!("{what}.hit_rate = {hit_rate} outside [0, 1]"));
        }
        let occ = req_f64(row, "occupancy_max", &what)?;
        if !(0.0..=1.0).contains(&occ) {
            return Err(format!("{what}.occupancy_max = {occ} outside [0, 1]"));
        }
        let p50 = opt_u64_field(row, "batch_p50_ns", &what)?;
        let p99 = opt_u64_field(row, "batch_p99_ns", &what)?;
        if let (Some(p50), Some(p99)) = (p50, p99) {
            if p50 > p99 {
                return Err(format!(
                    "{what}: batch_p50_ns {p50} exceeds batch_p99_ns {p99} \
                     (quantiles must be monotone)"
                ));
            }
        }
        req_u64(row, "alarms", &what)?;
    }
    if counted_steady_alarms != steady_alarms {
        return Err(format!(
            "summary.steady_alarms = {steady_alarms} but steady rows carry \
             {counted_steady_alarms}"
        ));
    }
    if detected {
        let last = rows.last().ok_or("detected run has no rows")?;
        if req_str(last, "phase", "rows[last]")? != "anomaly"
            || req_u64(last, "alarms", "rows[last]")? == 0
        {
            return Err("detected run must end on the alarming anomaly window".into());
        }
    }
    Ok(())
}

/// Validate the shape of an `INCIDENT_serve.jsonl` dump: a leading
/// `meta` line whose section counts match the file, at least one alarm
/// and one window, known alarm kinds, strictly increasing window
/// indices and event sequence numbers, rates in range.
pub fn validate_incident(text: &str) -> Result<(), String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("incident file is empty")?;
    let meta = Json::parse(first).map_err(|e| format!("line 1 is not JSON: {e}"))?;
    if meta.get("t").and_then(Json::as_str) != Some("meta") {
        return Err("line 1 must be the t=\"meta\" line".into());
    }
    validate_meta(&meta, "meta")?;
    req_str(&meta, "simd", "meta")?;
    let want_alarms = req_u64(&meta, "alarms", "meta")?;
    let want_windows = req_u64(&meta, "windows", "meta")?;
    let want_events = req_u64(&meta, "events", "meta")?;
    req_u64(&meta, "windows_dropped", "meta")?;
    req_u64(&meta, "events_dropped", "meta")?;
    if want_alarms == 0 {
        return Err("an incident must carry at least one alarm".into());
    }
    if want_windows == 0 {
        return Err("an incident must carry at least one recorded window".into());
    }

    let (mut alarms, mut windows, mut events) = (0u64, 0u64, 0u64);
    let mut prev_window = None;
    let mut prev_seq = None;
    for (i, line) in lines {
        let what = format!("line {}", i + 1);
        let obj = Json::parse(line).map_err(|e| format!("{what} is not JSON: {e}"))?;
        match obj.get("t").and_then(Json::as_str) {
            Some("alarm") => {
                alarms += 1;
                req_u64(&obj, "window", &what)?;
                opt_u64_field(&obj, "shard", &what)?;
                let kind = req_str(&obj, "kind", &what)?;
                AlarmKind::parse(kind)
                    .ok_or(format!("{what}: unknown alarm kind '{kind}'"))?;
                for field in ["measured", "expected", "threshold"] {
                    req_f64(&obj, field, &what)?;
                }
                req_str(&obj, "message", &what)?;
            }
            Some("window") => {
                windows += 1;
                let index = req_u64(&obj, "index", &what)?;
                if let Some(prev) = prev_window {
                    if index <= prev {
                        return Err(format!(
                            "{what}: window index {index} not above {prev} \
                             (recorder order is oldest first)"
                        ));
                    }
                }
                prev_window = Some(index);
                for field in ["wall_ns", "ops", "lookups", "hits"] {
                    req_u64(&obj, field, &what)?;
                }
                let hit_rate = req_f64(&obj, "hit_rate", &what)?;
                if !(0.0..=1.0).contains(&hit_rate) {
                    return Err(format!("{what}.hit_rate = {hit_rate} outside [0, 1]"));
                }
                let shards =
                    obj.get("shards").and_then(Json::as_array).ok_or(format!(
                        "{what}.shards missing or not an array"
                    ))?;
                if shards.is_empty() {
                    return Err(format!("{what}.shards is empty"));
                }
            }
            Some("event") => {
                events += 1;
                let seq = req_u64(&obj, "seq", &what)?;
                if let Some(prev) = prev_seq {
                    if seq <= prev {
                        return Err(format!("{what}: event seq {seq} not above {prev}"));
                    }
                }
                prev_seq = Some(seq);
                req_u64(&obj, "ts_us", &what)?;
                req_str(&obj, "kind", &what)?;
            }
            Some("meta") => return Err(format!("{what}: duplicate meta line")),
            other => return Err(format!("{what}: unknown line tag {other:?}")),
        }
    }
    if (alarms, windows, events) != (want_alarms, want_windows, want_events) {
        return Err(format!(
            "meta promises {want_alarms} alarms / {want_windows} windows / {want_events} \
             events but the file holds {alarms} / {windows} / {events}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_obs::monitor::{Alarm, ShardWindow};
    use dg_obs::Event;

    fn parse(args: &[&str]) -> Result<MonitorArgs, String> {
        MonitorArgs::parse(args.iter().copied())
    }

    #[test]
    fn args_parse_strictly() {
        assert_eq!(parse(&[]).unwrap(), MonitorArgs::default());
        let a = parse(&["--smoke", "--json", "m.json", "--incident", "i.jsonl"]).unwrap();
        assert!(a.smoke);
        assert_eq!(a.json.as_deref(), Some("m.json"));
        assert_eq!(a.incident.as_deref(), Some("i.jsonl"));
        assert_eq!(a.scale(), Scale::Small);

        assert!(parse(&["--smok"]).is_err(), "typos must be rejected");
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--json", "--smoke"]).is_err(), "flag-shaped value must not be eaten");
        assert!(parse(&["--smoke", "--smoke"]).is_err());
        assert!(parse(&["--validate", "x"]).is_err(), "validation is part of writing");
        assert!(parse(&["--validate-incident", "x"]).is_err());
    }

    #[test]
    fn plans_stay_inside_the_detection_contract() {
        for smoke in [true, false] {
            let p = plan(smoke);
            assert!(p.max_anomaly_windows <= 5, "detection budget is 5 windows");
            assert!(p.steady_windows >= 50, "steady silence needs at least 50 windows");
            assert!(p.history >= 2);
            // The warm-up must cover the cold-start transient the Che
            // baseline ignores (the tier-1 hit-rate gate calibration).
            assert!(p.warmup_batches * p.batch >= 150_000);
            let cfg = detector_config(p.history, vec![0.5; p.cfg.shards]);
            assert_eq!(cfg.history, p.history);
            assert!(cfg.drift.is_some() && cfg.latency.is_some());
            assert!(cfg.watermark.unwrap().occupancy.is_infinite());
        }
    }

    /// The end-to-end contract on the smoke plan: 50 silent steady
    /// windows, detection within the 5-window budget with the drift
    /// detector among the triggers, and both artifacts validating.
    #[test]
    fn smoke_run_detects_the_injected_phase_and_exports_validate() {
        let out = run_monitor(true);
        assert_eq!(out.steady_alarms, 0, "steady phase must be silent");
        assert_eq!(out.steady_windows(), 50);
        let detected = out.detection_window.expect("anomaly must be detected");
        assert!(detected <= 5, "detection took {detected} windows");
        assert!(
            out.alarm_kinds.contains(&"hit_rate_drift"),
            "drift must be among the triggers: {:?}",
            out.alarm_kinds
        );
        for kind in &out.alarm_kinds {
            assert!(
                ["hit_rate_drift", "watermark"].contains(kind),
                "unexpected trigger kind {kind}"
            );
        }

        let report = report_json(Scale::Small, &out);
        validate_monitor_report(&report).unwrap();

        let incident = out.incident.as_ref().expect("detection produces an incident");
        let jsonl = incident_jsonl(&RunMeta::capture(Scale::Small), incident);
        validate_incident(&jsonl).unwrap();
        // The triggering window is the newest recorded one.
        assert_eq!(incident.windows.last().unwrap().index, incident.alarms[0].window);
    }

    fn sample_incident() -> Incident {
        let shard = |i: u32, lookups: u64, hits: u64| ShardWindow {
            shard: i,
            ops: lookups,
            lookups,
            hits,
            displaced: 3,
            dirty_writebacks: 1,
            occupancy: 0.75,
            batch_p50_ns: Some(1000),
            batch_p99_ns: Some(2000),
        };
        let window = |index: u64, hits: u64| Window {
            index,
            wall_ns: 5_000_000,
            shards: vec![shard(0, 512, hits), shard(1, 512, hits)],
            batch_p50_ns: Some(1000),
            batch_p99_ns: Some(2000),
        };
        Incident {
            alarms: vec![Alarm {
                window: 4,
                shard: Some(1),
                kind: AlarmKind::HitRateDrift,
                measured: 0.31,
                expected: 0.79,
                threshold: 0.08,
                message: "shard 1 hit rate 0.31 drifted".into(),
            }],
            windows: vec![window(2, 400), window(3, 410), window(4, 160)],
            windows_dropped: 2,
            events: vec![
                Event { seq: 7, ts_us: 10, kind: "monitor.window", a: 2, b: 400 },
                Event { seq: 9, ts_us: 20, kind: "monitor.alarm", a: 4, b: 1 },
            ],
            events_dropped: 0,
        }
    }

    #[test]
    fn incident_jsonl_round_trips_and_rejects_tampering() {
        let meta = RunMeta::capture(Scale::Small);
        let good = incident_jsonl(&meta, &sample_incident());
        validate_incident(&good).unwrap();

        // Missing meta line.
        let headless: String =
            good.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(validate_incident(&headless).unwrap_err().contains("meta"));

        // An unknown alarm kind.
        let bad_kind = good.replace("hit_rate_drift", "hit_rate_dirft");
        assert!(validate_incident(&bad_kind).unwrap_err().contains("hit_rate_dirft"));

        // Window order violated (swap the two window lines).
        let mut lines: Vec<&str> = good.lines().collect();
        let wins: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"t\": \"window\""))
            .map(|(i, _)| i)
            .collect();
        lines.swap(wins[0], wins[1]);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate_incident(&swapped).unwrap_err().contains("oldest first"));

        // A dropped event line breaks the meta counts.
        let truncated: String =
            good.lines().take(good.lines().count() - 1).map(|l| format!("{l}\n")).collect();
        assert!(validate_incident(&truncated).unwrap_err().contains("promises"));

        // An incident without alarms is not an incident.
        let mut no_alarms = sample_incident();
        no_alarms.alarms.clear();
        let rendered = incident_jsonl(&meta, &no_alarms);
        assert!(validate_incident(&rendered).unwrap_err().contains("at least one alarm"));
    }

    #[test]
    fn report_validation_rejects_malformed_documents() {
        assert!(validate_monitor_report("not json").is_err());
        assert!(validate_monitor_report("{}").is_err());
        let shell = |summary: &str, rows: &str| {
            format!(
                r#"{{"meta": {{"git_sha": "x", "threads": 2, "scale": "small", "host": "h"}},
                    "events_dropped": 0,
                    "config": {{"shards": 4, "batch": 4096, "batches_per_window": 2,
                                "warmup_batches": 40, "steady_windows": 1,
                                "max_anomaly_windows": 5, "history": 12}},
                    "summary": {summary}, "rows": {rows}}}"#
            )
        };
        let row = |phase: &str, index: u64, hit_rate: f64, alarms: u64| {
            format!(
                r#"{{"phase": "{phase}", "index": {index}, "wall_ns": 1000, "ops": 100,
                    "ops_per_sec": 10.0, "lookups": 100, "hits": 50, "hit_rate": {hit_rate},
                    "displaced": 0, "dirty_writebacks": 0, "occupancy_max": 0.5,
                    "batch_p50_ns": 10, "batch_p99_ns": 20, "alarms": {alarms}}}"#
            )
        };
        let summary = r#"{"steady_windows": 1, "steady_alarms": 0, "anomaly_windows": 1,
                          "detected": true, "detection_window": 1,
                          "alarm_kinds": ["hit_rate_drift"]}"#;
        let good = shell(
            summary,
            &format!("[{}, {}]", row("steady", 0, 0.5, 0), row("anomaly", 1, 0.1, 2)),
        );
        validate_monitor_report(&good).unwrap();

        // Row count disagrees with the summary.
        let short = shell(summary, &format!("[{}]", row("steady", 0, 0.5, 0)));
        assert!(validate_monitor_report(&short).unwrap_err().contains("rows holds"));

        // Non-monotone window indices.
        let disordered = shell(
            summary,
            &format!("[{}, {}]", row("steady", 3, 0.5, 0), row("anomaly", 1, 0.1, 2)),
        );
        assert!(validate_monitor_report(&disordered).unwrap_err().contains("not above"));

        // Hit rate out of range.
        let out_of_range = shell(
            summary,
            &format!("[{}, {}]", row("steady", 0, 1.5, 0), row("anomaly", 1, 0.1, 2)),
        );
        assert!(validate_monitor_report(&out_of_range).unwrap_err().contains("[0, 1]"));

        // A detected run whose last window raised nothing.
        let silent_end = shell(
            summary,
            &format!("[{}, {}]", row("steady", 0, 0.5, 0), row("anomaly", 1, 0.1, 0)),
        );
        assert!(validate_monitor_report(&silent_end)
            .unwrap_err()
            .contains("alarming anomaly window"));

        // Steady alarms disagree with the row tally.
        let miscounted = shell(
            summary,
            &format!("[{}, {}]", row("steady", 0, 0.5, 3), row("anomaly", 1, 0.1, 2)),
        );
        assert!(validate_monitor_report(&miscounted).unwrap_err().contains("steady_alarms"));

        // detected=false must not carry a detection window.
        let contradictory = summary.replace("\"detected\": true", "\"detected\": false");
        let bad = shell(
            &contradictory,
            &format!("[{}, {}]", row("steady", 0, 0.5, 0), row("anomaly", 1, 0.1, 2)),
        );
        assert!(validate_monitor_report(&bad).unwrap_err().contains("inconsistent"));
    }
}
