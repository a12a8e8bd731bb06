//! What a run reports: text lines, the contract's last line, and the
//! `results.json` record `compare` reads back.

use crate::harness::Metric;
use dg_bench::json::{escape, number, Json};

/// Everything one run of one workload reported.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Evaluations or requests attempted.
    pub attempted: u64,
    /// Those failing any check.
    pub failed: u64,
    /// The end-to-end metrics every workload reports (timed run).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end metrics.
    pub extra: Vec<Metric>,
    /// The per-layer metrics every traced run reports.
    pub layers: Vec<Metric>,
    /// Workload-specific per-layer metrics (traced run).
    pub layer_extra: Vec<Metric>,
    /// Sample counts, digests, what failed.
    pub notes: Vec<String>,
}

fn metrics_object(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                escape(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl RunRecord {
    /// The metrics this run's mode reports: a timed run its end-to-end
    /// metrics, a traced run its per-layer ones; the workload-specific
    /// end-to-end counts and checks either way.
    pub fn reported(&self) -> Vec<&Metric> {
        let (dense, more) = if self.trace {
            (&self.layers, &self.layer_extra)
        } else {
            (&self.end_to_end, &self.extra)
        };
        let mut v: Vec<&Metric> = dense.iter().chain(more).collect();
        if self.trace {
            v.extend(&self.extra);
        }
        v
    }

    /// `name value unit` lines, then the notes as `# ...` lines.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for m in self.reported() {
            s.push_str(&format!("{} {} {}\n", m.name, number(m.value), m.unit));
        }
        for n in &self.notes {
            s.push_str(&format!("# {n}\n"));
        }
        s
    }

    /// The one-line JSON object the benchmark contract asks for as the
    /// last line of standard output.
    pub fn contract_line(&self) -> String {
        let dense = if self.trace { &self.layers } else { &self.end_to_end };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics_object(&dense.iter().collect::<Vec<_>>())
        )
    }

    /// This run as one JSON object of `results.json`.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}, \"notes\": [{}]}}",
            escape(&self.workload),
            self.seed,
            self.trace as u8,
            self.attempted,
            self.failed,
            metrics_object(&self.reported()),
            notes.join(", ")
        )
    }

    /// File metrics by name: the ones `metrics::END_TO_END` and
    /// `per_layer` list are the dense ones, `EXTRA` the
    /// workload-specific end-to-end ones, anything else a
    /// workload-specific per-layer one.
    fn file(&mut self, metrics: impl IntoIterator<Item = Metric>) {
        let layers = crate::metrics::per_layer();
        for metric in metrics {
            let name = metric.name.as_str();
            if crate::metrics::END_TO_END.iter().any(|d| d.name == name) {
                self.end_to_end.push(metric);
            } else if crate::metrics::EXTRA.iter().any(|d| d.name == name) {
                self.extra.push(metric);
            } else if layers.iter().any(|d| d.name == name) {
                self.layers.push(metric);
            } else {
                self.layer_extra.push(metric);
            }
        }
    }

    /// Read a run back from the text a child process printed
    /// ([`RunRecord::text`]; other lines are ignored).
    pub fn from_text(workload: &str, seed: u64, trace: bool, text: &str) -> RunRecord {
        let mut r =
            RunRecord { workload: workload.to_string(), seed, trace, ..RunRecord::default() };
        let mut metrics = Vec::new();
        for line in text.lines() {
            if let Some(note) = line.strip_prefix("# ") {
                r.notes.push(note.to_string());
                continue;
            }
            let words: Vec<&str> = line.split(' ').collect();
            let [name, value, unit] = words[..] else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if !crate::metrics::valid_name(name) {
                continue;
            }
            match name {
                "ops_attempted" => r.attempted = value as u64,
                "ops_failed" => r.failed = value as u64,
                _ => {}
            }
            metrics.push(Metric::new(name, value, unit));
        }
        r.file(metrics);
        r
    }

    /// Read one run back from `results.json`.
    ///
    /// # Errors
    ///
    /// Returns what is missing or malformed.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run without {k:?}"));
        let count = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("{k:?} is not a count"));
        let trace = count("trace")? != 0;
        let Json::Object(fields) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let mut r = RunRecord {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: count("seed")?,
            trace,
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..RunRecord::default()
        };
        r.file(fields.iter().map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            Metric::new(name.clone(), value, m.get("unit").and_then(Json::as_str).unwrap_or("?"))
        }));
        if let Some(notes) = field("notes")?.as_array() {
            r.notes = notes.iter().filter_map(Json::as_str).map(str::to_string).collect();
        }
        Ok(r)
    }
}

/// Where and on what a result set was measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Meta {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub sha: String,
    /// Host name.
    pub host: String,
    /// Logical processors.
    pub nproc: u64,
    /// SIMD lane `dg-simd` dispatches to.
    pub lane: String,
    /// Seconds each run measured.
    pub seconds: f64,
    /// Whether inputs were smoke-sized.
    pub smoke: bool,
}

impl Meta {
    /// Describe this host and checkout.
    pub fn capture(seconds: f64, smoke: bool) -> Meta {
        let output = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        Meta {
            sha: output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            host: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            lane: dg_simd::lane().name().to_string(),
            seconds,
            smoke,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"sha\": \"{}\", \"host\": \"{}\", \"nproc\": {}, \"lane\": \"{}\", \"seconds\": {}, \"smoke\": {}}}",
            escape(&self.sha),
            escape(&self.host),
            self.nproc,
            escape(&self.lane),
            number(self.seconds),
            self.smoke as u8
        )
    }
}

/// A set of runs: what `results.json` holds and `compare` reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// Provenance.
    pub meta: Meta,
    /// Every run, in the order made.
    pub runs: Vec<RunRecord>,
}

impl ResultSet {
    /// Render as a JSON document, one run per line.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(|r| format!("  {}", r.to_json())).collect();
        format!("{{\"meta\": {},\n\"runs\": [\n{}\n]}}\n", self.meta.to_json(), runs.join(",\n"))
    }

    /// Parse a document written by [`ResultSet::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first malformed run.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = Json::parse(text)?;
        let m = doc.get("meta").ok_or("no \"meta\"")?;
        let text_of = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("unknown").to_string();
        let meta = Meta {
            sha: text_of("sha"),
            host: text_of("host"),
            nproc: m.get("nproc").and_then(Json::as_u64).unwrap_or(0),
            lane: text_of("lane"),
            seconds: m.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            smoke: m.get("smoke").and_then(Json::as_u64).unwrap_or(0) != 0,
        };
        let runs = doc
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("no \"runs\" array")?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultSet { meta, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace: bool) -> RunRecord {
        RunRecord {
            workload: "sim_levels".into(),
            seed: 3337,
            trace,
            attempted: 24,
            failed: 0,
            end_to_end: if trace {
                Vec::new()
            } else {
                vec![Metric::new("wall_s", 0.08125, "s"), Metric::new("hit_rate", 0.5, "frac")]
            },
            extra: vec![Metric::new("ops_failed", 0.0, "count")],
            layers: if trace {
                vec![Metric::new("dg-par.dispatch_us_per_batch", 41.5, "us")]
            } else {
                Vec::new()
            },
            layer_extra: if trace {
                vec![Metric::new("dg-par.steals", 3.0, "count")]
            } else {
                Vec::new()
            },
            notes: vec!["unit_tail_us is p99 of n=3000 units".into(), "a \"quoted\" note".into()],
        }
    }

    #[test]
    fn results_json_round_trips() {
        let set = ResultSet {
            meta: Meta {
                sha: "abc".into(),
                host: "h".into(),
                nproc: 2,
                lane: "avx2".into(),
                seconds: 8.0,
                smoke: false,
            },
            runs: vec![record(false), record(true)],
        };
        assert_eq!(ResultSet::parse(&set.to_json()).expect("round trip"), set);
        assert!(ResultSet::parse("{\"meta\": {}}").is_err());
        assert!(ResultSet::parse("not json").is_err());
    }

    #[test]
    fn contract_line_holds_exactly_the_dense_metrics() {
        for trace in [false, true] {
            let r = record(trace);
            let line = r.contract_line();
            assert!(!line.contains('\n'));
            let v = Json::parse(&line).expect("the last line is JSON");
            let Json::Object(fields) = &v else { panic!("an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Object(metrics)) = v.get("metrics") else { panic!("metrics object") };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            if trace {
                assert_eq!(names, ["dg-par.dispatch_us_per_batch"]);
            } else {
                assert_eq!(names, ["wall_s", "hit_rate"]);
                assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));
            }
        }
        let mut bad = record(false);
        bad.failed = 2;
        assert!(bad.contract_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn text_lines_are_name_value_unit() {
        let text = record(false).text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "wall_s 0.08125 s");
        assert_eq!(lines[2], "ops_failed 0 count");
        assert!(lines[3].starts_with("# "));
    }
}
