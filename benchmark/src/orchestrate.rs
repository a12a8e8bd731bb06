//! Running several workloads: each in a process of its own, so
//! `peak_rss_mb` is per workload and no workload warms another's
//! caches or allocator.

use crate::cli::RunArgs;
use crate::harness::Metric;
use crate::metrics::WORKLOADS;
use crate::results::{Meta, ResultSet, RunRecord};
use crate::run_workload;
use dg_bench::json::{escape, number};
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// Run one workload in this process and print it the way the
/// benchmark contract asks: every metric as `name value unit`, notes,
/// and the JSON object as the last line. Returns the exit code.
pub fn run_here(args: &RunArgs, workload: &str) -> i32 {
    let record = run_workload(args, workload).expect("the workload name was checked when parsed");
    print!("{}", record.text());
    println!("{}", record.contract_line());
    i32::from(record.failed > 0)
}

/// Run `workload` in a child process; `None` if it could not be run or
/// printed no result.
fn run_child(args: &RunArgs, workload: &str, trace: bool) -> Option<RunRecord> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--bench-dir")
        .arg(&args.bench_dir)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.bless && !trace {
        cmd.arg("--bless");
    }
    let output = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let record = RunRecord::from_text(workload, args.seed, trace, &text);
    if record.reported().is_empty() {
        eprintln!("{workload}: no result (exit status {})", output.status);
        return None;
    }
    // A child that found failures exits non-zero but still reports.
    Some(record)
}

fn print_run(record: &RunRecord) {
    println!(
        "== {}{} seed {}",
        record.workload,
        if record.trace { " (traced)" } else { "" },
        record.seed
    );
    print!("{}", record.text());
}

/// One `history.jsonl` line per timed run.
fn history_line(meta: &Meta, r: &RunRecord) -> String {
    let metrics: Vec<String> = r
        .end_to_end
        .iter()
        .chain(&r.extra)
        .map(|m| format!("\"{}\": {}", escape(&m.name), number(m.value)))
        .collect();
    format!(
        "{{\"sha\": \"{}\", \"host\": \"{}\", \"nproc\": {}, \"lane\": \"{}\", \"seconds\": {}, \
         \"seed\": {}, \"workload\": \"{}\", {}}}\n",
        escape(&meta.sha),
        escape(&meta.host),
        meta.nproc,
        escape(&meta.lane),
        number(meta.seconds),
        r.seed,
        escape(&r.workload),
        metrics.join(", ")
    )
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Run the selected workloads, each in its own process, `repeat`
/// times; print every metric; write the result set; return the exit
/// code (non-zero when any operation failed a check or a run gave no
/// result).
pub fn run_many(args: &RunArgs) -> i32 {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let meta = Meta::capture(args.seconds(), args.smoke);
    println!(
        "# sha {} host {} nproc {} lane {} seconds {} seed {}{}",
        meta.sha,
        meta.host,
        meta.nproc,
        meta.lane,
        meta.seconds,
        args.seed,
        if args.smoke { " smoke" } else { "" }
    );
    let mut code = 0;
    let mut set = ResultSet { meta: meta.clone(), runs: Vec::new() };
    for _ in 0..args.repeat {
        for name in &names {
            let Some(timed) = run_child(args, name, false) else {
                code = 1;
                continue;
            };
            print_run(&timed);
            code |= i32::from(timed.failed > 0);
            let wall = timed.end_to_end.iter().find(|m| m.name == "wall_s").map(|m| m.value);
            set.runs.push(timed);
            if !args.traced {
                continue;
            }
            let Some(mut traced) = run_child(args, name, true) else {
                code = 1;
                continue;
            };
            let traced_wall = traced
                .layer_extra
                .iter()
                .find(|m| m.name == "harness.traced_wall_s")
                .map(|m| m.value);
            if let (Some(wall), Some(traced_wall)) = (wall, traced_wall) {
                traced.layer_extra.push(Metric::new(
                    "trace_overhead_frac",
                    traced_wall / wall - 1.0,
                    "frac",
                ));
            }
            print_run(&traced);
            code |= i32::from(traced.failed > 0);
            set.runs.push(traced);
        }
    }
    let path = args.out.clone().unwrap_or_else(|| args.bench_dir.join("out/results.json"));
    match write_file(&path, &set.to_json()) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            code = 1;
        }
    }
    if args.record {
        let path = args.bench_dir.join("history.jsonl");
        let lines: String =
            set.runs.iter().filter(|r| !r.trace).map(|r| history_line(&meta, r)).collect();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(lines.as_bytes()));
        match appended {
            Ok(()) => println!("# appended to {}", path.display()),
            Err(e) => {
                eprintln!("could not append to {}: {e}", path.display());
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_bench::json::Json;

    #[test]
    fn history_lines_are_json_with_every_end_to_end_metric() {
        let meta = Meta {
            sha: "abc".into(),
            host: "h".into(),
            nproc: 2,
            lane: "avx2".into(),
            seconds: 8.0,
            smoke: false,
        };
        let run = RunRecord {
            workload: "serve_thrash".into(),
            seed: 7,
            end_to_end: vec![Metric::new("wall_s", 1.5, "s")],
            extra: vec![Metric::new("ops_failed", 0.0, "count")],
            ..RunRecord::default()
        };
        let line = history_line(&meta, &run);
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        let v = Json::parse(line.trim_end()).expect("a JSON line");
        assert_eq!(v.get("workload").and_then(Json::as_str), Some("serve_thrash"));
        assert_eq!(v.get("wall_s").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("ops_failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
    }
}
