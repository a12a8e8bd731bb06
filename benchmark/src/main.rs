//! `dg-benchmark`: see `run.sh` and `README.md` in this directory.

use dg_benchmark::cli::{self, Command};
use dg_benchmark::results::ResultSet;
use dg_benchmark::{compare, harness, metrics, orchestrate};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dg-benchmark: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let code = match command {
        Command::Manifest => {
            print!("{}", metrics::manifest_json());
            0
        }
        Command::Compare(a, b) => {
            let load = |path: &std::path::Path| {
                std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| ResultSet::parse(&text))
                    .unwrap_or_else(|e| {
                        eprintln!("dg-benchmark: {}: {e}", path.display());
                        std::process::exit(2);
                    })
            };
            let rows = compare::compare(&load(&a), &load(&b));
            print!("{}", compare::render(&rows));
            i32::from(rows.iter().any(|r| r.verdict == compare::Verdict::Regressed))
        }
        Command::Run(run) => {
            // A DG_* knob changes what the crates under test do (worker
            // count, SIMD lane, observability level): the numbers would
            // not be the benchmark's.
            let knobs = harness::dg_env_knobs(std::env::vars());
            if !knobs.is_empty() {
                eprintln!("dg-benchmark: refusing to run with {} set", knobs.join(", "));
                std::process::exit(2);
            }
            let single = !run.traced && run.repeat == 1 && !run.record && run.out.is_none();
            match &run.workload {
                Some(workload) if single => orchestrate::run_here(&run, workload),
                _ => orchestrate::run_many(&run),
            }
        }
    };
    std::process::exit(code);
}
