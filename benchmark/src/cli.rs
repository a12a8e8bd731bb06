//! Command-line parsing for `dg-benchmark` (what `run.sh` passes on).

use crate::metrics::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
usage: run.sh [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--traced]
              [--smoke] [--bless] [--repeat N] [--record] [--out FILE]
       dg-benchmark compare A.json B.json
       dg-benchmark manifest

  --workload NAME   one workload, run in this process; `all` (the default) runs each
                    in a process of its own and writes out/results.json
  --seed S          input seed, decimal or 0x-hex (default 0xd09)
  --seconds N       seconds the timed section measures (default: BENCHMARK.json's)
  --trace 1         traced run of one workload: per-layer metrics, out/trace_<workload>.json
  --traced          timed run, then traced run, of each workload; reports trace_overhead_frac
  --smoke           ~1/20-size inputs with verification
  --bless           rewrite golden/<workload>_<seed>.digest from this run
  --repeat N        run everything N times into the one result set
  --record          append one line per timed run to history.jsonl
  --out FILE        where to write the result set (default out/results.json)";

/// What to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run workloads.
    Run(RunArgs),
    /// Compare two result sets.
    Compare(PathBuf, PathBuf),
    /// Print the text of `BENCHMARK.json`.
    Manifest,
}

/// Arguments of the `run` command.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// `None` = all workloads, each in its own process.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds each run measures; `None` = the default for the size.
    pub seconds: Option<f64>,
    /// `--trace 1`.
    pub trace: bool,
    /// `--traced`.
    pub traced: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `--bless`.
    pub bless: bool,
    /// `--repeat N`.
    pub repeat: usize,
    /// `--record`.
    pub record: bool,
    /// `--out FILE`.
    pub out: Option<PathBuf>,
    /// The benchmark's directory (`--bench-dir`, passed by `run.sh`).
    pub bench_dir: PathBuf,
}

impl RunArgs {
    /// Seconds each run measures.
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.2 } else { RUN_SECONDS as f64 })
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parse the arguments after the program name.
///
/// # Errors
///
/// Returns a message naming the offending argument; anything outside
/// the documented set is an error, never ignored.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str).peekable();
    match it.peek() {
        Some(&"compare") => {
            let rest: Vec<&str> = it.skip(1).collect();
            return match rest[..] {
                [a, b] => Ok(Command::Compare(a.into(), b.into())),
                _ => Err("compare takes two result files".into()),
            };
        }
        Some(&"manifest") => {
            return if args.len() == 1 {
                Ok(Command::Manifest)
            } else {
                Err("manifest takes no arguments".into())
            };
        }
        Some(&"run") => {
            it.next();
        }
        _ => {}
    }
    let mut a = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        traced: false,
        smoke: false,
        bless: false,
        repeat: 1,
        record: false,
        out: None,
        bench_dir: PathBuf::from("benchmark"),
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--workload" => {
                let name = value("a workload name")?;
                if name == "all" {
                    a.workload = None;
                } else if WORKLOADS.iter().any(|w| w.name == name) {
                    a.workload = Some(name.to_string());
                } else {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; one of: all {}",
                        known.join(" ")
                    ));
                }
            }
            "--seed" => {
                let s = value("a number")?;
                a.seed = parse_seed(s).ok_or_else(|| format!("--seed {s:?} is not a number"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                let secs: f64 =
                    s.parse().map_err(|_| format!("--seconds {s:?} is not a number"))?;
                if !(secs.is_finite() && secs > 0.0 && secs <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                a.seconds = Some(secs);
            }
            "--trace" => {
                a.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                }
            }
            "--repeat" => {
                let s = value("a count")?;
                a.repeat = s
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| format!("--repeat {s:?} is outside 1..=100"))?;
            }
            "--out" => a.out = Some(value("a file")?.into()),
            "--bench-dir" => a.bench_dir = value("a directory")?.into(),
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            "--record" => a.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.trace && a.workload.is_none() {
        return Err("--trace 1 needs one --workload; use --traced for all of them".into());
    }
    if a.trace && a.traced {
        return Err("--trace 1 and --traced are different modes".into());
    }
    Ok(Command::Run(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let Command::Run(a) =
            parse(&args("--workload serve_thrash --seed 42 --seconds 8 --trace 1")).unwrap()
        else {
            panic!("a run")
        };
        assert_eq!(a.workload.as_deref(), Some("serve_thrash"));
        assert_eq!((a.seed, a.seconds(), a.trace), (42, 8.0, true));
    }

    #[test]
    fn defaults_and_hex_seeds() {
        let Command::Run(a) = parse(&args("run --seed 0xd09 --smoke")).unwrap() else {
            panic!("a run")
        };
        assert_eq!((a.workload.as_deref(), a.seed, a.repeat), (None, 0xd09, 1));
        assert!(a.seconds() < 1.0, "smoke runs are short");
        let Command::Run(a) = parse(&[]).unwrap() else { panic!("a run") };
        assert_eq!(a.seconds(), RUN_SECONDS as f64);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--wrkload sim_levels",
            "--seed x",
            "--seconds 0",
            "--seconds 600",
            "--trace 2",
            "--trace 1",
            "--repeat 0",
            "--seed",
            "compare one.json",
            "--workload sim_levels --trace 1 --traced",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(
            parse(&args("compare a.json b.json")).unwrap(),
            Command::Compare("a.json".into(), "b.json".into())
        );
        assert_eq!(parse(&args("manifest")).unwrap(), Command::Manifest);
    }
}
