//! Trace tooling: capture workload traces to disk, inspect them, and
//! replay them against any LLC configuration.
//!
//! ```text
//! trace_tool capture --kernel jpeg --out jpeg.trace [--small]
//! trace_tool info    --in jpeg.trace
//! trace_tool replay  --in jpeg.trace [--llc baseline|split|unified] [--small]
//! ```
//!
//! A bad command line prints usage and exits 2; a trace that cannot be
//! written, opened or parsed is reported on stderr with exit 1.

use dg_bench::argparse::{set_flag, set_value, take_value, usage_error};
use dg_bench::experiments::{suite, Scale};
use dg_mem::Trace;
use dg_system::{capture_trace, replay, SystemConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

const USAGE: &str = "usage:\n  trace_tool capture --kernel NAME --out FILE [--small]\n  \
                     trace_tool info --in FILE\n  \
                     trace_tool replay --in FILE [--llc baseline|split|unified] [--small]";

enum Command {
    Capture { kernel: String, out: String, scale: Scale },
    Info { input: String },
    Replay { input: String, llc: String, cfg: SystemConfig },
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let sub = it.next().ok_or("missing subcommand")?;
    if !matches!(sub.as_str(), "capture" | "info" | "replay") {
        return Err(format!("unknown subcommand '{sub}'"));
    }
    let (mut small, mut kernel, mut out, mut input, mut llc) = (false, None, None, None, None);
    while let Some(arg) = it.next() {
        match (sub.as_str(), arg.as_str()) {
            ("capture" | "replay", "--small") => set_flag(&mut small, "--small")?,
            ("capture", "--kernel") => set_value(&mut kernel, "--kernel", take_value(&mut it, "--kernel")?)?,
            ("capture", "--out") => set_value(&mut out, "--out", take_value(&mut it, "--out")?)?,
            ("info" | "replay", "--in") => set_value(&mut input, "--in", take_value(&mut it, "--in")?)?,
            ("replay", "--llc") => set_value(&mut llc, "--llc", take_value(&mut it, "--llc")?)?,
            (_, other) => return Err(format!("unknown argument '{other}' for {sub}")),
        }
    }
    let scale = if small { Scale::Small } else { Scale::Paper };
    let required = |v: Option<String>, name: &str| v.ok_or_else(|| format!("{sub} requires {name}"));
    Ok(match sub.as_str() {
        "capture" => Command::Capture {
            kernel: required(kernel, "--kernel")?,
            out: required(out, "--out")?,
            scale,
        },
        "info" => Command::Info { input: required(input, "--in")? },
        _ => {
            let llc = llc.unwrap_or_else(|| "baseline".into());
            let cfg = match llc.as_str() {
                "baseline" => scale.baseline(),
                "split" => scale.split_default(),
                "unified" => scale.unified(1, 2),
                other => return Err(format!("unknown LLC '{other}'")),
            };
            Command::Replay { input: required(input, "--in")?, llc, cfg }
        }
    })
}

fn read_trace(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Trace::read_from(&mut BufReader::new(file)).map_err(|e| format!("cannot read trace {path}: {e}"))
}

fn write_trace(trace: &Trace, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    trace.write_to(&mut w).and_then(|()| w.flush()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Capture { kernel: kernel_name, out, scale } => {
            let kernels = suite(scale);
            let Some(kernel) = kernels.iter().find(|k| k.name() == kernel_name) else {
                usage_error("trace_tool", &format!("unknown kernel '{kernel_name}'"), USAGE);
            };
            let trace = capture_trace(kernel.as_ref(), scale.threads(), scale.threads());
            write_trace(&trace, &out)?;
            eprintln!(
                "captured {} accesses ({} instructions) across {} cores -> {out}",
                trace.len(),
                trace.instructions(),
                trace.cores.len()
            );
        }
        Command::Info { input } => {
            let trace = read_trace(&input)?;
            println!("trace: {input}");
            println!("  cores:        {}", trace.cores.len());
            println!("  accesses:     {}", trace.len());
            println!("  instructions: {}", trace.instructions());
            println!("  annotations:  {}", trace.annotations.len());
            println!("  image blocks: {}", trace.initial.populated_blocks());
            for (c, stream) in trace.cores.iter().enumerate() {
                let stores = stream.iter().filter(|a| a.kind.is_store()).count();
                let approx = stream.iter().filter(|a| a.approx).count();
                println!(
                    "  core {c}: {} accesses ({} stores, {} approx)",
                    stream.len(),
                    stores,
                    approx
                );
            }
        }
        Command::Replay { input, llc, cfg } => {
            let trace = read_trace(&input)?;
            let sys = replay(&trace, cfg);
            println!("replayed {} accesses on {llc} LLC", trace.len());
            print!("{}", dg_system::report::hierarchy_report(&sys));
            println!("  runtime:         {} cycles", sys.runtime_cycles());
        }
    }
    Ok(())
}

fn main() {
    let cmd = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error("trace_tool", &e, USAGE));
    if let Err(e) = run(cmd) {
        eprintln!("trace_tool: {e}");
        std::process::exit(1);
    }
}
