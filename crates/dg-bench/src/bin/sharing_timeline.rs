//! Tag-sharing over time: how the Doppelgänger data array fills up.
//!
//! Samples the tag-sharing factor (resident tags per data entry — the
//! paper reports a 4.4 average, §3.5) and the approximate LLC footprint
//! after every workload phase, rendering both as a timeline per
//! benchmark.
//!
//! Usage: `cargo run --release -p dg-bench --bin sharing_timeline [--small] [--kernel NAME]`

use dg_bench::argparse::{set_flag, set_value, take_value, usage_error};
use dg_bench::experiments::suite;
use dg_bench::Scale;
use dg_system::System;

const USAGE: &str = "usage: sharing_timeline [--small] [--kernel NAME]";

fn parse_args() -> Result<(Scale, Option<String>), String> {
    let (mut small, mut kernel) = (false, None);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--small" => set_flag(&mut small, "--small")?,
            "--kernel" => set_value(&mut kernel, "--kernel", take_value(&mut it, "--kernel")?)?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((if small { Scale::Small } else { Scale::Paper }, kernel))
}

fn main() {
    let (scale, kernel_name) =
        parse_args().unwrap_or_else(|e| usage_error("sharing_timeline", &e, USAGE));
    let kernel_name = kernel_name.unwrap_or_else(|| "jpeg".to_string());

    let kernels = suite(scale);
    let Some(kernel) = kernels.iter().find(|k| k.name() == kernel_name) else {
        eprintln!("unknown kernel '{kernel_name}'");
        std::process::exit(2);
    };

    let cfg = scale.split_default();
    let p = dg_workloads::prepare(kernel.as_ref());
    let mut sys = System::new(cfg, p.image, p.annotations);
    let threads = scale.threads();
    let cores = cfg.cores;

    println!("\n== tag-sharing timeline: {kernel_name} (split, 14-bit, 1/4 data) ==\n");
    println!("{:>6} {:>14} {:>14} {:>14}", "phase", "tags/entry", "approx blks", "LLC lookups");
    println!("{}", "-".repeat(54));
    for phase in 0..kernel.phases() {
        for tid in 0..threads {
            let mut mem = sys.core_memory(tid % cores);
            kernel.run_phase(&mut mem, phase, tid, threads);
        }
        println!(
            "{:>6} {:>13.2}x {:>13.0}% {:>14}",
            phase,
            sys.llc_sharing_factor(),
            sys.approx_llc_fraction() * 100.0,
            sys.llc_counters().lookups,
        );
    }
    println!(
        "\n(the paper's workloads average 4.4 tags per data entry; sharing\n\
         builds as similar blocks accumulate, then saturates)"
    );
}
