//! Fine-grained map-space sensitivity sweep (extends Fig. 9 beyond the
//! paper's three points).
//!
//! Sweeps M from 8 to 16 bits for one benchmark and prints the full
//! similarity / error / runtime / energy trade-off curve — the design
//! knob of §3.7 at high resolution.
//!
//! Usage:
//! `cargo run --release -p dg-bench --bin sweep_mapspace [--small] [--kernel NAME]`

use dg_bench::argparse::{set_flag, set_value, take_value, usage_error};
use dg_bench::Scale;
use dg_system::{evaluate_with_golden, golden_output, LlcKind};

const USAGE: &str = "usage: sweep_mapspace [--small] [--kernel NAME]";

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
        parse_args().unwrap_or_else(|e| usage_error("sweep_mapspace", &e, USAGE));
    let kernel_name = kernel_name.unwrap_or_else(|| "inversek2j".to_string());

    let kernels = dg_bench::experiments::suite(scale);
    let Some(kernel) = kernels.iter().find(|k| k.name() == kernel_name) else {
        eprintln!("unknown kernel '{kernel_name}'");
        std::process::exit(2);
    };

    // The golden run is configuration-independent: compute it once and
    // share it across the baseline and all nine map-space points.
    let golden = golden_output(kernel.as_ref(), scale.threads());
    let baseline = evaluate_with_golden(kernel.as_ref(), scale.baseline(), scale.threads(), &golden);
    println!("\n== map-space sensitivity: {kernel_name} ==\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "M", "error", "runtime", "traffic", "sharing", "LLC dyn"
    );
    println!("{}", "-".repeat(66));
    for m in 8..=16u32 {
        let cfg = scale.split(m, 1, 4);
        let r = evaluate_with_golden(kernel.as_ref(), cfg, scale.threads(), &golden);
        let dopp = match cfg.llc {
            LlcKind::Split(_) => &r.llc.dopp,
            _ => unreachable!(),
        };
        println!(
            "{:>6} {:>9.2}% {:>9.3}x {:>9.2}x {:>11.1}% {:>11.2}x",
            m,
            r.output_error * 100.0,
            r.runtime_cycles as f64 / baseline.runtime_cycles.max(1) as f64,
            r.off_chip_blocks as f64 / baseline.off_chip_blocks.max(1) as f64,
            dopp.sharing_rate() * 100.0,
            baseline.energy.llc_dynamic_pj / r.energy.llc_dynamic_pj.max(1e-12),
        );
    }
    println!("\n(error falls and sharing shrinks as the map space grows — §3.7)");
}
