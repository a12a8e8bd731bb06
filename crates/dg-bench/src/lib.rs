//! Shared harness for regenerating every table and figure of the
//! paper's evaluation.
//!
//! Each `src/bin/*` binary reproduces one table or figure; this library
//! provides the common pieces: scale selection, system configurations,
//! the kernel suite, result caching across sweep points, and table
//! printing. Run any binary with `--small` for a fast reduced-scale
//! pass (small kernels on proportionally scaled-down caches) or without
//! flags for the paper-scale configuration (Table 1 caches).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod argparse;
pub mod chart;
pub mod check;
pub mod cli;
pub mod experiments;
pub mod figures;
pub mod json;
pub mod meta;
pub mod monitor;
pub mod obs_export;
pub mod profile;
pub mod results;
pub mod sampled;
pub mod serve;
pub mod table;

pub use chart::{BarChart, Unit};
pub use experiments::{kernel_names, suite, Scale, Sweep};
pub use table::Table;

/// Parse the command line of a figure binary, whose only flag is
/// `--small`. Anything else (a typo, a repeat, a stray value) prints
/// usage and exits with [`argparse::USAGE_EXIT`] before any work starts.
pub fn scale_from_args() -> Scale {
    let mut argv = std::env::args();
    let bin = argv
        .next()
        .and_then(|a| Some(std::path::Path::new(&a).file_name()?.to_string_lossy().into_owned()))
        .unwrap_or_default();
    let mut small = false;
    for arg in argv {
        let parsed = match arg.as_str() {
            "--small" => argparse::set_flag(&mut small, "--small"),
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(e) = parsed {
            argparse::usage_error(&bin, &e, &format!("usage: {bin} [--small]"));
        }
    }
    if small {
        Scale::Small
    } else {
        Scale::Paper
    }
}
