//! Shared harness for regenerating every table and figure of the
//! paper's evaluation.
//!
//! The `repro_all` binary prints the whole evaluation in one pass:
//! Tables 2–3, Figs. 2 and 7–14, the extensions (Touché-style LLC,
//! energy breakdown, multiprogrammed pairs, the two ablations) and,
//! last, the paper-claims gate. This library provides the pieces:
//! scale selection, system configurations, the kernel suite, result
//! caching across sweep points, one report function per table
//! ([`figures`]) and table printing. `--small` runs a fast
//! reduced-scale pass (small kernels on proportionally scaled-down
//! caches); no flag runs the paper-scale configuration (Table 1
//! caches).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod argparse;
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

pub use experiments::{kernel_names, suite, Scale, Sweep};
pub use table::Table;
