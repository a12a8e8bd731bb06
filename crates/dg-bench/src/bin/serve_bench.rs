//! The analytic hit-rate gate for the `dg-serve` concurrent
//! similarity-cache server.
//!
//! Usage:
//! `cargo run --release -p dg-bench --bin serve_bench [--smoke] --check`
//!
//! Drives a sharded server with batched Zipf-over-similarity traffic
//! and exits non-zero if the measured hit rate leaves the Che
//! tolerance band; `--smoke` is the shorter CI variant. Server
//! throughput is timed by `benchmark/run.sh`. Arguments are parsed
//! strictly: a typo aborts with usage and exit status 2.

use dg_bench::argparse::usage_error;
use dg_bench::serve::{self, ServeArgs};

fn main() {
    let args = match ServeArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => usage_error("serve_bench", &e, ServeArgs::USAGE),
    };
    // DG_OBS_LEVEL raises the observability level (e.g. `metrics` to
    // populate the per-shard histograms); observation is
    // identity-preserving, so the measured hit rate is unaffected.
    dg_bench::cli::apply_obs_level_env("serve_bench");

    let (row, ok, tolerance) = serve::oracle_gate(args.smoke);
    eprintln!(
        "[serve_bench] oracle gate: measured {:.4} vs predicted {:.4} (tolerance {:.4}) over \
         {} lookups — {}",
        row.hit_rate,
        row.predicted_hit_rate,
        tolerance,
        row.accesses,
        if ok { "OK" } else { "FAIL" }
    );
    std::process::exit(if ok { 0 } else { 1 });
}
