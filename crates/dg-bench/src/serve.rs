//! The analytic hit-rate gate for the `dg-serve` concurrent
//! similarity-cache server (`serve_bench --check`; DESIGN.md §8).
//!
//! The gate drives a [`dg_serve::Server`] with batched
//! Zipf-over-similarity traffic and holds the measured steady-state hit
//! rate to the Che-approximation oracle (`dg_serve::che`), giving CI a
//! cheap end-to-end probe that doesn't need the test harness. Server
//! throughput is timed by `benchmark/run.sh` (`serve_*` workloads), not
//! here.

use crate::argparse::set_flag;
use dg_serve::{ServeConfig, Server, SimilarityWorkload, WorkloadSpec};

/// Parsed arguments of the `serve_bench` binary (strict: anything
/// outside `[--smoke] --check` aborts with usage, like `repro_all`).
/// `--check` is required: the gate is the binary's only mode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeArgs {
    /// Shorter gate run (`--smoke`).
    pub smoke: bool,
}

impl ServeArgs {
    /// The usage message printed on a parse error.
    pub const USAGE: &'static str = "usage: serve_bench [--smoke] --check\n\
                                     \n\
                                     --smoke          shorter gate run\n\
                                     --check          run the analytic hit-rate gate and exit 0/1";

    /// Parse the arguments after the program name (strict matching via
    /// [`crate::argparse`], shared with `repro_all`).
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let (mut out, mut check) = (ServeArgs::default(), false);
        for arg in args.into_iter().map(Into::into) {
            match arg.as_str() {
                "--smoke" => set_flag(&mut out.smoke, "--smoke")?,
                "--check" => set_flag(&mut check, "--check")?,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if !check {
            return Err("missing --check (server throughput is timed by benchmark/run.sh)".into());
        }
        Ok(out)
    }
}

/// What the gate measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRow {
    /// Measured hit fraction over the measured lookups.
    pub hit_rate: f64,
    /// Oracle-predicted hit rate.
    pub predicted_hit_rate: f64,
    /// Lookup-shaped requests (`Get` + `Query`) — the denominator of
    /// `hit_rate`.
    pub accesses: u64,
}

/// Run the analytic hit-rate gate: measured steady-state hit rate vs
/// the Che-approximation oracle. Returns the measurement, the verdict
/// and the tolerance it was judged against.
pub fn oracle_gate(smoke: bool) -> (ServeRow, bool, f64) {
    // The gate always runs on the small tier-1 shape — the oracle's
    // tolerance is calibrated there — but the full run measures more
    // lookups for a tighter band.
    let cfg = ServeConfig::small();
    let spec = WorkloadSpec::tier1();
    let server = Server::new(cfg).expect("gate config is valid");
    let mut workload = SimilarityWorkload::new(spec, &cfg);
    let estimate = workload.expected_hit_rate(&server);

    let (batch, warmup, measure) = if smoke { (8_192, 6, 18) } else { (65_536, 3, 10) };
    for _ in 0..warmup {
        server.run_batch(&workload.batch(batch));
    }
    server.reset_stats();
    for _ in 0..measure {
        server.run_batch(&workload.batch(batch));
    }
    let stats = server.stats();
    let tolerance = estimate.tolerance(stats.lookups());
    let ok = (stats.hit_rate() - estimate.hit_rate).abs() <= tolerance;
    let row = ServeRow {
        hit_rate: stats.hit_rate(),
        predicted_hit_rate: estimate.hit_rate,
        accesses: stats.lookups(),
    };
    (row, ok, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        ServeArgs::parse(args.iter().copied())
    }

    #[test]
    fn args_parse_strictly() {
        assert_eq!(parse(&["--check"]).unwrap(), ServeArgs { smoke: false });
        assert_eq!(parse(&["--smoke", "--check"]).unwrap(), ServeArgs { smoke: true });

        assert!(parse(&[]).is_err(), "the gate is the only mode");
        assert!(parse(&["--smoke"]).is_err());
        assert!(parse(&["--smok", "--check"]).is_err(), "typos must be rejected");
        assert!(parse(&["--smoke", "--smoke", "--check"]).is_err());
        assert!(parse(&["--check", "--check"]).is_err());
        assert!(parse(&["--check", "--json", "x"]).is_err());
        assert!(parse(&["--check", "--validate", "x"]).is_err());
    }

    #[test]
    fn smoke_gate_holds_with_a_finite_prediction() {
        let (row, ok, tolerance) = oracle_gate(true);
        assert!(ok, "oracle gate failed: {row:?} (tolerance {tolerance})");
        assert!(
            row.predicted_hit_rate.is_finite() && (0.0..=1.0).contains(&row.predicted_hit_rate),
            "prediction outside [0, 1]: {row:?}"
        );
        assert!(row.accesses > 0);
    }
}
