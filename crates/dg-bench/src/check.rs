//! The differential-oracle correctness gate (`repro_all --check`).
//!
//! Captures one trace per suite kernel and replays it in lockstep
//! (optimized engine vs. `dg-oracle` reference) through every distinct
//! system configuration of the paper's tables and figures. Any
//! divergence — a mismatched counter, victim, writeback, loaded byte or
//! final DRAM block — fails the gate with the first diverging access
//! index. The ablation variants `repro_all` also prints (`hash-*`,
//! `policy-fewest-sharers`) are not in this grid; the tier-1 test
//! `tests/lockstep.rs` replays them.

use crate::experiments::{kernel_names, suite, Scale};
use dg_mem::Trace;
use dg_oracle::{lockstep, Divergence, LockstepSummary};
use dg_par::Pool;
use dg_system::{capture_trace, SystemConfig};

/// Every distinct system configuration of the paper's evaluation:
/// the baseline, the map-space sweep (Fig. 9), the data-array sweep
/// (Fig. 10; 1/4 doubles as the base design point of Figs. 11–13), the
/// uniDoppelgänger sweep (Fig. 14), and the Touché-style compressed
/// organization (both superblock arities).
pub fn check_configs(scale: Scale) -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("baseline", scale.baseline()),
        ("split m=12 data=1/4", scale.split(12, 1, 4)),
        ("split m=13 data=1/4", scale.split(13, 1, 4)),
        ("split m=14 data=1/4", scale.split(14, 1, 4)),
        ("split m=14 data=1/2", scale.split(14, 1, 2)),
        ("split m=14 data=1/8", scale.split(14, 1, 8)),
        ("unified data=3/4", scale.unified(3, 4)),
        ("unified data=1/2", scale.unified(1, 2)),
        ("unified data=1/4", scale.unified(1, 4)),
        ("compressed sb=2", scale.compressed(2)),
        ("compressed sb=4", scale.compressed(4)),
    ]
}

/// Verdict of one (configuration, kernel) lockstep run.
#[derive(Debug)]
pub struct CheckReport {
    /// Configuration label from [`check_configs`].
    pub config: &'static str,
    /// Kernel name from [`kernel_names`].
    pub kernel: &'static str,
    /// The agreed summary, or the first divergence.
    pub outcome: Result<LockstepSummary, Box<Divergence>>,
}

/// Capture one trace per suite kernel at `scale`.
pub fn capture_suite_traces(scale: Scale) -> Vec<Trace> {
    let threads = scale.threads();
    suite(scale).iter().map(|k| capture_trace(k.as_ref(), threads, threads)).collect()
}

/// Run the full differential check: every kernel through every
/// configuration, parallelized across the worker pool. Returns every
/// verdict plus whether all of them agreed.
pub fn run_check(scale: Scale) -> (Vec<CheckReport>, bool) {
    let traces = capture_suite_traces(scale);
    let names = kernel_names();
    let configs = check_configs(scale);

    let mut jobs = Vec::new();
    for &(label, cfg) in &configs {
        for (&kernel, trace) in names.iter().zip(&traces) {
            jobs.push(move || CheckReport {
                config: label,
                kernel,
                outcome: lockstep(trace, cfg),
            });
        }
    }

    let reports = Pool::new().run(jobs);
    let ok = reports.iter().all(|r| r.outcome.is_ok());
    (reports, ok)
}

/// Print a verdict table to stdout and the first divergence (if any)
/// to stderr. Returns `run_check`'s pass/fail flag.
pub fn print_check(scale: Scale) -> bool {
    let (reports, ok) = run_check(scale);
    let mut agreed = 0usize;
    let mut accesses = 0usize;
    for r in &reports {
        match &r.outcome {
            Ok(s) => {
                agreed += 1;
                accesses += s.accesses;
            }
            Err(d) => {
                eprintln!("[check] {} / {}: {d}", r.config, r.kernel);
            }
        }
    }
    println!(
        "differential oracle: {agreed}/{} lockstep runs agree ({accesses} accesses cross-checked)",
        reports.len()
    );
    ok
}
