//! Sampled-simulation drivers (`repro_all --sampled[=K]` and
//! `--sampled-check`; DESIGN.md §10).
//!
//! The sampled path replaces the figure run with the same nine-entry
//! configuration grid the differential-oracle gate uses
//! ([`crate::check::check_configs`]), but evaluates each (configuration,
//! kernel) pair with [`dg_system::run_sampled`]: one cheap functional
//! profiling pass per kernel picks K representative intervals
//! (deterministic k-medoids over phase feature vectors,
//! [`dg_sample::select`]), and the hybrid execution simulates only
//! warm-up plus those intervals in detail.
//!
//! `--sampled-check` gates the estimates. The reference for each pair
//! is a **full-coverage sampled run** — every interval measured, no
//! warm-up, simulated fraction 1.0 — not a plain
//! [`dg_system::evaluate_with_golden`] run: the full run counts the
//! final output-read pass through core 0 in its counters, while the
//! hybrid indexes phase accesses only and reads the output functionally
//! after a flush. The full-coverage schedule shares the sampled run's
//! access space and output conventions exactly, so the comparison
//! isolates the error introduced by *sampling* rather than the
//! (documented, deliberate) difference in accounting.

use crate::check::check_configs;
use crate::experiments::{suite, suite_goldens, Scale, SEED};
use crate::json::{array_document, ObjectWriter};
use crate::results::ResultRow;
use crate::table::Table;
use dg_par::Pool;
use dg_sample::{profile, Profile, SampleSchedule};
use dg_system::{run_sampled, SampledOutcome};
use dg_workloads::KernelSource;
use std::path::Path;
use std::sync::Arc;

/// Interval and warm-up lengths (in accesses) per scale. Longer traces
/// afford longer intervals: the warm-up must amortise against the
/// measured window, and the interval count must stay large enough for
/// k-medoids to have something to cluster. Functional warming
/// (flush-not-drop at skip entry) carries most of the cache state
/// across skips, so the explicit warm-up stays at half an interval.
pub fn sampling_params(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Small => (2048, 4096),
        Scale::Medium => (4096, 2048),
        Scale::Paper => (16384, 4096),
    }
}

/// One (configuration, kernel) sampled evaluation.
#[derive(Debug)]
pub struct SampledRun {
    /// Configuration label from [`check_configs`].
    pub config: &'static str,
    /// The reconstructed estimates.
    pub outcome: SampledOutcome,
}

/// A full sampled sweep: the configuration grid × the suite.
#[derive(Debug)]
pub struct SampledSweep {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Representative intervals per kernel.
    pub k: usize,
    /// Config-major (in [`check_configs`] order), suite order within.
    pub runs: Vec<SampledRun>,
    /// Worker threads of the job pool.
    pub workers: usize,
}

/// Profile every suite kernel (one functional streaming pass each) and
/// build its K-interval schedule. Returns `(profiles, schedules)` in
/// suite order.
fn profiles_and_schedules(
    scale: Scale,
    k: usize,
    pool: &Pool,
) -> (Vec<Arc<Profile>>, Vec<Arc<SampleSchedule>>) {
    let threads = scale.threads();
    let cores = scale.baseline().cores;
    let (interval_len, warmup_len) = sampling_params(scale);
    let kernels = suite(scale);
    let jobs: Vec<_> = kernels
        .iter()
        .map(|kernel| {
            move || {
                let mut src = KernelSource::new(kernel.as_ref(), threads, cores);
                profile(&mut src, interval_len)
            }
        })
        .collect();
    let profiles: Vec<Arc<Profile>> = pool.run(jobs).into_iter().map(Arc::new).collect();
    let schedules = profiles
        .iter()
        .map(|p| Arc::new(SampleSchedule::build(p, k, warmup_len, SEED)))
        .collect();
    (profiles, schedules)
}

/// Run the sampled sweep: K representative intervals per kernel across
/// the whole configuration grid.
pub fn run_sampled_suite(scale: Scale, k: usize) -> SampledSweep {
    let threads = scale.threads();
    let pool = Pool::new();
    let (_, schedules) = profiles_and_schedules(scale, k, &pool);
    let kernels = suite(scale);
    let goldens = suite_goldens(scale, SEED, threads);
    let configs = check_configs(scale);

    let mut jobs = Vec::with_capacity(configs.len() * kernels.len());
    for &(_, cfg) in &configs {
        for ((kernel, sched), golden) in kernels.iter().zip(&schedules).zip(&goldens) {
            let sched = Arc::clone(sched);
            let golden = Arc::clone(golden);
            jobs.push(move || run_sampled(kernel.as_ref(), cfg, threads, &sched, &golden));
        }
    }
    let mut outcomes = pool.run(jobs).into_iter();
    let mut runs = Vec::with_capacity(outcomes.len());
    for &(label, _) in &configs {
        for _ in 0..kernels.len() {
            let outcome = outcomes.next().expect("one outcome per job");
            runs.push(SampledRun { config: label, outcome });
        }
    }
    SampledSweep { scale, k, runs, workers: pool.workers() }
}

/// Print the per-configuration summary of a sampled sweep: suite-mean
/// estimates, the detailed (simulated) fraction actually paid, and the
/// p50/p99 of per-window cycle deltas pooled across kernels.
pub fn print_sampled_summary(sweep: &SampledSweep) {
    let mut t = Table::new(&[
        "miss rate",
        "+-ci",
        "output err",
        "dopp hits",
        "sim frac",
        "win p50 cyc",
        "win p99 cyc",
    ]);
    for (label, _) in check_configs(sweep.scale) {
        let rows: Vec<&SampledRun> =
            sweep.runs.iter().filter(|r| r.config == label).collect();
        let n = rows.len().max(1) as f64;
        let mean = |f: &dyn Fn(&SampledRun) -> f64| rows.iter().map(|r| f(r)).sum::<f64>() / n;
        let mut pooled = dg_obs::Hist64::new();
        for r in &rows {
            pooled.merge(&r.outcome.estimates.interval_cycles);
        }
        t.row_strings(
            label,
            vec![
                format!("{:.4}", mean(&|r| r.outcome.estimates.miss_rate.value)),
                format!("{:.4}", mean(&|r| r.outcome.estimates.miss_rate.ci)),
                format!("{:.4}", mean(&|r| r.outcome.result.output_error)),
                format!("{:.4}", mean(&|r| r.outcome.estimates.dopp_hit_rate.value)),
                format!("{:.1}%", 100.0 * mean(&|r| r.outcome.estimates.simulated_fraction)),
                format!("{}", pooled.quantile(0.5).unwrap_or(0)),
                format!("{}", pooled.quantile(0.99).unwrap_or(0)),
            ],
        );
    }
    t.print(&format!("Sampled estimates (K={}, {} workers)", sweep.k, sweep.workers));
}

/// Export the sampled sweep's result rows as pretty-printed JSON.
///
/// Rows are a pure function of the simulation (no wall-clock or
/// provenance): the full-run reconstruction flattened exactly like a
/// full evaluation ([`ResultRow`]) plus the sampling statistics. The
/// byte-diff determinism gate in `scripts/verify.sh` runs this export
/// twice and across worker counts.
///
/// # Errors
///
/// Returns any I/O error from writing `path`.
pub fn export_sampled_rows(sweep: &SampledSweep, path: &Path) -> std::io::Result<()> {
    let rows: Vec<String> = sweep
        .runs
        .iter()
        .map(|run| {
            let mut o = ObjectWriter::with_indent(1);
            ResultRow::from_eval(run.config, &run.outcome.result).write_fields(&mut o);
            let e = &run.outcome.estimates;
            o.u64_field("sampled_k", sweep.k as u64)
                .u64_field("measured_intervals", e.measured_intervals as u64)
                .f64_field("simulated_fraction", e.simulated_fraction)
                .f64_field("miss_rate", e.miss_rate.value)
                .f64_field("miss_rate_ci", e.miss_rate.ci)
                .f64_field("dopp_hit_rate", e.dopp_hit_rate.value)
                .f64_field("dopp_hit_rate_ci", e.dopp_hit_rate.ci)
                .f64_field("output_error_ci", e.output_error.ci)
                .u64_field("interval_cycles_p50", e.interval_cycles.quantile(0.5).unwrap_or(0))
                .u64_field("interval_cycles_p99", e.interval_cycles.quantile(0.99).unwrap_or(0));
            o.finish()
        })
        .collect();
    std::fs::write(path, array_document(&rows))
}

/// Absolute gate floors added to each estimate's confidence interval.
/// The CI captures inter-interval variance, which degenerates on short
/// traces with few measured windows; the floors keep the gate
/// meaningful there without letting a genuinely wrong estimate slip
/// through at paper scale.
const MISS_FLOOR: f64 = 0.08;
const DOPP_FLOOR: f64 = 0.10;
const ERR_FLOOR: f64 = 0.10;

/// Verdict of one (configuration, kernel) sampled-vs-reference
/// comparison.
#[derive(Debug)]
pub struct SampledCheckRow {
    /// Configuration label.
    pub config: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// |sampled − reference| LLC miss rate, the sampled estimate's
    /// confidence interval, and the tolerance `max(ci, floor)`.
    pub miss: (f64, f64, f64),
    /// |sampled − reference| Doppelgänger hit rate, its confidence
    /// interval, and its tolerance.
    pub dopp: (f64, f64, f64),
    /// |sampled − reference| output error, its confidence interval, and
    /// its tolerance.
    pub err: (f64, f64, f64),
    /// Detailed fraction the sampled run paid.
    pub simulated_fraction: f64,
    /// All three deltas within tolerance.
    pub ok: bool,
}

/// Run the sampled-estimate gate: every kernel through every
/// configuration, sampled (K intervals) vs the full-coverage reference,
/// parallelized across the worker pool. Returns every verdict plus
/// whether all passed.
pub fn run_sampled_check(scale: Scale, k: usize) -> (Vec<SampledCheckRow>, bool) {
    let threads = scale.threads();
    let pool = Pool::new();
    let (profiles, schedules) = profiles_and_schedules(scale, k, &pool);
    // Reference: every interval measured, no warm-up — simulated
    // fraction 1.0 over the same access space (see module docs).
    let references: Vec<Arc<SampleSchedule>> = profiles
        .iter()
        .map(|p| Arc::new(SampleSchedule::build(p, p.intervals.len(), 0, SEED)))
        .collect();
    let kernels = suite(scale);
    let goldens = suite_goldens(scale, SEED, threads);
    let configs = check_configs(scale);

    let mut jobs = Vec::with_capacity(configs.len() * kernels.len());
    for &(label, cfg) in &configs {
        for (((kernel, sched), reference), golden) in
            kernels.iter().zip(&schedules).zip(&references).zip(&goldens)
        {
            let sched = Arc::clone(sched);
            let reference = Arc::clone(reference);
            let golden = Arc::clone(golden);
            jobs.push(move || {
                let s = run_sampled(kernel.as_ref(), cfg, threads, &sched, &golden);
                let f = run_sampled(kernel.as_ref(), cfg, threads, &reference, &golden);
                let gate = |a: f64, b: f64, ci: f64, floor: f64| ((a - b).abs(), ci, ci.max(floor));
                let (se, fe) = (&s.estimates, &f.estimates);
                let miss =
                    gate(se.miss_rate.value, fe.miss_rate.value, se.miss_rate.ci, MISS_FLOOR);
                let dopp = gate(
                    se.dopp_hit_rate.value,
                    fe.dopp_hit_rate.value,
                    se.dopp_hit_rate.ci,
                    DOPP_FLOOR,
                );
                let err = gate(
                    s.result.output_error,
                    f.result.output_error,
                    se.output_error.ci,
                    ERR_FLOOR,
                );
                SampledCheckRow {
                    config: label,
                    kernel: kernel.name(),
                    miss,
                    dopp,
                    err,
                    simulated_fraction: s.estimates.simulated_fraction,
                    ok: miss.0 <= miss.2 && dopp.0 <= dopp.2 && err.0 <= err.2,
                }
            });
        }
    }
    let rows = pool.run(jobs);
    let ok = rows.iter().all(|r| r.ok);
    (rows, ok)
}

/// Print a verdict summary to stdout and every failing pair to stderr.
/// Returns [`run_sampled_check`]'s pass/fail flag.
pub fn print_sampled_check(scale: Scale, k: usize) -> bool {
    let (rows, ok) = run_sampled_check(scale, k);
    let mut passed = 0usize;
    let mut worst: (f64, Option<&SampledCheckRow>) = (0.0, None);
    for r in &rows {
        if r.ok {
            passed += 1;
        } else {
            eprintln!(
                "[sampled-check] {} / {}: miss {:.4}/{:.4} dopp {:.4}/{:.4} err {:.4}/{:.4}",
                r.config, r.kernel, r.miss.0, r.miss.2, r.dopp.0, r.dopp.2, r.err.0, r.err.2
            );
        }
        let slack = (r.miss.0 / r.miss.2).max(r.dopp.0 / r.dopp.2).max(r.err.0 / r.err.2);
        if slack >= worst.0 {
            worst = (slack, Some(r));
        }
    }
    let mean_frac =
        rows.iter().map(|r| r.simulated_fraction).sum::<f64>() / rows.len().max(1) as f64;
    if let (slack, Some(w)) = worst {
        println!(
            "sampled gate: {passed}/{} estimates within tolerance, {} of them only by the \
             absolute floors (K={k}, mean detailed fraction {:.1}%, closest call used {:.0}% of \
             its tolerance at {} / {})",
            rows.len(),
            floor_only_passes(&rows),
            100.0 * mean_frac,
            100.0 * slack,
            w.config,
            w.kernel
        );
    }
    ok
}

/// Passing pairs with some gap above its confidence interval: they pass
/// only because that gap's absolute floor exceeds the interval.
fn floor_only_passes(rows: &[SampledCheckRow]) -> usize {
    rows.iter().filter(|r| r.ok && [r.miss, r.dopp, r.err].iter().any(|g| g.0 > g.1)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// One kernel × two configs end-to-end, small scale: the driver
    /// plumbing (profiles, schedules, exports) without the full-grid
    /// cost — the grid itself is exercised by `--sampled-check` in
    /// `scripts/verify.sh`.
    fn tiny_sweep(pool: &Pool) -> SampledSweep {
        let scale = Scale::Small;
        let threads = scale.threads();
        let (_, schedules) = profiles_and_schedules(scale, 3, pool);
        let kernels = suite(scale);
        let goldens = suite_goldens(scale, SEED, threads);
        let configs = [
            ("baseline", scale.baseline()),
            ("split m=14 data=1/4", scale.split(14, 1, 4)),
        ];
        let mut runs = Vec::new();
        for (label, cfg) in configs {
            let outcome =
                run_sampled(kernels[0].as_ref(), cfg, threads, &schedules[0], &goldens[0]);
            runs.push(SampledRun { config: label, outcome });
        }
        SampledSweep { scale, k: 3, runs, workers: pool.workers() }
    }

    #[test]
    fn floor_only_passes_counts_passes_that_need_a_floor() {
        let row = |miss, dopp, err| {
            let tol = |(gap, ci, floor): (f64, f64, f64)| (gap, ci, f64::max(ci, floor));
            let (miss, dopp, err) = (tol(miss), tol(dopp), tol(err));
            SampledCheckRow {
                config: "c",
                kernel: "k",
                miss,
                dopp,
                err,
                simulated_fraction: 0.1,
                ok: [miss, dopp, err].iter().all(|g: &(f64, f64, f64)| g.0 <= g.2),
            }
        };
        let rows = [
            // Every gap inside its interval: passes on coverage.
            row((0.01, 0.02, 0.08), (0.0, 0.0, 0.10), (0.05, 0.05, 0.10)),
            // Miss gap above its interval, under its floor: floor-only.
            row((0.05, 0.02, 0.08), (0.0, 0.0, 0.10), (0.0, 0.0, 0.10)),
            // Two gaps on their floors: still one pair.
            row((0.0, 0.0, 0.08), (0.09, 0.01, 0.10), (0.02, 0.0, 0.10)),
            // An interval wider than the floor covers the gap on its own.
            row((0.09, 0.12, 0.08), (0.0, 0.0, 0.10), (0.0, 0.0, 0.10)),
            // A failing pair is not a pass, whatever its other gaps do.
            row((0.05, 0.02, 0.08), (0.2, 0.01, 0.10), (0.0, 0.0, 0.10)),
        ];
        assert_eq!(rows.iter().map(|r| r.ok).collect::<Vec<_>>(), [true, true, true, true, false]);
        assert_eq!(floor_only_passes(&rows), 2);
        assert_eq!(floor_only_passes(&rows[..1]), 0);
    }

    #[test]
    fn sampled_exports_round_trip_as_json() {
        let sweep = tiny_sweep(&Pool::new());
        let dir = std::env::temp_dir().join("dg_bench_sampled_test");
        std::fs::create_dir_all(&dir).unwrap();

        let rows_path = dir.join("rows.json");
        export_sampled_rows(&sweep, &rows_path).unwrap();
        let rows = Json::parse(&std::fs::read_to_string(&rows_path).unwrap()).unwrap();
        let arr = rows.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("config").unwrap().as_str(), Some("baseline"));
        assert_eq!(arr[0].get("sampled_k").unwrap().as_u64(), Some(3));
        assert!(arr[0].get("llc.lookups").unwrap().as_u64().unwrap() > 0);
        let frac = arr[0].get("simulated_fraction").unwrap().as_f64().unwrap();
        assert!(frac > 0.0 && frac < 1.0, "sampled run must skip most accesses ({frac})");
        assert!(arr[0].get("miss_rate").unwrap().as_f64().is_some());
        let p50 = arr[0].get("interval_cycles_p50").unwrap().as_f64().unwrap();
        let p99 = arr[0].get("interval_cycles_p99").unwrap().as_f64().unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn sampled_sweeps_are_deterministic_across_worker_counts() {
        let sweep = tiny_sweep(&Pool::with_workers(4));
        let dir = std::env::temp_dir().join("dg_bench_sampled_det_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        export_sampled_rows(&sweep, &a).unwrap();
        let again = tiny_sweep(&Pool::with_workers(1));
        let b = dir.join("b.json");
        export_sampled_rows(&again, &b).unwrap();
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
            "sampled exports must be byte-identical across worker counts"
        );
    }
}
