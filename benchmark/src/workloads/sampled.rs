//! `sim_sampled_medium`: the sampled runner over the medium suite.
//!
//! A pass profiles every kernel (`dg_sample::profile`), builds its
//! K = 8 schedule, and runs the 99 `run_sampled` jobs of the 11-config
//! grid on two workers. Speed is reported beside accuracy: the untimed
//! verification runs the full-coverage reference of every pair and
//! applies `repro_all --sampled-check`'s tolerance rule.

use crate::digest::{eval_digest, Fnv, StatDigests};
use crate::harness::{fastest, peak_rss_mb, time_setups, timed, Core, Ctx, Timed, Units};
use crate::stats::median;
use crate::trace::HARNESS;
use crate::workloads::{ratio, WORKERS};
use dg_bench::check::check_configs;
use dg_bench::experiments::{suite_with_seed, Scale};
use dg_bench::sampled::sampling_params;
use dg_par::Pool;
use dg_sample::{profile, Profile, SampleSchedule};
use dg_system::{golden_output, run_sampled, SampledOutcome, SystemConfig};
use dg_workloads::{Kernel, KernelSource};

/// Representative intervals per kernel.
const K: usize = 8;

/// `--sampled-check`'s absolute floors under each estimate's
/// confidence interval (`dg_bench::sampled` keeps them private).
const MISS_FLOOR: f64 = 0.08;
const DOPP_FLOOR: f64 = 0.10;
const ERR_FLOOR: f64 = 0.10;

struct Pass {
    wall_s: f64,
    profiles: Vec<Timed<Profile>>,
    select: Timed<Vec<SampleSchedule>>,
    /// Config-major, suite order within.
    runs: Vec<Timed<SampledOutcome>>,
}

struct Grid<'a> {
    kernels: &'a [Box<dyn Kernel>],
    goldens: &'a [Vec<f64>],
    configs: &'a [(&'static str, SystemConfig)],
    pool: &'a Pool,
    threads: usize,
}

impl Grid<'_> {
    /// Every kernel under every configuration with its schedule.
    fn run_all(&self, schedules: &[SampleSchedule]) -> Vec<Timed<SampledOutcome>> {
        let threads = self.threads;
        let mut jobs = Vec::with_capacity(self.configs.len() * self.kernels.len());
        for &(_, cfg) in self.configs {
            for ((k, s), g) in self.kernels.iter().zip(schedules).zip(self.goldens) {
                jobs.push(move || timed(|| run_sampled(k.as_ref(), cfg, threads, s, g)));
            }
        }
        self.pool.run(jobs)
    }
}

fn one_pass(grid: &Grid<'_>, scale: Scale, seed: u64) -> Pass {
    let (interval_len, warmup_len) = sampling_params(scale);
    let (threads, cores) = (grid.threads, grid.configs[0].1.cores);
    let whole = timed(|| {
        let jobs: Vec<_> = grid
            .kernels
            .iter()
            .map(|k| {
                move || {
                    timed(|| {
                        profile(&mut KernelSource::new(k.as_ref(), threads, cores), interval_len)
                    })
                }
            })
            .collect();
        let profiles = grid.pool.run(jobs);
        let select = timed(|| {
            profiles
                .iter()
                .map(|p| SampleSchedule::build(&p.value, K, warmup_len, seed))
                .collect::<Vec<_>>()
        });
        let runs = grid.run_all(&select.value);
        (profiles, select, runs)
    });
    let wall_s = whole.secs();
    let (profiles, select, runs) = whole.value;
    Pass { wall_s, profiles, select, runs }
}

fn outcome_digest(o: &SampledOutcome) -> u64 {
    let e = &o.estimates;
    let mut h = Fnv::default();
    h.word(eval_digest(&o.result))
        .word(o.detailed_accesses)
        .word(e.measured_intervals as u64)
        .word(e.miss_rate.value.to_bits())
        .word(e.dopp_hit_rate.value.to_bits())
        .word(e.simulated_fraction.to_bits());
    h.finish()
}

/// Run the workload.
pub fn run(cx: &mut Ctx) -> Core {
    let scale = if cx.smoke { Scale::Small } else { Scale::Medium };
    let threads = scale.threads();
    let pool = Pool::with_workers(WORKERS);
    let configs = check_configs(scale);
    let seed = cx.seed;

    // Set-up: the suite and each kernel's precise output, which every
    // sampled run measures its output error against.
    let ((kernels, goldens), setup_s) = time_setups(|| {
        let kernels = suite_with_seed(scale, seed);
        let jobs: Vec<_> =
            kernels.iter().map(|k| move || golden_output(k.as_ref(), threads)).collect();
        let goldens = pool.run(jobs);
        (kernels, goldens)
    });
    let grid =
        Grid { kernels: &kernels, goldens: &goldens, configs: &configs, pool: &pool, threads };
    let n = kernels.len();

    let mut passes = Vec::new();
    let mut counter = cx.passes(2);
    while counter.more() {
        let root = cx.tracer.as_mut().map(|t| t.open("pass", HARNESS, passes.len() as u64));
        let pass = one_pass(&grid, scale, seed);
        if let (Some(t), Some(root)) = (cx.tracer.as_mut(), root) {
            t.close(root);
            for (i, p) in pass.profiles.iter().enumerate() {
                t.record("profile", "dg-sample", p.start, p.end, Some(root), i as u64);
            }
            let s = &pass.select;
            t.record("SampleSchedule::build", "dg-sample", s.start, s.end, Some(root), 0);
            for (i, r) in pass.runs.iter().enumerate() {
                t.record("run_sampled", "dg-system", r.start, r.end, Some(root), i as u64);
            }
        }
        passes.push(pass);
    }
    let peak_rss_mb = peak_rss_mb();

    // Verification. Statistics: identical across passes and equal to
    // the committed digest. Accuracy: each estimate against its
    // full-coverage reference (every interval measured, no warm-up).
    let key = |i: usize| format!("{}/{}", configs[i / n].0, kernels[i % n].name());
    let digests_of = |p: &Pass| {
        let mut d = StatDigests::default();
        for (i, r) in p.runs.iter().enumerate() {
            d.push(key(i), outcome_digest(&r.value));
        }
        d
    };
    let first = digests_of(&passes[0]);
    let mut failed = 0u64;
    for p in &passes[1..] {
        failed += digests_of(p).mismatches(&first).len() as u64;
    }
    failed += cx.check_golden(&first).len() as u64;

    let last = passes.last().expect("at least one pass");
    let references: Vec<SampleSchedule> = last
        .profiles
        .iter()
        .map(|p| SampleSchedule::build(&p.value, p.value.intervals.len(), 0, seed))
        .collect();
    let full = grid.run_all(&references);
    let mut in_tol = 0usize;
    for (i, (s, f)) in last.runs.iter().zip(&full).enumerate() {
        let (s, f) = (&s.value, &f.value);
        let gap = |a: f64, b: f64| (a - b).abs();
        let ok = gap(s.estimates.miss_rate.value, f.estimates.miss_rate.value)
            <= s.estimates.miss_rate.ci.max(MISS_FLOOR)
            && gap(s.estimates.dopp_hit_rate.value, f.estimates.dopp_hit_rate.value)
                <= s.estimates.dopp_hit_rate.ci.max(DOPP_FLOOR)
            && gap(s.result.output_error, f.result.output_error)
                <= s.estimates.output_error.ci.max(ERR_FLOOR);
        in_tol += ok as usize;
        // The baseline organization is exact, sampled or not.
        let sane = i >= n || (s.result.output_error == 0.0 && f.result.output_error == 0.0);
        if !sane {
            failed += 1;
            cx.note(format!("invariant failed: {}", key(i)));
        }
    }
    let in_tol_frac = in_tol as f64 / last.runs.len() as f64;
    cx.extra("sampled_in_tol_frac", in_tol_frac, "frac");
    let attempted = (passes.len() * last.runs.len()) as u64;

    let wall_s = fastest(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let represented: u64 = last.runs.iter().map(|r| r.value.result.accesses).sum();
    let detailed: u64 = last.runs.iter().map(|r| r.value.detailed_accesses).sum();
    let hits: u64 = last.runs.iter().map(|r| r.value.result.llc.hits).sum();
    let lookups: u64 = last.runs.iter().map(|r| r.value.result.llc.lookups).sum();
    cx.note(format!(
        "{} passes; 1 pass = {n} profiles + {} sampled runs representing {represented} accesses \
         ({detailed} simulated in detail); {in_tol}/{} estimates inside tolerance",
        passes.len(),
        last.runs.len(),
        last.runs.len()
    ));

    if cx.traced() {
        let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        cx.layer("dg-sample.profile_s", med(&|p| p.profiles.iter().map(Timed::secs).sum()), "s");
        cx.layer("dg-sample.select_s", med(&|p| p.select.secs()), "s");
        cx.layer("dg-system.sampled_run_s", med(&|p| p.runs.iter().map(Timed::secs).sum()), "s");
        cx.layer(
            "dg-system.sampled_detailed_frac",
            ratio(detailed as f64, represented as f64),
            "frac",
        );
    }

    Core {
        setup_s,
        wall_s,
        ops_per_pass: represented as f64,
        units: Units::Repeated(
            passes.iter().map(|p| p.runs.iter().map(Timed::secs).collect()).collect(),
        ),
        tail_cap: 0.90,
        peak_rss_mb,
        hit_rate: ratio(hits as f64, lookups as f64),
        agreement: in_tol_frac,
        attempted,
        failed,
    }
}
