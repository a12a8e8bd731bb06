//! `sim_sweep_paper`: the work `repro_all` does, driven through
//! `dg-system` so the seed is ours and no process-wide memo hides work.
//!
//! One pass = 9 golden outputs, then the 99 evaluations of the paper
//! suite under the 11 configurations as one job set on two workers
//! (the baseline ones also snapshot the LLC), then the Fig. 2/7/8
//! similarity analyses on the baseline snapshots.

use crate::digest::{eval_digest, Fnv, StatDigests};
use crate::harness::{fastest, peak_rss_mb, time_setups, timed, Core, Ctx, Timed, Units};
use crate::stats::{median, quantile_sorted};
use crate::trace::HARNESS;
use crate::workloads::{org_of, ratio, WORKERS};
use dg_bench::check::check_configs;
use dg_bench::experiments::{suite_with_seed, Scale};
use dg_par::Pool;
use dg_system::similarity::{
    avg_bdi_savings, avg_dedup_savings, avg_dopp_bdi_savings, avg_map_savings,
    avg_threshold_savings,
};
use dg_system::{
    evaluate_and_snapshots, evaluate_with_golden, golden_output, llc_area_mm2, run_on_system,
    EvalResult, PhaseSnapshot, SystemConfig,
};
use dg_workloads::{prepare, Kernel};
use doppelganger::MapSpace;
use std::hint::black_box;

/// The paper's headline numbers the simulated ones are held against.
const PAPER_RUNTIME_RATIO: f64 = 1.023;
const PAPER_ENERGY_REDUCTION: f64 = 2.55;
const PAPER_MAP14_SAVINGS: f64 = 0.379;
const PAPER_AREA_REDUCTION: f64 = 1.55;

/// Label of the paper's base design point in `check_configs`.
const BASE_SPLIT: &str = "split m=14 data=1/4";

/// Fig. 2's similarity thresholds and its per-snapshot block cap.
const FIG2_THRESHOLDS: [f64; 5] = [0.0, 0.0001, 0.001, 0.01, 0.1];
const FIG2_MAX_BLOCKS: usize = 4096;

/// Everything one pass produced.
struct Pass {
    wall_s: f64,
    goldens: Vec<Timed<Vec<f64>>>,
    /// Config-major, suite order within; snapshots only for baseline.
    evals: Vec<Timed<(EvalResult, Vec<PhaseSnapshot>)>>,
    /// Per kernel: 5 threshold savings, 3 map savings, BdI, dedup,
    /// Dopp+BdI — the numbers of Figs. 2, 7 and 8.
    similarity: Timed<Vec<Vec<f64>>>,
    /// Σ job time / (workers × elapsed) of the evaluation job set.
    efficiency: f64,
    steals: usize,
}

fn one_pass(
    kernels: &[Box<dyn Kernel>],
    configs: &[(&'static str, SystemConfig)],
    pool: &Pool,
    threads: usize,
) -> Pass {
    let whole = timed(|| {
        let jobs: Vec<_> =
            kernels.iter().map(|k| move || timed(|| golden_output(k.as_ref(), threads))).collect();
        let goldens = pool.run(jobs);

        let mut jobs = Vec::with_capacity(configs.len() * kernels.len());
        for (ci, &(_, cfg)) in configs.iter().enumerate() {
            for (k, g) in kernels.iter().zip(&goldens) {
                let golden = &g.value;
                jobs.push(move || {
                    timed(|| {
                        if ci == 0 {
                            evaluate_and_snapshots(k.as_ref(), cfg, threads, golden)
                        } else {
                            (evaluate_with_golden(k.as_ref(), cfg, threads, golden), Vec::new())
                        }
                    })
                });
            }
        }
        let (evals, report) = pool.run_report(jobs);
        let busy: f64 = report.job_times.iter().map(|d| d.as_secs_f64()).sum();
        let efficiency = busy / (report.workers as f64 * report.elapsed.as_secs_f64());

        let similarity = timed(|| {
            evals[..kernels.len()]
                .iter()
                .map(|e| {
                    let snaps = &e.value.1;
                    let mut row: Vec<f64> = FIG2_THRESHOLDS
                        .iter()
                        .map(|&t| avg_threshold_savings(snaps, t, FIG2_MAX_BLOCKS))
                        .collect();
                    row.extend([12, 13, 14].map(|m| avg_map_savings(snaps, MapSpace::new(m))));
                    row.push(avg_bdi_savings(snaps));
                    row.push(avg_dedup_savings(snaps));
                    row.push(avg_dopp_bdi_savings(snaps, MapSpace::new(14)));
                    row
                })
                .collect::<Vec<_>>()
        });
        (goldens, evals, similarity, efficiency, report.steals)
    });
    let wall_s = whole.secs();
    let (goldens, evals, similarity, efficiency, steals) = whole.value;
    Pass { wall_s, goldens, evals, similarity, efficiency, steals }
}

/// Relative deviations of the four simulated headlines from the paper:
/// runtime ratio, dynamic-energy reduction, 14-bit map savings, area
/// reduction (all at the base design point, suite means).
fn paper_deviation(pass: &Pass, configs: &[(&'static str, SystemConfig)], n: usize) -> [f64; 4] {
    let base_idx = configs.iter().position(|(l, _)| *l == BASE_SPLIT).expect("base design point");
    let baseline = &pass.evals[..n];
    let split = &pass.evals[base_idx * n..(base_idx + 1) * n];
    let mean = |f: &dyn Fn(&EvalResult, &EvalResult) -> f64| {
        baseline.iter().zip(split).map(|(b, s)| f(&b.value.0, &s.value.0)).sum::<f64>() / n as f64
    };
    let runtime = mean(&|b, s| s.runtime_cycles as f64 / b.runtime_cycles.max(1) as f64);
    let energy = mean(&|b, s| ratio(b.energy.llc_dynamic_pj, s.energy.llc_dynamic_pj));
    let savings = pass.similarity.value.iter().map(|row| row[7]).sum::<f64>() / n as f64;
    // Area is pure configuration; like Fig. 13 it is always taken at
    // paper scale (toy caches are dominated by the fixed FPU area).
    let area =
        ratio(llc_area_mm2(&Scale::Paper.baseline()), llc_area_mm2(&Scale::Paper.split_default()));
    let dev = |sim: f64, paper: f64| (sim - paper).abs() / paper;
    [
        dev(runtime, PAPER_RUNTIME_RATIO),
        dev(energy, PAPER_ENERGY_REDUCTION),
        dev(savings, PAPER_MAP14_SAVINGS),
        dev(area, PAPER_AREA_REDUCTION),
    ]
}

fn digests_of(pass: &Pass, configs: &[(&'static str, SystemConfig)], n: usize) -> StatDigests {
    let mut d = StatDigests::default();
    for (i, e) in pass.evals.iter().enumerate() {
        d.push(format!("{}/{}", configs[i / n].0, e.value.0.kernel), eval_digest(&e.value.0));
    }
    for (e, row) in pass.evals[..n].iter().zip(&pass.similarity.value) {
        let mut h = Fnv::default();
        for v in row {
            h.word(v.to_bits());
        }
        d.push(format!("similarity/{}", e.value.0.kernel), h.finish());
    }
    d
}

/// Run the workload.
pub fn run(cx: &mut Ctx) -> Core {
    let scale = if cx.smoke { Scale::Small } else { Scale::Paper };
    let threads = scale.threads();
    let pool = Pool::with_workers(WORKERS);
    let configs = check_configs(scale);

    // Set-up: the suite and, once per kernel, the initial memory image
    // and annotation table every evaluation starts from.
    let (kernels, setup_s) = time_setups(|| {
        let kernels = suite_with_seed(scale, cx.seed);
        for k in &kernels {
            black_box(prepare(k.as_ref()));
        }
        kernels
    });
    let n = kernels.len();

    let mut passes = Vec::new();
    let mut counter = cx.passes(if cx.smoke { 1 } else { 2 });
    while counter.more() {
        let root = cx.tracer.as_mut().map(|t| t.open("pass", HARNESS, passes.len() as u64));
        let pass = one_pass(&kernels, &configs, &pool, threads);
        if let (Some(t), Some(root)) = (cx.tracer.as_mut(), root) {
            t.close(root);
            for (i, g) in pass.goldens.iter().enumerate() {
                t.record("golden_output", "dg-workloads", g.start, g.end, Some(root), i as u64);
            }
            for (i, e) in pass.evals.iter().enumerate() {
                t.record("evaluate", "dg-system", e.start, e.end, Some(root), i as u64);
            }
            let s = &pass.similarity;
            t.record("similarity", "dg-system", s.start, s.end, Some(root), 0);
        }
        passes.push(pass);
    }
    let peak_rss_mb = peak_rss_mb();

    // Verification, outside the timed section.
    let first = digests_of(&passes[0], &configs, n);
    let mut failed = 0u64;
    for p in &passes[1..] {
        failed += digests_of(p, &configs, n).mismatches(&first).len() as u64;
    }
    failed += cx.check_golden(&first).len() as u64;
    for p in &passes {
        for (i, e) in p.evals.iter().enumerate() {
            let r = &e.value.0;
            let exact = i >= n || r.output_error == 0.0;
            if !(exact && r.llc.hits <= r.llc.lookups && r.accesses > 0) {
                failed += 1;
                cx.note(format!("invariant failed: {}/{}", configs[i / n].0, r.kernel));
            }
        }
    }
    let attempted = (passes.len() * passes[0].evals.len()) as u64;

    let last = passes.last().expect("at least one pass");
    let accesses: u64 = last.evals.iter().map(|e| e.value.0.accesses).sum();
    let hits: u64 = last.evals.iter().map(|e| e.value.0.llc.hits).sum();
    let lookups: u64 = last.evals.iter().map(|e| e.value.0.llc.lookups).sum();
    let wall_s = fastest(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let dev = paper_deviation(last, &configs, n);
    cx.extra("paper_dev_max", dev.iter().copied().fold(0.0, f64::max), "frac");
    cx.note(format!(
        "{} pass(es); 1 pass = {} goldens + {} evaluations ({accesses} simulated accesses) + similarity",
        passes.len(),
        n,
        last.evals.len()
    ));

    let units = Units::Repeated(
        passes
            .iter()
            .map(|p| {
                p.goldens.iter().map(Timed::secs).chain(p.evals.iter().map(Timed::secs)).collect()
            })
            .collect(),
    );

    if cx.traced() {
        layer_metrics(cx, &passes, &kernels, &configs, &pool, threads, dev);
    }

    Core {
        setup_s,
        wall_s,
        ops_per_pass: accesses as f64,
        units,
        tail_cap: 0.90,
        peak_rss_mb,
        hit_rate: ratio(hits as f64, lookups as f64),
        agreement: 1.0 - dev.iter().sum::<f64>() / dev.len() as f64,
        attempted,
        failed,
    }
}

/// The workload's own per-layer numbers (traced run): medians over the
/// traced passes, plus two isolated calls — `prepare` alone, and the
/// base design point run through `run_on_system` to read the private
/// levels' counters, which an `EvalResult` does not carry.
fn layer_metrics(
    cx: &mut Ctx,
    passes: &[Pass],
    kernels: &[Box<dyn Kernel>],
    configs: &[(&'static str, SystemConfig)],
    pool: &Pool,
    threads: usize,
    dev: [f64; 4],
) {
    let n = kernels.len();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());

    let prepare_s = timed(|| {
        for k in kernels {
            black_box(prepare(k.as_ref()));
        }
    })
    .secs();
    cx.layer("dg-workloads.prepare_s", prepare_s, "s");
    let golden_s = med(&|p| p.goldens.iter().map(Timed::secs).sum());
    cx.layer("dg-workloads.golden_s", golden_s, "s");
    let baseline_s = med(&|p| p.evals[..n].iter().map(Timed::secs).sum());
    cx.layer("dg-workloads.kernel_share", golden_s / baseline_s, "frac");

    let last = passes.last().expect("at least one pass");
    for org in crate::metrics::ORGS {
        let of_org = |p: &Pass| -> Vec<usize> {
            (0..p.evals.len()).filter(|i| org_of(&configs[i / n].1) == org).collect()
        };
        let eval_s = med(&|p| of_org(p).iter().map(|&i| p.evals[i].secs()).sum());
        let idx = of_org(last);
        let accesses: u64 = idx.iter().map(|&i| last.evals[i].value.0.accesses).sum();
        let hits: u64 = idx.iter().map(|&i| last.evals[i].value.0.llc.hits).sum();
        let lookups: u64 = idx.iter().map(|&i| last.evals[i].value.0.llc.lookups).sum();
        cx.layer(format!("dg-system.eval_s.{org}"), eval_s, "s");
        cx.layer(format!("dg-system.ns_per_access.{org}"), eval_s * 1e9 / accesses as f64, "ns");
        cx.layer(
            format!("dg-system.llc_hit_ratio.{org}"),
            ratio(hits as f64, lookups as f64),
            "frac",
        );
    }
    let mut eval_ms: Vec<f64> =
        passes.iter().flat_map(|p| p.evals.iter().map(|e| e.secs() * 1e3)).collect();
    eval_ms.sort_by(f64::total_cmp);
    cx.layer("dg-system.eval_ms_p50", quantile_sorted(&eval_ms, 0.5), "ms");
    cx.layer("dg-system.eval_ms_p90", quantile_sorted(&eval_ms, 0.9), "ms");
    cx.note(format!("dg-system.eval_ms_p50/p90 over n={} evaluations", eval_ms.len()));
    cx.layer("dg-system.similarity_s", med(&|p| p.similarity.secs()), "s");
    let off_chip: u64 = last.evals.iter().map(|e| e.value.0.off_chip_blocks).sum();
    cx.layer("dg-system.off_chip_blocks", off_chip as f64, "count");
    for (name, d) in ["runtime", "energy", "savings", "area"].iter().zip(dev) {
        cx.layer(format!("dg-system.paper_dev.{name}"), d, "frac");
    }
    cx.layer("dg-par.sweep_efficiency", med(&|p| p.efficiency), "frac");
    cx.layer("dg-par.steals", med(&|p| p.steals as f64), "count");

    let base_cfg = configs.iter().find(|(l, _)| *l == BASE_SPLIT).expect("base design point").1;
    let jobs: Vec<_> = kernels
        .iter()
        .map(|k| {
            move || {
                let (sys, _) = run_on_system(k.as_ref(), base_cfg, threads);
                sys.check_llc_invariants();
                (sys.l1_stats(), sys.l2_stats(), sys.back_invalidations())
            }
        })
        .collect();
    let stats = pool.run(jobs);
    let sum = |f: &dyn Fn(&(dg_cache::CacheStats, dg_cache::CacheStats, u64)) -> u64| {
        stats.iter().map(f).sum::<u64>() as f64
    };
    cx.layer(
        "dg-system.l1_hit_ratio",
        ratio(sum(&|s| s.0.hits), sum(&|s| s.0.hits + s.0.misses)),
        "frac",
    );
    cx.layer(
        "dg-system.l2_hit_ratio",
        ratio(sum(&|s| s.1.hits), sum(&|s| s.1.hits + s.1.misses)),
        "frac",
    );
    cx.layer("dg-system.back_invalidations", sum(&|s| s.2), "count");
}
