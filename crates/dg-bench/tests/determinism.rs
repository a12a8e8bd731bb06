//! Determinism guarantees of the parallel sweep engine.
//!
//! Every evaluation job is a pure function of `(kernel, config,
//! threads, seed)`, so the work-stealing pool must produce results
//! byte-identical to a forced single-worker run and to direct serial
//! `evaluate` calls that bypass the pool and every memo.

use dg_bench::experiments::{suite, Scale, Sweep};
use dg_system::{evaluate, EvalResult};

fn assert_bit_identical(a: &[EvalResult], b: &[EvalResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.kernel, y.kernel);
        assert_eq!(x.runtime_cycles, y.runtime_cycles, "{}", x.kernel);
        assert_eq!(x.instructions, y.instructions, "{}", x.kernel);
        assert_eq!(
            x.output_error.to_bits(),
            y.output_error.to_bits(),
            "{}: {} vs {}",
            x.kernel,
            x.output_error,
            y.output_error
        );
        assert_eq!(x.off_chip_blocks, y.off_chip_blocks, "{}", x.kernel);
        assert_eq!(x.llc, y.llc, "{}", x.kernel);
        assert_eq!(x.approx_fraction.to_bits(), y.approx_fraction.to_bits(), "{}", x.kernel);
    }
}

#[test]
fn parallel_sweep_matches_single_worker_and_serial_runs() {
    let scale = Scale::Small;
    let cfg = scale.split_default();
    let batch = [
        ("baseline", scale.baseline()),
        ("split-m14-d1/4", cfg),
        ("compressed-sb2", scale.compressed(2)),
    ];

    let mut parallel = Sweep::new(scale);
    parallel.run_batch(&batch);

    let mut single = Sweep::with_workers(scale, 1);
    single.run_batch(&batch);
    assert_bit_identical(parallel.results("split-m14-d1/4"), single.results("split-m14-d1/4"));
    assert_bit_identical(parallel.results("baseline"), single.results("baseline"));
    assert_bit_identical(parallel.results("compressed-sb2"), single.results("compressed-sb2"));

    // Strongest check: direct serial evaluation, no pool, no golden or
    // baseline memo involved at all.
    let threads = scale.threads();
    let direct: Vec<EvalResult> =
        suite(scale).iter().map(|k| evaluate(k.as_ref(), cfg, threads)).collect();
    assert_bit_identical(parallel.results("split-m14-d1/4"), &direct);

    let direct_base: Vec<EvalResult> = suite(scale)
        .iter()
        .map(|k| evaluate(k.as_ref(), scale.baseline(), threads))
        .collect();
    assert_bit_identical(parallel.results("baseline"), &direct_base);

    let direct_comp: Vec<EvalResult> = suite(scale)
        .iter()
        .map(|k| evaluate(k.as_ref(), scale.compressed(2), threads))
        .collect();
    assert_bit_identical(parallel.results("compressed-sb2"), &direct_comp);
}

/// `dg_sample::select` is a pure function of `(profile, k, seed)`; its
/// medoid update may skip work but never change a winner. Pinned on the
/// medium suite's kmeans (317 intervals): the values are the ones the
/// exhaustive update produced.
#[test]
fn medium_kmeans_selection_is_pinned() {
    use dg_bench::experiments::{suite_with_seed, SEED};
    use dg_bench::sampled::sampling_params;
    let scale = Scale::Medium;
    let suite = suite_with_seed(scale, SEED);
    let kmeans = suite.iter().find(|k| k.name() == "kmeans").expect("kmeans is in the suite");
    let mut source = dg_workloads::KernelSource::new(kmeans.as_ref(), scale.threads(), 4);
    let profile = dg_sample::profile(&mut source, sampling_params(scale).0);
    assert_eq!(profile.intervals.len(), 317);
    let picked: Vec<(usize, u64, usize)> = dg_sample::select(&profile, 7, SEED)
        .intervals
        .iter()
        .map(|s| (s.index, s.weight.to_bits(), s.cluster_size))
        .collect();
    assert_eq!(
        picked,
        [
            (1, 4597351217089795379, 72),
            (72, 4569420375236765741, 1),
            (73, 4590119885196004898, 24),
            (81, 4604227375511395758, 213),
            (158, 4576609086313893410, 3),
            (230, 4576609086313893410, 3),
            (316, 4569420375236765741, 1),
        ]
    );
}
