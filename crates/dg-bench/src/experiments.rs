//! Sweep machinery shared by the figure/table binaries.
//!
//! Evaluations are scheduled on the `dg-par` work-stealing pool:
//! [`Sweep::run_batch`] turns every missing (configuration × kernel)
//! pair into one job, so a figure that needs four configurations keeps
//! all workers busy across the whole 4×9 job set instead of draining
//! nine-wide waves. Golden (precise) outputs and the baseline run are
//! memoized process-wide — every configuration, figure, and table in
//! one process shares a single golden run per kernel and a single
//! baseline simulation (which also yields the Fig. 2/7/8 snapshots).
//! All jobs are pure functions of `(kernel, config, threads, seed)`,
//! so results are bit-identical regardless of worker count.

use dg_cache::CompressedConfig;
use dg_par::Pool;
use dg_system::{
    evaluate_and_snapshots, evaluate_with_golden, golden_output, EvalResult, LlcKind,
    PhaseSnapshot, SystemConfig,
};
use dg_workloads::Kernel;
use doppelganger::{DoppelgangerConfig, MapSpace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced problem sizes on proportionally scaled-down caches —
    /// fast enough for CI.
    Small,
    /// ~10× the small suite's access count on the same scaled-down
    /// caches: long enough that interval sampling pays off, short
    /// enough to measure full-vs-sampled wall-clock in CI.
    Medium,
    /// The paper's Table 1 cache configuration with simulation-sized
    /// working sets.
    Paper,
}

/// The default seed for all experiments.
pub const SEED: u64 = 0xd09;

/// The benchmark suite at the given scale.
pub fn suite(scale: Scale) -> Vec<Box<dyn Kernel>> {
    suite_with_seed(scale, SEED)
}

/// The benchmark suite with an explicit input seed (multi-seed
/// stability studies).
pub fn suite_with_seed(scale: Scale, seed: u64) -> Vec<Box<dyn Kernel>> {
    match scale {
        Scale::Small => dg_workloads::small_suite(seed),
        Scale::Medium => dg_workloads::medium_suite(seed),
        Scale::Paper => dg_workloads::paper_suite(seed),
    }
}

/// The nine benchmark names in suite order.
pub fn kernel_names() -> [&'static str; 9] {
    [
        "blackscholes",
        "canneal",
        "ferret",
        "fluidanimate",
        "inversek2j",
        "jmeint",
        "jpeg",
        "kmeans",
        "swaptions",
    ]
}

impl Scale {
    /// Worker threads (= cores) used for every run.
    pub fn threads(self) -> usize {
        4
    }

    fn doppel_base(self, unified: bool) -> DoppelgangerConfig {
        match self {
            Scale::Paper => {
                if unified {
                    DoppelgangerConfig::paper_unified()
                } else {
                    DoppelgangerConfig::paper_split()
                }
            }
            // Medium grows the workload, not the caches: it exists to
            // measure sampled-vs-full wall-clock on a fixed machine.
            Scale::Small | Scale::Medium => DoppelgangerConfig {
                // 1/32-scale versions of the paper arrays.
                tag_entries: if unified { 1024 } else { 512 },
                tag_ways: 16,
                data_entries: if unified { 512 } else { 128 },
                data_ways: 16,
                map_space: MapSpace::paper_default(),
                unified,
            },
        }
    }

    fn base_config(self) -> SystemConfig {
        match self {
            Scale::Paper => SystemConfig::paper_baseline(),
            Scale::Small | Scale::Medium => SystemConfig::tiny(LlcKind::Baseline),
        }
    }

    /// The baseline system (conventional LLC).
    pub fn baseline(self) -> SystemConfig {
        self.base_config()
    }

    /// The split system with an `m`-bit map space and a
    /// `numer/denom`-of-tag-capacity data array.
    pub fn split(self, m_bits: u32, numer: usize, denom: usize) -> SystemConfig {
        let dopp = self
            .doppel_base(false)
            .with_map_space(m_bits)
            .with_data_fraction(numer, denom);
        SystemConfig { llc: LlcKind::Split(dopp), ..self.base_config() }
    }

    /// The paper's base split design point: 14-bit maps, 1/4 data array.
    pub fn split_default(self) -> SystemConfig {
        self.split(14, 1, 4)
    }

    /// The uniDoppelgänger system with a `numer/denom` data array.
    pub fn unified(self, numer: usize, denom: usize) -> SystemConfig {
        let dopp = self.doppel_base(true).with_data_fraction(numer, denom);
        SystemConfig { llc: LlcKind::Unified(dopp), ..self.base_config() }
    }

    /// The Touché-style compressed LLC with `sb_blocks`-block
    /// superblocks over the same byte budget as the baseline.
    pub fn compressed(self, sb_blocks: usize) -> SystemConfig {
        let base = self.base_config();
        let comp = CompressedConfig::from_llc(base.llc_bytes, base.llc_ways, sb_blocks);
        SystemConfig { llc: LlcKind::Compressed(comp), ..base }
    }
}

type GoldenKey = (Scale, u64, usize, &'static str);

fn golden_memo() -> &'static Mutex<HashMap<GoldenKey, Arc<Vec<f64>>>> {
    static MEMO: OnceLock<Mutex<HashMap<GoldenKey, Arc<Vec<f64>>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Golden (precise) outputs for the whole suite, in suite order.
///
/// Memoized process-wide per `(scale, seed, threads, kernel)`: the
/// golden run is configuration-independent, so every sweep, figure,
/// and stability pass in one process shares a single golden run per
/// kernel. Missing entries are computed in parallel on a fresh pool.
pub fn suite_goldens(scale: Scale, seed: u64, threads: usize) -> Vec<Arc<Vec<f64>>> {
    let kernels = suite_with_seed(scale, seed);
    suite_goldens_with(&kernels, scale, seed, threads, &Pool::new())
}

fn suite_goldens_with(
    kernels: &[Box<dyn Kernel>],
    scale: Scale,
    seed: u64,
    threads: usize,
    pool: &Pool,
) -> Vec<Arc<Vec<f64>>> {
    let memo = golden_memo();
    let mut out: Vec<Option<Arc<Vec<f64>>>> = {
        let m = memo.lock().expect("golden memo poisoned");
        kernels.iter().map(|k| m.get(&(scale, seed, threads, k.name())).cloned()).collect()
    };
    let missing: Vec<usize> =
        out.iter().enumerate().filter(|(_, g)| g.is_none()).map(|(i, _)| i).collect();
    if !missing.is_empty() {
        let jobs: Vec<_> = missing
            .iter()
            .map(|&i| {
                let kernel = &kernels[i];
                move || golden_output(kernel.as_ref(), threads)
            })
            .collect();
        let computed = pool.run(jobs);
        let mut m = memo.lock().expect("golden memo poisoned");
        for (&i, golden) in missing.iter().zip(computed) {
            let golden = Arc::new(golden);
            m.insert((scale, seed, threads, kernels[i].name()), Arc::clone(&golden));
            out[i] = Some(golden);
        }
    }
    out.into_iter().map(|g| g.expect("filled")).collect()
}

/// Everything one baseline (conventional LLC) suite run produces.
///
/// The baseline simulation is the single most reused computation in the
/// repro — the sweep tables normalize against it and the Fig. 2/7/8
/// similarity analyses read its snapshots — so one run yields both.
#[derive(Debug)]
pub struct BaselineArtifacts {
    /// Per-kernel evaluation results, suite order.
    pub results: Vec<EvalResult>,
    /// Per-kernel, per-phase approximate-block snapshots (the inputs
    /// to the Fig. 2/7/8 similarity analyses).
    pub snapshots: Vec<Vec<PhaseSnapshot>>,
}

fn baseline_memo() -> &'static Mutex<HashMap<(Scale, u64, usize), Arc<BaselineArtifacts>>> {
    static MEMO: OnceLock<Mutex<HashMap<(Scale, u64, usize), Arc<BaselineArtifacts>>>> =
        OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The baseline suite run, memoized process-wide per
/// `(scale, seed, threads)`.
///
/// Snapshotting is a read-only observation, so the results are
/// bit-identical to a plain evaluation (see
/// [`dg_system::evaluate_and_snapshots`]).
pub fn baseline_artifacts(scale: Scale, seed: u64, threads: usize) -> Arc<BaselineArtifacts> {
    let key = (scale, seed, threads);
    if let Some(hit) = baseline_memo().lock().expect("baseline memo poisoned").get(&key) {
        return Arc::clone(hit);
    }
    let kernels = suite_with_seed(scale, seed);
    let pool = Pool::new();
    let goldens = suite_goldens_with(&kernels, scale, seed, threads, &pool);
    let cfg = scale.baseline();
    let jobs: Vec<_> = kernels
        .iter()
        .zip(&goldens)
        .map(|(kernel, golden)| {
            move || evaluate_and_snapshots(kernel.as_ref(), cfg, threads, golden)
        })
        .collect();
    let (results, snapshots) = pool.run(jobs).into_iter().unzip();
    let art = Arc::new(BaselineArtifacts { results, snapshots });
    Arc::clone(
        baseline_memo().lock().expect("baseline memo poisoned").entry(key).or_insert(art),
    )
}

/// Runs (kernel × configuration) evaluations, caching results so
/// binaries can reference the same run from several tables.
///
/// [`run_batch`](Sweep::run_batch) schedules every missing
/// (configuration × kernel) pair as one job set on a work-stealing
/// pool; the baseline configuration is routed through the process-wide
/// [`baseline_artifacts`] memo so its simulation is shared with the
/// snapshot-based figures.
#[derive(Debug)]
pub struct Sweep {
    scale: Scale,
    pool: Pool,
    cache: HashMap<String, Vec<EvalResult>>,
}

impl Sweep {
    /// A sweep at the given scale.
    pub fn new(scale: Scale) -> Self {
        Sweep { scale, pool: Pool::new(), cache: HashMap::new() }
    }

    /// A sweep with an explicit worker count (determinism tests force
    /// a single worker).
    pub fn with_workers(scale: Scale, workers: usize) -> Self {
        Sweep { scale, pool: Pool::with_workers(workers), cache: HashMap::new() }
    }

    /// The sweep's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Evaluate several labelled configurations in one batch.
    ///
    /// Every missing (configuration × kernel) pair becomes one job on
    /// the shared pool, so workers stay busy across configuration
    /// boundaries instead of draining one nine-job wave at a time.
    /// Results land in the cache in suite order per label. Labels
    /// already cached are skipped.
    pub fn run_batch(&mut self, configs: &[(&str, SystemConfig)]) {
        let baseline_cfg = self.scale.baseline();
        let mut pending: Vec<(String, SystemConfig)> = Vec::new();
        for (label, cfg) in configs {
            if self.cache.contains_key(*label) || pending.iter().any(|(l, _)| l == label) {
                continue;
            }
            if *cfg == baseline_cfg {
                // The baseline doubles as the snapshot source for the
                // similarity figures; share one simulation process-wide.
                let art = baseline_artifacts(self.scale, SEED, self.scale.threads());
                self.cache.insert(label.to_string(), art.results.clone());
                eprintln!("[sweep] finished configuration '{label}'");
                continue;
            }
            pending.push((label.to_string(), *cfg));
        }
        if pending.is_empty() {
            return;
        }
        let threads = self.scale.threads();
        let kernels = suite(self.scale);
        let goldens = suite_goldens_with(&kernels, self.scale, SEED, threads, &self.pool);
        let mut jobs = Vec::with_capacity(pending.len() * kernels.len());
        for (_, cfg) in &pending {
            let cfg = *cfg;
            for (kernel, golden) in kernels.iter().zip(&goldens) {
                jobs.push(move || evaluate_with_golden(kernel.as_ref(), cfg, threads, golden));
            }
        }
        let mut flat = self.pool.run(jobs).into_iter();
        for (label, _) in &pending {
            let results: Vec<EvalResult> = flat.by_ref().take(kernels.len()).collect();
            self.cache.insert(label.clone(), results);
            eprintln!("[sweep] finished configuration '{label}'");
        }
    }

    /// Evaluate the whole suite under `cfg`, caching under `label`.
    /// Returns results in suite order.
    pub fn run(&mut self, label: &str, cfg: SystemConfig) -> &[EvalResult] {
        self.run_batch(&[(label, cfg)]);
        self.results(label)
    }

    /// Cached results for `label`, in suite order.
    ///
    /// Panics if the label has not been evaluated — call
    /// [`run_batch`](Sweep::run_batch) (or [`run`](Sweep::run)) first.
    pub fn results(&self, label: &str) -> &[EvalResult] {
        self.cache
            .get(label)
            .unwrap_or_else(|| panic!("configuration '{label}' has not been run"))
    }

    /// Baseline results (cached slice, shared with the snapshot run
    /// through the process-wide baseline memo).
    pub fn baseline(&mut self) -> &[EvalResult] {
        self.run("baseline", self.scale.baseline())
    }

    /// Iterate over every cached `(label, results)` pair, in label
    /// order. The cache is a `HashMap` whose iteration order is
    /// random per process; exports must be byte-identical from run to
    /// run and across worker counts (the export-determinism stage of
    /// `scripts/verify.sh`), so the order must be a pure function of
    /// the content.
    pub fn cached_runs(&self) -> impl Iterator<Item = (&str, &[EvalResult])> {
        let mut labels: Vec<&String> = self.cache.keys().collect();
        labels.sort_unstable();
        labels.into_iter().map(|k| (k.as_str(), self.cache[k].as_slice()))
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-kernel ratio `baseline_metric / variant_metric` (a "reduction"),
/// guarding against zero denominators.
pub fn reduction(baseline: f64, variant: f64) -> f64 {
    if variant <= 0.0 {
        0.0
    } else {
        baseline / variant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_configs_are_consistent() {
        let s = Scale::Small;
        assert_eq!(s.baseline().llc, LlcKind::Baseline);
        match s.split(12, 1, 8).llc {
            LlcKind::Split(d) => {
                assert_eq!(d.map_space.m_bits(), 12);
                assert_eq!(d.data_entries, 512 / 8);
            }
            _ => panic!(),
        }
        match s.unified(3, 4).llc {
            LlcKind::Unified(d) => assert_eq!(d.data_entries, 768),
            _ => panic!(),
        }
    }

    #[test]
    fn paper_split_default_matches_table1() {
        match Scale::Paper.split_default().llc {
            LlcKind::Split(d) => {
                assert_eq!(d.tag_entries, 16 * 1024);
                assert_eq!(d.data_entries, 4 * 1024);
                assert_eq!(d.map_space.m_bits(), 14);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn sweep_caches_runs() {
        let mut sweep = Sweep::new(Scale::Small);
        let cfg = Scale::Small.baseline();
        let first = sweep.run("baseline", cfg).to_vec();
        let again = sweep.run("baseline", cfg).to_vec();
        assert_eq!(first.len(), 9);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.runtime_cycles, b.runtime_cycles);
            assert_eq!(a.kernel, b.kernel);
        }
    }

    #[test]
    fn suite_order_matches_names() {
        let kernels = suite(Scale::Small);
        let names = kernel_names();
        for (k, n) in kernels.iter().zip(names) {
            assert_eq!(k.name(), n);
        }
    }

    #[test]
    fn goldens_are_memoized_and_shared() {
        let a = suite_goldens(Scale::Small, SEED, Scale::Small.threads());
        let b = suite_goldens(Scale::Small, SEED, Scale::Small.threads());
        assert_eq!(a.len(), 9);
        for (x, y) in a.iter().zip(&b) {
            // Same Arc, not merely equal contents: the second call hit
            // the memo instead of re-running the kernel.
            assert!(Arc::ptr_eq(x, y));
        }
    }

    #[test]
    fn baseline_run_is_shared_process_wide() {
        let threads = Scale::Small.threads();
        let a = baseline_artifacts(Scale::Small, SEED, threads);
        let b = baseline_artifacts(Scale::Small, SEED, threads);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.results.len(), 9);
        assert_eq!(a.snapshots.len(), 9);
        // A sweep's baseline comes from the same memoized run.
        let mut sweep = Sweep::new(Scale::Small);
        let base = sweep.baseline();
        for (s, m) in base.iter().zip(&a.results) {
            assert_eq!(s.runtime_cycles, m.runtime_cycles);
            assert_eq!(s.output_error.to_bits(), m.output_error.to_bits());
        }
    }

    #[test]
    fn batch_results_match_single_runs() {
        let mut batch = Sweep::new(Scale::Small);
        batch.run_batch(&[
            ("split-m12-d1/4", Scale::Small.split(12, 1, 4)),
            ("uni-d1/2", Scale::Small.unified(1, 2)),
        ]);
        let mut single = Sweep::new(Scale::Small);
        single.run("split-m12-d1/4", Scale::Small.split(12, 1, 4));
        for (a, b) in
            batch.results("split-m12-d1/4").iter().zip(single.results("split-m12-d1/4"))
        {
            assert_eq!(a.runtime_cycles, b.runtime_cycles);
            assert_eq!(a.output_error.to_bits(), b.output_error.to_bits());
            assert_eq!(a.llc, b.llc);
        }
        assert_eq!(batch.results("uni-d1/2").len(), 9);
    }

    #[test]
    fn helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(reduction(4.0, 2.0), 2.0);
        assert_eq!(reduction(4.0, 0.0), 0.0);
    }
}
