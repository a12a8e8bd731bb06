//! Driving workloads through the simulated system.

use crate::{llc_energy, EnergyReport, LlcCounters, System, SystemConfig};
use dg_workloads::{prepare, Kernel};

/// Everything one evaluation run produces — the raw material for every
/// figure in the paper's evaluation.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Kernel name.
    pub kernel: &'static str,
    /// Simulated runtime (slowest core), cycles.
    pub runtime_cycles: u64,
    /// Total simulated instructions across cores.
    pub instructions: u64,
    /// Core memory accesses (loads + stores) across cores — the
    /// denominator for per-access wall-clock normalisation in
    /// `benchmark/`.
    pub accesses: u64,
    /// Application output error vs. the precise golden run (0–1).
    pub output_error: f64,
    /// Off-chip traffic in blocks (reads + writebacks).
    pub off_chip_blocks: u64,
    /// LLC activity counters.
    pub llc: LlcCounters,
    /// LLC energy/area report.
    pub energy: EnergyReport,
    /// Average fraction of LLC blocks that are approximate, sampled
    /// after every phase (Table 2's measurement).
    pub approx_fraction: f64,
}

impl EvalResult {
    /// LLC misses per thousand instructions.
    pub fn mpki(&self) -> f64 {
        self.llc.mpki(self.instructions)
    }
}

/// Run `kernel` against a simulated system, returning the system (for
/// inspection) and the application's output.
///
/// Worker `tid` executes on core `tid % cores`, phases are
/// barrier-ordered exactly as in the precise driver.
pub fn run_on_system(kernel: &dyn Kernel, cfg: SystemConfig, threads: usize) -> (System, Vec<f64>) {
    let (sys, out, _) = run_on_system_sampled(kernel, cfg, threads);
    (sys, out)
}

/// One per-phase snapshot of LLC-resident approximate blocks with their
/// annotations — the input record of the Fig. 2/7/8 similarity analyses.
pub type PhaseSnapshot = Vec<(dg_mem::BlockData, dg_mem::ApproxRegion)>;

/// Like [`run_on_system`], additionally sampling the approximate LLC
/// fraction after every phase.
pub fn run_on_system_sampled(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
) -> (System, Vec<f64>, Vec<f64>) {
    run_phases(kernel, cfg, threads, None)
}

/// The shared phase loop behind every system run: worker `tid` executes
/// on core `tid % cores`, phases are barrier-ordered, and after each
/// phase the approximate LLC fraction is sampled (plus, when requested,
/// a full approximate-block snapshot — both observations are read-only,
/// so a run with snapshots is bit-identical to one without).
fn run_phases(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
    mut snapshots: Option<&mut Vec<PhaseSnapshot>>,
) -> (System, Vec<f64>, Vec<f64>) {
    assert!(threads > 0);
    let p = prepare(kernel);
    let mut sys = System::new(cfg, p.image, p.annotations);
    let cores = cfg.cores;
    let mut fractions = Vec::with_capacity(kernel.phases());
    for phase in 0..kernel.phases() {
        for tid in 0..threads {
            let mut mem = sys.core_memory(tid % cores);
            kernel.run_phase(&mut mem, phase, tid, threads);
        }
        fractions.push(sys.approx_llc_fraction());
        if let Some(snaps) = snapshots.as_deref_mut() {
            snaps.push(sys.approx_llc_snapshot());
        }
    }
    let mut mem = sys.core_memory(0);
    let output = kernel.output(&mut mem);
    (sys, output, fractions)
}

/// The kernel's precise (golden) output: a plain in-order run against
/// an exact memory image.
pub fn golden_output(kernel: &dyn Kernel, threads: usize) -> Vec<f64> {
    let mut p = prepare(kernel);
    dg_workloads::run_to_completion(kernel, &mut p.image, threads);
    kernel.output(&mut p.image)
}

/// Evaluate `kernel` under `cfg`: golden run + system run + error +
/// energy. This is the workhorse behind Figs. 9–12 and 14.
pub fn evaluate(kernel: &dyn Kernel, cfg: SystemConfig, threads: usize) -> EvalResult {
    let golden = golden_output(kernel, threads);
    evaluate_with_golden(kernel, cfg, threads, &golden)
}

/// [`evaluate`] with a precomputed golden output. The golden run is
/// configuration-independent, so sweeps compute each kernel's golden
/// once and share it across every configuration (see
/// `dg-bench::experiments`) instead of re-simulating it per config.
pub fn evaluate_with_golden(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
    golden: &[f64],
) -> EvalResult {
    let (sys, output, fractions) = run_on_system_sampled(kernel, cfg, threads);
    build_result(kernel, cfg, &sys, &output, &fractions, golden)
}

/// [`evaluate_with_golden`] plus a full metric snapshot of the final
/// system state (see [`System::metrics_registry`]). The registry holds
/// the hot-path histograms only when the process observability level is
/// `Metrics` or above for the duration of the run; the simulation
/// itself is bit-identical either way.
pub fn evaluate_profiled(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
    golden: &[f64],
) -> (EvalResult, dg_obs::Registry) {
    let (sys, output, fractions) = run_on_system_sampled(kernel, cfg, threads);
    let registry = sys.metrics_registry();
    (build_result(kernel, cfg, &sys, &output, &fractions, golden), registry)
}

/// One combined run producing both the [`EvalResult`] and the per-phase
/// approximate-block snapshots. Lets a baseline run be shared between
/// the sweep tables and the Fig. 2/7/8 similarity analyses instead of
/// simulating twice; snapshotting is a read-only observation, so the
/// result is bit-identical to [`evaluate_with_golden`].
pub fn evaluate_and_snapshots(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
    golden: &[f64],
) -> (EvalResult, Vec<PhaseSnapshot>) {
    let mut snaps = Vec::with_capacity(kernel.phases());
    let (sys, output, fractions) = run_phases(kernel, cfg, threads, Some(&mut snaps));
    (build_result(kernel, cfg, &sys, &output, &fractions, golden), snaps)
}

fn build_result(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    sys: &System,
    output: &[f64],
    fractions: &[f64],
    golden: &[f64],
) -> EvalResult {
    let counters = sys.llc_counters();
    let cycles = sys.runtime_cycles();
    EvalResult {
        kernel: kernel.name(),
        runtime_cycles: cycles,
        instructions: sys.total_instructions(),
        accesses: sys.accesses(),
        output_error: kernel.error_metric(golden, output),
        off_chip_blocks: sys.off_chip_blocks(),
        llc: counters,
        energy: llc_energy(&cfg, &counters, cycles),
        approx_fraction: if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        },
    }
}

/// Collect per-phase snapshots of LLC-resident approximate blocks from
/// a run (usually a baseline run) — the inputs to the Fig. 2/7/8
/// similarity analyses.
pub fn collect_snapshots(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
) -> Vec<PhaseSnapshot> {
    let mut snaps = Vec::with_capacity(kernel.phases());
    run_phases(kernel, cfg, threads, Some(&mut snaps));
    snaps
}

/// Sanity helper for tests: run the kernel both precisely and on a
/// baseline system; outputs must be bit-identical (a conventional LLC
/// never perturbs values).
pub fn assert_baseline_exact(kernel: &dyn Kernel, cfg: SystemConfig, threads: usize) {
    let golden = golden_output(kernel, threads);
    let (_, output) = run_on_system(kernel, cfg, threads);
    assert_eq!(golden, output, "{}: baseline run diverged", kernel.name());
}

/// A golden-vs-golden identity used in tests.
pub fn self_error(kernel: &dyn Kernel) -> f64 {
    let golden = golden_output(kernel, 1);
    kernel.error_metric(&golden, &golden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlcKind;
    use dg_workloads::kernels::{Blackscholes, Inversek2j, Kmeans};

    #[test]
    fn baseline_system_is_bit_exact_for_blackscholes() {
        let kernel = Blackscholes::new(256, 3);
        assert_baseline_exact(&kernel, SystemConfig::tiny(LlcKind::Baseline), 4);
    }

    #[test]
    fn baseline_system_is_bit_exact_for_kmeans() {
        let kernel = Kmeans::new(256, 8, 4, 2, 3);
        assert_baseline_exact(&kernel, SystemConfig::tiny(LlcKind::Baseline), 4);
    }

    #[test]
    fn split_design_introduces_bounded_error() {
        let kernel = Inversek2j::new(2048, 5);
        let r = evaluate(&kernel, SystemConfig::tiny_split(), 4);
        // Approximation should perturb something on a thrashing tiny
        // LLC, but stay within a sane band.
        assert!(r.output_error < 0.5, "error {:.3} too high", r.output_error);
        assert!(r.runtime_cycles > 0 && r.instructions > 0);
        assert!(r.off_chip_blocks > 0);
        assert!(r.energy.llc_dynamic_pj > 0.0);
    }

    #[test]
    fn baseline_evaluation_has_zero_error() {
        let kernel = Blackscholes::new(256, 3);
        let r = evaluate(&kernel, SystemConfig::tiny(LlcKind::Baseline), 4);
        assert_eq!(r.output_error, 0.0);
        assert!(r.approx_fraction > 0.0, "blackscholes annotates most data");
    }

    #[test]
    fn snapshots_capture_approx_blocks() {
        let kernel = Blackscholes::new(512, 1);
        let snaps = collect_snapshots(&kernel, SystemConfig::tiny(LlcKind::Baseline), 4);
        assert_eq!(snaps.len(), kernel.phases());
        assert!(snaps.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn self_error_is_zero_for_all_kernels() {
        for kernel in dg_workloads::small_suite(2) {
            assert_eq!(self_error(kernel.as_ref()), 0.0, "{}", kernel.name());
        }
    }
}
