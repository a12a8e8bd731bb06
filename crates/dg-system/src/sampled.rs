//! Warmup-aware sampled execution of a kernel (DESIGN.md §10).
//!
//! [`run_sampled`] executes a kernel once, execution-driven, but routes
//! each access by the [`SampleSchedule`] region containing its global
//! index:
//!
//! * **skip** — the access goes straight to the DRAM image
//!   ([`System::functional_load`]/[`System::functional_store`]): exact
//!   program semantics, no cache model, no statistics, ~no cost.
//! * **warm** — the access runs through the full hierarchy to prime
//!   LLC/directory state ahead of a measured interval. Counters tick,
//!   but no delta is attributed to the run.
//! * **measure** — the access runs through the full hierarchy and the
//!   counter *delta* across the window is recorded for the weighted
//!   reconstruction.
//!
//! At every detailed→skip transition the hierarchy is *flushed but not
//! dropped* ([`System::flush`]): dirty data is written down so DRAM is
//! authoritative, and clean contents stay resident. During the skip,
//! [`System::functional_store`] invalidates exactly the blocks it
//! overwrites, so the caches can never serve stale data when detailed
//! simulation resumes. This is SMARTS-style functional warming on the
//! cheap: measured windows start from a warm machine that approximates
//! continuous execution (canneal's low steady-state miss rate, ferret's
//! populated Doppelgänger arrays), and the explicit warm-up region only
//! has to repair the invalidation holes, not rebuild the whole working
//! set.
//!
//! Reconstruction multiplies each measured window's per-access rates by
//! the interval weight and the true trace length, giving full-run
//! counter estimates; rate statistics (miss rate, Doppelgänger hit
//! rate) use the pooled ratio-of-weighted-sums estimator with a
//! confidence interval from inter-interval variance
//! ([`dg_sample::weighted_ratio`]).
//!
//! Output error is handled by a *functional approximation overlay*
//! ([`System::set_functional_approx`]): at each detailed→skip
//! transition the runner snapshots which blocks are resident in the
//! Doppelgänger arrays and the shared representative each would be
//! served; during the skip, loads from those blocks return the
//! representative while everything else reads exact DRAM bytes (what a
//! real miss fetches). Approximation error therefore keeps accruing at
//! near-full-run density where the cache model is switched off, and
//! the hybrid run's final output error is the estimate itself — no
//! extrapolation. What the frozen snapshot cannot capture is the
//! insertions and evictions the detailed model would have performed
//! during the skip; that proxy-fidelity uncertainty is reported as a
//! confidence interval proportional to the skipped fraction of the
//! trace. Callers gate the estimate with an additional absolute floor.

use crate::{llc_energy, EvalResult, LlcCounters, System, SystemConfig};
use dg_mem::{Addr, Memory};
use dg_obs::Hist64;
use dg_sample::{weighted_mean, weighted_ratio, Estimate, RatioSample, Region, RegionKind, SampleSchedule};
use dg_workloads::{prepare, Kernel};

dg_obs::counters! {
    /// Cumulative machine counters at one instant. A window is measured
    /// as the [`checked_delta`](Self::checked_delta) of two snapshots,
    /// which excludes warm-up and other windows' activity by
    /// construction.
    struct CounterSnapshot {
        /// Simulated runtime: the slowest core's cycle count.
        cycles,
        /// Instructions across cores.
        instructions,
        /// Core memory accesses through the detailed model.
        accesses,
        /// Off-chip traffic in blocks.
        off_chip_blocks,
    }
    /// The LLC's counters.
    nested llc: LlcCounters;
}

impl CounterSnapshot {
    fn capture(sys: &System) -> Self {
        CounterSnapshot {
            cycles: sys.runtime_cycles(),
            instructions: sys.total_instructions(),
            accesses: sys.accesses(),
            off_chip_blocks: sys.off_chip_blocks(),
            llc: sys.llc_counters(),
        }
    }

    /// What the window since `start` contributed.
    fn since(&self, start: &CounterSnapshot) -> CounterSnapshot {
        self.checked_delta(start).expect("counters only grow within a sampled run")
    }
}

/// Statistical summaries of a sampled run, alongside the reconstructed
/// [`EvalResult`].
#[derive(Clone, Debug)]
pub struct SampledEstimates {
    /// LLC miss rate (misses per lookup) with confidence interval.
    pub miss_rate: Estimate,
    /// Doppelgänger hit rate (hits per Doppelgänger lookup); zero when
    /// the configuration has no Doppelgänger partition or it saw no
    /// traffic.
    pub dopp_hit_rate: Estimate,
    /// Application output error: the hybrid run's final error, accrued
    /// at near-full-run density by the skip-region approximation
    /// overlay (see the module docs). The `ci` covers proxy fidelity —
    /// the skipped share of the run was corrupted from a frozen
    /// skip-entry snapshot rather than the live evicting arrays;
    /// callers add an absolute floor when gating.
    pub output_error: Estimate,
    /// Number of intervals actually measured.
    pub measured_intervals: usize,
    /// Fraction of accesses that ran through the detailed model
    /// (warm-up + measurement) — the cost of the sampled run.
    pub simulated_fraction: f64,
    /// Distribution of per-window cycle deltas; its quantiles feed the
    /// confidence report (`Hist64::quantile`).
    pub interval_cycles: Hist64,
}

/// A sampled run's outputs: the reconstructed full-run estimate in
/// [`EvalResult`] form (drop-in for exports) plus the statistical
/// summaries backing it.
#[derive(Clone, Debug)]
pub struct SampledOutcome {
    /// Reconstructed full-run estimate.
    pub result: EvalResult,
    /// Rate estimates with confidence intervals.
    pub estimates: SampledEstimates,
    /// Accesses that ran through the detailed model.
    pub detailed_accesses: u64,
    /// The raw (unscaled) output error of the hybrid execution.
    pub hybrid_output_error: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Skip,
    Warm,
    Measure(usize),
}

/// Region cursor + per-window snapshots for one hybrid execution.
struct HybridState {
    regions: Vec<Region>,
    cursor: usize,
    idx: u64,
    mode: Mode,
    /// While in [`Mode::Skip`], accesses with `idx` below this bound
    /// stay in skip — the steady-state fast path is one compare instead
    /// of the region-cursor walk. 0 forces the slow path (recomputed
    /// there), so it is always safe as an initial value.
    skip_until: u64,
    open: Option<(usize, CounterSnapshot)>,
    windows: Vec<Option<(CounterSnapshot, f64)>>,
    pending_think: u32,
}

impl HybridState {
    fn mode_of(&mut self, idx: u64) -> Mode {
        while self.cursor < self.regions.len() && idx >= self.regions[self.cursor].end {
            self.cursor += 1;
        }
        match self.regions.get(self.cursor) {
            Some(r) if idx >= r.start => match r.kind {
                RegionKind::Warm => Mode::Warm,
                RegionKind::Measure { slot } => Mode::Measure(slot),
            },
            _ => Mode::Skip,
        }
    }

    /// Advance to the access at `self.idx`, running any boundary
    /// actions (window open/close, cache drop) against `sys`. Returns
    /// the mode the access executes under. Deep inside a skip region
    /// that is one compare, inline; everything else is
    /// [`Self::cross_boundary`].
    #[inline(always)]
    fn transition(&mut self, sys: &mut System) -> Mode {
        if self.mode == Mode::Skip && self.idx < self.skip_until {
            self.idx += 1;
            return Mode::Skip;
        }
        self.cross_boundary(sys)
    }

    #[inline(never)]
    fn cross_boundary(&mut self, sys: &mut System) -> Mode {
        let next = self.mode_of(self.idx);
        // In skip, `mode_of` left the cursor at the next region (or past
        // the end): every access below its start stays in skip.
        self.skip_until = if next == Mode::Skip {
            self.regions.get(self.cursor).map_or(u64::MAX, |r| r.start)
        } else {
            0
        };
        if next != self.mode {
            if let Some((slot, start)) = self.open.take() {
                let end = CounterSnapshot::capture(sys);
                self.windows[slot] = Some((end.since(&start), sys.approx_llc_fraction()));
            }
            if next == Mode::Skip && self.mode != Mode::Skip {
                // Functional warming: write dirty data down so DRAM is
                // authoritative, but keep (clean) contents resident.
                // Skipped stores invalidate the blocks they overwrite
                // (`System::functional_store`), so detailed simulation
                // resumes against warm, never stale, caches. The
                // approximation overlay keeps output-error accrual at
                // full-run density through the skip.
                sys.flush();
                sys.set_functional_approx(true);
            } else if next != Mode::Skip && self.mode == Mode::Skip {
                sys.set_functional_approx(false);
            }
            if let Mode::Measure(slot) = next {
                self.open = Some((slot, CounterSnapshot::capture(sys)));
            }
            self.mode = next;
        }
        self.idx += 1;
        next
    }

    fn finish(&mut self, sys: &mut System) {
        if let Some((slot, start)) = self.open.take() {
            let end = CounterSnapshot::capture(sys);
            self.windows[slot] = Some((end.since(&start), sys.approx_llc_fraction()));
        }
    }
}

/// The hybrid [`Memory`]: routes each access per the schedule.
struct HybridMemory<'a> {
    sys: &'a mut System,
    state: &'a mut HybridState,
    core: usize,
}

impl HybridMemory<'_> {
    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        let mode = self.state.transition(self.sys);
        let think = std::mem::take(&mut self.state.pending_think);
        if mode == Mode::Skip {
            self.sys.functional_load(addr, buf);
        } else {
            if think > 0 {
                self.sys.think(self.core, think);
            }
            self.sys.load(self.core, addr, buf);
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, bytes: &[u8]) {
        let mode = self.state.transition(self.sys);
        let think = std::mem::take(&mut self.state.pending_think);
        if mode == Mode::Skip {
            self.sys.functional_store(addr, bytes);
        } else {
            if think > 0 {
                self.sys.think(self.core, think);
            }
            self.sys.store(self.core, addr, bytes);
        }
    }
}

impl Memory for HybridMemory<'_> {
    dg_mem::memory_access_methods!(Self::load, Self::store);

    #[inline]
    fn think(&mut self, ops: u32) {
        // Attribute compute to the access that follows it, mirroring
        // trace capture: the mode of that access decides whether the
        // cycles are simulated at all.
        self.state.pending_think = self.state.pending_think.saturating_add(ops);
    }
}

/// Functional view for the final output read (after a flush, DRAM holds
/// the program's architectural state).
struct FunctionalMemory<'a>(&'a mut System);

impl FunctionalMemory<'_> {
    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        self.0.functional_load(addr, buf);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, bytes: &[u8]) {
        self.0.functional_store(addr, bytes);
    }
}

impl Memory for FunctionalMemory<'_> {
    dg_mem::memory_access_methods!(Self::load, Self::store);
}

/// Execute `kernel` under `schedule`, reconstructing full-run estimates
/// from the measured windows.
///
/// The schedule must come from profiling the *same* kernel with the
/// same `threads` (interval indices address the canonical phase-major
/// access order). `golden` is the kernel's precise output, as in
/// [`crate::evaluate_with_golden`].
pub fn run_sampled(
    kernel: &dyn Kernel,
    cfg: SystemConfig,
    threads: usize,
    schedule: &SampleSchedule,
    golden: &[f64],
) -> SampledOutcome {
    assert!(threads > 0);
    let p = prepare(kernel);
    let mut sys = System::new(cfg, p.image, p.annotations);
    let cores = cfg.cores;
    let mut state = HybridState {
        regions: schedule.regions(),
        cursor: 0,
        idx: 0,
        mode: Mode::Skip,
        skip_until: 0,
        open: None,
        windows: vec![None; schedule.intervals.len()],
        pending_think: 0,
    };
    // Execution starts in skip mode (the runner's initial state), so
    // the overlay is live from the first access; `transition` toggles
    // it at every skip boundary thereafter.
    sys.set_functional_approx(true);
    for phase in 0..kernel.phases() {
        for tid in 0..threads {
            let mut mem = HybridMemory { sys: &mut sys, state: &mut state, core: tid % cores };
            kernel.run_phase(&mut mem, phase, tid, threads);
        }
    }
    state.finish(&mut sys);
    sys.flush();
    // The output read reports what the program wrote — no fresh
    // approximation is injected on the way out.
    sys.set_functional_approx(false);
    let output = kernel.output(&mut FunctionalMemory(&mut sys));
    let hybrid_output_error = kernel.error_metric(golden, &output);

    let total = state.idx.max(1);
    // Weighted per-access rates over the measured windows.
    let mut samples: Vec<(f64, &CounterSnapshot, f64)> = Vec::new(); // (weight, delta, approx_frac)
    for (slot, w) in state.windows.iter().enumerate() {
        if let Some((delta, frac)) = w {
            if delta.accesses > 0 {
                samples.push((schedule.intervals[slot].weight, delta, *frac));
            }
        }
    }
    let measured_intervals = samples.len();

    // Each counter's full-run estimate: its weighted per-access rate
    // over the measured windows, times the true trace length.
    let mut rates = vec![0.0; CounterSnapshot::LEN];
    for (w, d, _) in &samples {
        for (rate, v) in rates.iter_mut().zip(d.values()) {
            *rate += w * v as f64 / d.accesses as f64;
        }
    }
    let estimates: Vec<u64> = rates.iter().map(|r| (total as f64 * r).round() as u64).collect();
    let mut est = CounterSnapshot::from_values(&estimates);
    // Keep hits ≤ lookups after independent rounding.
    est.llc.hits = est.llc.hits.min(est.llc.lookups);

    let miss_rate = weighted_ratio(
        &samples
            .iter()
            .map(|(w, d, _)| RatioSample {
                num: d.llc.misses() as f64,
                den: d.llc.lookups as f64,
                weight: *w,
            })
            .collect::<Vec<_>>(),
    );
    let dopp_hit_rate = weighted_ratio(
        &samples
            .iter()
            .map(|(w, d, _)| RatioSample {
                num: d.llc.dopp.hits as f64,
                den: d.llc.dopp.lookups() as f64,
                weight: *w,
            })
            .collect::<Vec<_>>(),
    );
    let approx_fraction =
        weighted_mean(&samples.iter().map(|(w, _, f)| (*f, *w)).collect::<Vec<_>>()).value;

    let detailed: u64 = state
        .regions
        .iter()
        .map(|r| r.end.min(total) - r.start.min(total))
        .sum();
    let detailed_fraction = detailed as f64 / total as f64;
    // With the skip-region approximation overlay, error accrues at
    // near-full-run density across the whole trace, so the hybrid error
    // is the estimate itself — no extrapolation. What remains uncertain
    // is proxy fidelity: the skipped fraction was corrupted from a
    // frozen skip-entry snapshot rather than the live (evicting)
    // Doppelgänger arrays, so that share of the value carries the
    // confidence interval.
    let scaled_error = hybrid_output_error;
    let output_error =
        Estimate { value: scaled_error, ci: scaled_error * (1.0 - detailed_fraction) };

    let mut interval_cycles = Hist64::new();
    for (_, d, _) in &samples {
        interval_cycles.record(d.cycles);
    }

    let result = EvalResult {
        kernel: kernel.name(),
        runtime_cycles: est.cycles,
        instructions: est.instructions,
        accesses: total,
        output_error: scaled_error,
        off_chip_blocks: est.off_chip_blocks,
        llc: est.llc,
        energy: llc_energy(&cfg, &est.llc, est.cycles),
        approx_fraction,
    };
    SampledOutcome {
        result,
        estimates: SampledEstimates {
            miss_rate,
            dopp_hit_rate,
            output_error,
            measured_intervals,
            simulated_fraction: detailed as f64 / total as f64,
            interval_cycles,
        },
        detailed_accesses: detailed,
        hybrid_output_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{golden_output, evaluate_with_golden, LlcKind};
    use dg_mem::TraceStream;
    use dg_sample::{profile, SampleSchedule};
    use dg_workloads::kernels::{Blackscholes, Inversek2j};
    use dg_workloads::KernelSource;

    fn profile_for(kernel: &dyn Kernel, threads: usize, cores: usize) -> dg_sample::Profile {
        let mut src = KernelSource::new(kernel, threads, cores);
        profile(&mut src, 2048)
    }

    #[test]
    fn sampled_baseline_tracks_the_full_coverage_reference() {
        let kernel = Blackscholes::new(512, 3);
        let cfg = SystemConfig::tiny(LlcKind::Baseline);
        let golden = golden_output(&kernel, 4);
        let full = evaluate_with_golden(&kernel, cfg, 4, &golden);
        let p = profile_for(&kernel, 4, cfg.cores);
        // Reference: every interval measured — a full detailed run over
        // the same (phase-only) access space as the sampled one.
        let full_sched = SampleSchedule::build(&p, p.intervals.len(), 0, 0xd09);
        let f = run_sampled(&kernel, cfg, 4, &full_sched, &golden);
        let sched = SampleSchedule::build(&p, 3, 1024, 0xd09);
        let s = run_sampled(&kernel, cfg, 4, &sched, &golden);

        // The hybrid indexes phase accesses only; the full run also
        // counts the final output-read pass through core 0.
        let mut src = KernelSource::new(&kernel, 4, cfg.cores);
        assert_eq!(s.result.accesses, src.total_accesses(), "phase access count is exact");
        assert!(s.result.accesses <= full.accesses);
        assert!(s.estimates.measured_intervals > 0);
        assert!(s.estimates.simulated_fraction < 1.0);
        assert!(s.detailed_accesses < f.detailed_accesses);
        assert!((f.estimates.simulated_fraction - 1.0).abs() < 1e-12);

        let err = (s.estimates.miss_rate.value - f.estimates.miss_rate.value).abs();
        assert!(
            err <= s.estimates.miss_rate.ci.max(0.1),
            "sampled miss rate {:.4} vs full {:.4} (ci {:.4})",
            s.estimates.miss_rate.value,
            f.estimates.miss_rate.value,
            s.estimates.miss_rate.ci
        );
        // Baseline runs are exact: no output error either way.
        assert_eq!(s.hybrid_output_error, 0.0);
        assert_eq!(s.result.output_error, 0.0);
        assert_eq!(f.result.output_error, 0.0);
        // Reconstructed totals stay in the reference's ballpark on this
        // deliberately coarse schedule.
        let ratio = s.result.runtime_cycles as f64 / f.result.runtime_cycles.max(1) as f64;
        assert!((0.3..3.0).contains(&ratio), "cycle estimate off by {ratio:.2}x");
    }

    #[test]
    fn sampled_split_reports_bounded_error_estimates() {
        let kernel = Inversek2j::new(2048, 5);
        let cfg = SystemConfig::tiny_split();
        let golden = golden_output(&kernel, 4);
        let p = profile_for(&kernel, 4, cfg.cores);
        let sched = SampleSchedule::build(&p, 8, 1024, 0xd09);
        let s = run_sampled(&kernel, cfg, 4, &sched, &golden);
        assert!(s.result.output_error <= 1.0);
        assert!(s.estimates.dopp_hit_rate.value >= 0.0 && s.estimates.dopp_hit_rate.value <= 1.0);
        assert!(s.estimates.interval_cycles.count() as usize == s.estimates.measured_intervals);
        // Quantile reporting over per-window cycles works end-to-end.
        if s.estimates.measured_intervals > 0 {
            let p50 = s.estimates.interval_cycles.quantile(0.5).unwrap();
            let p99 = s.estimates.interval_cycles.quantile(0.99).unwrap();
            assert!(p50 <= p99);
        }
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let kernel = Blackscholes::new(512, 3);
        let cfg = SystemConfig::tiny_split();
        let golden = golden_output(&kernel, 4);
        let p = profile_for(&kernel, 4, cfg.cores);
        let sched = SampleSchedule::build(&p, 4, 1024, 0xd09);
        let a = run_sampled(&kernel, cfg, 4, &sched, &golden);
        let b = run_sampled(&kernel, cfg, 4, &sched, &golden);
        assert_eq!(a.result.runtime_cycles, b.result.runtime_cycles);
        assert_eq!(a.result.llc, b.result.llc);
        assert_eq!(a.result.output_error, b.result.output_error);
        assert_eq!(a.estimates.miss_rate, b.estimates.miss_rate);
    }

    #[test]
    fn empty_schedule_runs_fully_functional() {
        let kernel = Blackscholes::new(256, 1);
        let cfg = SystemConfig::tiny(LlcKind::Baseline);
        let golden = golden_output(&kernel, 4);
        let sched = SampleSchedule {
            interval_len: 1024,
            warmup_len: 0,
            total_accesses: 0,
            intervals: Vec::new(),
        };
        let s = run_sampled(&kernel, cfg, 4, &sched, &golden);
        assert_eq!(s.estimates.measured_intervals, 0);
        assert_eq!(s.detailed_accesses, 0);
        // A fully functional pass still computes the exact output.
        assert_eq!(s.hybrid_output_error, 0.0);
    }
}
