//! Tier-1 differential-oracle gate: lockstep-verify the optimized
//! engine against `dg-oracle` on real kernel traces across **every**
//! table/figure configuration, and across the ablation variants
//! `repro_all` prints beside them.
//!
//! Debug-mode test binaries are slow, so this test truncates each
//! captured per-core stream; the full-length version of the paper grid
//! runs in release mode as `repro_all --small --check` (scripts/
//! verify.sh). The truncation keeps store payloads intact, so replay
//! stays value-accurate.

use dg_bench::check::check_configs;
use dg_bench::{experiments, Scale};
use dg_mem::Trace;
use dg_oracle::lockstep;
use dg_system::{capture_trace, LlcKind, SystemConfig};
use doppelganger::{DataPolicy, MapHash};

/// Per-core access budget for debug-mode runtime.
const ACCESSES_PER_CORE: usize = 2000;

fn truncated(trace: &Trace, per_core: usize) -> Trace {
    let cores = trace
        .cores
        .iter()
        .map(|c| c.iter().take(per_core).cloned().collect())
        .collect();
    Trace::new(trace.initial.clone(), trace.annotations.clone(), cores)
}

/// Small-scale traces of the `picks` kernels, in `picks` order, cut to
/// `per_core` accesses per core.
fn traces(picks: &[&'static str], per_core: usize) -> Vec<(&'static str, Trace)> {
    let scale = Scale::Small;
    let threads = scale.threads();
    let suite = experiments::suite(scale);
    let names = experiments::kernel_names();
    picks
        .iter()
        .map(|pick| {
            let i = names.iter().position(|n| n == pick).expect("suite must contain the kernel");
            let trace = capture_trace(suite[i].as_ref(), threads, threads);
            (*pick, truncated(&trace, per_core))
        })
        .collect()
}

fn assert_agrees(label: &str, cfg: SystemConfig, traces: &[(&str, Trace)]) {
    for (kernel, trace) in traces {
        let summary = lockstep(trace, cfg)
            .unwrap_or_else(|d| panic!("config `{label}`, kernel `{kernel}`: {d}"));
        assert_eq!(summary.accesses, trace.len());
        assert!(summary.runtime_cycles > 0);
    }
}

#[test]
fn oracle_agrees_on_kernel_traces_across_all_configurations() {
    // Two kernels with complementary access patterns: inversek2j
    // (approximate f32 streaming) and kmeans (approximate reuse with
    // precise index traffic).
    let traces = traces(&["inversek2j", "kmeans"], ACCESSES_PER_CORE);
    for (label, cfg) in check_configs(Scale::Small) {
        assert_agrees(label, cfg, &traces);
    }
}

/// The ablation variants: the base split design under each alternative
/// similarity hash, and both Doppelgänger organizations under the
/// fewest-sharers data-array policy. That policy's preferred victim, a
/// one-tag entry, can be the entry an L1 miss just filled, displaced by
/// the same miss's L2 victim writeback. Replayed from canneal's trace
/// this first happens past 50 K accesses per core (unified), so the
/// whole trace is replayed.
#[test]
fn oracle_agrees_on_the_ablation_variants() {
    let scale = Scale::Small;
    let base = scale.split_default();
    let traces_short = traces(&["canneal", "kmeans"], ACCESSES_PER_CORE);
    for hash in &MapHash::ALL[1..] {
        let mut cfg = base;
        if let LlcKind::Split(ref mut d) = cfg.llc {
            d.map_space = d.map_space.with_hash(*hash);
        }
        assert_agrees(&format!("hash-{hash}"), cfg, &traces_short);
    }
    let canneal = traces(&["canneal"], usize::MAX);
    for (label, mut cfg) in [("split", base), ("unified", scale.unified(1, 4))] {
        cfg.data_policy = DataPolicy::FewestSharers;
        assert_agrees(&format!("{label} fewest-sharers"), cfg, &canneal);
    }
}
