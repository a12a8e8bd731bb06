//! The observability layer's cost contract, as counts: what each level
//! records per simulated access, and that `Level::Off` records nothing.
//!
//! `obs_identity` holds that observation never changes a result; this
//! test holds how much observation there is. The work the instruments
//! do is a pure function of the simulation, so it is counted, not
//! timed: over the small suite under every LLC organization, the
//! number of histogram records and ring events at each level must
//! stand in exact relation to the run's own counters — one latency
//! record per access, one event per LLC miss fill and per
//! back-invalidation — and a level that has an instrument switched
//! off must leave it at zero. (This replaces the trace/off CPU-time
//! ratio `scripts/verify.sh` used to bound, which measured the host's
//! mood at least as much as the gate.)
//!
//! Like `obs_identity`, the test owns the process-global level and so
//! lives in an integration-test binary of its own.

use dg_bench::experiments::{suite, suite_goldens, Scale, SEED};
use dg_obs::{Level, Metric, Registry};
use dg_system::evaluate_profiled;
use std::sync::Arc;

/// What one pass over the suite recorded, summed over kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Recorded {
    accesses: u64,
    miss_fills: u64,
    back_invalidations: u64,
    latency_records: u64,
    wb_records: u64,
    occupancy_records: u64,
    chain_records: u64,
    events: u64,
    spans: u64,
}

fn counter(reg: &Registry, name: &str) -> u64 {
    match reg.get(name) {
        Some(Metric::Counter(v)) => *v,
        other => panic!("{name}: expected a counter, found {other:?}"),
    }
}

fn records(reg: &Registry, name: &str) -> u64 {
    match reg.get(name) {
        Some(Metric::Hist(h)) => h.count(),
        other => panic!("{name}: expected a histogram, found {other:?}"),
    }
}

fn pass(cfg: dg_system::SystemConfig, goldens: &[Arc<Vec<f64>>], level: Level) -> Recorded {
    let scale = Scale::Small;
    let threads = scale.threads();
    // A ring larger than any pass fills: emitted = held + dropped
    // either way, but nothing is dropped here.
    dg_obs::configure_events(1 << 22);
    let _ = dg_obs::take_spans();
    dg_obs::set_level(level);
    let mut sum = Recorded::default();
    for (kernel, golden) in suite(scale).iter().zip(goldens) {
        let (result, reg) = evaluate_profiled(kernel.as_ref(), cfg, threads, golden);
        sum.accesses += result.accesses;
        sum.miss_fills += counter(&reg, "system.off_chip_reads");
        sum.back_invalidations += counter(&reg, "system.back_invalidations");
        sum.latency_records += records(&reg, "system.access_latency_cycles");
        sum.wb_records += records(&reg, "system.wb_residency");
        sum.occupancy_records += records(&reg, "llc.set_occupancy");
        sum.chain_records += records(&reg, "llc.chain_depth");
    }
    dg_obs::set_level(Level::Off);
    sum.events = dg_obs::take_events().len() as u64 + dg_obs::events_dropped();
    sum.spans = dg_obs::take_spans().len() as u64;
    sum
}

#[test]
fn each_level_records_exactly_what_it_enables() {
    let scale = Scale::Small;
    let configs = [
        ("baseline", scale.baseline()),
        ("split", scale.split_default()),
        ("unified", scale.unified(1, 2)),
        ("compressed", scale.compressed(2)),
    ];
    // Goldens run on a bare image, with the gate closed: a pass counts
    // the simulated system's instruments only.
    dg_obs::set_level(Level::Off);
    let goldens = suite_goldens(scale, SEED, scale.threads());
    for (name, cfg) in configs {
        let [off, spans, metrics, trace] = [Level::Off, Level::Spans, Level::Metrics, Level::Trace]
            .map(|l| pass(cfg, &goldens, l));

        // Off: every instrument at zero. The simulation's own counters
        // are not instruments and do not depend on the level.
        assert!(off.accesses > 0 && off.miss_fills > 0, "{name}: the pass did no work");
        let silent = Recorded {
            accesses: off.accesses,
            miss_fills: off.miss_fills,
            back_invalidations: off.back_invalidations,
            ..Recorded::default()
        };
        assert_eq!(off, silent, "{name}: Level::Off recorded something");

        // Spans: still nothing on the per-access paths. (The serial
        // evaluation opens no span of its own; the pool's job spans and
        // the profile's config spans belong to their callers.)
        assert_eq!(spans, silent, "{name}: Level::Spans reached a per-access instrument");

        // Metrics: one latency record per access, not one event, and
        // the organization's other histograms live: writeback-buffer
        // depth wherever the LLC displaces blocks (the compressed LLC
        // holds the whole small suite), set occupancy wherever there is
        // a conventional or compressed array, chain depth wherever
        // there is a Doppelgänger one.
        assert_eq!(metrics.latency_records, metrics.accesses, "{name}");
        assert_eq!(metrics.events, 0, "{name}: Level::Metrics emitted events");
        let live =
            (metrics.wb_records > 0, metrics.occupancy_records > 0, metrics.chain_records > 0);
        let expected = match name {
            "baseline" => (true, true, false),
            "split" => (true, true, true),
            "unified" => (true, false, true),
            _ => (false, true, false),
        };
        assert_eq!(live, expected, "{name}: (writeback, occupancy, chain) histograms live");

        // Trace: the same histogram records as Metrics, plus exactly
        // one event per LLC miss fill and per back-invalidation.
        assert_eq!(Recorded { events: 0, ..trace }, metrics, "{name}: histograms moved with Trace");
        assert_eq!(trace.events, trace.miss_fills + trace.back_invalidations, "{name}");

        let per_access = |n: u64| n as f64 / trace.accesses as f64;
        eprintln!(
            "{name}: per access — latency {:.3}, wb {:.4}, occupancy {:.4}, chain {:.4} \
             records (Metrics and up); {:.4} events (Trace)",
            per_access(trace.latency_records),
            per_access(trace.wb_records),
            per_access(trace.occupancy_records),
            per_access(trace.chain_records),
            per_access(trace.events),
        );
    }
}
