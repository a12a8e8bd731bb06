//! The analytic hit-rate gate: a synthetic Zipf-over-similarity
//! workload's measured hit rate must land inside the tolerance band of
//! the Che-approximation oracle (`dg_serve::che`). This pins the whole
//! stack — map quantization, MTag set addressing, LRU data replacement,
//! shard routing — to an independent closed-form model: a bug in any of
//! those layers moves the measured rate out of the band.

use dg_serve::{ServeConfig, Server, SimilarityWorkload, WorkloadSpec};
use doppelganger::DoppelgangerConfig;
use std::collections::BTreeSet;

#[test]
fn measured_hit_rate_matches_che_estimate() {
    let cfg = ServeConfig::small();
    let server = Server::new(cfg).unwrap();
    let mut workload = SimilarityWorkload::new(WorkloadSpec::tier1(), &cfg);

    let estimate = workload.expected_hit_rate(&server);
    // The gate must not be satisfiable vacuously: the tier-1 shape is
    // chosen to oversubscribe the data array (≈ 2 bins per way), so the
    // prediction sits well inside (0, 1).
    assert!(
        (0.15..=0.85).contains(&estimate.hit_rate),
        "tier-1 workload no longer exercises replacement: predicted {:.3} \
         ({} cells, {} unsaturated)",
        estimate.hit_rate,
        estimate.cells,
        estimate.unsaturated_cells
    );
    assert!(estimate.cells > 1, "workload must spread over cells");

    // Warm up past the cold-start transient the model ignores, then
    // measure from a clean slate.
    let warmup = 150_000usize;
    let measure = 600_000usize;
    let batch = 10_000usize;
    for _ in 0..warmup / batch {
        server.run_batch(&workload.batch(batch));
    }
    server.reset_stats();
    for _ in 0..measure / batch {
        server.run_batch(&workload.batch(batch));
    }
    server.check_invariants();

    let stats = server.stats();
    assert_eq!(stats.lookups(), measure as u64);
    let measured = stats.hit_rate();
    let tolerance = estimate.tolerance(stats.lookups());
    assert!(
        (measured - estimate.hit_rate).abs() <= tolerance,
        "measured hit rate {measured:.4} outside the oracle band {:.4} ± {tolerance:.4} \
         (exact {} / similar {} / miss {})",
        estimate.hit_rate,
        stats.query_exact_hits,
        stats.query_similar_hits,
        stats.query_misses
    );
}

#[test]
fn skew_moves_measured_and_predicted_rates_together() {
    // A sanity check that the oracle tracks the system across the
    // workload parameter it is most sensitive to: stronger skew ⇒
    // higher hit rate, in both model and measurement.
    let cfg = ServeConfig::small();
    let mut rates = Vec::new();
    for alpha in [0.4, 1.1] {
        let spec = WorkloadSpec { alpha, ..WorkloadSpec::tier1() };
        let server = Server::new(cfg).unwrap();
        let mut workload = SimilarityWorkload::new(spec, &cfg);
        let estimate = workload.expected_hit_rate(&server);
        for _ in 0..10 {
            server.run_batch(&workload.batch(10_000));
        }
        server.reset_stats();
        for _ in 0..20 {
            server.run_batch(&workload.batch(10_000));
        }
        let measured = server.stats().hit_rate();
        assert!(
            (measured - estimate.hit_rate).abs() <= estimate.tolerance(200_000),
            "α = {alpha}: measured {measured:.4} vs predicted {:.4}",
            estimate.hit_rate
        );
        rates.push((estimate.hit_rate, measured));
    }
    assert!(rates[1].0 > rates[0].0, "model: skew must raise the predicted rate: {rates:?}");
    assert!(rates[1].1 > rates[0].1, "system: skew must raise the measured rate: {rates:?}");
}

#[test]
fn when_everything_fits_only_first_touches_miss() {
    // The exact limit of the gate above: per-shard arrays far larger
    // than the live keys (512) and bins (at most 64 clusters x 4
    // shards), so nothing is ever displaced. From a cold start, each
    // (shard, cluster) bin misses once, on its first query, and every
    // later query hits, exactly or by similarity.
    let cfg = ServeConfig {
        cache: DoppelgangerConfig {
            tag_entries: 4096,
            tag_ways: 16,
            data_entries: 1024,
            data_ways: 16,
            ..ServeConfig::small().cache
        },
        ..ServeConfig::small()
    };
    let spec = WorkloadSpec { universe: 512, clusters: 64, ..WorkloadSpec::tier1() };
    let server = Server::new(cfg).unwrap();
    let mut workload = SimilarityWorkload::new(spec, &cfg);
    assert_eq!(workload.expected_hit_rate(&server).hit_rate, 1.0, "the model's limit");

    let mut bins = BTreeSet::new();
    for _ in 0..20 {
        let batch = workload.batch(1000);
        for r in &batch {
            // Keys are striped over clusters: key ≡ cluster (mod clusters).
            bins.insert((server.shard_of(r.key()), r.key() % spec.clusters as u64));
        }
        server.run_batch(&batch);
    }
    server.check_invariants();

    let stats = server.stats();
    assert_eq!(stats.displaced, 0, "the arrays must hold every key and bin");
    assert_eq!(stats.lookups(), 20_000);
    assert_eq!(stats.hits(), stats.lookups() - bins.len() as u64);
}
