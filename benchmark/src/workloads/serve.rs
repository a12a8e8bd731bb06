//! The three `serve_*` workloads: one closed-loop client sending
//! 4096-request batches to a 16-shard `dg_serve::Server`.
//!
//! The server and the key spaces are `ServeConfig::bench()` and the
//! bench `WorkloadSpec`s at one sixteenth ([`SCALE`]), so that the
//! arrays (~1.7 MB) stay in a core's private cache, and every workload
//! serves on one worker. At full size (~26 MB of tags and data, touched
//! at random) the workloads measured the host's shared last-level
//! cache: over ten minutes of alternating 3 s runs `serve_thrash` read
//! 1.44–2.15 s a pass (+49%) at full size and 0.77–0.83 s at this one.
//! On two workers every batch moves the shards' lines between the two
//! cores through that shared cache, and `serve_zipf_hit` read
//! 0.30–0.45 s a pass at any size; two-worker serving is measured by
//! the `dg-serve` and `dg-par` probes instead, which have no bound.
//!
//! Each batch is generated between timed spans; only `run_batch` is
//! timed. A pass is 1000 batches at the fast end of the batch times
//! (`harness::fastest`); latencies come from the per-batch samples of
//! the quietest segment (`harness::Units::Stream`), and the raw
//! whole-run median and p99 are printed as a note.

use crate::harness::{fastest, peak_rss_mb, time_setups, timed, Core, Ctx, Units};
use crate::stats::quantile_sorted;
use crate::workloads::{ratio, WORKERS};
use dg_par::Pool;
use dg_serve::{Request, Response, ServeConfig, Server, SimilarityWorkload, WorkloadSpec};

/// Requests per batch.
pub const BATCH: usize = 4096;
/// Batches the hit rate and the response check are taken over, so both
/// repeat exactly whatever the time budget was.
const COUNTED_BATCHES: usize = 3000;
/// Batches served before statistics are reset and timing starts.
const WARM_BATCHES: usize = 256;
/// Timed batches kept for the replay check.
const REPLAYED_BATCHES: usize = 32;
/// Batches `wall_s` is stated for.
const PASS_BATCHES: usize = 1000;
/// What the bench server's arrays and the bench key spaces are divided
/// by. Occupancy, hit rates and eviction rates are those of the
/// full-size shapes.
pub const SCALE: usize = 16;

/// The server every `serve_*` workload and the `dg-serve` probes run:
/// 16 shards of 1 K tags and 256 data entries.
pub fn config() -> ServeConfig {
    let mut cfg = ServeConfig::bench();
    cfg.cache.tag_entries /= SCALE;
    cfg.cache.data_entries /= SCALE;
    cfg
}

/// Which traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Zipf query stream, hit rate ~1.0.
    ZipfHit,
    /// Same keys, half puts and half gets.
    MixedPut,
    /// Uniform queries over 128 K keys (8x the tags), hit rate ~0.27.
    Thrash,
}

impl Variant {
    /// The key space and popularity of the request stream.
    pub fn spec(self, seed: u64) -> WorkloadSpec {
        let mut spec = match self {
            Variant::ZipfHit | Variant::MixedPut => WorkloadSpec::bench(),
            Variant::Thrash => WorkloadSpec::bench_adversarial(),
        };
        spec.universe /= SCALE as u64;
        spec.clusters /= SCALE;
        spec.with_seed(seed)
    }

    fn batch(self, w: &mut SimilarityWorkload) -> Vec<Request> {
        match self {
            Variant::MixedPut => w.batch_mixed(BATCH, 0.5),
            Variant::ZipfHit | Variant::Thrash => w.batch(BATCH),
        }
    }
}

/// A warmed server and the generator positioned after the warm-up.
fn warmed(
    variant: Variant,
    seed: u64,
    workers: usize,
    warm: usize,
) -> (Server, SimilarityWorkload) {
    let cfg = config();
    let server =
        Server::with_pool(cfg, Pool::with_workers(workers)).expect("bench configuration is valid");
    let mut workload = SimilarityWorkload::new(variant.spec(seed), &cfg);
    for _ in 0..warm {
        server.run_batch(&variant.batch(&mut workload));
    }
    server.reset_stats();
    (server, workload)
}

/// Run the workload.
pub fn run(cx: &mut Ctx, variant: Variant) -> Core {
    let seed = cx.seed;
    let (warm, counted) = if cx.smoke {
        (WARM_BATCHES / 16, COUNTED_BATCHES / 20)
    } else {
        (WARM_BATCHES, COUNTED_BATCHES)
    };
    let ((server, mut workload), setup_s) = time_setups(|| warmed(variant, seed, 1, warm));

    let mut batch_s = Vec::new();
    let mut kept: Vec<(Vec<Request>, Vec<Response>)> = Vec::new();
    let mut counted_stats = None;
    let mut short = 0u64;
    let mut counter = cx.passes(counted);
    while counter.more() {
        let index = batch_s.len();
        let generated = timed(|| variant.batch(&mut workload));
        let served = timed(|| server.run_batch(&generated.value));
        batch_s.push(served.secs());
        if let Some(tr) = cx.tracer.as_mut() {
            tr.record("generate", "dg-serve", generated.start, generated.end, None, index as u64);
            tr.record("run_batch", "dg-serve", served.start, served.end, None, index as u64);
        }
        short += generated.value.len().abs_diff(served.value.len()) as u64;
        if index < REPLAYED_BATCHES {
            kept.push((generated.value, served.value));
        }
        if index + 1 == counted {
            counted_stats = Some(server.stats());
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let stats = counted_stats.expect("the counted batches always run");
    let attempted = (batch_s.len() * BATCH) as u64;

    // Verification, outside the timed section.
    let mut failed = short;
    if short > 0 {
        cx.note(format!("{short} requests got no response"));
    }
    let total = server.stats();
    let conserved = |s: &dg_serve::ServeStats| {
        s.gets == s.get_hits + s.get_misses
            && s.puts == s.put_inserts + s.put_dedup + s.put_updates
            && s.queries == s.query_exact_hits + s.query_similar_hits + s.query_misses
            && s.put_moved <= s.put_updates
            && s.dirty_writebacks <= s.displaced
    };
    if !(conserved(&total)
        && conserved(&stats)
        && total.ops() == attempted
        && stats.ops() == (counted * BATCH) as u64)
    {
        failed = attempted;
        cx.note("ServeStats do not add up to the requests sent");
    }
    server.check_invariants();
    // The first timed batches, replayed on a fresh two-worker server
    // after the same warm-up, must give bit-identical responses.
    let (reference, mut again) = warmed(variant, seed, WORKERS, warm);
    for (i, (requests, responses)) in kept.iter().enumerate() {
        if variant.batch(&mut again) != *requests {
            failed = attempted;
            cx.note(format!("batch {i}: the generator is not a pure function of the seed"));
            break;
        }
        let differing =
            reference.run_batch(requests).iter().zip(responses).filter(|(a, b)| a != b).count();
        if differing > 0 {
            failed += differing as u64;
            cx.note(format!("batch {i}: {differing} responses differ on two workers"));
        }
    }
    // Che's approximation predicts the query stream's steady-state hit
    // rate; the measured one must sit inside its band.
    let che = workload.expected_hit_rate(&server);
    let hit_rate = stats.hit_rate();
    let gap = (hit_rate - che.hit_rate).abs();
    if variant == Variant::ZipfHit && gap > che.tolerance(stats.lookups()) {
        failed = attempted;
        cx.note(format!("hit rate {hit_rate:.4} outside the Che band around {:.4}", che.hit_rate));
    }

    let mut sorted = batch_s.clone();
    sorted.sort_by(f64::total_cmp);
    cx.note(format!(
        "{} timed batches of {BATCH} requests, {} worker(s); raw whole-run batch p50 {:.1} us, p99 \
         {:.1} us; hit rate over the first {counted} batches; Che predicts {:.4}",
        batch_s.len(),
        server.workers(),
        quantile_sorted(&sorted, 0.5) * 1e6,
        quantile_sorted(&sorted, 0.99) * 1e6,
        che.hit_rate
    ));

    if cx.traced() {
        let shard_ops: Vec<f64> = server.shard_stats().iter().map(|s| s.ops() as f64).collect();
        let mean_ops = shard_ops.iter().sum::<f64>() / shard_ops.len() as f64;
        cx.layer(
            "dg-serve.shard_imbalance",
            shard_ops.iter().copied().fold(0.0, f64::max) / mean_ops,
            "ratio",
        );
        cx.layer(
            "dg-serve.similar_hit_frac",
            ratio(total.query_similar_hits as f64, total.queries as f64),
            "frac",
        );
        cx.layer(
            "dg-serve.put_moved_frac",
            ratio(total.put_moved as f64, total.puts as f64),
            "frac",
        );
        cx.layer("dg-serve.displaced_per_op", total.displaced as f64 / total.ops() as f64, "count");
        cx.layer("dg-serve.che_predicted_hit_rate", che.hit_rate, "frac");
        let (tags, data) = server.residency();
        cx.layer("dg-serve.resident_tags", tags as f64, "count");
        cx.layer("dg-serve.resident_data", data as f64, "count");
        cx.layer("doppelganger.tags_per_data", ratio(tags as f64, data as f64), "ratio");
        cx.layer(
            "doppelganger.data_evictions",
            server.cache_stats().data_evictions as f64,
            "count",
        );
    }

    Core {
        setup_s,
        wall_s: PASS_BATCHES as f64 * fastest(&batch_s),
        ops_per_pass: (PASS_BATCHES * BATCH) as f64,
        units: Units::Stream(batch_s),
        tail_cap: 0.99,
        peak_rss_mb,
        hit_rate,
        agreement: 1.0 - gap,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_a_pure_function_of_the_seed() {
        let cfg = config();
        for variant in [Variant::ZipfHit, Variant::MixedPut, Variant::Thrash] {
            let stream = |seed: u64| {
                let mut w = SimilarityWorkload::new(variant.spec(seed), &cfg);
                (variant.batch(&mut w), variant.batch(&mut w))
            };
            let (first, second) = stream(9);
            assert_eq!(first.len(), BATCH);
            assert_ne!(first, second, "{variant:?}: the stream advances");
            assert_eq!(stream(9), (first.clone(), second), "{variant:?}: same seed, same stream");
            assert_ne!(stream(10).0, first, "{variant:?}: another seed, another stream");
        }
    }

    #[test]
    fn mixes_are_what_the_workloads_claim() {
        let cfg = config();
        let mut w = SimilarityWorkload::new(Variant::MixedPut.spec(1), &cfg);
        let puts = Variant::MixedPut
            .batch(&mut w)
            .iter()
            .filter(|r| matches!(r, Request::Put(..)))
            .count();
        assert!((BATCH * 2 / 5..BATCH * 3 / 5).contains(&puts), "about half puts, got {puts}");
        let mut w = SimilarityWorkload::new(Variant::Thrash.spec(1), &cfg);
        assert!(Variant::Thrash.batch(&mut w).iter().all(|r| matches!(r, Request::Query(..))));
    }
}
