//! The concurrent-server determinism contract: a batch served by a
//! multi-worker pool must be *bitwise identical* — responses, counters,
//! residency — to the same batch served by the 1-worker serial
//! reference path, for any worker count.

use dg_par::Pool;
use dg_serve::{Request, ServeConfig, Server, SimilarityWorkload, WorkloadSpec};

fn server_with_workers(workers: usize) -> Server {
    Server::with_pool(ServeConfig::small(), Pool::with_workers(workers)).unwrap()
}

/// Drive `batches` through a fresh server with `workers` workers and
/// return everything observable about the run.
fn drive(
    workers: usize,
    batches: &[Vec<Request>],
) -> (Vec<Vec<dg_serve::Response>>, dg_serve::ServeStats, (usize, usize), Vec<dg_serve::ServeStats>)
{
    let server = server_with_workers(workers);
    let responses = batches.iter().map(|b| server.run_batch(b)).collect();
    server.check_invariants();
    (responses, server.stats(), server.residency(), server.shard_stats())
}

fn workload_batches(seed: u64, batches: usize, len: usize) -> Vec<Vec<Request>> {
    let cfg = ServeConfig::small();
    let mut w = SimilarityWorkload::new(WorkloadSpec::tier1().with_seed(seed), &cfg);
    // Mix get-or-insert traffic with plain get/put so every request
    // variant crosses the batch path.
    (0..batches)
        .map(|i| if i % 2 == 0 { w.batch(len) } else { w.batch_mixed(len, 0.3) })
        .collect()
}

#[test]
fn parallel_batches_match_serial_reference() {
    let batches = workload_batches(0xD373, 8, 4096);
    let reference = drive(1, &batches);
    for workers in [2, 4, 8] {
        let parallel = drive(workers, &batches);
        assert_eq!(parallel.0, reference.0, "{workers}-worker responses diverged");
        assert_eq!(parallel.1, reference.1, "{workers}-worker aggregate stats diverged");
        assert_eq!(parallel.2, reference.2, "{workers}-worker residency diverged");
        assert_eq!(parallel.3, reference.3, "{workers}-worker per-shard stats diverged");
    }
}

#[test]
fn default_pool_matches_serial_reference() {
    // Whatever DG_PAR_THREADS / the host core count resolves to.
    let batches = workload_batches(0xFEED, 4, 8192);
    let reference = drive(1, &batches);
    let server = Server::new(ServeConfig::small()).unwrap();
    let responses: Vec<_> = batches.iter().map(|b| server.run_batch(b)).collect();
    assert_eq!(responses, reference.0);
    assert_eq!(server.stats(), reference.1);
    assert_eq!(server.residency(), reference.2);
}

#[test]
fn batch_equals_single_request_stream() {
    // The batched API is just a parallel schedule of the serial
    // per-request API: same responses in submission order.
    let batch = workload_batches(0xABCD, 1, 4096).pop().unwrap();
    let batched = server_with_workers(4);
    let singles = server_with_workers(4);
    let from_batch = batched.run_batch(&batch);
    let from_singles: Vec<_> = batch.iter().map(|&r| singles.execute(r)).collect();
    assert_eq!(from_batch, from_singles);
    assert_eq!(batched.stats(), singles.stats());
}

#[test]
fn one_shard_and_empty_batches_match_the_single_request_stream() {
    // The partition's edge cases, each after a larger batch so that it
    // runs on working memory a longer batch left behind: every request
    // on one shard (one job), no request at all (no job), then a full
    // batch again.
    let mut full = workload_batches(0x51DE, 2, 2048);
    let router = server_with_workers(1);
    let last = router.config().shards - 1;
    let one_shard: Vec<Request> =
        full[0].iter().copied().filter(|r| router.shard_of(r.key()) == last).collect();
    assert!(!one_shard.is_empty() && one_shard.len() < full[0].len());
    let batches = [full.remove(0), one_shard, Vec::new(), full.remove(0)];

    let singles = server_with_workers(1);
    let expected: Vec<Vec<_>> =
        batches.iter().map(|b| b.iter().map(|&r| singles.execute(r)).collect()).collect();
    for workers in [1, 2, 4] {
        let server = server_with_workers(workers);
        let mut chunks = Vec::new();
        for (batch, want) in batches.iter().zip(&expected) {
            assert_eq!(&server.run_batch(batch), want, "{workers} worker(s)");
            chunks.push(server.batches_served());
        }
        assert_eq!(chunks[1] - chunks[0], 1, "one touched shard is one chunk");
        assert_eq!(chunks[2], chunks[1], "an empty batch is no chunk");
        assert_eq!(server.stats(), singles.stats());
        assert_eq!(server.shard_stats(), singles.shard_stats());
        assert_eq!(server.residency(), singles.residency());
        server.check_invariants();
    }
}
