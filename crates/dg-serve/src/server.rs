//! The sharded concurrent server.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use dg_mem::{ApproxRegion, BlockData};
use dg_obs::{enabled, span, Hist64, Level, Registry};
use dg_par::Pool;
use dg_rand::SplitMix64;
use doppelganger::DoppStats;

use crate::config::ServeConfig;
use crate::request::{Request, Response};
use crate::shard::ShardState;
use crate::stats::ServeStats;

/// Working memory of [`Server::run_batch`], kept per calling thread so
/// that a batch neither allocates it nor page-faults it in again
/// (built fresh, a 4096-request batch's vectors went back to the OS on
/// `free` and cost ~100 minor faults on the next batch; DESIGN.md §8).
#[derive(Default)]
struct BatchScratch {
    /// Per shard: request count, then start, then end of its run in
    /// `order` as the counting sort advances.
    ends: Vec<u32>,
    /// Request indices grouped by shard, submission order within each.
    order: Vec<u32>,
    /// Inverse of `order`: where request `i`'s answer sits in `answers`.
    pos: Vec<u32>,
    /// The answers in `order` order; each shard job owns one slice.
    answers: Vec<Response>,
}

thread_local! {
    static SCRATCH: Cell<BatchScratch> = Cell::new(BatchScratch::default());
}

/// An in-process key → block similarity-cache server.
///
/// The server is `shards` independent Doppelgänger caches behind
/// per-shard mutexes. Keys are routed to shards by a fixed mixing hash
/// ([`Server::shard_of`]), so any two requests for the same key always
/// serialize on the same lock and the server as a whole is
/// linearizable. Batches submitted to [`Server::run_batch`] are served
/// in parallel on a [`Pool`], one job per touched shard, and the
/// response vector is in submission order regardless of worker count —
/// shards are disjoint, and each job preserves its shard's submission
/// suborder, so a parallel batch is *bitwise identical* to a serial
/// one (`tests/determinism.rs` holds this to account).
pub struct Server {
    shards: Vec<Mutex<ShardState>>,
    pool: Pool,
    region: ApproxRegion,
    cfg: ServeConfig,
}

impl Server {
    /// Build a server from `cfg` with a default worker pool
    /// (`DG_PAR_THREADS` / available parallelism).
    ///
    /// # Errors
    ///
    /// Returns the [`ServeConfig::validate`] error message for an
    /// invalid configuration.
    pub fn new(cfg: ServeConfig) -> Result<Self, String> {
        Self::with_pool(cfg, Pool::new())
    }

    /// Build a server running batches on an explicit `pool` (used by
    /// the determinism tests to pin one worker).
    pub fn with_pool(cfg: ServeConfig, pool: Pool) -> Result<Self, String> {
        cfg.validate()?;
        let shards = (0..cfg.shards).map(|_| Mutex::new(ShardState::new(&cfg))).collect();
        Ok(Server { shards, pool, region: cfg.region(), cfg })
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The annotation every block is quantized under.
    pub fn region(&self) -> &ApproxRegion {
        &self.region
    }

    /// Worker threads used for batches.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The shard serving `key`: a pure function of the key, stable
    /// across batches and worker counts. Keys are mixed through the
    /// SplitMix64 finalizer so that sequential keys spread uniformly,
    /// then masked onto the power-of-two shard count.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        (SplitMix64::seed_from_u64(key).next_u64() as usize) & (self.cfg.shards - 1)
    }

    /// Serve one request (locks a single shard).
    pub fn execute(&self, req: Request) -> Response {
        let shard = &self.shards[self.shard_of(req.key())];
        shard.lock().unwrap().apply(req, &self.region)
    }

    /// Exact lookup of `key`.
    pub fn get(&self, key: u64) -> Response {
        self.execute(Request::Get(key))
    }

    /// Store `key → block`.
    pub fn put(&self, key: u64, block: BlockData) -> Response {
        self.execute(Request::Put(key, block))
    }

    /// Get-or-insert `key`, offering `block` on a miss.
    pub fn query(&self, key: u64, block: BlockData) -> Response {
        self.execute(Request::Query(key, block))
    }

    /// Serve a batch, returning responses in submission order.
    ///
    /// Requests are partitioned by shard with one stable counting sort
    /// (so each shard keeps its submission suborder), every touched
    /// shard runs as one pool job that answers into its own slice of
    /// one buffer, and the answers are gathered back into submission
    /// order. With one worker the pool degrades to the inline serial
    /// path, so the 1-thread run is the reference the parallel runs
    /// must match. The index vectors and the buffer belong to the
    /// calling thread and are reused from batch to batch: a call
    /// allocates nothing batch-sized but the vector it returns.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` requests.
    pub fn run_batch(&self, requests: &[Request]) -> Vec<Response> {
        let _batch_span = span("serve.batch", 0);
        assert!(u32::try_from(requests.len()).is_ok(), "batch positions are 32-bit");
        // A nested call on this thread finds the cell empty and works
        // on fresh vectors; nobody ever waits for the scratch.
        let mut scratch = SCRATCH.take();
        let BatchScratch { ends, order, pos, answers } = &mut scratch;
        let n = requests.len();

        // Pass 1: each request's shard (parked in `pos`) and the shard
        // sizes; then `ends[s]` = where shard `s` starts in `order`.
        ends.clear();
        ends.resize(self.cfg.shards, 0);
        pos.clear();
        pos.extend(requests.iter().map(|req| {
            let sid = self.shard_of(req.key());
            ends[sid] += 1;
            sid as u32
        }));
        let mut start = 0u32;
        for e in ends.iter_mut() {
            let count = *e;
            *e = start;
            start += count;
        }
        // Pass 2: `order[k]` = the request served k-th, `pos[i]` = the
        // k of request i. Every `ends[s]` ends up at its shard's end.
        order.resize(n, 0);
        for (i, p) in pos.iter_mut().enumerate() {
            let next = &mut ends[*p as usize];
            order[*next as usize] = i as u32;
            *p = *next;
            *next += 1;
        }

        // Stale answers of an earlier batch are left in place: every
        // slot belongs to exactly one job, which overwrites it.
        answers.resize(n, Response::Miss);
        let (mut idx_rest, mut out_rest) = (&order[..], &mut answers[..]);
        let mut shard_start = 0usize;
        let jobs: Vec<_> = ends
            .iter()
            .enumerate()
            .filter_map(|(sid, &end)| {
                let len = end as usize - shard_start;
                shard_start = end as usize;
                if len == 0 {
                    return None;
                }
                let (idxs, idx_tail) = idx_rest.split_at(len);
                let (out, out_tail) = std::mem::take(&mut out_rest).split_at_mut(len);
                (idx_rest, out_rest) = (idx_tail, out_tail);
                Some(move || {
                    let _shard_span = span("serve.shard", sid as u64);
                    let metrics = enabled(Level::Metrics);
                    let t0 = metrics.then(Instant::now);
                    let mut shard = self.shards[sid].lock().unwrap();
                    for (slot, &i) in out.iter_mut().zip(idxs) {
                        *slot = shard.apply(requests[i as usize], &self.region);
                    }
                    shard.batches += 1;
                    if let Some(t0) = t0 {
                        shard.batch_ns.record(t0.elapsed().as_nanos() as u64);
                    }
                })
            })
            .collect();
        self.pool.run(jobs);

        let responses = pos.iter().map(|&k| answers[k as usize]).collect();
        SCRATCH.set(scratch);
        responses
    }

    /// Aggregate server-level counters across shards.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for s in &self.shards {
            total += s.lock().unwrap().stats;
        }
        total
    }

    /// Per-shard server-level counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|s| s.lock().unwrap().stats).collect()
    }

    /// Aggregate cache-array counters across shards.
    pub fn cache_stats(&self) -> DoppStats {
        let mut total = DoppStats::default();
        for s in &self.shards {
            total += *s.lock().unwrap().cache.stats();
        }
        total
    }

    /// Reset all counters (e.g. after warm-up); residency is kept.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.lock().unwrap().reset_stats();
        }
    }

    /// Total resident (tags, data entries) across shards.
    pub fn residency(&self) -> (usize, usize) {
        let mut tags = 0;
        let mut data = 0;
        for s in &self.shards {
            let s = s.lock().unwrap();
            tags += s.cache.resident_tags();
            data += s.cache.resident_data();
        }
        (tags, data)
    }

    /// Per-shard resident (tags, data entries), indexed by shard — the
    /// occupancy gauges the monitor samples at window boundaries.
    pub fn shard_residency(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap();
                (s.cache.resident_tags(), s.cache.resident_data())
            })
            .collect()
    }

    /// Merged distribution of per-shard batch-chunk service times in
    /// nanoseconds (populated at `Level::Metrics` and above).
    pub fn batch_ns_hist(&self) -> Hist64 {
        let mut h = Hist64::new();
        for s in &self.shards {
            h.merge(&s.lock().unwrap().batch_ns);
        }
        h
    }

    /// Per-shard batch-chunk service-time histograms, indexed by shard.
    /// Snapshots (clones) — the monitor diffs successive snapshots with
    /// [`Hist64::checked_sub`] rather than draining live state.
    pub fn shard_batch_hists(&self) -> Vec<Hist64> {
        self.shards.iter().map(|s| s.lock().unwrap().batch_ns.clone()).collect()
    }

    /// Total batch chunks served across shards (one per non-empty
    /// per-shard partition of every [`Server::run_batch`] call).
    pub fn batches_served(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().batches).sum()
    }

    /// Export the server's metrics into `reg`: per-shard counters under
    /// `serve.shard<i>.*` (operation counters, batch chunks, the
    /// shard's batch-latency histogram, and an occupancy gauge),
    /// aggregates under `serve.total.*`, and the merged batch-latency
    /// histogram as `serve.batch_ns`.
    pub fn register_metrics(&self, reg: &mut Registry) {
        let capacity = (self.cfg.cache.data_entries.max(1)) as f64;
        for (i, s) in self.shards.iter().enumerate() {
            let s = s.lock().unwrap();
            let prefix = format!("serve.shard{i}");
            reg.add_snapshot(&prefix, &s.stats);
            reg.counter(&format!("{prefix}.batches"), s.batches);
            reg.hist(&format!("{prefix}.batch_ns"), &s.batch_ns);
            reg.gauge(&format!("{prefix}.occupancy"), s.cache.resident_data() as f64 / capacity);
        }
        reg.add_snapshot("serve.total", &self.stats());
        reg.counter("serve.total.batches", self.batches_served());
        reg.hist("serve.batch_ns", &self.batch_ns_hist());
    }

    /// Run the invariant checker on every shard (tests/debugging).
    pub fn check_invariants(&self) {
        for s in &self.shards {
            s.lock().unwrap().cache.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::ElemType;

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F32, &[v; 16])
    }

    fn server() -> Server {
        Server::new(ServeConfig::small()).unwrap()
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(Server::new(ServeConfig::small().with_shards(3)).is_err());
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        let s = server();
        for key in 0..1024u64 {
            let a = s.shard_of(key);
            assert!(a < s.config().shards);
            assert_eq!(a, s.shard_of(key), "routing must be pure");
        }
        // The mix actually spreads sequential keys: no shard should be
        // starved over a small sequential range.
        let mut counts = vec![0usize; s.config().shards];
        for key in 0..1024u64 {
            counts[s.shard_of(key)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "a shard got no keys: {counts:?}");
    }

    #[test]
    fn single_request_api_round_trips() {
        let s = server();
        assert_eq!(s.get(42), Response::Miss);
        assert_eq!(s.put(42, blk(7.0)), Response::Inserted { deduped: false });
        assert_eq!(s.get(42), Response::Hit(blk(7.0)));
        assert_eq!(s.query(42, blk(7.0)), Response::Hit(blk(7.0)));
        let st = s.stats();
        assert_eq!(st.ops(), 4);
        assert_eq!(st.hits(), 2);
        assert_eq!(s.residency(), (1, 1));
        s.check_invariants();
    }

    #[test]
    fn batch_matches_singles_and_preserves_order() {
        let batch: Vec<Request> = (0..256u64)
            .map(|k| Request::Put(k, blk((k % 10) as f64)))
            .chain((0..256u64).map(Request::Get))
            .collect();

        let s = server();
        let responses = s.run_batch(&batch);
        assert_eq!(responses.len(), batch.len());

        let reference = server();
        let serial: Vec<Response> = batch.iter().map(|&r| reference.execute(r)).collect();
        assert_eq!(responses, serial);

        // Every get at the tail hits: puts of the same batch precede
        // them in submission order on every shard.
        assert!(responses[256..].iter().all(|r| r.is_hit()));
        assert_eq!(s.stats(), reference.stats());
        s.check_invariants();
    }

    #[test]
    fn reset_stats_clears_all_shards() {
        let s = server();
        s.run_batch(&(0..64u64).map(|k| Request::Put(k, blk(1.0))).collect::<Vec<_>>());
        assert!(s.stats().ops() > 0);
        s.reset_stats();
        assert_eq!(s.stats(), ServeStats::default());
        assert_eq!(s.cache_stats().insertions, 0);
        assert_eq!(s.residency().0, 64);
    }

    #[test]
    fn metrics_registry_has_per_shard_and_total_entries() {
        let s = server();
        s.put(1, blk(2.0));
        let mut reg = Registry::new();
        s.register_metrics(&mut reg);
        assert!(reg.get("serve.shard0.gets").is_some());
        assert!(reg.get("serve.total.puts").is_some());
        assert!(reg.get("serve.batch_ns").is_some());
        let shards = s.config().shards;
        assert!(reg.get(&format!("serve.shard{}.gets", shards - 1)).is_some());
    }
}
