//! One shard: a Doppelgänger cache plus its server-level counters.

use dg_mem::{ApproxRegion, BlockAddr};
use dg_obs::Hist64;
use doppelganger::{DoppelgangerCache, WriteStatus};

use crate::config::ServeConfig;
use crate::request::{Request, Response};
use crate::stats::ServeStats;

/// The lock-protected state of one shard. All similarity deduplication
/// (MTag lookups, sharing lists) happens within a shard; the [`crate::Server`]
/// routes each key to exactly one shard, so shards never exchange state
/// and per-shard locks compose into a linearizable whole.
pub(crate) struct ShardState {
    /// The shard's tag/MTag/data arrays.
    pub cache: DoppelgangerCache,
    /// Server-level operation counters.
    pub stats: ServeStats,
    /// Wall-clock nanoseconds per batch chunk served by this shard
    /// (recorded only at `Level::Metrics` and above).
    pub batch_ns: Hist64,
    /// Batch chunks this shard has served. Kept outside [`ServeStats`]
    /// because it counts scheduling (how work arrived), not requests —
    /// a batch and the equivalent singles must leave identical stats.
    pub batches: u64,
}

impl ShardState {
    pub fn new(cfg: &ServeConfig) -> Self {
        ShardState {
            cache: DoppelgangerCache::new(cfg.cache),
            stats: ServeStats::default(),
            batch_ns: Hist64::new(),
            batches: 0,
        }
    }

    /// Serve one request against this shard. The caller holds the
    /// shard lock; everything here is single-threaded.
    pub fn apply(&mut self, req: Request, region: &ApproxRegion) -> Response {
        // Displacement accounting flows through locals because the
        // `emit` closure cannot borrow `self.stats` while the cache is
        // mutably borrowed.
        let (mut displaced, mut dirty) = (0u64, 0u64);
        let resp = {
            let mut emit = |d: dg_cache::Evicted| {
                displaced += 1;
                if d.dirty {
                    dirty += 1;
                }
            };
            match req {
                Request::Get(k) => {
                    self.stats.gets += 1;
                    match self.cache.read(BlockAddr(k)) {
                        Some(b) => {
                            self.stats.get_hits += 1;
                            Response::Hit(b)
                        }
                        None => {
                            self.stats.get_misses += 1;
                            Response::Miss
                        }
                    }
                }
                Request::Put(k, block) => {
                    self.stats.puts += 1;
                    let addr = BlockAddr(k);
                    if self.cache.contains(addr) {
                        self.stats.put_updates += 1;
                        match self.cache.write_with(addr, block, Some(region), &mut emit) {
                            WriteStatus::SameMap | WriteStatus::PreciseUpdated => {
                                Response::Updated { moved: false }
                            }
                            WriteStatus::Moved { .. } => {
                                self.stats.put_moved += 1;
                                Response::Updated { moved: true }
                            }
                            WriteStatus::NotResident => {
                                unreachable!("residency checked under the shard lock")
                            }
                        }
                    } else {
                        let deduped = self.cache.insert_approx_with(addr, block, region, &mut emit);
                        if deduped {
                            self.stats.put_dedup += 1;
                        } else {
                            self.stats.put_inserts += 1;
                        }
                        Response::Inserted { deduped }
                    }
                }
                Request::Query(k, block) => {
                    self.stats.queries += 1;
                    let addr = BlockAddr(k);
                    if let Some(b) = self.cache.read(addr) {
                        self.stats.query_exact_hits += 1;
                        Response::Hit(b)
                    } else if self.cache.insert_approx_with(addr, block, region, &mut emit) {
                        // A similar block was already resident: the key
                        // was admitted into its sharing list and is
                        // served by that representative. For the
                        // hit-rate oracle this *is* a hit — the bin was
                        // resident.
                        self.stats.query_similar_hits += 1;
                        let rep = self.cache.peek(addr).expect("just inserted");
                        Response::SimilarHit(rep)
                    } else {
                        self.stats.query_misses += 1;
                        Response::Miss
                    }
                }
            }
        };
        self.stats.displaced += displaced;
        self.stats.dirty_writebacks += dirty;
        resp
    }

    /// Reset counters (server stats, cache stats, latency) after
    /// warm-up; residency is untouched.
    pub fn reset_stats(&mut self) {
        self.stats = ServeStats::default();
        self.cache.reset_stats();
        self.batch_ns = Hist64::new();
        self.batches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{BlockData, ElemType};

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F32, &[v; 16])
    }

    fn shard() -> (ShardState, ApproxRegion) {
        let cfg = ServeConfig::small();
        (ShardState::new(&cfg), cfg.region())
    }

    #[test]
    fn get_put_query_lifecycle() {
        let (mut s, region) = shard();

        assert_eq!(s.apply(Request::Get(1), &region), Response::Miss);
        assert_eq!(
            s.apply(Request::Put(1, blk(10.0)), &region),
            Response::Inserted { deduped: false }
        );
        // Same values: the representative round-trips bit-exactly.
        assert_eq!(s.apply(Request::Get(1), &region), Response::Hit(blk(10.0)));

        // A different key with identical values dedups against key 1.
        assert_eq!(
            s.apply(Request::Put(2, blk(10.0)), &region),
            Response::Inserted { deduped: true }
        );
        // Query of a third similar key is a similar-hit admission.
        assert_eq!(s.apply(Request::Query(3, blk(10.0)), &region), Response::SimilarHit(blk(10.0)));
        // ... and now it is exactly resident.
        assert_eq!(s.apply(Request::Query(3, blk(10.0)), &region), Response::Hit(blk(10.0)));

        // A dissimilar query misses and allocates.
        assert_eq!(s.apply(Request::Query(4, blk(90.0)), &region), Response::Miss);

        let st = s.stats;
        assert_eq!(st.gets, 2);
        assert_eq!(st.get_hits, 1);
        assert_eq!(st.puts, 2);
        assert_eq!(st.put_inserts, 1);
        assert_eq!(st.put_dedup, 1);
        assert_eq!(st.queries, 3);
        assert_eq!(st.query_exact_hits, 1);
        assert_eq!(st.query_similar_hits, 1);
        assert_eq!(st.query_misses, 1);
        assert_eq!(st.ops(), 7);
        // One shared data entry for keys 1..=3, one for key 4.
        assert_eq!(s.cache.resident_tags(), 4);
        assert_eq!(s.cache.resident_data(), 2);
    }

    #[test]
    fn put_update_moves_only_on_map_change() {
        let (mut s, region) = shard();
        s.apply(Request::Put(1, blk(10.0)), &region);
        // Tiny nudge within a quantization bin: silent update.
        assert_eq!(
            s.apply(Request::Put(1, blk(10.0001)), &region),
            Response::Updated { moved: false }
        );
        // A large change relocates the tag.
        assert_eq!(s.apply(Request::Put(1, blk(75.0)), &region), Response::Updated { moved: true });
        assert_eq!(s.stats.put_updates, 2);
        assert_eq!(s.stats.put_moved, 1);
    }

    #[test]
    fn reset_preserves_residency() {
        let (mut s, region) = shard();
        s.apply(Request::Put(1, blk(10.0)), &region);
        s.reset_stats();
        assert_eq!(s.stats, ServeStats::default());
        assert_eq!(s.cache.stats().insertions, 0);
        assert_eq!(s.apply(Request::Get(1), &region), Response::Hit(blk(10.0)));
    }
}
