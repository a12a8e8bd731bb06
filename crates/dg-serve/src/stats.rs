//! Server-level counters, per shard and aggregated.

dg_obs::counters! {
    /// Counters accumulated by one shard (and summable across shards).
    ///
    /// These sit *above* the per-shard [`doppelganger::DoppStats`]: they
    /// classify whole server operations (get/put/query outcomes), while the
    /// cache's own stats count array-level events. Exported through
    /// [`dg_obs::Snapshot`] so the JSON schema and any divergence cross-check track
    /// the struct field-for-field.
    pub struct ServeStats {
        /// `Get` requests served.
        gets,
        /// `Get` requests that found the key resident.
        get_hits,
        /// `Get` requests that missed.
        get_misses,
        /// `Put` requests served.
        puts,
        /// `Put`s of non-resident keys that allocated a fresh data entry.
        put_inserts,
        /// `Put`s of non-resident keys deduplicated against a similar
        /// resident block.
        put_dedup,
        /// `Put`s of resident keys (in-place or moved updates).
        put_updates,
        /// Resident-key `Put`s whose new values moved the tag to a
        /// different data entry.
        put_moved,
        /// `Query` requests served.
        queries,
        /// `Query` requests answered by an exact (tag) hit.
        query_exact_hits,
        /// `Query` misses admitted by sharing a similar resident block.
        query_similar_hits,
        /// `Query` misses that allocated a fresh data entry.
        query_misses,
        /// Blocks displaced by insertions (tag-set victims and evicted
        /// sharing lists).
        displaced,
        /// Displaced blocks that were dirty — writebacks a backing store
        /// would have to absorb.
        dirty_writebacks,
    }
    float hit_rate;
}

impl ServeStats {
    /// Total requests served.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.gets + self.puts + self.queries
    }

    /// Lookup-shaped requests (`Get` + `Query`).
    #[inline]
    pub fn lookups(&self) -> u64 {
        self.gets + self.queries
    }

    /// Similarity-cache hits among lookups: exact hits plus deduped
    /// near-matches. This is the quantity the Che-approximation oracle
    /// estimates (see [`crate::che`]).
    #[inline]
    pub fn hits(&self) -> u64 {
        self.get_hits + self.query_exact_hits + self.query_similar_hits
    }

    /// Hit fraction over lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_delta_recovers_the_increment() {
        let earlier = ServeStats { gets: 10, get_hits: 6, get_misses: 4, ..Default::default() };
        let mut later = earlier;
        let inc = ServeStats {
            gets: 5,
            get_hits: 2,
            get_misses: 3,
            queries: 7,
            query_misses: 7,
            displaced: 1,
            ..Default::default()
        };
        later += inc;
        assert_eq!(later.checked_delta(&earlier), Some(inc));
        assert_eq!(later.checked_delta(&later), Some(ServeStats::default()));
        assert_eq!(earlier.checked_delta(&later), None, "reversed snapshots are rejected");
    }

    #[test]
    fn aggregation_and_rates() {
        let mut a = ServeStats { gets: 10, get_hits: 6, get_misses: 4, ..Default::default() };
        let b = ServeStats {
            queries: 10,
            query_exact_hits: 2,
            query_similar_hits: 2,
            query_misses: 6,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.ops(), 20);
        assert_eq!(a.lookups(), 20);
        assert_eq!(a.hits(), 10);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
    }
}
