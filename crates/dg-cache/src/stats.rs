//! Cache statistics accounting.

use std::fmt;

dg_obs::counters! {
    /// Counters accumulated by a cache structure.
    ///
    /// All counters are monotonically increasing; derive rates
    /// ([`CacheStats::hit_rate`], [`CacheStats::miss_rate`]) on demand.
    pub struct CacheStats {
        /// Lookups that found the block.
        hits,
        /// Lookups that did not find the block.
        misses,
        /// Blocks inserted (fills).
        insertions,
        /// Blocks displaced by fills.
        evictions,
        /// Displaced blocks that required a writeback.
        dirty_evictions,
        /// Blocks removed by external invalidations (coherence or
        /// inclusion back-invalidations).
        invalidations,
    }
    derived accesses;
}

impl CacheStats {
    /// Total lookups (hits + misses).
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit (0 if no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Fraction of lookups that missed (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Misses per thousand instructions for an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Record a hit.
    #[inline]
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Record a miss.
    #[inline]
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Record a fill.
    #[inline]
    pub fn record_insertion(&mut self) {
        self.insertions += 1;
    }

    /// Record an eviction, noting whether it was dirty.
    #[inline]
    pub fn record_eviction(&mut self, dirty: bool) {
        self.evictions += 1;
        if dirty {
            self.dirty_evictions += 1;
        }
    }

    /// Record an external invalidation.
    #[inline]
    pub fn record_invalidation(&mut self) {
        self.invalidations += 1;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} (hit rate {:.1}%), evictions={} ({} dirty), inval={}",
            self.accesses(),
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evictions,
            self.dirty_evictions,
            self.invalidations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(s.miss_rate(), 0.25);
    }

    #[test]
    fn mpki_per_thousand() {
        let mut s = CacheStats::default();
        for _ in 0..12 {
            s.record_miss();
        }
        assert_eq!(s.mpki(1000), 12.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn eviction_tracks_dirtiness() {
        let mut s = CacheStats::default();
        s.record_eviction(true);
        s.record_eviction(false);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.dirty_evictions, 1);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = CacheStats { hits: 1, misses: 2, ..Default::default() };
        let b = CacheStats { hits: 10, invalidations: 5, ..Default::default() };
        a += b;
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 2);
        assert_eq!(a.invalidations, 5);
    }

    #[test]
    fn display_nonempty() {
        assert!(CacheStats::default().to_string().contains("accesses=0"));
    }
}
