//! Doppelgänger cache statistics.

use std::fmt;

dg_obs::counters! {
    /// Counters accumulated by a [`crate::DoppelgangerCache`].
    ///
    /// The array-access counters (`tag_array_accesses`, `mtag_accesses`,
    /// `data_accesses`) and `map_generations` feed the dynamic-energy model
    /// (`dg-energy`); each map generation costs 21 FP operations at
    /// 8 pJ/op (paper §5.6).
    pub struct DoppStats {
        /// Lookups that found a tag.
        hits,
        /// Lookups that found no tag.
        misses,
        /// Blocks inserted after a miss.
        insertions,
        /// Insertions that joined an existing (similar) data entry.
        shared_insertions,
        /// Precise insertions (uniDoppelgänger only).
        precise_insertions,
        /// Map computations (insertions + approximate writebacks).
        map_generations,
        /// Tags invalidated for any reason.
        tag_evictions,
        /// Data entries freed for any reason.
        data_evictions,
        /// Tags invalidated because their data entry was evicted
        /// (each triggers a back-invalidation across private caches).
        back_invalidations,
        /// Writes (L2 writebacks) to resident blocks.
        writes,
        /// Writes whose recomputed map was unchanged (§3.4 "silent").
        silent_writes,
        /// Writes that moved the tag to a different data entry.
        moved_writes,
        /// Tag-array probes (reads of a tag set).
        tag_array_accesses,
        /// MTag-array probes.
        mtag_accesses,
        /// Data-array accesses (block reads/writes).
        data_accesses,
    }
    derived lookups;
}

impl DoppStats {
    /// Total lookups.
    #[inline]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Fraction of insertions that found a similar block already cached.
    pub fn sharing_rate(&self) -> f64 {
        if self.insertions == 0 {
            0.0
        } else {
            self.shared_insertions as f64 / self.insertions as f64
        }
    }
}

impl fmt::Display for DoppStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lookups={} (hit rate {:.1}%), insertions={} ({:.1}% shared), maps={}, \
             tag evictions={}, data evictions={}, back-inval={}",
            self.lookups(),
            self.hit_rate() * 100.0,
            self.insertions,
            self.sharing_rate() * 100.0,
            self.map_generations,
            self.tag_evictions,
            self.data_evictions,
            self.back_invalidations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = DoppStats { hits: 3, misses: 1, insertions: 4, shared_insertions: 3, ..Default::default() };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(s.sharing_rate(), 0.75);
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn idle_rates_are_zero() {
        let s = DoppStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.sharing_rate(), 0.0);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = DoppStats { hits: 1, map_generations: 2, ..Default::default() };
        a += DoppStats { hits: 4, data_accesses: 7, ..Default::default() };
        assert_eq!(a.hits, 5);
        assert_eq!(a.map_generations, 2);
        assert_eq!(a.data_accesses, 7);
    }

    #[test]
    fn display_nonempty() {
        assert!(DoppStats::default().to_string().contains("lookups=0"));
    }
}
