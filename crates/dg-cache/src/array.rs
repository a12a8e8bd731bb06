//! Generic set-associative array with replacement bookkeeping.

use crate::{CacheGeometry, Lru};

/// A set-associative array of caller-defined entries.
///
/// `TagArray` owns placement (set × way grid), validity, and the
/// replacement policy; the meaning of an entry (`E`) is up to the
/// caller. The conventional cache, the Doppelgänger tag array, and the
/// MTag/data array are all built on it.
///
/// # Example
///
/// ```
/// use dg_cache::{CacheGeometry, TagArray};
/// let mut arr: TagArray<u64> = TagArray::new(CacheGeometry::from_entries(8, 2));
/// let set = 0;
/// assert!(arr.find_keyed(set, 99, |&e| e == 99).is_none());
/// let way = arr.victim_way(set);
/// assert!(arr.insert_at_keyed(set, way, 99, 99).is_none());
/// assert_eq!(arr.find_keyed(set, 99, |&e| e == 99), Some(way));
/// ```
#[derive(Debug)]
pub struct TagArray<E> {
    geom: CacheGeometry,
    entries: Vec<Option<E>>,
    policy: Lru,
    /// Valid entries per set, maintained on insert/invalidate so that
    /// victim selection in a full set (the steady state of every hot
    /// cache) skips the scan for an invalid way.
    occ: Vec<u16>,
    /// Valid entries in the whole array (O(1) `len`).
    valid: usize,
    /// Decoupled key lane: one `u64` match key per slot, written by
    /// [`TagArray::insert_at_keyed`]. [`TagArray::find_keyed`] scans
    /// this dense lane (8 bytes per way) instead of striding over the
    /// full entries, and re-verifies every candidate against the
    /// caller's predicate — so stale keys left behind by `invalidate`
    /// or key collisions can never change the result.
    keys: Vec<u64>,
}

impl<E> TagArray<E> {
    /// An empty array with LRU replacement.
    pub fn new(geom: CacheGeometry) -> Self {
        let policy = Lru::new(geom.sets(), geom.ways());
        let mut entries = Vec::new();
        entries.resize_with(geom.entries(), || None);
        TagArray {
            occ: vec![0; geom.sets()],
            valid: 0,
            keys: vec![0; geom.entries()],
            geom,
            entries,
            policy,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.geom.sets() && way < self.geom.ways());
        set * self.geom.ways() + way
    }

    /// The entry at `(set, way)`, if valid.
    pub fn get(&self, set: usize, way: usize) -> Option<&E> {
        self.entries[self.slot(set, way)].as_ref()
    }

    /// Mutable access to the entry at `(set, way)`, if valid.
    ///
    /// Does **not** update replacement state; call [`TagArray::touch`]
    /// if the mutation models an access.
    pub fn get_mut(&mut self, set: usize, way: usize) -> Option<&mut E> {
        let slot = self.slot(set, way);
        self.entries[slot].as_mut()
    }

    /// Find the lowest way in `set` whose entry was inserted with `key`
    /// and satisfies `pred`.
    ///
    /// The scan strides over the dense 8-byte key lane instead of the
    /// full entries, and only candidate ways (key match) load the entry
    /// to run `pred`. `pred` remains the source of truth, so the result
    /// is the lowest valid way `pred` accepts as long as every such
    /// entry carries `key` in the key lane (the keyed-insert
    /// invariant). Does not touch replacement state (lookups that
    /// should count as uses must call [`TagArray::touch`]).
    pub fn find_keyed(&self, set: usize, key: u64, pred: impl Fn(&E) -> bool) -> Option<usize> {
        let ways = self.geom.ways();
        let base = set * ways;
        let keys = &self.keys[base..base + ways];
        // Vector compare of the whole key lane at once; the match mask
        // is consumed lowest-way-first, so hit order (and therefore the
        // returned way) is identical to the scalar scan.
        let mut mask = dg_simd::match_mask(keys, key);
        while mask != 0 {
            let w = mask.trailing_zeros() as usize;
            if let Some(e) = self.entries[base + w].as_ref() {
                if pred(e) {
                    return Some(w);
                }
            }
            mask &= mask - 1;
        }
        None
    }

    /// Insert `entry` at an explicit `(set, way)` — usually
    /// [`TagArray::victim_way`] — and record `key` in the key lane for
    /// [`TagArray::find_keyed`], returning the displaced entry (if any).
    /// The new entry becomes the most recently used.
    pub fn insert_at_keyed(&mut self, set: usize, way: usize, key: u64, entry: E) -> Option<E> {
        let slot = self.slot(set, way);
        self.keys[slot] = key;
        let old = self.entries[slot].replace(entry);
        if old.is_none() {
            self.occ[set] += 1;
            self.valid += 1;
        }
        self.policy.fill(set, way);
        old
    }

    /// Record a use of `(set, way)` for the replacement policy.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.policy.touch(set, way);
    }

    /// The way that would be victimized by the next insertion into a
    /// full `set` (an invalid way if one exists).
    pub fn victim_way(&mut self, set: usize) -> usize {
        if usize::from(self.occ[set]) == self.geom.ways() {
            return self.policy.victim(set);
        }
        (0..self.geom.ways())
            .find(|&w| self.get(set, w).is_none())
            .expect("occupancy below associativity implies an invalid way")
    }

    /// Invalidate `(set, way)`, returning the removed entry.
    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<E> {
        let slot = self.slot(set, way);
        let old = self.entries[slot].take();
        if old.is_some() {
            self.occ[set] -= 1;
            self.valid -= 1;
        }
        old
    }

    /// Number of valid entries in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        usize::from(self.occ[set])
    }

    /// Number of valid entries in the whole array.
    pub fn len(&self) -> usize {
        self.valid
    }

    /// Whether the array holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    /// Iterate over all valid entries as `(set, way, &entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &E)> {
        let ways = self.geom.ways();
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| e.as_ref().map(|e| (i / ways, i % ways, e)))
    }

    /// Iterate mutably over all valid entries as `(set, way, &mut entry)`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, usize, &mut E)> {
        let ways = self.geom.ways();
        self.entries
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, e)| e.as_mut().map(|e| (i / ways, i % ways, e)))
    }

    /// Remove every entry, leaving replacement state untouched.
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
        self.occ.iter_mut().for_each(|o| *o = 0);
        self.valid = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray<u64> {
        TagArray::new(CacheGeometry::from_entries(8, 4)) // 2 sets x 4 ways
    }

    /// Insert `v`, keyed by itself, at `set`'s victim way.
    fn put(a: &mut TagArray<u64>, set: usize, v: u64) -> (usize, Option<u64>) {
        let way = a.victim_way(set);
        (way, a.insert_at_keyed(set, way, v, v))
    }

    fn find(a: &TagArray<u64>, set: usize, v: u64) -> Option<usize> {
        a.find_keyed(set, v, |&e| e == v)
    }

    #[test]
    fn insert_prefers_invalid_ways() {
        let mut a = small();
        let (w0, e0) = put(&mut a, 0, 10);
        let (w1, e1) = put(&mut a, 0, 11);
        assert_ne!(w0, w1);
        assert!(e0.is_none() && e1.is_none());
        assert_eq!(a.occupancy(0), 2);
    }

    #[test]
    fn full_set_evicts_lru() {
        let mut a = small();
        for v in 0..4 {
            put(&mut a, 0, v);
        }
        // Touch 0 so entry value 0 is MRU; LRU is value 1.
        let way0 = find(&a, 0, 0).unwrap();
        a.touch(0, way0);
        let (_, evicted) = put(&mut a, 0, 99);
        assert_eq!(evicted, Some(1));
        assert_eq!(a.occupancy(0), 4);
    }

    #[test]
    fn find_and_get() {
        let mut a = small();
        put(&mut a, 1, 42);
        let w = find(&a, 1, 42).unwrap();
        assert_eq!(a.get(1, w), Some(&42));
        assert!(find(&a, 0, 42).is_none());
    }

    #[test]
    fn invalidate_frees_way() {
        let mut a = small();
        let (w, _) = put(&mut a, 0, 5);
        assert_eq!(a.invalidate(0, w), Some(5));
        assert_eq!(a.invalidate(0, w), None);
        assert_eq!(a.occupancy(0), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn iter_reports_positions() {
        let mut a = small();
        put(&mut a, 0, 1);
        put(&mut a, 1, 2);
        let mut items: Vec<(usize, u64)> = a.iter().map(|(s, _, &e)| (s, e)).collect();
        items.sort_unstable();
        assert_eq!(items, vec![(0, 1), (1, 2)]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iter_mut_mutates_in_place() {
        let mut a = small();
        let (w, _) = put(&mut a, 0, 1);
        for (_, _, e) in a.iter_mut() {
            *e += 100;
        }
        assert_eq!(a.get(0, w), Some(&101));
    }

    #[test]
    fn insert_at_explicit_position() {
        let mut a = small();
        assert!(a.insert_at_keyed(1, 3, 7, 7).is_none());
        assert_eq!(a.get(1, 3), Some(&7));
        assert_eq!(a.insert_at_keyed(1, 3, 8, 8), Some(7));
        assert_eq!(find(&a, 1, 8), Some(3));
    }

    #[test]
    fn clear_empties() {
        let mut a = small();
        put(&mut a, 0, 1);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn mutation_via_get_mut() {
        let mut a = small();
        let (w, _) = put(&mut a, 0, 1);
        *a.get_mut(0, w).unwrap() = 9;
        assert_eq!(a.get(0, w), Some(&9));
    }

    #[test]
    fn find_keyed_matches_linear_scan_on_stale_and_colliding_keys() {
        let mut a = small();
        // Two entries inserted with the same key lane value; pred must
        // disambiguate, and the lowest matching way must win.
        a.insert_at_keyed(0, 1, 7, 71);
        a.insert_at_keyed(0, 3, 7, 73);
        assert_eq!(a.find_keyed(0, 7, |&e| e == 73), Some(3));
        assert_eq!(a.find_keyed(0, 7, |&e| e == 71), Some(1));
        assert_eq!(a.find_keyed(0, 7, |_| true), Some(1));
        // Invalidate leaves the key lane stale; pred re-verification
        // keeps the stale slot from matching.
        a.invalidate(0, 1);
        assert_eq!(a.find_keyed(0, 7, |&e| e == 71), None);
        assert_eq!(a.find_keyed(0, 7, |_| true), Some(3));
        assert_eq!(a.find_keyed(0, 8, |_| true), None);
    }
}
