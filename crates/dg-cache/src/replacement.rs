//! Per-set replacement bookkeeping.

/// Least-recently-used replacement, the paper's policy for every array
/// (Table 1).
///
/// # Example
///
/// ```
/// use dg_cache::Lru;
/// let mut lru = Lru::new(1, 4);
/// for w in 0..4 { lru.touch(0, w); }
/// lru.touch(0, 0);          // way 0 becomes most recent
/// assert_eq!(lru.victim(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    stamp: u64,
    last_use: Vec<u64>,
    ways: usize,
}

impl Lru {
    /// LRU state for `sets × ways` entries.
    pub fn new(sets: usize, ways: usize) -> Self {
        Lru { stamp: 0, last_use: vec![0; sets * ways], ways }
    }

    /// Note that `(set, way)` was accessed (hit or after fill).
    pub fn touch(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_use[set * self.ways + way] = self.stamp;
    }

    /// Note that `(set, way)` was filled with a fresh entry.
    pub fn fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    /// Choose a victim way in a full `set` ([`crate::TagArray`] prefers
    /// invalid ways before asking).
    pub fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.last_use[base + w])
            .expect("non-zero associativity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new(2, 4);
        for w in 0..4 {
            lru.fill(0, w);
        }
        lru.touch(0, 0);
        lru.touch(0, 2);
        assert_eq!(lru.victim(0), 1);
        lru.touch(0, 1);
        assert_eq!(lru.victim(0), 3);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        lru.fill(0, 0);
        lru.fill(1, 1);
        lru.fill(0, 1);
        lru.fill(1, 0);
        assert_eq!(lru.victim(0), 0);
        assert_eq!(lru.victim(1), 1);
    }
}
