//! Reference conventional cache: `Vec<Vec<Option<Line>>>`, full-set
//! scans, no MRU hints, eager victim copies.

use crate::llc::OracleArray;
use dg_cache::{CacheGeometry, CacheStats, Evicted};
use dg_mem::{ApproxRegion, BlockAddr, BlockData};
use dg_system::{LlcArray, LlcCounters};

/// One valid line in the oracle cache.
#[derive(Clone, Copy, Debug)]
struct OLine {
    tag: u64,
    dirty: bool,
    data: BlockData,
    /// LRU stamp; larger = more recently used.
    last_use: u64,
}

/// Reference implementation of `dg_cache::ConventionalCache`.
///
/// Semantics (stats, LRU, victim choice, dirty bits) are transliterated
/// from the optimized cache with every accelerator removed:
///
/// * lookups scan the whole set in ascending way order (no MRU hint,
///   no keyed tag lane);
/// * LRU is a single per-cache monotonic stamp, exactly like
///   `dg_cache::Lru` (every touch and every fill bumps it);
/// * the victim in a non-full set is the lowest invalid way, otherwise
///   the way with the smallest stamp (ties: lowest way — `min_by_key`
///   keeps the first minimum);
/// * fills copy eagerly (the optimized lazy victim read is validated by
///   omission).
#[derive(Debug)]
pub struct OracleCache {
    geom: CacheGeometry,
    sets: Vec<Vec<Option<OLine>>>,
    stamp: u64,
    stats: CacheStats,
}

impl OracleCache {
    /// An empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        OracleCache {
            geom,
            sets: vec![vec![None; geom.ways()]; geom.sets()],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.sets[set][way].as_mut().expect("touch of a valid line").last_use = self.stamp;
    }

    /// Full-set scan for `addr` (no stats, no LRU).
    fn locate(&self, addr: BlockAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        self.sets[set]
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.tag == tag))
            .map(|way| (set, way))
    }

    /// Lowest invalid way, else the smallest LRU stamp (first minimum).
    fn victim_way(&self, set: usize) -> usize {
        if let Some(w) = self.sets[set].iter().position(|l| l.is_none()) {
            return w;
        }
        (0..self.geom.ways())
            .min_by_key(|&w| self.sets[set][w].as_ref().expect("full set").last_use)
            .expect("non-zero associativity")
    }

    /// Whether `addr` is resident (no stats or LRU update).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.locate(addr).is_some()
    }

    /// Read `addr`: hit → touch + hit stat + copy; miss → miss stat.
    pub fn read(&mut self, addr: BlockAddr) -> Option<BlockData> {
        match self.locate(addr) {
            Some((set, way)) => {
                self.touch(set, way);
                self.stats.hits += 1;
                Some(self.sets[set][way].expect("located").data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Write the full block: hit → touch + hit stat + dirty + replace;
    /// miss → miss stat, `false`.
    pub fn write(&mut self, addr: BlockAddr, data: BlockData) -> bool {
        match self.locate(addr) {
            Some((set, way)) => {
                self.touch(set, way);
                self.stats.hits += 1;
                let line = self.sets[set][way].as_mut().expect("located");
                line.dirty = true;
                line.data = data;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Partial write of a resident block: touch + dirty, **no** hit
    /// stat; on a miss returns `false` with **no** stats — exactly the
    /// optimized `write_bytes`.
    pub fn write_bytes(&mut self, addr: BlockAddr, offset: usize, bytes: &[u8]) -> bool {
        match self.locate(addr) {
            Some((set, way)) => {
                self.touch(set, way);
                let line = self.sets[set][way].as_mut().expect("located");
                line.dirty = true;
                line.data.as_bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
                true
            }
            None => false,
        }
    }

    /// Store probe: hit → touch + hit stat + `(set, way, dirty)`; miss
    /// → miss stat.
    pub fn write_probe(&mut self, addr: BlockAddr) -> Option<(usize, usize, bool)> {
        match self.locate(addr) {
            Some((set, way)) => {
                self.touch(set, way);
                self.stats.hits += 1;
                Some((set, way, self.sets[set][way].expect("located").dirty))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Follow-up to [`OracleCache::write_probe`]: touches *again* (the
    /// optimized `write_at` does), sets dirty, writes the bytes.
    pub fn write_at(&mut self, set: usize, way: usize, offset: usize, bytes: &[u8]) {
        self.touch(set, way);
        let line = self.sets[set][way].as_mut().expect("probed way is valid");
        line.dirty = true;
        line.data.as_bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Insert `addr` with an explicit dirty bit, evicting if needed.
    /// Insertion stat first, then victim choice, then the fill (which
    /// counts as a touch) — the optimized order.
    pub fn fill(&mut self, addr: BlockAddr, data: &BlockData, dirty: bool) -> Option<Evicted> {
        assert!(self.locate(addr).is_none(), "fill of a resident block");
        let set = self.geom.set_of(addr);
        self.stats.insertions += 1;
        let way = self.victim_way(set);
        let out = self.sets[set][way].map(|old| {
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.dirty_evictions += 1;
            }
            Evicted { addr: self.geom.block_addr(old.tag, set), dirty: old.dirty, data: old.data }
        });
        self.stamp += 1;
        self.sets[set][way] =
            Some(OLine { tag: self.geom.tag_of(addr), dirty, data: *data, last_use: self.stamp });
        out
    }

    /// Remove `addr` if present (invalidation stat, no LRU change).
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let (set, way) = self.locate(addr)?;
        let line = self.sets[set][way].take().expect("located");
        self.stats.invalidations += 1;
        Some(Evicted { addr, dirty: line.dirty, data: line.data })
    }

    /// Data and dirty bit of a resident block (no stats or LRU).
    pub fn peek_line(&self, addr: BlockAddr) -> Option<(&BlockData, bool)> {
        let (set, way) = self.locate(addr)?;
        let line = self.sets[set][way].as_ref().expect("located");
        Some((&line.data, line.dirty))
    }

    /// Clear a resident block's dirty bit (no stats or LRU).
    pub fn clear_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.locate(addr) {
            Some((set, way)) => {
                self.sets[set][way].as_mut().expect("located").dirty = false;
                true
            }
            None => false,
        }
    }

    /// Mark a resident block dirty (no stats or LRU).
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.locate(addr) {
            Some((set, way)) => {
                self.sets[set][way].as_mut().expect("located").dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.is_some()).count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident blocks in set-major, way-ascending order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, &BlockData)> {
        let geom = self.geom;
        self.sets.iter().enumerate().flat_map(move |(set, ways)| {
            ways.iter().filter_map(move |l| {
                l.as_ref().map(|l| (geom.block_addr(l.tag, set), l.dirty, &l.data))
            })
        })
    }
}

/// The conventional LLC array (the same cache as the private levels).
impl LlcArray for OracleCache {
    fn lookup(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.read(addr)
    }

    fn write(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        _: Option<&ApproxRegion>,
        _: &mut dyn FnMut(Evicted),
    ) -> bool {
        OracleCache::write(self, addr, *data)
    }

    fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        _: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) {
        if let Some(ev) = OracleCache::fill(self, addr, data, dirty) {
            emit(ev);
        }
    }

    fn contains(&self, addr: BlockAddr) -> bool {
        OracleCache::contains(self, addr)
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        OracleCache::invalidate(self, addr);
    }

    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().for_each(|(a, _, d)| f(a, d));
    }

    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData)) {
        let geom = self.geom;
        for (set, ways) in self.sets.iter_mut().enumerate() {
            for line in ways.iter_mut().flatten().filter(|l| l.dirty) {
                line.dirty = false;
                sink(geom.block_addr(line.tag, set), line.data);
            }
        }
    }

    fn reset_stats(&mut self) {
        OracleCache::reset_stats(self);
    }

    fn add_counters(&self, c: &mut LlcCounters) {
        c.precise_tag_accesses += self.stats.accesses();
        c.precise_data_accesses += self.stats.hits + self.stats.insertions;
        c.lookups += self.stats.accesses();
        c.hits += self.stats.hits;
    }

    fn check_invariants(&self) {}
}

impl OracleArray for OracleCache {
    fn check_conservation(&self) {
        let s = self.stats;
        let resident = self.len() as u64;
        assert_eq!(
            s.insertions,
            resident + s.evictions + s.invalidations,
            "conventional LLC: insertions != resident + evictions + invalidations ({s:?})"
        );
        assert!(
            s.dirty_evictions <= s.evictions,
            "conventional LLC: dirty evictions exceed evictions"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::ElemType;

    fn tiny() -> OracleCache {
        OracleCache::new(CacheGeometry::from_entries(4, 2))
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F64, &[v])
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(c.read(BlockAddr(0)).is_none());
        c.fill(BlockAddr(0), &blk(1.0), false);
        assert_eq!(c.read(BlockAddr(0)), Some(blk(1.0)));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn lru_victim_matches_optimized() {
        let mut c = tiny();
        c.fill(BlockAddr(0), &blk(1.0), false);
        c.fill(BlockAddr(2), &blk(2.0), false);
        c.read(BlockAddr(0)); // block 2 becomes LRU
        let ev = c.fill(BlockAddr(4), &blk(3.0), false).unwrap();
        assert_eq!(ev.addr, BlockAddr(2));
        assert!(!ev.dirty);
    }

    #[test]
    fn write_bytes_records_no_stats() {
        let mut c = tiny();
        assert!(!c.write_bytes(BlockAddr(0), 0, &[1]));
        assert_eq!(c.stats().misses, 0);
        c.fill(BlockAddr(0), &blk(1.0), false);
        assert!(c.write_bytes(BlockAddr(0), 8, &9.0f64.to_le_bytes()));
        assert_eq!(c.stats().hits, 0);
        let (d, dirty) = c.peek_line(BlockAddr(0)).unwrap();
        assert!(dirty);
        assert_eq!(d.elem(ElemType::F64, 1), 9.0);
    }

    #[test]
    fn invalidate_keeps_lru_untouched() {
        let mut c = tiny();
        c.fill(BlockAddr(0), &blk(1.0), true);
        let ev = c.invalidate(BlockAddr(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().invalidations, 1);
        assert!(!c.contains(BlockAddr(0)));
    }
}
