//! A conventional write-back, data-carrying cache.

use crate::{CacheGeometry, CacheStats, TagArray};
use dg_mem::{BlockAddr, BlockData};
use dg_obs::{enabled, Hist64, Level};

/// Tag-side state of one valid cache line.
///
/// The 64-byte block contents live in a parallel per-slot data array
/// inside [`ConventionalCache`], mirroring the decoupled tag/data
/// organisation of real caches. Keeping `Line` to 16 bytes means a
/// tag-match scan walks a dense tag vector instead of striding over
/// full 80-byte lines — the innermost loop of every simulated access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    tag: u64,
    /// Whether the line has been written since it was filled.
    pub dirty: bool,
}

/// A line displaced from a cache by an insertion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Evicted {
    /// The displaced block's address.
    pub addr: BlockAddr,
    /// Whether the block must be written back.
    pub dirty: bool,
    /// The displaced block's contents. Meaningful only when `dirty`:
    /// [`ConventionalCache::fill`] never copies out a clean victim's
    /// bytes.
    pub data: BlockData,
}

/// A conventional set-associative, write-back, allocate-on-miss cache.
///
/// This models the paper's baseline 2 MB LLC, the 1 MB precise LLC
/// partition of the split design, and — with smaller geometries — the
/// private L1 and L2 levels (Table 1).
///
/// The cache is a passive container: it answers hits, accepts fills and
/// reports evictions. Miss handling (fetching from the next level) is
/// composed by the hierarchy in `dg-system`.
///
/// # Example
///
/// ```
/// use dg_cache::{CacheGeometry, ConventionalCache};
/// use dg_mem::{BlockAddr, BlockData};
///
/// let mut c = ConventionalCache::new(CacheGeometry::from_capacity(16 * 1024, 4));
/// let addr = BlockAddr(7);
/// assert!(c.read(addr).is_none());                       // cold miss
/// c.fill(addr, BlockData::zeroed());
/// assert!(c.read(addr).is_some());                       // now hits
/// ```
#[derive(Debug)]
pub struct ConventionalCache {
    array: TagArray<Line>,
    /// Block contents, one slot per `(set, way)` (`set * ways + way`);
    /// a slot is meaningful only while the matching tag entry is valid.
    data: Vec<BlockData>,
    /// Per-set MRU way hint checked before the full set scan. Purely an
    /// accelerator: a stale hint fails the tag compare and falls back,
    /// and because tags are unique within a set the predicted way is
    /// always the way the scan would find — observable behaviour is
    /// identical with or without the hint.
    mru: Vec<u32>,
    stats: CacheStats,
    /// Distribution of per-set occupancy sampled at each fill, recorded
    /// only at `Level::Metrics` and above. Observation-only: never read
    /// by the cache itself.
    occupancy: Hist64,
}

impl ConventionalCache {
    /// An empty cache with the given geometry and LRU replacement.
    pub fn new(geom: CacheGeometry) -> Self {
        let data = vec![BlockData::zeroed(); geom.entries()];
        ConventionalCache {
            array: TagArray::new(geom),
            data,
            mru: vec![0; geom.sets()],
            stats: CacheStats::default(),
            occupancy: Hist64::new(),
        }
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.array.geometry().ways() + way
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.array.geometry()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.occupancy = Hist64::new();
    }

    /// Distribution of per-set occupancy at fill time (empty unless the
    /// run was profiled at `Level::Metrics` or above).
    pub fn occupancy_hist(&self) -> &Hist64 {
        &self.occupancy
    }

    /// Sample the occupancy of `set` after a fill. Out of line so the
    /// fill paths only pay the level check when profiling is off.
    #[cold]
    fn record_occupancy(&mut self, set: usize) {
        self.occupancy.record(self.array.occupancy(set) as u64);
    }

    /// Check the set's MRU way hint before committing to a full scan.
    #[inline]
    fn predict(&self, set: usize, tag: u64) -> Option<usize> {
        let way = self.mru[set] as usize;
        match self.array.get(set, way) {
            Some(l) if l.tag == tag => Some(way),
            _ => None,
        }
    }

    /// Locate `addr` without touching stats or LRU (shared access; the
    /// MRU hint is probed read-only).
    fn locate(&self, addr: BlockAddr) -> Option<usize> {
        let set = self.array.geometry().set_of(addr);
        let tag = self.array.geometry().tag_of(addr);
        self.predict(set, tag)
            .or_else(|| self.array.find_keyed(set, tag, |l| l.tag == tag))
    }

    /// Locate `addr`, refreshing the MRU way hint on a hit. No stats or
    /// LRU update. Returns `(set, way)` hits so callers skip recomputing
    /// the set index. The MRU-way compare is inline in every caller;
    /// the set scan is one call away.
    #[inline(always)]
    fn locate_mut(&mut self, addr: BlockAddr) -> Option<(usize, usize)> {
        let set = self.array.geometry().set_of(addr);
        let tag = self.array.geometry().tag_of(addr);
        if let Some(way) = self.predict(set, tag) {
            return Some((set, way));
        }
        Some((set, self.scan_set(set, tag)?))
    }

    /// The MRU-hint miss of [`Self::locate_mut`].
    #[inline(never)]
    fn scan_set(&mut self, set: usize, tag: u64) -> Option<usize> {
        // Plain scan, not the generation-stamped memo: the private
        // levels probe each block exactly once per access
        // (probe-then-fill, never probe-twice), so a memo never hits
        // here and its bookkeeping is pure per-probe overhead. The
        // repeat-lookup pattern the memo serves lives in the
        // Doppelgänger locate paths.
        let way = self.array.find_keyed(set, tag, |l| l.tag == tag)?;
        self.mru[set] = way as u32;
        Some(way)
    }

    /// Locate `addr` as an access: a hit touches LRU and counts, a miss
    /// counts — the probe every read and write entry point shares.
    #[inline(always)]
    fn probe(&mut self, addr: BlockAddr) -> Option<(usize, usize)> {
        let found = self.locate_mut(addr);
        match found {
            Some((set, way)) => {
                self.array.touch(set, way);
                self.stats.record_hit();
            }
            None => self.stats.record_miss(),
        }
        found
    }

    /// Whether `addr` is present (no stats or LRU update).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.locate(addr).is_some()
    }

    /// Read `addr`: on a hit, returns the block and updates LRU/stats;
    /// on a miss, records the miss and returns `None`.
    pub fn read(&mut self, addr: BlockAddr) -> Option<BlockData> {
        let (set, way) = self.probe(addr)?;
        Some(self.data[self.slot(set, way)])
    }

    /// Read bytes `[offset, offset+buf.len())` of a resident block into
    /// `buf`: on a hit, copies the bytes and updates LRU/stats exactly
    /// like [`Self::read`]; on a miss, records the miss and returns
    /// `false`. The hot path of every simulated load — avoids copying
    /// the full 64-byte block out of the array, and is always inlined
    /// so a fixed-size `buf` is moved at its width.
    #[inline(always)]
    pub fn read_bytes(&mut self, addr: BlockAddr, offset: usize, buf: &mut [u8]) -> bool {
        match self.probe(addr) {
            Some((set, way)) => {
                self.data[self.slot(set, way)].read_at(offset, buf);
                true
            }
            None => false,
        }
    }

    /// Write the full block at `addr`: on a hit, updates the data, sets
    /// the dirty bit and returns `true`; on a miss returns `false`
    /// (write-allocate is composed by the caller via [`Self::fill`]).
    pub fn write(&mut self, addr: BlockAddr, data: BlockData) -> bool {
        match self.probe(addr) {
            Some((set, way)) => {
                self.array.get_mut(set, way).expect("located way is valid").dirty = true;
                let slot = self.slot(set, way);
                self.data[slot].copy_from(&data);
                true
            }
            None => false,
        }
    }

    /// Update bytes `[offset, offset+bytes.len())` of a resident block,
    /// setting its dirty bit. Returns `false` on a miss (no stats).
    pub fn write_bytes(&mut self, addr: BlockAddr, offset: usize, bytes: &[u8]) -> bool {
        match self.locate_mut(addr) {
            Some((set, way)) => {
                self.write_at(set, way, addr, offset, bytes);
                true
            }
            None => false,
        }
    }

    /// Probe for a store: on a hit, updates LRU/stats exactly like
    /// [`Self::read`] and returns the line's `(set, way)` and current
    /// dirty bit for a follow-up [`Self::write_at`]; on a miss, records
    /// the miss and returns `None`. Splitting probe from write lets the
    /// caller run coherence actions in between without re-scanning the
    /// set (and skip them entirely when the dirty bit proves ownership).
    #[inline(always)]
    pub fn write_probe(&mut self, addr: BlockAddr) -> Option<(usize, usize, bool)> {
        let (set, way) = self.probe(addr)?;
        let dirty = self.array.get(set, way).expect("located way is valid").dirty;
        Some((set, way, dirty))
    }

    /// Update bytes of the line at `(set, way)` — previously located by
    /// [`Self::write_probe`] for `addr` — setting its dirty bit and
    /// touching LRU; [`Self::write_bytes`] minus the set scan. Always
    /// inlined, like [`Self::read_bytes`].
    #[inline(always)]
    pub fn write_at(&mut self, set: usize, way: usize, addr: BlockAddr, offset: usize, bytes: &[u8]) {
        let tag = self.array.geometry().tag_of(addr);
        self.array.touch(set, way);
        let line = self.array.get_mut(set, way).expect("probed way is valid");
        debug_assert_eq!(line.tag, tag, "line moved since probe");
        line.dirty = true;
        let slot = self.slot(set, way);
        self.data[slot].write_at(offset, bytes);
    }

    /// Insert a clean copy of `addr` (a fill from the next level),
    /// evicting if needed: [`Self::fill_ref_lazy`] with the victim
    /// returned by value. Its `data` is copied out only when it is dirty.
    pub fn fill(&mut self, addr: BlockAddr, data: BlockData) -> Option<Evicted> {
        let mut victim = BlockData::zeroed();
        let (addr, dirty) = self.fill_ref_lazy(addr, &data, &mut victim)?;
        Some(Evicted { addr, dirty, data: victim })
    }

    /// Insert a clean copy of `addr`, evicting if needed, and report the
    /// victim's address and dirty bit. Its 64 bytes are copied into
    /// `victim_buf` only when dirty — clean victims need no writeback,
    /// so their data is never read. A block that must land dirty is
    /// filled and then marked ([`Self::mark_dirty`]).
    ///
    /// Fills must be misses: filling a resident block panics in debug
    /// builds (release builds skip the check — it would re-scan the set
    /// on every fill, and all hierarchy callers fill only after a miss).
    pub fn fill_ref_lazy(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        victim_buf: &mut BlockData,
    ) -> Option<(BlockAddr, bool)> {
        debug_assert!(self.locate(addr).is_none(), "fill of a resident block");
        let geom = *self.array.geometry();
        let set = geom.set_of(addr);
        let line = Line { tag: geom.tag_of(addr), dirty: false };
        self.stats.record_insertion();
        let way = self.array.victim_way(set);
        let old = self.array.insert_at_keyed(set, way, line.tag, line);
        self.mru[set] = way as u32;
        let slot = self.slot(set, way);
        let out = old.map(|l| {
            self.stats.record_eviction(l.dirty);
            if l.dirty {
                victim_buf.copy_from(&self.data[slot]);
            }
            (geom.block_addr(l.tag, set), l.dirty)
        });
        self.data[slot].copy_from(data);
        if enabled(Level::Metrics) {
            self.record_occupancy(set);
        }
        out
    }

    /// Remove `addr` if present, returning its final state (used for
    /// back-invalidations and inclusion enforcement).
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let (set, way) = self.locate_mut(addr)?;
        let line = self.array.invalidate(set, way).expect("located way is valid");
        self.stats.record_invalidation();
        Some(Evicted { addr, dirty: line.dirty, data: self.data[self.slot(set, way)] })
    }

    /// The resident block's data, if present (no stats or LRU update).
    pub fn peek(&self, addr: BlockAddr) -> Option<&BlockData> {
        let set = self.array.geometry().set_of(addr);
        self.locate(addr).map(|way| &self.data[self.slot(set, way)])
    }

    /// The resident block's data and dirty bit, if present (no stats or
    /// LRU update). Used by coherence to pull a modified copy.
    pub fn peek_line(&self, addr: BlockAddr) -> Option<(&BlockData, bool)> {
        let set = self.array.geometry().set_of(addr);
        self.locate(addr).map(|way| {
            let dirty = self.array.get(set, way).expect("valid").dirty;
            (&self.data[self.slot(set, way)], dirty)
        })
    }

    /// Clear a resident block's dirty bit (an M → S downgrade after the
    /// modified copy was written back). Returns `false` on a miss.
    pub fn clear_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.locate_mut(addr) {
            Some((set, way)) => {
                self.array.get_mut(set, way).expect("valid").dirty = false;
                true
            }
            None => false,
        }
    }

    /// Mark a resident block dirty (e.g. on an upper-level writeback hit).
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.locate_mut(addr) {
            Some((set, way)) => {
                self.array.get_mut(set, way).expect("valid").dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Iterate over resident blocks as `(addr, dirty, &data)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, &BlockData)> {
        let geom = *self.array.geometry();
        self.array.iter().map(move |(set, way, line)| {
            let slot = set * geom.ways() + way;
            (geom.block_addr(line.tag, set), line.dirty, &self.data[slot])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::ElemType;

    fn tiny() -> ConventionalCache {
        // 2 sets x 2 ways.
        ConventionalCache::new(CacheGeometry::from_entries(4, 2))
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F64, &[v])
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(c.read(BlockAddr(0)).is_none());
        c.fill(BlockAddr(0), blk(1.0));
        assert_eq!(c.read(BlockAddr(0)), Some(blk(1.0)));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn write_hit_sets_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.fill(BlockAddr(0), blk(1.0));
        assert!(c.write(BlockAddr(0), blk(2.0)));
        // Fill two more blocks mapping to set 0 (even block addresses).
        c.fill(BlockAddr(2), blk(3.0));
        let ev = c.fill(BlockAddr(4), blk(4.0)).expect("set 0 is full");
        assert_eq!(ev.addr, BlockAddr(0));
        assert!(ev.dirty);
        assert_eq!(ev.data, blk(2.0));
    }

    #[test]
    fn clean_eviction_not_dirty() {
        let mut c = tiny();
        c.fill(BlockAddr(0), blk(1.0));
        c.fill(BlockAddr(2), blk(2.0));
        let ev = c.fill(BlockAddr(4), blk(3.0)).unwrap();
        assert!(!ev.dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 0);
    }

    #[test]
    fn write_miss_returns_false() {
        let mut c = tiny();
        assert!(!c.write(BlockAddr(0), blk(1.0)));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_bytes_partial_update() {
        let mut c = tiny();
        c.fill(BlockAddr(0), blk(1.0));
        let newv = 9.0f64.to_le_bytes();
        assert!(c.write_bytes(BlockAddr(0), 8, &newv));
        let got = c.peek(BlockAddr(0)).unwrap();
        assert_eq!(got.elem(ElemType::F64, 0), 1.0);
        assert_eq!(got.elem(ElemType::F64, 1), 9.0);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.fill(BlockAddr(0), blk(1.0));
        c.write(BlockAddr(0), blk(2.0));
        let inv = c.invalidate(BlockAddr(0)).unwrap();
        assert!(inv.dirty);
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.invalidate(BlockAddr(0)).is_none());
    }

    #[test]
    #[cfg(debug_assertions)] // the double-fill guard is debug-only
    #[should_panic(expected = "fill of a resident block")]
    fn double_fill_rejected() {
        let mut c = tiny();
        c.fill(BlockAddr(0), blk(1.0));
        c.fill(BlockAddr(0), blk(2.0));
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        c.fill(BlockAddr(0), blk(1.0));
        c.fill(BlockAddr(2), blk(2.0));
        // Touch block 0 so block 2 is LRU.
        c.read(BlockAddr(0));
        let ev = c.fill(BlockAddr(4), blk(3.0)).unwrap();
        assert_eq!(ev.addr, BlockAddr(2));
    }

    #[test]
    fn iter_blocks_round_trips_addresses() {
        let mut c = tiny();
        c.fill(BlockAddr(5), blk(1.0));
        c.fill(BlockAddr(10), blk(2.0));
        let mut addrs: Vec<u64> = c.iter_blocks().map(|(a, _, _)| a.0).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![5, 10]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn mark_dirty_on_resident() {
        let mut c = tiny();
        c.fill(BlockAddr(1), blk(1.0));
        assert!(c.mark_dirty(BlockAddr(1)));
        assert!(!c.mark_dirty(BlockAddr(3)));
        let ev = c.invalidate(BlockAddr(1)).unwrap();
        assert!(ev.dirty);
    }
}
