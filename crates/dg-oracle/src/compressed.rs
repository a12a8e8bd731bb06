//! Reference compressed cache: a deliberately naive transliteration of
//! `dg_cache::CompressedCache`.
//!
//! Same architectural contract — superblock tags, segment-granular BΔI
//! data array, global-LRU block replacement — implemented the slow,
//! obvious way:
//!
//! * every lookup is a full scan of the set's tag ways (no search
//!   shortcuts);
//! * the segment allocator is an **explicit per-segment owner list**
//!   (`Vec<Option<(way, sub)>>` per set), allocated first-fit and freed
//!   by scanning for the owner — where the optimized engine keeps only
//!   a free-segment *count*, exploiting that segments are fungible. The
//!   two must agree on every observable (counters, victims, eviction
//!   order), which is exactly what the lockstep harness checks;
//! * address arithmetic uses division and remainder, not the shift/mask
//!   forms.
//!
//! Victim rules (shared spec with the optimized engine): a superblock
//! needing a tag takes the first matching way, else the first free way,
//! else evicts the tag with the stalest `last_use` (first minimum,
//! ascending way scan) wholesale in sub-block order; segment pressure
//! evicts the stalest block (first minimum in `(way, sub)` scan order).

use crate::llc::OracleArray;
use dg_cache::{CompStats, CompressedConfig, Evicted};
use dg_compress::bdi;
use dg_mem::{ApproxRegion, BlockAddr, BlockData};
use dg_system::{LlcArray, LlcCounters};

#[derive(Debug)]
struct OBlock {
    dirty: bool,
    seg_count: usize,
    last_use: u64,
    data: BlockData,
}

#[derive(Debug)]
struct OTag {
    sb_tag: u64,
    last_use: u64,
    blocks: Vec<Option<OBlock>>,
}

impl OTag {
    fn live_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }
}

#[derive(Debug)]
struct OSet {
    tags: Vec<Option<OTag>>,
    /// One entry per data segment, naming the `(way, sub)` that owns it
    /// (`None` = free). The explicit form of the allocator state.
    segs: Vec<Option<(usize, usize)>>,
}

impl OSet {
    fn free_segments(&self) -> usize {
        self.segs.iter().filter(|s| s.is_none()).count()
    }

    /// First-fit: mark `count` free segments as owned by `owner`.
    fn alloc_segments(&mut self, owner: (usize, usize), count: usize) {
        let mut left = count;
        for slot in self.segs.iter_mut() {
            if left == 0 {
                break;
            }
            if slot.is_none() {
                *slot = Some(owner);
                left -= 1;
            }
        }
        assert_eq!(left, 0, "oracle segment allocator out of space");
    }

    /// Free every segment owned by `owner`.
    fn free_all(&mut self, owner: (usize, usize)) {
        for slot in self.segs.iter_mut() {
            if *slot == Some(owner) {
                *slot = None;
            }
        }
    }

    /// Free `count` segments owned by `owner`, highest-indexed first
    /// (a dirty re-compression that shrank).
    fn free_some(&mut self, owner: (usize, usize), count: usize) {
        let mut left = count;
        for slot in self.segs.iter_mut().rev() {
            if left == 0 {
                break;
            }
            if *slot == Some(owner) {
                *slot = None;
                left -= 1;
            }
        }
        assert_eq!(left, 0, "oracle freed more segments than owned");
    }
}

/// Reference implementation of `dg_cache::CompressedCache`.
#[derive(Debug)]
pub struct OracleCompressed {
    cfg: CompressedConfig,
    sets: Vec<OSet>,
    stamp: u64,
    stats: CompStats,
}

impl OracleCompressed {
    /// An empty cache with the given (validated) shape.
    pub fn new(cfg: CompressedConfig) -> Self {
        cfg.validate().expect("invalid CompressedConfig");
        let sets = (0..cfg.sets)
            .map(|_| OSet {
                tags: (0..cfg.tag_ways).map(|_| None).collect(),
                segs: vec![None; cfg.segments_per_set()],
            })
            .collect();
        OracleCompressed { cfg, sets, stamp: 0, stats: CompStats::default() }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CompStats {
        &self.stats
    }

    fn sub_of(&self, addr: BlockAddr) -> usize {
        (addr.0 % self.cfg.sb_blocks as u64) as usize
    }

    fn set_of(&self, addr: BlockAddr) -> usize {
        ((addr.0 / self.cfg.sb_blocks as u64) % self.cfg.sets as u64) as usize
    }

    fn sb_tag_of(&self, addr: BlockAddr) -> u64 {
        (addr.0 / self.cfg.sb_blocks as u64) / self.cfg.sets as u64
    }

    fn block_addr(&self, sb_tag: u64, set: usize, sub: usize) -> BlockAddr {
        BlockAddr(
            (sb_tag * self.cfg.sets as u64 + set as u64) * self.cfg.sb_blocks as u64 + sub as u64,
        )
    }

    /// Full-scan locate; no stats or LRU effects.
    fn locate(&self, addr: BlockAddr) -> Option<(usize, usize, usize)> {
        let set = self.set_of(addr);
        let sb_tag = self.sb_tag_of(addr);
        let sub = self.sub_of(addr);
        for way in 0..self.cfg.tag_ways {
            if let Some(tag) = &self.sets[set].tags[way] {
                if tag.sb_tag == sb_tag && tag.blocks[sub].is_some() {
                    return Some((set, way, sub));
                }
            }
        }
        None
    }

    /// Remove `addr` if present (no LRU effects).
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let (set, way, sub) = self.locate(addr)?;
        let tag = self.sets[set].tags[way].as_mut().expect("located");
        let blk = tag.blocks[sub].take().expect("located");
        if tag.live_blocks() == 0 {
            self.sets[set].tags[way] = None;
        }
        self.sets[set].free_all((way, sub));
        self.stats.invalidations += 1;
        Some(Evicted { addr, dirty: blk.dirty, data: blk.data })
    }

    fn len(&self) -> usize {
        self.sets.iter().flat_map(|s| s.tags.iter().flatten()).map(|t| t.live_blocks()).sum()
    }

    /// Resident blocks in `(set, way, sub)` order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, &BlockData)> {
        self.sets.iter().enumerate().flat_map(move |(set, s)| {
            s.tags.iter().flat_map(move |slot| {
                slot.iter().flat_map(move |tag| {
                    tag.blocks.iter().enumerate().filter_map(move |(sub, b)| {
                        b.as_ref()
                            .map(|b| (self.block_addr(tag.sb_tag, set, sub), b.dirty, &b.data))
                    })
                })
            })
        })
    }

    fn evict_tag(&mut self, set: usize, way: usize, emit: &mut dyn FnMut(Evicted)) {
        let tag = self.sets[set].tags[way].take().expect("evicting a valid tag");
        for (sub, blk) in tag.blocks.into_iter().enumerate() {
            if let Some(blk) = blk {
                self.stats.evictions += 1;
                if blk.dirty {
                    self.stats.dirty_evictions += 1;
                }
                self.sets[set].free_all((way, sub));
                emit(Evicted {
                    addr: self.block_addr(tag.sb_tag, set, sub),
                    dirty: blk.dirty,
                    data: blk.data,
                });
            }
        }
    }

    fn evict_lru_block(
        &mut self,
        set: usize,
        exclude: Option<(usize, usize)>,
        pin_way: Option<usize>,
        expansion: bool,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        let mut victim: Option<(usize, usize)> = None;
        let mut best = u64::MAX;
        for way in 0..self.cfg.tag_ways {
            let Some(tag) = &self.sets[set].tags[way] else { continue };
            for (sub, blk) in tag.blocks.iter().enumerate() {
                let Some(blk) = blk else { continue };
                if exclude == Some((way, sub)) {
                    continue;
                }
                if blk.last_use < best {
                    best = blk.last_use;
                    victim = Some((way, sub));
                }
            }
        }
        let Some((way, sub)) = victim else { return false };
        let tag = self.sets[set].tags[way].as_mut().expect("victim tag");
        let blk = tag.blocks[sub].take().expect("victim block");
        let sb_tag = tag.sb_tag;
        if tag.live_blocks() == 0 && pin_way != Some(way) {
            self.sets[set].tags[way] = None;
        }
        self.sets[set].free_all((way, sub));
        self.stats.evictions += 1;
        if blk.dirty {
            self.stats.dirty_evictions += 1;
        }
        if expansion {
            self.stats.expansion_evictions += 1;
        }
        emit(Evicted { addr: self.block_addr(sb_tag, set, sub), dirty: blk.dirty, data: blk.data });
        true
    }
}

impl LlcArray for OracleCompressed {
    fn lookup(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.stats.tag_accesses += 1;
        match self.locate(addr) {
            Some((set, way, sub)) => {
                self.stamp += 1;
                let tag = self.sets[set].tags[way].as_mut().expect("located");
                tag.last_use = self.stamp;
                let blk = tag.blocks[sub].as_mut().expect("located");
                blk.last_use = self.stamp;
                self.stats.hits += 1;
                self.stats.decompressions += 1;
                self.stats.data_seg_accesses += blk.seg_count as u64;
                Some(blk.data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn write(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        _: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        self.stats.tag_accesses += 1;
        let Some((set, way, sub)) = self.locate(addr) else {
            self.stats.misses += 1;
            return false;
        };
        self.stats.hits += 1;
        let comp = bdi::compress(data);
        let stored = bdi::decompress(&comp);
        let new_segs = self.cfg.segments_for(comp.size_bytes());
        self.stats.recompressions += 1;
        let old_segs =
            self.sets[set].tags[way].as_ref().expect("located").blocks[sub].as_ref().expect("located").seg_count;
        if new_segs > old_segs {
            while self.sets[set].free_segments() < new_segs - old_segs {
                let found = self.evict_lru_block(set, Some((way, sub)), Some(way), true, emit);
                assert!(found, "oracle compressed set cannot satisfy segment demand");
            }
            self.sets[set].alloc_segments((way, sub), new_segs - old_segs);
        } else {
            self.sets[set].free_some((way, sub), old_segs - new_segs);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let tag = self.sets[set].tags[way].as_mut().expect("located");
        tag.last_use = stamp;
        let blk = tag.blocks[sub].as_mut().expect("located");
        blk.data = stored;
        blk.dirty = true;
        blk.seg_count = new_segs;
        blk.last_use = stamp;
        self.stats.data_seg_accesses += new_segs as u64;
        true
    }

    /// Evicts a conflicting superblock and/or LRU blocks as needed.
    fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        _: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) {
        assert!(self.locate(addr).is_none(), "oracle fill of a resident block");
        let comp = bdi::compress(data);
        let stored = bdi::decompress(&comp);
        let segs = self.cfg.segments_for(comp.size_bytes());
        self.stats.compressions += 1;
        self.stats.fill_bytes += comp.size_bytes() as u64;
        self.stats.fill_segments += segs as u64;
        self.stats.insertions += 1;

        let set = self.set_of(addr);
        let sb_tag = self.sb_tag_of(addr);
        let sub = self.sub_of(addr);

        // 1. Tag acquisition: match, free way, or stalest-tag eviction.
        let mut way = None;
        for w in 0..self.cfg.tag_ways {
            if let Some(tag) = &self.sets[set].tags[w] {
                if tag.sb_tag == sb_tag {
                    way = Some(w);
                    break;
                }
            }
        }
        let way = match way {
            Some(w) => w,
            None => {
                let mut free = None;
                for w in 0..self.cfg.tag_ways {
                    if self.sets[set].tags[w].is_none() {
                        free = Some(w);
                        break;
                    }
                }
                let w = match free {
                    Some(w) => w,
                    None => {
                        let mut victim = 0;
                        let mut best = u64::MAX;
                        for w in 0..self.cfg.tag_ways {
                            let t = self.sets[set].tags[w].as_ref().expect("no free way");
                            if t.last_use < best {
                                best = t.last_use;
                                victim = w;
                            }
                        }
                        self.evict_tag(set, victim, emit);
                        self.stats.tag_evictions += 1;
                        victim
                    }
                };
                self.sets[set].tags[w] = Some(OTag {
                    sb_tag,
                    last_use: 0,
                    blocks: (0..self.cfg.sb_blocks).map(|_| None).collect(),
                });
                w
            }
        };

        // 2. Segment reservation under LRU pressure (incoming tag way
        //    pinned).
        while self.sets[set].free_segments() < segs {
            let found = self.evict_lru_block(set, None, Some(way), false, emit);
            assert!(found, "oracle compressed set cannot satisfy segment demand");
        }
        self.sets[set].alloc_segments((way, sub), segs);

        // 3. Install.
        self.stamp += 1;
        let stamp = self.stamp;
        let tag = self.sets[set].tags[way].as_mut().expect("acquired above");
        tag.last_use = stamp;
        tag.blocks[sub] = Some(OBlock { dirty, seg_count: segs, last_use: stamp, data: stored });
        self.stats.data_seg_accesses += segs as u64;
    }

    fn contains(&self, addr: BlockAddr) -> bool {
        self.locate(addr).is_some()
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        OracleCompressed::invalidate(self, addr);
    }

    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().for_each(|(a, _, d)| f(a, d));
    }

    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData)) {
        let dirty: Vec<BlockAddr> =
            self.iter_blocks().filter(|(_, d, _)| *d).map(|(a, _, _)| a).collect();
        for addr in dirty {
            let (set, way, sub) = self.locate(addr).expect("dirty block is resident");
            let blk = self.sets[set].tags[way].as_mut().expect("located").blocks[sub]
                .as_mut()
                .expect("located");
            blk.dirty = false;
            sink(addr, blk.data);
        }
    }

    fn reset_stats(&mut self) {
        self.stats = CompStats::default();
    }

    fn add_counters(&self, c: &mut LlcCounters) {
        c.comp += self.stats;
        c.lookups += self.stats.accesses();
        c.hits += self.stats.hits;
    }

    /// The explicit segment lists must be consistent with the
    /// per-block footprints, and no empty tag may linger.
    fn check_invariants(&self) {
        for (si, set) in self.sets.iter().enumerate() {
            for (way, slot) in set.tags.iter().enumerate() {
                let Some(tag) = slot else { continue };
                assert!(tag.live_blocks() > 0, "oracle set {si}: empty resident tag");
                for (sub, blk) in tag.blocks.iter().enumerate() {
                    let Some(blk) = blk else { continue };
                    let owned = set.segs.iter().filter(|s| **s == Some((way, sub))).count();
                    assert_eq!(
                        owned, blk.seg_count,
                        "oracle set {si} way {way} sub {sub}: owner list disagrees with footprint"
                    );
                    let again = self.cfg.segments_for(bdi::compress(&blk.data).size_bytes());
                    assert_eq!(again, blk.seg_count, "oracle set {si}: stale footprint");
                }
            }
            // Every owner must name a live block.
            for owner in set.segs.iter().flatten() {
                let (way, sub) = *owner;
                let live = set.tags[way].as_ref().is_some_and(|t| t.blocks[sub].is_some());
                assert!(live, "oracle set {si}: segment owned by a dead block {owner:?}");
            }
        }
    }
}

impl OracleArray for OracleCompressed {
    fn check_conservation(&self) {
        let s = self.stats;
        assert_eq!(
            s.insertions,
            self.len() as u64 + s.evictions + s.invalidations,
            "compressed: insertions != resident + evictions + invalidations ({s:?})"
        );
        assert_eq!(s.compressions, s.insertions, "compressed: every fill compresses once");
        assert_eq!(
            s.decompressions + s.recompressions,
            s.hits,
            "compressed: every hit is one codec pass ({s:?})"
        );
        assert!(s.dirty_evictions <= s.evictions, "compressed: dirty evictions exceed evictions");
        assert!(
            s.expansion_evictions <= s.evictions,
            "compressed: expansion evictions exceed evictions"
        );
        assert!(s.tag_evictions <= s.evictions, "compressed: tag evictions exceed evictions");
        assert!(s.fill_segments >= s.insertions, "compressed: fills must take >= 1 segment");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::ElemType;

    fn tiny() -> OracleCompressed {
        OracleCompressed::new(CompressedConfig {
            data_bytes: 256,
            sets: 2,
            tag_ways: 2,
            sb_blocks: 2,
            segment_bytes: 8,
        })
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F64, &[v; 8])
    }

    #[test]
    fn mirrors_basic_fill_read_write() {
        let mut o = tiny();
        let mut ev = Vec::new();
        assert!(o.lookup(BlockAddr(0)).is_none());
        o.fill(BlockAddr(0), &blk(2.0), false, None, &mut |e| ev.push(e));
        assert_eq!(o.lookup(BlockAddr(0)), Some(blk(2.0)));
        assert!(o.write(BlockAddr(0), &blk(3.0), None, &mut |e| ev.push(e)));
        assert!(ev.is_empty());
        let inv = o.invalidate(BlockAddr(0)).unwrap();
        assert!(inv.dirty);
        assert_eq!(inv.data, blk(3.0));
        assert_eq!(o.len(), 0);
        o.check_invariants();
    }

    /// The real gate: drive the oracle and the optimized engine with an
    /// identical deterministic access mix and demand bit-identical
    /// counters, eviction sequences, and resident state.
    #[test]
    fn agrees_with_optimized_engine_on_mixed_traffic() {
        // 16 segments/set against a 32-segment tag reach, so segment
        // pressure (not just tag conflict) drives evictions.
        let cfg = CompressedConfig {
            data_bytes: 512,
            sets: 4,
            tag_ways: 2,
            sb_blocks: 2,
            segment_bytes: 8,
        };
        let mut fast = dg_cache::CompressedCache::new(cfg);
        let mut slow = OracleCompressed::new(cfg);
        let mut x = 0x2545f4914f6cdd1du64;
        for i in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // High bits for the address so it doesn't alias the low-bit
            // op/payload selectors (48 is divisible by 4).
            let addr = BlockAddr((x >> 16) % 48);
            // Mix compressible and incompressible payloads.
            let data = if x & 2 == 0 {
                blk((x % 11) as f64)
            } else {
                let mut vals = [0.0f64; 8];
                for (j, v) in vals.iter_mut().enumerate() {
                    *v = f64::from_bits(x.rotate_left(j as u32 * 9 + 3) | 1);
                }
                BlockData::from_values(ElemType::F64, &vals)
            };
            let mut ev_fast = Vec::new();
            let mut ev_slow = Vec::new();
            match x % 4 {
                0 | 1 => {
                    let a = fast.read(addr);
                    let b = slow.lookup(addr);
                    assert_eq!(a, b, "read {i}");
                    if a.is_none() {
                        fast.fill(addr, &data, false, &mut |e| ev_fast.push(e));
                        slow.fill(addr, &data, false, None, &mut |e| ev_slow.push(e));
                    }
                }
                2 => {
                    let a = fast.write(addr, &data, &mut |e| ev_fast.push(e));
                    let b = slow.write(addr, &data, None, &mut |e| ev_slow.push(e));
                    assert_eq!(a, b, "write {i}");
                }
                _ => {
                    let a = fast.invalidate(addr);
                    let b = slow.invalidate(addr);
                    assert_eq!(a.is_some(), b.is_some(), "invalidate {i}");
                    if let (Some(a), Some(b)) = (a, b) {
                        assert_eq!((a.addr, a.dirty, a.data), (b.addr, b.dirty, b.data));
                    }
                }
            }
            assert_eq!(ev_fast.len(), ev_slow.len(), "eviction count at access {i}");
            for (a, b) in ev_fast.iter().zip(&ev_slow) {
                assert_eq!((a.addr, a.dirty, a.data), (b.addr, b.dirty, b.data), "access {i}");
            }
            if i % 256 == 0 {
                assert_eq!(fast.stats(), slow.stats(), "stats at access {i}");
                fast.check_invariants();
                slow.check_invariants();
                let f: Vec<_> = fast.iter_blocks().map(|(a, d, v)| (a, d, *v)).collect();
                let s: Vec<_> = slow.iter_blocks().map(|(a, d, v)| (a, d, *v)).collect();
                assert_eq!(f, s, "resident state at access {i}");
            }
        }
        assert_eq!(fast.stats(), slow.stats());
        assert!(fast.stats().evictions > 0, "workload never stressed eviction");
        assert!(fast.stats().expansion_evictions > 0, "workload never grew a block");
        assert!(fast.stats().tag_evictions > 0, "workload never displaced a tag");
    }
}
