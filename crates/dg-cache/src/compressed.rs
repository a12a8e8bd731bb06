//! A Touché-style compressed cache: superblock tags over a
//! segment-granular BΔI-compressed data array.
//!
//! Three ideas from the compression literature compose here:
//!
//! * **BΔI compression** (Pekhimenko et al., PACT 2012) shrinks each
//!   64-byte block to 1–41 bytes when its values share a base. Placing
//!   a line needs only its compressed *size*, so fills and writebacks
//!   ask `dg-compress` for the size class (`bdi::compressed_size`, one
//!   allocation-free pass) and keep the block's own bytes; the
//!   encoder/decoder pair is not run per access. It must still
//!   round-trip exactly: [`CompressedCache::check_invariants`] holds
//!   every stored block to `decompress(compress(x)) == x`, and the
//!   oracle twin stores the round-trip image itself, so a lossy codec
//!   trips the lockstep gate on the first byte it loses.
//! * **Segment-granular data array**: capacity is accounted in fixed
//!   [`CompressedConfig::segment_bytes`] segments rather than ways, so
//!   a set holds more blocks the better they compress. Segments are
//!   fungible — only the per-set free count is architecturally visible,
//!   never which physical segment holds which bytes.
//! * **Superblock tags** (Touché-style): [`CompressedConfig::sb_blocks`]
//!   neighbouring blocks share one tag entry, amortising the tag-area
//!   overhead that otherwise grows with the compression ratio. A tag is
//!   resident while at least one of its blocks is; evicting a tag
//!   displaces every block under it.
//!
//! Replacement is global-LRU within a set at block granularity, with a
//! single monotonic stamp shared by tags and blocks: a tag's stamp is
//! the newest stamp of its blocks, tag victims are the stalest tag, and
//! segment-pressure victims are the stalest block. Dirty writebacks
//! re-compress in place; a block that no longer fits evicts its set's
//! LRU blocks until it does ([`CompStats::expansion_evictions`]).
//!
//! `dg-oracle` carries a deliberately naive twin (`OracleCompressed`,
//! full scans and explicit per-segment owner lists) that must agree with
//! this engine on every counter and every displaced block.

use crate::Evicted;
use dg_compress::bdi;
use dg_mem::{BlockAddr, BlockData, BLOCK_BYTES};
use dg_obs::{enabled, Hist64, Level};
use std::fmt;

/// Geometry of a [`CompressedCache`].
///
/// All dimensions are powers of two; [`CompressedConfig::validate`]
/// rejects shapes that cannot hold even a single uncompressed block per
/// set. The usual way to build one is [`CompressedConfig::from_llc`],
/// which reinterprets a conventional `capacity × ways` budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedConfig {
    /// Total data-array capacity in bytes (matches the conventional
    /// LLC budget it replaces).
    pub data_bytes: usize,
    /// Number of tag sets.
    pub sets: usize,
    /// Superblock tag entries per set (tag-array associativity).
    pub tag_ways: usize,
    /// Neighbouring blocks sharing one tag (2–4 in Touché; 1 degrades
    /// to a per-block tag).
    pub sb_blocks: usize,
    /// Data-array allocation granule in bytes.
    pub segment_bytes: usize,
}

impl CompressedConfig {
    /// Reinterpret a conventional `capacity / ways` LLC budget as a
    /// compressed organization: same sets and data bytes, `ways`
    /// superblock tags per set, 8-byte segments.
    pub fn from_llc(llc_bytes: usize, ways: usize, sb_blocks: usize) -> Self {
        CompressedConfig {
            data_bytes: llc_bytes,
            sets: llc_bytes / (ways * BLOCK_BYTES),
            tag_ways: ways,
            sb_blocks,
            segment_bytes: 8,
        }
    }

    /// Data segments available to each set.
    pub fn segments_per_set(&self) -> usize {
        self.data_bytes / self.sets / self.segment_bytes
    }

    /// Segments an uncompressed 64-byte block occupies (the worst case).
    pub fn max_block_segments(&self) -> usize {
        BLOCK_BYTES.div_ceil(self.segment_bytes)
    }

    /// Segments needed for a block that compressed to `bytes`.
    pub fn segments_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.segment_bytes).max(1)
    }

    /// Check the shape is simulable.
    pub fn validate(&self) -> Result<(), String> {
        let pow2 = |n: usize, what: &str| -> Result<(), String> {
            if n == 0 || !n.is_power_of_two() {
                return Err(format!("{what} must be a nonzero power of two, got {n}"));
            }
            Ok(())
        };
        pow2(self.sets, "compressed sets")?;
        pow2(self.tag_ways, "compressed tag_ways")?;
        pow2(self.sb_blocks, "compressed sb_blocks")?;
        pow2(self.segment_bytes, "compressed segment_bytes")?;
        if self.sb_blocks > 8 {
            return Err(format!("sb_blocks {} exceeds 8 (tag metadata width)", self.sb_blocks));
        }
        if self.segment_bytes > BLOCK_BYTES {
            return Err(format!(
                "segment_bytes {} exceeds the {BLOCK_BYTES}-byte block",
                self.segment_bytes
            ));
        }
        if self.data_bytes % (self.sets * self.segment_bytes) != 0 {
            return Err(format!(
                "data_bytes {} not divisible by sets x segment_bytes ({} x {})",
                self.data_bytes, self.sets, self.segment_bytes
            ));
        }
        if self.segments_per_set() < self.max_block_segments() {
            return Err(format!(
                "a set's {} segments cannot hold one uncompressed block ({} segments)",
                self.segments_per_set(),
                self.max_block_segments()
            ));
        }
        Ok(())
    }
}

dg_obs::counters! {
    /// Event counters for a [`CompressedCache`].
    ///
    /// The first six fields mirror [`crate::CacheStats`]; the rest are
    /// compression-specific. All are architectural (the lockstep oracle
    /// reproduces every one).
    pub struct CompStats {
        /// Lookups that found the block resident.
        hits,
        /// Lookups that missed.
        misses,
        /// Blocks inserted by fills.
        insertions,
        /// Blocks displaced (tag eviction or segment pressure).
        evictions,
        /// Displaced blocks that were dirty.
        dirty_evictions,
        /// Blocks removed by external invalidation.
        invalidations,
        /// Whole superblock tags displaced to admit a new superblock.
        tag_evictions,
        /// Blocks displaced because a dirty re-compression grew.
        expansion_evictions,
        /// Encoder runs on fill.
        compressions,
        /// Encoder runs on a dirty-writeback re-compression.
        recompressions,
        /// Decoder runs serving read hits.
        decompressions,
        /// Superblock tag-array probes.
        tag_accesses,
        /// Data-array segments read or written.
        data_seg_accesses,
        /// Sum of exact BΔI sizes over all fills (compression-ratio
        /// numerator before segment rounding).
        fill_bytes,
        /// Sum of segment footprints over all fills (after rounding).
        fill_segments,
    }
}

impl CompStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Mean stored fraction of inserted blocks, after segment rounding
    /// (`1.0` = incompressible); `1.0` when nothing was inserted.
    pub fn stored_fraction(&self, segment_bytes: usize) -> f64 {
        if self.insertions == 0 {
            return 1.0;
        }
        (self.fill_segments * segment_bytes as u64) as f64
            / (self.insertions * BLOCK_BYTES as u64) as f64
    }

    /// Mean exact BΔI compressed fraction of inserted blocks, before
    /// segment rounding; `1.0` when nothing was inserted.
    pub fn bdi_fraction(&self) -> f64 {
        if self.insertions == 0 {
            return 1.0;
        }
        self.fill_bytes as f64 / (self.insertions * BLOCK_BYTES as u64) as f64
    }
}

impl fmt::Display for CompStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} misses {} ins {} ev {} (dirty {} tag {} exp {}) seg-acc {}",
            self.hits,
            self.misses,
            self.insertions,
            self.evictions,
            self.dirty_evictions,
            self.tag_evictions,
            self.expansion_evictions,
            self.data_seg_accesses,
        )
    }
}

/// One resident (compressed) block under a superblock tag.
///
/// The data is kept in *decompressed* form — the block as it was
/// written — so reads are copies, while `seg_count` charges the
/// capacity its BΔI image would occupy. The codec stays load-bearing
/// off the access path: `check_invariants` round-trips these bytes and
/// `OracleCompressed` stores the decoded image, so any lossy encoding
/// shows up as wrong bytes, not just wrong counters.
#[derive(Clone, Debug)]
struct CompBlock {
    dirty: bool,
    /// Data-array segments charged to this block.
    seg_count: usize,
    last_use: u64,
    data: BlockData,
}

/// A superblock tag entry: one tag covering `sb_blocks` neighbours.
#[derive(Clone, Debug)]
struct CompTag {
    sb_tag: u64,
    /// Newest stamp of any block under this tag.
    last_use: u64,
    /// Per-sub-block state, indexed by `addr % sb_blocks`.
    blocks: Vec<Option<CompBlock>>,
}

impl CompTag {
    fn live_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }
}

#[derive(Clone, Debug)]
struct CompSet {
    /// Tag entries; `None` = free tag way.
    tags: Vec<Option<CompTag>>,
    /// Unallocated data segments (segments are fungible, so a count is
    /// the whole allocator state; the oracle keeps an explicit
    /// per-segment owner list instead and must agree).
    free_segs: usize,
}

/// The compressed LLC array: superblock tags + segmented BΔI data.
///
/// Passive container like [`crate::ConventionalCache`]: it answers
/// hits, accepts fills and reports displaced blocks; miss handling is
/// composed by `dg-system`. A fill or dirty re-compression can displace
/// *several* blocks (a whole superblock, or LRU blocks under segment
/// pressure), so eviction output is a `Vec` push rather than a single
/// `Option`.
#[derive(Clone, Debug)]
pub struct CompressedCache {
    cfg: CompressedConfig,
    sets: Vec<CompSet>,
    /// Global monotonic LRU clock shared by tags and blocks.
    stamp: u64,
    stats: CompStats,
    /// Per-set segment occupancy sampled at each fill, recorded only at
    /// `Level::Metrics` and above. Observation-only.
    occupancy: Hist64,
    sb_shift: u32,
    set_shift: u32,
}

impl CompressedCache {
    /// An empty cache with the given (validated) shape.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CompressedConfig::validate`].
    pub fn new(cfg: CompressedConfig) -> Self {
        cfg.validate().expect("invalid CompressedConfig");
        let set = CompSet {
            tags: vec![None; cfg.tag_ways],
            free_segs: cfg.segments_per_set(),
        };
        CompressedCache {
            cfg,
            sets: vec![set; cfg.sets],
            stamp: 0,
            stats: CompStats::default(),
            occupancy: Hist64::new(),
            sb_shift: cfg.sb_blocks.trailing_zeros(),
            set_shift: cfg.sets.trailing_zeros(),
        }
    }

    /// The cache's shape.
    pub fn config(&self) -> &CompressedConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CompStats {
        &self.stats
    }

    /// Reset statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CompStats::default();
        self.occupancy = Hist64::new();
    }

    /// Distribution of per-set segment occupancy at fill time (empty
    /// unless the run was profiled at `Level::Metrics` or above).
    pub fn occupancy_hist(&self) -> &Hist64 {
        &self.occupancy
    }

    #[inline]
    fn sub_of(&self, addr: BlockAddr) -> usize {
        (addr.0 & (self.cfg.sb_blocks as u64 - 1)) as usize
    }

    #[inline]
    fn set_of(&self, addr: BlockAddr) -> usize {
        ((addr.0 >> self.sb_shift) & (self.cfg.sets as u64 - 1)) as usize
    }

    #[inline]
    fn sb_tag_of(&self, addr: BlockAddr) -> u64 {
        (addr.0 >> self.sb_shift) >> self.set_shift
    }

    /// Rebuild a block address from its placement.
    fn block_addr(&self, sb_tag: u64, set: usize, sub: usize) -> BlockAddr {
        BlockAddr((((sb_tag << self.set_shift) | set as u64) << self.sb_shift) | sub as u64)
    }

    /// Locate `addr` without touching stats or LRU.
    fn locate(&self, addr: BlockAddr) -> Option<(usize, usize, usize)> {
        let set = self.set_of(addr);
        let sb_tag = self.sb_tag_of(addr);
        let sub = self.sub_of(addr);
        for (way, slot) in self.sets[set].tags.iter().enumerate() {
            if let Some(tag) = slot {
                if tag.sb_tag == sb_tag {
                    return tag.blocks[sub].as_ref().map(|_| (set, way, sub));
                }
            }
        }
        None
    }

    /// Whether `addr` is present (no stats or LRU update).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.locate(addr).is_some()
    }

    /// The resident block's data, if present (no stats or LRU update).
    pub fn peek(&self, addr: BlockAddr) -> Option<&BlockData> {
        let (set, way, sub) = self.locate(addr)?;
        let tag = self.sets[set].tags[way].as_ref().expect("located tag is valid");
        tag.blocks[sub].as_ref().map(|b| &b.data)
    }

    /// Read `addr`: on a hit, decompresses and returns the block and
    /// updates LRU/stats; on a miss, records the miss and returns
    /// `None`.
    pub fn read(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.stats.tag_accesses += 1;
        match self.locate(addr) {
            Some((set, way, sub)) => {
                self.stamp += 1;
                let stamp = self.stamp;
                let tag = self.sets[set].tags[way].as_mut().expect("located tag is valid");
                tag.last_use = stamp;
                let blk = tag.blocks[sub].as_mut().expect("located block is valid");
                blk.last_use = stamp;
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

    /// Write the full block at `addr` (a dirty writeback from above):
    /// on a hit, re-compresses, evicting the set's LRU blocks if the
    /// block grew past the free segments, and returns `true`; on a miss
    /// returns `false` (write-allocate is composed by the caller via
    /// [`Self::fill`]). Displaced blocks are passed to `emit`.
    pub fn write(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        self.stats.tag_accesses += 1;
        let Some((set, way, sub)) = self.locate(addr) else {
            self.stats.misses += 1;
            return false;
        };
        self.stats.hits += 1;
        let new_segs = self.cfg.segments_for(bdi::compressed_size(data));
        self.stats.recompressions += 1;
        let old_segs = self.sets[set].tags[way].as_ref().expect("located tag is valid").blocks
            [sub]
            .as_ref()
            .expect("located block is valid")
            .seg_count;
        if new_segs > old_segs {
            // The block grew: release its old footprint conceptually and
            // make room for the new one, never victimising itself.
            while self.sets[set].free_segs < new_segs - old_segs {
                let found = self.evict_lru_block(set, Some((way, sub)), Some(way), true, emit);
                assert!(found, "compressed set cannot satisfy segment demand");
            }
            self.sets[set].free_segs -= new_segs - old_segs;
        } else {
            self.sets[set].free_segs += old_segs - new_segs;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let tag = self.sets[set].tags[way].as_mut().expect("located tag is valid");
        tag.last_use = stamp;
        let blk = tag.blocks[sub].as_mut().expect("located block is valid");
        blk.data = *data;
        blk.dirty = true;
        blk.seg_count = new_segs;
        blk.last_use = stamp;
        self.stats.data_seg_accesses += new_segs as u64;
        true
    }

    /// Insert `addr` with an explicit dirty bit, compressing the data
    /// and evicting as needed (a conflicting superblock tag first, then
    /// LRU blocks until the segments fit). Displaced blocks are passed
    /// to `emit` in eviction order.
    ///
    /// Fills must be misses: filling a resident block panics in debug
    /// builds, mirroring [`crate::ConventionalCache::fill_ref_lazy`].
    pub fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        emit: &mut dyn FnMut(Evicted),
    ) {
        debug_assert!(self.locate(addr).is_none(), "fill of a resident block");
        let size = bdi::compressed_size(data);
        let segs = self.cfg.segments_for(size);
        self.stats.compressions += 1;
        self.stats.fill_bytes += size as u64;
        self.stats.fill_segments += segs as u64;
        self.stats.insertions += 1;

        let set = self.set_of(addr);
        let sb_tag = self.sb_tag_of(addr);
        let sub = self.sub_of(addr);

        // 1. Acquire a tag way: match, else a free way, else evict the
        //    stalest superblock wholesale.
        let way = match self.find_tag_way(set, sb_tag) {
            Some(way) => way,
            None => {
                let way = match self.sets[set].tags.iter().position(|t| t.is_none()) {
                    Some(free) => free,
                    None => {
                        let victim = self.stalest_tag_way(set);
                        self.evict_tag(set, victim, emit);
                        self.stats.tag_evictions += 1;
                        victim
                    }
                };
                self.sets[set].tags[way] = Some(CompTag {
                    sb_tag,
                    last_use: 0,
                    blocks: vec![None; self.cfg.sb_blocks],
                });
                way
            }
        };

        // 2. Reserve segments, evicting LRU blocks under pressure. The
        //    incoming tag way is pinned: freshly installed it holds no
        //    blocks yet and must survive until step 3.
        while self.sets[set].free_segs < segs {
            let found = self.evict_lru_block(set, None, Some(way), false, emit);
            assert!(found, "compressed set cannot satisfy segment demand");
        }
        self.sets[set].free_segs -= segs;

        // 3. Install.
        self.stamp += 1;
        let stamp = self.stamp;
        let tag = self.sets[set].tags[way].as_mut().expect("tag acquired above");
        tag.last_use = stamp;
        tag.blocks[sub] = Some(CompBlock { dirty, seg_count: segs, last_use: stamp, data: *data });
        self.stats.data_seg_accesses += segs as u64;
        if enabled(Level::Metrics) {
            self.record_occupancy(set);
        }
    }

    /// Remove `addr` if present, returning its final state (used for
    /// back-invalidations and inclusion enforcement). Frees the block's
    /// segments and, when it was the superblock's last block, the tag.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let (set, way, sub) = self.locate(addr)?;
        let tag = self.sets[set].tags[way].as_mut().expect("located tag is valid");
        let blk = tag.blocks[sub].take().expect("located block is valid");
        let empty = tag.live_blocks() == 0;
        if empty {
            self.sets[set].tags[way] = None;
        }
        self.sets[set].free_segs += blk.seg_count;
        self.stats.invalidations += 1;
        Some(Evicted { addr, dirty: blk.dirty, data: blk.data })
    }

    /// Clear a resident block's dirty bit (after its data was flushed).
    /// Returns `false` on a miss.
    pub fn clear_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.locate(addr) {
            Some((set, way, sub)) => {
                let tag = self.sets[set].tags[way].as_mut().expect("located tag is valid");
                tag.blocks[sub].as_mut().expect("located block is valid").dirty = false;
                true
            }
            None => false,
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.tags.iter().flatten())
            .map(|t| t.live_blocks())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident superblock tags.
    pub fn resident_tags(&self) -> usize {
        self.sets.iter().map(|s| s.tags.iter().flatten().count()).sum()
    }

    /// Iterate over resident blocks as `(addr, dirty, &data)` in
    /// deterministic `(set, way, sub)` order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, &BlockData)> {
        self.sets.iter().enumerate().flat_map(move |(set, s)| {
            s.tags.iter().enumerate().flat_map(move |(_, slot)| {
                slot.iter().flat_map(move |tag| {
                    tag.blocks.iter().enumerate().filter_map(move |(sub, b)| {
                        b.as_ref()
                            .map(|b| (self.block_addr(tag.sb_tag, set, sub), b.dirty, &b.data))
                    })
                })
            })
        })
    }

    /// Structural self-checks, used by the differential harness:
    /// segment accounting balances, no empty tags linger, per-block
    /// footprints match what the encoder says the stored data needs,
    /// and the codec reproduces every stored block exactly (the round
    /// trip the access path no longer runs).
    pub fn check_invariants(&self) {
        let budget = self.cfg.segments_per_set();
        for (si, set) in self.sets.iter().enumerate() {
            let mut used = 0;
            for slot in set.tags.iter().flatten() {
                assert!(slot.live_blocks() > 0, "set {si}: resident tag with no blocks");
                assert!(slot.last_use <= self.stamp, "set {si}: tag stamp from the future");
                for blk in slot.blocks.iter().flatten() {
                    assert!(
                        (1..=self.cfg.max_block_segments()).contains(&blk.seg_count),
                        "set {si}: block footprint {} out of range",
                        blk.seg_count
                    );
                    assert!(blk.last_use <= slot.last_use, "set {si}: block newer than its tag");
                    // The stored block must still compress to the
                    // footprint it was charged, and decode back to
                    // itself: a cache that keeps the original bytes is
                    // exact only if the codec it models is.
                    let comp = bdi::compress(&blk.data);
                    let again = self.cfg.segments_for(comp.size_bytes());
                    assert_eq!(again, blk.seg_count, "set {si}: stale segment footprint");
                    assert_eq!(
                        bdi::decompress(&comp),
                        blk.data,
                        "set {si}: BΔI round trip lost data under {}",
                        comp.encoding()
                    );
                    used += blk.seg_count;
                }
            }
            assert!(used <= budget, "set {si}: {used} segments used of {budget}");
            assert_eq!(
                set.free_segs,
                budget - used,
                "set {si}: free-segment count out of balance"
            );
        }
    }

    #[cold]
    fn record_occupancy(&mut self, set: usize) {
        let used = self.cfg.segments_per_set() - self.sets[set].free_segs;
        self.occupancy.record(used as u64);
    }

    fn find_tag_way(&self, set: usize, sb_tag: u64) -> Option<usize> {
        self.sets[set]
            .tags
            .iter()
            .position(|t| t.as_ref().is_some_and(|t| t.sb_tag == sb_tag))
    }

    /// The way holding the stalest resident tag (first strict minimum).
    fn stalest_tag_way(&self, set: usize) -> usize {
        let mut best: Option<(usize, u64)> = None;
        for (way, slot) in self.sets[set].tags.iter().enumerate() {
            let tag = slot.as_ref().expect("caller checked: no free tag way");
            if best.is_none_or(|(_, b)| tag.last_use < b) {
                best = Some((way, tag.last_use));
            }
        }
        best.expect("tag_ways > 0").0
    }

    /// Displace every block under `way`'s tag (sub-ascending) and free
    /// the tag entry.
    fn evict_tag(&mut self, set: usize, way: usize, emit: &mut dyn FnMut(Evicted)) {
        let tag = self.sets[set].tags[way].take().expect("evicting a valid tag");
        let mut freed = 0;
        for (sub, blk) in tag.blocks.into_iter().enumerate() {
            if let Some(blk) = blk {
                self.stats.evictions += 1;
                if blk.dirty {
                    self.stats.dirty_evictions += 1;
                }
                freed += blk.seg_count;
                emit(Evicted {
                    addr: self.block_addr(tag.sb_tag, set, sub),
                    dirty: blk.dirty,
                    data: blk.data,
                });
            }
        }
        self.sets[set].free_segs += freed;
    }

    /// Evict the set's LRU block (first strict minimum in `(way, sub)`
    /// scan order), skipping `exclude` and never freeing the tag in
    /// `pin_way` even if it empties. Returns `false` when no candidate
    /// exists.
    fn evict_lru_block(
        &mut self,
        set: usize,
        exclude: Option<(usize, usize)>,
        pin_way: Option<usize>,
        expansion: bool,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        let mut victim: Option<(usize, usize, u64)> = None;
        for (way, slot) in self.sets[set].tags.iter().enumerate() {
            let Some(tag) = slot else { continue };
            for (sub, blk) in tag.blocks.iter().enumerate() {
                let Some(blk) = blk else { continue };
                if exclude == Some((way, sub)) {
                    continue;
                }
                if victim.is_none_or(|(_, _, b)| blk.last_use < b) {
                    victim = Some((way, sub, blk.last_use));
                }
            }
        }
        let Some((way, sub, _)) = victim else { return false };
        let tag = self.sets[set].tags[way].as_mut().expect("victim tag is valid");
        let blk = tag.blocks[sub].take().expect("victim block is valid");
        let sb_tag = tag.sb_tag;
        if tag.live_blocks() == 0 && pin_way != Some(way) {
            self.sets[set].tags[way] = None;
        }
        self.sets[set].free_segs += blk.seg_count;
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

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::ElemType;

    /// 2 sets x 2 superblock tags x 2 blocks, 16 segments (128 B) per
    /// set — tag reach (4 blocks/set) and segment reach (2 uncompressed
    /// blocks/set) both bind.
    fn tiny() -> CompressedCache {
        CompressedCache::new(CompressedConfig {
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

    /// A block BΔI cannot compress (8 wildly different doubles).
    fn incompressible(seed: u64) -> BlockData {
        let mut vals = [0.0f64; 8];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = f64::from_bits(
                (seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(i as u32 * 7 + 1))
                    | 0x3ff0_0000_0000_0000,
            );
        }
        BlockData::from_values(ElemType::F64, &vals)
    }

    #[test]
    fn cold_miss_then_hit_round_trips() {
        let mut c = tiny();
        let mut ev = Vec::new();
        assert!(c.read(BlockAddr(5)).is_none());
        c.fill(BlockAddr(5), &blk(3.5), false, &mut |e| ev.push(e));
        assert!(ev.is_empty());
        assert_eq!(c.read(BlockAddr(5)), Some(blk(3.5)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().decompressions, 1);
        c.check_invariants();
    }

    #[test]
    fn compression_packs_more_blocks_than_ways() {
        let mut c = tiny();
        let mut ev = Vec::new();
        // Repeating doubles compress to ~9 bytes = 2 segments, so set 0
        // (16 segments) holds both superblocks' worth: 4 blocks under 2
        // tags, where an uncompressed cache with 2 x 64B would hold 2.
        for a in [0u64, 1, 4, 5] {
            c.fill(BlockAddr(a), &blk(a as f64), false, &mut |e| ev.push(e));
        }
        assert!(ev.is_empty(), "compressed set should hold all four blocks");
        assert_eq!(c.len(), 4);
        assert_eq!(c.resident_tags(), 2);
        c.check_invariants();
    }

    #[test]
    fn incompressible_blocks_fall_back_to_segment_pressure() {
        let mut c = tiny();
        let mut ev = Vec::new();
        // 8 segments each: two fills fill the set, the third displaces
        // the LRU block even though tag ways remain.
        c.fill(BlockAddr(0), &incompressible(1), false, &mut |e| ev.push(e));
        c.fill(BlockAddr(4), &incompressible(2), false, &mut |e| ev.push(e));
        assert!(ev.is_empty());
        c.fill(BlockAddr(8), &incompressible(3), false, &mut |e| ev.push(e));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, BlockAddr(0), "LRU block evicted under segment pressure");
        assert_eq!(c.stats().evictions, 1);
        c.check_invariants();
    }

    #[test]
    fn superblock_tag_eviction_displaces_whole_neighbourhood() {
        let mut c = tiny();
        let mut ev = Vec::new();
        // Fill both tags of set 0 with both their blocks (compressible,
        // so segments never bind).
        for a in [0u64, 1, 4, 5] {
            c.fill(BlockAddr(a), &blk(a as f64), false, &mut |e| ev.push(e));
        }
        // A third superblock in set 0 needs a tag: the stalest
        // superblock {0,1} goes wholesale, sub-ascending.
        c.fill(BlockAddr(8), &blk(9.0), false, &mut |e| ev.push(e));
        assert_eq!(ev.iter().map(|e| e.addr.0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.stats().tag_evictions, 1);
        assert_eq!(c.stats().evictions, 2);
        c.check_invariants();
    }

    #[test]
    fn dirty_growth_on_write_evicts_to_fit() {
        let mut c = tiny();
        let mut ev = Vec::new();
        // Three compressible blocks (2 segments each) across two tags.
        c.fill(BlockAddr(0), &blk(1.0), false, &mut |e| ev.push(e));
        c.fill(BlockAddr(1), &blk(2.0), false, &mut |e| ev.push(e));
        c.fill(BlockAddr(4), &blk(3.0), false, &mut |e| ev.push(e));
        assert!(ev.is_empty());
        // Rewrite block 4 with incompressible data: 2 -> 8 segments.
        // 16 - 6 = 10 free, needs 6 more: fits without eviction.
        assert!(c.write(BlockAddr(4), &incompressible(7), &mut |e| ev.push(e)));
        assert!(ev.is_empty());
        // Rewrite block 0 the same way: free = 16 - (2+2+8) = 4, needs
        // 6 more -> evicts LRU block 1 (block 0 itself is excluded).
        assert!(c.write(BlockAddr(0), &incompressible(8), &mut |e| ev.push(e)));
        assert_eq!(ev.iter().map(|e| e.addr.0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(c.stats().expansion_evictions, 1);
        assert!(c.contains(BlockAddr(0)));
        assert_eq!(c.peek(BlockAddr(0)), Some(&incompressible(8)));
        c.check_invariants();
    }

    fn resident(c: &CompressedCache, addr: BlockAddr) -> &CompBlock {
        let (set, way, sub) = c.locate(addr).expect("block is resident");
        c.sets[set].tags[way].as_ref().unwrap().blocks[sub].as_ref().unwrap()
    }

    #[test]
    fn stored_bytes_are_the_input_and_footprint_is_its_size_class() {
        // One block per BΔI class that matters to placement: zeros (1
        // segment), repeat, narrow and wide base+delta, raw (8).
        let narrow: Vec<f64> = (0..16).map(|i| 100_000.0 + i as f64).collect();
        let wide: Vec<f64> = (0..16).map(|i| 100_000.0 + 200.0 * i as f64).collect();
        let inputs = [
            BlockData::zeroed(),
            blk(3.5),
            BlockData::from_values(ElemType::I32, &narrow),
            BlockData::from_values(ElemType::I32, &wide),
            incompressible(5),
        ];
        let mut c = tiny();
        let mut ev = Vec::new();
        let mut footprints = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            // Fill with the previous class, then rewrite with this one:
            // both paths, growing and shrinking, must store `input`.
            let addr = BlockAddr(i as u64 * 4);
            let before = &inputs[(i + inputs.len() - 1) % inputs.len()];
            c.fill(addr, before, false, &mut |e| ev.push(e));
            assert_eq!(c.peek(addr).unwrap().as_bytes(), before.as_bytes());
            assert!(c.write(addr, input, &mut |e| ev.push(e)));
            assert_eq!(c.peek(addr).unwrap().as_bytes(), input.as_bytes());
            let want = c.cfg.segments_for(bdi::compressed_size(input));
            assert_eq!(resident(&c, addr).seg_count, want);
            footprints.push(want);
            c.check_invariants();
            c.invalidate(addr).unwrap();
        }
        assert_eq!(footprints, vec![1, 1, 3, 5, 8]);
        assert_eq!(c.stats().compressions, 5);
        assert_eq!(c.stats().recompressions, 5);
        assert!(ev.is_empty());
    }

    #[test]
    fn dirty_shrink_frees_segments() {
        let mut c = tiny();
        let mut ev = Vec::new();
        c.fill(BlockAddr(0), &incompressible(1), true, &mut |e| ev.push(e));
        let free_before = c.cfg.segments_per_set() - 8;
        assert_eq!(c.sets[0].free_segs, free_before);
        assert!(c.write(BlockAddr(0), &blk(1.0), &mut |e| ev.push(e)));
        assert!(c.sets[0].free_segs > free_before, "shrink must return segments");
        c.check_invariants();
    }

    #[test]
    fn invalidate_frees_tag_when_last_block_goes() {
        let mut c = tiny();
        let mut ev = Vec::new();
        c.fill(BlockAddr(0), &blk(1.0), true, &mut |e| ev.push(e));
        c.fill(BlockAddr(1), &blk(2.0), false, &mut |e| ev.push(e));
        assert_eq!(c.resident_tags(), 1);
        let inv = c.invalidate(BlockAddr(0)).unwrap();
        assert!(inv.dirty);
        assert_eq!(c.resident_tags(), 1, "sibling keeps the tag alive");
        c.invalidate(BlockAddr(1)).unwrap();
        assert_eq!(c.resident_tags(), 0);
        assert!(c.is_empty());
        c.check_invariants();
    }

    #[test]
    fn iter_blocks_round_trips_addresses() {
        let mut c = tiny();
        let mut ev = Vec::new();
        for a in [0u64, 3, 6, 9] {
            c.fill(BlockAddr(a), &blk(a as f64), a % 2 == 0, &mut |e| ev.push(e));
        }
        let mut addrs: Vec<u64> = c.iter_blocks().map(|(a, _, _)| a.0).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 3, 6, 9]);
        for (addr, dirty, data) in c.iter_blocks() {
            assert_eq!(dirty, addr.0 % 2 == 0);
            assert_eq!(data, &blk(addr.0 as f64));
        }
    }

    #[test]
    fn validate_rejects_undersized_sets() {
        let bad = CompressedConfig {
            data_bytes: 64,
            sets: 2,
            tag_ways: 2,
            sb_blocks: 2,
            segment_bytes: 8,
        };
        assert!(bad.validate().is_err(), "32B per set cannot hold a 64B block");
        let odd = CompressedConfig { sb_blocks: 3, ..tiny().cfg };
        assert!(odd.validate().is_err());
    }

    #[test]
    fn stored_fraction_tracks_compressibility() {
        let mut c = tiny();
        let mut ev = Vec::new();
        c.fill(BlockAddr(0), &blk(1.0), false, &mut |e| ev.push(e));
        assert!(c.stats().stored_fraction(8) < 0.5, "repeat blocks compress well");
        assert!(c.stats().bdi_fraction() <= c.stats().stored_fraction(8));
        c.fill(BlockAddr(4), &incompressible(1), false, &mut |e| ev.push(e));
        assert!(c.stats().stored_fraction(8) > 0.5, "raw fallback drags the mean up");
    }
}
