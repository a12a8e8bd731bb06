//! The shared LLC in its four organizations (baseline / split /
//! uniDoppelgänger / compressed).

use crate::{LlcKind, SystemConfig};
use dg_cache::{CacheGeometry, CacheStats, CompStats, CompressedCache, ConventionalCache, Evicted};
use dg_mem::{ApproxRegion, BlockAddr, BlockData, MemoryImage};
use dg_obs::{Hist64, Snapshot};
use doppelganger::{Displaced, DoppStats, DoppelgangerCache, WriteStatus};

/// A block pushed out of the LLC (eviction or Doppelgänger data-entry
/// displacement). The hierarchy must back-invalidate private copies
/// and, if `dirty`, write `data` back to memory.
#[derive(Clone, Copy, Debug)]
pub struct DisplacedBlock {
    /// The displaced block's address.
    pub addr: BlockAddr,
    /// Whether a writeback is required.
    pub dirty: bool,
    /// The data to write back (the shared representative for
    /// approximate blocks). Meaningful only when `dirty`: a clean
    /// conventional victim's bytes are never copied out.
    pub data: BlockData,
}

/// Result of an LLC read ([`Llc::read_into`]) or writeback
/// ([`Llc::writeback_into`]). Displaced blocks go to the caller's
/// scratch buffer, not into this struct.
#[derive(Clone, Copy, Debug, Default)]
pub struct LlcAccess {
    /// Whether the access hit in the LLC.
    pub hit: bool,
    /// Data returned to the upper level (for reads). On a miss this is
    /// the block fetched from memory — the paper forwards the fetched
    /// values to L2 immediately, before (and regardless of) map-based
    /// sharing in the data array (§3.3).
    pub data: BlockData,
    /// Whether main memory was read (off-chip traffic).
    pub fetched_from_memory: bool,
}

/// Activity counters for LLC energy accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcCounters {
    /// Conventional-portion tag probes (baseline LLC or precise cache).
    pub precise_tag_accesses: u64,
    /// Conventional-portion data-array accesses.
    pub precise_data_accesses: u64,
    /// Doppelgänger statistics (zeroed for the baseline).
    pub dopp: DoppStats,
    /// Compressed-organization statistics (zeroed for the others).
    pub comp: CompStats,
    /// Total LLC lookups.
    pub lookups: u64,
    /// Total LLC lookup hits.
    pub hits: u64,
}

impl LlcCounters {
    /// LLC miss count.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Miss rate in misses per thousand instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / instructions as f64
        }
    }
}

impl Snapshot for LlcCounters {
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        // Flatten the embedded DoppStats under `dopp.` (and CompStats
        // under `comp.`) so one zip over two snapshots compares the
        // whole struct field-for-field.
        let out = vec![
            ("precise_tag_accesses", self.precise_tag_accesses),
            ("precise_data_accesses", self.precise_data_accesses),
            ("lookups", self.lookups),
            ("hits", self.hits),
            ("misses", self.misses()),
            ("dopp.hits", self.dopp.hits),
            ("dopp.misses", self.dopp.misses),
            ("dopp.insertions", self.dopp.insertions),
            ("dopp.shared_insertions", self.dopp.shared_insertions),
            ("dopp.precise_insertions", self.dopp.precise_insertions),
            ("dopp.map_generations", self.dopp.map_generations),
            ("dopp.tag_evictions", self.dopp.tag_evictions),
            ("dopp.data_evictions", self.dopp.data_evictions),
            ("dopp.back_invalidations", self.dopp.back_invalidations),
            ("dopp.writes", self.dopp.writes),
            ("dopp.silent_writes", self.dopp.silent_writes),
            ("dopp.moved_writes", self.dopp.moved_writes),
            ("dopp.tag_array_accesses", self.dopp.tag_array_accesses),
            ("dopp.mtag_accesses", self.dopp.mtag_accesses),
            ("dopp.data_accesses", self.dopp.data_accesses),
            ("comp.hits", self.comp.hits),
            ("comp.misses", self.comp.misses),
            ("comp.insertions", self.comp.insertions),
            ("comp.evictions", self.comp.evictions),
            ("comp.dirty_evictions", self.comp.dirty_evictions),
            ("comp.invalidations", self.comp.invalidations),
            ("comp.tag_evictions", self.comp.tag_evictions),
            ("comp.expansion_evictions", self.comp.expansion_evictions),
            ("comp.compressions", self.comp.compressions),
            ("comp.recompressions", self.comp.recompressions),
            ("comp.decompressions", self.comp.decompressions),
            ("comp.tag_accesses", self.comp.tag_accesses),
            ("comp.data_seg_accesses", self.comp.data_seg_accesses),
            ("comp.fill_bytes", self.comp.fill_bytes),
            ("comp.fill_segments", self.comp.fill_segments),
        ];
        debug_assert_eq!(
            out.len(),
            5 + (self.dopp.metrics().len() - 1) // minus the derived "lookups"
                + self.comp.metrics().len(),
            "LlcCounters flattening fell out of sync with DoppStats/CompStats"
        );
        out
    }
}

/// The last-level cache under test.
#[derive(Debug)]
pub enum Llc {
    /// One conventional cache (the 2 MB baseline).
    Baseline(ConventionalCache),
    /// Precise conventional cache + Doppelgänger approximate cache.
    Split {
        /// The 1 MB precise partition.
        precise: ConventionalCache,
        /// The Doppelgänger partition.
        doppel: DoppelgangerCache,
    },
    /// uniDoppelgänger: everything in one Doppelgänger-organized cache.
    Unified(DoppelgangerCache),
    /// A Touché-style compressed cache (exact: BΔI, superblock tags).
    Compressed(CompressedCache),
}

impl Llc {
    /// Build the LLC described by `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        match cfg.llc {
            LlcKind::Baseline => Llc::Baseline(ConventionalCache::new(
                CacheGeometry::from_capacity(cfg.llc_bytes, cfg.llc_ways),
            )),
            LlcKind::Split(dopp) => {
                let mut doppel = DoppelgangerCache::new(dopp);
                doppel.set_data_policy(cfg.data_policy);
                Llc::Split {
                    precise: ConventionalCache::new(CacheGeometry::from_capacity(
                        cfg.llc_bytes / 2,
                        cfg.llc_ways,
                    )),
                    doppel,
                }
            }
            LlcKind::Unified(dopp) => {
                assert!(dopp.unified, "unified LLC requires a unified Doppelganger config");
                let mut doppel = DoppelgangerCache::new(dopp);
                doppel.set_data_policy(cfg.data_policy);
                Llc::Unified(doppel)
            }
            LlcKind::Compressed(comp) => Llc::Compressed(CompressedCache::new(comp)),
        }
    }

    /// Read `addr`; on a miss, fetch from `dram` and insert. Displaced
    /// blocks are appended to `displaced` (a reusable scratch buffer).
    ///
    /// `region` is the annotation covering the block (`None` for
    /// precise blocks) — it routes the request in the split design and
    /// drives map generation.
    pub fn read_into(
        &mut self,
        addr: BlockAddr,
        region: Option<&ApproxRegion>,
        dram: &mut MemoryImage,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        match self {
            Llc::Baseline(cache) => Self::conventional_read(cache, addr, dram, displaced),
            Llc::Split { precise, doppel } => match region {
                None => Self::conventional_read(precise, addr, dram, displaced),
                Some(r) => Self::doppel_read(doppel, addr, Some(r), dram, displaced),
            },
            Llc::Unified(doppel) => Self::doppel_read(doppel, addr, region, dram, displaced),
            // Compression is exact and region-blind: approximate and
            // precise blocks take the same path.
            Llc::Compressed(cache) => Self::compressed_read(cache, addr, dram, displaced),
        }
    }

    /// Accept a dirty writeback from an L2. Displaced blocks are
    /// appended to `displaced`.
    pub fn writeback_into(
        &mut self,
        addr: BlockAddr,
        data: BlockData,
        region: Option<&ApproxRegion>,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        match self {
            Llc::Baseline(cache) => Self::conventional_writeback(cache, addr, data, displaced),
            Llc::Split { precise, doppel } => match region {
                None => Self::conventional_writeback(precise, addr, data, displaced),
                Some(r) => Self::doppel_writeback(doppel, addr, data, Some(r), displaced),
            },
            Llc::Unified(doppel) => Self::doppel_writeback(doppel, addr, data, region, displaced),
            Llc::Compressed(cache) => Self::compressed_writeback(cache, addr, data, displaced),
        }
    }

    /// Whether `addr` is resident.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        match self {
            Llc::Baseline(c) => c.contains(addr),
            Llc::Split { precise, doppel } => precise.contains(addr) || doppel.contains(addr),
            Llc::Unified(d) => d.contains(addr),
            Llc::Compressed(c) => c.contains(addr),
        }
    }

    /// Activity counters for energy accounting and MPKI.
    pub fn counters(&self) -> LlcCounters {
        fn conv(stats: &CacheStats) -> (u64, u64) {
            // Every lookup probes the tag array; hits and fills touch
            // the data array.
            (stats.accesses(), stats.hits + stats.insertions)
        }
        match self {
            Llc::Baseline(c) => {
                let (t, d) = conv(c.stats());
                LlcCounters {
                    precise_tag_accesses: t,
                    precise_data_accesses: d,
                    dopp: DoppStats::default(),
                    comp: CompStats::default(),
                    lookups: c.stats().accesses(),
                    hits: c.stats().hits,
                }
            }
            Llc::Split { precise, doppel } => {
                let (t, d) = conv(precise.stats());
                LlcCounters {
                    precise_tag_accesses: t,
                    precise_data_accesses: d,
                    dopp: *doppel.stats(),
                    comp: CompStats::default(),
                    lookups: precise.stats().accesses() + doppel.stats().lookups(),
                    hits: precise.stats().hits + doppel.stats().hits,
                }
            }
            Llc::Unified(d) => LlcCounters {
                precise_tag_accesses: 0,
                precise_data_accesses: 0,
                dopp: *d.stats(),
                comp: CompStats::default(),
                lookups: d.stats().lookups(),
                hits: d.stats().hits,
            },
            Llc::Compressed(c) => LlcCounters {
                precise_tag_accesses: 0,
                precise_data_accesses: 0,
                dopp: DoppStats::default(),
                comp: *c.stats(),
                lookups: c.stats().accesses(),
                hits: c.stats().hits,
            },
        }
    }

    /// Snapshot the LLC-resident blocks as `(addr, data)` pairs —
    /// the raw material for the similarity analyses (Figs. 2, 7, 8).
    ///
    /// For Doppelgänger organizations, each tag contributes the shared
    /// representative it currently reads as.
    pub fn resident_blocks(&self) -> Vec<(BlockAddr, BlockData)> {
        match self {
            Llc::Baseline(c) => c.iter_blocks().map(|(a, _, d)| (a, *d)).collect(),
            Llc::Split { precise, doppel } => precise
                .iter_blocks()
                .map(|(a, _, d)| (a, *d))
                .chain(doppel.iter_blocks().map(|(a, _, _, d)| (a, *d)))
                .collect(),
            Llc::Unified(d) => d.iter_blocks().map(|(a, _, _, d)| (a, *d)).collect(),
            Llc::Compressed(c) => c.iter_blocks().map(|(a, _, d)| (a, *d)).collect(),
        }
    }

    /// Current tag-sharing factor of the Doppelgänger arrays (resident
    /// tags per data entry; 1.0 means no sharing, 0.0 for the baseline
    /// or an empty cache). The paper reports a 4.4 average (§3.5).
    pub fn sharing_factor(&self) -> f64 {
        match self {
            Llc::Baseline(_) | Llc::Compressed(_) => 0.0,
            Llc::Split { doppel, .. } => doppel.avg_tags_per_data(),
            Llc::Unified(d) => d.avg_tags_per_data(),
        }
    }

    /// Distribution of conventional-partition set occupancy at fill
    /// time (the baseline cache, the precise half of the split design,
    /// or — in data segments — the compressed array; empty for
    /// uniDoppelgänger and unprofiled runs).
    pub fn occupancy_hist(&self) -> Hist64 {
        match self {
            Llc::Baseline(c) => c.occupancy_hist().clone(),
            Llc::Split { precise, .. } => precise.occupancy_hist().clone(),
            Llc::Unified(_) => Hist64::new(),
            Llc::Compressed(c) => c.occupancy_hist().clone(),
        }
    }

    /// Distribution of Doppelgänger sharing-list length at shared-insert
    /// time (empty for the baseline and unprofiled runs).
    pub fn chain_depth_hist(&self) -> Hist64 {
        match self {
            Llc::Baseline(_) | Llc::Compressed(_) => Hist64::new(),
            Llc::Split { doppel, .. } => doppel.chain_depth_hist().clone(),
            Llc::Unified(d) => d.chain_depth_hist().clone(),
        }
    }

    /// Reset activity statistics (cache contents untouched).
    pub fn reset_stats(&mut self) {
        match self {
            Llc::Baseline(c) => c.reset_stats(),
            Llc::Split { precise, doppel } => {
                precise.reset_stats();
                doppel.reset_stats();
            }
            Llc::Unified(d) => d.reset_stats(),
            Llc::Compressed(c) => c.reset_stats(),
        }
    }

    /// Write every dirty block back to `dram`, clearing dirty bits.
    pub fn flush_dirty(&mut self, dram: &mut MemoryImage) {
        fn flush_conventional(cache: &mut ConventionalCache, dram: &mut MemoryImage) {
            let dirty: Vec<(dg_mem::BlockAddr, BlockData)> = cache
                .iter_blocks()
                .filter(|(_, d, _)| *d)
                .map(|(a, _, data)| (a, *data))
                .collect();
            for (a, data) in dirty {
                dram.set_block(a, data);
                cache.clear_dirty(a);
            }
        }
        match self {
            Llc::Baseline(c) => flush_conventional(c, dram),
            Llc::Split { precise, doppel } => {
                flush_conventional(precise, dram);
                doppel.flush_dirty(|a, data| dram.set_block(a, data));
            }
            Llc::Unified(d) => d.flush_dirty(|a, data| dram.set_block(a, data)),
            Llc::Compressed(c) => {
                let dirty: Vec<(BlockAddr, BlockData)> = c
                    .iter_blocks()
                    .filter(|(_, d, _)| *d)
                    .map(|(a, _, data)| (a, *data))
                    .collect();
                for (a, data) in dirty {
                    dram.set_block(a, data);
                    c.clear_dirty(a);
                }
            }
        }
    }

    /// Invalidate every resident block, leaving the LLC cold.
    ///
    /// Callers must write dirty data back first ([`Self::flush_dirty`])
    /// — contents are discarded, not flushed. Statistics are untouched.
    /// Used by the sampled-simulation runner when it fast-forwards over
    /// a skipped region: the functional image advances past the cached
    /// copies, so keeping them would serve stale data after the skip.
    pub fn clear_contents(&mut self) {
        fn clear_conventional(cache: &mut ConventionalCache) {
            let resident: Vec<BlockAddr> = cache.iter_blocks().map(|(a, _, _)| a).collect();
            for a in resident {
                cache.invalidate(a);
            }
        }
        fn clear_doppel(doppel: &mut DoppelgangerCache) {
            let resident: Vec<BlockAddr> = doppel.iter_blocks().map(|(a, _, _, _)| a).collect();
            for a in resident {
                doppel.invalidate(a);
            }
        }
        match self {
            Llc::Baseline(c) => clear_conventional(c),
            Llc::Split { precise, doppel } => {
                clear_conventional(precise);
                clear_doppel(doppel);
            }
            Llc::Unified(d) => clear_doppel(d),
            Llc::Compressed(c) => {
                let resident: Vec<BlockAddr> = c.iter_blocks().map(|(a, _, _)| a).collect();
                for a in resident {
                    c.invalidate(a);
                }
            }
        }
    }

    /// Invalidate one block if resident, discarding its contents.
    /// Callers must ensure the block is clean (or its data is dead) —
    /// nothing is written back. Statistics are untouched. This is the
    /// functional-warming path of the sampled runner: a store executed
    /// functionally during a skipped region updates DRAM behind the
    /// caches, so any retained copy of that block must go.
    pub fn invalidate_block(&mut self, addr: BlockAddr) {
        match self {
            Llc::Baseline(c) => {
                c.invalidate(addr);
            }
            Llc::Split { precise, doppel } => {
                precise.invalidate(addr);
                doppel.invalidate(addr);
            }
            Llc::Unified(d) => {
                d.invalidate(addr);
            }
            Llc::Compressed(c) => {
                c.invalidate(addr);
            }
        }
    }

    /// Visit every resident *approximate* block together with the
    /// shared representative the cache would serve for it. Precise
    /// entries (and the whole baseline cache) are skipped — after a
    /// flush their contents match DRAM, so only the Doppelgänger
    /// entries can diverge from memory. Observation-only: no statistics
    /// or LRU updates. Used by the sampled runner's skip-region
    /// approximation overlay to snapshot corruption state.
    pub fn for_each_approx_resident(&self, mut f: impl FnMut(BlockAddr, BlockData)) {
        let doppel = match self {
            // BΔI is exact, so a flushed compressed cache matches DRAM
            // just like the baseline: nothing can diverge.
            Llc::Baseline(_) | Llc::Compressed(_) => return,
            Llc::Split { doppel, .. } => doppel,
            Llc::Unified(d) => d,
        };
        for (addr, _dirty, precise, data) in doppel.iter_blocks() {
            if !precise {
                f(addr, *data);
            }
        }
    }

    /// Visit the address of every resident block — precise and
    /// approximate, across all partitions. Observation-only. Used by
    /// the sampled runner to build the skip-epoch residency filter that
    /// lets functional stores to absent blocks bypass the invalidation
    /// probes entirely.
    pub fn for_each_resident(&self, mut f: impl FnMut(BlockAddr)) {
        match self {
            Llc::Baseline(c) => {
                for (addr, _, _) in c.iter_blocks() {
                    f(addr);
                }
            }
            Llc::Split { precise, doppel } => {
                for (addr, _, _) in precise.iter_blocks() {
                    f(addr);
                }
                for (addr, _, _, _) in doppel.iter_blocks() {
                    f(addr);
                }
            }
            Llc::Unified(d) => {
                for (addr, _, _, _) in d.iter_blocks() {
                    f(addr);
                }
            }
            Llc::Compressed(c) => {
                for (addr, _, _) in c.iter_blocks() {
                    f(addr);
                }
            }
        }
    }

    /// Verify the Doppelgänger or compressed-array structural
    /// invariants (no-op for the baseline). Panics on violation; used
    /// by integration and property tests.
    pub fn check_invariants(&self) {
        match self {
            Llc::Baseline(_) => {}
            Llc::Split { doppel, .. } => doppel.check_invariants(),
            Llc::Unified(d) => d.check_invariants(),
            Llc::Compressed(c) => c.check_invariants(),
        }
    }

    // ------------------------------------------------------------------

    fn conventional_read(
        cache: &mut ConventionalCache,
        addr: BlockAddr,
        dram: &mut MemoryImage,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        if let Some(data) = cache.read(addr) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        let data = dram.fetch_block(addr);
        Self::conventional_fill(cache, addr, &data, displaced);
        LlcAccess { hit: false, data, fetched_from_memory: true }
    }

    fn conventional_writeback(
        cache: &mut ConventionalCache,
        addr: BlockAddr,
        data: BlockData,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        if cache.write(addr, data) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        // Non-inclusive corner (the block was displaced concurrently):
        // allocate it dirty.
        Self::conventional_fill(cache, addr, &data, displaced);
        cache.mark_dirty(addr);
        LlcAccess { hit: false, data, fetched_from_memory: false }
    }

    /// Fill `addr` into a conventional partition, reporting its victim.
    /// The victim's bytes are copied out only when it is dirty, the one
    /// case in which the hierarchy writes them back.
    fn conventional_fill(
        cache: &mut ConventionalCache,
        addr: BlockAddr,
        data: &BlockData,
        displaced: &mut Vec<DisplacedBlock>,
    ) {
        let mut victim = BlockData::zeroed();
        if let Some((vaddr, dirty)) = cache.fill_ref_lazy(addr, data, &mut victim) {
            displaced.push(DisplacedBlock { addr: vaddr, dirty, data: victim });
        }
    }

    fn compressed_read(
        cache: &mut CompressedCache,
        addr: BlockAddr,
        dram: &mut MemoryImage,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        if let Some(data) = cache.read(addr) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        let data = dram.fetch_block(addr);
        cache.fill(addr, &data, false, &mut emit_evicted(displaced));
        LlcAccess { hit: false, data, fetched_from_memory: true }
    }

    fn compressed_writeback(
        cache: &mut CompressedCache,
        addr: BlockAddr,
        data: BlockData,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        if cache.write(addr, &data, &mut emit_evicted(displaced)) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        // Non-inclusive corner (the block was displaced concurrently):
        // allocate it dirty.
        cache.fill(addr, &data, true, &mut emit_evicted(displaced));
        LlcAccess { hit: false, data, fetched_from_memory: false }
    }

    fn doppel_read(
        doppel: &mut DoppelgangerCache,
        addr: BlockAddr,
        region: Option<&ApproxRegion>,
        dram: &mut MemoryImage,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        if let Some(data) = doppel.read(addr) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        let data = dram.fetch_block(addr);
        let mut emit = emit_into(displaced);
        match region {
            Some(r) => {
                doppel.insert_approx_with(addr, data, r, &mut emit);
            }
            None => doppel.insert_precise_with(addr, data, &mut emit),
        }
        LlcAccess { hit: false, data, fetched_from_memory: true }
    }

    fn doppel_writeback(
        doppel: &mut DoppelgangerCache,
        addr: BlockAddr,
        data: BlockData,
        region: Option<&ApproxRegion>,
        displaced: &mut Vec<DisplacedBlock>,
    ) -> LlcAccess {
        let mut emit = emit_into(displaced);
        match doppel.write_with(addr, data, region, &mut emit) {
            WriteStatus::NotResident => {
                // Allocate (non-inclusive corner), then mark dirty.
                match region {
                    Some(r) => {
                        doppel.insert_approx_with(addr, data, r, &mut emit);
                    }
                    None => doppel.insert_precise_with(addr, data, &mut emit),
                }
                doppel.mark_dirty(addr);
                LlcAccess { hit: false, data, fetched_from_memory: false }
            }
            WriteStatus::SameMap | WriteStatus::PreciseUpdated => {
                LlcAccess { hit: true, data, fetched_from_memory: false }
            }
            WriteStatus::Moved { .. } => LlcAccess { hit: true, data, fetched_from_memory: false },
        }
    }
}

/// Adapt a `DisplacedBlock` scratch buffer into a `Displaced` sink for
/// the Doppelgänger cache's `*_with` entry points.
fn emit_into(out: &mut Vec<DisplacedBlock>) -> impl FnMut(Displaced) + '_ {
    |d: Displaced| out.push(DisplacedBlock { addr: d.addr, dirty: d.dirty, data: d.data })
}

/// Adapt the same scratch buffer into the compressed cache's eviction
/// sink.
fn emit_evicted(out: &mut Vec<DisplacedBlock>) -> impl FnMut(Evicted) + '_ {
    |e: Evicted| out.push(DisplacedBlock { addr: e.addr, dirty: e.dirty, data: e.data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{Addr, ElemType};

    fn region() -> ApproxRegion {
        ApproxRegion::new(Addr(0), 1 << 30, ElemType::F32, 0.0, 100.0)
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F32, &[v; 16])
    }

    fn tiny_baseline() -> Llc {
        Llc::new(&SystemConfig::tiny(LlcKind::Baseline))
    }

    fn tiny_split() -> Llc {
        Llc::new(&SystemConfig::tiny_split())
    }

    fn read(
        llc: &mut Llc,
        addr: BlockAddr,
        region: Option<&ApproxRegion>,
        dram: &mut MemoryImage,
    ) -> LlcAccess {
        llc.read_into(addr, region, dram, &mut Vec::new())
    }

    fn writeback(
        llc: &mut Llc,
        addr: BlockAddr,
        data: BlockData,
        region: Option<&ApproxRegion>,
    ) -> LlcAccess {
        llc.writeback_into(addr, data, region, &mut Vec::new())
    }

    #[test]
    fn baseline_read_miss_fetches_exact_data() {
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(5), blk(7.5));
        let mut llc = tiny_baseline();
        let out = read(&mut llc, BlockAddr(5), None, &mut dram);
        assert!(!out.hit);
        assert!(out.fetched_from_memory);
        assert_eq!(out.data, blk(7.5));
        // Second read hits.
        let out2 = read(&mut llc, BlockAddr(5), None, &mut dram);
        assert!(out2.hit);
        assert_eq!(out2.data, blk(7.5));
    }

    #[test]
    fn split_routes_by_region() {
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(1), blk(1.0));
        dram.set_block(BlockAddr(2), blk(2.0));
        let mut llc = tiny_split();
        let r = region();
        read(&mut llc, BlockAddr(1), Some(&r), &mut dram); // approximate
        read(&mut llc, BlockAddr(2), None, &mut dram); // precise
        match &llc {
            Llc::Split { precise, doppel } => {
                assert!(doppel.contains(BlockAddr(1)));
                assert!(!doppel.contains(BlockAddr(2)));
                assert!(precise.contains(BlockAddr(2)));
                assert!(!precise.contains(BlockAddr(1)));
            }
            _ => unreachable!(),
        }
        assert!(llc.contains(BlockAddr(1)) && llc.contains(BlockAddr(2)));
    }

    #[test]
    fn miss_forwards_fetched_values_not_representative() {
        // §3.3: the fetched block goes to L2 immediately even when the
        // data array already holds a similar block.
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(1), blk(10.0));
        dram.set_block(BlockAddr(2), blk(10.001));
        let mut llc = tiny_split();
        let r = region();
        read(&mut llc, BlockAddr(1), Some(&r), &mut dram);
        let out = read(&mut llc, BlockAddr(2), Some(&r), &mut dram);
        assert_eq!(out.data, blk(10.001), "miss returns fetched values");
        // But a subsequent LLC hit serves the doppelganger.
        let out = read(&mut llc, BlockAddr(2), Some(&r), &mut dram);
        assert!(out.hit);
        assert_eq!(out.data, blk(10.0), "hit returns the representative");
    }

    #[test]
    fn writeback_hits_set_dirty_and_report() {
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(1), blk(5.0));
        let mut llc = tiny_baseline();
        read(&mut llc, BlockAddr(1), None, &mut dram);
        let out = writeback(&mut llc, BlockAddr(1), blk(6.0), None);
        assert!(out.hit);
        let counters = llc.counters();
        assert!(counters.lookups >= 2);
    }

    #[test]
    fn unified_takes_both_kinds() {
        let dopp = doppelganger::DoppelgangerConfig {
            tag_entries: 512,
            tag_ways: 16,
            data_entries: 256,
            data_ways: 16,
            map_space: doppelganger::MapSpace::paper_default(),
            unified: true,
        };
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(1), blk(1.0));
        dram.set_block(BlockAddr(2), blk(1.0));
        let mut llc = Llc::new(&SystemConfig::tiny(LlcKind::Unified(dopp)));
        let r = region();
        read(&mut llc, BlockAddr(1), Some(&r), &mut dram);
        read(&mut llc, BlockAddr(2), None, &mut dram);
        assert!(llc.contains(BlockAddr(1)) && llc.contains(BlockAddr(2)));
        let counters = llc.counters();
        assert_eq!(counters.dopp.insertions, 2);
        assert_eq!(counters.dopp.precise_insertions, 1);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut dram = MemoryImage::new();
        let mut llc = tiny_baseline();
        read(&mut llc, BlockAddr(1), None, &mut dram);
        read(&mut llc, BlockAddr(1), None, &mut dram);
        read(&mut llc, BlockAddr(2), None, &mut dram);
        let c = llc.counters();
        assert_eq!(c.lookups, 3);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses(), 2);
        assert!(c.mpki(1000) > 0.0);
    }

    #[test]
    fn compressed_serves_exact_data_for_both_kinds() {
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(1), blk(1.0));
        dram.set_block(BlockAddr(2), blk(2.0));
        let mut llc = Llc::new(&SystemConfig::tiny_compressed());
        let r = region();
        let out = read(&mut llc, BlockAddr(1), Some(&r), &mut dram); // approximate
        assert!(!out.hit && out.fetched_from_memory);
        read(&mut llc, BlockAddr(2), None, &mut dram); // precise
        // Both hit now, both byte-exact (compression is lossless).
        let out = read(&mut llc, BlockAddr(1), Some(&r), &mut dram);
        assert!(out.hit);
        assert_eq!(out.data, blk(1.0));
        let out = read(&mut llc, BlockAddr(2), None, &mut dram);
        assert!(out.hit);
        assert_eq!(out.data, blk(2.0));
        let c = llc.counters();
        assert_eq!(c.comp.insertions, 2);
        assert_eq!(c.lookups, 4);
        assert_eq!(c.hits, 2);
        assert_eq!(llc.sharing_factor(), 0.0);
        llc.check_invariants();
        // Dirty writeback re-compresses and flushes exactly.
        let out = writeback(&mut llc, BlockAddr(1), blk(9.0), Some(&r));
        assert!(out.hit);
        llc.flush_dirty(&mut dram);
        assert_eq!(dram.fetch_block(BlockAddr(1)), blk(9.0));
    }

    #[test]
    fn resident_blocks_snapshot() {
        let mut dram = MemoryImage::new();
        dram.set_block(BlockAddr(3), blk(3.0));
        let mut llc = tiny_split();
        let r = region();
        read(&mut llc, BlockAddr(3), Some(&r), &mut dram);
        let snap = llc.resident_blocks();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, BlockAddr(3));
    }
}
