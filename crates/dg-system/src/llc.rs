//! The shared LLC: one router over one or two [`LlcArray`]s, which is
//! how all four organizations (baseline / split / uniDoppelgänger /
//! compressed) are built.

use crate::{ArrayConfig, LlcArray, SystemConfig};
use dg_cache::{CacheGeometry, CompStats, CompressedCache, ConventionalCache, Evicted};
use dg_mem::{ApproxRegion, BlockAddr, BlockData, MemoryImage};
use dg_obs::Hist64;
use doppelganger::{DoppStats, DoppelgangerCache};

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

dg_obs::counters! {
    /// Activity counters for LLC energy accounting.
    pub struct LlcCounters {
        /// Conventional-portion tag probes (baseline LLC or precise cache).
        precise_tag_accesses,
        /// Conventional-portion data-array accesses.
        precise_data_accesses,
        /// Total LLC lookups.
        lookups,
        /// Total LLC lookup hits.
        hits,
    }
    derived misses;
    /// Doppelgänger statistics (zeroed for the baseline).
    nested dopp: DoppStats;
    /// Compressed-organization statistics (zeroed for the others).
    nested comp: CompStats;
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

/// The last-level cache under test: a main array plus, in the split
/// design, an approximate array ([`SystemConfig::llc_arrays`]).
///
/// One routing rule: an annotated block goes to the approximate array
/// when there is one; every other block goes to the main array, which
/// still receives the block's region (uniDoppelgänger maps the
/// annotated blocks it holds). Every other operation visits the main
/// array first, then the approximate one.
#[derive(Debug)]
pub struct Llc {
    main: Box<dyn LlcArray>,
    approx: Option<Box<dyn LlcArray>>,
}

/// Build one array.
fn build(cfg: &ArrayConfig) -> Box<dyn LlcArray> {
    match *cfg {
        ArrayConfig::Conventional { bytes, ways } => {
            Box::new(ConventionalCache::new(CacheGeometry::from_capacity(bytes, ways)))
        }
        ArrayConfig::Doppelganger(dopp, policy) => {
            let mut cache = DoppelgangerCache::new(dopp);
            cache.set_data_policy(policy);
            Box::new(cache)
        }
        ArrayConfig::Compressed(comp) => Box::new(CompressedCache::new(comp)),
    }
}

impl Llc {
    /// Build the LLC described by `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let arrays = cfg.llc_arrays();
        Llc { main: build(&arrays.main), approx: arrays.approx.as_ref().map(build) }
    }

    /// The arrays in visiting order: main first.
    fn arrays(&self) -> impl Iterator<Item = &dyn LlcArray> {
        std::iter::once(self.main.as_ref()).chain(self.approx.as_deref())
    }

    fn arrays_mut(&mut self) -> impl Iterator<Item = &mut (dyn LlcArray + 'static)> {
        std::iter::once(self.main.as_mut()).chain(self.approx.as_deref_mut())
    }

    /// The routing rule: the array that holds a block with annotation
    /// `region`.
    fn route(&mut self, region: Option<&ApproxRegion>) -> &mut dyn LlcArray {
        match (region, &mut self.approx) {
            (Some(_), Some(approx)) => approx.as_mut(),
            _ => self.main.as_mut(),
        }
    }

    /// Read `addr`; on a miss, fetch from `dram` and fill. Displaced
    /// blocks are appended to `displaced` (a reusable scratch buffer).
    ///
    /// `region` is the annotation covering the block (`None` for
    /// precise blocks) — it routes the request and drives map
    /// generation.
    pub fn read_into(
        &mut self,
        addr: BlockAddr,
        region: Option<&ApproxRegion>,
        dram: &mut MemoryImage,
        displaced: &mut Vec<Evicted>,
    ) -> LlcAccess {
        let array = self.route(region);
        if let Some(data) = array.lookup(addr) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        let data = dram.fetch_block(addr);
        array.fill(addr, &data, false, region, &mut |e| displaced.push(e));
        LlcAccess { hit: false, data, fetched_from_memory: true }
    }

    /// Accept a dirty writeback from an L2. Displaced blocks are
    /// appended to `displaced`.
    pub fn writeback_into(
        &mut self,
        addr: BlockAddr,
        data: BlockData,
        region: Option<&ApproxRegion>,
        displaced: &mut Vec<Evicted>,
    ) -> LlcAccess {
        let array = self.route(region);
        let mut emit = |e| displaced.push(e);
        let hit = array.write(addr, &data, region, &mut emit);
        if !hit {
            // Non-inclusive corner (the block was displaced
            // concurrently): allocate it dirty.
            array.fill(addr, &data, true, region, &mut emit);
        }
        LlcAccess { hit, data, fetched_from_memory: false }
    }

    /// Whether `addr` is resident.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.arrays().any(|a| a.contains(addr))
    }

    /// Activity counters for energy accounting and MPKI.
    pub fn counters(&self) -> LlcCounters {
        let mut counters = LlcCounters::default();
        self.arrays().for_each(|a| a.add_counters(&mut counters));
        counters
    }

    /// Snapshot the LLC-resident blocks as `(addr, data)` pairs —
    /// the raw material for the similarity analyses (Figs. 2, 7, 8).
    ///
    /// For Doppelgänger arrays, each tag contributes the shared
    /// representative it currently reads as.
    pub fn resident_blocks(&self) -> Vec<(BlockAddr, BlockData)> {
        let mut out = Vec::new();
        self.arrays().for_each(|a| a.for_each_block(&mut |addr, data| out.push((addr, *data))));
        out
    }

    /// Current tag-sharing factor of the Doppelgänger arrays (resident
    /// tags per data entry; 1.0 means no sharing, 0.0 without
    /// Doppelgänger arrays or for an empty cache). The paper reports a
    /// 4.4 average (§3.5).
    pub fn sharing_factor(&self) -> f64 {
        self.arrays().find_map(|a| a.sharing_factor()).unwrap_or(0.0)
    }

    /// Distribution of set occupancy at fill time in the arrays that
    /// record it (conventional and compressed; empty for
    /// uniDoppelgänger and unprofiled runs).
    pub fn occupancy_hist(&self) -> Hist64 {
        let mut hist = Hist64::new();
        self.arrays().filter_map(|a| a.occupancy_hist()).for_each(|h| hist.merge(h));
        hist
    }

    /// Distribution of Doppelgänger sharing-list length at shared-insert
    /// time (empty without Doppelgänger arrays and for unprofiled runs).
    pub fn chain_depth_hist(&self) -> Hist64 {
        let mut hist = Hist64::new();
        self.arrays().filter_map(|a| a.chain_depth_hist()).for_each(|h| hist.merge(h));
        hist
    }

    /// Reset activity statistics (cache contents untouched).
    pub fn reset_stats(&mut self) {
        self.arrays_mut().for_each(|a| a.reset_stats());
    }

    /// Write every dirty block back to `dram`, clearing dirty bits.
    pub fn flush_dirty(&mut self, dram: &mut MemoryImage) {
        self.arrays_mut().for_each(|a| a.flush_dirty(&mut |addr, data| dram.set_block(addr, data)));
    }

    /// Invalidate one block if resident, discarding its contents.
    /// Callers must ensure the block is clean (or its data is dead) —
    /// nothing is written back. This is the functional-warming path of
    /// the sampled runner: a store executed functionally during a
    /// skipped region updates DRAM behind the caches, so any retained
    /// copy of that block must go.
    ///
    /// The holding array counts the invalidation: a conventional array
    /// in `CacheStats::invalidations` (not part of [`LlcCounters`]), a
    /// Doppelgänger array in `dopp.tag_evictions` (and
    /// `dopp.data_evictions` when the tag was its entry's last), a
    /// compressed array in `comp.invalidations`. Sampled estimates are
    /// unaffected: functional stores run only in skipped regions, and
    /// the sampled runner builds its LLC counters from differences
    /// around the measured windows.
    pub fn invalidate_block(&mut self, addr: BlockAddr) {
        self.arrays_mut().for_each(|a| a.invalidate(addr));
    }

    /// Visit every resident *approximate* block together with the
    /// shared representative the cache would serve for it. Precise
    /// entries (and arrays that never approximate) are skipped — after
    /// a flush their contents match DRAM, so only the Doppelgänger
    /// entries can diverge from memory. Observation-only: no statistics
    /// or LRU updates. Used by the sampled runner's skip-region
    /// approximation overlay to snapshot corruption state.
    pub fn for_each_approx_resident(&self, mut f: impl FnMut(BlockAddr, BlockData)) {
        self.arrays().for_each(|a| a.for_each_approx_block(&mut |addr, data| f(addr, *data)));
    }

    /// Visit the address of every resident block — precise and
    /// approximate, across all arrays. Observation-only. Used by the
    /// sampled runner to build the skip-epoch residency filter that
    /// lets functional stores to absent blocks bypass the invalidation
    /// probes entirely.
    pub fn for_each_resident(&self, mut f: impl FnMut(BlockAddr)) {
        self.arrays().for_each(|a| a.for_each_block(&mut |addr, _| f(addr)));
    }

    /// Verify every array's structural invariants. Panics on violation;
    /// used by integration and property tests.
    pub fn check_invariants(&self) {
        self.arrays().for_each(|a| a.check_invariants());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlcKind;
    use dg_mem::{Addr, ElemType};
    use dg_obs::Snapshot;

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
        let approx = llc.approx.as_ref().expect("split has an approximate array");
        assert!(approx.contains(BlockAddr(1)));
        assert!(!approx.contains(BlockAddr(2)));
        assert!(llc.main.contains(BlockAddr(2)));
        assert!(!llc.main.contains(BlockAddr(1)));
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

    /// The operations only the sampled runner uses — `for_each_resident`,
    /// `for_each_approx_resident` and `invalidate_block` — never meet
    /// the lockstep oracle, so they are held to `resident_blocks` and to
    /// the documented counter effects here, for every organization.
    #[test]
    fn sampled_runner_operations_agree_with_resident_blocks() {
        let unified = doppelganger::DoppelgangerConfig {
            tag_entries: 512,
            tag_ways: 16,
            data_entries: 256,
            data_ways: 16,
            map_space: doppelganger::MapSpace::paper_default(),
            unified: true,
        };
        // (organization, whether it has Doppelgänger arrays, the
        // counters an invalidation may move)
        let orgs: [(SystemConfig, bool, &[&str]); 4] = [
            (SystemConfig::tiny(LlcKind::Baseline), false, &[]),
            (SystemConfig::tiny_split(), true, &["dopp.tag_evictions", "dopp.data_evictions"]),
            (
                SystemConfig::tiny(LlcKind::Unified(unified)),
                true,
                &["dopp.tag_evictions", "dopp.data_evictions"],
            ),
            (SystemConfig::tiny_compressed(), false, &["comp.invalidations"]),
        ];
        let r = region();
        // Even blocks are annotated, odd ones precise.
        let region_of = |a: u64| (a % 2 == 0).then_some(&r);
        for (cfg, approximates, moved) in orgs {
            let label = format!("{:?}", cfg.llc);
            let mut dram = MemoryImage::new();
            for a in 0..4096u64 {
                dram.set_block(BlockAddr(a), blk((a % 7) as f64));
            }
            let mut llc = Llc::new(&cfg);
            // Enough distinct blocks to force evictions; writebacks to a
            // mix of resident and non-resident blocks.
            for i in 0..3000u64 {
                let a = (i * 37) % 2048;
                llc.read_into(BlockAddr(a), region_of(a), &mut dram, &mut Vec::new());
                if i % 3 == 0 {
                    let w = (i * 11) % 2048;
                    llc.writeback_into(
                        BlockAddr(w),
                        blk(i as f64 % 5.0),
                        region_of(w),
                        &mut Vec::new(),
                    );
                }
            }
            llc.check_invariants();

            let resident = llc.resident_blocks();
            assert!(resident.len() > 16, "{label}: too few resident blocks");
            let mut visited = Vec::new();
            llc.for_each_resident(|a| visited.push(a));
            let addrs: Vec<BlockAddr> = resident.iter().map(|&(a, _)| a).collect();
            assert_eq!(visited, addrs, "{label}: for_each_resident");

            let mut approx = Vec::new();
            llc.for_each_approx_resident(|a, d| approx.push((a, d)));
            let expected: Vec<(BlockAddr, BlockData)> = if approximates {
                resident.iter().copied().filter(|&(a, _)| region_of(a.0).is_some()).collect()
            } else {
                Vec::new()
            };
            assert_eq!(approx, expected, "{label}: for_each_approx_resident");

            // Invalidate one approximate-or-precise block from the middle.
            let victim = addrs[addrs.len() / 2];
            let before = llc.counters();
            llc.invalidate_block(victim);
            let after = llc.counters();
            let remaining: Vec<BlockAddr> = llc.resident_blocks().iter().map(|&(a, _)| a).collect();
            let mut expected = addrs.clone();
            expected.retain(|&a| a != victim);
            assert_eq!(remaining, expected, "{label}: invalidate_block removes exactly one block");
            for ((name, b), (_, a)) in before.metrics().into_iter().zip(after.metrics()) {
                if a != b {
                    assert!(moved.contains(&name.as_str()), "{label}: invalidation moved {name} {b} -> {a}");
                }
            }
            if let Some(&first) = moved.first() {
                let get =
                    |c: &LlcCounters| c.metrics().into_iter().find(|(n, _)| *n == first).unwrap().1;
                assert_eq!(get(&after), get(&before) + 1, "{label}: {first}");
            }
            // A non-resident block is a no-op.
            llc.invalidate_block(victim);
            assert_eq!(llc.counters(), after, "{label}: second invalidation");
            llc.check_invariants();
        }
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
