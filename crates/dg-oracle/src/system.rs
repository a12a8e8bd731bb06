//! Reference hierarchy: the `dg_system::System` protocol (MSI, timing,
//! inclusion) over naive oracle components.

use crate::{OracleCache, OracleLlc, OracleMemory};
use dg_cache::{CacheGeometry, CacheStats, Evicted, Sharers};
use dg_mem::{Addr, AnnotationTable, ApproxRegion, BlockAddr, BlockData, MemoryImage};
use dg_system::{LlcCounters, SystemConfig};
use std::collections::{BTreeMap, VecDeque};

/// Reference implementation of `dg_system::System`.
///
/// Same protocol, same event ordering, same cycle accounting — the only
/// differences are representational: a `BTreeMap` directory instead of
/// a hash map (the directory is never iterated, so the map type is
/// unobservable), a `VecDeque` writeback buffer, eager block copies,
/// and naive caches. Every counter and every observable event must
/// match the optimized engine access-for-access.
#[derive(Debug)]
pub struct OracleSystem {
    cfg: SystemConfig,
    l1: Vec<OracleCache>,
    l2: Vec<OracleCache>,
    llc: OracleLlc,
    dram: OracleMemory,
    annots: AnnotationTable,
    directory: BTreeMap<BlockAddr, Sharers>,
    wb: VecDeque<(BlockAddr, BlockData)>,
    wb_total: u64,
    displaced: Vec<Evicted>,
    cycles: Vec<u64>,
    insts: Vec<u64>,
    off_chip_reads: u64,
    back_invalidations: u64,
    /// Per-core L1 misses that filled the L2 twice: the L2 victim's
    /// writeback displaced the block the miss had just fetched.
    refetches: Vec<u64>,
}

impl OracleSystem {
    /// Build the reference machine over a snapshot of `initial` memory.
    ///
    /// # Panics
    ///
    /// Panics if [`SystemConfig::validate`] rejects `cfg` — the same
    /// guard as the optimized engine.
    pub fn new(cfg: SystemConfig, initial: &MemoryImage, annots: AnnotationTable) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid system configuration: {e}"));
        let l1_geom = CacheGeometry::from_capacity(cfg.l1_bytes, cfg.l1_ways);
        let l2_geom = CacheGeometry::from_capacity(cfg.l2_bytes, cfg.l2_ways);
        OracleSystem {
            llc: OracleLlc::new(&cfg),
            l1: (0..cfg.cores).map(|_| OracleCache::new(l1_geom)).collect(),
            l2: (0..cfg.cores).map(|_| OracleCache::new(l2_geom)).collect(),
            dram: OracleMemory::from_image(initial),
            annots,
            directory: BTreeMap::new(),
            wb: VecDeque::new(),
            wb_total: 0,
            displaced: Vec::new(),
            cycles: vec![0; cfg.cores],
            insts: vec![0; cfg.cores],
            off_chip_reads: 0,
            back_invalidations: 0,
            refetches: vec![0; cfg.cores],
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn region_of(&self, block: BlockAddr) -> Option<ApproxRegion> {
        self.annots.lookup(block.base()).copied()
    }

    // ------------------------------------------------------------------
    // Core-visible operations.
    // ------------------------------------------------------------------

    /// Account `ops` non-memory operations on `core`.
    pub fn think(&mut self, core: usize, ops: u32) {
        self.cycles[core] += ops as u64;
        self.insts[core] += ops as u64;
    }

    /// Perform a load of `buf.len()` bytes at `addr` on `core`.
    pub fn load(&mut self, core: usize, addr: Addr, buf: &mut [u8]) {
        self.insts[core] += 1;
        let block = addr.block();
        let off = addr.block_offset();
        self.cycles[core] += self.cfg.l1_latency;
        if let Some(data) = self.l1[core].read(block) {
            buf.copy_from_slice(&data.as_bytes()[off..off + buf.len()]);
            return;
        }
        let data = self.l1_miss(core, block, false);
        buf.copy_from_slice(&data.as_bytes()[off..off + buf.len()]);
    }

    /// Perform a store of `bytes` at `addr` on `core`.
    pub fn store(&mut self, core: usize, addr: Addr, bytes: &[u8]) {
        self.insts[core] += 1;
        let block = addr.block();
        self.cycles[core] += self.cfg.l1_latency;
        // Same protocol as the optimized store fast path: a dirty L1
        // line proves M state, so the directory probe is skipped; a
        // clean hit upgrades ownership before the bytes land.
        if let Some((set, way, dirty)) = self.l1[core].write_probe(block) {
            if !dirty {
                self.acquire_ownership(core, block);
            }
            self.l1[core].write_at(set, way, addr.block_offset(), bytes);
            return;
        }
        self.l1_miss(core, block, true);
        let wrote = self.l1[core].write_bytes(block, addr.block_offset(), bytes);
        assert!(wrote, "l1_miss fills L1");
    }

    // ------------------------------------------------------------------
    // Hierarchy mechanics (protocol transliterated from dg-system).
    // ------------------------------------------------------------------

    fn l1_miss(&mut self, core: usize, block: BlockAddr, for_write: bool) -> BlockData {
        self.cycles[core] += self.cfg.l2_latency;
        if let Some(data) = self.l2[core].read(block) {
            self.fill_l1(core, block, &data);
            if for_write {
                self.acquire_ownership(core, block);
            }
            return data;
        }

        let region = self.region_of(block);
        let data = loop {
            self.cycles[core] += self.cfg.llc_latency;

            let sharers = self.directory.entry(block).or_default();
            let remote_owner = sharers.owner().filter(|&o| o != core);
            sharers.add(core);

            if let Some(owner) = remote_owner {
                self.remote_writeback(owner, block, region.as_ref());
                self.cycles[core] += self.cfg.llc_latency;
            }

            let out =
                self.llc.read_into(block, region.as_ref(), &mut self.dram, &mut self.displaced);
            if out.fetched_from_memory {
                self.cycles[core] += self.cfg.mem_latency;
                self.off_chip_reads += 1;
            }
            self.drain_displacements();

            // The L2 victim's writeback may displace the entry just
            // filled (fewest-sharers); then the block is fetched again.
            self.fill_l2(core, block, &out.data);
            if self.l2[core].contains(block) {
                break out.data;
            }
            self.refetches[core] += 1;
        };
        self.fill_l1(core, block, &data);
        if for_write {
            self.acquire_ownership(core, block);
        }
        data
    }

    fn acquire_ownership(&mut self, core: usize, block: BlockAddr) {
        let sharers = self.directory.entry(block).or_default();
        sharers.add(core);
        if sharers.owner() == Some(core) {
            return;
        }
        let snapshot = *sharers;
        if snapshot.iter().any(|c| c != core) {
            self.cycles[core] += self.cfg.llc_latency;
        }
        let region = self.region_of(block);
        for c in snapshot.iter().filter(|&c| c != core) {
            let mut payload: Option<BlockData> = None;
            if let Some(ev) = self.l1[c].invalidate(block) {
                if ev.dirty {
                    payload = Some(ev.data);
                }
            }
            if let Some(ev) = self.l2[c].invalidate(block) {
                if ev.dirty && payload.is_none() {
                    payload = Some(ev.data);
                }
            }
            if let Some(data) = payload {
                self.llc.writeback_into(block, data, region.as_ref(), &mut self.displaced);
                self.drain_displacements();
            }
            self.directory.get_mut(&block).expect("present").remove(c);
        }
        self.directory.get_mut(&block).expect("present").set_owner(core);
    }

    fn remote_writeback(&mut self, owner: usize, block: BlockAddr, region: Option<&ApproxRegion>) {
        let mut payload: Option<BlockData> = None;
        if let Some((data, dirty)) = self.l1[owner].peek_line(block) {
            if dirty {
                payload = Some(*data);
            }
            self.l1[owner].clear_dirty(block);
        }
        if let Some((data, dirty)) = self.l2[owner].peek_line(block) {
            if dirty && payload.is_none() {
                payload = Some(*data);
            }
        }
        if let Some(data) = payload {
            if self.l2[owner].contains(block) {
                self.l2[owner].write(block, data);
            }
            self.llc.writeback_into(block, data, region, &mut self.displaced);
            self.drain_displacements();
        }
        self.l2[owner].clear_dirty(block);
        if let Some(s) = self.directory.get_mut(&block) {
            s.clear_owner();
        }
    }

    fn fill_l2(&mut self, core: usize, block: BlockAddr, data: &BlockData) {
        let Some(ev) = self.l2[core].fill(block, data, false) else {
            return;
        };
        let mut dirty = ev.dirty;
        let mut payload = ev.data;
        if let Some(l1ev) = self.l1[core].invalidate(ev.addr) {
            if l1ev.dirty {
                dirty = true;
                payload = l1ev.data;
            }
        }
        if let Some(s) = self.directory.get_mut(&ev.addr) {
            s.remove(core);
        }
        if dirty {
            let region = self.region_of(ev.addr);
            self.llc.writeback_into(ev.addr, payload, region.as_ref(), &mut self.displaced);
            self.drain_displacements();
        }
    }

    fn fill_l1(&mut self, core: usize, block: BlockAddr, data: &BlockData) {
        let Some(ev) = self.l1[core].fill(block, data, false) else {
            return;
        };
        if ev.dirty {
            let wrote = self.l2[core].write(ev.addr, ev.data);
            assert!(wrote, "L1 victims are L2-resident (inclusion)");
        }
    }

    fn drain_displacements(&mut self) {
        if self.displaced.is_empty() {
            return;
        }
        let displaced = std::mem::take(&mut self.displaced);
        for d in displaced {
            let mut dirty = d.dirty;
            let mut payload = d.data;
            let sharers = self.directory.remove(&d.addr).unwrap_or_default();
            for c in sharers.iter() {
                // L2 first, then L1; back-invalidations count L2 hits
                // only — the optimized engine's accounting.
                if let Some(ev) = self.l2[c].invalidate(d.addr) {
                    if ev.dirty {
                        dirty = true;
                        payload = ev.data;
                    }
                    self.back_invalidations += 1;
                }
                if let Some(ev) = self.l1[c].invalidate(d.addr) {
                    if ev.dirty {
                        dirty = true;
                        payload = ev.data;
                    }
                }
            }
            if dirty {
                self.wb.push_back((d.addr, payload));
                self.wb_total += 1;
            }
        }
        while let Some((addr, data)) = self.wb.pop_front() {
            self.dram.set_block(addr, data);
        }
    }

    // ------------------------------------------------------------------
    // Reporting — the observable surface compared in lockstep.
    // ------------------------------------------------------------------

    /// Simulated runtime: the slowest core's cycle count.
    pub fn runtime_cycles(&self) -> u64 {
        self.cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total instructions across cores.
    pub fn total_instructions(&self) -> u64 {
        self.insts.iter().sum()
    }

    /// Per-core cycle counts.
    pub fn core_cycles(&self) -> &[u64] {
        &self.cycles
    }

    /// Off-chip traffic in blocks.
    pub fn off_chip_blocks(&self) -> u64 {
        self.off_chip_reads + self.wb_total
    }

    /// DRAM reads.
    pub fn off_chip_reads(&self) -> u64 {
        self.off_chip_reads
    }

    /// Writebacks that reached DRAM.
    pub fn off_chip_writes(&self) -> u64 {
        self.wb_total
    }

    /// Back-invalidations delivered to private caches.
    pub fn back_invalidations(&self) -> u64 {
        self.back_invalidations
    }

    /// The LLC's activity counters.
    pub fn llc_counters(&self) -> LlcCounters {
        self.llc.counters()
    }

    /// Doppelgänger tag-sharing factor.
    pub fn llc_sharing_factor(&self) -> f64 {
        self.llc.sharing_factor()
    }

    /// Aggregate L1 statistics across cores.
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.l1 {
            s += *c.stats();
        }
        s
    }

    /// Aggregate L2 statistics across cores.
    pub fn l2_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.l2 {
            s += *c.stats();
        }
        s
    }

    /// LLC-resident approximate blocks with their annotations, in the
    /// same iteration order as the optimized `approx_llc_snapshot`.
    pub fn approx_llc_snapshot(&self) -> Vec<(BlockData, ApproxRegion)> {
        self.llc
            .resident_blocks()
            .into_iter()
            .filter_map(|(addr, data)| self.region_of(addr).map(|r| (data, r)))
            .collect()
    }

    /// Fraction of LLC-resident blocks that are annotated approximate.
    pub fn approx_llc_fraction(&self) -> f64 {
        let blocks = self.llc.resident_blocks();
        if blocks.is_empty() {
            return 0.0;
        }
        let approx = blocks.iter().filter(|(a, _)| self.region_of(*a).is_some()).count();
        approx as f64 / blocks.len() as f64
    }

    /// The LLC's resident blocks (for content comparison).
    pub fn llc_resident_blocks(&self) -> Vec<(BlockAddr, BlockData)> {
        self.llc.resident_blocks()
    }

    /// Direct access to the reference DRAM.
    pub fn dram(&self) -> &OracleMemory {
        &self.dram
    }

    /// Verify LLC structural invariants; panics on violation.
    pub fn check_llc_invariants(&self) {
        self.llc.check_invariants();
    }

    /// Verify counter conservation laws (insertions vs. residency vs.
    /// evictions at every level); panics on violation.
    pub fn check_conservation(&self) {
        for (i, c) in self.l1.iter().enumerate() {
            let s = c.stats();
            assert_eq!(
                s.insertions,
                c.len() as u64 + s.evictions + s.invalidations,
                "core {i} L1: insertions != resident + evictions + invalidations"
            );
            // Every recorded L1 miss triggers exactly one fill.
            assert_eq!(s.insertions, s.misses, "core {i} L1: insertions != misses");
        }
        for (i, c) in self.l2.iter().enumerate() {
            let s = c.stats();
            assert_eq!(
                s.insertions,
                c.len() as u64 + s.evictions + s.invalidations,
                "core {i} L2: insertions != resident + evictions + invalidations"
            );
            // L2 `write` misses (victim writebacks racing an eviction)
            // record misses without filling; a refetch fills twice.
            assert!(
                s.insertions <= s.misses + self.refetches[i],
                "core {i} L2: more insertions than misses and refetches"
            );
        }
        self.llc.check_conservation();
        assert!(self.wb.is_empty(), "writeback buffer drains fully after every access");
    }

    /// Flush every dirty line down to DRAM, leaving caches clean.
    pub fn flush(&mut self) {
        for core in 0..self.cfg.cores {
            let dirty_l1: Vec<(BlockAddr, BlockData)> = self.l1[core]
                .iter_blocks()
                .filter(|(_, d, _)| *d)
                .map(|(a, _, data)| (a, *data))
                .collect();
            for (a, data) in dirty_l1 {
                self.l2[core].write(a, data);
                self.l1[core].clear_dirty(a);
            }
            let dirty_l2: Vec<(BlockAddr, BlockData)> = self.l2[core]
                .iter_blocks()
                .filter(|(_, d, _)| *d)
                .map(|(a, _, data)| (a, *data))
                .collect();
            for (a, data) in dirty_l2 {
                let region = self.region_of(a);
                self.llc.writeback_into(a, data, region.as_ref(), &mut self.displaced);
                self.drain_displacements();
                self.l2[core].clear_dirty(a);
            }
        }
        self.llc.flush_dirty(&mut self.dram);
    }
}
