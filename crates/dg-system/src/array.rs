//! The one interface every LLC array offers the router in [`crate::Llc`].

use crate::LlcCounters;
use dg_cache::{CompressedCache, ConventionalCache, Evicted};
use dg_mem::{ApproxRegion, BlockAddr, BlockData};
use dg_obs::Hist64;
use doppelganger::{DoppelgangerCache, WriteStatus};
use std::fmt;

/// One array an LLC organization is built from: a conventional cache,
/// the Doppelgänger tag/MTag/data arrays, or a compressed cache.
///
/// The array is passive. It answers lookups and writes and accepts
/// fills; the router composes the miss paths (a read miss fetches and
/// fills clean, a write miss fills dirty). Blocks an operation pushes
/// out go to `emit`. `region` is the block's annotation (`None` for
/// precise blocks); arrays that do not approximate ignore it.
///
/// The Doppelgänger-only observations and the occupancy histogram have
/// neutral defaults.
pub trait LlcArray: fmt::Debug + Send {
    /// Read `addr`: the block on a hit (LRU and statistics updated),
    /// `None` on a miss (the miss counted).
    fn lookup(&mut self, addr: BlockAddr) -> Option<BlockData>;

    /// Write the full block at `addr` if it is resident, marking it
    /// dirty. Returns whether it was resident.
    fn write(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        region: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool;

    /// Insert a non-resident `addr`, clean or dirty.
    fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        region: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    );

    /// Whether `addr` is resident (no statistics or LRU update).
    fn contains(&self, addr: BlockAddr) -> bool;

    /// Drop `addr` if resident, without a writeback. Each array counts
    /// this in its own statistics (see [`crate::Llc::invalidate_block`]).
    fn invalidate(&mut self, addr: BlockAddr);

    /// Visit every resident block with the data a hit would serve.
    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData));

    /// Visit every resident block whose data is a shared approximate
    /// representative.
    fn for_each_approx_block(&self, _f: &mut dyn FnMut(BlockAddr, &BlockData)) {}

    /// Pass every dirty block to `sink`, clearing its dirty bit.
    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData));

    /// Reset activity statistics (contents untouched).
    fn reset_stats(&mut self);

    /// Add this array's activity into `counters`.
    fn add_counters(&self, counters: &mut LlcCounters);

    /// Verify structural invariants; panics on violation.
    fn check_invariants(&self);

    /// Resident tags per data entry, for arrays that share data.
    fn sharing_factor(&self) -> Option<f64> {
        None
    }

    /// Sharing-list length at shared-insert time, for arrays that share.
    fn chain_depth_hist(&self) -> Option<&Hist64> {
        None
    }

    /// Set occupancy at fill time, for arrays that record it.
    fn occupancy_hist(&self) -> Option<&Hist64> {
        None
    }
}

/// The dirty blocks of an `iter_blocks` walk, copied out so the array
/// can be mutated while they are flushed.
fn dirty<'a>(
    blocks: impl Iterator<Item = (BlockAddr, bool, &'a BlockData)>,
) -> Vec<(BlockAddr, BlockData)> {
    blocks.filter(|(_, d, _)| *d).map(|(a, _, data)| (a, *data)).collect()
}

impl LlcArray for ConventionalCache {
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
        ConventionalCache::write(self, addr, *data)
    }

    fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        _: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) {
        // The victim's bytes are copied out only when it is dirty, the
        // one case in which the hierarchy writes them back.
        let mut victim = BlockData::zeroed();
        if let Some((vaddr, vdirty)) = self.fill_ref_lazy(addr, data, &mut victim) {
            emit(Evicted { addr: vaddr, dirty: vdirty, data: victim });
        }
        if dirty {
            self.mark_dirty(addr);
        }
    }

    fn contains(&self, addr: BlockAddr) -> bool {
        ConventionalCache::contains(self, addr)
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        ConventionalCache::invalidate(self, addr);
    }

    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().for_each(|(a, _, d)| f(a, d));
    }

    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData)) {
        for (addr, data) in dirty(self.iter_blocks()) {
            sink(addr, data);
            self.clear_dirty(addr);
        }
    }

    fn reset_stats(&mut self) {
        ConventionalCache::reset_stats(self);
    }

    fn add_counters(&self, counters: &mut LlcCounters) {
        // Every lookup probes the tag array; hits and fills touch the
        // data array.
        let s = self.stats();
        counters.precise_tag_accesses += s.accesses();
        counters.precise_data_accesses += s.hits + s.insertions;
        counters.lookups += s.accesses();
        counters.hits += s.hits;
    }

    /// Nothing beyond what the tag array's types guarantee.
    fn check_invariants(&self) {}

    fn occupancy_hist(&self) -> Option<&Hist64> {
        Some(ConventionalCache::occupancy_hist(self))
    }
}

impl LlcArray for DoppelgangerCache {
    fn lookup(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.read(addr)
    }

    fn write(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        region: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        self.write_with(addr, *data, region, emit) != WriteStatus::NotResident
    }

    fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        region: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) {
        match region {
            Some(r) => {
                self.insert_approx_with(addr, *data, r, emit);
            }
            None => self.insert_precise_with(addr, *data, emit),
        }
        if dirty {
            self.mark_dirty(addr);
        }
    }

    fn contains(&self, addr: BlockAddr) -> bool {
        DoppelgangerCache::contains(self, addr)
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        DoppelgangerCache::invalidate(self, addr);
    }

    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().for_each(|(a, _, _, d)| f(a, d));
    }

    fn for_each_approx_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().filter(|&(_, _, precise, _)| !precise).for_each(|(a, _, _, d)| f(a, d));
    }

    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData)) {
        DoppelgangerCache::flush_dirty(self, sink);
    }

    fn reset_stats(&mut self) {
        DoppelgangerCache::reset_stats(self);
    }

    fn add_counters(&self, counters: &mut LlcCounters) {
        let s = self.stats();
        counters.dopp += *s;
        counters.lookups += s.lookups();
        counters.hits += s.hits;
    }

    fn check_invariants(&self) {
        DoppelgangerCache::check_invariants(self);
    }

    fn sharing_factor(&self) -> Option<f64> {
        Some(self.avg_tags_per_data())
    }

    fn chain_depth_hist(&self) -> Option<&Hist64> {
        Some(DoppelgangerCache::chain_depth_hist(self))
    }
}

impl LlcArray for CompressedCache {
    fn lookup(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.read(addr)
    }

    fn write(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        _: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        CompressedCache::write(self, addr, data, emit)
    }

    fn fill(
        &mut self,
        addr: BlockAddr,
        data: &BlockData,
        dirty: bool,
        _: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) {
        CompressedCache::fill(self, addr, data, dirty, emit);
    }

    fn contains(&self, addr: BlockAddr) -> bool {
        CompressedCache::contains(self, addr)
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        CompressedCache::invalidate(self, addr);
    }

    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().for_each(|(a, _, d)| f(a, d));
    }

    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData)) {
        for (addr, data) in dirty(self.iter_blocks()) {
            sink(addr, data);
            self.clear_dirty(addr);
        }
    }

    fn reset_stats(&mut self) {
        CompressedCache::reset_stats(self);
    }

    fn add_counters(&self, counters: &mut LlcCounters) {
        let s = self.stats();
        counters.comp += *s;
        counters.lookups += s.accesses();
        counters.hits += s.hits;
    }

    fn check_invariants(&self) {
        CompressedCache::check_invariants(self);
    }

    fn occupancy_hist(&self) -> Option<&Hist64> {
        Some(CompressedCache::occupancy_hist(self))
    }
}
