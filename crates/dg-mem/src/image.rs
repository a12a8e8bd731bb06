//! Sparse functional main-memory image backed by a paged arena.

use crate::{Addr, BlockAddr, BlockData, Memory};
use dg_par::FxHashMap;
use std::fmt;

/// Blocks per arena page (one `u64` occupancy bitmap per page).
///
/// A page spans `PAGE_BLOCKS * 64 B = 4 KiB` of address space, so the
/// arena's page granularity coincides with a conventional OS page:
/// workload arrays touch long dense runs of blocks, which land in the
/// same page and are served without any hashing at all.
const PAGE_BLOCKS: usize = 64;

/// log2(PAGE_BLOCKS), for the block-address → page-id shift.
const PAGE_SHIFT: u32 = PAGE_BLOCKS.trailing_zeros();

/// Sentinel page id for an empty MRU cache (unreachable: page ids are
/// block addresses shifted right, so the top bits are always zero).
const NO_PAGE: u64 = u64::MAX;

/// One dense page of the arena: 64 blocks plus an occupancy bitmap
/// recording which of them have been written at least once.
#[derive(Clone)]
struct Page {
    blocks: Box<[BlockData; PAGE_BLOCKS]>,
    /// Bit `b` set ⇔ `blocks[b]` has been stored to. Blocks are zeroed
    /// until their first store, so reads may skip this bitmap entirely;
    /// it only feeds `populated_blocks` / `iter_blocks`.
    present: u64,
}

impl Page {
    fn new() -> Self {
        Page { blocks: Box::new([BlockData::zeroed(); PAGE_BLOCKS]), present: 0 }
    }
}

/// A sparse, functional image of main memory at block granularity.
///
/// Unallocated blocks read as zero. The image serves three roles:
///
/// 1. The precise backing store behind every simulated cache hierarchy.
/// 2. The "golden" memory for precise reference runs of workloads.
/// 3. The initial-state snapshot embedded in a [`crate::Trace`].
///
/// Internally the image is a two-level paged arena rather than a flat
/// hash map: a small page directory maps page ids to dense 4 KiB pages,
/// and a one-entry MRU page cache serves consecutive accesses to the
/// same page without touching the directory. Every simulated load and
/// store below the cache hierarchy bottoms out here, so the common
/// sequential case must not hash. Accesses through `&mut self` entry
/// points ([`Memory::load_bytes`], [`Memory::store_bytes`],
/// [`Self::fetch_block`], [`Self::set_block`]) refresh the MRU cache;
/// the shared accessor [`Self::block`] consults it read-only.
///
/// [`Self::iter_blocks`] yields blocks in ascending address order — a
/// deterministic order independent of the store sequence.
///
/// # Example
///
/// ```
/// use dg_mem::{Addr, Memory, MemoryImage};
/// let mut m = MemoryImage::new();
/// m.store_f64(Addr(8), 2.5);
/// assert_eq!(m.load_f64(Addr(8)), 2.5);
/// assert_eq!(m.load_f64(Addr(4096)), 0.0); // untouched memory reads zero
/// ```
#[derive(Clone)]
pub struct MemoryImage {
    // FxHash rather than SipHash: the directory is only consulted on an
    // MRU-cache miss, but the keys are trusted either way (see
    // dg_par::fxmap).
    dir: FxHashMap<u64, u32>,
    pages: Vec<Page>,
    /// One-entry MRU page cache: `(page id, index into pages)`.
    mru: (u64, u32),
    /// Number of blocks stored to at least once (Σ popcount(present)).
    populated: usize,
}

impl Default for MemoryImage {
    fn default() -> Self {
        MemoryImage { dir: FxHashMap::default(), pages: Vec::new(), mru: (NO_PAGE, 0), populated: 0 }
    }
}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryImage")
            .field("pages", &self.pages.len())
            .field("populated_blocks", &self.populated)
            .finish()
    }
}

impl MemoryImage {
    /// An empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn page_id(addr: BlockAddr) -> (u64, usize) {
        (addr.0 >> PAGE_SHIFT, (addr.0 & (PAGE_BLOCKS as u64 - 1)) as usize)
    }

    /// Look up a page without updating the MRU cache (shared access).
    #[inline]
    fn find_page(&self, pid: u64) -> Option<usize> {
        if self.mru.0 == pid {
            return Some(self.mru.1 as usize);
        }
        self.dir.get(&pid).map(|&i| i as usize)
    }

    /// Look up a page, refreshing the MRU cache on success. The MRU
    /// compare is inline; the directory probe is one call away.
    #[inline(always)]
    fn find_page_mut(&mut self, pid: u64) -> Option<usize> {
        if self.mru.0 == pid {
            return Some(self.mru.1 as usize);
        }
        self.probe_dir(pid)
    }

    #[inline(never)]
    fn probe_dir(&mut self, pid: u64) -> Option<usize> {
        let idx = *self.dir.get(&pid)?;
        self.mru = (pid, idx);
        Some(idx as usize)
    }

    /// Look up a page, allocating (zeroed) if absent; refreshes the MRU.
    #[inline(always)]
    fn find_or_alloc_page(&mut self, pid: u64) -> usize {
        if self.mru.0 == pid {
            return self.mru.1 as usize;
        }
        self.probe_or_alloc(pid)
    }

    #[inline(never)]
    fn probe_or_alloc(&mut self, pid: u64) -> usize {
        let next = self.pages.len() as u32;
        let idx = *self.dir.entry(pid).or_insert(next);
        if idx == next {
            self.pages.push(Page::new());
        }
        self.mru = (pid, idx);
        idx as usize
    }

    /// Read the full 64-byte block at `addr` (zero if never written).
    ///
    /// Shared access: probes the MRU page cache read-only. Callers on
    /// the per-access hot path hold `&mut self` and should prefer
    /// [`Self::fetch_block`], which also refreshes the cache.
    #[inline]
    pub fn block(&self, addr: BlockAddr) -> BlockData {
        let (pid, slot) = Self::page_id(addr);
        match self.find_page(pid) {
            Some(idx) => self.pages[idx].blocks[slot],
            None => BlockData::zeroed(),
        }
    }

    /// Read the full 64-byte block at `addr` (zero if never written),
    /// refreshing the MRU page cache — the hot-path variant of
    /// [`Self::block`] used for cache-miss fills.
    #[inline]
    pub fn fetch_block(&mut self, addr: BlockAddr) -> BlockData {
        let (pid, slot) = Self::page_id(addr);
        match self.find_page_mut(pid) {
            Some(idx) => self.pages[idx].blocks[slot],
            None => BlockData::zeroed(),
        }
    }

    /// Overwrite the full 64-byte block at `addr` — the writeback-path
    /// block move, routed through the SIMD copy lane.
    #[inline]
    pub fn set_block(&mut self, addr: BlockAddr, data: BlockData) {
        let (pid, slot) = Self::page_id(addr);
        let idx = self.find_or_alloc_page(pid);
        let page = &mut self.pages[idx];
        page.blocks[slot].copy_from(&data);
        let bit = 1u64 << slot;
        if page.present & bit == 0 {
            page.present |= bit;
            self.populated += 1;
        }
    }

    /// Number of blocks that have been written at least once.
    pub fn populated_blocks(&self) -> usize {
        self.populated
    }

    /// Iterate over all populated blocks in ascending address order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, &BlockData)> {
        let mut pages: Vec<(u64, u32)> = self.dir.iter().map(|(&p, &i)| (p, i)).collect();
        pages.sort_unstable_by_key(|&(pid, _)| pid);
        pages.into_iter().flat_map(move |(pid, idx)| {
            let page = &self.pages[idx as usize];
            (0..PAGE_BLOCKS).filter_map(move |b| {
                (page.present >> b & 1 == 1)
                    .then(|| (BlockAddr((pid << PAGE_SHIFT) + b as u64), &page.blocks[b]))
            })
        })
    }
}

impl MemoryImage {
    /// The load body behind every [`Memory`] entry point.
    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        let off = addr.offset_of_access(buf.len());
        let (pid, slot) = Self::page_id(addr.block());
        match self.find_page_mut(pid) {
            Some(idx) => self.pages[idx].blocks[slot].read_at(off, buf),
            None => buf.fill(0),
        }
    }

    /// The store body behind every [`Memory`] entry point.
    #[inline(always)]
    fn store(&mut self, addr: Addr, bytes: &[u8]) {
        let off = addr.offset_of_access(bytes.len());
        let (pid, slot) = Self::page_id(addr.block());
        let idx = self.find_or_alloc_page(pid);
        let page = &mut self.pages[idx];
        page.blocks[slot].write_at(off, bytes);
        let bit = 1u64 << slot;
        if page.present & bit == 0 {
            page.present |= bit;
            self.populated += 1;
        }
    }
}

impl Memory for MemoryImage {
    crate::memory_access_methods!(Self::load, Self::store);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElemType;

    #[test]
    fn zero_initialised() {
        let mut m = MemoryImage::new();
        assert_eq!(m.load_f32(Addr(123 * 4)), 0.0);
        assert_eq!(m.populated_blocks(), 0);
    }

    #[test]
    fn store_load_round_trip_all_types() {
        let mut m = MemoryImage::new();
        m.store_u8(Addr(0), 17);
        m.store_i32(Addr(4), -42);
        m.store_f32(Addr(8), 1.5);
        m.store_f64(Addr(16), -2.25);
        assert_eq!(m.load_u8(Addr(0)), 17);
        assert_eq!(m.load_i32(Addr(4)), -42);
        assert_eq!(m.load_f32(Addr(8)), 1.5);
        assert_eq!(m.load_f64(Addr(16)), -2.25);
    }

    #[test]
    fn block_view_sees_stores() {
        let mut m = MemoryImage::new();
        m.store_f32(Addr(64), 9.0);
        let b = m.block(BlockAddr(1));
        assert_eq!(b.elem(ElemType::F32, 0), 9.0);
        assert_eq!(m.fetch_block(BlockAddr(1)), b);
    }

    #[test]
    fn set_block_overwrites() {
        let mut m = MemoryImage::new();
        let b = BlockData::from_values(ElemType::F32, &[5.0; 16]);
        m.set_block(BlockAddr(3), b);
        assert_eq!(m.load_f32(Addr(3 * 64)), 5.0);
        assert_eq!(m.populated_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "block boundary")]
    fn cross_block_store_rejected() {
        let mut m = MemoryImage::new();
        m.store_f64(Addr(60), 1.0);
    }

    #[test]
    fn iter_blocks_yields_populated() {
        let mut m = MemoryImage::new();
        m.store_u8(Addr(0), 1);
        m.store_u8(Addr(200), 2);
        let addrs: Vec<u64> = m.iter_blocks().map(|(a, _)| a.0).collect();
        assert_eq!(addrs, vec![0, 3]);
    }

    #[test]
    fn iter_blocks_is_address_ordered_regardless_of_store_order() {
        let mut m = MemoryImage::new();
        // Store far-apart pages in reverse order.
        for &b in &[9999u64, 5, 70, 4096, 0, 130] {
            m.store_u8(Addr(b * 64), 1);
        }
        let addrs: Vec<u64> = m.iter_blocks().map(|(a, _)| a.0).collect();
        assert_eq!(addrs, vec![0, 5, 70, 130, 4096, 9999]);
        assert_eq!(m.populated_blocks(), 6);
    }

    #[test]
    fn cross_page_accesses_fall_back_to_directory() {
        let mut m = MemoryImage::new();
        // Two blocks in different pages (page = 64 blocks): ping-pong
        // between them so every access misses the MRU page cache.
        m.store_i32(Addr(0), 1);
        m.store_i32(Addr(64 * 64), 2);
        for _ in 0..4 {
            assert_eq!(m.load_i32(Addr(0)), 1);
            assert_eq!(m.load_i32(Addr(64 * 64)), 2);
        }
    }

    #[test]
    fn zero_store_marks_block_populated() {
        // Parity with the historical hashmap behaviour: storing zeroes
        // still allocates ("writes") the block.
        let mut m = MemoryImage::new();
        m.store_i32(Addr(128), 0);
        assert_eq!(m.populated_blocks(), 1);
        assert_eq!(m.iter_blocks().count(), 1);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = MemoryImage::new();
        a.store_i32(Addr(0), 7);
        let mut b = a.clone();
        b.store_i32(Addr(0), 9);
        assert_eq!(a.load_i32(Addr(0)), 7);
        assert_eq!(b.load_i32(Addr(0)), 9);
    }
}
