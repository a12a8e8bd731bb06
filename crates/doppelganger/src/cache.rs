//! The Doppelgänger cache proper (paper §3).

use crate::{
    DataEntry, DataId, DataKind, DataPolicy, DoppStats, DoppelgangerConfig, MapValue, TagEntry,
    TagId, TagKind,
};
use dg_cache::{CacheGeometry, Evicted, TagArray};
use dg_mem::{ApproxRegion, BlockAddr, BlockData};
use dg_obs::{enabled, Hist64, Level};

/// Outcome of inserting a block on an LLC miss (§3.3).
#[derive(Debug, Default)]
pub struct InsertOutcome {
    /// Whether a similar block already existed and was reused
    /// ("Similar Data Block Exists" case).
    pub shared_existing: bool,
    /// Every tag invalidated to make room (tag-set victim and/or the
    /// whole tag list of an evicted data entry). The hierarchy issues
    /// back-invalidations for their sharers and writebacks for dirty
    /// ones.
    pub displaced: Vec<Evicted>,
}

/// Outcome of a write / L2 writeback (§3.4).
#[derive(Debug)]
pub enum WriteOutcome {
    /// The block is not resident (cannot happen with an inclusive LLC;
    /// callers treat it as an insertion).
    NotResident,
    /// The new map equals the old map: a silent store or a change small
    /// enough to stay similar; only the dirty bit was set.
    SameMap,
    /// The tag moved to a different data entry (existing or newly
    /// allocated); any blocks displaced in the process are reported.
    Moved {
        /// Whether the tag joined an existing entry (vs. allocating).
        joined_existing: bool,
        /// Tags invalidated to make room for a new data entry.
        displaced: Vec<Evicted>,
    },
    /// uniDoppelgänger precise block updated in place.
    PreciseUpdated,
}

/// Allocation-free variant of [`WriteOutcome`], returned by
/// [`DoppelgangerCache::write_with`]: displaced blocks go to the sink
/// closure instead of an owned `Vec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStatus {
    /// See [`WriteOutcome::NotResident`].
    NotResident,
    /// See [`WriteOutcome::SameMap`].
    SameMap,
    /// See [`WriteOutcome::Moved`]; displacements went to the sink.
    Moved {
        /// Whether the tag joined an existing entry (vs. allocating).
        joined_existing: bool,
    },
    /// See [`WriteOutcome::PreciseUpdated`].
    PreciseUpdated,
}

/// The Doppelgänger cache: a decoupled tag array and (much smaller)
/// approximate data array, where the tags of approximately similar
/// blocks share a single data entry (paper §3).
///
/// This type is a *functional* model: it answers hits/misses, maintains
/// the tag-sharing lists, per-tag dirty bits and directory state, and
/// reports displacements. Timing and energy are accounted by the
/// hierarchy (`dg-system`) using the access counters in [`DoppStats`].
///
/// With `unified = true` it becomes the uniDoppelgänger of §3.8,
/// additionally accepting precise blocks that own a private data entry.
///
/// # Example
///
/// ```
/// use doppelganger::{DoppelgangerCache, DoppelgangerConfig};
/// use dg_mem::{Addr, ApproxRegion, BlockAddr, BlockData, ElemType};
///
/// let mut cache = DoppelgangerCache::new(DoppelgangerConfig::paper_split());
/// let region = ApproxRegion::new(Addr(0), 1 << 20, ElemType::F32, 0.0, 100.0);
///
/// // Two different addresses with nearly identical values…
/// let a = BlockData::from_values(ElemType::F32, &[50.0; 16]);
/// let b = BlockData::from_values(ElemType::F32, &[50.001; 16]);
/// cache.insert_approx(BlockAddr(1), a, &region);
/// let outcome = cache.insert_approx(BlockAddr(2), b, &region);
/// // …share one data entry.
/// assert!(outcome.shared_existing);
/// assert_eq!(cache.resident_tags(), 2);
/// assert_eq!(cache.resident_data(), 1);
/// // Reading block 2 returns block 1's values: its doppelgänger.
/// assert_eq!(cache.read(BlockAddr(2)), Some(a));
/// ```
#[derive(Debug)]
pub struct DoppelgangerCache {
    cfg: DoppelgangerConfig,
    tag_geom: CacheGeometry,
    data_geom: CacheGeometry,
    tags: TagArray<TagEntry>,
    data: TagArray<DataEntry>,
    /// Per-tag-slot direct link to the data entry the tag is linked to,
    /// set wherever a tag joins a sharing list or gets its private
    /// entry. For an approximate tag it always equals what the MTag scan
    /// of the tag's map would find (`check_invariants` holds it to
    /// that), because a data entry never changes way while a tag is
    /// linked to it. A simulator shortcut only: the hardware's MTag
    /// lookup on a hit is still counted in `mtag_accesses`. Slots of
    /// invalid tags hold stale values and are never read.
    links: Vec<DataId>,
    stats: DoppStats,
    data_policy: DataPolicy,
    /// Distribution of sharing-list length sampled each time a tag joins
    /// an existing data entry — the map-collision chain depth. Recorded
    /// only at `Level::Metrics` and above; never read by the cache.
    chain_hist: Hist64,
}

impl DoppelgangerCache {
    /// An empty cache with the given configuration.
    pub fn new(cfg: DoppelgangerConfig) -> Self {
        let tag_geom = cfg.tag_geometry();
        let data_geom = cfg.data_geometry();
        DoppelgangerCache {
            cfg,
            tag_geom,
            data_geom,
            tags: TagArray::new(tag_geom),
            data: TagArray::new(data_geom),
            links: vec![DataId { set: 0, way: 0 }; tag_geom.entries()],
            stats: DoppStats::default(),
            data_policy: DataPolicy::default(),
            chain_hist: Hist64::new(),
        }
    }

    /// Select the data-array victim policy (default: LRU, the paper's
    /// choice; see [`DataPolicy`] for the future-work alternative).
    pub fn set_data_policy(&mut self, policy: DataPolicy) {
        self.data_policy = policy;
    }

    /// The data-array victim policy in effect.
    pub fn data_policy(&self) -> DataPolicy {
        self.data_policy
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &DoppelgangerConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DoppStats {
        &self.stats
    }

    /// Reset statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = DoppStats::default();
        self.chain_hist = Hist64::new();
    }

    /// Distribution of sharing-list lengths at shared-insert time (empty
    /// unless the run was profiled at `Level::Metrics` or above).
    pub fn chain_depth_hist(&self) -> &Hist64 {
        &self.chain_hist
    }

    /// Sample the sharing-list length of `did` after a shared insert.
    /// Out of line so the insert path only pays the level check when
    /// profiling is off.
    #[cold]
    fn record_chain_depth(&mut self, did: DataId) {
        self.chain_hist.record(self.list_len(did) as u64);
    }

    /// Number of MTag set-index bits.
    fn mtag_index_bits(&self) -> u32 {
        self.data_geom.index_bits()
    }

    // ------------------------------------------------------------------
    // Entry accessors.
    // ------------------------------------------------------------------

    fn tag_at(&self, id: TagId) -> &TagEntry {
        self.tags.get(id.set as usize, id.way as usize).expect("dangling tag pointer")
    }

    fn tag_at_mut(&mut self, id: TagId) -> &mut TagEntry {
        self.tags.get_mut(id.set as usize, id.way as usize).expect("dangling tag pointer")
    }

    fn data_at(&self, id: DataId) -> &DataEntry {
        self.data.get(id.set as usize, id.way as usize).expect("dangling data pointer")
    }

    fn data_at_mut(&mut self, id: DataId) -> &mut DataEntry {
        self.data.get_mut(id.set as usize, id.way as usize).expect("dangling data pointer")
    }

    fn block_addr_of_tag(&self, id: TagId) -> BlockAddr {
        let t = self.tag_at(id);
        self.tag_geom.block_addr(t.tag, id.set as usize)
    }

    /// Locate the tag entry for `addr`, if resident: one keyed scan of
    /// its tag set.
    #[inline]
    fn locate_tag(&self, addr: BlockAddr) -> Option<TagId> {
        let set = self.tag_geom.set_of(addr);
        let tag = self.tag_geom.tag_of(addr);
        self.tags
            .find_keyed(set, tag, |e| e.tag == tag)
            .map(|way| TagId { set: set as u32, way: way as u32 })
    }

    /// The MTag lookup: locate the data entry an approximate `map`
    /// refers to by one keyed scan of its MTag set. Insertions and
    /// moving writes use it, and `check_invariants` holds every tag's
    /// link to it.
    #[inline]
    fn locate_data(&self, map: MapValue) -> Option<DataId> {
        let bits = self.mtag_index_bits();
        let set = map.index(bits);
        let mtag = map.tag(bits);
        self.data
            .find_keyed(set, mtag, |e| matches!(e.kind, DataKind::Approx { map_tag } if map_tag == mtag))
            .map(|way| DataId { set: set as u32, way: way as u32 })
    }

    /// The data entry a resident tag is linked to: its direct link,
    /// not a second MTag scan.
    #[inline]
    fn data_of_tag(&self, id: TagId) -> DataId {
        debug_assert!(self.tags.get(id.set as usize, id.way as usize).is_some(), "link of an invalid tag");
        self.links[self.tag_slot(id)]
    }

    /// The flat `links` index of a tag position.
    #[inline]
    fn tag_slot(&self, id: TagId) -> usize {
        id.set as usize * self.tag_geom.ways() + id.way as usize
    }

    // ------------------------------------------------------------------
    // Linked-list maintenance (Fig. 5).
    // ------------------------------------------------------------------

    /// Unlink `id` from its sharing list. Returns the data entry it was
    /// linked to and whether the list is now empty.
    fn unlink(&mut self, id: TagId) -> (DataId, bool) {
        let did = self.data_of_tag(id);
        let (prev, next) = {
            let t = self.tag_at(id);
            (t.prev, t.next)
        };
        if let Some(p) = prev {
            self.tag_at_mut(p).next = next;
        } else {
            // `id` was the head; move the head pointer forward.
            if let Some(n) = next {
                self.data_at_mut(did).head = n;
            }
        }
        if let Some(n) = next {
            self.tag_at_mut(n).prev = prev;
        }
        let t = self.tag_at_mut(id);
        t.prev = None;
        t.next = None;
        (did, prev.is_none() && next.is_none())
    }

    /// Link tag `id` as the new head of `did`'s sharing list (§3.3:
    /// "inserted as the head … the tag pointer field in S's data array
    /// entry is then updated to point to A").
    fn push_head(&mut self, id: TagId, did: DataId) {
        let old_head = self.data_at(did).head;
        debug_assert_ne!(old_head, id, "tag already heads this list");
        self.tag_at_mut(old_head).prev = Some(id);
        {
            let t = self.tag_at_mut(id);
            t.prev = None;
            t.next = Some(old_head);
        }
        self.data_at_mut(did).head = id;
    }

    /// Walk the sharing list of `did`, returning all member tag ids.
    fn list_members(&self, did: DataId) -> Vec<TagId> {
        let mut out = Vec::new();
        let mut cur = Some(self.data_at(did).head);
        while let Some(id) = cur {
            out.push(id);
            cur = self.tag_at(id).next;
            debug_assert!(out.len() <= self.cfg.tag_entries, "cycle in tag list");
        }
        out
    }

    /// Length of `did`'s sharing list without materialising it.
    fn list_len(&self, did: DataId) -> usize {
        let mut n = 0usize;
        let mut cur = Some(self.data_at(did).head);
        while let Some(id) = cur {
            n += 1;
            cur = self.tag_at(id).next;
            debug_assert!(n <= self.cfg.tag_entries, "cycle in tag list");
        }
        n
    }

    // ------------------------------------------------------------------
    // Evictions (§3.5).
    // ------------------------------------------------------------------

    /// Evict data entry `did` and its entire tag list, emitting each
    /// displaced block to `emit`. The list is walked inline — `next` is
    /// read off each tag entry as it is invalidated — so no member
    /// vector is materialised on this per-access path.
    fn evict_data_entry(&mut self, did: DataId, emit: &mut dyn FnMut(Evicted)) {
        let rep = self.data_at(did).data;
        let mut cur = Some(self.data_at(did).head);
        let mut walked = 0usize;
        while let Some(id) = cur {
            let addr = self.block_addr_of_tag(id);
            let t = self
                .tags
                .invalidate(id.set as usize, id.way as usize)
                .expect("list member is valid");
            cur = t.next;
            emit(Evicted { addr, dirty: t.dirty, data: rep });
            self.stats.tag_evictions += 1;
            self.stats.back_invalidations += 1;
            walked += 1;
            debug_assert!(walked <= self.cfg.tag_entries, "cycle in tag list");
        }
        self.data.invalidate(did.set as usize, did.way as usize);
        self.stats.data_evictions += 1;
    }

    /// Evict a single tag entry (tag-set replacement). The data entry is
    /// also evicted iff this was its only tag.
    fn evict_tag(&mut self, id: TagId) -> Evicted {
        let addr = self.block_addr_of_tag(id);
        let (did, now_empty) = self.unlink(id);
        let rep = self.data_at(did).data;
        let t = self
            .tags
            .invalidate(id.set as usize, id.way as usize)
            .expect("evicting a valid tag");
        self.stats.tag_evictions += 1;
        if now_empty {
            self.data.invalidate(did.set as usize, did.way as usize);
            self.stats.data_evictions += 1;
        }
        Evicted { addr, dirty: t.dirty, data: rep }
    }

    /// Choose the data-array victim way in `set` according to the
    /// configured [`DataPolicy`]. Invalid ways are always preferred.
    fn pick_data_victim(&mut self, set: usize) -> usize {
        match self.data_policy {
            DataPolicy::Lru => self.data.victim_way(set),
            DataPolicy::FewestSharers => {
                let ways = self.data.geometry().ways();
                if let Some(w) = (0..ways).find(|&w| self.data.get(set, w).is_none()) {
                    return w;
                }
                (0..ways)
                    .min_by_key(|&w| {
                        let did = DataId { set: set as u32, way: w as u32 };
                        self.list_len(did)
                    })
                    .expect("non-zero associativity")
            }
        }
    }

    /// Free a way in `addr`'s tag set, reporting any displaced block.
    fn make_tag_room(&mut self, addr: BlockAddr) -> (TagId, Option<Evicted>) {
        let set = self.tag_geom.set_of(addr);
        let way = self.tags.victim_way(set);
        let id = TagId { set: set as u32, way: way as u32 };
        let displaced = self.tags.get(set, way).is_some().then(|| self.evict_tag(id));
        (id, displaced)
    }

    /// Free a way in data set `set`, emitting all displaced blocks.
    fn make_data_room(&mut self, set: usize, emit: &mut dyn FnMut(Evicted)) -> DataId {
        let way = self.pick_data_victim(set);
        let id = DataId { set: set as u32, way: way as u32 };
        if self.data.get(set, way).is_some() {
            self.evict_data_entry(id, emit);
        }
        id
    }

    // ------------------------------------------------------------------
    // Public operations.
    // ------------------------------------------------------------------

    /// Whether `addr` is resident (no statistics or LRU update).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.locate_tag(addr).is_some()
    }

    /// The stored representative for `addr` without recording an
    /// access: no statistics, no LRU updates. Observation-only
    /// companion to [`Self::read`], used by exporters and by `dg-serve`
    /// to return a block after an insertion already accounted the
    /// access.
    pub fn peek(&self, addr: BlockAddr) -> Option<BlockData> {
        let tid = self.locate_tag(addr)?;
        let did = self.data_of_tag(tid);
        Some(self.data_at(did).data)
    }

    /// Look up `addr` (a read from the upper level, §3.2).
    ///
    /// On a hit returns the stored data — for approximate blocks, the
    /// shared representative, i.e. possibly a *doppelgänger* of the
    /// values originally inserted. Updates LRU state in both arrays and
    /// access counters. On a miss returns `None`; the caller fetches
    /// from memory and calls [`Self::insert_approx`] /
    /// [`Self::insert_precise`].
    pub fn read(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.stats.tag_array_accesses += 1;
        let Some(tid) = self.locate_tag(addr) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.tags.touch(tid.set as usize, tid.way as usize);
        // The hardware reaches the data through an MTag lookup of the
        // tag's map (§3.2): counted here, answered by the link.
        let did = self.data_of_tag(tid);
        if !self.tag_at(tid).is_precise() {
            self.stats.mtag_accesses += 1;
        }
        self.stats.data_accesses += 1;
        self.data.touch(did.set as usize, did.way as usize);
        Some(self.data_at(did).data)
    }

    /// Insert an approximate block fetched from memory (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already resident (insertions model misses).
    pub fn insert_approx(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        region: &ApproxRegion,
    ) -> InsertOutcome {
        let mut outcome = InsertOutcome::default();
        outcome.shared_existing =
            self.insert_approx_with(addr, block, region, &mut |d| outcome.displaced.push(d));
        outcome
    }

    /// Allocation-free form of [`Self::insert_approx`]: displaced blocks
    /// go to `emit`, the return value is `shared_existing`. This is the
    /// per-access path used by the hierarchy (`dg-system`), which reuses
    /// one scratch buffer across accesses.
    pub fn insert_approx_with(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        region: &ApproxRegion,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        // Debug-only: the resident check would re-scan the tag set on
        // every insert, and the hierarchy inserts only after a miss.
        debug_assert!(!self.contains(addr), "insert of a resident block");
        let map = self.cfg.map_space.map_block(&block, region);
        self.stats.map_generations += 1;
        self.stats.insertions += 1;

        // Step 1: free a tag way (may displace an unrelated block).
        let (tid, displaced_tag) = self.make_tag_room(addr);
        if let Some(d) = displaced_tag {
            emit(d);
        }
        let slot = self.tag_slot(tid);

        // Step 2: similar block exists? (MTag lookup with the new map.)
        self.stats.mtag_accesses += 1;
        let entry_tag = self.tag_geom.tag_of(addr);
        if let Some(did) = self.locate_data(map) {
            // Similar data block exists: link the new tag at the head.
            self.stats.shared_insertions += 1;
            self.tags.insert_at_keyed(tid.set as usize, tid.way as usize, entry_tag, TagEntry::approx(entry_tag, map));
            self.links[slot] = did;
            self.push_head(tid, did);
            if enabled(Level::Metrics) {
                self.record_chain_depth(did);
            }
            self.data.touch(did.set as usize, did.way as usize);
            true
        } else {
            // No similar block: allocate a data entry (may displace a
            // whole sharing list).
            let bits = self.mtag_index_bits();
            let did = self.make_data_room(map.index(bits), emit);
            self.stats.data_accesses += 1;
            self.data.insert_at_keyed(
                did.set as usize,
                did.way as usize,
                map.tag(bits),
                DataEntry { kind: DataKind::Approx { map_tag: map.tag(bits) }, head: tid, data: block },
            );
            self.tags.insert_at_keyed(tid.set as usize, tid.way as usize, entry_tag, TagEntry::approx(entry_tag, map));
            self.links[slot] = did;
            false
        }
    }

    /// Insert a precise block (uniDoppelgänger §3.8): the block owns a
    /// dedicated data entry indexed by its address; its tag carries a
    /// direct pointer and never shares.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not configured `unified`; inserting an
    /// already-resident block panics in debug builds only.
    pub fn insert_precise(&mut self, addr: BlockAddr, block: BlockData) -> InsertOutcome {
        let mut outcome = InsertOutcome::default();
        self.insert_precise_with(addr, block, &mut |d| outcome.displaced.push(d));
        outcome
    }

    /// Allocation-free form of [`Self::insert_precise`]; displaced
    /// blocks go to `emit`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::insert_precise`].
    pub fn insert_precise_with(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        emit: &mut dyn FnMut(Evicted),
    ) {
        assert!(self.cfg.unified, "precise blocks require a uniDoppelganger configuration");
        debug_assert!(!self.contains(addr), "insert of a resident block");
        self.stats.insertions += 1;
        self.stats.precise_insertions += 1;

        let (tid, displaced_tag) = self.make_tag_room(addr);
        if let Some(d) = displaced_tag {
            emit(d);
        }

        let did = self.make_data_room(self.data_geom.set_of(addr), emit);
        self.stats.data_accesses += 1;
        // Precise entries are never located through the MTag scan, so
        // their key is a sentinel outside the map-tag value space (the
        // keyed find re-verifies with the kind predicate regardless).
        self.data.insert_at_keyed(
            did.set as usize,
            did.way as usize,
            u64::MAX,
            DataEntry { kind: DataKind::Precise { addr }, head: tid, data: block },
        );
        let entry_tag = self.tag_geom.tag_of(addr);
        self.tags.insert_at_keyed(tid.set as usize, tid.way as usize, entry_tag, TagEntry::precise(entry_tag, did));
        let slot = self.tag_slot(tid);
        self.links[slot] = did;
    }

    /// Handle a write / L2 writeback of a full block (§3.4).
    pub fn write(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        region: Option<&ApproxRegion>,
    ) -> WriteOutcome {
        let mut displaced = Vec::new();
        match self.write_with(addr, block, region, &mut |d| displaced.push(d)) {
            WriteStatus::NotResident => WriteOutcome::NotResident,
            WriteStatus::SameMap => WriteOutcome::SameMap,
            WriteStatus::Moved { joined_existing } => {
                WriteOutcome::Moved { joined_existing, displaced }
            }
            WriteStatus::PreciseUpdated => WriteOutcome::PreciseUpdated,
        }
    }

    /// Allocation-free form of [`Self::write`]; displaced blocks go to
    /// `emit` and the outcome is the `Vec`-less [`WriteStatus`].
    pub fn write_with(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        region: Option<&ApproxRegion>,
        emit: &mut dyn FnMut(Evicted),
    ) -> WriteStatus {
        self.stats.tag_array_accesses += 1;
        let Some(tid) = self.locate_tag(addr) else {
            return WriteStatus::NotResident;
        };
        self.stats.writes += 1;
        self.tags.touch(tid.set as usize, tid.way as usize);

        if self.tag_at(tid).is_precise() {
            let did = self.data_of_tag(tid);
            self.stats.data_accesses += 1;
            self.data.touch(did.set as usize, did.way as usize);
            self.data_at_mut(did).data = block;
            self.tag_at_mut(tid).dirty = true;
            return WriteStatus::PreciseUpdated;
        }

        let region = region.expect("approximate writes require the annotation");
        let old_map = self.tag_at(tid).map().expect("approx tag has a map");
        let new_map = self.cfg.map_space.map_block(&block, region);
        self.stats.map_generations += 1;

        if new_map == old_map {
            // Silent store or a change small enough to stay similar: the
            // stored representative already approximates the new values.
            self.stats.silent_writes += 1;
            self.tag_at_mut(tid).dirty = true;
            return WriteStatus::SameMap;
        }

        // The map changed: move the tag to the list for `new_map`.
        self.stats.moved_writes += 1;
        let (old_did, now_empty) = self.unlink(tid);
        if now_empty {
            // No tags left on the old entry: free it. No writebacks are
            // needed here — dirty state travels with the tags.
            self.data.invalidate(old_did.set as usize, old_did.way as usize);
            self.stats.data_evictions += 1;
        }

        self.stats.mtag_accesses += 1;
        let bits = self.mtag_index_bits();
        let slot = self.tag_slot(tid);
        if let Some(did) = self.locate_data(new_map) {
            // Join the existing list; the write's modifications are
            // effectively ignored (the representative stands in).
            match &mut self.tag_at_mut(tid).kind {
                TagKind::Approx(m) => *m = new_map,
                TagKind::Precise(_) => unreachable!("checked approx above"),
            }
            self.tag_at_mut(tid).dirty = true;
            self.links[slot] = did;
            self.push_head(tid, did);
            self.data.touch(did.set as usize, did.way as usize);
            WriteStatus::Moved { joined_existing: true }
        } else {
            // Allocate a fresh entry holding the newly written values.
            let did = self.make_data_room(new_map.index(bits), emit);
            self.stats.data_accesses += 1;
            self.data.insert_at_keyed(
                did.set as usize,
                did.way as usize,
                new_map.tag(bits),
                DataEntry {
                    kind: DataKind::Approx { map_tag: new_map.tag(bits) },
                    head: tid,
                    data: block,
                },
            );
            let t = self.tag_at_mut(tid);
            t.kind = TagKind::Approx(new_map);
            t.dirty = true;
            t.prev = None;
            t.next = None;
            self.links[slot] = did;
            WriteStatus::Moved { joined_existing: false }
        }
    }

    /// Invalidate `addr` (coherence or inclusion), returning its final
    /// state. The data entry is freed iff this was its last tag.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let tid = self.locate_tag(addr)?;
        Some(self.evict_tag(tid))
    }

    /// Mark a resident block dirty without changing its data (used for
    /// ownership transfers where no data flows).
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.locate_tag(addr) {
            Some(tid) => {
                self.tag_at_mut(tid).dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of resident tags (= cached blocks).
    pub fn resident_tags(&self) -> usize {
        self.tags.len()
    }

    /// Number of valid data entries.
    pub fn resident_data(&self) -> usize {
        self.data.len()
    }

    /// Average tags per data entry (the paper reports 4.4 on average).
    pub fn avg_tags_per_data(&self) -> f64 {
        if self.resident_data() == 0 {
            0.0
        } else {
            self.resident_tags() as f64 / self.resident_data() as f64
        }
    }

    /// Visit every dirty tag as `(addr, representative_data)`, clearing
    /// the dirty bits — a whole-cache flush to memory.
    pub fn flush_dirty(&mut self, mut sink: impl FnMut(BlockAddr, BlockData)) {
        let dirty: Vec<TagId> = self
            .tags
            .iter()
            .filter(|(_, _, t)| t.dirty)
            .map(|(set, way, _)| TagId { set: set as u32, way: way as u32 })
            .collect();
        for id in dirty {
            let addr = self.block_addr_of_tag(id);
            let did = self.data_of_tag(id);
            let data = self.data_at(did).data;
            self.tag_at_mut(id).dirty = false;
            sink(addr, data);
        }
    }

    /// Iterate over resident blocks as `(addr, dirty, precise, data)`,
    /// where `data` is the stored (shared) representative.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, bool, &BlockData)> + '_ {
        self.tags.iter().map(move |(set, way, t)| {
            let id = TagId { set: set as u32, way: way as u32 };
            let did = self.data_of_tag(id);
            (
                self.tag_geom.block_addr(t.tag, set),
                t.dirty,
                t.is_precise(),
                &self.data_at(did).data,
            )
        })
    }

    /// Verify every structural invariant; panics with a description of
    /// the first violation. Used by tests (including property tests).
    ///
    /// Invariants:
    /// 1. every valid approximate tag's map locates a valid data entry
    ///    (by the MTag scan), and the tag's direct link equals it;
    /// 2. every valid precise tag's pointer hits a precise entry with
    ///    the matching address and a single-member list, and the tag's
    ///    direct link equals the pointer;
    /// 3. every data entry's list is non-empty, doubly linked
    ///    consistently, cycle-free, headed by a tag with `prev == None`;
    /// 4. all list members carry the entry's map;
    /// 5. the union of all lists covers every valid tag exactly once.
    pub fn check_invariants(&self) {
        let mut covered = std::collections::HashSet::new();
        for (set, way, d) in self.data.iter() {
            let did = DataId { set: set as u32, way: way as u32 };
            let members = self.list_members(did);
            assert!(!members.is_empty(), "data entry {did:?} has an empty list");
            let head = members[0];
            assert_eq!(self.data_at(did).head, head);
            assert!(self.tag_at(head).prev.is_none(), "head {head:?} has a prev");
            for (i, &id) in members.iter().enumerate() {
                assert!(covered.insert(id), "tag {id:?} appears in two lists");
                let t = self.tag_at(id);
                match (&d.kind, &t.kind) {
                    (DataKind::Approx { map_tag }, TagKind::Approx(m)) => {
                        let bits = self.mtag_index_bits();
                        assert_eq!(m.tag(bits), *map_tag, "member map tag mismatch");
                        assert_eq!(m.index(bits), set, "member map index mismatch");
                        let scanned = self.locate_data(*m);
                        assert_eq!(scanned, Some(did), "MTag scan of {id:?}'s map misses its entry");
                        assert_eq!(Some(self.data_of_tag(id)), scanned, "link of {id:?} differs from the MTag scan");
                    }
                    (DataKind::Precise { addr }, TagKind::Precise(ptr)) => {
                        assert_eq!(*ptr, did, "precise pointer mismatch");
                        assert_eq!(self.data_of_tag(id), did, "link of precise {id:?} differs from its pointer");
                        assert_eq!(members.len(), 1, "precise entry shared");
                        assert_eq!(self.block_addr_of_tag(id), *addr);
                    }
                    _ => panic!("tag/data kind mismatch at {id:?}"),
                }
                // Doubly-linked consistency.
                if i + 1 < members.len() {
                    assert_eq!(t.next, Some(members[i + 1]));
                    assert_eq!(self.tag_at(members[i + 1]).prev, Some(id));
                } else {
                    assert_eq!(t.next, None);
                }
            }
        }
        assert_eq!(covered.len(), self.tags.len(), "orphan tags exist outside all lists");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapSpace;
    use dg_mem::{Addr, ElemType};

    fn region() -> ApproxRegion {
        ApproxRegion::new(Addr(0), 1 << 30, ElemType::F32, 0.0, 100.0)
    }

    fn tiny_cfg() -> DoppelgangerConfig {
        DoppelgangerConfig {
            tag_entries: 64,
            tag_ways: 4,
            data_entries: 16,
            data_ways: 4,
            map_space: MapSpace::new(14),
            unified: false,
        }
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F32, &[v; 16])
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        assert_eq!(c.read(BlockAddr(1)), None);
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        assert_eq!(c.read(BlockAddr(1)), Some(blk(10.0)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        c.check_invariants();
    }

    #[test]
    fn similar_blocks_share_storage() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        let o = c.insert_approx(BlockAddr(2), blk(10.003), &region());
        assert!(o.shared_existing);
        assert_eq!(c.resident_tags(), 2);
        assert_eq!(c.resident_data(), 1);
        // The second block reads as the first (its doppelganger).
        assert_eq!(c.read(BlockAddr(2)), Some(blk(10.0)));
        c.check_invariants();
    }

    #[test]
    fn dissimilar_blocks_get_own_entries() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        let o = c.insert_approx(BlockAddr(2), blk(90.0), &region());
        assert!(!o.shared_existing);
        assert_eq!(c.resident_data(), 2);
        assert_eq!(c.read(BlockAddr(2)), Some(blk(90.0)));
        c.check_invariants();
    }

    #[test]
    fn avg_tags_per_data() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        for i in 0..4 {
            c.insert_approx(BlockAddr(i), blk(10.0), &region());
        }
        c.insert_approx(BlockAddr(10), blk(90.0), &region());
        assert_eq!(c.resident_tags(), 5);
        assert_eq!(c.resident_data(), 2);
        assert!((c.avg_tags_per_data() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn invalidate_last_tag_frees_data() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        c.insert_approx(BlockAddr(2), blk(10.0), &region());
        let d1 = c.invalidate(BlockAddr(1)).unwrap();
        assert!(!d1.dirty);
        assert_eq!(c.resident_data(), 1, "one tag still shares the entry");
        c.invalidate(BlockAddr(2)).unwrap();
        assert_eq!(c.resident_data(), 0);
        assert_eq!(c.resident_tags(), 0);
        c.check_invariants();
    }

    #[test]
    fn unlink_middle_of_three() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        // Insert three sharers; list head order is 3,2,1 (newest first).
        for i in 1..=3 {
            c.insert_approx(BlockAddr(i), blk(10.0), &region());
        }
        // Invalidate the middle element of the list (block 2).
        c.invalidate(BlockAddr(2)).unwrap();
        assert_eq!(c.resident_tags(), 2);
        assert_eq!(c.resident_data(), 1);
        c.check_invariants();
        // Remaining blocks still readable.
        assert!(c.read(BlockAddr(1)).is_some());
        assert!(c.read(BlockAddr(3)).is_some());
    }

    #[test]
    fn write_same_map_sets_dirty_only() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        let out = c.write(BlockAddr(1), blk(10.002), Some(&region()));
        assert!(matches!(out, WriteOutcome::SameMap));
        // Representative unchanged; dirty bit set.
        assert_eq!(c.read(BlockAddr(1)), Some(blk(10.0)));
        let d = c.invalidate(BlockAddr(1)).unwrap();
        assert!(d.dirty);
        c.check_invariants();
    }

    #[test]
    fn write_moves_tag_to_existing_list() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        c.insert_approx(BlockAddr(2), blk(90.0), &region());
        // Overwrite block 1 with values similar to block 2 (within one
        // 14-bit quantization bin of 90.0: bin width is 100/2^14 ≈ 0.006).
        let out = c.write(BlockAddr(1), blk(90.001), Some(&region()));
        match out {
            WriteOutcome::Moved { joined_existing, displaced } => {
                assert!(joined_existing);
                assert!(displaced.is_empty());
            }
            other => panic!("expected Moved, got {other:?}"),
        }
        // Old entry freed (block 1 was its only tag); both tags share now.
        assert_eq!(c.resident_data(), 1);
        assert_eq!(c.read(BlockAddr(1)), Some(blk(90.0)), "modifications ignored");
        c.check_invariants();
    }

    #[test]
    fn write_new_map_allocates_entry_with_new_values() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        c.insert_approx(BlockAddr(2), blk(10.0), &region());
        // Move block 1 to a brand-new map.
        let out = c.write(BlockAddr(1), blk(55.0), Some(&region()));
        assert!(matches!(out, WriteOutcome::Moved { joined_existing: false, .. }));
        assert_eq!(c.resident_data(), 2);
        // The new entry holds the newly written values.
        assert_eq!(c.read(BlockAddr(1)), Some(blk(55.0)));
        // Block 2 still reads the old representative.
        assert_eq!(c.read(BlockAddr(2)), Some(blk(10.0)));
        c.check_invariants();
    }

    #[test]
    fn write_not_resident() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        assert!(matches!(
            c.write(BlockAddr(1), blk(1.0), Some(&region())),
            WriteOutcome::NotResident
        ));
    }

    #[test]
    fn data_eviction_invalidates_whole_list() {
        // 1 data set x 2 ways forces quick data-set conflicts.
        let cfg = DoppelgangerConfig {
            tag_entries: 64,
            tag_ways: 4,
            data_entries: 2,
            data_ways: 2,
            map_space: MapSpace::new(4),
            unified: false,
        };
        let mut c = DoppelgangerCache::new(cfg);
        let r = region();
        // Two sharers of one entry + one of another fills both ways
        // of the single data set (M=4 keeps index space tiny).
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.insert_approx(BlockAddr(2), blk(10.0), &r);
        c.insert_approx(BlockAddr(3), blk(50.0), &r);
        assert_eq!(c.resident_data(), 2);
        // Reading block 3 touches its own data entry, leaving the shared
        // entry (blocks 1 and 2) as the LRU victim.
        c.read(BlockAddr(3));
        let o = c.insert_approx(BlockAddr(4), blk(90.0), &r);
        assert!(!o.shared_existing);
        // The shared entry (tags 1 and 2) was evicted wholesale.
        let evicted: Vec<u64> = o.displaced.iter().map(|d| d.addr.0).collect();
        assert!(evicted.contains(&1) && evicted.contains(&2));
        assert!(!c.contains(BlockAddr(1)));
        assert!(!c.contains(BlockAddr(2)));
        assert!(c.contains(BlockAddr(3)));
        assert!(c.contains(BlockAddr(4)));
        c.check_invariants();
    }

    #[test]
    fn dirty_tags_report_writeback_with_representative_data() {
        let cfg = DoppelgangerConfig {
            tag_entries: 64,
            tag_ways: 4,
            data_entries: 2,
            data_ways: 2,
            map_space: MapSpace::new(4),
            unified: false,
        };
        let mut c = DoppelgangerCache::new(cfg);
        let r = region();
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.write(BlockAddr(1), blk(10.01), Some(&r)); // dirty, same map
        c.insert_approx(BlockAddr(3), blk(50.0), &r);
        let o = c.insert_approx(BlockAddr(4), blk(90.0), &r);
        let d = o.displaced.iter().find(|d| d.addr.0 == 1).expect("block 1 displaced");
        assert!(d.dirty);
        // Writeback carries the representative (10.0), not the write (10.01).
        assert_eq!(d.data, blk(10.0));
    }

    #[test]
    fn tag_set_conflict_evicts_lru_tag() {
        // 1 tag set x 2 ways.
        let cfg = DoppelgangerConfig {
            tag_entries: 2,
            tag_ways: 2,
            data_entries: 2,
            data_ways: 2,
            map_space: MapSpace::new(4),
            unified: false,
        };
        let mut c = DoppelgangerCache::new(cfg);
        let r = region();
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.insert_approx(BlockAddr(2), blk(50.0), &r);
        c.read(BlockAddr(1)); // block 2 becomes LRU
        let o = c.insert_approx(BlockAddr(3), blk(90.0), &r);
        assert_eq!(o.displaced.len(), 1);
        assert_eq!(o.displaced[0].addr, BlockAddr(2));
        assert!(c.contains(BlockAddr(1)));
        assert!(!c.contains(BlockAddr(2)));
        c.check_invariants();
    }

    #[test]
    fn precise_blocks_in_unified_mode() {
        let cfg = DoppelgangerConfig { unified: true, ..tiny_cfg() };
        let mut c = DoppelgangerCache::new(cfg);
        c.insert_precise(BlockAddr(1), blk(1.25));
        c.insert_precise(BlockAddr(2), blk(1.25));
        // Identical values do NOT share: precise blocks own their entry.
        assert_eq!(c.resident_data(), 2);
        assert_eq!(c.read(BlockAddr(1)), Some(blk(1.25)));
        // Precise write updates in place, bit-exact.
        assert!(matches!(
            c.write(BlockAddr(1), blk(2.5), None),
            WriteOutcome::PreciseUpdated
        ));
        assert_eq!(c.read(BlockAddr(1)), Some(blk(2.5)));
        c.check_invariants();
    }

    #[test]
    fn unified_mixes_precise_and_approx() {
        let cfg = DoppelgangerConfig { unified: true, ..tiny_cfg() };
        let mut c = DoppelgangerCache::new(cfg);
        let r = region();
        c.insert_precise(BlockAddr(1), blk(10.0));
        c.insert_approx(BlockAddr(2), blk(10.0), &r);
        c.insert_approx(BlockAddr(3), blk(10.0), &r);
        // Approx blocks share; the precise one does not join them.
        assert_eq!(c.resident_tags(), 3);
        assert_eq!(c.resident_data(), 2);
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "uniDoppelganger")]
    fn precise_rejected_in_split_mode() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_precise(BlockAddr(1), blk(1.0));
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn double_insert_rejected() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        let r = region();
        c.insert_approx(BlockAddr(1), blk(1.0), &r);
        c.insert_approx(BlockAddr(1), blk(1.0), &r);
    }

    #[test]
    fn stats_count_map_generations() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        let r = region();
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.write(BlockAddr(1), blk(10.0), Some(&r));
        assert_eq!(c.stats().map_generations, 2);
    }

    #[test]
    fn iter_blocks_reports_representatives() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        let r = region();
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.insert_approx(BlockAddr(2), blk(10.002), &r);
        let blocks: Vec<_> = c.iter_blocks().collect();
        assert_eq!(blocks.len(), 2);
        for (_, _, precise, data) in blocks {
            assert!(!precise);
            assert_eq!(*data, blk(10.0));
        }
    }

    #[test]
    fn fewest_sharers_policy_protects_shared_entries() {
        // One data set x 2 ways, tiny map space.
        let cfg = DoppelgangerConfig {
            tag_entries: 64,
            tag_ways: 4,
            data_entries: 2,
            data_ways: 2,
            map_space: MapSpace::new(4),
            unified: false,
        };
        let r = region();
        let mut c = DoppelgangerCache::new(cfg);
        c.set_data_policy(crate::DataPolicy::FewestSharers);
        assert_eq!(c.data_policy(), crate::DataPolicy::FewestSharers);
        // Entry A: three sharers. Entry B: one tag, but most recent.
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.insert_approx(BlockAddr(2), blk(10.0), &r);
        c.insert_approx(BlockAddr(3), blk(10.0), &r);
        c.insert_approx(BlockAddr(4), blk(50.0), &r);
        // Under LRU the shared entry (older) would be the victim; the
        // sharing-aware policy evicts the single-tag entry instead.
        let o = c.insert_approx(BlockAddr(5), blk(90.0), &r);
        let evicted: Vec<u64> = o.displaced.iter().map(|d| d.addr.0).collect();
        assert_eq!(evicted, vec![4], "should evict the lonely entry, got {evicted:?}");
        assert!(c.contains(BlockAddr(1)) && c.contains(BlockAddr(2)) && c.contains(BlockAddr(3)));
        c.check_invariants();
    }

    #[test]
    fn lru_policy_evicts_oldest_regardless_of_sharing() {
        let cfg = DoppelgangerConfig {
            tag_entries: 64,
            tag_ways: 4,
            data_entries: 2,
            data_ways: 2,
            map_space: MapSpace::new(4),
            unified: false,
        };
        let r = region();
        let mut c = DoppelgangerCache::new(cfg);
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.insert_approx(BlockAddr(2), blk(10.0), &r);
        c.insert_approx(BlockAddr(3), blk(10.0), &r);
        c.insert_approx(BlockAddr(4), blk(50.0), &r);
        let o = c.insert_approx(BlockAddr(5), blk(90.0), &r);
        // LRU victimizes the shared (older) entry, losing three tags.
        assert_eq!(o.displaced.len(), 3);
        c.check_invariants();
    }

    #[test]
    fn peek_is_observation_only() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        let r = region();
        c.insert_approx(BlockAddr(1), blk(10.0), &r);
        c.insert_approx(BlockAddr(2), blk(10.003), &r);
        let before = *c.stats();
        // Peek returns the shared representative…
        assert_eq!(c.peek(BlockAddr(2)), Some(blk(10.0)));
        assert_eq!(c.peek(BlockAddr(99)), None);
        // …without counting anything.
        assert_eq!(*c.stats(), before, "peek must not touch statistics");
        c.check_invariants();
    }

    #[test]
    fn mark_dirty_api() {
        let mut c = DoppelgangerCache::new(tiny_cfg());
        c.insert_approx(BlockAddr(1), blk(10.0), &region());
        assert!(c.mark_dirty(BlockAddr(1)));
        assert!(!c.mark_dirty(BlockAddr(99)));
        assert!(c.invalidate(BlockAddr(1)).unwrap().dirty);
    }
}
