//! Reference Doppelgänger cache: naive grids, full-set scans, fresh
//! map computation on every access (no memo, no MRU hints).

use crate::llc::OracleArray;
use dg_cache::{CacheGeometry, Evicted};
use dg_mem::{ApproxRegion, BlockAddr, BlockData};
use dg_system::{LlcArray, LlcCounters};
use doppelganger::{
    DataEntry, DataId, DataKind, DataPolicy, DoppStats, DoppelgangerConfig, MapValue, TagEntry,
    TagId, TagKind, WriteStatus,
};

/// Reference implementation of `doppelganger::DoppelgangerCache`.
///
/// Entry types ([`TagEntry`], [`DataEntry`], [`Evicted`]) and the
/// statistics struct are shared with the optimized crate so lockstep
/// comparisons are field-for-field; the *mechanics* are re-derived from
/// the paper's description with none of the optimized crate's
/// accelerators:
///
/// * tag and MTag lookups scan whole sets in ascending way order;
/// * every map value is recomputed from the block bytes (the per-slot
///   memo is validated by omission — `map_generations` counts the same
///   either way);
/// * LRU is one monotonic stamp per array, bumped on every touch and
///   every insert, victims chosen lowest-stamp-first (ties: lowest way)
///   after invalid ways.
#[derive(Debug)]
pub struct OracleDoppelganger {
    cfg: DoppelgangerConfig,
    tag_geom: CacheGeometry,
    data_geom: CacheGeometry,
    tags: Vec<Vec<Option<TagEntry>>>,
    data: Vec<Vec<Option<DataEntry>>>,
    tag_use: Vec<Vec<u64>>,
    data_use: Vec<Vec<u64>>,
    tag_stamp: u64,
    data_stamp: u64,
    stats: DoppStats,
    policy: DataPolicy,
}

impl OracleDoppelganger {
    /// An empty cache with the given configuration.
    pub fn new(cfg: DoppelgangerConfig) -> Self {
        let tag_geom = cfg.tag_geometry();
        let data_geom = cfg.data_geometry();
        OracleDoppelganger {
            cfg,
            tag_geom,
            data_geom,
            tags: vec![vec![None; tag_geom.ways()]; tag_geom.sets()],
            data: vec![vec![None; data_geom.ways()]; data_geom.sets()],
            tag_use: vec![vec![0; tag_geom.ways()]; tag_geom.sets()],
            data_use: vec![vec![0; data_geom.ways()]; data_geom.sets()],
            tag_stamp: 0,
            data_stamp: 0,
            stats: DoppStats::default(),
            policy: DataPolicy::default(),
        }
    }

    /// Select the data-array victim policy.
    pub fn set_data_policy(&mut self, policy: DataPolicy) {
        self.policy = policy;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DoppStats {
        &self.stats
    }

    fn mtag_index_bits(&self) -> u32 {
        self.data_geom.index_bits()
    }

    // ------------------------------------------------------------------
    // Grid accessors.
    // ------------------------------------------------------------------

    fn tag_at(&self, id: TagId) -> &TagEntry {
        self.tags[id.set as usize][id.way as usize].as_ref().expect("dangling tag pointer")
    }

    fn tag_at_mut(&mut self, id: TagId) -> &mut TagEntry {
        self.tags[id.set as usize][id.way as usize].as_mut().expect("dangling tag pointer")
    }

    fn data_at(&self, id: DataId) -> &DataEntry {
        self.data[id.set as usize][id.way as usize].as_ref().expect("dangling data pointer")
    }

    fn data_at_mut(&mut self, id: DataId) -> &mut DataEntry {
        self.data[id.set as usize][id.way as usize].as_mut().expect("dangling data pointer")
    }

    fn block_addr_of_tag(&self, id: TagId) -> BlockAddr {
        self.tag_geom.block_addr(self.tag_at(id).tag, id.set as usize)
    }

    fn touch_tag(&mut self, id: TagId) {
        self.tag_stamp += 1;
        self.tag_use[id.set as usize][id.way as usize] = self.tag_stamp;
    }

    fn touch_data(&mut self, id: DataId) {
        self.data_stamp += 1;
        self.data_use[id.set as usize][id.way as usize] = self.data_stamp;
    }

    /// Store a tag entry; inserts count as touches (as in the optimized
    /// array, where a fill refreshes LRU).
    fn set_tag(&mut self, id: TagId, entry: TagEntry) {
        self.tags[id.set as usize][id.way as usize] = Some(entry);
        self.touch_tag(id);
    }

    /// Store a data entry; inserts count as touches.
    fn set_data(&mut self, id: DataId, entry: DataEntry) {
        self.data[id.set as usize][id.way as usize] = Some(entry);
        self.touch_data(id);
    }

    // ------------------------------------------------------------------
    // Lookups (full-set scans).
    // ------------------------------------------------------------------

    fn locate_tag(&self, addr: BlockAddr) -> Option<TagId> {
        let set = self.tag_geom.set_of(addr);
        let tag = self.tag_geom.tag_of(addr);
        self.tags[set]
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.tag == tag))
            .map(|way| TagId { set: set as u32, way: way as u32 })
    }

    fn locate_data(&self, map: MapValue) -> Option<DataId> {
        let bits = self.mtag_index_bits();
        let set = map.index(bits);
        let mtag = map.tag(bits);
        self.data[set]
            .iter()
            .position(|e| {
                e.as_ref().is_some_and(
                    |e| matches!(e.kind, DataKind::Approx { map_tag } if map_tag == mtag),
                )
            })
            .map(|way| DataId { set: set as u32, way: way as u32 })
    }

    fn data_of_tag(&self, id: TagId) -> DataId {
        match self.tag_at(id).kind {
            TagKind::Approx(map) => {
                self.locate_data(map).expect("invariant: a valid tag's map locates a data entry")
            }
            TagKind::Precise(did) => did,
        }
    }

    // ------------------------------------------------------------------
    // Linked-list maintenance.
    // ------------------------------------------------------------------

    fn unlink(&mut self, id: TagId) -> (DataId, bool) {
        let did = self.data_of_tag(id);
        let (prev, next) = {
            let t = self.tag_at(id);
            (t.prev, t.next)
        };
        if let Some(p) = prev {
            self.tag_at_mut(p).next = next;
        } else if let Some(n) = next {
            self.data_at_mut(did).head = n;
        }
        if let Some(n) = next {
            self.tag_at_mut(n).prev = prev;
        }
        let t = self.tag_at_mut(id);
        t.prev = None;
        t.next = None;
        (did, prev.is_none() && next.is_none())
    }

    fn push_head(&mut self, id: TagId, did: DataId) {
        let old_head = self.data_at(did).head;
        self.tag_at_mut(old_head).prev = Some(id);
        {
            let t = self.tag_at_mut(id);
            t.prev = None;
            t.next = Some(old_head);
        }
        self.data_at_mut(did).head = id;
    }

    fn list_members(&self, did: DataId) -> Vec<TagId> {
        let mut out = Vec::new();
        let mut cur = Some(self.data_at(did).head);
        while let Some(id) = cur {
            out.push(id);
            cur = self.tag_at(id).next;
            assert!(out.len() <= self.cfg.tag_entries, "cycle in tag list");
        }
        out
    }

    fn list_len(&self, did: DataId) -> usize {
        self.list_members(did).len()
    }

    // ------------------------------------------------------------------
    // Victim selection and evictions.
    // ------------------------------------------------------------------

    fn tag_victim_way(&self, set: usize) -> usize {
        if let Some(w) = self.tags[set].iter().position(|e| e.is_none()) {
            return w;
        }
        (0..self.tag_geom.ways())
            .min_by_key(|&w| self.tag_use[set][w])
            .expect("non-zero associativity")
    }

    fn pick_data_victim(&self, set: usize) -> usize {
        if let Some(w) = self.data[set].iter().position(|e| e.is_none()) {
            return w;
        }
        match self.policy {
            DataPolicy::Lru => (0..self.data_geom.ways())
                .min_by_key(|&w| self.data_use[set][w])
                .expect("non-zero associativity"),
            DataPolicy::FewestSharers => (0..self.data_geom.ways())
                .min_by_key(|&w| self.list_len(DataId { set: set as u32, way: w as u32 }))
                .expect("non-zero associativity"),
        }
    }

    fn evict_data_entry(&mut self, did: DataId, emit: &mut dyn FnMut(Evicted)) {
        let rep = self.data_at(did).data;
        let mut cur = Some(self.data_at(did).head);
        while let Some(id) = cur {
            let addr = self.block_addr_of_tag(id);
            let t = self.tags[id.set as usize][id.way as usize].take().expect("list member");
            cur = t.next;
            emit(Evicted { addr, dirty: t.dirty, data: rep });
            self.stats.tag_evictions += 1;
            self.stats.back_invalidations += 1;
        }
        self.data[did.set as usize][did.way as usize] = None;
        self.stats.data_evictions += 1;
    }

    fn evict_tag(&mut self, id: TagId) -> Evicted {
        let addr = self.block_addr_of_tag(id);
        let (did, now_empty) = self.unlink(id);
        let rep = self.data_at(did).data;
        let t = self.tags[id.set as usize][id.way as usize].take().expect("evicting a valid tag");
        self.stats.tag_evictions += 1;
        if now_empty {
            self.data[did.set as usize][did.way as usize] = None;
            self.stats.data_evictions += 1;
        }
        Evicted { addr, dirty: t.dirty, data: rep }
    }

    fn make_tag_room(&mut self, addr: BlockAddr) -> (TagId, Option<Evicted>) {
        let set = self.tag_geom.set_of(addr);
        let way = self.tag_victim_way(set);
        let id = TagId { set: set as u32, way: way as u32 };
        let displaced = self.tags[set][way].is_some().then(|| self.evict_tag(id));
        (id, displaced)
    }

    fn make_data_room(&mut self, set: usize, emit: &mut dyn FnMut(Evicted)) -> DataId {
        let way = self.pick_data_victim(set);
        let id = DataId { set: set as u32, way: way as u32 };
        if self.data[set][way].is_some() {
            self.evict_data_entry(id, emit);
        }
        id
    }

    // ------------------------------------------------------------------
    // Operations — stat sequences transliterated.
    // ------------------------------------------------------------------

    /// Insert an approximate block; returns whether it joined an
    /// existing data entry. Displacements go to `emit`.
    fn insert_approx_with(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        region: &ApproxRegion,
        emit: &mut dyn FnMut(Evicted),
    ) -> bool {
        assert!(!self.contains(addr), "insert of a resident block");
        let map = self.cfg.map_space.map_block(&block, region);
        self.stats.map_generations += 1;
        self.stats.insertions += 1;

        let (tid, displaced_tag) = self.make_tag_room(addr);
        if let Some(d) = displaced_tag {
            emit(d);
        }

        self.stats.mtag_accesses += 1;
        let entry_tag = self.tag_geom.tag_of(addr);
        if let Some(did) = self.locate_data(map) {
            self.stats.shared_insertions += 1;
            self.set_tag(tid, TagEntry::approx(entry_tag, map));
            self.push_head(tid, did);
            self.touch_data(did);
            true
        } else {
            let bits = self.mtag_index_bits();
            let did = self.make_data_room(map.index(bits), emit);
            self.stats.data_accesses += 1;
            self.set_data(
                did,
                DataEntry {
                    kind: DataKind::Approx { map_tag: map.tag(bits) },
                    head: tid,
                    data: block,
                },
            );
            self.set_tag(tid, TagEntry::approx(entry_tag, map));
            false
        }
    }

    /// Insert a precise block (uniDoppelgänger only).
    fn insert_precise_with(
        &mut self,
        addr: BlockAddr,
        block: BlockData,
        emit: &mut dyn FnMut(Evicted),
    ) {
        assert!(self.cfg.unified, "precise blocks require a uniDoppelganger configuration");
        assert!(!self.contains(addr), "insert of a resident block");
        self.stats.insertions += 1;
        self.stats.precise_insertions += 1;

        let (tid, displaced_tag) = self.make_tag_room(addr);
        if let Some(d) = displaced_tag {
            emit(d);
        }

        let did = self.make_data_room(self.data_geom.set_of(addr), emit);
        self.stats.data_accesses += 1;
        self.set_data(did, DataEntry { kind: DataKind::Precise { addr }, head: tid, data: block });
        let entry_tag = self.tag_geom.tag_of(addr);
        self.set_tag(tid, TagEntry::precise(entry_tag, did));
    }

    /// Handle a write / writeback of a full block.
    fn write_with(
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
        self.touch_tag(tid);

        if self.tag_at(tid).is_precise() {
            let did = self.data_of_tag(tid);
            self.stats.data_accesses += 1;
            self.touch_data(did);
            self.data_at_mut(did).data = block;
            self.tag_at_mut(tid).dirty = true;
            return WriteStatus::PreciseUpdated;
        }

        let region = region.expect("approximate writes require the annotation");
        let old_map = self.tag_at(tid).map().expect("approx tag has a map");
        // The optimized engine memoizes this computation per tag slot;
        // the oracle always recomputes. Both count one map generation.
        self.stats.map_generations += 1;
        let new_map = self.cfg.map_space.map_block(&block, region);

        if new_map == old_map {
            self.stats.silent_writes += 1;
            self.tag_at_mut(tid).dirty = true;
            return WriteStatus::SameMap;
        }

        self.stats.moved_writes += 1;
        let (old_did, now_empty) = self.unlink(tid);
        if now_empty {
            self.data[old_did.set as usize][old_did.way as usize] = None;
            self.stats.data_evictions += 1;
        }

        self.stats.mtag_accesses += 1;
        let bits = self.mtag_index_bits();
        if let Some(did) = self.locate_data(new_map) {
            match &mut self.tag_at_mut(tid).kind {
                TagKind::Approx(m) => *m = new_map,
                TagKind::Precise(_) => unreachable!("checked approx above"),
            }
            self.tag_at_mut(tid).dirty = true;
            self.push_head(tid, did);
            self.touch_data(did);
            WriteStatus::Moved { joined_existing: true }
        } else {
            let did = self.make_data_room(new_map.index(bits), emit);
            self.stats.data_accesses += 1;
            self.set_data(
                did,
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
            WriteStatus::Moved { joined_existing: false }
        }
    }

    /// Number of resident tags.
    pub fn resident_tags(&self) -> usize {
        self.tags.iter().flatten().filter(|e| e.is_some()).count()
    }

    /// Number of valid data entries.
    pub fn resident_data(&self) -> usize {
        self.data.iter().flatten().filter(|e| e.is_some()).count()
    }

    /// Resident blocks as `(addr, dirty, precise, data)` in set-major
    /// tag order, `data` being the shared representative.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, bool, &BlockData)> + '_ {
        self.tags.iter().enumerate().flat_map(move |(set, ways)| {
            ways.iter().enumerate().filter_map(move |(way, e)| {
                e.as_ref().map(move |t| {
                    let id = TagId { set: set as u32, way: way as u32 };
                    let did = self.data_of_tag(id);
                    (
                        self.tag_geom.block_addr(t.tag, set),
                        t.dirty,
                        t.is_precise(),
                        &self.data_at(did).data,
                    )
                })
            })
        })
    }
}

impl LlcArray for OracleDoppelganger {
    /// On a hit both arrays are touched and counted (the MTag probe
    /// only for approximate tags).
    fn lookup(&mut self, addr: BlockAddr) -> Option<BlockData> {
        self.stats.tag_array_accesses += 1;
        let Some(tid) = self.locate_tag(addr) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.touch_tag(tid);
        let did = self.data_of_tag(tid);
        if !self.tag_at(tid).is_precise() {
            self.stats.mtag_accesses += 1;
        }
        self.stats.data_accesses += 1;
        self.touch_data(did);
        Some(self.data_at(did).data)
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
        let tid = self.locate_tag(addr).expect("just inserted");
        self.tag_at_mut(tid).dirty = dirty;
    }

    fn contains(&self, addr: BlockAddr) -> bool {
        self.locate_tag(addr).is_some()
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        if let Some(tid) = self.locate_tag(addr) {
            self.evict_tag(tid);
        }
    }

    fn for_each_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().for_each(|(a, _, _, d)| f(a, d));
    }

    fn for_each_approx_block(&self, f: &mut dyn FnMut(BlockAddr, &BlockData)) {
        self.iter_blocks().filter(|&(_, _, precise, _)| !precise).for_each(|(a, _, _, d)| f(a, d));
    }

    /// Visits dirty tags in set-major order.
    fn flush_dirty(&mut self, sink: &mut dyn FnMut(BlockAddr, BlockData)) {
        let mut dirty = Vec::new();
        for (set, ways) in self.tags.iter().enumerate() {
            for (way, e) in ways.iter().enumerate() {
                if e.as_ref().is_some_and(|t| t.dirty) {
                    dirty.push(TagId { set: set as u32, way: way as u32 });
                }
            }
        }
        for id in dirty {
            let addr = self.block_addr_of_tag(id);
            let did = self.data_of_tag(id);
            let data = self.data_at(did).data;
            self.tag_at_mut(id).dirty = false;
            sink(addr, data);
        }
    }

    fn reset_stats(&mut self) {
        self.stats = DoppStats::default();
    }

    fn add_counters(&self, c: &mut LlcCounters) {
        c.dopp += self.stats;
        c.lookups += self.stats.lookups();
        c.hits += self.stats.hits;
    }

    fn sharing_factor(&self) -> Option<f64> {
        let (tags, data) = (self.resident_tags(), self.resident_data());
        Some(if data == 0 { 0.0 } else { tags as f64 / data as f64 })
    }

    /// The same invariants as the optimized cache's `check_invariants`.
    fn check_invariants(&self) {
        let mut covered = std::collections::HashSet::new();
        for (set, ways) in self.data.iter().enumerate() {
            for (way, e) in ways.iter().enumerate() {
                let Some(d) = e.as_ref() else { continue };
                let did = DataId { set: set as u32, way: way as u32 };
                let members = self.list_members(did);
                assert!(!members.is_empty(), "data entry {did:?} has an empty list");
                assert_eq!(d.head, members[0]);
                assert!(self.tag_at(members[0]).prev.is_none(), "head has a prev");
                for (i, &id) in members.iter().enumerate() {
                    assert!(covered.insert(id), "tag {id:?} appears in two lists");
                    let t = self.tag_at(id);
                    match (&d.kind, &t.kind) {
                        (DataKind::Approx { map_tag }, TagKind::Approx(m)) => {
                            let bits = self.mtag_index_bits();
                            assert_eq!(m.tag(bits), *map_tag, "member map tag mismatch");
                            assert_eq!(m.index(bits), set, "member map index mismatch");
                        }
                        (DataKind::Precise { addr }, TagKind::Precise(ptr)) => {
                            assert_eq!(*ptr, did, "precise pointer mismatch");
                            assert_eq!(members.len(), 1, "precise entry shared");
                            assert_eq!(self.block_addr_of_tag(id), *addr);
                        }
                        _ => panic!("tag/data kind mismatch at {id:?}"),
                    }
                    if i + 1 < members.len() {
                        assert_eq!(t.next, Some(members[i + 1]));
                        assert_eq!(self.tag_at(members[i + 1]).prev, Some(id));
                    } else {
                        assert_eq!(t.next, None);
                    }
                }
            }
        }
        assert_eq!(covered.len(), self.resident_tags(), "orphan tags outside all lists");
    }
}

impl OracleArray for OracleDoppelganger {
    fn check_conservation(&self) {
        let s = self.stats;
        let tags = self.resident_tags();
        assert_eq!(
            s.insertions,
            tags as u64 + s.tag_evictions,
            "doppel: insertions != resident tags + tag evictions ({s:?})"
        );
        assert!(self.resident_data() <= tags, "doppel: more data entries than tags");
        assert!(
            s.back_invalidations <= s.tag_evictions,
            "doppel: back-invalidations exceed tag evictions"
        );
        assert!(s.silent_writes + s.moved_writes <= s.writes, "doppel: write kinds exceed writes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{Addr, ElemType};
    use doppelganger::MapSpace;

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
    fn similar_blocks_share_storage() {
        let mut c = OracleDoppelganger::new(tiny_cfg());
        c.insert_approx_with(BlockAddr(1), blk(10.0), &region(), &mut |_| {});
        let shared = c.insert_approx_with(BlockAddr(2), blk(10.003), &region(), &mut |_| {});
        assert!(shared);
        assert_eq!(c.resident_tags(), 2);
        assert_eq!(c.resident_data(), 1);
        assert_eq!(c.lookup(BlockAddr(2)), Some(blk(10.0)));
        c.check_invariants();
    }

    #[test]
    fn stats_match_optimized_cache_on_a_small_sequence() {
        let mut oracle = OracleDoppelganger::new(tiny_cfg());
        let mut fast = doppelganger::DoppelgangerCache::new(tiny_cfg());
        let r = region();
        let vals = [10.0, 10.003, 55.0, 90.0, 10.1, 54.9];
        for (i, v) in vals.iter().enumerate() {
            let a = BlockAddr(i as u64 + 1);
            oracle.insert_approx_with(a, blk(*v), &r, &mut |_| {});
            fast.insert_approx(a, blk(*v), &r);
        }
        for i in 0..vals.len() {
            let a = BlockAddr(i as u64 + 1);
            assert_eq!(oracle.lookup(a), fast.lookup(a), "read {i}");
        }
        let w = blk(54.8);
        let mut sunk = Vec::new();
        let st = oracle.write_with(BlockAddr(3), w, Some(&r), &mut |d| sunk.push(d));
        let fast_out = fast.write(BlockAddr(3), w, Some(&r));
        match (st, fast_out) {
            (WriteStatus::SameMap, doppelganger::WriteOutcome::SameMap) => {}
            (WriteStatus::Moved { joined_existing: a }, doppelganger::WriteOutcome::Moved { joined_existing: b, .. }) => {
                assert_eq!(a, b)
            }
            (a, b) => panic!("write outcomes diverge: {a:?} vs {b:?}"),
        }
        assert_eq!(*oracle.stats(), *fast.stats());
        oracle.check_invariants();
        fast.check_invariants();
    }

    #[test]
    fn precise_requires_unified() {
        let mut c = OracleDoppelganger::new(tiny_cfg());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.insert_precise_with(BlockAddr(1), blk(1.0), &mut |_| {})
        }));
        assert!(result.is_err());
    }
}
