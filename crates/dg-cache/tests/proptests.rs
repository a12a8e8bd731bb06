//! Property tests for the cache substrate (dg-check harness).

use dg_cache::{CacheGeometry, ConventionalCache, Lru, TagArray};
use dg_check::{any, props, vec};
use dg_mem::{BlockAddr, BlockData, ElemType};
use std::collections::VecDeque;

fn blk(v: u16) -> BlockData {
    BlockData::from_values(ElemType::I32, &[f64::from(v); 16])
}

/// Reference LRU set-associative cache that always scans the full set —
/// the observable semantics of `ConventionalCache` before MRU way
/// prediction was added. Lines sit in per-set recency order (most
/// recent last), so hits, fills, and LRU evictions are explicit.
struct ScanModel {
    geom: CacheGeometry,
    sets: Vec<Vec<(u64, bool, BlockData)>>,
    hits: u64,
    misses: u64,
}

impl ScanModel {
    fn new(geom: CacheGeometry) -> Self {
        ScanModel { sets: vec![Vec::new(); geom.sets()], geom, hits: 0, misses: 0 }
    }

    fn find(&mut self, addr: BlockAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        self.sets[set].iter().position(|&(t, _, _)| t == tag).map(|i| (set, i))
    }

    fn read(&mut self, addr: BlockAddr) -> Option<BlockData> {
        match self.find(addr) {
            Some((set, i)) => {
                self.hits += 1;
                let line = self.sets[set].remove(i);
                self.sets[set].push(line);
                Some(line.2)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn write(&mut self, addr: BlockAddr, data: BlockData) -> bool {
        match self.find(addr) {
            Some((set, i)) => {
                self.hits += 1;
                let (tag, _, _) = self.sets[set].remove(i);
                self.sets[set].push((tag, true, data));
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, addr: BlockAddr, data: BlockData) -> Option<(BlockAddr, bool, BlockData)> {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        let evicted = if self.sets[set].len() == self.geom.ways() {
            let (t, d, b) = self.sets[set].remove(0);
            Some((self.geom.block_addr(t, set), d, b))
        } else {
            None
        };
        self.sets[set].push((tag, false, data));
        evicted
    }

    fn invalidate(&mut self, addr: BlockAddr) -> Option<(BlockAddr, bool, BlockData)> {
        let (set, i) = self.find(addr)?;
        let (_, d, b) = self.sets[set].remove(i);
        Some((addr, d, b))
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn resident(&self) -> Vec<(u64, bool, BlockData)> {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(set, lines)| {
                lines.iter().map(move |&(t, d, b)| (self.geom.block_addr(t, set).0, d, b))
            })
            .collect()
    }
}

props! {
    /// LRU matches a reference recency-queue model for any touch/victim
    /// interleaving on one set.
    fn lru_matches_reference_model(ops in vec((0usize..8, any::<bool>()), 1..200)) {
        let ways = 8;
        let mut lru = Lru::new(1, ways);
        // Reference: most-recent at the back.
        let mut order: VecDeque<usize> = (0..ways).collect();
        // Prime both with a known order.
        for w in 0..ways {
            lru.touch(0, w);
        }
        for (way, is_touch) in ops {
            if is_touch {
                lru.touch(0, way);
                order.retain(|&w| w != way);
                order.push_back(way);
            } else {
                let victim = lru.victim(0);
                assert_eq!(victim, *order.front().unwrap());
            }
        }
    }

    /// A TagArray never reports more occupancy than its associativity,
    /// and `find_keyed` only succeeds for entries that were inserted
    /// and not displaced or invalidated.
    fn tag_array_occupancy_bounds(ops in vec((0u64..64, any::<bool>()), 1..200)) {
        let geom = CacheGeometry::from_entries(16, 4);
        let mut arr: TagArray<u64> = TagArray::new(geom);
        for (tag, insert) in ops {
            let set = (tag % 4) as usize;
            let found = arr.find_keyed(set, tag, |&e| e == tag);
            if insert {
                if found.is_none() {
                    let way = arr.victim_way(set);
                    arr.insert_at_keyed(set, way, tag, tag);
                }
            } else if let Some(way) = found {
                arr.invalidate(set, way);
            }
            assert!(arr.occupancy(set) <= 4);
        }
        assert!(arr.len() <= 16);
    }

    /// A conventional cache's resident set is always consistent with
    /// its own iterator, and every resident block round-trips its data.
    fn conventional_cache_iterator_consistency(
        ops in vec((0u64..96, any::<u16>()), 1..150),
    ) {
        let mut cache = ConventionalCache::new(CacheGeometry::from_entries(32, 4));
        let mut last_write = std::collections::HashMap::new();
        for (a, v) in ops {
            let addr = BlockAddr(a);
            if cache.contains(addr) {
                cache.write(addr, blk(v));
            } else {
                cache.fill(addr, blk(v));
                cache.mark_dirty(addr);
            }
            last_write.insert(a, v);
        }
        for (addr, dirty, data) in cache.iter_blocks() {
            assert!(dirty);
            assert!(cache.contains(addr));
            let want = last_write[&addr.0];
            assert_eq!(*data, blk(want), "stale block at {}", addr.0);
        }
    }

    /// Differential check for the MRU-way-prediction fast path: the
    /// cache behaves identically to a reference model that always does
    /// the full set scan (the pre-prediction implementation) — same
    /// hits, same data, same evictions, same stats — under random
    /// interleavings of reads, partial reads/writes, fills and
    /// invalidates that repeatedly alternate between same-line streaks
    /// (prediction hits) and conflicting lines (stale hints).
    fn mru_prediction_matches_full_scan_model(
        ops in vec((0u8..5, 0u64..24, any::<u16>()), 1..250),
    ) {
        // 4 sets x 2 ways: block addresses 0..24 give 3-way conflicts.
        let geom = CacheGeometry::from_entries(8, 2);
        let mut cache = ConventionalCache::new(geom);
        let mut model = ScanModel::new(geom);
        for (op, a, v) in ops {
            let addr = BlockAddr(a);
            match op {
                0 => assert_eq!(cache.read(addr), model.read(addr)),
                1 => {
                    let mut got = [0u8; 8];
                    let hit = cache.read_bytes(addr, 16, &mut got);
                    match model.read(addr) {
                        Some(b) => {
                            assert!(hit);
                            assert_eq!(got, b.as_bytes()[16..24]);
                        }
                        None => assert!(!hit),
                    }
                }
                2 => assert_eq!(cache.write(addr, blk(v)), model.write(addr, blk(v))),
                3 => {
                    if !cache.contains(addr) {
                        // A victim's bytes are reported only when dirty.
                        let ev = cache.fill(addr, blk(v));
                        let want = model.fill(addr, blk(v));
                        assert_eq!(
                            ev.map(|e| (e.addr, e.dirty, e.dirty.then_some(e.data))),
                            want.map(|(a, d, b)| (a, d, d.then_some(b))),
                        );
                    }
                }
                _ => {
                    let got = cache.invalidate(addr);
                    let want = model.invalidate(addr);
                    assert_eq!(got.map(|e| (e.addr, e.dirty, e.data)), want);
                }
            }
        }
        assert_eq!(cache.stats().hits, model.hits);
        assert_eq!(cache.stats().misses, model.misses);
        assert_eq!(cache.len(), model.len());
        // Identical resident contents.
        let mut got: Vec<(u64, bool, BlockData)> =
            cache.iter_blocks().map(|(a, d, b)| (a.0, d, *b)).collect();
        got.sort_unstable_by_key(|&(a, _, _)| a);
        let mut want = model.resident();
        want.sort_unstable_by_key(|&(a, _, _)| a);
        assert_eq!(got, want);
    }

    /// Geometry round trip: any block address decomposes into
    /// (tag, set) and recomposes exactly, for any power-of-two shape.
    fn geometry_round_trip(addr in any::<u32>(), sets_log in 0u32..12, ways in 1usize..9) {
        let sets = 1usize << sets_log;
        let geom = CacheGeometry::from_entries(sets * ways, ways);
        let block = BlockAddr(u64::from(addr));
        let recomposed = geom.block_addr(geom.tag_of(block), geom.set_of(block));
        assert_eq!(recomposed, block);
    }
}
