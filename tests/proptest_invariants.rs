//! Property-based tests of the core invariants, spanning crates
//! (dg-check harness).

use dg_cache::{CacheGeometry, ConventionalCache};
use dg_check::{any, props, vec};
use dg_mem::{Addr, AnnotationTable, ApproxRegion, BlockAddr, BlockData, ElemType, MemoryImage};
use dg_system::{LlcKind, System, SystemConfig};
use doppelganger::{DoppelgangerCache, DoppelgangerConfig, MapSpace};
use std::collections::HashMap;

fn small_dopp_config() -> DoppelgangerConfig {
    DoppelgangerConfig {
        tag_entries: 64,
        tag_ways: 4,
        data_entries: 16,
        data_ways: 4,
        map_space: MapSpace::new(8),
        unified: false,
    }
}

fn region() -> ApproxRegion {
    ApproxRegion::new(Addr(0), 1 << 24, ElemType::F32, 0.0, 100.0)
}

fn block_from(v: u16) -> BlockData {
    // A small value universe so maps collide often (stressing the
    // sharing lists) while still exercising many distinct maps.
    BlockData::from_values(ElemType::F32, &[f64::from(v % 512) * 0.2; 16])
}

/// One random operation against the Doppelgänger cache, decoded from a
/// plain (discriminant, address, value) tuple so the harness can
/// generate and shrink it.
#[derive(Clone, Debug)]
enum Op {
    Read(u16),
    Insert(u16, u16),
    Write(u16, u16),
    Invalidate(u16),
}

fn decode_op((kind, addr, value): (u8, u16, u16)) -> Op {
    match kind {
        0 => Op::Read(addr),
        1 => Op::Insert(addr, value),
        2 => Op::Write(addr, value),
        _ => Op::Invalidate(addr),
    }
}

props! {
    cases = 64;

    /// After any sequence of reads/inserts/writes/invalidations, every
    /// structural invariant of the Doppelgänger cache holds: tag lists
    /// are consistent doubly-linked lists, maps locate live data
    /// entries, no orphans exist.
    fn doppelganger_invariants_under_random_ops(
        raw_ops in vec((0u8..4, 0u16..256, any::<u16>()), 1..400),
    ) {
        let mut cache = DoppelgangerCache::new(small_dopp_config());
        let r = region();
        for op in raw_ops.into_iter().map(decode_op) {
            match op {
                Op::Read(a) => { cache.read(BlockAddr(u64::from(a))); }
                Op::Insert(a, v) => {
                    let addr = BlockAddr(u64::from(a));
                    if !cache.contains(addr) {
                        cache.insert_approx(addr, block_from(v), &r);
                    }
                }
                Op::Write(a, v) => {
                    cache.write(BlockAddr(u64::from(a)), block_from(v), Some(&r));
                }
                Op::Invalidate(a) => { cache.invalidate(BlockAddr(u64::from(a))); }
            }
            cache.check_invariants();
        }
        // Residency accounting is consistent.
        assert!(cache.resident_data() <= cache.resident_tags() ||
                cache.resident_tags() == 0);
    }

    /// A conventional cache behaves exactly like a map from addresses to
    /// the last written data, for whatever subset it currently holds.
    fn conventional_cache_matches_oracle(
        ops in vec((0..64u64, any::<u16>(), any::<bool>()), 1..300),
    ) {
        let mut cache = ConventionalCache::new(CacheGeometry::from_entries(16, 4));
        let mut oracle: HashMap<u64, BlockData> = HashMap::new();
        for (a, v, is_write) in ops {
            let addr = BlockAddr(a);
            let data = block_from(v);
            if is_write {
                if !cache.write(addr, data) {
                    cache.fill(addr, data);
                    cache.mark_dirty(addr);
                }
                oracle.insert(a, data);
            } else if let Some(got) = cache.read(addr) {
                // A hit must return exactly what was last written there.
                if let Some(want) = oracle.get(&a) {
                    assert_eq!(&got, want, "stale data at {}", a);
                }
            }
        }
    }

    /// Blocks whose values are within the same quantization bin share a
    /// map; blocks far apart (more than 2 bins in average) never do.
    fn map_similarity_soundness(base in 0.0f64..90.0, delta in 0.0f64..10.0, m in 6u32..16) {
        let r = region();
        let space = MapSpace::new(m);
        let a = BlockData::from_values(ElemType::F32, &[base; 16]);
        let b = BlockData::from_values(ElemType::F32, &[base + delta; 16]);
        let bins = (1u64 << m) as f64;
        let bin_width = 100.0 / bins;
        let map_a = space.map_block(&a, &r);
        let map_b = space.map_block(&b, &r);
        if delta > 2.0 * bin_width {
            assert_ne!(map_a, map_b, "blocks {} apart merged at {} bins", delta, bins);
        }
        if delta == 0.0 {
            assert_eq!(map_a, map_b);
        }
    }

    /// BΔI compression is lossless for arbitrary block contents.
    fn bdi_round_trips(bytes in any::<[u8; 32]>()) {
        // Tile the 32 random bytes to fill a block (keeps the generator
        // small while still covering every encoding path over time).
        let mut full = [0u8; 64];
        full[..32].copy_from_slice(&bytes);
        full[32..].copy_from_slice(&bytes);
        let b = BlockData::from_bytes(full);
        let c = dg_compress::bdi::compress(&b);
        assert_eq!(dg_compress::bdi::decompress(&c), b);
        assert!(c.size_bytes() <= 64);
    }

    /// The full system with a baseline LLC is functionally transparent:
    /// a random multi-core access pattern reads back exactly what an
    /// ideal flat memory would.
    fn baseline_system_equals_flat_memory(
        ops in vec((0..4usize, 0..512u64, any::<u32>(), any::<bool>()), 1..250),
    ) {
        let cfg = SystemConfig::tiny(LlcKind::Baseline);
        let mut sys = System::new(cfg, MemoryImage::new(), AnnotationTable::new());
        let mut flat: HashMap<u64, u32> = HashMap::new();
        for (core, slot, value, is_write) in ops {
            let addr = Addr(slot * 4);
            if is_write {
                sys.store(core, addr, &value.to_le_bytes());
                flat.insert(slot, value);
            } else {
                let mut buf = [0u8; 4];
                sys.load(core, addr, &mut buf);
                let want = flat.get(&slot).copied().unwrap_or(0);
                assert_eq!(u32::from_le_bytes(buf), want, "slot {}", slot);
            }
        }
    }

    /// On the split Doppelgänger system, precise addresses stay
    /// bit-exact under arbitrary mixed access patterns, while the
    /// structural invariants of the approximate cache hold throughout.
    fn split_system_precise_exactness_and_invariants(
        ops in vec(
            (0..4usize, 0..256u64, any::<u32>(), any::<bool>(), any::<bool>()),
            1..200,
        ),
    ) {
        let mut annots = AnnotationTable::new();
        // The low half of the address space is approximate f32 data.
        annots.add(ApproxRegion::new(Addr(0), 256 * 64, ElemType::F32, 0.0, 1.0e9));
        let mut sys = System::new(SystemConfig::tiny_split(), MemoryImage::new(), annots);
        let mut precise_model: HashMap<u64, u32> = HashMap::new();
        for (core, slot, value, is_write, approx_side) in ops {
            // Approximate accesses target the annotated low half;
            // precise ones an address far above it.
            let addr = if approx_side {
                Addr(slot * 64)
            } else {
                Addr((1 << 24) + slot * 64)
            };
            if is_write {
                sys.store(core, addr, &value.to_le_bytes());
                if !approx_side {
                    precise_model.insert(slot, value);
                }
            } else {
                let mut buf = [0u8; 4];
                sys.load(core, addr, &mut buf);
                if !approx_side {
                    let want = precise_model.get(&slot).copied().unwrap_or(0);
                    assert_eq!(u32::from_le_bytes(buf), want, "precise slot {}", slot);
                }
            }
            sys.check_llc_invariants();
        }
    }

    /// Annotation lookups agree with a linear scan.
    fn annotation_table_matches_linear_scan(
        raw_starts in vec(0u64..1000, 1..8),
        probe in 0u64..1100,
    ) {
        // Distinct, sorted region starts (the original proptest drew a
        // btree_set; deduplicating a vec gives the same shape).
        let starts: std::collections::BTreeSet<u64> = raw_starts.into_iter().collect();
        let mut table = AnnotationTable::new();
        let mut regions = Vec::new();
        for &s in &starts {
            // Non-overlapping 10-byte regions at 100-byte strides.
            let r = ApproxRegion::new(Addr(s * 100), 10, ElemType::U8, 0.0, 255.0);
            table.add(r);
            regions.push(r);
        }
        let got = table.lookup(Addr(probe)).copied();
        let want = regions.iter().find(|r| r.contains(Addr(probe))).copied();
        assert_eq!(got, want);
    }
}
