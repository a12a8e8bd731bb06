//! Property tests of map generation, the threshold-similarity analysis
//! and the hardware-cost model (dg-check harness).

use dg_check::{any, props, vec, SplitMix64};
use dg_mem::{Addr, ApproxRegion, BlockAddr, BlockData, ElemType};
use doppelganger::analysis::{threshold_savings, SavingsReport};
use doppelganger::{
    DoppelgangerCache, DoppelgangerConfig, HardwareCost, MapHash, MapSpace, WriteStatus,
};
use std::collections::{HashMap, HashSet};

fn region(min: f64, max: f64) -> ApproxRegion {
    ApproxRegion::new(Addr(0), 1 << 24, ElemType::F32, min, max)
}

/// A cache small enough that random streams over 48 addresses and ten
/// bins evict tags, evict data entries and move tags between lists.
fn tiny_cache(unified: bool) -> DoppelgangerConfig {
    DoppelgangerConfig {
        tag_entries: 32,
        tag_ways: 4,
        data_entries: 8,
        data_ways: 2,
        map_space: MapSpace::new(6),
        unified,
    }
}

/// The all-pairs greedy scan `threshold_savings` was before it got its
/// candidate index, kept as the reference it must agree with: every
/// block against every stored representative of its envelope (bitwise
/// bounds), `BlockData::approx_similar` deciding each pair.
fn threshold_savings_by_scan(blocks: &[(BlockData, ApproxRegion)], t: f64) -> SavingsReport {
    let stored_blocks = if t == 0.0 {
        blocks.iter().map(|(b, _)| b.as_bytes()).collect::<HashSet<_>>().len()
    } else {
        let mut reps: Vec<&(BlockData, ApproxRegion)> = Vec::new();
        for entry @ (block, region) in blocks {
            let found = reps.iter().any(|(rep, rep_region)| {
                rep_region.ty == region.ty
                    && rep_region.min.to_bits() == region.min.to_bits()
                    && rep_region.max.to_bits() == region.max.to_bits()
                    && block.approx_similar(rep, region.ty, t, region.range())
            });
            if !found {
                reps.push(entry);
            }
        }
        reps.len()
    };
    SavingsReport { total_blocks: blocks.len(), stored_blocks }
}

/// Annotation envelopes of the differential test: all four element
/// types, two that differ only in the sign of a zero bound, a point
/// range (tolerance 0), a range so narrow that `value / tolerance`
/// overflows, and NaN bounds (tolerance NaN).
fn envelope(pick: u8) -> ApproxRegion {
    let (ty, min, max) = match pick % 9 {
        0 => (ElemType::F32, 0.0, 100.0),
        1 => (ElemType::F32, -0.0, 100.0),
        2 => (ElemType::F64, -1.0, 1.0),
        3 => (ElemType::F64, 0.0, 1024.0),
        4 => (ElemType::I32, -1000.0, 1000.0),
        5 => (ElemType::U8, 0.0, 255.0),
        6 => (ElemType::F64, 5.0, 5.0),
        7 => (ElemType::F64, 0.0, 1e-300),
        _ => (ElemType::F32, f64::NAN, f64::NAN),
    };
    // Not `ApproxRegion::new`, which refuses the NaN bounds.
    ApproxRegion { start: Addr(0), len: 1 << 24, ty, min, max }
}

/// One block for `region`, of the value shape `shape` selects; `tol`
/// is the tolerance the analysis will use (`t x range`), so that
/// jitter and grid edges land where its index has to be exact.
fn shaped_block(region: &ApproxRegion, shape: u8, seed: u64, tol: f64) -> BlockData {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = region.ty.elems_per_block();
    let (min, range) =
        if region.range().is_finite() { (region.min, region.range()) } else { (0.0, 1.0) };
    let step = if tol.is_finite() && tol > 0.0 { tol } else { range / 64.0 };
    let center = min + range * f64::from(rng.gen_range(0u8..4)) / 4.0;
    let mut vals = vec![center; n];
    match shape % 6 {
        // Exact duplicates of a few constants.
        0 => {}
        // Clusters: within 1.5 tolerances of a shared centre.
        1 => {
            for v in &mut vals {
                *v += step * rng.gen_range(-1.5..1.5);
            }
        }
        // Uniform over the annotated range.
        2 => {
            for v in &mut vals {
                *v = min + range * rng.next_f64();
            }
        }
        // NaN, infinities, a denormal and a negative zero among
        // clustered values, element 0 (the indexed one) included.
        3 => {
            const ODD: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -0.0];
            for v in &mut vals {
                if rng.gen_bool(0.2) {
                    *v = ODD[rng.gen_range(0..ODD.len())];
                }
            }
            if rng.gen_bool(0.5) {
                vals[0] = ODD[rng.gen_range(0..ODD.len())];
            }
        }
        // Every element on an edge of the index's grid (cells
        // `2 x tol` wide) — near zero, or at the largest quotient it
        // keys — or exactly one tolerance past such an edge; each also
        // one ulp to either side.
        4 => {
            const FAR: i64 = 1 << 50;
            let k =
                [-3, -2, -1, 0, 1, 2, 3, FAR - 1, FAR, 1 - FAR, -FAR][rng.gen_range(0usize..11)];
            let edge = k as f64 * (2.0 * step) + if rng.gen_bool(0.5) { step } else { 0.0 };
            vals.fill(match rng.gen_range(0u8..3) {
                0 => edge.next_down(),
                1 => edge,
                _ => edge.next_up(),
            });
        }
        // Arbitrary bit patterns.
        _ => return BlockData::from_bytes(rng.gen()),
    }
    BlockData::from_values(region.ty, &vals)
}

props! {
    /// Map generation is a pure function of (block, region, space):
    /// identical inputs give identical maps under every hash pair.
    fn maps_are_deterministic(
        vals in vec(-100.0f64..100.0, 16usize),
        m in 4u32..20,
    ) {
        let r = region(-100.0, 100.0);
        let b = BlockData::from_values(ElemType::F32, &vals);
        for hash in MapHash::ALL {
            let s = MapSpace::new(m).with_hash(hash);
            assert_eq!(s.map_block(&b, &r), s.map_block(&b, &r));
        }
    }

    /// The map identifier always fits its declared field width.
    fn maps_fit_their_field_width(
        vals in vec(-100.0f64..100.0, 16usize),
        m in 4u32..20,
    ) {
        let r = region(-100.0, 100.0);
        let b = BlockData::from_values(ElemType::F32, &vals);
        for hash in MapHash::ALL {
            let s = MapSpace::new(m).with_hash(hash);
            let map = s.map_block(&b, &r);
            // Conceptual identifier width is at most 2M bits.
            assert!(map.0 < (1u64 << s.ident_bits()), "{hash}: map overflows");
        }
    }

    /// Uniform constant blocks: the average map is monotone in the
    /// value — a larger constant never yields a smaller map (low bits
    /// hold the quantized average; range is 0 for all of them).
    fn constant_blocks_map_monotonically(a in 0.0f64..100.0, b in 0.0f64..100.0, m in 4u32..16) {
        let r = region(0.0, 100.0);
        let s = MapSpace::new(m);
        let ba = BlockData::from_values(ElemType::F32, &[a; 16]);
        let bb = BlockData::from_values(ElemType::F32, &[b; 16]);
        let (ma, mb) = (s.map_block(&ba, &r).0, s.map_block(&bb, &r).0);
        if a <= b {
            assert!(ma <= mb, "map not monotone: f({a})={ma} > f({b})={mb}");
        } else {
            assert!(mb <= ma);
        }
    }

    /// Permuting a block's elements never changes the paper's map
    /// (average and range are order-invariant).
    fn paper_map_is_order_invariant(
        vals in vec(0.0f64..100.0, 16usize),
        rot in 0usize..16,
    ) {
        let r = region(0.0, 100.0);
        let s = MapSpace::new(14);
        let b1 = BlockData::from_values(ElemType::F32, &vals);
        let mut rotated = vals.clone();
        rotated.rotate_left(rot);
        let b2 = BlockData::from_values(ElemType::F32, &rotated);
        assert_eq!(s.map_block(&b1, &r), s.map_block(&b2, &r));
    }

    /// Values clamp: scaling a block beyond the annotated range maps it
    /// like the range's endpoint.
    fn out_of_range_values_clamp_to_endpoints(excess in 1.0f64..1000.0, m in 4u32..16) {
        let r = region(0.0, 100.0);
        let s = MapSpace::new(m);
        let top = BlockData::from_values(ElemType::F32, &[100.0; 16]);
        let over = BlockData::from_values(ElemType::F32, &[100.0 + excess; 16]);
        assert_eq!(s.map_block(&top, &r), s.map_block(&over, &r));
    }

    /// Every resident tag's direct link leads where the MTag scan of
    /// its map leads, through random inserts, writes that keep the map
    /// (jitter inside a bin), join an existing list or allocate a new
    /// entry, byte-identical rewrites, reads and invalidations, with
    /// precise blocks mixed in under the unified configuration.
    /// `check_invariants` holds the link to the scan after every
    /// operation; from outside, a block must read back a representative
    /// of the bin it was last put in (a stale link reads another bin's
    /// entry, or a freed way), and a precise block its exact bytes. A
    /// rewrite of the bytes an approximate block last received is a
    /// silent store (`SameMap`), and every approximate insert and write
    /// generates exactly one map.
    fn links_follow_the_mtag_scan(
        ops in vec((0u8..9, 0u64..48, 0u16..40), 1..200),
        unified in any::<bool>(),
    ) {
        let cfg = tiny_cache(unified);
        let r = region(0.0, 100.0);
        let mut cache = DoppelgangerCache::new(cfg);
        // The bytes each resident approximate block last received.
        let mut approx: HashMap<u64, BlockData> = HashMap::new();
        let mut exact: HashMap<u64, BlockData> = HashMap::new();
        let mut maps_generated = 0u64;
        for (op, a, v) in ops {
            let addr = BlockAddr(a);
            let precise = unified && a >= 32;
            // Ten bins 2.5 apart, four byte-distinct values in each.
            let b = BlockData::from_values(
                ElemType::F32,
                &[f64::from(v / 4) * 2.5 + f64::from(v % 4) * 0.01; 16],
            );
            let mut gone = Vec::new();
            match op {
                0..=4 => {
                    if cache.contains(addr) {
                        let region = (!precise).then_some(&r);
                        let status = cache.write_with(addr, b, region, &mut |d| gone.push(d));
                        assert_ne!(status, WriteStatus::NotResident);
                    } else if precise {
                        cache.insert_precise_with(addr, b, &mut |d| gone.push(d));
                    } else {
                        cache.insert_approx_with(addr, b, &r, &mut |d| gone.push(d));
                    }
                    if precise {
                        exact.insert(a, b);
                    } else {
                        approx.insert(a, b);
                        maps_generated += 1;
                    }
                }
                5 | 6 => {
                    assert_eq!(cache.read(addr), cache.peek(addr));
                }
                7 => {
                    if let Some(&last) = approx.get(&a) {
                        let status = cache.write_with(addr, last, Some(&r), &mut |d| gone.push(d));
                        assert_eq!(status, WriteStatus::SameMap, "rewrite of block {a}'s bytes");
                        maps_generated += 1;
                    }
                }
                _ => gone.extend(cache.invalidate(addr)),
            }
            for d in gone {
                assert!(approx.remove(&d.addr.0).is_some() || exact.remove(&d.addr.0).is_some());
            }
            cache.check_invariants();
            assert_eq!(cache.stats().map_generations, maps_generated);
            assert_eq!(cache.resident_tags(), approx.len() + exact.len());
            for (&a, last) in &approx {
                let rep = cache.peek(BlockAddr(a)).expect("tracked block is resident");
                assert_eq!(
                    cfg.map_space.map_block(&rep, &r),
                    cfg.map_space.map_block(last, &r),
                    "block {a} reads another bin"
                );
            }
            for (&a, bytes) in &exact {
                assert_eq!(cache.peek(BlockAddr(a)), Some(*bytes), "precise block {a}");
            }
        }
    }

    /// The indexed `threshold_savings` reports exactly what the
    /// all-pairs scan reports, for the same blocks in the same order —
    /// the greedy count depends on the order, so each order is compared
    /// with the reference run on that order.
    fn threshold_savings_matches_the_scan(
        specs in vec((0u8..9, 0u8..6, any::<u64>()), 0..160),
        edges_only in any::<bool>(),
        t_pick in 0usize..8,
        order_seed in any::<u64>(),
    ) {
        let t = [0.0, 1e-9, 1e-4, 0.1, 1.0, 10.0, -0.5, f64::NAN][t_pick];
        let mut blocks: Vec<(BlockData, ApproxRegion)> = specs
            .iter()
            .map(|&(pick, shape, seed)| {
                // Half the cases crowd the two plain f64 envelopes with
                // grid-edge blocks, so that pairs a cell and a
                // tolerance apart do occur.
                let (pick, shape) = if edges_only { (2 + pick % 2, 4) } else { (pick, shape) };
                let region = envelope(pick);
                (shaped_block(&region, shape, seed, t * region.range()), region)
            })
            .collect();
        let mut rng = SplitMix64::seed_from_u64(order_seed);
        for _ in 0..3 {
            let indexed = threshold_savings(blocks.iter().map(|(b, r)| (b, r)), t);
            assert_eq!(indexed, threshold_savings_by_scan(&blocks, t), "t = {t}");
            rng.shuffle(&mut blocks);
        }
    }

    /// Hardware cost accounting is monotone: more tag entries or a
    /// bigger data array never shrink the structures.
    fn hardware_cost_monotone(tag_pow in 8u32..15, data_div in 1usize..5) {
        let hw = HardwareCost::paper_system();
        let small = DoppelgangerConfig {
            tag_entries: 1 << tag_pow,
            tag_ways: 16,
            data_entries: (1usize << tag_pow) / (1 << data_div),
            data_ways: 16,
            map_space: MapSpace::new(14),
            unified: false,
        };
        let big = DoppelgangerConfig {
            tag_entries: 1 << (tag_pow + 1),
            data_entries: (1usize << (tag_pow + 1)) / (1 << data_div),
            ..small
        };
        assert!(
            hw.doppel_tag_array(&big).total_kbytes()
                > hw.doppel_tag_array(&small).total_kbytes()
        );
        assert!(
            hw.doppel_data_array(&big).total_kbytes()
                > hw.doppel_data_array(&small).total_kbytes()
        );
    }
}
