//! Snapshot-based storage-savings analyses (Figs. 2, 7, 8).
//!
//! Each function consumes per-phase snapshots of LLC-resident
//! approximate blocks (from [`crate::collect_snapshots`]) and averages
//! the savings across snapshots, mirroring the paper's "average
//! fraction of blocks residing in the LLC" measurement (§2).

use dg_compress::{bdi, dedup_savings};
use dg_mem::{ApproxRegion, BlockData, BLOCK_BYTES};
use doppelganger::analysis::{envelope_key, map_savings, threshold_savings};
use doppelganger::MapSpace;
use std::collections::HashMap;

/// One snapshot: the approximate blocks resident in the LLC.
pub type Snapshot = Vec<(BlockData, ApproxRegion)>;

/// Deterministically subsample a snapshot to at most `max` blocks
/// (stride sampling), bounding the cost of the threshold clustering.
fn sample(snapshot: &Snapshot, max: usize) -> Vec<(&BlockData, &ApproxRegion)> {
    let n = snapshot.len();
    if n <= max {
        snapshot.iter().map(|(b, r)| (b, r)).collect()
    } else {
        let stride = n.div_ceil(max);
        snapshot.iter().step_by(stride).map(|(b, r)| (b, r)).collect()
    }
}

/// Average element-wise-similarity savings across snapshots for
/// threshold `t` (Fig. 2). Snapshots are subsampled to `max_blocks`.
pub fn avg_threshold_savings(snapshots: &[Snapshot], t: f64, max_blocks: usize) -> f64 {
    average(snapshots, |snap| {
        threshold_savings(sample(snap, max_blocks), t).savings()
    })
}

/// Average map-based savings across snapshots for an `m`-bit map space
/// (Fig. 7).
pub fn avg_map_savings(snapshots: &[Snapshot], space: MapSpace) -> f64 {
    average(snapshots, |snap| {
        map_savings(snap.iter().map(|(b, r)| (b, r)), space).savings()
    })
}

/// Average BΔI compression savings across snapshots (Fig. 8).
pub fn avg_bdi_savings(snapshots: &[Snapshot]) -> f64 {
    average(snapshots, |snap| bdi::bdi_savings(snap.iter().map(|(b, _)| b)).savings())
}

/// Average exact-deduplication savings across snapshots (Fig. 8).
pub fn avg_dedup_savings(snapshots: &[Snapshot]) -> f64 {
    average(snapshots, |snap| dedup_savings(snap.iter().map(|(b, _)| b)).savings())
}

/// Average savings when Doppelgänger sharing is combined with BΔI
/// compression of the surviving representatives (Fig. 8's rightmost
/// bars: 37.9% → 43.9% at a 14-bit map space).
pub fn avg_dopp_bdi_savings(snapshots: &[Snapshot], space: MapSpace) -> f64 {
    average(snapshots, |snap| {
        if snap.is_empty() {
            return 0.0;
        }
        // The first block of every (annotation envelope, map) pair is
        // the one the data array keeps.
        let mut reps = HashMap::new();
        for (block, region) in snap {
            reps.entry((envelope_key(region), space.map_block(block, region))).or_insert(block);
        }
        let stored: u64 = reps.values().map(|b| bdi::compressed_size(b) as u64).sum();
        1.0 - stored as f64 / (snap.len() * BLOCK_BYTES) as f64
    })
}

fn average(snapshots: &[Snapshot], f: impl Fn(&Snapshot) -> f64) -> f64 {
    let non_empty = || snapshots.iter().filter(|s| !s.is_empty());
    let n = non_empty().count();
    if n == 0 {
        return 0.0;
    }
    non_empty().map(f).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{Addr, ElemType};

    fn region() -> ApproxRegion {
        ApproxRegion::new(Addr(0), 1 << 20, ElemType::F32, 0.0, 100.0)
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F32, &[v; 16])
    }

    fn snapshot(vals: &[f64]) -> Snapshot {
        vals.iter().map(|&v| (blk(v), region())).collect()
    }

    #[test]
    fn map_savings_average_over_snapshots() {
        let snaps = vec![
            snapshot(&[10.0, 10.001, 50.0, 50.001]), // 2 unique maps of 4 => 50%
            snapshot(&[10.0, 10.0]),                 // 1 of 2 => 50%
        ];
        let s = avg_map_savings(&snaps, MapSpace::new(14));
        assert!((s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshots_are_skipped() {
        let snaps = vec![snapshot(&[]), snapshot(&[10.0, 10.0])];
        assert!((avg_map_savings(&snaps, MapSpace::new(14)) - 0.5).abs() < 1e-9);
        assert_eq!(avg_map_savings(&[], MapSpace::new(14)), 0.0);
    }

    #[test]
    fn threshold_zero_matches_dedup() {
        let snaps = vec![snapshot(&[1.0, 1.0, 2.0, 3.0])];
        let t0 = avg_threshold_savings(&snaps, 0.0, 1 << 20);
        let dd = avg_dedup_savings(&snaps);
        assert!((t0 - dd).abs() < 1e-9);
        assert!((t0 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn dopp_beats_dedup_on_similar_blocks() {
        // Nearly-identical (not identical) values: dedup saves nothing,
        // Doppelganger collapses them.
        let vals: Vec<f64> = (0..16).map(|i| 10.0 + i as f64 * 1e-4).collect();
        let snaps = vec![snapshot(&vals)];
        assert_eq!(avg_dedup_savings(&snaps), 0.0);
        assert!(avg_map_savings(&snaps, MapSpace::new(14)) > 0.9);
    }

    #[test]
    fn dopp_plus_bdi_beats_dopp_alone() {
        // Representatives are all-constant blocks, which BΔI crushes to
        // its repeat encoding.
        let snaps = vec![snapshot(&[10.0, 10.001, 50.0, 80.0])];
        let dopp = avg_map_savings(&snaps, MapSpace::new(14));
        let both = avg_dopp_bdi_savings(&snaps, MapSpace::new(14));
        assert!(both > dopp, "{both} vs {dopp}");
    }

    #[test]
    fn sampling_caps_block_count() {
        let snap = snapshot(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(sample(&snap, 10).len(), 10);
        assert_eq!(sample(&snap, 1000).len(), 100);
    }
}
