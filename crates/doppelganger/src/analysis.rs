//! Offline approximate-similarity analyses (paper §2, §5.1).
//!
//! These functions measure, over a snapshot of LLC-resident approximate
//! blocks, how much data storage could be saved if similar blocks shared
//! one data entry. They regenerate:
//!
//! * **Fig. 2** — element-wise similarity under a threshold `T`
//!   ([`threshold_savings`]);
//! * **Fig. 7** — map-based similarity for varying map spaces
//!   ([`map_savings`]);
//! * the Doppelgänger columns of **Fig. 8**.

use crate::MapSpace;
use dg_mem::{ApproxRegion, BlockData, ElemType, BLOCK_BYTES};
use std::collections::{HashMap, HashSet};

/// Result of a storage-savings analysis over a set of approximate
/// blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavingsReport {
    /// Number of approximate blocks considered.
    pub total_blocks: usize,
    /// Number of data blocks that must actually be stored.
    pub stored_blocks: usize,
}

impl SavingsReport {
    /// Fraction of approximate data storage saved
    /// (`1 − stored/total`; 0 when no blocks were considered).
    pub fn savings(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            1.0 - self.stored_blocks as f64 / self.total_blocks as f64
        }
    }
}

/// Identity of an annotation envelope: element type and the bit
/// patterns of the value bounds. Blocks are comparable (by map or by
/// threshold) only within one envelope; where the region lives is not
/// part of it. Bitwise, so a NaN-bounded annotation is one envelope
/// and `-0.0` / `0.0` bounds are two.
pub type EnvelopeKey = (ElemType, u64, u64);

/// The [`EnvelopeKey`] of a region's annotation.
pub fn envelope_key(region: &ApproxRegion) -> EnvelopeKey {
    (region.ty, region.min.to_bits(), region.max.to_bits())
}

/// Storage savings when blocks with equal Doppelgänger maps share one
/// entry (Fig. 7): `stored` is the number of *unique maps*.
///
/// # Example
///
/// ```
/// use doppelganger::{MapSpace, analysis::map_savings};
/// use dg_mem::{Addr, ApproxRegion, BlockData, ElemType};
///
/// let r = ApproxRegion::new(Addr(0), 1 << 20, ElemType::F32, 0.0, 100.0);
/// let blocks = [
///     BlockData::from_values(ElemType::F32, &[10.0; 16]),
///     BlockData::from_values(ElemType::F32, &[10.001; 16]), // same map
///     BlockData::from_values(ElemType::F32, &[90.0; 16]),   // different
/// ];
/// let report = map_savings(blocks.iter().map(|b| (b, &r)), MapSpace::new(14));
/// assert_eq!(report.total_blocks, 3);
/// assert_eq!(report.stored_blocks, 2);
/// ```
pub fn map_savings<'a>(
    blocks: impl IntoIterator<Item = (&'a BlockData, &'a ApproxRegion)>,
    space: MapSpace,
) -> SavingsReport {
    let mut total = 0;
    let mut unique = HashSet::new();
    for (block, region) in blocks {
        total += 1;
        // Maps are only comparable within the same annotation envelope.
        unique.insert((envelope_key(region), space.map_block(block, region)));
    }
    SavingsReport { total_blocks: total, stored_blocks: unique.len() }
}

/// Storage savings under the element-wise similarity definition of §2
/// (Fig. 2): two blocks are approximately similar if **every** pair of
/// corresponding elements differs by at most `t` (a fraction, e.g.
/// `0.01` for 1%) of the annotated value range.
///
/// Uses greedy representative clustering: each block joins a stored
/// block of its annotation envelope it is similar to, otherwise it
/// becomes a new representative. `stored` is the number of
/// representatives. `t == 0` uses exact byte equality (a hash set),
/// matching the paper's observation that T = 0% is plain deduplication.
///
/// Similarity is [`BlockData::approx_similar`]'s predicate with the
/// tolerance `t × region.range()` as `f64` arithmetic gives it, so the
/// degenerate inputs need no special case and never panic:
///
/// * `t < 0` or `t` NaN (or a NaN-bounded region): no numeric
///   difference is within the tolerance; only blocks whose elements
///   are all NaN merge, every other block is stored.
/// * `t ≥ 1`: the tolerance spans the whole annotated range, so blocks
///   whose values respect the annotation collapse into one
///   representative per envelope; values outside it still count with
///   their full distance.
/// * `region.range() == 0` (`min == max`): the tolerance is zero and
///   blocks merge only when element-wise equal as numbers
///   (`-0.0 == 0.0`).
///
/// Under every finite tolerance a block holding `±∞` is never merged,
/// not even with its own copy (`∞ − ∞` is NaN).
pub fn threshold_savings<'a>(
    blocks: impl IntoIterator<Item = (&'a BlockData, &'a ApproxRegion)>,
    t: f64,
) -> SavingsReport {
    let blocks: Vec<_> = blocks.into_iter().collect();
    let total = blocks.len();
    if t == 0.0 {
        let unique: HashSet<&[u8; 64]> = blocks.iter().map(|(b, _)| b.as_bytes()).collect();
        return SavingsReport { total_blocks: total, stored_blocks: unique.len() };
    }
    // Blocks are comparable only within the same annotation envelope,
    // so each envelope clusters on its own.
    let mut envelopes: HashMap<EnvelopeKey, Representatives> = HashMap::new();
    for (block, region) in blocks {
        envelopes
            .entry(envelope_key(region))
            .or_insert_with(|| Representatives::new(region.ty, t * region.range()))
            .offer(block);
    }
    let stored = envelopes.values().map(Representatives::len).sum();
    SavingsReport { total_blocks: total, stored_blocks: stored }
}

/// The representatives of one annotation envelope, indexed so that a
/// new block is compared only with those that can be similar to it.
///
/// Element 0 of every representative is quantised into grid cells
/// `2·tol` wide. The prune is exact: two blocks within `tol` at
/// element 0 have quotients `v / (2·tol)` at most `0.5` apart, plus an
/// ulp for the rounding of the difference the predicate takes, plus at
/// most `0.125` for each of the two divisions while `|q| ≤ 2^50`. That
/// is less than 1, so their cells differ by at most one, and the
/// block's cell and its two neighbours hold every representative that
/// can be similar. The predicate itself decides each of those, over
/// elements decoded once per block. A block with no such cell is
/// `unkeyed`: compared with every representative, and as a
/// representative compared with every block.
struct Representatives {
    ty: ElemType,
    tol: f64,
    /// Decoded elements, `ty.elems_per_block()` per representative.
    elems: Vec<f64>,
    /// Keyed representatives by grid cell of element 0.
    cells: HashMap<i64, Vec<usize>>,
    unkeyed: Vec<usize>,
}

impl Representatives {
    /// Largest quotient magnitude that gets a cell.
    const CELL_LIMIT: f64 = (1u64 << 50) as f64;

    fn new(ty: ElemType, tol: f64) -> Self {
        Representatives { ty, tol, elems: Vec::new(), cells: HashMap::new(), unkeyed: Vec::new() }
    }

    fn len(&self) -> usize {
        self.elems.len() / self.ty.elems_per_block()
    }

    /// Grid cell of a block whose element 0 is `v`. `None` for NaN and
    /// `±∞`, for quotients too large for cells one apart to be told
    /// apart, and for every `v` when the tolerance is zero, negative or
    /// not finite.
    fn cell(&self, v: f64) -> Option<i64> {
        let q = v / (2.0 * self.tol);
        (self.tol > 0.0 && self.tol.is_finite() && q.abs() <= Self::CELL_LIMIT)
            .then(|| q.floor() as i64)
    }

    /// Greedy step: store `block` unless a representative is similar.
    fn offer(&mut self, block: &BlockData) {
        let n = self.ty.elems_per_block();
        let mut vals = [0f64; BLOCK_BYTES];
        for (slot, v) in vals.iter_mut().zip(block.elems(self.ty)) {
            *slot = v;
        }
        let vals = &vals[..n];
        let tol = self.tol;
        // `BlockData::approx_similar`, element for element.
        let similar_to = |rep: usize| {
            vals.iter()
                .zip(&self.elems[rep * n..(rep + 1) * n])
                .all(|(a, b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
        };
        let cell = self.cell(vals[0]);
        let found = match cell {
            Some(c) => (c - 1..=c + 1)
                .filter_map(|c| self.cells.get(&c))
                .flatten()
                .chain(&self.unkeyed)
                .any(|&rep| similar_to(rep)),
            None => (0..self.len()).any(similar_to),
        };
        if !found {
            let rep = self.len();
            match cell {
                Some(c) => self.cells.entry(c).or_default().push(rep),
                None => self.unkeyed.push(rep),
            }
            self.elems.extend_from_slice(vals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{Addr, ElemType};

    fn r() -> ApproxRegion {
        ApproxRegion::new(Addr(0), 1 << 20, ElemType::F32, 0.0, 100.0)
    }

    fn blk(v: f64) -> BlockData {
        BlockData::from_values(ElemType::F32, &[v; 16])
    }

    #[test]
    fn empty_input_saves_nothing() {
        let region = r();
        let report = map_savings(std::iter::empty(), MapSpace::new(14));
        assert_eq!(report.savings(), 0.0);
        let report = threshold_savings(std::iter::empty(), 0.01);
        assert_eq!(report.savings(), 0.0);
        let _ = region;
    }

    #[test]
    fn identical_blocks_save_maximally() {
        let region = r();
        let blocks = vec![blk(5.0); 4];
        let report = map_savings(blocks.iter().map(|b| (b, &region)), MapSpace::new(14));
        assert_eq!(report.stored_blocks, 1);
        // Paper's example: 4 similar blocks => 75% savings.
        assert_eq!(report.savings(), 0.75);
    }

    #[test]
    fn threshold_zero_is_exact_dedup() {
        let region = r();
        let blocks = [blk(5.0), blk(5.0), blk(5.001)];
        let report = threshold_savings(blocks.iter().map(|b| (b, &region)), 0.0);
        assert_eq!(report.stored_blocks, 2);
    }

    #[test]
    fn relaxing_threshold_increases_savings() {
        let region = r();
        let blocks: Vec<BlockData> = (0..10).map(|i| blk(10.0 + i as f64 * 0.05)).collect();
        let tight = threshold_savings(blocks.iter().map(|b| (b, &region)), 0.0001);
        let loose = threshold_savings(blocks.iter().map(|b| (b, &region)), 0.01);
        assert!(loose.savings() >= tight.savings());
        assert!(loose.savings() > 0.5, "0.45 spread within 1% of 100-range");
    }

    #[test]
    fn larger_map_space_reduces_savings() {
        let region = r();
        let blocks: Vec<BlockData> = (0..32).map(|i| blk(10.0 + i as f64 * 0.02)).collect();
        let coarse = map_savings(blocks.iter().map(|b| (b, &region)), MapSpace::new(8));
        let fine = map_savings(blocks.iter().map(|b| (b, &region)), MapSpace::new(16));
        assert!(coarse.savings() >= fine.savings());
    }

    #[test]
    fn blocks_from_different_annotations_never_merge() {
        let ra = r();
        let rb = ApproxRegion::new(Addr(0), 1 << 20, ElemType::F32, 0.0, 200.0);
        let b = blk(10.0);
        let report = map_savings([(&b, &ra), (&b, &rb)], MapSpace::new(14));
        assert_eq!(report.stored_blocks, 2);
    }

    #[test]
    fn one_element_violation_defeats_threshold_similarity() {
        // §2: "only one pair of elements needs to exceed the threshold T
        // to deem the entire block not similar".
        let region = r();
        let a = blk(10.0);
        let mut vals = [10.0; 16];
        vals[7] = 90.0;
        let b = BlockData::from_values(ElemType::F32, &vals);
        let report = threshold_savings([(&a, &region), (&b, &region)], 0.01);
        assert_eq!(report.stored_blocks, 2);
    }

    fn bounded(ty: ElemType, min: f64, max: f64) -> ApproxRegion {
        // Not `ApproxRegion::new`: it refuses NaN bounds, the struct
        // literal does not.
        ApproxRegion { start: Addr(0), len: 1 << 20, ty, min, max }
    }

    #[test]
    fn envelope_identity_is_bitwise() {
        let nan = bounded(ElemType::F32, f64::NAN, f64::NAN);
        let neg_zero = bounded(ElemType::F32, -0.0, 100.0);
        let pos_zero = bounded(ElemType::F32, 0.0, 100.0);
        let point = bounded(ElemType::F32, 5.0, 5.0);
        let moved = ApproxRegion { start: Addr(1 << 30), len: 64, ..pos_zero };
        assert_eq!(envelope_key(&nan), envelope_key(&nan.clone()));
        assert_ne!(envelope_key(&neg_zero), envelope_key(&pos_zero));
        assert_eq!(envelope_key(&pos_zero), envelope_key(&moved));
        assert_ne!(envelope_key(&point), envelope_key(&bounded(ElemType::I32, 5.0, 5.0)));

        // Both analyses see the same envelopes: one representative per
        // envelope for a block that is similar to itself.
        let b = blk(5.0);
        let regions = [&neg_zero, &pos_zero, &moved, &point, &point];
        let by_map = map_savings(regions.map(|r| (&b, r)), MapSpace::new(14));
        assert_eq!(by_map.stored_blocks, 3);
        let by_threshold = threshold_savings(regions.map(|r| (&b, r)), 0.01);
        assert_eq!(by_threshold.stored_blocks, 3);
        // Map generation refuses NaN bounds; the threshold analysis
        // takes them as one envelope with a NaN tolerance, under which
        // only all-NaN blocks are similar to anything.
        let nans = BlockData::from_values(ElemType::F32, &[f64::NAN; 16]);
        let in_nan = [(&b, &nan), (&b, &nan), (&nans, &nan), (&nans, &nan)];
        assert_eq!(threshold_savings(in_nan, 0.01).stored_blocks, 3);
    }

    #[test]
    fn degenerate_thresholds_and_ranges_are_defined() {
        let region = r();
        let nans = BlockData::from_values(ElemType::F32, &[f64::NAN; 16]);
        let inf = blk(f64::INFINITY);
        let blocks = [blk(5.0), blk(5.0), blk(95.0), nans, nans, inf, inf];
        let stored = |t: f64, region: &ApproxRegion| {
            threshold_savings(blocks.iter().map(|b| (b, region)), t).stored_blocks
        };
        // t < 0, t NaN: only the all-NaN blocks merge.
        for t in [-0.01, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(stored(t, &region), 6, "t = {t}");
        }
        // t >= 1: everything inside the annotated range is one
        // representative and NaN another; an infinite value stays out
        // of every cluster until the tolerance is infinite too.
        assert_eq!(stored(1.0, &region), 4);
        assert_eq!(stored(7.5, &region), 4);
        assert_eq!(stored(f64::INFINITY, &region), 2);
        // range == 0: numeric equality.
        let point = bounded(ElemType::F32, 5.0, 5.0);
        for t in [-1.0, 1e-9, 0.01, 1.0, 10.0] {
            assert_eq!(stored(t, &point), 5, "t = {t}");
        }
        assert_eq!(stored(f64::NAN, &point), 6);
        assert_eq!(stored(f64::INFINITY, &point), 6, "inf x 0 is NaN");
        let zeros = [blk(0.0), blk(-0.0)];
        let report = threshold_savings(zeros.iter().map(|b| (b, &point)), 0.5);
        assert_eq!(report.stored_blocks, 1, "-0.0 == 0.0");
    }

    #[test]
    fn grid_cells_exist_only_where_pruning_is_exact() {
        let reps = |tol| Representatives::new(ElemType::F64, tol);
        assert_eq!(reps(0.5).cell(0.25), Some(0));
        assert_eq!(reps(0.5).cell(-0.25), Some(-1));
        assert_eq!(reps(0.5).cell(2f64.powi(50)), Some(1 << 50));
        assert_eq!(reps(0.5).cell(2f64.powi(50) + 1.0), None);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(reps(0.5).cell(v), None);
        }
        for tol in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(reps(tol).cell(1.0), None, "tol = {tol}");
        }
        // 2 x tol overflows: one cell for every finite value.
        assert_eq!(reps(f64::MAX).cell(f64::MAX), Some(0));
        assert_eq!(reps(f64::MAX).cell(-f64::MAX), Some(0));
        // v / (2 x tol) overflows.
        assert_eq!(reps(f64::MIN_POSITIVE).cell(1.0), None);
    }
}
