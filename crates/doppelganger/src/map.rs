//! Approximate-similarity map generation (paper §3.7).
//!
//! Doppelgänger identifies approximately similar blocks by hashing each
//! block's values into a *map*. Two hash functions are used:
//!
//! 1. the **average** of the element values in the block, and
//! 2. the **range** of the element values (largest − smallest).
//!
//! Each hash is linearly quantized into an M-bit integer over the
//! programmer-annotated value range (`min ↦ 0`, `max ↦ 2^M − 1`),
//! dividing the hash space into `2^M` equally-spaced bins. The two maps
//! are concatenated — average in the low bits, range in the high bits —
//! and only the ⌈M/2⌉ *higher-order* bits of the range map are kept.
//!
//! The concatenated identifier therefore conceptually spans `2M` bits
//! (average `M` + range `M`) with the low ⌊M/2⌋ bits of the range map
//! forced to zero; storing it needs `M + ⌈M/2⌉` bits. This reproduces
//! the paper's Table 3 exactly: a 14-bit map space yields a 21-bit map
//! field in the tag array, and MTag tags of `2M − index` bits (20 bits
//! for the 1/4 data array, 18 bits for uniDoppelgänger's 1 MB array).

use dg_mem::{ApproxRegion, BlockData, BlockStats, ElemType};
use std::fmt;

/// The pair of hash functions a map space quantizes.
///
/// The paper uses the block's **average** and **range** and notes that
/// "other hash functions are possible; we leave this to future work"
/// (§3.7). The alternatives here implement that future work for the
/// `ablation_hash` benchmark. Every variant produces a primary hash
/// (quantized at full `M`-bit resolution, the low bits of the map) and
/// an optional secondary hash (top ⌈M/2⌉ bits).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MapHash {
    /// Average + range — the paper's choice.
    #[default]
    AvgRange,
    /// Average only: cheaper hardware (no min/max tree), coarser
    /// discrimination of value spread.
    AvgOnly,
    /// Minimum + maximum: the block's value envelope.
    MinMax,
    /// Average + mean absolute consecutive delta: sensitive to value
    /// ordering within the block (smoothness), unlike the paper's
    /// order-invariant hashes.
    AvgStride,
}

impl fmt::Display for MapHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MapHash::AvgRange => "avg+range",
            MapHash::AvgOnly => "avg",
            MapHash::MinMax => "min+max",
            MapHash::AvgStride => "avg+stride",
        })
    }
}

/// A computed map value: the concatenation of the quantized average and
/// (truncated) range hashes of a block's values.
///
/// Blocks with equal `MapValue`s are deemed approximately similar and
/// share a single data array entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapValue(pub u64);

impl MapValue {
    /// The low `bits` of the map — the MTag array set index.
    #[inline]
    pub fn index(self, bits: u32) -> usize {
        (self.0 & ((1u64 << bits) - 1)) as usize
    }

    /// The remaining high bits of the map — the MTag array tag.
    #[inline]
    pub fn tag(self, index_bits: u32) -> u64 {
        self.0 >> index_bits
    }
}

impl fmt::Debug for MapValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MapValue({:#x})", self.0)
    }
}

impl fmt::Display for MapValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The map space: the design-time parameter `M` (paper §3.7).
///
/// `M` controls how much approximate similarity Doppelgänger accepts: a
/// smaller map space makes more blocks alias to the same map (more
/// savings, more error); a larger one is more selective.
///
/// # Example
///
/// ```
/// use doppelganger::MapSpace;
/// use dg_mem::{ApproxRegion, Addr, BlockData, ElemType};
///
/// // Fill a block by cycling RGB pixel values (Fig. 1b of the paper).
/// fn pixels(vals: &[f64]) -> BlockData {
///     let cycled: Vec<f64> = (0..64).map(|i| vals[i % vals.len()]).collect();
///     BlockData::from_values(ElemType::U8, &cycled)
/// }
///
/// let space = MapSpace::new(14);
/// let region = ApproxRegion::new(Addr(0), 64, ElemType::U8, 0.0, 255.0);
/// // Blocks 1 and 2 are approximately similar, block 3 is not.
/// let b1 = pixels(&[92.,131.,183.,91.,132.,186.]);
/// let b2 = pixels(&[90.,131.,185.,93.,133.,184.]);
/// let b3 = pixels(&[35.,31.,29.,43.,38.,37.]);
/// assert_eq!(space.map_block(&b1, &region), space.map_block(&b2, &region));
/// assert_ne!(space.map_block(&b1, &region), space.map_block(&b3, &region));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MapSpace {
    m: u32,
    hash: MapHash,
}

impl MapSpace {
    /// A map space of `m` bits per hash function.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= 28`.
    pub fn new(m: u32) -> Self {
        assert!((1..=28).contains(&m), "map space must be 1..=28 bits");
        MapSpace { m, hash: MapHash::AvgRange }
    }

    /// Same map space with a different hash-function pair (§3.7 future
    /// work; see [`MapHash`]).
    pub fn with_hash(mut self, hash: MapHash) -> Self {
        self.hash = hash;
        self
    }

    /// The hash-function pair in use.
    pub fn hash(self) -> MapHash {
        self.hash
    }

    /// The paper's base configuration: a 14-bit map space (Table 1).
    pub fn paper_default() -> Self {
        MapSpace::new(14)
    }

    /// The design parameter `M`.
    #[inline]
    pub fn m_bits(self) -> u32 {
        self.m
    }

    /// Bits kept from the range map: ⌈M/2⌉ (paper §3.7 footnote).
    #[inline]
    pub fn range_kept_bits(self) -> u32 {
        self.m.div_ceil(2)
    }

    /// Storage width of the map field in a tag entry: `M + ⌈M/2⌉`
    /// (just `M` for the single-hash [`MapHash::AvgOnly`]).
    ///
    /// For the paper's 14-bit map space this is 21 bits (Table 3).
    #[inline]
    pub fn map_field_bits(self) -> u32 {
        match self.hash {
            MapHash::AvgOnly => self.m,
            _ => self.m + self.range_kept_bits(),
        }
    }

    /// Conceptual width of the concatenated identifier: `2M` bits
    /// (average map ‖ full-width range map with its low bits zeroed).
    ///
    /// MTag tags are sized against this width (Table 3: `2M − index`).
    #[inline]
    pub fn ident_bits(self) -> u32 {
        2 * self.m
    }

    /// Linearly quantize `hash ∈ [min, max]` into a `bits`-bit bin.
    ///
    /// `min` maps to bin 0, `max` to bin `2^bits − 1`; values outside
    /// the range are clamped first (§4.1), so ±∞ land in the endpoint
    /// bins. A NaN hash reads as `min` and lands in bin 0, and a
    /// degenerate range (`min == max`) maps everything to bin 0 — see
    /// docs/MAP_SCHEME.md, "NaN and infinity".
    fn quantize(hash: f64, min: f64, max: f64, bits: u32) -> u64 {
        debug_assert!(min <= max);
        let bins = 1u64 << bits;
        if max <= min {
            return 0;
        }
        // NaN survives `clamp` and would only reach bin 0 through the
        // saturating `as u64` cast; make that semantics explicit so a
        // future rewrite of the arithmetic cannot silently change it.
        if hash.is_nan() {
            return 0;
        }
        let x = (hash.clamp(min, max) - min) / (max - min);
        // Equally spaced bins; x == 1.0 lands in the last bin.
        ((x * bins as f64) as u64).min(bins - 1)
    }

    /// Effective quantization width for an element type: if `M` exceeds
    /// the element's bit width, the mapping step is skipped and the
    /// value's own resolution is used instead (§3.7: avoids map bits
    /// that are always zero and the resulting set conflicts).
    fn effective_bits(self, ty: ElemType) -> u32 {
        self.m.min(ty.bits())
    }

    /// Compute the map for raw block statistics under an annotation
    /// (average + range; used directly for the paper's hash pair).
    pub fn map_stats(self, stats: &BlockStats, region: &ApproxRegion) -> MapValue {
        self.combine(
            stats.average(),
            region.min,
            region.max,
            Some((stats.range(), 0.0, region.range())),
            region.ty,
        )
    }

    /// Quantize a primary hash (full `M` bits, low) and an optional
    /// secondary hash (top ⌈M/2⌉ bits kept) into one map value.
    fn combine(
        self,
        primary: f64,
        p_min: f64,
        p_max: f64,
        secondary: Option<(f64, f64, f64)>,
        ty: ElemType,
    ) -> MapValue {
        let bits = self.effective_bits(ty);
        let primary_map = Self::quantize(primary, p_min, p_max, bits);
        let Some((s, s_min, s_max)) = secondary else {
            return MapValue(primary_map);
        };
        let s_map = Self::quantize(s, s_min, s_max, bits);
        let dropped = bits - self.range_kept_bits().min(bits);
        let s_trunc = (s_map >> dropped) << dropped;
        MapValue((s_trunc << bits) | primary_map)
    }

    /// Compute the map of a block's contents under an annotation.
    ///
    /// Values are clamped into the annotated range before hashing, as
    /// the paper requires for out-of-range runtime values (§4.1).
    /// Dispatches to the process-wide SIMD lane (AVX2 when the CPU has
    /// it); all lanes are map-bit-identical — see [`Self::map_block_on`].
    pub fn map_block(self, block: &BlockData, region: &ApproxRegion) -> MapValue {
        self.map_block_on(dg_simd::lane(), block, region)
    }

    /// [`Self::map_block`] on an explicit [`dg_simd::Lane`], for
    /// differential tests that compare lanes in-process.
    ///
    /// Bit-identity: the decode + clamp element buffer is bitwise
    /// lane-independent, sums (average, stride) fold the buffer
    /// sequentially on every lane, and the only lane slack — the sign
    /// of a zero winning a min/max tie — is erased by [`Self::quantize`]
    /// (`-0.0 == 0.0` and `x - (±0.0)` are bitwise equal), so the
    /// returned `MapValue` is identical on every lane.
    pub fn map_block_on(
        self,
        lane: dg_simd::Lane,
        block: &BlockData,
        region: &ApproxRegion,
    ) -> MapValue {
        // The stride hash is the only one needing consecutive-delta
        // state; the order-invariant hashes (including the paper's
        // avg+range) get a tighter single pass without it — map
        // generation runs on every LLC insert and write.
        if self.hash == MapHash::AvgStride {
            let n = region.ty.elems_per_block();
            let (sum, stride_sum) = if lane != dg_simd::Lane::Scalar {
                // Vector decode + clamp, then fold the buffer in element
                // order — the stride hash is order-sensitive, so the
                // reduction itself must stay sequential.
                let mut buf = [0f64; 64];
                let n = block.clamped_elems_on(lane, region.ty, region.min, region.max, &mut buf);
                let (mut sum, mut stride_sum) = (0.0, 0.0);
                for (i, &v) in buf[..n].iter().enumerate() {
                    sum += v;
                    if i > 0 {
                        stride_sum += (v - buf[i - 1]).abs();
                    }
                }
                (sum, stride_sum)
            } else {
                let (mut sum, mut stride_sum) = (0.0, 0.0);
                let mut prev: Option<f64> = None;
                for v in block.elems(region.ty) {
                    let v = region.clamp(v);
                    sum += v;
                    if let Some(p) = prev {
                        stride_sum += (v - p).abs();
                    }
                    prev = Some(v);
                }
                (sum, stride_sum)
            };
            let avg = sum / n as f64;
            let stride = stride_sum / (n - 1).max(1) as f64;
            return self.combine(
                avg,
                region.min,
                region.max,
                Some((stride, 0.0, region.range())),
                region.ty,
            );
        }

        // Order-invariant hashes: the type-specialized clamped fold
        // (same per-element operation order, so identical results).
        let stats = block.clamped_stats_on(lane, region.ty, region.min, region.max);
        match self.hash {
            MapHash::AvgRange => self.map_stats(&stats, region),
            MapHash::AvgOnly => {
                self.combine(stats.average(), region.min, region.max, None, region.ty)
            }
            MapHash::MinMax => self.combine(
                stats.min,
                region.min,
                region.max,
                Some((stats.max, region.min, region.max)),
                region.ty,
            ),
            MapHash::AvgStride => unreachable!("handled above"),
        }
    }

    /// The number of floating-point operations one map generation costs
    /// in hardware (paper §5.6: computing the average, the range and the
    /// mapping step ≈ 21 FP multiply-adds for a 16-element block).
    pub fn flops_per_generation() -> u32 {
        21
    }
}

impl Default for MapSpace {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl MapHash {
    /// All hash pairs, for ablation sweeps.
    pub const ALL: [MapHash; 4] =
        [MapHash::AvgRange, MapHash::AvgOnly, MapHash::MinMax, MapHash::AvgStride];
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::Addr;

    fn region_u8() -> ApproxRegion {
        ApproxRegion::new(Addr(0), 64, ElemType::U8, 0.0, 255.0)
    }

    fn region_f32(min: f64, max: f64) -> ApproxRegion {
        ApproxRegion::new(Addr(0), 64, ElemType::F32, min, max)
    }

    #[test]
    fn quantize_endpoints() {
        assert_eq!(MapSpace::quantize(0.0, 0.0, 10.0, 4), 0);
        assert_eq!(MapSpace::quantize(10.0, 0.0, 10.0, 4), 15);
        assert_eq!(MapSpace::quantize(5.0, 0.0, 10.0, 4), 8);
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        assert_eq!(MapSpace::quantize(-5.0, 0.0, 10.0, 4), 0);
        assert_eq!(MapSpace::quantize(99.0, 0.0, 10.0, 4), 15);
    }

    #[test]
    fn quantize_degenerate_range() {
        assert_eq!(MapSpace::quantize(3.0, 3.0, 3.0, 8), 0);
    }

    #[test]
    fn quantize_nan_reads_as_min() {
        // Pinned semantics: a NaN hash is treated as `min` (bin 0) for
        // every width, not left to the accident of a saturating cast.
        for bits in [1, 4, 14, 28] {
            assert_eq!(MapSpace::quantize(f64::NAN, 0.0, 10.0, bits), 0);
        }
        assert_eq!(MapSpace::quantize(f64::NAN, -1.0, 1.0, 8), 0);
    }

    #[test]
    fn quantize_infinities_clamp_to_endpoints() {
        assert_eq!(MapSpace::quantize(f64::NEG_INFINITY, 0.0, 10.0, 4), 0);
        assert_eq!(MapSpace::quantize(f64::INFINITY, 0.0, 10.0, 4), 15);
    }

    #[test]
    fn nan_block_shares_bin_with_min_block() {
        // End-to-end consequence of NaN ≡ min: an all-NaN block hashes
        // into the same map value as an all-`min` block, so the two
        // share a Doppelganger data entry instead of landing in an
        // arbitrary bin.
        let r = region_f32(-4.0, 100.0);
        let all_nan = BlockData::from_values(ElemType::F32, &[f64::NAN; 16]);
        let all_min = BlockData::from_values(ElemType::F32, &[-4.0; 16]);
        // Holds for every hash whose primary is the block average (the
        // NaN average reads as min). MinMax folds *skip* NaN operands,
        // so an all-NaN block degenerates to the (+∞, −∞) fold
        // sentinels there — still deterministic, just a different bin.
        for hash in [MapHash::AvgRange, MapHash::AvgOnly, MapHash::AvgStride] {
            let s = MapSpace::new(14).with_hash(hash);
            assert_eq!(
                s.map_block(&all_nan, &r),
                s.map_block(&all_min, &r),
                "{hash:?} does not treat NaN as min"
            );
        }
        let mm = MapSpace::new(14).with_hash(MapHash::MinMax);
        assert_eq!(mm.map_block(&all_nan, &r), mm.map_block(&all_nan, &r));
    }

    #[test]
    fn infinite_blocks_map_as_clamped_endpoints() {
        let r = region_f32(-4.0, 100.0);
        let all_pos = BlockData::from_values(ElemType::F32, &[f64::INFINITY; 16]);
        let all_max = BlockData::from_values(ElemType::F32, &[100.0; 16]);
        let all_neg = BlockData::from_values(ElemType::F32, &[f64::NEG_INFINITY; 16]);
        let all_min = BlockData::from_values(ElemType::F32, &[-4.0; 16]);
        let s = MapSpace::new(14);
        assert_eq!(s.map_block(&all_pos, &r), s.map_block(&all_max, &r));
        assert_eq!(s.map_block(&all_neg, &r), s.map_block(&all_min, &r));
    }

    #[test]
    fn field_widths_match_table3() {
        let s = MapSpace::new(14);
        assert_eq!(s.map_field_bits(), 21); // Table 3: map = 21 bits
        assert_eq!(s.ident_bits(), 28); // MTag tag = 28 − index bits
        assert_eq!(s.range_kept_bits(), 7);
    }

    #[test]
    fn odd_map_space_widths() {
        let s = MapSpace::new(13);
        assert_eq!(s.range_kept_bits(), 7);
        assert_eq!(s.map_field_bits(), 20);
    }

    fn pixels(vals: &[f64]) -> BlockData {
        let cycled: Vec<f64> = (0..64).map(|i| vals[i % vals.len()]).collect();
        BlockData::from_values(ElemType::U8, &cycled)
    }

    #[test]
    fn paper_fig1_blocks_share_map() {
        // Blocks 1 and 2 of Fig. 1b have near-identical averages (≈136 in
        // the paper's 6-element view) and equal ranges (95); block 3 is
        // far away on both hashes.
        let space = MapSpace::new(14);
        let r = region_u8();
        let b1 = pixels(&[92., 131., 183., 91., 132., 186.]);
        let b2 = pixels(&[90., 131., 185., 93., 133., 184.]);
        let b3 = pixels(&[35., 31., 29., 43., 38., 37.]);
        assert_eq!(space.map_block(&b1, &r), space.map_block(&b2, &r));
        assert_ne!(space.map_block(&b1, &r), space.map_block(&b3, &r));
    }

    #[test]
    fn smaller_map_space_aliases_more() {
        // Two blocks with slightly different averages: a coarse map space
        // merges them, a fine one separates them.
        let r = region_f32(0.0, 100.0);
        let a = BlockData::from_values(ElemType::F32, &[50.0; 16]);
        let b = BlockData::from_values(ElemType::F32, &[50.4; 16]);
        assert_eq!(
            MapSpace::new(6).map_block(&a, &r),
            MapSpace::new(6).map_block(&b, &r)
        );
        assert_ne!(
            MapSpace::new(16).map_block(&a, &r),
            MapSpace::new(16).map_block(&b, &r)
        );
    }

    #[test]
    fn m_zero_equivalent_not_allowed_but_m1_merges_almost_everything() {
        let r = region_f32(0.0, 1.0);
        let s = MapSpace::new(1);
        let a = BlockData::from_values(ElemType::F32, &[0.1; 16]);
        let b = BlockData::from_values(ElemType::F32, &[0.4; 16]);
        assert_eq!(s.map_block(&a, &r), s.map_block(&b, &r));
    }

    #[test]
    fn range_distinguishes_blocks_with_same_average() {
        let r = region_f32(0.0, 100.0);
        let s = MapSpace::new(14);
        // Same average (50), very different spreads.
        let flat = BlockData::from_values(ElemType::F32, &[50.0; 16]);
        let mut spread_vals = [50.0f64; 16];
        for (i, v) in spread_vals.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 10.0 } else { 90.0 };
        }
        let spread = BlockData::from_values(ElemType::F32, &spread_vals);
        assert_ne!(s.map_block(&flat, &r), s.map_block(&spread, &r));
    }

    #[test]
    fn u8_skips_mapping_when_m_exceeds_width() {
        // M = 14 > 8 bits of u8: quantization happens at 8-bit
        // resolution, so adjacent integer averages land in distinct bins.
        let s = MapSpace::new(14);
        let r = region_u8();
        let a = BlockData::from_values(ElemType::U8, &[100.0; 64]);
        let b = BlockData::from_values(ElemType::U8, &[101.0; 64]);
        assert_ne!(s.map_block(&a, &r), s.map_block(&b, &r));
    }

    #[test]
    fn out_of_range_values_clamp() {
        let r = region_f32(0.0, 1.0);
        let s = MapSpace::new(14);
        let inside = BlockData::from_values(ElemType::F32, &[1.0; 16]);
        let outside = BlockData::from_values(ElemType::F32, &[100.0; 16]);
        assert_eq!(s.map_block(&inside, &r), s.map_block(&outside, &r));
    }

    #[test]
    fn index_tag_partition() {
        let m = MapValue(0b1101_0110);
        assert_eq!(m.index(4), 0b0110);
        assert_eq!(m.tag(4), 0b1101);
    }

    #[test]
    fn map_deterministic() {
        let r = region_f32(-10.0, 10.0);
        let s = MapSpace::new(12);
        let b = BlockData::from_values(ElemType::F32, &[1.0, -2.0, 3.5, 7.25]);
        assert_eq!(s.map_block(&b, &r), s.map_block(&b, &r));
    }

    #[test]
    #[should_panic(expected = "map space")]
    fn rejects_zero_m() {
        MapSpace::new(0);
    }

    #[test]
    fn flop_count_matches_paper() {
        assert_eq!(MapSpace::flops_per_generation(), 21);
    }

    #[test]
    fn avg_only_merges_blocks_with_equal_average() {
        let r = region_f32(0.0, 100.0);
        let s = MapSpace::new(14).with_hash(MapHash::AvgOnly);
        // Same average (50), very different spreads: AvgOnly merges,
        // the paper's AvgRange does not.
        let flat = BlockData::from_values(ElemType::F32, &[50.0; 16]);
        let mut spread_vals = [0.0f64; 16];
        for (i, v) in spread_vals.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 10.0 } else { 90.0 };
        }
        let spread = BlockData::from_values(ElemType::F32, &spread_vals);
        assert_eq!(s.map_block(&flat, &r), s.map_block(&spread, &r));
        let paper = MapSpace::new(14);
        assert_ne!(paper.map_block(&flat, &r), paper.map_block(&spread, &r));
    }

    #[test]
    fn min_max_distinguishes_shifted_envelopes() {
        let r = region_f32(0.0, 100.0);
        let s = MapSpace::new(12).with_hash(MapHash::MinMax);
        let low = BlockData::from_values(ElemType::F32, &[10.0; 16]);
        let high = BlockData::from_values(ElemType::F32, &[90.0; 16]);
        assert_ne!(s.map_block(&low, &r), s.map_block(&high, &r));
        assert_eq!(s.map_block(&low, &r), s.map_block(&low, &r));
    }

    #[test]
    fn avg_stride_distinguishes_orderings() {
        let r = region_f32(0.0, 100.0);
        let s = MapSpace::new(12).with_hash(MapHash::AvgStride);
        // Same multiset of values, different orderings: smooth ramp vs
        // alternating. Order-invariant hashes (the paper's) merge them;
        // the stride hash separates them.
        let ramp: Vec<f64> = (0..16).map(|i| 10.0 + 5.0 * i as f64).collect();
        let mut zigzag = ramp.clone();
        zigzag.sort_by(|a, b| a.total_cmp(b));
        // Interleave small and large.
        let reordered: Vec<f64> =
            (0..8).flat_map(|i| [zigzag[i], zigzag[15 - i]]).collect();
        let b_ramp = BlockData::from_values(ElemType::F32, &ramp);
        let b_zig = BlockData::from_values(ElemType::F32, &reordered);
        assert_ne!(s.map_block(&b_ramp, &r), s.map_block(&b_zig, &r));
        let paper = MapSpace::new(12);
        assert_eq!(paper.map_block(&b_ramp, &r), paper.map_block(&b_zig, &r));
    }

    #[test]
    fn nan_block_maps_without_panic() {
        // Runtime data can carry NaN (uninitialized approximate reads,
        // kernel overflow); mapping must stay total and deterministic
        // rather than panicking inside a sort or comparison.
        let r = region_f32(0.0, 100.0);
        let mut vals = [50.0f64; 16];
        vals[3] = f64::NAN;
        vals[11] = f64::NAN;
        let b = BlockData::from_values(ElemType::F32, &vals);
        for hash in MapHash::ALL {
            let s = MapSpace::new(14).with_hash(hash);
            let first = s.map_block(&b, &r);
            assert_eq!(first, s.map_block(&b, &r), "{hash:?} map not deterministic");
        }
        let all_nan = BlockData::from_values(ElemType::F32, &[f64::NAN; 16]);
        let s = MapSpace::new(14);
        assert_eq!(s.map_block(&all_nan, &r), s.map_block(&all_nan, &r));
    }

    #[test]
    fn avg_only_field_is_narrower() {
        assert_eq!(MapSpace::new(14).with_hash(MapHash::AvgOnly).map_field_bits(), 14);
        assert_eq!(MapSpace::new(14).map_field_bits(), 21);
    }
}
