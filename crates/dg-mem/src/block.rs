//! 64-byte cache-block data with typed element views.

use crate::{ElemType, BLOCK_BYTES};
use std::fmt;

/// The raw contents of one 64-byte cache block.
///
/// Blocks are plain byte containers; interpretation as typed elements is
/// supplied per access via [`ElemType`], mirroring the paper's assumption
/// that the data type is carried with each memory instruction (§3.7).
///
/// # Example
///
/// ```
/// use dg_mem::{BlockData, ElemType};
/// let mut b = BlockData::zeroed();
/// b.write_elem(ElemType::F32, 0, 1.0);
/// b.write_elem(ElemType::F32, 1, 3.0);
/// let stats = b.stats(ElemType::F32);
/// assert_eq!(stats.max, 3.0);
/// assert_eq!(stats.range(), 3.0);
/// ```
#[derive(Clone, Copy)]
pub struct BlockData {
    bytes: [u8; BLOCK_BYTES],
}

// Byte equality through the SIMD lane: block compares sit on the fill,
// writeback and map-memo paths. Exact equality is lane-independent, and
// `Hash` below is over the same bytes (equal blocks hash equally).
impl PartialEq for BlockData {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        dg_simd::eq64(&self.bytes, &other.bytes)
    }
}

impl Eq for BlockData {}

impl std::hash::Hash for BlockData {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl BlockData {
    /// A block of all-zero bytes.
    #[inline]
    pub fn zeroed() -> Self {
        BlockData { bytes: [0; BLOCK_BYTES] }
    }

    /// A block with the given raw contents.
    #[inline]
    pub fn from_bytes(bytes: [u8; BLOCK_BYTES]) -> Self {
        BlockData { bytes }
    }

    /// Build a block from typed element values.
    ///
    /// Missing trailing elements are zero.
    ///
    /// # Panics
    ///
    /// Panics if `values` holds more elements than fit in a block.
    pub fn from_values(ty: ElemType, values: &[f64]) -> Self {
        assert!(values.len() <= ty.elems_per_block(), "too many elements for a block");
        let mut b = BlockData::zeroed();
        for (i, &v) in values.iter().enumerate() {
            b.write_elem(ty, i, v);
        }
        b
    }

    /// Borrow the raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; BLOCK_BYTES] {
        &self.bytes
    }

    /// Mutably borrow the raw bytes.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8; BLOCK_BYTES] {
        &mut self.bytes
    }

    /// Copy bytes `[off, off + buf.len())` of the block into `buf`.
    ///
    /// Always inlined: a caller whose `buf` is a fixed-size array gets
    /// one move of that width, not a `memcpy` call — this is the data
    /// step of every simulated load.
    ///
    /// # Panics
    ///
    /// Panics if the span runs past the end of the block.
    #[inline(always)]
    pub fn read_at(&self, off: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
    }

    /// Overwrite bytes `[off, off + bytes.len())` of the block — the
    /// store-side twin of [`Self::read_at`].
    ///
    /// # Panics
    ///
    /// Panics if the span runs past the end of the block.
    #[inline(always)]
    pub fn write_at(&mut self, off: usize, bytes: &[u8]) {
        self.bytes[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Overwrite this block with `src`'s bytes through the SIMD copy
    /// lane — the fill/writeback block-move primitive.
    #[inline]
    pub fn copy_from(&mut self, src: &BlockData) {
        dg_simd::copy64(&mut self.bytes, &src.bytes);
    }

    /// The [`dg_simd::ElemKind`] decoding layout of `ty`.
    #[inline]
    fn simd_kind(ty: ElemType) -> dg_simd::ElemKind {
        match ty {
            ElemType::U8 => dg_simd::ElemKind::U8,
            ElemType::I32 => dg_simd::ElemKind::I32,
            ElemType::F32 => dg_simd::ElemKind::F32,
            ElemType::F64 => dg_simd::ElemKind::F64,
        }
    }

    /// Read element `idx` interpreted as `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the element type.
    #[inline]
    pub fn elem(&self, ty: ElemType, idx: usize) -> f64 {
        let off = idx * ty.bytes();
        ty.decode(&self.bytes[off..off + ty.bytes()])
    }

    /// Write element `idx` interpreted as `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the element type.
    #[inline]
    pub fn write_elem(&mut self, ty: ElemType, idx: usize, value: f64) {
        let off = idx * ty.bytes();
        ty.encode(value, &mut self.bytes[off..off + ty.bytes()]);
    }

    /// Iterate over all elements of the block interpreted as `ty`.
    pub fn elems(&self, ty: ElemType) -> impl Iterator<Item = f64> + '_ {
        (0..ty.elems_per_block()).map(move |i| self.elem(ty, i))
    }

    /// Value statistics (min / max / sum) over the block's elements.
    ///
    /// These are exactly the quantities Doppelgänger's two hash functions
    /// consume: the *average* and the *range* of element values (§3.7).
    pub fn stats(&self, ty: ElemType) -> BlockStats {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let n = ty.elems_per_block();
        for v in self.elems(ty) {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        BlockStats { min, max, sum, count: n }
    }

    /// Value statistics over the block's elements clamped into
    /// `[lo, hi]` — the map-generation pass (runs on every LLC insert
    /// and write of an approximate block; paper §3.7 with the §4.1
    /// clamping rule).
    ///
    /// Equivalent to clamping each element of [`Self::elems`] and
    /// folding min/max/sum in element order. Dispatches to the
    /// process-wide SIMD lane (`dg_simd::lane()`: AVX2 when the CPU has
    /// it); every lane is bit-identical to the scalar reference — see
    /// [`Self::clamped_stats_on`] for the contract.
    pub fn clamped_stats(&self, ty: ElemType, lo: f64, hi: f64) -> BlockStats {
        self.clamped_stats_on(dg_simd::lane(), ty, lo, hi)
    }

    /// [`Self::clamped_stats`] on an explicit [`dg_simd::Lane`], for
    /// differential tests that compare lanes in-process.
    ///
    /// The scalar lane is the reference: clamp, then min, max, sum per
    /// element in element order. The vector lanes decode + clamp into
    /// an element buffer (bitwise identical per element), reduce
    /// min/max with the same NaN-skipping fold, and sum the buffer
    /// **sequentially** — f64 addition is non-associative, so the sum
    /// is never vectorized. The only representational slack is the
    /// sign of a zero winning a `min`/`max` tie between `+0.0` and
    /// `-0.0`, which no consumer can observe (`-0.0 == 0.0`, and the
    /// downstream quantizer's arithmetic is sign-of-zero-blind).
    pub fn clamped_stats_on(&self, lane: dg_simd::Lane, ty: ElemType, lo: f64, hi: f64) -> BlockStats {
        if lane != dg_simd::Lane::Scalar {
            let mut buf = [0f64; BLOCK_BYTES];
            let n = dg_simd::decode_clamp_on(lane, Self::simd_kind(ty), &self.bytes, lo, hi, &mut buf);
            let (min, max) = dg_simd::min_max_on(lane, &buf[..n]);
            let sum = dg_simd::sum_seq(&buf[..n]);
            return BlockStats { min, max, sum, count: n };
        }
        #[inline(always)]
        fn fold(vals: impl Iterator<Item = f64>, lo: f64, hi: f64) -> (f64, f64, f64) {
            let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for v in vals {
                let v = v.clamp(lo, hi);
                min = min.min(v);
                max = max.max(v);
                sum += v;
            }
            (min, max, sum)
        }
        let b = &self.bytes[..];
        let (min, max, sum) = match ty {
            ElemType::U8 => fold(b.iter().map(|&x| x as f64), lo, hi),
            ElemType::I32 => fold(
                b.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap()) as f64),
                lo,
                hi,
            ),
            ElemType::F32 => fold(
                b.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap()) as f64),
                lo,
                hi,
            ),
            ElemType::F64 => {
                fold(b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())), lo, hi)
            }
        };
        BlockStats { min, max, sum, count: ty.elems_per_block() }
    }

    /// Decode and clamp every element into `out` (element order) on an
    /// explicit lane, returning the element count. All lanes produce
    /// bitwise-identical buffers; this feeds order-sensitive map folds
    /// (e.g. the stride hash) that then run scalar over the buffer.
    #[inline]
    pub fn clamped_elems_on(
        &self,
        lane: dg_simd::Lane,
        ty: ElemType,
        lo: f64,
        hi: f64,
        out: &mut [f64; BLOCK_BYTES],
    ) -> usize {
        dg_simd::decode_clamp_on(lane, Self::simd_kind(ty), &self.bytes, lo, hi, out)
    }

    /// Element-wise approximate similarity test of §2.
    ///
    /// Two blocks are approximately similar under threshold `t` if every
    /// corresponding pair of elements differs by no more than
    /// `t × (max − min)` of the annotated value range. `t` is a fraction
    /// (`0.01` = 1%).
    pub fn approx_similar(&self, other: &BlockData, ty: ElemType, t: f64, range: f64) -> bool {
        let tol = t * range;
        self.elems(ty)
            .zip(other.elems(ty))
            .all(|(a, b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

impl Default for BlockData {
    fn default() -> Self {
        BlockData::zeroed()
    }
}

impl fmt::Debug for BlockData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockData({:02x?}…)", &self.bytes[..8])
    }
}

/// Min / max / sum / count statistics over a block's typed elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockStats {
    /// Smallest element value.
    pub min: f64,
    /// Largest element value.
    pub max: f64,
    /// Sum of element values.
    pub sum: f64,
    /// Number of elements.
    pub count: usize,
}

impl BlockStats {
    /// Mean of the element values — Doppelgänger's first hash function.
    #[inline]
    pub fn average(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Largest minus smallest value — Doppelgänger's second hash function.
    #[inline]
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_block_stats() {
        let b = BlockData::zeroed();
        let s = b.stats(ElemType::F32);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.average(), 0.0);
        assert_eq!(s.range(), 0.0);
        assert_eq!(s.count, 16);
    }

    #[test]
    fn from_values_and_elem_round_trip() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let b = BlockData::from_values(ElemType::F64, &vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.elem(ElemType::F64, i), v);
        }
        // Trailing elements are zero.
        assert_eq!(b.elem(ElemType::F64, 7), 0.0);
    }

    #[test]
    #[should_panic(expected = "too many elements")]
    fn from_values_rejects_overflow() {
        BlockData::from_values(ElemType::F64, &[0.0; 9]);
    }

    #[test]
    fn stats_average_and_range() {
        let b = BlockData::from_values(ElemType::F64, &[2.0, 4.0, 6.0, 8.0, 0.0, 0.0, 0.0, 0.0]);
        let s = b.stats(ElemType::F64);
        assert_eq!(s.average(), 20.0 / 8.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.range(), 8.0);
    }

    #[test]
    fn paper_fig1_example_blocks() {
        // RGB pixel values from Fig. 1b, two pixels per block.
        let b1 = BlockData::from_values(
            ElemType::U8,
            &[92.0, 131.0, 183.0, 91.0, 132.0, 186.0],
        );
        let b2 = BlockData::from_values(
            ElemType::U8,
            &[90.0, 131.0, 185.0, 93.0, 133.0, 184.0],
        );
        let b3 = BlockData::from_values(ElemType::U8, &[35.0, 31.0, 29.0, 43.0, 38.0, 37.0]);
        // With T = 1% of the 0-255 range (tolerance 2.55), blocks 1 and 2
        // are approximately similar; block 3 is not similar to either.
        // (Only the first 6 elements are populated; the rest are 0 in all
        // blocks and trivially match.)
        assert!(b1.approx_similar(&b2, ElemType::U8, 0.01, 255.0));
        assert!(!b1.approx_similar(&b3, ElemType::U8, 0.01, 255.0));
        // With T = 0%, blocks 1 and 2 are NOT similar (values differ).
        assert!(!b1.approx_similar(&b2, ElemType::U8, 0.0, 255.0));
    }

    #[test]
    fn approx_similar_is_reflexive_and_symmetric() {
        let b1 = BlockData::from_values(ElemType::F32, &[1.0, 2.0, 3.0]);
        let b2 = BlockData::from_values(ElemType::F32, &[1.1, 2.1, 3.1]);
        assert!(b1.approx_similar(&b1, ElemType::F32, 0.0, 10.0));
        assert_eq!(
            b1.approx_similar(&b2, ElemType::F32, 0.02, 10.0),
            b2.approx_similar(&b1, ElemType::F32, 0.02, 10.0)
        );
    }

    #[test]
    fn write_elem_updates_bytes() {
        let mut b = BlockData::zeroed();
        b.write_elem(ElemType::U8, 63, 7.0);
        assert_eq!(b.as_bytes()[63], 7);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", BlockData::zeroed()).is_empty());
    }

    #[test]
    fn copy_from_and_eq_are_byte_exact() {
        let mut src = BlockData::zeroed();
        for (i, b) in src.as_bytes_mut().iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let mut dst = BlockData::zeroed();
        assert_ne!(dst, src);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_bytes(), src.as_bytes());
        dst.as_bytes_mut()[63] ^= 1;
        assert_ne!(dst, src);
    }

    /// The vector lane, when this host has it.
    fn avx2() -> Option<dg_simd::Lane> {
        dg_simd::Lane::Avx2.available().then_some(dg_simd::Lane::Avx2)
    }

    #[test]
    fn clamped_stats_lanes_match_scalar() {
        // All element types, NaN/∞/denormal payloads included, on the
        // AVX2 lane when available: min/max/sum must agree with the scalar
        // reference (bitwise except the unobservable sign of zero).
        let mut state = 0x9E37u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for round in 0..100 {
            let mut raw = [0u8; 64];
            for c in raw.chunks_exact_mut(8) {
                c.copy_from_slice(&next().to_le_bytes());
            }
            if round % 5 == 0 {
                // Plant f64 specials at aligned offsets.
                raw[0..8].copy_from_slice(&f64::NAN.to_le_bytes());
                raw[8..16].copy_from_slice(&f64::INFINITY.to_le_bytes());
                raw[16..24].copy_from_slice(&(f64::MIN_POSITIVE / 8.0).to_le_bytes());
            }
            let b = BlockData::from_bytes(raw);
            for ty in [ElemType::U8, ElemType::I32, ElemType::F32, ElemType::F64] {
                for (lo, hi) in [(0.0, 255.0), (-1e9, 1e9), (-0.5, 0.5)] {
                    let want = b.clamped_stats_on(dg_simd::Lane::Scalar, ty, lo, hi);
                    if let Some(lane) = avx2() {
                        let got = b.clamped_stats_on(lane, ty, lo, hi);
                        assert_eq!(got.count, want.count);
                        assert_eq!(got.sum.to_bits(), want.sum.to_bits(), "{lane:?} {ty:?} sum");
                        assert!(
                            got.min == want.min || got.min.to_bits() == want.min.to_bits(),
                            "{lane:?} {ty:?} min {} vs {}",
                            got.min,
                            want.min
                        );
                        assert!(
                            got.max == want.max || got.max.to_bits() == want.max.to_bits(),
                            "{lane:?} {ty:?} max {} vs {}",
                            got.max,
                            want.max
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clamped_elems_match_scalar_decode_bitwise() {
        let mut raw = [0u8; 64];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(101).wrapping_add(3);
        }
        let b = BlockData::from_bytes(raw);
        for ty in [ElemType::U8, ElemType::I32, ElemType::F32, ElemType::F64] {
            let mut want = [0f64; 64];
            let n = b.clamped_elems_on(dg_simd::Lane::Scalar, ty, -1e6, 1e6, &mut want);
            assert_eq!(n, ty.elems_per_block());
            // Scalar path must equal elems()+clamp exactly.
            for (i, v) in b.elems(ty).enumerate() {
                assert_eq!(want[i].to_bits(), v.clamp(-1e6, 1e6).to_bits());
            }
            if let Some(lane) = avx2() {
                let mut got = [0f64; 64];
                assert_eq!(b.clamped_elems_on(lane, ty, -1e6, 1e6, &mut got), n);
                for i in 0..n {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "{lane:?} {ty:?} elem {i}");
                }
            }
        }
    }
}
