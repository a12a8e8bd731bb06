//! Differential property tests of the SIMD map-generation lane
//! (dg-check harness): for every block the AVX2 lane must produce
//! maps **bit-identical** to the scalar reference, under every
//! [`MapHash`] variant and element type — including the inputs where
//! SIMD min/max/clamp semantics classically diverge from scalar folds
//! (NaN, ±∞, denormals, signed zeros, values straddling the annotated
//! clamp boundary, and partially-filled blocks).
//!
//! Lanes the host lacks are skipped, so the suite passes on any host;
//! on an AVX2 CPU the vector kernels are genuinely exercised.

use dg_check::{props, vec};
use dg_mem::{Addr, ApproxRegion, BlockData, ElemType};
use doppelganger::{MapHash, MapSpace};

/// A type-appropriate annotation whose clamp range is active on both
/// sides for the value distributions used below.
fn region_for(ty: ElemType) -> ApproxRegion {
    let (min, max) = match ty {
        ElemType::U8 => (10.0, 200.0),
        ElemType::I32 => (-100.0, 100.0),
        ElemType::F32 | ElemType::F64 => (-100.0, 100.0),
    };
    ApproxRegion::new(Addr(0), 1 << 24, ty, min, max)
}

fn elem_type(sel: u8) -> ElemType {
    match sel % 4 {
        0 => ElemType::U8,
        1 => ElemType::I32,
        2 => ElemType::F32,
        _ => ElemType::F64,
    }
}

/// Assert every available lane maps `block` exactly like the scalar
/// reference, under every hash variant.
fn assert_lanes_agree(block: &BlockData, region: &ApproxRegion, m: u32) {
    for hash in MapHash::ALL {
        let space = MapSpace::new(m).with_hash(hash);
        let reference = space.map_block_on(dg_simd::Lane::Scalar, block, region);
        for lane in dg_simd::Lane::ALL {
            if !lane.available() {
                continue;
            }
            assert_eq!(
                space.map_block_on(lane, block, region),
                reference,
                "{hash} map diverged on {} (m={m})",
                lane.name()
            );
        }
    }
}

/// Decode a selector into a floating-point stress value. Covers the
/// cases where `min_pd`/`max_pd` tie-breaking and NaN propagation could
/// legally differ from a scalar `f64::min`/`f64::max` fold.
fn special_value(sel: u8, ty: ElemType) -> f64 {
    let denormal = if ty == ElemType::F32 { 1.0e-42 } else { 5.0e-310 };
    match sel % 10 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => denormal,
        4 => -denormal,
        5 => 0.0,
        6 => -0.0,
        7 => -100.0, // exact clamp boundaries
        8 => 100.0,
        _ => 3.25,
    }
}

props! {
    /// Blocks of NaN / ±∞ / denormal / signed-zero / boundary values:
    /// every lane produces the scalar map, bit for bit, under every
    /// hash variant, for both float element widths.
    fn special_float_blocks_map_identically_across_lanes(
        sels in vec(0u8..10, 16usize),
        wide in 0u8..2,
        m in 4u32..20,
    ) {
        let ty = if wide == 1 { ElemType::F64 } else { ElemType::F32 };
        let r = region_for(ty);
        let vals: Vec<f64> =
            sels.iter().take(ty.elems_per_block()).map(|&s| special_value(s, ty)).collect();
        let b = BlockData::from_values(ty, &vals);
        assert_lanes_agree(&b, &r, m);
    }

    /// Values straddling the annotated clamp boundary (both below min
    /// and above max), across all four element types.
    fn boundary_straddling_blocks_map_identically_across_lanes(
        vals in vec(-250.0f64..250.0, 16usize),
        ty_sel in 0u8..4,
        m in 4u32..20,
    ) {
        let ty = elem_type(ty_sel);
        let r = region_for(ty);
        let vals: Vec<f64> = vals.into_iter().take(ty.elems_per_block()).collect();
        let b = BlockData::from_values(ty, &vals);
        assert_lanes_agree(&b, &r, m);
    }

    /// Partially-filled blocks (odd tails — `from_values` zero-fills
    /// the remainder, so the element count no longer aligns with any
    /// vector width boundary in interesting ways) still map
    /// identically on every lane.
    fn odd_tail_blocks_map_identically_across_lanes(
        vals in vec(-150.0f64..150.0, 1..16usize),
        ty_sel in 0u8..4,
        m in 4u32..20,
    ) {
        let ty = elem_type(ty_sel);
        let r = region_for(ty);
        let n = vals.len().min(ty.elems_per_block()).max(1);
        let b = BlockData::from_values(ty, &vals[..n]);
        assert_lanes_agree(&b, &r, m);
    }

    /// Fully adversarial raw bytes: random 64-byte patterns decoded
    /// under every element type — this reaches every f32/f64 bit
    /// pattern class (quiet/signalling NaNs, denormals, negative
    /// zeros) without going through the `from_values` encoder.
    fn raw_byte_blocks_map_identically_across_lanes(
        bytes in vec(0u8..=255, 64usize),
        m in 4u32..20,
    ) {
        let mut raw = [0u8; 64];
        raw.copy_from_slice(&bytes);
        let b = BlockData::from_bytes(raw);
        for ty in [ElemType::U8, ElemType::I32, ElemType::F32, ElemType::F64] {
            assert_lanes_agree(&b, &region_for(ty), m);
        }
    }
}

/// Fixed worst-case byte patterns, checked exhaustively (not sampled):
/// all-ones (NaN payloads / 255 / −1), alternating bytes, and the
/// sign-bit-only pattern (−0.0 in both float widths).
#[test]
fn canonical_adversarial_patterns_map_identically_across_lanes() {
    let mut patterns = vec![[0x00u8; 64], [0xFFu8; 64], [0x7Fu8; 64], [0x80u8; 64]];
    let mut alt = [0u8; 64];
    for (i, b) in alt.iter_mut().enumerate() {
        *b = if i % 2 == 0 { 0xAA } else { 0x55 };
    }
    patterns.push(alt);
    for raw in patterns {
        let b = BlockData::from_bytes(raw);
        for ty in [ElemType::U8, ElemType::I32, ElemType::F32, ElemType::F64] {
            for m in [4, 9, 14, 19] {
                assert_lanes_agree(&b, &region_for(ty), m);
            }
        }
    }
}
