//! Property tests for the BΔI codec: `decompress(compress(b)) == b`
//! bit-for-bit over random bytes, structured base+delta blocks, the
//! sign-extension boundaries of every delta width, and float payloads
//! full of NaN/±∞/subnormals. The compressed LLC charges each block the
//! footprint `choose_encoding` reports and `check_invariants` holds the
//! stored bytes to this round trip, so a gap here would surface as
//! silent data corruption in an "exact" organization.
//!
//! `choose_encoding` is a one-pass classifier with an early exit; the
//! exhaustive eight-candidate scan it replaced lives on here as
//! [`reference_encoding`], and every block any test below builds must
//! get the same encoding (not merely the same size) from both.

use dg_check::{props, vec};
use dg_compress::bdi::{choose_encoding, compress, compressed_size, decompress, BdiEncoding};
use dg_mem::{BlockData, BLOCK_BYTES};

fn block_from(bytes: &[u8]) -> BlockData {
    let mut raw = [0u8; BLOCK_BYTES];
    raw.copy_from_slice(bytes);
    BlockData::from_bytes(raw)
}

const fn bd(base: u8, delta: u8) -> BdiEncoding {
    BdiEncoding::BaseDelta { base, delta }
}

/// PACT 2012 Table 2 in hardware evaluation order — the reference's own
/// copy, so a reordered `BdiEncoding::CANDIDATES` cannot hide itself.
const REFERENCE_CANDIDATES: [BdiEncoding; 8] = [
    BdiEncoding::Zeros,
    BdiEncoding::Repeat,
    bd(8, 1),
    bd(4, 1),
    bd(8, 2),
    bd(2, 1),
    bd(4, 2),
    bd(8, 4),
];

fn read_value(bytes: &[u8], offset: usize, width: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..width {
        v |= (bytes[offset + i] as u64) << (8 * i);
    }
    v
}

fn sign_extend(v: u64, width: usize) -> i64 {
    let shift = 64 - width * 8;
    ((v << shift) as i64) >> shift
}

fn fits_signed(delta: i64, width: usize) -> bool {
    let min = -(1i64 << (8 * width - 1));
    let max = (1i64 << (8 * width - 1)) - 1;
    (min..=max).contains(&delta)
}

/// Byte-by-byte test of one base/delta pair: the explicit base is the
/// first value that is not a small immediate.
fn reference_applies(bytes: &[u8; BLOCK_BYTES], base_w: usize, delta_w: usize) -> bool {
    let mut base: Option<i64> = None;
    for off in (0..BLOCK_BYTES).step_by(base_w) {
        let v = sign_extend(read_value(bytes, off, base_w), base_w);
        if fits_signed(v, delta_w) {
            continue;
        }
        match base {
            None => base = Some(v),
            Some(b) => {
                if !fits_signed(v.wrapping_sub(b), delta_w) {
                    return false;
                }
            }
        }
    }
    true
}

/// The encoder as it was before the one-pass classifier: try all eight
/// candidates, keep the strictly smallest that applies.
fn reference_encoding(block: &BlockData) -> BdiEncoding {
    let bytes = block.as_bytes();
    let mut best = BdiEncoding::Uncompressed;
    for cand in REFERENCE_CANDIDATES {
        let applies = match cand {
            BdiEncoding::Zeros => bytes.iter().all(|&b| b == 0),
            BdiEncoding::Repeat => {
                let first = read_value(bytes, 0, 8);
                (8..BLOCK_BYTES).step_by(8).all(|off| read_value(bytes, off, 8) == first)
            }
            BdiEncoding::BaseDelta { base, delta } => {
                reference_applies(bytes, base as usize, delta as usize)
            }
            BdiEncoding::Uncompressed => true,
        };
        if applies && cand.size_bytes() < best.size_bytes() {
            best = cand;
        }
    }
    best
}

fn assert_round_trip(b: &BlockData) {
    let want = reference_encoding(b);
    assert_eq!(choose_encoding(b), want, "classifier diverged on {:02x?}", b.as_bytes());
    let c = compress(b);
    assert_eq!(c.encoding(), choose_encoding(b));
    assert_eq!(c.size_bytes(), compressed_size(b));
    assert!(c.size_bytes() <= BLOCK_BYTES, "{} cannot exceed raw", c.encoding());
    assert_eq!(&decompress(&c), b, "BΔI lost data under {}", c.encoding());
}

/// One structured block: values near a shared wide `base`, a subset
/// flagged as small immediates (zero-base deltas), with per-value
/// offsets drawn to sit inside or at the edge of a delta width.
type Structured = (u8, u64, Vec<(u8, i64)>);

fn structured_strategy() -> impl dg_check::Strategy<Value = Structured> {
    // (base width selector, base value, per-value (immediate?, offset))
    (0u8..3, 0u64..=u64::MAX, vec((0u8..2, -70_000i64..70_000), 32..33usize))
}

fn build_structured((bw, base, offs): &Structured) -> BlockData {
    let base_w = [2usize, 4, 8][*bw as usize];
    let values = BLOCK_BYTES / base_w;
    let mut bytes = [0u8; BLOCK_BYTES];
    for (k, off) in (0..BLOCK_BYTES).step_by(base_w).enumerate() {
        let (imm, d) = offs[k % offs.len()];
        let v = if imm == 0 { base.wrapping_add_signed(d) } else { d as u64 };
        bytes[off..off + base_w].copy_from_slice(&v.to_le_bytes()[..base_w]);
        let _ = values;
    }
    BlockData::from_bytes(bytes)
}

/// A block of `base_w`-byte little-endian values (truncated to width).
fn block_of(base_w: usize, values: impl IntoIterator<Item = i64>) -> BlockData {
    let mut bytes = [0u8; BLOCK_BYTES];
    let mut filled = 0;
    for (chunk, v) in bytes.chunks_exact_mut(base_w).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes()[..base_w]);
        filled += 1;
    }
    assert_eq!(filled, BLOCK_BYTES / base_w, "too few values for a block");
    BlockData::from_bytes(bytes)
}

/// Values sitting on a delta-width limit: per value a kind (explicit
/// base or immediate, at `+2^(8d−1)`, `−2^(8d−1)` or 0) and a jitter of
/// −2..=2 around it, for a random base, base width and delta width.
type NearLimit = (u8, u8, u64, Vec<(u8, i64)>);

fn near_limit_strategy() -> impl dg_check::Strategy<Value = NearLimit> {
    (0u8..3, 0u8..3, 0u64..=u64::MAX, vec((0u8..6, -2i64..=2), 32..33usize))
}

fn build_near_limit((bw, dw, base, kinds): &NearLimit) -> BlockData {
    let base_w = [2usize, 4, 8][*bw as usize];
    let half = 1i64 << (8 * [1u32, 2, 4][*dw as usize] - 1);
    block_of(
        base_w,
        kinds.iter().map(|&(kind, jitter)| {
            let d = [half, -half, 0][kind as usize % 3].wrapping_add(jitter);
            if kind < 3 { (*base as i64).wrapping_add(d) } else { d }
        }),
    )
}

props! {
    cases = 300;

    fn near_limit_blocks_classify_like_the_reference(s in near_limit_strategy()) {
        assert_round_trip(&build_near_limit(&s));
    }

    fn random_bytes_round_trip(bytes in vec(0u8..=255, 64..65usize)) {
        assert_round_trip(&block_from(&bytes));
    }

    fn structured_base_delta_blocks_round_trip(s in structured_strategy()) {
        assert_round_trip(&build_structured(&s));
    }

    fn float_bit_patterns_round_trip(words in vec(0u64..=u64::MAX, 8..9usize)) {
        // Raw u64 lanes reinterpreted as f64: hits NaN payloads,
        // infinities and subnormals without any float arithmetic.
        let mut bytes = [0u8; BLOCK_BYTES];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        assert_round_trip(&BlockData::from_bytes(bytes));
    }
}

/// Every delta width, at both signed boundaries: deltas of exactly
/// `±(2^(8d−1) − 1)` (the widest that fits) and `±2^(8d−1)` (one past,
/// which must spill to a wider encoding or raw — never corrupt).
#[test]
fn sign_extension_boundary_deltas_round_trip() {
    for base_w in [2usize, 4, 8] {
        for delta_w in [1usize, 2, 4] {
            if delta_w >= base_w {
                continue;
            }
            let max_fit = (1i64 << (8 * delta_w - 1)) - 1;
            for d in [max_fit, -max_fit - 1, max_fit + 1, -max_fit - 2] {
                let base: i64 = 1 << (8 * base_w as u32 - 2);
                let mut bytes = [0u8; BLOCK_BYTES];
                for (k, off) in (0..BLOCK_BYTES).step_by(base_w).enumerate() {
                    // Alternate base+delta and boundary immediates.
                    let v = if k % 2 == 0 { base.wrapping_add(d) } else { d };
                    bytes[off..off + base_w]
                        .copy_from_slice(&v.to_le_bytes()[..base_w]);
                }
                assert_round_trip(&BlockData::from_bytes(bytes));
            }
        }
    }
}

/// Canonical float specials, in every lane arrangement the palette
/// allows: quiet/signalling NaNs, ±∞, ±0, subnormals.
#[test]
fn float_specials_round_trip_bit_exactly() {
    let specials = [
        f64::NAN.to_bits(),
        f64::NAN.to_bits() | 1,           // NaN with a payload bit
        0x7FF0_0000_0000_0001,            // signalling NaN
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        (-0.0f64).to_bits(),
        f64::MIN_POSITIVE.to_bits() >> 1, // subnormal
        1.0f64.to_bits(),
    ];
    for rot in 0..specials.len() {
        let mut bytes = [0u8; BLOCK_BYTES];
        for i in 0..8 {
            let w = specials[(i + rot) % specials.len()];
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        assert_round_trip(&BlockData::from_bytes(bytes));
    }
    // The same palette at f32 width, two lanes per word.
    let specials32 = [
        f32::NAN.to_bits(),
        f32::NAN.to_bits() | 1,
        0x7F80_0001, // signalling NaN
        f32::INFINITY.to_bits(),
        f32::NEG_INFINITY.to_bits(),
        (-0.0f32).to_bits(),
        f32::MIN_POSITIVE.to_bits() >> 1, // subnormal
        1.0f32.to_bits(),
    ];
    for rot in 0..specials32.len() {
        for stride in [1, 3] {
            let lanes = (0..16).map(|i| specials32[(i * stride + rot) % specials32.len()] as i64);
            assert_round_trip(&block_of(4, lanes));
        }
    }
    // Subnormals alone are small integers: all-immediate, compressible.
    let denormals = block_of(8, (1..=8).map(|i| i * 3));
    assert_eq!(choose_encoding(&denormals), bd(8, 1));
    assert_round_trip(&denormals);
    // A block of one repeated NaN must take the 8-byte repeat form.
    let mut bytes = [0u8; BLOCK_BYTES];
    for i in 0..8 {
        bytes[i * 8..(i + 1) * 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    }
    let b = BlockData::from_bytes(bytes);
    assert_eq!(choose_encoding(&b), BdiEncoding::Repeat);
    assert_eq!(decompress(&compress(&b)).as_bytes(), b.as_bytes());
}

/// Every (base, delta) candidate with deltas at `±2^(8·delta−1)` and one
/// either side of it, as deltas from an explicit base and as
/// immediates, in three layouts: base first, base after leading
/// immediates, and no explicit base at all.
#[test]
fn every_candidate_at_its_delta_limits_matches_the_reference() {
    for cand in &REFERENCE_CANDIDATES[2..] {
        let BdiEncoding::BaseDelta { base, delta } = *cand else { unreachable!() };
        let (base_w, delta_w) = (base as usize, delta as usize);
        let n = BLOCK_BYTES / base_w;
        let half = 1i64 << (8 * delta_w - 1);
        // Far from zero at every width, so never itself an immediate.
        let b = 1i64 << (8 * base_w - 2);
        for d in [half - 1, half, half + 1, -half - 1, -half, -half + 1] {
            let fits = (-half..half).contains(&d);
            // Explicit base first, every later value exactly `d` away.
            let deltas_only = block_of(base_w, (0..n).map(|k| if k == 0 { b } else { b + d }));
            assert_round_trip(&deltas_only);
            // Here `cand` applies exactly when `d` fits: something no
            // larger must win if it does, and never `cand` if not.
            let chosen = choose_encoding(&deltas_only);
            if fits {
                assert!(chosen.size_bytes() <= cand.size_bytes(), "{cand}, delta {d}: {chosen}");
            } else {
                assert_ne!(chosen, *cand, "{cand} cannot hold a delta of {d}");
            }
            // Leading immediates at the limit, then the base, then a mix.
            let base_late = block_of(
                base_w,
                (0..n).map(|k| match k {
                    0 | 1 => d,
                    2 => b,
                    _ if k % 2 == 0 => b + d,
                    _ => d,
                }),
            );
            assert_round_trip(&base_late);
            // Immediates only: no value ever becomes the explicit base
            // unless `d` itself is out of range.
            let immediates = block_of(base_w, (0..n).map(|k| if k % 2 == 0 { d } else { -1 - d }));
            assert_round_trip(&immediates);
        }
    }
}

/// At base 8 the subtraction `v − base` happens in `i64` and wraps:
/// `i64::MIN − i64::MAX` is +1, a one-byte delta, and the decoder's
/// `wrapping_add` undoes it.
#[test]
fn base8_delta_wraps_in_i64() {
    let cases = [(i64::MAX, 1i64), (i64::MIN, -1), (i64::MAX - 100, 127), (i64::MIN + 5, -128)];
    for (base, step) in cases {
        let stepped = base.wrapping_add(step);
        let b = block_of(8, (0..8).map(|k| if k % 2 == 0 { base } else { stepped }));
        assert_eq!(choose_encoding(&b), bd(8, 1), "wrap from {base:#x} by {step}");
        assert_round_trip(&b);
    }
    // One past the one-byte limit across the wrap needs the 2-byte form.
    let b = block_of(8, (0..8).map(|k| if k == 3 { i64::MAX.wrapping_add(128) } else { i64::MAX }));
    assert_eq!(choose_encoding(&b), bd(8, 2));
    assert_round_trip(&b);
}

/// The explicit base is the first value that is *not* an immediate,
/// wherever it sits; values before it must not capture the base.
#[test]
fn explicit_base_after_leading_immediates() {
    for base_w in [2usize, 4, 8] {
        let n = BLOCK_BYTES / base_w;
        let b = 1i64 << (8 * base_w - 2);
        for first in 0..n {
            // `first` immediates (positive and negative), then values
            // stepping away from the base one at a time.
            let block = block_of(
                base_w,
                (0..n).map(|k| if k < first { k as i64 - 3 } else { b + (k - first) as i64 }),
            );
            assert_round_trip(&block);
            assert_eq!(choose_encoding(&block), bd(base_w as u8, 1), "base at value {first}");
        }
        // No explicit base at all: distinct small immediates.
        let all_imm = block_of(base_w, (0..n).map(|k| k as i64 - 7));
        assert_eq!(choose_encoding(&all_imm), bd(base_w as u8, 1));
        assert_round_trip(&all_imm);
    }
}

/// base2-Δ1 and base4-Δ2 both cost 38 bytes; when both apply and
/// nothing smaller does, the earlier candidate (base2-Δ1) wins.
#[test]
fn the_38_byte_tie_goes_to_base2_delta1() {
    assert_eq!(bd(2, 1).size_bytes(), bd(4, 2).size_bytes());
    for salt in 0..50i64 {
        // 16-bit lanes: (0, B) then (B + e, 0) pairs. As 16-bit values:
        // base B, one-byte deltas, zero immediates. As 32-bit values:
        // base B << 16 and fifteen two-byte immediates B + e.
        let b16 = 0x4000i64;
        let lanes = (0..32).map(|lane| match lane {
            1 => b16,
            l if l >= 2 && l % 2 == 0 => b16 + (l * 7 + salt) % 100,
            _ => 0,
        });
        let block = block_of(2, lanes);
        assert!(reference_applies(block.as_bytes(), 2, 1));
        assert!(reference_applies(block.as_bytes(), 4, 2));
        assert_eq!(choose_encoding(&block), bd(2, 1));
        assert_round_trip(&block);
    }
}
