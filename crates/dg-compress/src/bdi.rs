//! Base-Delta-Immediate (BΔI) cache compression.
//!
//! Faithful implementation of Pekhimenko et al., *"Base-Delta-Immediate
//! Compression: Practical Data Compression for On-Chip Caches"*,
//! PACT 2012 — the lossless baseline of the Doppelgänger paper's Fig. 8.
//!
//! A 64-byte block is viewed as an array of `base_size`-byte values.
//! If every value equals either `base + small delta` or
//! `0 + small delta` (the *immediate* case), the block is stored as the
//! base, one narrow delta per value, and one bit per value selecting
//! the base. The encoder tries all canonical (base, delta)
//! combinations plus the special all-zeros and repeated-value forms and
//! picks the smallest.

use crate::CompressionReport;
use dg_mem::{BlockData, BLOCK_BYTES};
use std::fmt;

/// The encodings BΔI chooses from, with their compressed sizes in bytes
/// (Table 2 of the PACT 2012 paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BdiEncoding {
    /// All bytes zero.
    Zeros,
    /// One 8-byte value repeated.
    Repeat,
    /// Base `B` bytes, deltas `D` bytes: `Base8Delta1` etc.
    BaseDelta {
        /// Base width in bytes (8, 4 or 2).
        base: u8,
        /// Delta width in bytes (1, 2 or 4; strictly less than `base`).
        delta: u8,
    },
    /// Incompressible: stored verbatim.
    Uncompressed,
}

impl BdiEncoding {
    /// The canonical candidate list, in the order the hardware would
    /// evaluate it (smallest first; see PACT 2012 §3.4).
    pub const CANDIDATES: [BdiEncoding; 8] = [
        BdiEncoding::Zeros,
        BdiEncoding::Repeat,
        BdiEncoding::BaseDelta { base: 8, delta: 1 },
        BdiEncoding::BaseDelta { base: 4, delta: 1 },
        BdiEncoding::BaseDelta { base: 8, delta: 2 },
        BdiEncoding::BaseDelta { base: 2, delta: 1 },
        BdiEncoding::BaseDelta { base: 4, delta: 2 },
        BdiEncoding::BaseDelta { base: 8, delta: 4 },
    ];

    /// Compressed size of a 64-byte block under this encoding, in bytes
    /// (PACT 2012, Table 2).
    pub fn size_bytes(self) -> usize {
        match self {
            BdiEncoding::Zeros => 1,
            BdiEncoding::Repeat => 8,
            BdiEncoding::BaseDelta { base, delta } => {
                let values = BLOCK_BYTES / base as usize;
                // base + one delta per value + one base-select bit per
                // value (rounded up to whole bytes).
                base as usize + values * delta as usize + values.div_ceil(8)
            }
            BdiEncoding::Uncompressed => BLOCK_BYTES,
        }
    }
}

impl fmt::Display for BdiEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdiEncoding::Zeros => write!(f, "zeros"),
            BdiEncoding::Repeat => write!(f, "repeat"),
            BdiEncoding::BaseDelta { base, delta } => write!(f, "base{base}-delta{delta}"),
            BdiEncoding::Uncompressed => write!(f, "uncompressed"),
        }
    }
}

fn read_value(bytes: &[u8], offset: usize, width: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..width {
        v |= (bytes[offset + i] as u64) << (8 * i);
    }
    v
}

/// Sign-extend the low `width*8` bits of `v`.
fn sign_extend(v: u64, width: usize) -> i64 {
    let shift = 64 - width * 8;
    ((v << shift) as i64) >> shift
}

fn fits_signed(delta: i64, width: usize) -> bool {
    let min = -(1i64 << (8 * width - 1));
    let max = (1i64 << (8 * width - 1)) - 1;
    (min..=max).contains(&delta)
}

/// The block as eight little-endian words, in address order.
fn load_words(block: &BlockData) -> [u64; 8] {
    let mut words = [0u64; 8];
    for (w, chunk) in words.iter_mut().zip(block.as_bytes().chunks_exact(8)) {
        *w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    words
}

/// Whether a block is compressible with a particular base/delta pair
/// using two bases: an arbitrary base (the first value that is not a
/// small immediate) and the implicit zero base. `BASE` is the value
/// width in bytes; values are the little-endian lanes of `words`. It
/// is a const parameter because the lane loop then compiles per width:
/// with a runtime width `dg-cache.comp_write_ns` read 64–115 ns against
/// 45–57 (CHANGES.md, PR 21).
#[inline]
fn base_delta_applies<const BASE: usize>(words: &[u64; 8], delta_w: usize) -> bool {
    let mut base: Option<i64> = None;
    for &word in words {
        for lane in 0..8 / BASE {
            let v = sign_extend(word >> (lane * 8 * BASE), BASE);
            if fits_signed(v, delta_w) {
                continue; // immediate (delta from the zero base)
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
    }
    true
}

/// Choose the best (smallest) BΔI encoding for a block.
///
/// The block is loaded once as eight words and nothing is allocated:
/// zeros and repeat are decided from the words, then the base/delta
/// candidates are tried in [`BdiEncoding::CANDIDATES`] order and the
/// first that applies wins. That order is non-decreasing in size and
/// every candidate is smaller than `Uncompressed` (pinned by
/// `candidates_are_size_sorted`), so the first hit is the smallest
/// encoding — and, on the 38-byte tie, base2-Δ1 ahead of base4-Δ2.
///
/// # Example
///
/// ```
/// use dg_compress::bdi::{choose_encoding, BdiEncoding};
/// use dg_mem::{BlockData, ElemType};
///
/// // Narrow-range integers compress well:
/// let vals: Vec<f64> = (0..16).map(|i| 1000.0 + i as f64).collect();
/// let block = BlockData::from_values(ElemType::I32, &vals);
/// assert_eq!(choose_encoding(&block), BdiEncoding::BaseDelta { base: 4, delta: 1 });
/// ```
pub fn choose_encoding(block: &BlockData) -> BdiEncoding {
    let words = load_words(block);
    if words.iter().all(|&w| w == words[0]) {
        return if words[0] == 0 { BdiEncoding::Zeros } else { BdiEncoding::Repeat };
    }
    for &cand in &BdiEncoding::CANDIDATES[2..] {
        let BdiEncoding::BaseDelta { base, delta } = cand else {
            unreachable!("CANDIDATES[2..] are the base/delta forms");
        };
        let applies = match base {
            8 => base_delta_applies::<8>(&words, delta as usize),
            4 => base_delta_applies::<4>(&words, delta as usize),
            2 => base_delta_applies::<2>(&words, delta as usize),
            _ => unreachable!("no BΔI candidate has base width {base}"),
        };
        if applies {
            return cand;
        }
    }
    BdiEncoding::Uncompressed
}

/// Compressed size of a block in bytes under the best BΔI encoding.
pub fn compressed_size(block: &BlockData) -> usize {
    choose_encoding(block).size_bytes()
}

/// A fully decodable BΔI compression of one block, used to verify the
/// scheme is lossless.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedBlock {
    encoding: BdiEncoding,
    payload: Vec<u8>,
}

impl CompressedBlock {
    /// The encoding chosen for the block.
    pub fn encoding(&self) -> BdiEncoding {
        self.encoding
    }

    /// Size of the compressed representation in bytes (payload only,
    /// per the canonical size table).
    pub fn size_bytes(&self) -> usize {
        self.encoding.size_bytes()
    }
}

/// Compress a block into a decodable representation.
pub fn compress(block: &BlockData) -> CompressedBlock {
    let bytes = block.as_bytes();
    let encoding = choose_encoding(block);
    let payload = match encoding {
        BdiEncoding::Zeros => Vec::new(),
        BdiEncoding::Repeat => bytes[..8].to_vec(),
        BdiEncoding::Uncompressed => bytes.to_vec(),
        BdiEncoding::BaseDelta { base, delta } => {
            let (base_w, delta_w) = (base as usize, delta as usize);
            let values = BLOCK_BYTES / base_w;
            let mut payload = Vec::with_capacity(8 + values * delta_w + values);
            // Find the explicit base.
            let mut b: i64 = 0;
            for off in (0..BLOCK_BYTES).step_by(base_w) {
                let v = sign_extend(read_value(bytes, off, base_w), base_w);
                if !fits_signed(v, delta_w) {
                    b = v;
                    break;
                }
            }
            payload.extend_from_slice(&b.to_le_bytes()[..base_w]);
            // One selector byte per value (1 = delta from the explicit
            // base) followed by the delta bytes.
            for off in (0..BLOCK_BYTES).step_by(base_w) {
                let v = sign_extend(read_value(bytes, off, base_w), base_w);
                let (sel, d) = if fits_signed(v, delta_w) { (0u8, v) } else { (1u8, v.wrapping_sub(b)) };
                payload.push(sel);
                payload.extend_from_slice(&d.to_le_bytes()[..delta_w]);
            }
            payload
        }
    };
    CompressedBlock { encoding, payload }
}

/// Decompress a [`CompressedBlock`] back into its original bytes.
pub fn decompress(c: &CompressedBlock) -> BlockData {
    let mut out = [0u8; BLOCK_BYTES];
    match c.encoding {
        BdiEncoding::Zeros => {}
        BdiEncoding::Repeat => {
            for off in (0..BLOCK_BYTES).step_by(8) {
                out[off..off + 8].copy_from_slice(&c.payload[..8]);
            }
        }
        BdiEncoding::Uncompressed => out.copy_from_slice(&c.payload),
        BdiEncoding::BaseDelta { base, delta } => {
            let (base_w, delta_w) = (base as usize, delta as usize);
            let mut pos = 0;
            let mut base_bytes = [0u8; 8];
            base_bytes[..base_w].copy_from_slice(&c.payload[..base_w]);
            let b = sign_extend(u64::from_le_bytes(base_bytes), base_w);
            pos += base_w;
            for off in (0..BLOCK_BYTES).step_by(base_w) {
                let sel = c.payload[pos];
                pos += 1;
                let mut d_bytes = [0u8; 8];
                d_bytes[..delta_w].copy_from_slice(&c.payload[pos..pos + delta_w]);
                pos += delta_w;
                let d = sign_extend(u64::from_le_bytes(d_bytes), delta_w);
                let v = if sel == 1 { b.wrapping_add(d) } else { d };
                out[off..off + base_w].copy_from_slice(&v.to_le_bytes()[..base_w]);
            }
        }
    }
    BlockData::from_bytes(out)
}

/// BΔI storage savings over a set of blocks (one Fig. 8 bar).
pub fn bdi_savings<'a>(blocks: impl IntoIterator<Item = &'a BlockData>) -> CompressionReport {
    let mut original = 0;
    let mut stored = 0;
    for b in blocks {
        original += BLOCK_BYTES as u64;
        stored += compressed_size(b) as u64;
    }
    CompressionReport { original_bytes: original, stored_bytes: stored }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::ElemType;

    fn round_trip(block: &BlockData) {
        let c = compress(block);
        assert_eq!(&decompress(&c), block, "BΔI must be lossless ({:?})", c.encoding());
    }

    #[test]
    fn zeros_block() {
        let b = BlockData::zeroed();
        assert_eq!(choose_encoding(&b), BdiEncoding::Zeros);
        assert_eq!(compressed_size(&b), 1);
        round_trip(&b);
    }

    #[test]
    fn repeated_block() {
        let b = BlockData::from_values(ElemType::F64, &[3.25; 8]);
        assert_eq!(choose_encoding(&b), BdiEncoding::Repeat);
        assert_eq!(compressed_size(&b), 8);
        round_trip(&b);
    }

    #[test]
    fn narrow_i32_uses_base4_delta1() {
        let vals: Vec<f64> = (0..16).map(|i| 100_000.0 + i as f64).collect();
        let b = BlockData::from_values(ElemType::I32, &vals);
        assert_eq!(choose_encoding(&b), BdiEncoding::BaseDelta { base: 4, delta: 1 });
        round_trip(&b);
    }

    #[test]
    fn wide_i32_uses_base4_delta2() {
        let vals: Vec<f64> = (0..16).map(|i| 100_000.0 + 200.0 * i as f64).collect();
        let b = BlockData::from_values(ElemType::I32, &vals);
        assert_eq!(choose_encoding(&b), BdiEncoding::BaseDelta { base: 4, delta: 2 });
        round_trip(&b);
    }

    #[test]
    fn immediates_use_zero_base() {
        // Mix of large values near one base and small immediates.
        let mut vals = vec![1_000_000.0; 8];
        vals.extend_from_slice(&[1.0, 2.0, 3.0, 0.0, 5.0, 6.0, 7.0, 4.0]);
        let b = BlockData::from_values(ElemType::I32, &vals);
        assert_eq!(choose_encoding(&b), BdiEncoding::BaseDelta { base: 4, delta: 1 });
        round_trip(&b);
    }

    #[test]
    fn random_floats_incompressible() {
        // Dissimilar f32 mantissas defeat small deltas.
        let vals: Vec<f64> = (0..16).map(|i| (i as f64 + 0.123).exp()).collect();
        let b = BlockData::from_values(ElemType::F32, &vals);
        assert_eq!(choose_encoding(&b), BdiEncoding::Uncompressed);
        assert_eq!(compressed_size(&b), 64);
        round_trip(&b);
    }

    #[test]
    fn sizes_match_canonical_table() {
        assert_eq!(BdiEncoding::Zeros.size_bytes(), 1);
        assert_eq!(BdiEncoding::Repeat.size_bytes(), 8);
        // 8 + 8*1 + 1 = 17
        assert_eq!(BdiEncoding::BaseDelta { base: 8, delta: 1 }.size_bytes(), 17);
        // 8 + 8*2 + 1 = 25
        assert_eq!(BdiEncoding::BaseDelta { base: 8, delta: 2 }.size_bytes(), 25);
        // 8 + 8*4 + 1 = 41
        assert_eq!(BdiEncoding::BaseDelta { base: 8, delta: 4 }.size_bytes(), 41);
        // 4 + 16*1 + 2 = 22
        assert_eq!(BdiEncoding::BaseDelta { base: 4, delta: 1 }.size_bytes(), 22);
        // 4 + 16*2 + 2 = 38
        assert_eq!(BdiEncoding::BaseDelta { base: 4, delta: 2 }.size_bytes(), 38);
        // 2 + 32*1 + 4 = 38
        assert_eq!(BdiEncoding::BaseDelta { base: 2, delta: 1 }.size_bytes(), 38);
    }

    /// What `choose_encoding`'s early exit rests on: the first
    /// candidate that applies is the smallest one that does.
    #[test]
    fn candidates_are_size_sorted() {
        let sizes: Vec<usize> = BdiEncoding::CANDIDATES.iter().map(|c| c.size_bytes()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "not non-decreasing: {sizes:?}");
        assert!(sizes.iter().all(|&s| s < BdiEncoding::Uncompressed.size_bytes()));
    }

    #[test]
    fn savings_aggregation() {
        let zero = BlockData::zeroed();
        let hard = {
            let vals: Vec<f64> = (0..16).map(|i| (i as f64 + 0.5).sqrt() * 1e20).collect();
            BlockData::from_values(ElemType::F32, &vals)
        };
        let report = bdi_savings([&zero, &hard]);
        assert_eq!(report.original_bytes, 128);
        assert!(report.stored_bytes < 128);
        assert!(report.savings() > 0.0);
    }

    #[test]
    fn negative_values_round_trip() {
        let vals: Vec<f64> = (0..16).map(|i| -50.0 + i as f64).collect();
        let b = BlockData::from_values(ElemType::I32, &vals);
        assert_ne!(choose_encoding(&b), BdiEncoding::Uncompressed);
        round_trip(&b);
    }

    #[test]
    fn all_encodings_round_trip_on_crafted_blocks() {
        // One block per base/delta combination.
        for (base, delta, stride) in [
            (8usize, 1usize, 3i64),
            (8, 2, 300),
            (8, 4, 70_000),
            (4, 1, 2),
            (4, 2, 260),
            (2, 1, 1),
        ] {
            let mut bytes = [0u8; 64];
            for (k, off) in (0..64).step_by(base).enumerate() {
                let v: i64 = 1_000_000i64.min((1i64 << (8 * base as u32 - 2)) - 1)
                    + stride * k as i64;
                bytes[off..off + base].copy_from_slice(&v.to_le_bytes()[..base]);
            }
            let b = BlockData::from_bytes(bytes);
            let _ = delta; // the encoder picks the width itself
            round_trip(&b);
        }
    }
}
