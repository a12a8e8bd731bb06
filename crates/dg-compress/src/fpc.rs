//! Frequent Pattern Compression (FPC).
//!
//! Alameldeen & Wood, *"Adaptive Cache Compression for High-Performance
//! Processors"*, ISCA 2004 — the other classic significance-based cache
//! compression scheme the Doppelgänger paper cites (\[1\] in its related
//! work). Each 32-bit word is encoded with a 3-bit prefix selecting one
//! of eight patterns:
//!
//! | prefix | pattern | payload bits |
//! |---|---|---|
//! | 000 | zero run (1–8 zero words) | 3 |
//! | 001 | 4-bit sign-extended | 4 |
//! | 010 | 8-bit sign-extended | 8 |
//! | 011 | 16-bit sign-extended | 16 |
//! | 100 | 16-bit padded with zeros (upper half zero... lower half data) | 16 |
//! | 101 | two sign-extended 8-bit halfwords | 16 |
//! | 110 | word with repeated bytes | 8 |
//! | 111 | uncompressed word | 32 |
//!
//! Included as an *extension baseline* (not part of the paper's Fig. 8,
//! which uses BΔI and exact deduplication): no evaluation table reads
//! it; it is available to downstream users and pinned by its own tests.

use crate::CompressionReport;
use dg_mem::{BlockData, BLOCK_BYTES};

/// The FPC word patterns, in prefix order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpcPattern {
    /// A run of 1–8 all-zero words.
    ZeroRun,
    /// Sign-extended 4-bit value.
    Sext4,
    /// Sign-extended 8-bit value.
    Sext8,
    /// Sign-extended 16-bit value.
    Sext16,
    /// Upper halfword zero, lower halfword data.
    ZeroPadded16,
    /// Two independent sign-extended bytes (one per halfword).
    TwoSext8,
    /// All four bytes equal.
    RepeatedBytes,
    /// Incompressible 32-bit word.
    Uncompressed,
}

impl FpcPattern {
    /// Payload bits for one word under this pattern (excluding the
    /// 3-bit prefix).
    pub fn payload_bits(self) -> u32 {
        match self {
            FpcPattern::ZeroRun => 3,
            FpcPattern::Sext4 => 4,
            FpcPattern::Sext8 => 8,
            FpcPattern::Sext16 => 16,
            FpcPattern::ZeroPadded16 => 16,
            FpcPattern::TwoSext8 => 16,
            FpcPattern::RepeatedBytes => 8,
            FpcPattern::Uncompressed => 32,
        }
    }
}

fn fits_sext(word: u32, bits: u32) -> bool {
    let v = word as i32;
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&(v as i64))
}

/// Classify one 32-bit word (ignoring zero-run merging).
pub fn classify_word(word: u32) -> FpcPattern {
    if word == 0 {
        FpcPattern::ZeroRun
    } else if fits_sext(word, 4) {
        FpcPattern::Sext4
    } else if fits_sext(word, 8) {
        FpcPattern::Sext8
    } else if fits_sext(word, 16) {
        FpcPattern::Sext16
    } else if word & 0xFFFF_0000 == 0 {
        FpcPattern::ZeroPadded16
    } else if fits_sext(word & 0xFFFF, 8) && fits_sext(word >> 16, 8) {
        FpcPattern::TwoSext8
    } else {
        let b = word & 0xFF;
        if word == b | (b << 8) | (b << 16) | (b << 24) {
            FpcPattern::RepeatedBytes
        } else {
            FpcPattern::Uncompressed
        }
    }
}

/// Compressed size of a block under FPC, in *bits* (prefix + payload
/// per word, with zero runs of up to 8 words merged into one code).
pub fn compressed_bits(block: &BlockData) -> u32 {
    let bytes = block.as_bytes();
    let words: Vec<u32> = (0..BLOCK_BYTES / 4)
        .map(|i| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap()))
        .collect();
    let mut bits = 0;
    let mut i = 0;
    while i < words.len() {
        let p = classify_word(words[i]);
        if p == FpcPattern::ZeroRun {
            let mut run = 1;
            while run < 8 && i + run < words.len() && words[i + run] == 0 {
                run += 1;
            }
            i += run;
        } else {
            i += 1;
        }
        bits += 3 + p.payload_bits();
    }
    bits
}

/// Compressed size in whole bytes (rounded up).
pub fn compressed_size(block: &BlockData) -> usize {
    (compressed_bits(block) as usize).div_ceil(8).min(BLOCK_BYTES)
}

/// FPC storage savings over a set of blocks.
pub fn fpc_savings<'a>(blocks: impl IntoIterator<Item = &'a BlockData>) -> CompressionReport {
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

    #[test]
    fn classify_patterns() {
        assert_eq!(classify_word(0), FpcPattern::ZeroRun);
        assert_eq!(classify_word(7), FpcPattern::Sext4);
        assert_eq!(classify_word(0xFFFF_FFF9), FpcPattern::Sext4); // -7
        assert_eq!(classify_word(100), FpcPattern::Sext8);
        assert_eq!(classify_word(30_000), FpcPattern::Sext16);
        assert_eq!(classify_word(0x0000_9000), FpcPattern::ZeroPadded16);
        assert_eq!(classify_word(0x0064_0064), FpcPattern::TwoSext8);
        assert_eq!(classify_word(0xABAB_ABAB), FpcPattern::RepeatedBytes);
        assert_eq!(classify_word(0x1234_5678), FpcPattern::Uncompressed);
    }

    #[test]
    fn zero_block_compresses_to_two_runs() {
        // 16 zero words = two 8-word zero runs = 2 x (3+3) bits.
        let b = BlockData::zeroed();
        assert_eq!(compressed_bits(&b), 12);
        assert_eq!(compressed_size(&b), 2);
    }

    #[test]
    fn small_integers_compress_well() {
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b = BlockData::from_values(ElemType::I32, &vals);
        // Words 0..7 fit Sext4 (or zero-run), 8..15 need Sext8:
        // 6 + 7x7 + 8x11 = 143 bits = 18 bytes — well under the 64 B block.
        assert_eq!(compressed_size(&b), 18);
    }

    #[test]
    fn random_floats_do_not_compress() {
        let vals: Vec<f64> = (0..16).map(|i| (i as f64 + 0.37).exp()).collect();
        let b = BlockData::from_values(ElemType::F32, &vals);
        // All uncompressed words: 16 x 35 bits = 70 bytes -> clamped 64.
        assert_eq!(compressed_size(&b), 64);
    }

    #[test]
    fn never_exceeds_block_size() {
        let vals: Vec<f64> = (0..16).map(|i| (i as f64) * 1e9).collect();
        let b = BlockData::from_values(ElemType::F32, &vals);
        assert!(compressed_size(&b) <= 64);
    }

    #[test]
    fn savings_aggregate() {
        let zero = BlockData::zeroed();
        let small = BlockData::from_values(ElemType::I32, &[3.0; 16]);
        let r = fpc_savings([&zero, &small]);
        assert_eq!(r.original_bytes, 128);
        assert!(r.savings() > 0.7, "got {}", r.savings());
    }

    #[test]
    fn canneal_style_integers_compress() {
        // Small grid coordinates — the integer data BΔI and FPC both
        // like.
        let vals: Vec<f64> = (0..16).map(|i| 200.0 + 13.0 * i as f64).collect();
        let b = BlockData::from_values(ElemType::I32, &vals);
        assert!(compressed_size(&b) <= 40);
    }
}
