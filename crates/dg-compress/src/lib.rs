//! Value-based cache-storage baselines for the Doppelgänger comparison
//! (paper §5.1, Fig. 8).
//!
//! Two lossless techniques the paper compares against:
//!
//! * [`bdi`] — **Base-Delta-Immediate** compression (Pekhimenko et al.,
//!   PACT 2012): blocks whose values have a small dynamic range are
//!   stored as one base plus narrow deltas (with an implicit zero base
//!   for small immediates).
//! * [`dedup`] — **exact deduplication** (Tian et al., ICS 2014 style):
//!   byte-identical blocks are stored once.
//!
//! Both operate on the same `dg_mem::BlockData` snapshots the
//! Doppelgänger analyses consume, so Fig. 8's four bars come from one
//! code path.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bdi;
pub mod dedup;

pub use bdi::{bdi_savings, BdiEncoding};
pub use dedup::{dedup_savings, DedupStore};

/// Storage-savings summary shared by the baselines.
///
/// `savings()` is `1 − stored_bytes / original_bytes`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressionReport {
    /// Bytes the blocks occupy uncompressed (64 per block).
    pub original_bytes: u64,
    /// Bytes after the technique is applied.
    pub stored_bytes: u64,
}

impl CompressionReport {
    /// Fraction of storage saved (0 when no blocks were considered).
    pub fn savings(&self) -> f64 {
        if self.original_bytes == 0 {
            0.0
        } else {
            1.0 - self.stored_bytes as f64 / self.original_bytes as f64
        }
    }

    /// Compression ratio (original / stored; 1 when empty).
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.stored_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let r = CompressionReport { original_bytes: 128, stored_bytes: 64 };
        assert_eq!(r.savings(), 0.5);
        assert_eq!(r.ratio(), 2.0);
    }

    #[test]
    fn empty_report() {
        let r = CompressionReport { original_bytes: 0, stored_bytes: 0 };
        assert_eq!(r.savings(), 0.0);
        assert_eq!(r.ratio(), 1.0);
    }
}
