//! CACTI-lite: an analytical SRAM area / latency / energy model.
//!
//! The paper measures hardware cost with CACTI 5.1 at 32 nm (§4). CACTI
//! is unavailable here, so this crate provides **CACTI-lite**: power-law
//! scaling models for SRAM arrays whose constants were fitted against
//! the six structures the paper reports in Table 3 (baseline 2 MB LLC,
//! 1 MB precise cache, Doppelgänger tag/data arrays, uniDoppelgänger
//! tag/data arrays). At the anchor points the model reproduces the
//! paper's numbers within a few percent (asserted by tests); between and
//! beyond them it scales with the same qualitative laws CACTI uses
//! (area ≈ bits, dynamic energy ≈ capacity, latency ≈ capacity^~0.3,
//! leakage ≈ bits).
//!
//! The crate also carries the paper's map-generation overhead constants
//! (eight FP multiply-add units, 0.01 mm² and 8 pJ/op each; 21 ops per
//! map → 168 pJ per generation, §4/§5.6), the BΔI codec cost and
//! [`leakage_pj`]. Dynamic energy is priced in `dg-system`, whose
//! per-array cost tables pair these numbers with the run's counters.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod model;
mod paper;

pub use model::{ArrayCost, CactiLite, StructureEstimate};
pub use paper::{PaperStructure, PAPER_TABLE3};

/// Energy of one floating-point multiply-add in the map-generation
/// units, picojoules (paper §4, citing Galal et al.).
pub const FPU_ENERGY_PJ: f64 = 8.0;

/// Area of one floating-point multiply-add unit, mm² (paper §4).
pub const FPU_AREA_MM2: f64 = 0.01;

/// Number of map-generation FPUs provisioned (paper §4).
pub const FPU_COUNT: u32 = 8;

/// Floating-point operations per map generation (paper §5.6:
/// average + range + mapping ≈ 21 multiply-adds per 16-element block).
pub const MAP_FLOPS: u32 = 21;

/// Energy per map generation, picojoules (21 ops × 8 pJ = 168 pJ, §5.6).
pub const MAP_ENERGY_PJ: f64 = MAP_FLOPS as f64 * FPU_ENERGY_PJ;

/// Total area of the map-generation units, mm².
pub const MAP_UNITS_AREA_MM2: f64 = FPU_COUNT as f64 * FPU_AREA_MM2;

/// Energy of one BΔI compression or decompression pass over a 64-byte
/// block, picojoules. BΔI hardware is narrow integer adders and
/// comparators — Pekhimenko et al. (PACT 2012) report single-cycle
/// decompression with negligible cost next to an LLC data access; one
/// FPU-op's worth is a conservative stand-in at this fidelity.
pub const BDI_CODEC_PJ: f64 = 8.0;

/// Leakage energy in pJ for `leakage_mw` milliwatts sustained over
/// `cycles` cycles at `freq_ghz` GHz (mW × ns = pJ).
pub fn leakage_pj(leakage_mw: f64, cycles: u64, freq_ghz: f64) -> f64 {
    let ns = cycles as f64 / freq_ghz;
    leakage_mw * ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_overhead_constants_match_paper() {
        assert_eq!(MAP_ENERGY_PJ, 168.0);
        assert!((MAP_UNITS_AREA_MM2 - 0.08).abs() < 1e-12);
    }

    #[test]
    fn leakage_units() {
        // 1 mW over 1 ns is 1 pJ.
        assert_eq!(leakage_pj(1.0, 1, 1.0), 1.0);
        // Halving frequency doubles wall time and thus leakage energy.
        assert_eq!(leakage_pj(1.0, 100, 0.5), 200.0);
    }
}
