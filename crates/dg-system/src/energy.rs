//! LLC energy and area accounting (Figs. 11, 13).

use crate::{ArrayConfig, LlcCounters, SystemConfig};
use dg_cache::CompressedConfig;
use dg_energy::{CactiLite, EnergyAccount, BDI_CODEC_PJ, MAP_ENERGY_PJ, MAP_UNITS_AREA_MM2};
use dg_mem::BLOCK_OFFSET_BITS;
use doppelganger::HardwareCost;

/// Energy/area summary for one run's LLC (baseline: the 2 MB cache;
/// split: precise + Doppelgänger caches together, as the paper reports).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyReport {
    /// Dynamic LLC energy, pJ.
    pub llc_dynamic_pj: f64,
    /// Leakage LLC energy over the run, pJ.
    pub llc_leakage_pj: f64,
    /// LLC area, mm² (including map-generation FPUs for Doppelgänger
    /// designs).
    pub llc_area_mm2: f64,
    /// Total LLC storage, KB.
    pub llc_kbytes: f64,
    /// Where the dynamic energy went.
    pub breakdown: EnergyBreakdown,
}

/// Per-component split of the dynamic LLC energy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Conventional portion (baseline LLC, precise cache, or the
    /// compressed organization's tag + data arrays), pJ.
    pub precise_pj: f64,
    /// Doppelgänger tag-array probes, pJ.
    pub dopp_tag_pj: f64,
    /// MTag-array probes, pJ.
    pub mtag_pj: f64,
    /// Approximate data-array accesses, pJ.
    pub dopp_data_pj: f64,
    /// Map-generation FPU work (168 pJ per map, §5.6), pJ.
    pub map_pj: f64,
    /// BΔI (de)compression passes (compressed LLC only), pJ.
    pub codec_pj: f64,
}

impl EnergyBreakdown {
    /// Total across components, pJ.
    pub fn total_pj(&self) -> f64 {
        self.precise_pj
            + self.dopp_tag_pj
            + self.mtag_pj
            + self.dopp_data_pj
            + self.map_pj
            + self.codec_pj
    }
}

impl EnergyReport {
    /// Total (dynamic + leakage) LLC energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.llc_dynamic_pj + self.llc_leakage_pj
    }
}

fn kb(bits: u64) -> f64 {
    bits as f64 / 8.0 / 1024.0
}

/// Compute the LLC energy/area for a finished run.
pub fn llc_energy(cfg: &SystemConfig, counters: &LlcCounters, cycles: u64) -> EnergyReport {
    let model = CactiLite::new();
    let hw = HardwareCost { addr_bits: 32, cores: cfg.cores as u32 };
    let mut dynamic = EnergyAccount::new();
    let mut breakdown = EnergyBreakdown::default();
    let mut leak_mw = 0.0;
    let mut area = 0.0;
    let mut total_kb = 0.0;

    // Main array first: the conventional array's share is read off the
    // running total before any other array adds to it.
    for array in cfg.llc_arrays().iter() {
        let (l, a, k) = match array {
            &ArrayConfig::Conventional { bytes, ways } => {
                let cost = hw.conventional("llc", bytes, ways);
                let est =
                    model.structure(kb(cost.tag_bits_total()), Some(kb(cost.data_bits_total())));
                dynamic.add(counters.precise_tag_accesses, est.tag.read_energy_pj);
                dynamic.add(
                    counters.precise_data_accesses,
                    est.data.expect("has data").read_energy_pj,
                );
                breakdown.precise_pj = dynamic.dynamic_pj();
                (est.leakage_mw, est.area_mm2(), cost.total_kbytes())
            }
            ArrayConfig::Doppelganger(dopp, _) => {
                add_doppel(&model, &hw, dopp, counters, &mut dynamic, &mut breakdown)
            }
            ArrayConfig::Compressed(comp) => {
                add_compressed(&model, &hw, comp, counters, &mut dynamic, &mut breakdown)
            }
        };
        leak_mw += l;
        area += a;
        total_kb += k;
    }

    EnergyReport {
        llc_dynamic_pj: dynamic.dynamic_pj(),
        llc_leakage_pj: EnergyAccount::leakage_pj(leak_mw, cycles, cfg.freq_ghz),
        llc_area_mm2: area,
        llc_kbytes: total_kb,
        breakdown,
    }
}

/// Add the Doppelgänger arrays' contributions; returns
/// `(leakage_mw, area_mm2, kbytes)`.
fn add_doppel(
    model: &CactiLite,
    hw: &HardwareCost,
    dopp: &doppelganger::DoppelgangerConfig,
    counters: &LlcCounters,
    dynamic: &mut EnergyAccount,
    breakdown: &mut EnergyBreakdown,
) -> (f64, f64, f64) {
    let tag_cost = hw.doppel_tag_array(dopp);
    let data_cost = hw.doppel_data_array(dopp);
    let tag_kb = tag_cost.total_kbytes();
    let mtag_kb = kb(data_cost.tag_bits_total());
    let data_kb = kb(data_cost.data_bits_total());

    let tag_est = model.tag_array(tag_kb);
    let mtag_est = model.tag_array(mtag_kb);
    let data_est = model.data_array(data_kb);

    dynamic.add(counters.dopp.tag_array_accesses, tag_est.read_energy_pj);
    dynamic.add(counters.dopp.mtag_accesses, mtag_est.read_energy_pj);
    dynamic.add(counters.dopp.data_accesses, data_est.read_energy_pj);
    dynamic.add(counters.dopp.map_generations, MAP_ENERGY_PJ);
    breakdown.dopp_tag_pj = counters.dopp.tag_array_accesses as f64 * tag_est.read_energy_pj;
    breakdown.mtag_pj = counters.dopp.mtag_accesses as f64 * mtag_est.read_energy_pj;
    breakdown.dopp_data_pj = counters.dopp.data_accesses as f64 * data_est.read_energy_pj;
    breakdown.map_pj = counters.dopp.map_generations as f64 * MAP_ENERGY_PJ;

    let est = model.structure(tag_kb + mtag_kb, Some(data_kb));
    (
        est.leakage_mw,
        tag_est.area_mm2 + mtag_est.area_mm2 + data_est.area_mm2 + MAP_UNITS_AREA_MM2,
        tag_cost.total_kbytes() + data_cost.total_kbytes(),
    )
}

/// Add the compressed organization's contributions; returns
/// `(leakage_mw, area_mm2, kbytes)`.
///
/// The superblock tag array stores, per entry, the shared superblock
/// tag plus `sb_blocks` × (valid + dirty + segment-count) state and an
/// LRU stamp; the data array is the full segment budget. Segment
/// accesses are charged a `segment_bytes / 64` fraction of a full-line
/// data read, and every codec pass (compression, re-compression,
/// decompression) costs [`BDI_CODEC_PJ`].
fn add_compressed(
    model: &CactiLite,
    hw: &HardwareCost,
    comp: &CompressedConfig,
    counters: &LlcCounters,
    dynamic: &mut EnergyAccount,
    breakdown: &mut EnergyBreakdown,
) -> (f64, f64, f64) {
    let log2 = |n: usize| n.trailing_zeros() as u64;
    let sb_tag_bits = hw.addr_bits as u64
        - BLOCK_OFFSET_BITS as u64
        - log2(comp.sb_blocks)
        - log2(comp.sets);
    let seg_count_bits = (usize::BITS - comp.max_block_segments().leading_zeros()) as u64;
    let per_block_state = 2 + seg_count_bits; // valid + dirty + size
    let lru_bits = 8;
    let tag_entry_bits = sb_tag_bits + comp.sb_blocks as u64 * per_block_state + lru_bits;
    let tag_kb = kb(comp.sets as u64 * comp.tag_ways as u64 * tag_entry_bits);
    let data_kb = comp.data_bytes as f64 / 1024.0;

    let tag_est = model.tag_array(tag_kb);
    let data_est = model.data_array(data_kb);
    let seg_frac = comp.segment_bytes as f64 / 64.0;
    let codec_passes =
        counters.comp.compressions + counters.comp.recompressions + counters.comp.decompressions;

    dynamic.add(counters.comp.tag_accesses, tag_est.read_energy_pj);
    dynamic.add(counters.comp.data_seg_accesses, data_est.read_energy_pj * seg_frac);
    dynamic.add(codec_passes, BDI_CODEC_PJ);
    breakdown.precise_pj = counters.comp.tag_accesses as f64 * tag_est.read_energy_pj
        + counters.comp.data_seg_accesses as f64 * data_est.read_energy_pj * seg_frac;
    breakdown.codec_pj = codec_passes as f64 * BDI_CODEC_PJ;

    let est = model.structure(tag_kb, Some(data_kb));
    (est.leakage_mw, tag_est.area_mm2 + data_est.area_mm2, tag_kb + data_kb)
}

/// LLC area for a configuration (no activity needed) — Fig. 13's
/// numerator/denominator.
pub fn llc_area_mm2(cfg: &SystemConfig) -> f64 {
    llc_energy(cfg, &LlcCounters::default(), 0).llc_area_mm2
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::LlcKind;

    #[test]
    fn paper_area_reduction_split_vs_baseline() {
        let baseline = llc_area_mm2(&SystemConfig::paper_baseline());
        let split = llc_area_mm2(&SystemConfig::paper_split());
        let reduction = baseline / split;
        // Paper: 1.55x (Fig. 13, abstract); CACTI-lite should land close.
        assert!(
            (1.35..=1.75).contains(&reduction),
            "area reduction {reduction:.2} out of range"
        );
    }

    #[test]
    fn unified_quarter_array_saves_more_area() {
        let baseline = llc_area_mm2(&SystemConfig::paper_baseline());
        let mut uni = SystemConfig::paper_unified();
        if let LlcKind::Unified(ref mut d) = uni.llc {
            *d = d.with_data_fraction(1, 4);
        }
        let reduction = baseline / llc_area_mm2(&uni);
        // Paper Fig. 13: ~3.15x for the uniDopp 1/4 data array.
        assert!(
            (2.4..=3.9).contains(&reduction),
            "uniDopp area reduction {reduction:.2} out of range"
        );
    }

    #[test]
    fn dynamic_energy_scales_with_activity() {
        let cfg = SystemConfig::paper_baseline();
        let mut c = LlcCounters::default();
        c.precise_tag_accesses = 1000;
        c.precise_data_accesses = 1000;
        let e1 = llc_energy(&cfg, &c, 1000);
        c.precise_tag_accesses = 2000;
        c.precise_data_accesses = 2000;
        let e2 = llc_energy(&cfg, &c, 1000);
        assert!((e2.llc_dynamic_pj / e1.llc_dynamic_pj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_with_cycles() {
        let cfg = SystemConfig::paper_baseline();
        let c = LlcCounters::default();
        let e1 = llc_energy(&cfg, &c, 1000);
        let e2 = llc_energy(&cfg, &c, 2000);
        assert!((e2.llc_leakage_pj / e1.llc_leakage_pj - 2.0).abs() < 1e-9);
        assert_eq!(e1.llc_dynamic_pj, 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let cfg = SystemConfig::paper_split();
        let mut c = LlcCounters::default();
        c.precise_tag_accesses = 10;
        c.precise_data_accesses = 10;
        c.dopp.tag_array_accesses = 100;
        c.dopp.mtag_accesses = 80;
        c.dopp.data_accesses = 70;
        c.dopp.map_generations = 30;
        let e = llc_energy(&cfg, &c, 0);
        assert!((e.breakdown.total_pj() - e.llc_dynamic_pj).abs() < 1e-6);
        assert!(e.breakdown.map_pj == 30.0 * dg_energy::MAP_ENERGY_PJ);
        assert!(e.breakdown.precise_pj > 0.0);
    }

    #[test]
    fn compressed_geometry_tracks_baseline_budget() {
        // Same data budget as the baseline plus a superblock tag array
        // that must cost *less* than a per-block tag array would.
        let base = llc_energy(&SystemConfig::paper_baseline(), &LlcCounters::default(), 0);
        let comp2 = llc_energy(&SystemConfig::paper_compressed(2), &LlcCounters::default(), 0);
        let comp4 = llc_energy(&SystemConfig::paper_compressed(4), &LlcCounters::default(), 0);
        assert!(comp2.llc_kbytes >= 2048.0, "data budget is the full 2 MB");
        // Same entry count: sb=4 entries are a little wider than sb=2
        // but each covers twice the blocks, so tag cost per covered
        // block drops.
        let tag2 = comp2.llc_kbytes - 2048.0;
        let tag4 = comp4.llc_kbytes - 2048.0;
        assert!(tag2 > 0.0 && tag4 > 0.0);
        assert!(
            tag4 / 2.0 < tag2,
            "per-covered-block tag cost must shrink (sb4 {tag4:.0} KB vs sb2 {tag2:.0} KB)"
        );
        let ratio = comp2.llc_area_mm2 / base.llc_area_mm2;
        assert!((0.8..=1.3).contains(&ratio), "area ratio {ratio:.2} vs baseline");
    }

    #[test]
    fn compressed_dynamic_energy_charges_segments_and_codec() {
        let cfg = SystemConfig::paper_compressed(2);
        let mut c = LlcCounters::default();
        c.comp.tag_accesses = 100;
        c.comp.data_seg_accesses = 400;
        c.comp.compressions = 50;
        c.comp.recompressions = 10;
        c.comp.decompressions = 40;
        let e = llc_energy(&cfg, &c, 0);
        assert!((e.breakdown.total_pj() - e.llc_dynamic_pj).abs() < 1e-6);
        assert_eq!(e.breakdown.codec_pj, 100.0 * dg_energy::BDI_CODEC_PJ);
        assert!(e.breakdown.precise_pj > 0.0);
        assert_eq!(e.breakdown.map_pj, 0.0, "no map generation in the compressed LLC");
    }

    #[test]
    fn per_access_energy_favors_doppelganger() {
        // One access through each organization: the Doppelganger path
        // (small tag + MTag + small data) must be cheaper than the
        // baseline's big arrays.
        let base_cfg = SystemConfig::paper_baseline();
        let mut c = LlcCounters::default();
        c.precise_tag_accesses = 1;
        c.precise_data_accesses = 1;
        let base = llc_energy(&base_cfg, &c, 0).llc_dynamic_pj;

        let split_cfg = SystemConfig::paper_split();
        let mut c = LlcCounters::default();
        c.dopp.tag_array_accesses = 1;
        c.dopp.mtag_accesses = 1;
        c.dopp.data_accesses = 1;
        let dopp = llc_energy(&split_cfg, &c, 0).llc_dynamic_pj;
        assert!(
            dopp < base / 2.0,
            "doppel access {dopp:.0} pJ should be far below baseline {base:.0} pJ"
        );
    }
}
