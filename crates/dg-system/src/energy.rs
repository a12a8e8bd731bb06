//! LLC energy and area accounting (Figs. 11, 13): each array's cost
//! table ([`crate::ArrayConfig::cost_table`]) dotted with the run's counters.

use crate::{LlcCounters, SystemConfig};
use dg_energy::leakage_pj;
use doppelganger::HardwareCost;

/// Energy/area summary for one run's LLC (baseline: the 2 MB cache;
/// split: precise + Doppelgänger caches together, as the paper reports).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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

/// The LLC structure a [`CostRow`] charges: one column of the energy
/// breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcStructure {
    /// Conventional arrays: the baseline LLC, the precise cache, or the
    /// compressed organization's tag and data arrays.
    Precise,
    /// Doppelgänger tag array.
    DoppTag,
    /// MTag array.
    MTag,
    /// Approximate data array.
    DoppData,
    /// Map-generation FPUs (168 pJ per map, §5.6).
    Map,
    /// BΔI (de)compression passes (compressed LLC only).
    Codec,
}

/// One priced event: the sum of `counters` (names from
/// [`LlcCounters::names`]) times `pj`.
#[derive(Clone, Debug)]
pub struct CostRow {
    /// The structure the energy is charged to.
    pub structure: LlcStructure,
    /// The counters whose sum counts the event.
    pub counters: &'static [&'static str],
    /// Energy per event, pJ.
    pub pj: f64,
}

/// One array's CACTI-lite costs: its priced events, in summation order,
/// and its static terms.
#[derive(Clone, Debug)]
pub struct CostTable {
    /// Dynamic-energy rows, summed in this order.
    pub rows: Vec<CostRow>,
    /// Leakage power, mW.
    pub leakage_mw: f64,
    /// Area, mm².
    pub area_mm2: f64,
    /// Storage, KB.
    pub kbytes: f64,
}

/// Dynamic LLC energy per [`LlcStructure`], the sum of its rows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown([f64; 6]);

impl EnergyBreakdown {
    /// Energy charged to `structure`, pJ.
    pub fn pj(&self, structure: LlcStructure) -> f64 {
        self.0[structure as usize]
    }

    /// Total across structures, pJ.
    pub fn total_pj(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Compute the LLC energy/area for a finished run: every array's rows
/// in order (main array first), then the static terms.
pub fn llc_energy(cfg: &SystemConfig, counters: &LlcCounters, cycles: u64) -> EnergyReport {
    let hw = HardwareCost { addr_bits: 32, cores: cfg.cores as u32 };
    let (names, values) = (LlcCounters::names(), counters.values());
    let count = |name: &str| match names.iter().position(|n| n == name) {
        Some(at) => values[at],
        None => panic!("no LLC counter named {name}"),
    };
    let mut report = EnergyReport::default();
    let mut leakage_mw = 0.0;
    for table in cfg.llc_arrays().iter().map(|a| a.cost_table(&hw)) {
        for row in &table.rows {
            let pj = row.counters.iter().map(|n| count(n)).sum::<u64>() as f64 * row.pj;
            report.llc_dynamic_pj += pj;
            report.breakdown.0[row.structure as usize] += pj;
        }
        leakage_mw += table.leakage_mw;
        report.llc_area_mm2 += table.area_mm2;
        report.llc_kbytes += table.kbytes;
    }
    report.llc_leakage_pj = leakage_pj(leakage_mw, cycles, cfg.freq_ghz);
    report
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
        assert!(e.breakdown.pj(LlcStructure::Map) == 30.0 * dg_energy::MAP_ENERGY_PJ);
        assert!(e.breakdown.pj(LlcStructure::Precise) > 0.0);
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
        assert_eq!(e.breakdown.pj(LlcStructure::Codec), 100.0 * dg_energy::BDI_CODEC_PJ);
        assert!(e.breakdown.pj(LlcStructure::Precise) > 0.0);
        assert_eq!(
            e.breakdown.pj(LlcStructure::Map),
            0.0,
            "no map generation in the compressed LLC"
        );
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
