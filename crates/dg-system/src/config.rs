//! System configuration (paper Table 1).

use crate::{CostRow, CostTable, LlcStructure};
use dg_cache::{CacheGeometry, CompressedConfig, Sharers};
use dg_energy::{CactiLite, BDI_CODEC_PJ, MAP_ENERGY_PJ, MAP_UNITS_AREA_MM2};
use dg_mem::BLOCK_OFFSET_BITS;
use doppelganger::{DataPolicy, DoppelgangerConfig, HardwareCost};

/// Which LLC organization the system simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcKind {
    /// The baseline: one conventional 2 MB, 16-way LLC.
    Baseline,
    /// The split design: a 1 MB conventional precise cache plus a
    /// Doppelgänger cache for approximate data (§3).
    Split(DoppelgangerConfig),
    /// uniDoppelgänger: precise and approximate blocks share one
    /// Doppelgänger-organized cache (§3.8).
    Unified(DoppelgangerConfig),
    /// An exact-compression competitor: a Touché-style compressed LLC
    /// (superblock tags, segment-granular BΔI data array) over the
    /// same capacity budget as the baseline.
    Compressed(CompressedConfig),
}

impl LlcKind {
    /// The paper's split configuration at the base design point
    /// (14-bit map space, 1/4 data array).
    pub fn paper_split() -> Self {
        LlcKind::Split(DoppelgangerConfig::paper_split())
    }

    /// The paper's uniDoppelgänger configuration (14-bit map space,
    /// 1/2 data array).
    pub fn paper_unified() -> Self {
        LlcKind::Unified(DoppelgangerConfig::paper_unified())
    }

    /// A compressed LLC over the paper's 2 MB / 16-way budget with
    /// `sb_blocks`-block superblock tags (2 or 4 in Touché).
    pub fn paper_compressed(sb_blocks: usize) -> Self {
        LlcKind::Compressed(CompressedConfig::from_llc(2 << 20, 16, sb_blocks))
    }
}

/// One array an LLC organization is built from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrayConfig {
    /// A conventional set-associative cache.
    Conventional {
        /// Capacity in bytes.
        bytes: usize,
        /// Associativity.
        ways: usize,
    },
    /// Doppelgänger tag, MTag and data arrays, with the data array's
    /// victim policy.
    Doppelganger(DoppelgangerConfig, DataPolicy),
    /// A Touché-style compressed cache.
    Compressed(CompressedConfig),
}

impl ArrayConfig {
    /// Check the array's shape. `holds_precise` says whether precise
    /// blocks can reach it (true for an organization's main array).
    fn validate(&self, name: &str, holds_precise: bool) -> Result<(), String> {
        match *self {
            ArrayConfig::Conventional { bytes, ways } => {
                CacheGeometry::try_from_capacity(bytes, ways)
                    .map(drop)
                    .map_err(|e| format!("{name}: {e}"))
            }
            ArrayConfig::Doppelganger(d, _) => {
                d.validate().map_err(|e| format!("Doppelganger {e}"))?;
                match (holds_precise, d.unified) {
                    (true, false) => {
                        Err("an LLC holding precise blocks needs a uniDoppelganger config".into())
                    }
                    (false, true) => {
                        Err("an approximate LLC partition needs a non-unified config".into())
                    }
                    _ => Ok(()),
                }
            }
            ArrayConfig::Compressed(c) => c.validate().map_err(|e| format!("compressed LLC: {e}")),
        }
    }

    /// The array's CACTI-lite cost table. [`crate::llc_energy`] sums the
    /// rows in the order given here, so that order fixes every bit of
    /// the energy figures.
    pub fn cost_table(&self, hw: &HardwareCost) -> CostTable {
        use LlcStructure::*;
        let model = CactiLite::new();
        let kb = |bits: u64| bits as f64 / 8.0 / 1024.0;
        let row =
            |structure, counters: &'static [&'static str], pj| CostRow { structure, counters, pj };
        match *self {
            ArrayConfig::Conventional { bytes, ways } => {
                let cost = hw.conventional("llc", bytes, ways);
                let est =
                    model.structure(kb(cost.tag_bits_total()), Some(kb(cost.data_bits_total())));
                let data_pj = est.data.expect("has data").read_energy_pj;
                CostTable {
                    rows: vec![
                        row(Precise, &["precise_tag_accesses"], est.tag.read_energy_pj),
                        row(Precise, &["precise_data_accesses"], data_pj),
                    ],
                    leakage_mw: est.leakage_mw,
                    area_mm2: est.area_mm2(),
                    kbytes: cost.total_kbytes(),
                }
            }
            ArrayConfig::Doppelganger(d, _) => {
                let (tag_cost, data_cost) = (hw.doppel_tag_array(&d), hw.doppel_data_array(&d));
                let tag_kb = tag_cost.total_kbytes();
                let mtag_kb = kb(data_cost.tag_bits_total());
                let data_kb = kb(data_cost.data_bits_total());
                let (tag, mtag) = (model.tag_array(tag_kb), model.tag_array(mtag_kb));
                let data = model.data_array(data_kb);
                CostTable {
                    rows: vec![
                        row(DoppTag, &["dopp.tag_array_accesses"], tag.read_energy_pj),
                        row(MTag, &["dopp.mtag_accesses"], mtag.read_energy_pj),
                        row(DoppData, &["dopp.data_accesses"], data.read_energy_pj),
                        row(Map, &["dopp.map_generations"], MAP_ENERGY_PJ),
                    ],
                    leakage_mw: model.structure(tag_kb + mtag_kb, Some(data_kb)).leakage_mw,
                    area_mm2: tag.area_mm2 + mtag.area_mm2 + data.area_mm2 + MAP_UNITS_AREA_MM2,
                    kbytes: tag_cost.total_kbytes() + data_cost.total_kbytes(),
                }
            }
            // A superblock tag entry holds the shared tag, `sb_blocks` ×
            // (valid + dirty + segment count) and an 8-bit LRU stamp; the
            // data array is the full segment budget. A segment access
            // costs a `segment_bytes / 64` share of a line read (a power
            // of two, so pre-multiplying it is exact), and every codec
            // pass (compression, recompression, decompression) costs
            // `BDI_CODEC_PJ`.
            ArrayConfig::Compressed(c) => {
                let log2 = |n: usize| n.trailing_zeros() as u64;
                let sb_tag_bits = hw.addr_bits as u64
                    - BLOCK_OFFSET_BITS as u64
                    - log2(c.sb_blocks)
                    - log2(c.sets);
                let seg_count_bits = (usize::BITS - c.max_block_segments().leading_zeros()) as u64;
                let tag_entry_bits = sb_tag_bits + c.sb_blocks as u64 * (2 + seg_count_bits) + 8;
                let tag_kb = kb(c.sets as u64 * c.tag_ways as u64 * tag_entry_bits);
                let data_kb = c.data_bytes as f64 / 1024.0;
                let (tag, data) = (model.tag_array(tag_kb), model.data_array(data_kb));
                let seg_pj = data.read_energy_pj * (c.segment_bytes as f64 / 64.0);
                let codec = &["comp.compressions", "comp.recompressions", "comp.decompressions"];
                CostTable {
                    rows: vec![
                        row(Precise, &["comp.tag_accesses"], tag.read_energy_pj),
                        row(Precise, &["comp.data_seg_accesses"], seg_pj),
                        row(Codec, codec, BDI_CODEC_PJ),
                    ],
                    leakage_mw: model.structure(tag_kb, Some(data_kb)).leakage_mw,
                    area_mm2: tag.area_mm2 + data.area_mm2,
                    kbytes: tag_kb + data_kb,
                }
            }
        }
    }
}

/// The arrays of one LLC organization. Annotated blocks go to
/// `approx` when there is one; every other block goes to `main`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LlcArrays {
    /// The array that receives every block `approx` does not.
    pub main: ArrayConfig,
    /// The array for annotated (approximate) blocks, if any.
    pub approx: Option<ArrayConfig>,
}

impl LlcArrays {
    /// The arrays in visiting order: `main` first.
    pub fn iter(&self) -> impl Iterator<Item = &ArrayConfig> {
        std::iter::once(&self.main).chain(self.approx.as_ref())
    }
}

/// Full system configuration (Table 1 defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (paper: 4).
    pub cores: usize,
    /// Private L1 capacity in bytes (paper: 16 KB).
    pub l1_bytes: usize,
    /// L1 associativity (paper: 4).
    pub l1_ways: usize,
    /// L1 access latency in cycles (paper: 1).
    pub l1_latency: u64,
    /// Private L2 capacity in bytes (paper: 128 KB).
    pub l2_bytes: usize,
    /// L2 associativity (paper: 8).
    pub l2_ways: usize,
    /// L2 access latency in cycles (paper: 3).
    pub l2_latency: u64,
    /// Baseline LLC capacity in bytes (paper: 2 MB).
    pub llc_bytes: usize,
    /// LLC associativity (paper: 16).
    pub llc_ways: usize,
    /// LLC access latency in cycles (paper: 6; the Doppelgänger LLC is
    /// also 6, Table 1).
    pub llc_latency: u64,
    /// Main-memory latency in cycles (paper: 160).
    pub mem_latency: u64,
    /// Clock frequency in GHz (paper: 1).
    pub freq_ghz: f64,
    /// The LLC organization under test.
    pub llc: LlcKind,
    /// Victim policy for the Doppelgänger data array (ignored by the
    /// baseline). Default: LRU, the paper's policy.
    pub data_policy: DataPolicy,
}

impl SystemConfig {
    /// The paper's baseline system (Table 1).
    pub fn paper_baseline() -> Self {
        SystemConfig {
            cores: 4,
            l1_bytes: 16 << 10,
            l1_ways: 4,
            l1_latency: 1,
            l2_bytes: 128 << 10,
            l2_ways: 8,
            l2_latency: 3,
            llc_bytes: 2 << 20,
            llc_ways: 16,
            llc_latency: 6,
            mem_latency: 160,
            freq_ghz: 1.0,
            llc: LlcKind::Baseline,
            data_policy: DataPolicy::Lru,
        }
    }

    /// The paper's split Doppelgänger system.
    pub fn paper_split() -> Self {
        SystemConfig { llc: LlcKind::paper_split(), ..Self::paper_baseline() }
    }

    /// The paper's uniDoppelgänger system.
    pub fn paper_unified() -> Self {
        SystemConfig { llc: LlcKind::paper_unified(), ..Self::paper_baseline() }
    }

    /// A scaled-down configuration for fast tests: same shape, smaller
    /// caches (L1 2 KB, L2 8 KB, LLC 64 KB baseline).
    pub fn tiny(llc: LlcKind) -> Self {
        SystemConfig {
            cores: 4,
            l1_bytes: 2 << 10,
            l1_ways: 4,
            l1_latency: 1,
            l2_bytes: 8 << 10,
            l2_ways: 8,
            l2_latency: 3,
            llc_bytes: 64 << 10,
            llc_ways: 16,
            llc_latency: 6,
            mem_latency: 160,
            freq_ghz: 1.0,
            llc,
            data_policy: DataPolicy::Lru,
        }
    }

    /// A tiny compressed configuration over the tiny baseline's
    /// 64 KB / 16-way budget, with 2-block superblock tags.
    pub fn tiny_compressed() -> Self {
        let comp = CompressedConfig::from_llc(64 << 10, 16, 2);
        SystemConfig::tiny(LlcKind::Compressed(comp))
    }

    /// The paper-scale compressed system (2 MB budget, Touché-style
    /// superblock tags).
    pub fn paper_compressed(sb_blocks: usize) -> Self {
        SystemConfig { llc: LlcKind::paper_compressed(sb_blocks), ..Self::paper_baseline() }
    }

    /// A tiny split configuration whose Doppelgänger arrays match the
    /// tiny baseline's capacity budget (32 KB precise + 512-tag
    /// Doppelgänger with a 1/4 data array).
    pub fn tiny_split() -> Self {
        let dopp = DoppelgangerConfig {
            tag_entries: 512,
            tag_ways: 16,
            data_entries: 128,
            data_ways: 16,
            map_space: doppelganger::MapSpace::paper_default(),
            unified: false,
        };
        SystemConfig::tiny(LlcKind::Split(dopp))
    }

    /// The arrays the LLC organization is built from. This is the one
    /// place each organization's geometry is derived: the engine's and
    /// the oracle's LLC, the energy model and [`Self::validate`] all
    /// read it.
    pub fn llc_arrays(&self) -> LlcArrays {
        let conventional = |bytes| ArrayConfig::Conventional { bytes, ways: self.llc_ways };
        let doppelganger = |d| ArrayConfig::Doppelganger(d, self.data_policy);
        let (main, approx) = match self.llc {
            LlcKind::Baseline => (conventional(self.llc_bytes), None),
            LlcKind::Split(d) => (conventional(self.llc_bytes / 2), Some(doppelganger(d))),
            LlcKind::Unified(d) => (doppelganger(d), None),
            LlcKind::Compressed(c) => (ArrayConfig::Compressed(c), None),
        };
        LlcArrays { main, approx }
    }

    /// Check every cache shape and the core count without building a
    /// system.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter (degenerate
    /// geometry used to surface only as deep replacement-policy panics
    /// once the first victim was needed).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores > Sharers::MAX_CORES {
            return Err(format!(
                "core count must be 1..={} (got {})",
                Sharers::MAX_CORES,
                self.cores
            ));
        }
        CacheGeometry::try_from_capacity(self.l1_bytes, self.l1_ways)
            .map_err(|e| format!("L1: {e}"))?;
        CacheGeometry::try_from_capacity(self.l2_bytes, self.l2_ways)
            .map_err(|e| format!("L2: {e}"))?;
        let arrays = self.llc_arrays();
        let main = if arrays.approx.is_some() { "precise LLC partition" } else { "LLC" };
        arrays.main.validate(main, true)?;
        match arrays.approx {
            Some(approx) => approx.validate("approximate LLC partition", false),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table1() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cores, 4);
        assert_eq!(c.l1_bytes, 16 * 1024);
        assert_eq!(c.l2_bytes, 128 * 1024);
        assert_eq!(c.llc_bytes, 2 * 1024 * 1024);
        assert_eq!(c.mem_latency, 160);
        assert_eq!(c.llc, LlcKind::Baseline);
    }

    #[test]
    fn split_uses_paper_doppelganger() {
        let c = SystemConfig::paper_split();
        match c.llc {
            LlcKind::Split(d) => {
                assert_eq!(d.tag_entries, 16 * 1024);
                assert_eq!(d.data_entries, 4 * 1024);
            }
            _ => panic!("expected split"),
        }
    }

    #[test]
    fn tiny_is_small() {
        let c = SystemConfig::tiny_split();
        assert!(c.llc_bytes <= 64 * 1024);
    }

    #[test]
    fn validate_accepts_all_shipped_configs() {
        for c in [
            SystemConfig::paper_baseline(),
            SystemConfig::paper_split(),
            SystemConfig::paper_unified(),
            SystemConfig::paper_compressed(2),
            SystemConfig::paper_compressed(4),
            SystemConfig::tiny(LlcKind::Baseline),
            SystemConfig::tiny_split(),
            SystemConfig::tiny_compressed(),
        ] {
            assert_eq!(c.validate(), Ok(()), "{:?}", c.llc);
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = SystemConfig::paper_baseline();
        c.cores = 0;
        assert!(c.validate().unwrap_err().contains("core count"));
        c.cores = 9;
        assert!(c.validate().unwrap_err().contains("core count"));

        let mut c = SystemConfig::paper_baseline();
        c.l1_ways = 0;
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("L1") && msg.contains("associativity"), "{msg}");

        let mut c = SystemConfig::paper_baseline();
        c.l2_bytes = 0;
        assert!(c.validate().unwrap_err().contains("L2"));

        let mut c = SystemConfig::paper_baseline();
        c.llc_bytes = 100 * 64; // 25 sets at 4 ways: not a power of two
        c.llc_ways = 4;
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("LLC") && msg.contains("power of two"), "{msg}");

        let mut c = SystemConfig::paper_split();
        if let LlcKind::Split(ref mut d) = c.llc {
            d.data_ways = 0;
        }
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("Doppelganger") && msg.contains("data array"), "{msg}");

        // Kind / unified-flag mismatches.
        let c = SystemConfig {
            llc: LlcKind::Unified(DoppelgangerConfig::paper_split()),
            ..SystemConfig::paper_baseline()
        };
        assert!(c.validate().unwrap_err().contains("uniDoppelganger"));
        let c = SystemConfig {
            llc: LlcKind::Split(DoppelgangerConfig::paper_unified()),
            ..SystemConfig::paper_baseline()
        };
        assert!(c.validate().unwrap_err().contains("non-unified"));

        // Compressed shapes that cannot hold one uncompressed block.
        let comp = CompressedConfig { data_bytes: 64, sets: 2, tag_ways: 2, sb_blocks: 2, segment_bytes: 8 };
        let c = SystemConfig { llc: LlcKind::Compressed(comp), ..SystemConfig::paper_baseline() };
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("compressed LLC"), "{msg}");
    }
}
