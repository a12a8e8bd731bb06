//! Hardware cost accounting (paper §5.6, Table 3).
//!
//! Per-entry bit budgets and total storage for every structure in the
//! paper's Table 3, computed from first principles:
//!
//! * conventional tag entries: address tag + coherence state (4 b) +
//!   full-map sharer vector (one bit per core) + replacement
//!   (log2 ways);
//! * Doppelgänger tag entries additionally carry two tag pointers
//!   (log2 tag-entries each) and the map field (`M + ⌈M/2⌉` bits);
//! * MTag/data entries carry a map tag (`2M − index` bits), replacement
//!   bits and one head tag pointer;
//! * uniDoppelgänger adds one precise/approximate bit to both arrays.

use crate::DoppelgangerConfig;
use dg_cache::CacheGeometry;
use std::fmt;

/// Bits of coherence (MSI) state per tag entry, as budgeted in Table 3.
pub const COHERENCE_BITS: u32 = 4;

/// Bits per 64-byte data block.
pub const DATA_BITS: u32 = 512;

/// The cost of one SRAM structure (a tag array, a data array, or a
/// combined tag+data cache).
#[derive(Clone, Debug, PartialEq)]
pub struct StructureCost {
    /// Human-readable name ("baseline LLC", "Doppelgänger tag array", …).
    pub name: String,
    /// Total entries.
    pub entries: usize,
    /// Metadata bits per entry (tag + state + pointers + map …).
    pub tag_entry_bits: u32,
    /// Data bits per entry (512 for a block, 0 for a pure tag array).
    pub data_entry_bits: u32,
}

impl StructureCost {
    /// Total bits across all entries.
    pub fn total_bits(&self) -> u64 {
        self.entries as u64 * (self.tag_entry_bits + self.data_entry_bits) as u64
    }

    /// Total size in kilobytes (Table 3 row "Total size").
    pub fn total_kbytes(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / 1024.0
    }

    /// Bits devoted to metadata only.
    pub fn tag_bits_total(&self) -> u64 {
        self.entries as u64 * self.tag_entry_bits as u64
    }

    /// Bits devoted to block data only.
    pub fn data_bits_total(&self) -> u64 {
        self.entries as u64 * self.data_entry_bits as u64
    }
}

impl fmt::Display for StructureCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} entries x ({} + {}) bits = {:.0} KB",
            self.name,
            self.entries,
            self.tag_entry_bits,
            self.data_entry_bits,
            self.total_kbytes()
        )
    }
}

/// Computes Table 3's per-structure bit budgets for a system
/// configuration.
///
/// # Example
///
/// ```
/// use doppelganger::{DoppelgangerConfig, HardwareCost};
/// let hw = HardwareCost::paper_system();
/// // Table 3: Doppelgänger tag entries are 77 bits.
/// assert_eq!(hw.doppel_tag_array(&DoppelgangerConfig::paper_split()).tag_entry_bits, 77);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct HardwareCost {
    /// Physical address width in bits (the paper assumes 32).
    pub addr_bits: u32,
    /// Number of cores (full-map directory width).
    pub cores: u32,
}

impl HardwareCost {
    /// The paper's system: 32-bit addresses, 4 cores (Table 1).
    pub fn paper_system() -> Self {
        HardwareCost { addr_bits: 32, cores: 4 }
    }

    fn repl_bits(ways: usize) -> u32 {
        (ways as u64).trailing_zeros().max(1)
    }

    /// A conventional cache (baseline LLC or the precise partition):
    /// per-entry tag + coherence + full-map vector + replacement, plus
    /// the 512-bit block.
    pub fn conventional(&self, name: &str, capacity_bytes: usize, ways: usize) -> StructureCost {
        let geom = CacheGeometry::from_capacity(capacity_bytes, ways);
        StructureCost {
            name: name.to_owned(),
            entries: geom.entries(),
            tag_entry_bits: geom.tag_bits(self.addr_bits)
                + COHERENCE_BITS
                + self.cores
                + Self::repl_bits(ways),
            data_entry_bits: DATA_BITS,
        }
    }

    /// The Doppelgänger (or uniDoppelgänger) tag array: tag, coherence,
    /// full-map vector, replacement, two tag pointers and the map field
    /// (plus one precise bit when unified).
    pub fn doppel_tag_array(&self, cfg: &DoppelgangerConfig) -> StructureCost {
        let geom = cfg.tag_geometry();
        let unified_bit = u32::from(cfg.unified);
        StructureCost {
            name: if cfg.unified {
                "uniDoppelganger tag array".to_owned()
            } else {
                "Doppelganger tag array".to_owned()
            },
            entries: geom.entries(),
            tag_entry_bits: geom.tag_bits(self.addr_bits)
                + COHERENCE_BITS
                + self.cores
                + Self::repl_bits(cfg.tag_ways)
                + 2 * cfg.tag_pointer_bits()
                + cfg.map_space.map_field_bits()
                + unified_bit,
            data_entry_bits: 0,
        }
    }

    /// The MTag + approximate data array: map tag (`2M − index` bits),
    /// replacement bits and the head tag pointer (plus one precise bit
    /// when unified), plus the 512-bit block.
    pub fn doppel_data_array(&self, cfg: &DoppelgangerConfig) -> StructureCost {
        let geom = cfg.data_geometry();
        let unified_bit = u32::from(cfg.unified);
        let map_tag_bits = cfg.map_space.ident_bits().saturating_sub(geom.index_bits());
        StructureCost {
            name: if cfg.unified {
                "uniDoppelganger data array".to_owned()
            } else {
                "Doppelganger data array".to_owned()
            },
            entries: geom.entries(),
            tag_entry_bits: map_tag_bits
                + Self::repl_bits(cfg.data_ways)
                + cfg.tag_pointer_bits()
                + unified_bit,
            data_entry_bits: DATA_BITS,
        }
    }
}

impl Default for HardwareCost {
    fn default() -> Self {
        Self::paper_system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: usize = 1024;
    const MB: usize = 1024 * KB;

    /// Reproduce every "Tag entry (bits)" and "Total size (KBytes)" cell
    /// of the paper's Table 3.
    #[test]
    fn table3_bit_budgets() {
        let hw = HardwareCost::paper_system();

        let baseline = hw.conventional("baseline LLC", 2 * MB, 16);
        assert_eq!(baseline.tag_entry_bits, 27);
        assert_eq!(baseline.entries, 32 * 1024);
        assert_eq!(baseline.total_kbytes(), 2156.0);

        let precise = hw.conventional("precise cache", MB, 16);
        assert_eq!(precise.tag_entry_bits, 28);
        assert_eq!(precise.total_kbytes(), 1080.0);

        let split = DoppelgangerConfig::paper_split();
        let dtag = hw.doppel_tag_array(&split);
        assert_eq!(dtag.tag_entry_bits, 77);
        assert_eq!(dtag.total_kbytes(), 154.0);

        let ddata = hw.doppel_data_array(&split);
        assert_eq!(ddata.tag_entry_bits, 38); // 20-bit map tag + 4 + 14
        assert_eq!(ddata.total_kbytes(), 275.0);

        let uni = DoppelgangerConfig::paper_unified();
        let utag = hw.doppel_tag_array(&uni);
        assert_eq!(utag.tag_entry_bits, 79);
        assert_eq!(utag.total_kbytes(), 316.0);

        let udata = hw.doppel_data_array(&uni);
        assert_eq!(udata.tag_entry_bits, 38); // 18-bit map tag + 4 + 15 + 1
        assert_eq!(udata.total_kbytes(), 1100.0);
    }

    /// The paper's headline storage claim: the split Doppelgänger design
    /// (precise + tag + data arrays) needs 1.43x less storage than the
    /// baseline 2 MB LLC.
    #[test]
    fn storage_reduction_1_43x() {
        let hw = HardwareCost::paper_system();
        let split = DoppelgangerConfig::paper_split();
        let baseline = hw.conventional("baseline", 2 * MB, 16).total_kbytes();
        let ours = hw.conventional("precise", MB, 16).total_kbytes()
            + hw.doppel_tag_array(&split).total_kbytes()
            + hw.doppel_data_array(&split).total_kbytes();
        let reduction = baseline / ours;
        assert!(
            (reduction - 1.43).abs() < 0.01,
            "expected ~1.43x storage reduction, got {reduction:.3}"
        );
    }

    #[test]
    fn data_tag_split_totals() {
        let hw = HardwareCost::paper_system();
        let c = hw.conventional("x", 2 * MB, 16);
        assert_eq!(c.data_bits_total(), 32 * 1024 * 512);
        assert_eq!(c.tag_bits_total(), 32 * 1024 * 27);
        assert_eq!(c.total_bits(), c.tag_bits_total() + c.data_bits_total());
    }

    #[test]
    fn display_mentions_name() {
        let hw = HardwareCost::paper_system();
        let c = hw.conventional("baseline LLC", 2 * MB, 16);
        assert!(c.to_string().contains("baseline LLC"));
    }
}
