//! Tag-array and data-array entry types (paper Fig. 4).

use crate::MapValue;
use dg_mem::{BlockAddr, BlockData};
use std::fmt;

/// Position of an entry in the tag array (the hardware "tag pointer").
///
/// Table 3 budgets `log2(tag entries)` bits for each of these (14 bits
/// for 16 K tags).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TagId {
    /// Tag-array set.
    pub set: u32,
    /// Tag-array way.
    pub way: u32,
}

/// Position of an entry in the MTag/data array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DataId {
    /// Data-array set.
    pub set: u32,
    /// Data-array way.
    pub way: u32,
}

/// How a tag entry locates its data (split §3.1 vs unified §3.8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagKind {
    /// An approximate block: the `map` field indexes the MTag array.
    Approx(MapValue),
    /// A precise block (uniDoppelgänger only): the map field holds a
    /// direct pointer to a dedicated data entry.
    Precise(DataId),
}

/// One entry of the Doppelgänger tag array (Fig. 4, left).
///
/// Holds the address tag, the dirty bit, the two tag pointers forming
/// the doubly-linked list of tags that share a data entry, and the map
/// value. Coherence state is not here: the hierarchy keeps it in its
/// own directory.
#[derive(Clone, Copy, Debug)]
pub struct TagEntry {
    /// Address tag within the tag array's geometry.
    pub tag: u64,
    /// Dirty bit — maintained **per tag**, not per data entry (§3.4).
    pub dirty: bool,
    /// Approximate (map) or precise (direct pointer).
    pub kind: TagKind,
    /// Previous tag sharing the same data entry (`None` = list head).
    pub prev: Option<TagId>,
    /// Next tag sharing the same data entry (`None` = list tail).
    pub next: Option<TagId>,
}

impl TagEntry {
    /// A fresh, clean approximate tag not yet linked into any list.
    pub fn approx(tag: u64, map: MapValue) -> Self {
        TagEntry {
            tag,
            dirty: false,
            kind: TagKind::Approx(map),
            prev: None,
            next: None,
        }
    }

    /// A fresh, clean precise tag pointing at its dedicated data entry.
    pub fn precise(tag: u64, data: DataId) -> Self {
        TagEntry {
            tag,
            dirty: false,
            kind: TagKind::Precise(data),
            prev: None,
            next: None,
        }
    }

    /// The map value, if this is an approximate tag.
    pub fn map(&self) -> Option<MapValue> {
        match self.kind {
            TagKind::Approx(m) => Some(m),
            TagKind::Precise(_) => None,
        }
    }

    /// Whether this tag is precise (uniDoppelgänger).
    pub fn is_precise(&self) -> bool {
        matches!(self.kind, TagKind::Precise(_))
    }
}

/// What a data entry represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// Shared approximate data; matched in the MTag array by map tag.
    Approx {
        /// High bits of the map (above the MTag set index).
        map_tag: u64,
    },
    /// A precise block owned by exactly one tag (uniDoppelgänger).
    Precise {
        /// The block's address (used as the uniqueness tag).
        addr: BlockAddr,
    },
}

/// One entry of the approximate data array plus its MTag metadata
/// (Fig. 4, right): the map tag, the pointer to the head of the tag
/// list, and the 64-byte data block.
#[derive(Clone, Copy)]
pub struct DataEntry {
    /// Approximate (map-tagged) or precise (address-tagged).
    pub kind: DataKind,
    /// Head of the doubly-linked list of tags sharing this entry.
    pub head: TagId,
    /// The stored block — the representative of all its doppelgängers.
    pub data: BlockData,
}

impl fmt::Debug for DataEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataEntry({:?}, head={:?})", self.kind, self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_tag_defaults() {
        let t = TagEntry::approx(7, MapValue(3));
        assert_eq!(t.map(), Some(MapValue(3)));
        assert!(!t.dirty);
        assert!(!t.is_precise());
        assert!(t.prev.is_none() && t.next.is_none());
    }

    #[test]
    fn precise_tag_has_no_map() {
        let t = TagEntry::precise(7, DataId { set: 1, way: 2 });
        assert_eq!(t.map(), None);
        assert!(t.is_precise());
    }

    #[test]
    fn data_entry_debug_nonempty() {
        let d = DataEntry {
            kind: DataKind::Approx { map_tag: 5 },
            head: TagId { set: 0, way: 0 },
            data: BlockData::zeroed(),
        };
        assert!(format!("{d:?}").contains("map_tag"));
    }
}
