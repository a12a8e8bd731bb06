//! Physical addresses and cache-block addresses.

use std::fmt;

/// Size of a cache block in bytes (64 B throughout the paper).
pub const BLOCK_BYTES: usize = 64;

/// Number of block-offset bits (`log2(BLOCK_BYTES)`).
pub const BLOCK_OFFSET_BITS: u32 = BLOCK_BYTES.trailing_zeros();

/// A byte-granularity physical address.
///
/// The paper assumes a 32-bit physical address space (Table 3); we store
/// addresses in a `u64` but the simulated configurations never exceed
/// 32 bits.
///
/// # Example
///
/// ```
/// use dg_mem::Addr;
/// let a = Addr(0x1234);
/// assert_eq!(a.block().base(), Addr(0x1200));
/// assert_eq!(a.block_offset(), 0x34);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache-block address containing this byte address.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_OFFSET_BITS)
    }

    /// Byte offset of this address within its cache block.
    #[inline]
    pub fn block_offset(self) -> usize {
        (self.0 & (BLOCK_BYTES as u64 - 1)) as usize
    }

    /// [`Self::block_offset`] of an access of `len` bytes starting
    /// here — the one place the [`crate::Memory`] contract's block rule
    /// is enforced, so every implementor fails with the same message.
    ///
    /// # Panics
    ///
    /// Panics if the access would cross into the next block.
    #[inline(always)]
    pub fn offset_of_access(self, len: usize) -> usize {
        let off = self.block_offset();
        assert!(off + len <= BLOCK_BYTES, "access must not cross a block boundary");
        off
    }

    /// Address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A block-granularity address: the physical address shifted right by
/// [`BLOCK_OFFSET_BITS`].
///
/// # Example
///
/// ```
/// use dg_mem::{Addr, BlockAddr};
/// let b = BlockAddr(2);
/// assert_eq!(b.base(), Addr(128));
/// assert_eq!(Addr(129).block(), b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The first byte address of this block.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << BLOCK_OFFSET_BITS)
    }

    /// Set index for a cache with `sets` sets (must be a power of two).
    #[inline]
    pub fn set_index(self, sets: usize) -> usize {
        debug_assert!(sets.is_power_of_two());
        (self.0 as usize) & (sets - 1)
    }

    /// Tag bits for a cache with `sets` sets (must be a power of two).
    #[inline]
    pub fn tag(self, sets: usize) -> u64 {
        debug_assert!(sets.is_power_of_two());
        self.0 >> sets.trailing_zeros()
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_bytes_is_64() {
        assert_eq!(BLOCK_BYTES, 64);
        assert_eq!(BLOCK_OFFSET_BITS, 6);
    }

    #[test]
    fn addr_block_round_trip() {
        let a = Addr(0xdead_beef);
        assert_eq!(a.block().base().0, 0xdead_beef_u64 & !63);
        assert_eq!(a.block_offset(), (0xdead_beef_u64 & 63) as usize);
    }

    #[test]
    fn addr_offset_advances() {
        assert_eq!(Addr(10).offset(54), Addr(64));
        assert_eq!(Addr(10).offset(54).block(), BlockAddr(1));
    }

    #[test]
    fn set_index_and_tag_partition_block_address() {
        let b = BlockAddr(0b1011_0110);
        let sets = 16;
        assert_eq!(b.set_index(sets), 0b0110);
        assert_eq!(b.tag(sets), 0b1011);
        // Recombining tag and index yields the original block address.
        assert_eq!((b.tag(sets) << 4) | b.set_index(sets) as u64, b.0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", Addr(0)).is_empty());
        assert!(!format!("{:?}", BlockAddr(0)).is_empty());
    }

    #[test]
    fn from_u64() {
        assert_eq!(Addr::from(7u64), Addr(7));
    }
}
