//! Memory-access records.

use crate::Addr;
use std::fmt;

/// Whether an access reads or writes memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read).
    Load,
    /// A store (write).
    Store,
}

impl AccessKind {
    /// Whether this is a store.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        })
    }
}

/// One recorded memory access.
///
/// The `approx` flag models the paper's ISA support for identifying
/// approximate loads/stores to hardware (§4.1): it is derived from the
/// annotation table at record time and steers the access to the
/// Doppelgänger or the precise LLC partition.
///
/// `think` counts the non-memory operations the issuing core executed
/// since its previous access; the timing model charges one cycle each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address of the access.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Access size in bytes (1–8).
    pub size: u8,
    /// Whether the address is annotated approximate.
    pub approx: bool,
    /// Non-memory operations preceding this access on the same core.
    pub think: u32,
    /// Store payload (first `size` bytes meaningful); `None` for loads.
    ///
    /// Carrying store values in the trace lets trace-driven replay keep
    /// the memory image value-accurate, so Doppelgänger map computations
    /// at insertion/writeback time see the data the kernel actually
    /// produced.
    pub data: Option<[u8; 8]>,
}

impl Access {
    /// Convenience constructor for a precise access with no think time.
    pub fn new(addr: Addr, kind: AccessKind, size: u8) -> Self {
        Access { addr, kind, size, approx: false, think: 0, data: None }
    }

    /// Same access flagged approximate.
    pub fn approximate(mut self) -> Self {
        self.approx = true;
        self
    }

    /// Same access carrying a store payload.
    ///
    /// # Panics
    ///
    /// Panics if this access is a load.
    pub fn with_data(mut self, data: [u8; 8]) -> Self {
        assert!(self.kind.is_store(), "only stores carry data payloads");
        self.data = Some(data);
        self
    }

    /// `bytes` widened to the 8-byte payload field of a store record.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than a record can carry.
    #[inline]
    pub fn payload_of(bytes: &[u8]) -> [u8; 8] {
        assert!(bytes.len() <= 8, "a recorded store carries at most 8 bytes");
        let mut payload = [0u8; 8];
        payload[..bytes.len()].copy_from_slice(bytes);
        payload
    }

    /// The store payload bytes (length `size`), if any.
    pub fn payload(&self) -> Option<&[u8]> {
        self.data.as_ref().map(|d| &d[..self.size as usize])
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}B{})",
            self.kind,
            self.addr,
            self.size,
            if self.approx { ", approx" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Store.is_store());
        assert!(!AccessKind::Load.is_store());
    }

    #[test]
    fn builder_flags() {
        let a = Access::new(Addr(4), AccessKind::Load, 4).approximate();
        assert!(a.approx);
        assert_eq!(a.think, 0);
        assert_eq!(a.size, 4);
        assert!(a.payload().is_none());
    }

    #[test]
    fn store_payload_truncates_to_size() {
        let a = Access::new(Addr(0), AccessKind::Store, 4).with_data([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.payload().unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "only stores")]
    fn load_rejects_payload() {
        let _ = Access::new(Addr(0), AccessKind::Load, 4).with_data([0; 8]);
    }

    #[test]
    fn display_mentions_kind_and_approx() {
        let a = Access::new(Addr(4), AccessKind::Store, 8).approximate();
        let s = a.to_string();
        assert!(s.contains("store"));
        assert!(s.contains("approx"));
    }
}
