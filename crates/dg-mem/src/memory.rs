//! The load/store interface workload kernels execute against.

use crate::{Access, AccessKind, Addr, AnnotationTable};

/// A byte-addressable memory that kernels load from and store to.
///
/// Three implementations matter in this workspace:
///
/// * [`crate::MemoryImage`] — the precise functional store (golden runs).
/// * [`RecordingMemory`] — wraps an image, additionally emitting an
///   [`Access`] record per operation (trace capture).
/// * `dg-system`'s functional cache system — routes accesses through a
///   simulated hierarchy so approximate loads can return *doppelgänger*
///   values, feeding approximation error back into the computation.
///
/// Accesses must not cross a 64-byte block boundary
/// ([`Addr::offset_of_access`] is the shared check); the typed helpers
/// are naturally aligned so this holds automatically for aligned data.
///
/// # The fixed-width path
///
/// Nearly every access a kernel issues is 1, 2, 4 or 8 bytes wide, so
/// the contract carries those widths as values: [`Self::load_u8`] …
/// [`Self::load_u64`] and their stores move a little-endian unsigned
/// word in a register, with the width known at compile time all the way
/// down to the cache line. [`Self::load_bytes`] / [`Self::store_bytes`]
/// remain the contract for any other length. An implementor writes
/// *one* load body and *one* store body over `&mut [u8]` / `&[u8]`,
/// marks them `#[inline(always)]` and lets [`memory_access_methods!`]
/// stamp out every entry point from them: in the fixed-width entry
/// points the slice is a local array, so the compiler specialises the
/// body for that width. A wrapper's bodies pass the access on with
/// [`load_into`] / [`store_from`], which pick the inner memory's entry
/// point of the same width.
///
/// The `i32` / `f32` / `f64` helpers are bit casts over the fixed-width
/// methods; there is nothing for an implementor to gain by overriding
/// them.
///
/// [`memory_access_methods!`]: crate::memory_access_methods
pub trait Memory {
    /// Load `buf.len()` bytes starting at `addr`.
    fn load_bytes(&mut self, addr: Addr, buf: &mut [u8]);

    /// Store `bytes` starting at `addr`.
    fn store_bytes(&mut self, addr: Addr, bytes: &[u8]);

    /// Account for `ops` non-memory operations executed since the last
    /// access (used by timing models; the default implementation ignores
    /// it).
    fn think(&mut self, ops: u32) {
        let _ = ops;
    }

    /// Load an `u8`.
    #[inline]
    fn load_u8(&mut self, addr: Addr) -> u8 {
        let mut b = [0u8; 1];
        self.load_bytes(addr, &mut b);
        b[0]
    }

    /// Store an `u8`.
    #[inline]
    fn store_u8(&mut self, addr: Addr, v: u8) {
        self.store_bytes(addr, &[v]);
    }

    /// Load an `u16` (little endian).
    #[inline]
    fn load_u16(&mut self, addr: Addr) -> u16 {
        let mut b = [0u8; 2];
        self.load_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Store an `u16` (little endian).
    #[inline]
    fn store_u16(&mut self, addr: Addr, v: u16) {
        self.store_bytes(addr, &v.to_le_bytes());
    }

    /// Load an `u32` (little endian).
    #[inline]
    fn load_u32(&mut self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.load_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Store an `u32` (little endian).
    #[inline]
    fn store_u32(&mut self, addr: Addr, v: u32) {
        self.store_bytes(addr, &v.to_le_bytes());
    }

    /// Load an `u64` (little endian).
    #[inline]
    fn load_u64(&mut self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.load_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Store an `u64` (little endian).
    #[inline]
    fn store_u64(&mut self, addr: Addr, v: u64) {
        self.store_bytes(addr, &v.to_le_bytes());
    }

    /// Load an `i32` (little endian).
    #[inline]
    fn load_i32(&mut self, addr: Addr) -> i32 {
        self.load_u32(addr) as i32
    }

    /// Store an `i32` (little endian).
    #[inline]
    fn store_i32(&mut self, addr: Addr, v: i32) {
        self.store_u32(addr, v as u32);
    }

    /// Load an `f32`.
    #[inline]
    fn load_f32(&mut self, addr: Addr) -> f32 {
        f32::from_bits(self.load_u32(addr))
    }

    /// Store an `f32`.
    #[inline]
    fn store_f32(&mut self, addr: Addr, v: f32) {
        self.store_u32(addr, v.to_bits());
    }

    /// Load an `f64`.
    #[inline]
    fn load_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.load_u64(addr))
    }

    /// Store an `f64`.
    #[inline]
    fn store_f64(&mut self, addr: Addr, v: f64) {
        self.store_u64(addr, v.to_bits());
    }
}

/// The access entry points of a [`Memory`] implementation —
/// `load_bytes`, `store_bytes` and the four fixed-width loads and
/// stores — stamped out of the implementor's one load body
/// `$load(self, addr, &mut [u8])` and one store body
/// `$store(self, addr, &[u8])`.
///
/// Both bodies must be `#[inline(always)]`: each fixed-width entry
/// point hands its body a local array, and it is the inlining that
/// turns the body's slice length into a constant there. Use inside an
/// `impl Memory for …` block, next to `think` if the type has one.
///
/// ```
/// use dg_mem::{Addr, Memory};
///
/// /// Reads as its own address; drops stores.
/// struct Ramp;
/// impl Ramp {
///     #[inline(always)]
///     fn load(&mut self, addr: Addr, buf: &mut [u8]) {
///         let n = buf.len();
///         buf.copy_from_slice(&addr.0.to_le_bytes()[..n]);
///     }
///     #[inline(always)]
///     fn store(&mut self, _addr: Addr, _bytes: &[u8]) {}
/// }
/// impl Memory for Ramp {
///     dg_mem::memory_access_methods!(Self::load, Self::store);
/// }
/// assert_eq!(Ramp.load_u32(Addr(0x0403_0201)), 0x0403_0201);
/// assert_eq!(Ramp.load_u8(Addr(7)), 7);
/// ```
#[macro_export]
macro_rules! memory_access_methods {
    ($load:path, $store:path) => {
        #[inline]
        fn load_bytes(&mut self, addr: $crate::Addr, buf: &mut [u8]) {
            $load(self, addr, buf)
        }
        #[inline]
        fn store_bytes(&mut self, addr: $crate::Addr, bytes: &[u8]) {
            $store(self, addr, bytes)
        }
        $crate::memory_access_methods!(@width $load, $store, u8, load_u8, store_u8);
        $crate::memory_access_methods!(@width $load, $store, u16, load_u16, store_u16);
        $crate::memory_access_methods!(@width $load, $store, u32, load_u32, store_u32);
        $crate::memory_access_methods!(@width $load, $store, u64, load_u64, store_u64);
    };
    // `inline(always)`, so that the trait's `i32` / `f32` / `f64` casts
    // over these are each one specialised body and not a call to one.
    (@width $load:path, $store:path, $ty:ty, $load_w:ident, $store_w:ident) => {
        #[inline(always)]
        fn $load_w(&mut self, addr: $crate::Addr) -> $ty {
            let mut word = [0u8; ::core::mem::size_of::<$ty>()];
            $load(self, addr, &mut word);
            <$ty>::from_le_bytes(word)
        }
        #[inline(always)]
        fn $store_w(&mut self, addr: $crate::Addr, v: $ty) {
            $store(self, addr, &v.to_le_bytes())
        }
    };
}

/// Load `buf.len()` bytes at `addr` through `mem`'s entry point of that
/// width: the fixed-width method for 1, 2, 4 and 8 bytes,
/// [`Memory::load_bytes`] otherwise.
///
/// Always inlined, so where the length is a constant (a wrapper's load
/// body inside its own fixed-width entry point) the choice is made at
/// compile time; where it is not (trace replay, keyed on
/// [`Access::size`]) it is one branch on the length.
///
/// This hands an access to *another* memory. A type's own bodies must
/// not call it on `self`: the default fixed-width methods are written
/// over `load_bytes`, and the two would call each other forever.
#[inline(always)]
pub fn load_into<M: Memory + ?Sized>(mem: &mut M, addr: Addr, buf: &mut [u8]) {
    match buf.len() {
        1 => buf.copy_from_slice(&mem.load_u8(addr).to_le_bytes()),
        2 => buf.copy_from_slice(&mem.load_u16(addr).to_le_bytes()),
        4 => buf.copy_from_slice(&mem.load_u32(addr).to_le_bytes()),
        8 => buf.copy_from_slice(&mem.load_u64(addr).to_le_bytes()),
        _ => mem.load_bytes(addr, buf),
    }
}

/// Store `bytes` at `addr` through `mem`'s entry point of that width —
/// the store-side twin of [`load_into`].
#[inline(always)]
pub fn store_from<M: Memory + ?Sized>(mem: &mut M, addr: Addr, bytes: &[u8]) {
    match *bytes {
        [a] => mem.store_u8(addr, a),
        [a, b] => mem.store_u16(addr, u16::from_le_bytes([a, b])),
        [a, b, c, d] => mem.store_u32(addr, u32::from_le_bytes([a, b, c, d])),
        [a, b, c, d, e, f, g, h] => {
            mem.store_u64(addr, u64::from_le_bytes([a, b, c, d, e, f, g, h]))
        }
        _ => mem.store_bytes(addr, bytes),
    }
}

/// `$name(args…)` on `&mut M` is `$name(args…)` on `M`, for every
/// method of the trait: a borrow must never fall back to a default the
/// inner type overrides.
macro_rules! forward_through_borrow {
    ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
        $(
            #[inline]
            fn $name(&mut self, $($arg: $ty),*) $(-> $ret)? {
                (**self).$name($($arg),*)
            }
        )*
    };
}

impl<M: Memory + ?Sized> Memory for &mut M {
    forward_through_borrow! {
        load_bytes(addr: Addr, buf: &mut [u8]);
        store_bytes(addr: Addr, bytes: &[u8]);
        think(ops: u32);
        load_u8(addr: Addr) -> u8;
        store_u8(addr: Addr, v: u8);
        load_u16(addr: Addr) -> u16;
        store_u16(addr: Addr, v: u16);
        load_u32(addr: Addr) -> u32;
        store_u32(addr: Addr, v: u32);
        load_u64(addr: Addr) -> u64;
        store_u64(addr: Addr, v: u64);
        load_i32(addr: Addr) -> i32;
        store_i32(addr: Addr, v: i32);
        load_f32(addr: Addr) -> f32;
        store_f32(addr: Addr, v: f32);
        load_f64(addr: Addr) -> f64;
        store_f64(addr: Addr, v: f64);
    }
}

/// A [`Memory`] adapter that forwards to an inner memory while recording
/// every access (with its approximate/precise classification) for later
/// trace-driven replay.
///
/// # Example
///
/// ```
/// use dg_mem::{Addr, AnnotationTable, ApproxRegion, ElemType, Memory,
///              MemoryImage, RecordingMemory};
/// let mut image = MemoryImage::new();
/// let mut annots = AnnotationTable::new();
/// annots.add(ApproxRegion::new(Addr(0), 64, ElemType::F32, 0.0, 1.0));
/// let mut rec = RecordingMemory::new(&mut image, &annots);
/// rec.store_f32(Addr(0), 0.5);
/// rec.think(3);
/// let _ = rec.load_f32(Addr(128));
/// let accesses = rec.into_accesses();
/// assert_eq!(accesses.len(), 2);
/// assert!(accesses[0].approx);        // annotated store
/// assert!(!accesses[1].approx);       // unannotated load
/// assert_eq!(accesses[1].think, 3);
/// ```
#[derive(Debug)]
pub struct RecordingMemory<'a, M> {
    inner: M,
    annots: &'a AnnotationTable,
    accesses: Vec<Access>,
    pending_think: u32,
}

impl<'a, M: Memory> RecordingMemory<'a, M> {
    /// Wrap `inner`, classifying accesses against `annots`.
    pub fn new(inner: M, annots: &'a AnnotationTable) -> Self {
        RecordingMemory { inner, annots, accesses: Vec::new(), pending_think: 0 }
    }

    /// The recorded access stream, consuming the recorder.
    pub fn into_accesses(self) -> Vec<Access> {
        self.accesses
    }

    /// Number of accesses recorded so far.
    pub fn recorded(&self) -> usize {
        self.accesses.len()
    }

    fn record(&mut self, addr: Addr, kind: AccessKind, size: usize, data: Option<[u8; 8]>) {
        self.accesses.push(Access {
            addr,
            kind,
            size: size as u8,
            approx: self.annots.is_approx(addr),
            think: self.pending_think,
            data,
        });
        self.pending_think = 0;
    }

    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        addr.offset_of_access(buf.len());
        self.record(addr, AccessKind::Load, buf.len(), None);
        load_into(&mut self.inner, addr, buf);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, bytes: &[u8]) {
        addr.offset_of_access(bytes.len());
        self.record(addr, AccessKind::Store, bytes.len(), Some(Access::payload_of(bytes)));
        store_from(&mut self.inner, addr, bytes);
    }
}

impl<M: Memory> Memory for RecordingMemory<'_, M> {
    memory_access_methods!(Self::load, Self::store);

    fn think(&mut self, ops: u32) {
        self.pending_think = self.pending_think.saturating_add(ops);
        self.inner.think(ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxRegion, ElemType, MemoryImage};

    #[test]
    fn recording_forwards_values() {
        let mut image = MemoryImage::new();
        let annots = AnnotationTable::new();
        let mut rec = RecordingMemory::new(&mut image, &annots);
        rec.store_f64(Addr(0), 4.0);
        assert_eq!(rec.load_f64(Addr(0)), 4.0);
        assert_eq!(rec.recorded(), 2);
    }

    #[test]
    fn think_accumulates_until_next_access() {
        let mut image = MemoryImage::new();
        let annots = AnnotationTable::new();
        let mut rec = RecordingMemory::new(&mut image, &annots);
        rec.think(2);
        rec.think(3);
        rec.store_u8(Addr(0), 1);
        rec.store_u8(Addr(1), 1);
        let acc = rec.into_accesses();
        assert_eq!(acc[0].think, 5);
        assert_eq!(acc[1].think, 0);
    }

    #[test]
    fn classification_follows_annotations() {
        let mut image = MemoryImage::new();
        let mut annots = AnnotationTable::new();
        annots.add(ApproxRegion::new(Addr(64), 64, ElemType::F32, 0.0, 1.0));
        let mut rec = RecordingMemory::new(&mut image, &annots);
        let _ = rec.load_f32(Addr(0));
        let _ = rec.load_f32(Addr(64));
        let acc = rec.into_accesses();
        assert!(!acc[0].approx);
        assert!(acc[1].approx);
    }

    #[test]
    fn mut_ref_is_memory() {
        fn takes_memory<M: Memory>(m: &mut M) {
            m.store_u8(Addr(0), 9);
        }
        let mut image = MemoryImage::new();
        takes_memory(&mut image);
        assert_eq!(image.load_u8(Addr(0)), 9);
    }
}
