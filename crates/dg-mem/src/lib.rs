//! Memory substrate for the Doppelgänger cache reproduction.
//!
//! This crate provides the value-carrying foundation every other crate in
//! the workspace builds on:
//!
//! * [`Addr`] / [`BlockAddr`] — typed physical addresses and 64-byte
//!   cache-block addresses.
//! * [`ElemType`] — the numerical element types the paper approximates
//!   (`u8`, `i32`, `f32`, `f64`) together with typed views over raw block
//!   bytes.
//! * [`BlockData`] — a 64-byte cache block with typed element access and
//!   the value statistics (average, range) that Doppelgänger's map
//!   generation hashes.
//! * [`ApproxRegion`] / [`AnnotationTable`] — the programmer annotations
//!   of the paper (§4.1): which address ranges are approximate, their
//!   element type, and the expected `min`/`max` value range.
//! * [`MemoryImage`] — a sparse functional main-memory image.
//! * [`Memory`] — the load/store interface workload kernels execute
//!   against (precise image, recording wrapper, or a functional cache
//!   model from `dg-system`).
//! * [`Access`] / [`Trace`] — memory-access records and multi-core traces
//!   consumed by the timing simulator.
//!
//! # Example
//!
//! ```
//! use dg_mem::{Addr, ElemType, MemoryImage, Memory};
//!
//! let mut image = MemoryImage::new();
//! image.store_f32(Addr(0x1000), 1.5);
//! assert_eq!(image.load_f32(Addr(0x1000)), 1.5);
//!
//! let block = image.block(Addr(0x1000).block());
//! let stats = block.stats(ElemType::F32);
//! assert!(stats.max >= 1.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod addr;
mod alloc;
mod annot;
mod block;
mod elem;
mod image;
mod memory;
pub mod stream;
pub mod synth;
mod trace;
mod tracefile;

pub use access::{Access, AccessKind};
pub use addr::{Addr, BlockAddr, BLOCK_BYTES, BLOCK_OFFSET_BITS};
pub use alloc::AddressSpace;
pub use annot::{AnnotationTable, ApproxRegion};
pub use block::{BlockData, BlockStats};
pub use elem::ElemType;
pub use image::MemoryImage;
pub use memory::{load_into, store_from, Memory, RecordingMemory};
pub use stream::{
    stream_trace, StreamChunk, SynthPattern, SynthStream, TenantSpec, TraceStream, STREAM_CHUNK,
};
pub use trace::{InterleavedIter, Trace, TraceBuilder};
