//! Cache substrate for the Doppelgänger reproduction.
//!
//! Everything a conventional multi-level cache hierarchy needs, built
//! from scratch:
//!
//! * [`CacheGeometry`] — size / associativity / block-size arithmetic.
//! * [`Lru`] — per-set least-recently-used replacement, the paper's
//!   policy for every array.
//! * [`TagArray`] — a generic set-associative array of caller-defined
//!   entries with LRU bookkeeping.
//! * [`ConventionalCache`] — a data-carrying write-back cache used for
//!   the private L1/L2 levels, the precise LLC partition, and the
//!   baseline 2 MB LLC.
//! * [`CompressedCache`] — a Touché-style compressed array (superblock
//!   tags, segment-granular BΔI data) backing `LlcKind::Compressed`.
//! * [`Sharers`] — directory sharer sets for MSI coherence at an
//!   inclusive LLC.
//! * [`WritebackBuffer`] — the LLC's buffer of pending DRAM writes.
//! * [`CacheStats`] — hit/miss/eviction/writeback accounting.
//!
//! The full hierarchy orchestration (4 cores, L1→L2→LLC→memory, MSI,
//! timing) lives in `dg-system`; the Doppelgänger LLC itself is in the
//! `doppelganger` crate. Both are clients of this substrate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod cache;
mod compressed;
mod geometry;
mod replacement;
mod sharers;
mod stats;
mod writeback;

pub use array::TagArray;
pub use cache::{ConventionalCache, Evicted, Line};
pub use compressed::{CompStats, CompressedCache, CompressedConfig};
pub use geometry::{CacheGeometry, GeometryError};
pub use replacement::Lru;
pub use sharers::Sharers;
pub use stats::CacheStats;
pub use writeback::WritebackBuffer;
