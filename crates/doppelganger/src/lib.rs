//! The Doppelgänger cache: a last-level cache for approximate computing.
//!
//! From-scratch reproduction of *San Miguel, Albericio, Moshovos,
//! Enright Jerger, "Doppelgänger: A Cache for Approximate Computing",
//! MICRO-48 (2015)*.
//!
//! Doppelgänger observes that many cache blocks in approximate-computing
//! applications hold values that are *approximately similar* — not
//! identical, but close enough that one block's values can stand in for
//! another's. It exploits this with a decoupled organization:
//!
//! * a **tag array** with one entry per cached block (address tag, state,
//!   dirty bit, a `map` value, and `prev`/`next` pointers), and
//! * a much smaller **approximate data array** whose entries are located
//!   by map value through an **MTag array**, with each data entry shared
//!   by a doubly-linked list of tags.
//!
//! Maps are hashes of the block's values (average + range, linearly
//! quantized over a programmer-annotated range) chosen so that similar
//! blocks produce the same map — see [`MapSpace`].
//!
//! # Quick start
//!
//! ```
//! use doppelganger::{DoppelgangerCache, DoppelgangerConfig};
//! use dg_mem::{Addr, ApproxRegion, BlockAddr, BlockData, ElemType};
//!
//! // The paper's configuration: 16 K tags, 4 K data entries, 14-bit maps.
//! let mut llc = DoppelgangerCache::new(DoppelgangerConfig::paper_split());
//! let temps = ApproxRegion::new(Addr(0), 1 << 20, ElemType::F32, 0.0, 1000.0);
//!
//! let sky1 = BlockData::from_values(ElemType::F32, &[200.0; 16]);
//! let sky2 = BlockData::from_values(ElemType::F32, &[200.01; 16]);
//! llc.insert_approx(BlockAddr(10), sky1, &temps);
//! llc.insert_approx(BlockAddr(77), sky2, &temps);
//! // Similar sky-colored blocks share one data entry…
//! assert_eq!(llc.resident_data(), 1);
//! // …and block 77 reads back its doppelgänger's values.
//! assert_eq!(llc.read(BlockAddr(77)), Some(sky1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod cache;
mod config;
mod entry;
mod geometry;
mod map;
mod policy;
mod stats;

pub use cache::{DoppelgangerCache, InsertOutcome, WriteOutcome, WriteStatus};
pub use config::DoppelgangerConfig;
pub use entry::{DataEntry, DataId, DataKind, TagEntry, TagId, TagKind};
pub use geometry::{HardwareCost, StructureCost};
pub use map::{MapHash, MapSpace, MapValue};
pub use policy::DataPolicy;
pub use stats::DoppStats;
