//! Differential oracle for the Doppelgänger reproduction.
//!
//! A deliberately simple, obviously-correct re-implementation of the
//! simulated machine — memory image, conventional caches, Doppelgänger
//! LLC, MSI directory, timing — plus a lockstep harness that replays
//! one access stream through both this oracle and the optimized
//! `dg-system` engine and cross-checks every observable event.
//!
//! The optimized engine earns its speed from MRU way prediction, keyed
//! tag lanes, map-value memoization, lazy victim fills and a paged
//! memory arena. None of those appear here: the oracle uses plain
//! `Vec<Vec<Option<…>>>` grids, full-set scans, eager copies and a
//! `BTreeMap` memory. Every such optimization is therefore *validated
//! by omission* — if it ever changes an observable (a hit/miss kind, a
//! victim choice, a writeback, a counter, a loaded byte), the lockstep
//! run reports the first diverging access.
//!
//! Entry points:
//!
//! * [`lockstep`] — replay a [`dg_mem::Trace`] through both engines,
//!   returning the first [`Divergence`] (if any).
//! * [`OracleSystem`] — the reference machine, usable on its own.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod compressed;
mod doppel;
mod llc;
mod lockstep;
mod mem;
mod system;

pub use cache::OracleCache;
pub use compressed::OracleCompressed;
pub use doppel::OracleDoppelganger;
pub use llc::OracleLlc;
pub use lockstep::{lockstep, lockstep_verbose, Divergence, LockstepSummary};
pub use mem::OracleMemory;
pub use system::OracleSystem;
