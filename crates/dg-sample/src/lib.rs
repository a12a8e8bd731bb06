//! Phase profiling and representative-interval selection for sampled
//! simulation.
//!
//! Full detailed simulation of a paper-scale trace is dominated by
//! per-access bookkeeping that profiling showed is near its floor; the
//! remaining order-of-magnitude win comes from simulating *fewer*
//! accesses. This crate implements the selection half of that bargain,
//! in the spirit of SimPoint-style interval clustering:
//!
//! 1. [`profile`] makes one cheap functional pass over a
//!    [`TraceStream`](dg_mem::TraceStream), splitting the access index space into fixed
//!    length intervals and computing an [`IntervalFeatures`] vector per
//!    interval (access-type mix, working-set size and delta, log2
//!    value-bin histogram of approximate store payloads — a proxy for
//!    which Doppelgänger map bins the interval exercises).
//! 2. [`select`] clusters those feature vectors with a deterministic
//!    serial k-medoids and returns K medoid intervals, each weighted by
//!    its cluster's share of the trace.
//! 3. [`SampleSchedule`] turns a selection into an executable timeline
//!    of skip / warm-up / measure regions for the hybrid runner in
//!    `dg-system`.
//! 4. [`weighted_ratio`] / [`weighted_mean`] reconstruct full-run
//!    estimates from per-interval measurements, with a confidence
//!    interval derived from inter-interval variance.
//!
//! Everything here is serial and seeded: the same `(trace, seed, k)`
//! triple produces bit-identical selections regardless of
//! `DG_PAR_THREADS` or host, which keeps sampled exports byte-diffable
//! (see DESIGN.md §10).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod estimate;
mod features;
mod schedule;
mod select;

pub use estimate::{weighted_mean, weighted_ratio, Estimate, RatioSample};
pub use features::{profile, IntervalFeatures, Profile, VALUE_BINS};
pub use schedule::{Region, RegionKind, SampleSchedule};
pub use select::{select, SelectedInterval, Selection};
