//! Hermetic parallel-execution infrastructure for the experiment
//! harness: a work-stealing scoped job pool ([`Pool`]) and a fast
//! non-cryptographic hasher ([`fxmap`]) for simulator hot paths.
//!
//! Like every crate in this workspace, `dg-par` has zero external
//! dependencies (see README.md, "Hermetic build & determinism"): the
//! pool is built on `std::thread::scope`, mutex-guarded per-worker
//! deques and atomic counters — no `rayon`, no `crossbeam`.
//!
//! Design requirements (set by the sweep engine in `dg-bench`):
//!
//! 1. **Scoped jobs** — closures may borrow from the caller's stack
//!    (kernel suites, configuration tables) without `'static` bounds.
//! 2. **Deterministic result ordering** — results come back indexed by
//!    submission order no matter which worker ran which job, so a
//!    parallel sweep is bit-identical to a serial one.
//! 3. **Work stealing** — jobs are distributed round-robin, and an idle
//!    worker steals from the busiest-looking victim, which keeps the
//!    pool busy under heavily skewed job sizes (a `canneal` evaluation
//!    costs many times a `blackscholes` one).
//! 4. **Per-job timing hooks** — [`Pool::run_report`] records every
//!    job's wall-clock and the batch's steals, which the `sim_sweep_paper`
//!    workload of `benchmark/` turns into `dg-par.sweep_efficiency`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fxmap;
pub mod pool;

pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pool::{default_workers, Pool, RunReport};
