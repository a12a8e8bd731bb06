//! Full-system simulation for the Doppelgänger reproduction.
//!
//! Ties every substrate together into the paper's evaluation platform
//! (Table 1): four 1 GHz cores with private 16 KB L1 and 128 KB L2
//! caches, a shared LLC in one of four organizations (2 MB baseline,
//! 1 MB precise + Doppelgänger split, 2 MB-tag uniDoppelgänger, or a
//! Touché-style BΔI-compressed array), an MSI directory, a writeback
//! buffer, and 160-cycle main memory.
//!
//! The simulator is **execution-driven**: workload kernels from
//! `dg-workloads` issue loads and stores through [`CoreMemory`], so
//! approximate values served by the Doppelgänger LLC feed back into the
//! computation, and application output error is measured end-to-end
//! exactly as the paper does with Pin.
//!
//! # Example
//!
//! ```
//! use dg_system::{evaluate, LlcKind, SystemConfig};
//! use dg_workloads::kernels::Inversek2j;
//!
//! let kernel = Inversek2j::new(512, 1);
//! let baseline = evaluate(&kernel, SystemConfig::tiny(LlcKind::Baseline), 4);
//! assert_eq!(baseline.output_error, 0.0); // conventional caches are exact
//!
//! let split = evaluate(&kernel, SystemConfig::tiny_split(), 4);
//! assert!(split.output_error < 0.5); // approximation, but bounded
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod config;
mod energy;
mod llc;
pub mod multiprog;
mod replay;
pub mod report;
mod runner;
pub mod sampled;
pub mod similarity;
mod system;

pub use array::LlcArray;
pub use config::{ArrayConfig, LlcArrays, LlcKind, SystemConfig};
pub use energy::{
    llc_area_mm2, llc_energy, CostRow, CostTable, EnergyBreakdown, EnergyReport, LlcStructure,
};
pub use llc::{Llc, LlcAccess, LlcCounters};
pub use replay::{capture_trace, replay, replay_batched};
pub use runner::{
    assert_baseline_exact, collect_snapshots, evaluate, evaluate_and_snapshots,
    evaluate_profiled, evaluate_with_golden, golden_output, run_on_system,
    run_on_system_sampled, self_error, EvalResult, PhaseSnapshot,
};
pub use sampled::{run_sampled, SampledEstimates, SampledOutcome};
pub use system::{CoreMemory, System};
