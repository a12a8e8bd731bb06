//! Trace capture and trace-driven replay.
//!
//! The primary evaluation mode is execution-driven (kernels run live
//! against [`crate::CoreMemory`]), but a trace-driven mode is useful
//! for decoupling workload generation from architecture sweeps: capture
//! once, replay against many configurations. Traces carry store
//! payloads, so the replayed memory image stays value-accurate and map
//! computations see the data the kernel actually produced.

use crate::{System, SystemConfig};
use dg_mem::{load_into, store_from, Access, Memory, RecordingMemory, Trace, TraceBuilder};
use dg_workloads::Kernel;

/// Run `kernel` once against a precise memory and capture a per-core
/// access trace (worker `tid` maps to core `tid % cores`).
///
/// The trace's `initial` image is the memory state after
/// [`Kernel::setup`], i.e. exactly what a simulated run starts from.
pub fn capture_trace(kernel: &dyn Kernel, threads: usize, cores: usize) -> Trace {
    assert!(threads > 0 && cores > 0);
    let mut prepared = dg_workloads::prepare(kernel);
    let initial = prepared.image.clone();
    let annots = prepared.annotations;
    let mut builder = TraceBuilder::new(initial, annots.clone(), cores);
    for phase in 0..kernel.phases() {
        for tid in 0..threads {
            let mut rec = RecordingMemory::new(&mut prepared.image, &annots);
            kernel.run_phase(&mut rec, phase, tid, threads);
            builder.extend(tid % cores, rec.into_accesses());
        }
    }
    builder.build()
}

/// Replay a captured trace against a simulated system, interleaving
/// cores round-robin one access at a time. Returns the finished system
/// for inspection.
pub fn replay(trace: &Trace, cfg: SystemConfig) -> System {
    assert!(
        trace.cores.len() <= cfg.cores,
        "trace has more core streams than the system has cores"
    );
    let mut sys = System::new(cfg, trace.initial.clone(), trace.annotations.clone());
    for (core, access) in trace.interleaved() {
        issue(&mut sys, core, access);
    }
    sys
}

/// Retire one trace record on `core`, through the [`CoreMemory`] entry
/// point of the record's width.
///
/// [`CoreMemory`]: crate::CoreMemory
#[inline]
fn issue(sys: &mut System, core: usize, access: &Access) {
    let mut mem = sys.core_memory(core);
    if access.think > 0 {
        mem.think(access.think);
    }
    match access.payload() {
        Some(bytes) => store_from(&mut mem, access.addr, bytes),
        None => load_into(&mut mem, access.addr, &mut [0u8; 8][..access.size as usize]),
    }
}

/// Same as [`replay`]. Kept, hidden, only because the benchmark's
/// `replay_batched` probe still calls it.
#[doc(hidden)]
pub fn replay_batched(trace: &Trace, cfg: SystemConfig) -> System {
    replay(trace, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlcKind;
    use dg_workloads::kernels::{Blackscholes, Inversek2j};

    #[test]
    fn capture_produces_accesses_for_every_core() {
        let kernel = Inversek2j::new(512, 1);
        let trace = capture_trace(&kernel, 4, 4);
        assert_eq!(trace.cores.len(), 4);
        assert!(trace.cores.iter().all(|c| !c.is_empty()));
        assert!(trace.instructions() > trace.len() as u64, "think ops counted");
    }

    #[test]
    fn captured_stores_carry_payloads() {
        let kernel = Blackscholes::new(64, 2);
        let trace = capture_trace(&kernel, 1, 1);
        let stores = trace.cores[0].iter().filter(|a| a.kind.is_store());
        for s in stores {
            assert!(s.payload().is_some(), "store without payload");
        }
    }

    #[test]
    fn single_thread_replay_reaches_same_final_memory() {
        // With one core the replay order equals the capture order, so
        // after flushing the hierarchy the DRAM image must bit-match a
        // plain precise run.
        let kernel = Inversek2j::new(1024, 9);
        let trace = capture_trace(&kernel, 1, 1);

        let mut golden = dg_workloads::prepare(&kernel);
        dg_workloads::run_to_completion(&kernel, &mut golden.image, 1);

        let mut sys = replay(&trace, SystemConfig::tiny(LlcKind::Baseline));
        sys.flush();
        // Compare the kernel's output region read from both images.
        let out_golden = kernel.output(&mut golden.image);
        let mut dram = sys.dram().clone();
        let out_replayed = kernel.output(&mut dram);
        assert_eq!(out_golden, out_replayed);
    }

    #[test]
    fn replay_is_deterministic() {
        let kernel = Inversek2j::new(512, 4);
        let trace = capture_trace(&kernel, 4, 4);
        let a = replay(&trace, SystemConfig::tiny_split());
        let b = replay(&trace, SystemConfig::tiny_split());
        assert_eq!(a.runtime_cycles(), b.runtime_cycles());
        assert_eq!(a.llc_counters(), b.llc_counters());
        assert_eq!(a.off_chip_blocks(), b.off_chip_blocks());
    }

    #[test]
    fn replay_miss_counts_track_execution_driven() {
        // Same kernel, same configuration: trace-driven and
        // execution-driven runs should see LLC activity of the same
        // order (interleavings differ, so allow slack).
        let kernel = Inversek2j::new(2048, 1);
        let cfg = SystemConfig::tiny(LlcKind::Baseline);
        let (exec_sys, _) = crate::run_on_system(&kernel, cfg, 4);
        let trace = capture_trace(&kernel, 4, 4);
        let replay_sys = replay(&trace, cfg);
        let a = exec_sys.llc_counters().misses() as f64;
        let b = replay_sys.llc_counters().misses() as f64;
        assert!(
            (a / b).max(b / a) < 1.5,
            "miss counts diverged: exec {a} vs replay {b}"
        );
    }
}
