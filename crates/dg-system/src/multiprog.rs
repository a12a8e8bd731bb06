//! Multiprogrammed workloads (paper §4.1).
//!
//! The paper notes Doppelgänger "can be used with multiprogrammed
//! workloads by storing this \[range\] information per application". This
//! module co-schedules two kernels on one system: each application gets
//! half the cores and its own slice of the physical address space (an
//! offset — our stand-in for per-application base registers), and the
//! combined annotation table plays the role of the per-application
//! range buffer at the LLC.

use crate::{System, SystemConfig};
use dg_mem::{
    load_into, store_from, Addr, AnnotationTable, ApproxRegion, BlockAddr, Memory, MemoryImage,
};
use dg_workloads::Kernel;

/// A [`Memory`] adapter that relocates every access by a fixed offset —
/// the second application's view of its private address space.
#[derive(Debug)]
pub struct OffsetMemory<M> {
    inner: M,
    offset: u64,
}

impl<M: Memory> OffsetMemory<M> {
    /// View `inner` shifted by `offset` bytes (block aligned).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not 64-byte aligned.
    pub fn new(inner: M, offset: u64) -> Self {
        assert_eq!(offset % dg_mem::BLOCK_BYTES as u64, 0, "offset must be block aligned");
        OffsetMemory { inner, offset }
    }
}

impl<M: Memory> OffsetMemory<M> {
    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        load_into(&mut self.inner, Addr(addr.0 + self.offset), buf);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, bytes: &[u8]) {
        store_from(&mut self.inner, Addr(addr.0 + self.offset), bytes);
    }
}

impl<M: Memory> Memory for OffsetMemory<M> {
    dg_mem::memory_access_methods!(Self::load, Self::store);

    fn think(&mut self, ops: u32) {
        self.inner.think(ops);
    }
}

/// Shift every region of an annotation table by `offset` bytes.
pub fn offset_annotations(table: &AnnotationTable, offset: u64) -> AnnotationTable {
    table
        .iter()
        .map(|r| ApproxRegion::new(Addr(r.start.0 + offset), r.len, r.ty, r.min, r.max))
        .collect()
}

/// Copy every populated block of `src` into `dst`, shifted by `offset`
/// bytes (block aligned).
pub fn merge_image(dst: &mut MemoryImage, src: &MemoryImage, offset: u64) {
    assert_eq!(offset % dg_mem::BLOCK_BYTES as u64, 0, "offset must be block aligned");
    let offset_blocks = offset / dg_mem::BLOCK_BYTES as u64;
    for (addr, data) in src.iter_blocks() {
        dst.set_block(BlockAddr(addr.0 + offset_blocks), *data);
    }
}

/// Result of a multiprogrammed run.
#[derive(Debug)]
pub struct PairRun {
    /// The finished system (shared LLC statistics, cycles, traffic).
    pub system: System,
    /// First application's output.
    pub output_a: Vec<f64>,
    /// Second application's output.
    pub output_b: Vec<f64>,
}

/// Co-schedule `a` (cores `0..cores/2`) and `b` (cores `cores/2..`) on
/// one system, with `b`'s address space relocated by `offset_b`.
///
/// Phases interleave: both applications advance one phase per round
/// until each has finished its own phase count (no barrier between the
/// two applications — they only share the LLC).
pub fn run_pair(
    a: &dyn Kernel,
    b: &dyn Kernel,
    cfg: SystemConfig,
    offset_b: u64,
) -> PairRun {
    assert!(cfg.cores >= 2, "need at least one core per application");
    let pa = dg_workloads::prepare(a);
    let pb = dg_workloads::prepare(b);
    let mut image = pa.image;
    merge_image(&mut image, &pb.image, offset_b);
    let mut annots = pa.annotations;
    annots.extend(offset_annotations(&pb.annotations, offset_b).iter().copied());

    let mut sys = System::new(cfg, image, annots);
    let half = cfg.cores / 2;
    let threads_a = half.max(1);
    let threads_b = (cfg.cores - half).max(1);
    let rounds = a.phases().max(b.phases());
    for phase in 0..rounds {
        if phase < a.phases() {
            for tid in 0..threads_a {
                let mem = sys.core_memory(tid % half.max(1));
                let mut mem = mem;
                a.run_phase(&mut mem, phase, tid, threads_a);
            }
        }
        if phase < b.phases() {
            for tid in 0..threads_b {
                let core = half + tid % threads_b;
                let mut mem = OffsetMemory::new(sys.core_memory(core), offset_b);
                b.run_phase(&mut mem, phase, tid, threads_b);
            }
        }
    }
    let output_a = a.output(&mut sys.core_memory(0));
    let output_b = b.output(&mut OffsetMemory::new(sys.core_memory(half), offset_b));
    PairRun { system: sys, output_a, output_b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LlcKind;
    use dg_workloads::kernels::{Inversek2j, Jpeg};

    /// 1 GiB separation keeps the two address spaces disjoint.
    const OFFSET: u64 = 1 << 30;

    #[test]
    fn offset_memory_relocates() {
        let mut image = MemoryImage::new();
        {
            let mut view = OffsetMemory::new(&mut image, 64);
            view.store_f32(Addr(0), 5.0);
        }
        assert_eq!(image.load_f32(Addr(64)), 5.0);
        assert_eq!(image.load_f32(Addr(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "block aligned")]
    fn offset_must_be_aligned() {
        let _ = OffsetMemory::new(MemoryImage::new(), 3);
    }

    #[test]
    fn annotations_shift_with_the_address_space() {
        let k = Inversek2j::new(64, 1);
        let p = dg_workloads::prepare(&k);
        let shifted = offset_annotations(&p.annotations, OFFSET);
        assert_eq!(shifted.len(), p.annotations.len());
        let first = p.annotations.iter().next().unwrap();
        assert!(shifted.lookup(Addr(first.start.0 + OFFSET)).is_some());
        assert!(shifted.lookup(first.start).is_none());
    }

    #[test]
    fn pair_on_baseline_is_bit_exact_for_both() {
        let a = Inversek2j::new(512, 3);
        let b = Jpeg::new(32, 32, 4);
        let run = run_pair(&a, &b, SystemConfig::tiny(LlcKind::Baseline), OFFSET);
        assert_eq!(run.output_a, crate::golden_output(&a, 2));
        assert_eq!(run.output_b, crate::golden_output(&b, 2));
        assert!(run.system.runtime_cycles() > 0);
    }

    #[test]
    fn pair_on_split_keeps_both_errors_bounded() {
        let a = Inversek2j::new(512, 3);
        let b = Jpeg::new(32, 32, 4);
        let run = run_pair(&a, &b, SystemConfig::tiny_split(), OFFSET);
        run.system.check_llc_invariants();
        let ea = a.error_metric(&crate::golden_output(&a, 2), &run.output_a);
        let eb = b.error_metric(&crate::golden_output(&b, 2), &run.output_b);
        assert!(ea < 0.5, "inversek2j error {ea}");
        assert!(eb < 0.5, "jpeg error {eb}");
        // Both applications' approximate data reached the LLC.
        assert!(run.system.llc_counters().dopp.insertions > 0);
    }
}
