//! Streaming a kernel's execution-driven access sequence.
//!
//! [`KernelSource`] adapts a workload kernel to the bounded-memory
//! [`TraceStream`] interface: it *executes* the kernel functionally
//! (against a precise [`dg_mem::MemoryImage`]) and delivers the access
//! records in the canonical system-runner order — phase-major, workers
//! `tid = 0..threads` back-to-back within a phase, worker `tid` on core
//! `tid % cores` — in chunks of at most [`STREAM_CHUNK`] records.
//!
//! That order is exactly the order `dg-system`'s `run_phases` issues
//! accesses in, so a global access index in this stream addresses the
//! same access in a sampled hybrid run: the profiling pass and the
//! sampled executor agree on what "interval `[s, e)`" means.
//!
//! Unlike [`dg_mem::RecordingMemory`], which accumulates the whole
//! trace in a `Vec`, the recorder here holds at most one chunk of
//! records — streaming a paper-scale kernel costs one chunk of memory,
//! not gigabytes.

use crate::{prepare, Kernel};
use dg_mem::stream::{StreamChunk, TraceStream, STREAM_CHUNK};
use dg_mem::{
    load_into, store_from, Access, AccessKind, Addr, AnnotationTable, Memory, MemoryImage,
};

/// A [`TraceStream`] over a kernel's functional execution.
#[derive(Debug)]
pub struct KernelSource<'k> {
    kernel: &'k dyn Kernel,
    threads: usize,
    cores: usize,
}

impl<'k> KernelSource<'k> {
    /// Stream `kernel` run by `threads` workers on `cores` cores (the
    /// runner's `tid % cores` placement).
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `cores` is zero.
    pub fn new(kernel: &'k dyn Kernel, threads: usize, cores: usize) -> Self {
        assert!(threads > 0 && cores > 0);
        KernelSource { kernel, threads, cores }
    }
}

impl TraceStream for KernelSource<'_> {
    fn cores(&self) -> usize {
        self.cores
    }

    fn visit(&mut self, start: u64, end: u64, sink: &mut dyn FnMut(u64, StreamChunk<'_>)) {
        let mut p = prepare(self.kernel);
        let mut rec = StreamRecorder {
            image: &mut p.image,
            annots: &p.annotations,
            core: 0,
            next: 0,
            start,
            end,
            base: 0,
            pending_think: 0,
            buf: Vec::with_capacity(STREAM_CHUNK),
            sink,
        };
        'run: for phase in 0..self.kernel.phases() {
            for tid in 0..self.threads {
                if rec.next >= end {
                    // Everything past the window is irrelevant to this
                    // visit; the next visit re-prepares from scratch.
                    break 'run;
                }
                rec.core = tid % self.cores;
                self.kernel.run_phase(&mut rec, phase, tid, self.threads);
            }
        }
        rec.flush();
    }
}

/// Bounded-memory recording [`Memory`]: forwards every access to the
/// functional image and streams the records falling in the index
/// window out through the sink, one chunk at a time.
struct StreamRecorder<'a, 's> {
    image: &'a mut MemoryImage,
    annots: &'a AnnotationTable,
    core: usize,
    next: u64,
    start: u64,
    end: u64,
    base: u64,
    pending_think: u32,
    buf: Vec<(usize, Access)>,
    sink: &'s mut (dyn for<'c> FnMut(u64, StreamChunk<'c>) + 's),
}

impl StreamRecorder<'_, '_> {
    fn record(&mut self, addr: Addr, kind: AccessKind, size: usize, data: Option<[u8; 8]>) {
        let idx = self.next;
        self.next += 1;
        let think = std::mem::take(&mut self.pending_think);
        if idx < self.start || idx >= self.end {
            return;
        }
        if self.buf.is_empty() {
            self.base = idx;
        }
        self.buf.push((
            self.core,
            Access {
                addr,
                kind,
                size: size as u8,
                approx: self.annots.is_approx(addr),
                think,
                data,
            },
        ));
        if self.buf.len() == STREAM_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            (self.sink)(self.base, &self.buf);
            self.buf.clear();
        }
    }
}

impl StreamRecorder<'_, '_> {
    #[inline(always)]
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        addr.offset_of_access(buf.len());
        self.record(addr, AccessKind::Load, buf.len(), None);
        load_into(self.image, addr, buf);
    }

    #[inline(always)]
    fn store(&mut self, addr: Addr, bytes: &[u8]) {
        addr.offset_of_access(bytes.len());
        self.record(addr, AccessKind::Store, bytes.len(), Some(Access::payload_of(bytes)));
        store_from(self.image, addr, bytes);
    }
}

impl Memory for StreamRecorder<'_, '_> {
    dg_mem::memory_access_methods!(Self::load, Self::store);

    fn think(&mut self, ops: u32) {
        self.pending_think = self.pending_think.saturating_add(ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Blackscholes;
    use dg_mem::RecordingMemory;

    /// The reference: record the same phase-major order with the
    /// unbounded recorder.
    fn reference(kernel: &dyn Kernel, threads: usize, cores: usize) -> Vec<(usize, Access)> {
        let p = prepare(kernel);
        let mut image = p.image;
        let mut rec = RecordingMemory::new(&mut image, &p.annotations);
        let mut out = Vec::new();
        for phase in 0..kernel.phases() {
            for tid in 0..threads {
                let before = rec.recorded();
                kernel.run_phase(&mut rec, phase, tid, threads);
                let n = rec.recorded() - before;
                out.extend(std::iter::repeat(tid % cores).take(n));
            }
        }
        rec.into_accesses().into_iter().zip(out).map(|(a, c)| (c, a)).collect()
    }

    #[test]
    fn stream_matches_the_unbounded_recorder() {
        let kernel = Blackscholes::new(128, 11);
        let expected = reference(&kernel, 4, 4);
        let mut src = KernelSource::new(&kernel, 4, 4);
        assert_eq!(src.total_accesses(), expected.len() as u64);
        let mut seen = Vec::new();
        src.visit(0, u64::MAX, &mut |base, chunk| {
            for (off, rec) in chunk.iter().enumerate() {
                seen.push((base + off as u64, *rec));
            }
        });
        assert_eq!(seen.len(), expected.len());
        for (idx, rec) in &seen {
            assert_eq!(rec, &expected[*idx as usize], "index {idx}");
        }
    }

    #[test]
    fn windows_are_position_stable() {
        let kernel = Blackscholes::new(128, 11);
        let mut src = KernelSource::new(&kernel, 4, 4);
        let n = src.total_accesses();
        assert!(n > 1000);
        let expected = reference(&kernel, 4, 4);
        let (s, e) = (n / 3, n / 3 + 500);
        let mut seen = Vec::new();
        src.visit(s, e, &mut |base, chunk| {
            for (off, rec) in chunk.iter().enumerate() {
                seen.push((base + off as u64, *rec));
            }
        });
        assert_eq!(seen.len(), 500);
        for (idx, rec) in &seen {
            assert!((s..e).contains(idx));
            assert_eq!(rec, &expected[*idx as usize]);
        }
    }
}
