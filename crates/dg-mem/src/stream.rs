//! Chunked, bounded-memory access streams.
//!
//! Full-trace `Vec<Access>` materialization caps the reachable scale: a
//! paper-scale multi-tenant trace is billions of accesses, far beyond
//! what fits in memory. A [`TraceStream`] instead *delivers* the access
//! sequence in bounded chunks (at most [`STREAM_CHUNK`] records alive at
//! a time) in a canonical global order, and supports visiting any
//! `[start, end)` index window — the primitive sampled simulation needs
//! to profile a run cheaply and then seek to its selected intervals.
//!
//! Implementations in the workspace:
//!
//! * [`SynthStream`] — a generated multi-tenant stream whose chunks are
//!   produced from a per-chunk reseeded [`SplitMix64`], so seeking to
//!   any interval is O(chunk) instead of O(prefix): chunk `c`'s content
//!   is a pure function of `(spec, seed, c)` and never depends on the
//!   draws of earlier chunks.
//! * [`stream_trace`] — an adapter over an already-materialized
//!   [`Trace`] (round-robin interleaved order),
//!   for tests and for replaying captured traces through stream-based
//!   consumers.
//! * `dg-workloads`' `KernelSource` — streams a workload kernel's
//!   execution-driven access sequence in the canonical phase-major
//!   order of the system runner.

use crate::synth::SplitMix64;
use crate::{Access, AccessKind, Addr, Trace, BLOCK_BYTES};

/// Maximum records delivered per sink call — the bound on live trace
/// memory for any stream consumer.
pub const STREAM_CHUNK: usize = 4096;

/// A chunk of consecutive stream records: the global index of the first
/// record and `(core, access)` pairs.
pub type StreamChunk<'a> = &'a [(usize, Access)];

/// A replayable access sequence delivered in bounded chunks.
///
/// The stream has a fixed canonical order (the order a simulator would
/// consume it in); `visit` delivers the records whose global indices
/// fall in `[start, end)`, in order, in chunks of at most
/// [`STREAM_CHUNK`]. Visiting is repeatable: two visits of the same
/// window deliver identical records.
pub trait TraceStream {
    /// Number of cores issuing accesses.
    fn cores(&self) -> usize;

    /// Deliver every record with global index in `[start, end)` to
    /// `sink`, in canonical order. Each sink call receives the global
    /// index of the chunk's first record plus the records.
    fn visit(&mut self, start: u64, end: u64, sink: &mut dyn FnMut(u64, StreamChunk<'_>));

    /// Total number of accesses in the stream (counted by a full
    /// visit; implementations with cheaper knowledge override this).
    fn total_accesses(&mut self) -> u64 {
        let mut n = 0u64;
        self.visit(0, u64::MAX, &mut |_, chunk| n += chunk.len() as u64);
        n
    }
}

/// Reference pattern of one synthetic tenant (one core).
#[derive(Clone, Copy, Debug)]
pub enum SynthPattern {
    /// Sequential block walk with the given block stride.
    Sequential {
        /// Blocks advanced per access.
        stride: u64,
    },
    /// Uniform random block references.
    Uniform,
    /// Zipf-distributed block references (block 0 hottest).
    Zipf {
        /// Skew parameter; larger is more skewed. Must be finite and
        /// non-negative.
        theta: f64,
    },
}

/// One synthetic tenant: a reference pattern over a private block range.
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// Base address of the tenant's block range.
    pub base: Addr,
    /// Number of blocks in the range (must be > 0).
    pub blocks: u64,
    /// Reference pattern.
    pub pattern: SynthPattern,
    /// Fraction of accesses that are stores, in 1/16ths (0..=16).
    pub store_sixteenths: u8,
    /// Whether the tenant's accesses are flagged approximate.
    pub approx: bool,
}

/// A generated multi-tenant access stream with O(chunk) seek.
///
/// Accesses interleave round-robin across tenants (access `i` belongs
/// to tenant `i % tenants`). Randomness is drawn from a [`SplitMix64`]
/// reseeded at every [`STREAM_CHUNK`] boundary from `(seed, chunk)`,
/// so `visit(start, …)` only regenerates from the enclosing chunk
/// boundary — never from the beginning of the stream.
#[derive(Clone, Debug)]
pub struct SynthStream {
    tenants: Vec<TenantSpec>,
    /// Zipf CDF per tenant (empty for non-Zipf patterns).
    cdfs: Vec<Vec<f64>>,
    total: u64,
    seed: u64,
}

impl SynthStream {
    /// A stream of `total` accesses over the given tenants.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, a tenant has zero blocks, a store
    /// fraction exceeds 16/16, or a Zipf theta is not a finite
    /// non-negative number.
    pub fn new(tenants: Vec<TenantSpec>, total: u64, seed: u64) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant");
        let cdfs = tenants
            .iter()
            .map(|t| {
                assert!(t.blocks > 0, "tenant needs a non-empty block range");
                assert!(t.store_sixteenths <= 16, "store fraction is out of 16");
                match t.pattern {
                    SynthPattern::Zipf { theta } => {
                        assert!(
                            theta.is_finite() && theta >= 0.0,
                            "zipf theta must be finite and non-negative"
                        );
                        zipf_cdf(t.blocks, theta)
                    }
                    _ => Vec::new(),
                }
            })
            .collect();
        SynthStream { tenants, cdfs, total, seed }
    }

    /// Generate the record at global index `i` using `rng` (already
    /// positioned by the caller's in-chunk replay).
    fn generate(&self, i: u64, rng: &mut SplitMix64) -> (usize, Access) {
        let t = (i % self.tenants.len() as u64) as usize;
        let spec = &self.tenants[t];
        let draw = rng.next_u64();
        let block = match spec.pattern {
            SynthPattern::Sequential { stride } => {
                ((i / self.tenants.len() as u64) * stride) % spec.blocks
            }
            SynthPattern::Uniform => draw % spec.blocks,
            SynthPattern::Zipf { .. } => {
                let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
                let cdf = &self.cdfs[t];
                cdf.partition_point(|&p| p < u) as u64
            }
        };
        let lane = rng.next_u64();
        let addr = Addr(spec.base.0 + block * BLOCK_BYTES as u64 + (lane % 8) * 8);
        let is_store = (lane >> 32) % 16 < spec.store_sixteenths as u64;
        let mut a = if is_store {
            let payload = rng.next_u64().to_le_bytes();
            Access::new(addr, AccessKind::Store, 8).with_data(payload)
        } else {
            Access::new(addr, AccessKind::Load, 8)
        };
        a.approx = spec.approx;
        (t, a)
    }

    fn chunk_rng(&self, chunk: u64) -> SplitMix64 {
        // One warm-up draw decorrelates nearby chunk seeds.
        let mut rng = SplitMix64::new(
            self.seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        );
        rng.next_u64();
        rng
    }
}

impl TraceStream for SynthStream {
    fn cores(&self) -> usize {
        self.tenants.len()
    }

    fn total_accesses(&mut self) -> u64 {
        self.total
    }

    fn visit(&mut self, start: u64, end: u64, sink: &mut dyn FnMut(u64, StreamChunk<'_>)) {
        let end = end.min(self.total);
        if start >= end {
            return;
        }
        let chunk_len = STREAM_CHUNK as u64;
        let mut buf: Vec<(usize, Access)> = Vec::with_capacity(STREAM_CHUNK);
        let mut chunk = start / chunk_len;
        while chunk * chunk_len < end {
            let cbase = chunk * chunk_len;
            let cend = (cbase + chunk_len).min(self.total);
            let mut rng = self.chunk_rng(chunk);
            buf.clear();
            let first = cbase.max(start);
            for i in cbase..cend.min(end) {
                let rec = self.generate(i, &mut rng);
                // Records before the window still consume their draws so
                // in-window content is position-stable, but only the
                // window lands in the buffer.
                if i >= first {
                    buf.push(rec);
                }
            }
            if !buf.is_empty() {
                sink(first, &buf);
            }
            chunk += 1;
        }
    }
}

/// Zipf CDF over `n` blocks with skew `theta` (block 0 hottest).
fn zipf_cdf(n: u64, theta: f64) -> Vec<f64> {
    let n = usize::try_from(n).expect("zipf universe fits in usize");
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(theta);
        cdf.push(acc);
    }
    let norm = acc;
    for p in &mut cdf {
        *p /= norm;
    }
    cdf
}

/// Visit a materialized [`Trace`] as a stream: canonical order is the
/// trace's round-robin interleaving (the replay order), chunked at
/// [`STREAM_CHUNK`].
pub fn stream_trace(trace: &Trace, start: u64, end: u64, sink: &mut dyn FnMut(u64, StreamChunk<'_>)) {
    let mut buf: Vec<(usize, Access)> = Vec::with_capacity(STREAM_CHUNK);
    let mut base = 0u64;
    let mut idx = 0u64;
    for (core, access) in trace.interleaved() {
        if idx >= end {
            break;
        }
        if idx >= start {
            if buf.is_empty() {
                base = idx;
            }
            buf.push((core, *access));
            if buf.len() == STREAM_CHUNK {
                sink(base, &buf);
                buf.clear();
            }
        }
        idx += 1;
    }
    if !buf.is_empty() {
        sink(base, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants(total: u64) -> SynthStream {
        SynthStream::new(
            vec![
                TenantSpec {
                    base: Addr(0),
                    blocks: 256,
                    pattern: SynthPattern::Zipf { theta: 0.9 },
                    store_sixteenths: 4,
                    approx: true,
                },
                TenantSpec {
                    base: Addr(1 << 20),
                    blocks: 512,
                    pattern: SynthPattern::Uniform,
                    store_sixteenths: 0,
                    approx: false,
                },
            ],
            total,
            7,
        )
    }

    fn collect(stream: &mut SynthStream, start: u64, end: u64) -> Vec<(u64, usize, Access)> {
        let mut out = Vec::new();
        stream.visit(start, end, &mut |base, chunk| {
            for (off, (core, a)) in chunk.iter().enumerate() {
                out.push((base + off as u64, *core, *a));
            }
        });
        out
    }

    #[test]
    fn windows_agree_with_the_full_stream() {
        // Seek-to-interval must produce exactly the records a full
        // scan produces at those indices — the contract sampled
        // simulation depends on.
        let mut s = two_tenants(20_000);
        let full = collect(&mut s, 0, u64::MAX);
        assert_eq!(full.len(), 20_000);
        assert_eq!(s.total_accesses(), 20_000);
        for (start, end) in [(0, 100), (4_000, 4_200), (4_095, 4_097), (13_000, 20_000)] {
            let window = collect(&mut s, start, end);
            assert_eq!(window.len(), (end - start) as usize);
            for (i, rec) in window.iter().enumerate() {
                assert_eq!(rec, &full[start as usize + i], "window ({start}, {end}) index {i}");
            }
        }
        // Past-the-end and empty windows are harmless.
        assert!(collect(&mut s, 20_000, 30_000).is_empty());
        assert!(collect(&mut s, 10, 10).is_empty());
    }

    #[test]
    fn chunks_bound_live_memory() {
        let mut s = two_tenants(10_000);
        let mut max_chunk = 0usize;
        let mut n = 0u64;
        s.visit(0, u64::MAX, &mut |_, chunk| {
            max_chunk = max_chunk.max(chunk.len());
            n += chunk.len() as u64;
        });
        assert_eq!(n, 10_000);
        assert!(max_chunk <= STREAM_CHUNK);
    }

    #[test]
    fn tenants_interleave_and_classify() {
        let mut s = two_tenants(1_000);
        let recs = collect(&mut s, 0, u64::MAX);
        for (i, core, a) in &recs {
            assert_eq!(*core, (*i % 2) as usize);
            assert_eq!(a.approx, *core == 0, "tenant 0 is the approximate one");
            if *core == 1 {
                assert!(!a.kind.is_store(), "tenant 1 is read-only");
                assert!(a.addr.0 >= 1 << 20, "tenant ranges are disjoint");
            }
        }
        assert!(
            recs.iter().any(|(_, c, a)| *c == 0 && a.kind.is_store()),
            "tenant 0 stores sometimes"
        );
    }

    #[test]
    fn zipf_tenant_skews_toward_low_blocks() {
        let mut s = two_tenants(40_000);
        let mut hot = 0u64;
        let mut tenant0 = 0u64;
        s.visit(0, u64::MAX, &mut |_, chunk| {
            for (core, a) in chunk {
                if *core == 0 {
                    tenant0 += 1;
                    if a.addr.0 / (BLOCK_BYTES as u64) < 16 {
                        hot += 1;
                    }
                }
            }
        });
        // 16/256 blocks draw well over their uniform 6.25% share.
        assert!(hot as f64 / tenant0 as f64 > 0.2, "{hot}/{tenant0}");
    }

    #[test]
    fn trace_adapter_streams_in_interleaved_order() {
        use crate::{AnnotationTable, MemoryImage, TraceBuilder};
        let mut b = TraceBuilder::new(MemoryImage::new(), AnnotationTable::new(), 2);
        for i in 0..10u64 {
            b.push((i % 2) as usize, Access::new(Addr(i * 64), AccessKind::Load, 4));
        }
        let trace = b.build();
        let expected: Vec<(usize, Access)> =
            trace.interleaved().map(|(c, a)| (c, *a)).collect();
        let mut seen = Vec::new();
        stream_trace(&trace, 2, 7, &mut |base, chunk| {
            for (off, rec) in chunk.iter().enumerate() {
                seen.push((base + off as u64, *rec));
            }
        });
        assert_eq!(seen.len(), 5);
        for (idx, rec) in &seen {
            assert_eq!(rec, &expected[*idx as usize]);
        }
    }
}
