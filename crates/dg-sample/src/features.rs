//! Per-interval feature vectors from one cheap streaming pass.

use dg_mem::{AccessKind, TraceStream};
use dg_obs::Hist64;
use dg_par::FxHashMap;
use std::collections::hash_map::Entry;

/// Feature summary of one fixed-length interval of the access stream.
///
/// The fields are chosen to separate the program phases that matter to
/// the cache hierarchy: what mix of loads/stores/approximate traffic
/// the interval issues, how big its working set is, how much of that
/// working set is *new* (capacity pressure), and which value magnitudes
/// its approximate stores write (a proxy for the Doppelgänger map bins
/// it exercises).
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalFeatures {
    /// Accesses in this interval (equals the interval length except for
    /// the final partial interval).
    pub accesses: u64,
    /// Loads in this interval.
    pub loads: u64,
    /// Stores in this interval.
    pub stores: u64,
    /// Accesses touching annotated approximate data.
    pub approx: u64,
    /// Total `think` compute cycles attached to the accesses.
    pub think: u64,
    /// Distinct cache blocks touched within the interval.
    pub distinct_blocks: u64,
    /// Blocks touched here that no earlier interval touched
    /// (working-set growth).
    pub new_blocks: u64,
    /// Log2 histogram of approximate-store payload words: intervals
    /// writing different value magnitudes exercise different map bins.
    /// Bucket `i` is [`Hist64::bucket_of`]'s. Counts only, and `u32`
    /// (an interval holds fewer than 2³² stores): a profile keeps one
    /// of these per interval for as long as it lives.
    pub value_bins: [u32; VALUE_BINS],
}

/// Buckets in [`IntervalFeatures::value_bins`]: one for zero plus one
/// per bit length of a `u64`.
pub const VALUE_BINS: usize = 65;

impl IntervalFeatures {
    fn empty() -> Self {
        IntervalFeatures {
            accesses: 0,
            loads: 0,
            stores: 0,
            approx: 0,
            think: 0,
            distinct_blocks: 0,
            new_blocks: 0,
            value_bins: [0; VALUE_BINS],
        }
    }

    /// The normalized feature vector used for clustering distances.
    ///
    /// All components are fractions in `[0, 1]` (per-access rates and
    /// histogram bucket shares), so no single feature dominates the
    /// Euclidean metric. `think` is scaled by a nominal 64 ops/access
    /// and clamped.
    pub fn to_vector(&self) -> Vec<f64> {
        let n = self.accesses.max(1) as f64;
        let mut v = Vec::with_capacity(6 + VALUE_BINS);
        v.push(self.loads as f64 / n);
        v.push(self.stores as f64 / n);
        v.push(self.approx as f64 / n);
        v.push((self.think as f64 / (64.0 * n)).min(1.0));
        v.push(self.distinct_blocks as f64 / n);
        v.push(self.new_blocks as f64 / n);
        let recorded: u64 = self.value_bins.iter().map(|&c| u64::from(c)).sum();
        let hist_total = recorded.max(1) as f64;
        for &c in &self.value_bins {
            v.push(f64::from(c) / hist_total);
        }
        v
    }
}

/// The result of [`profile`]: one [`IntervalFeatures`] per interval of
/// `interval_len` accesses, in stream order.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Interval length in accesses.
    pub interval_len: u64,
    /// Total accesses in the stream (the final interval may be
    /// shorter).
    pub total_accesses: u64,
    /// Per-interval features, index `i` covering accesses
    /// `[i * interval_len, (i+1) * interval_len)`.
    pub intervals: Vec<IntervalFeatures>,
}

/// One streaming pass over `stream`, computing per-interval features.
///
/// Memory use is bounded by the trace's block working set (one entry
/// per block, holding the last interval that touched it) — no access
/// records are retained.
///
/// # Panics
///
/// Panics if `interval_len == 0`.
pub fn profile<S: TraceStream + ?Sized>(stream: &mut S, interval_len: u64) -> Profile {
    assert!(interval_len > 0, "interval length must be positive");
    let mut intervals: Vec<IntervalFeatures> = Vec::new();
    // Block → index of the last interval that touched it: one probe per
    // access answers both "new to the trace" (vacant) and "new to this
    // interval" (an older index).
    let mut last_touch: FxHashMap<u64, u64> = FxHashMap::default();
    let mut cur_idx: u64 = 0;
    let mut cur = IntervalFeatures::empty();
    let mut total: u64 = 0;

    stream.visit(0, u64::MAX, &mut |base, chunk| {
        for (off, (_core, a)) in chunk.iter().enumerate() {
            let idx = base + off as u64;
            while idx / interval_len > cur_idx {
                intervals.push(std::mem::replace(&mut cur, IntervalFeatures::empty()));
                cur_idx += 1;
            }
            total = total.max(idx + 1);
            cur.accesses += 1;
            match a.kind {
                AccessKind::Load => cur.loads += 1,
                AccessKind::Store => cur.stores += 1,
            }
            if a.approx {
                cur.approx += 1;
                if let Some(data) = a.data {
                    cur.value_bins[Hist64::bucket_of(u64::from_le_bytes(data))] += 1;
                }
            }
            cur.think += a.think as u64;
            match last_touch.entry(a.addr.block().0) {
                Entry::Vacant(e) => {
                    e.insert(cur_idx);
                    cur.new_blocks += 1;
                    cur.distinct_blocks += 1;
                }
                Entry::Occupied(mut e) => {
                    if *e.get() != cur_idx {
                        e.insert(cur_idx);
                        cur.distinct_blocks += 1;
                    }
                }
            }
        }
    });
    if cur.accesses > 0 {
        intervals.push(cur);
    }
    // Grown by doubling; the profile is kept for as long as its
    // schedule is, so hand the slack back.
    intervals.shrink_to_fit();
    Profile { interval_len, total_accesses: total, intervals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{SynthPattern, SynthStream, TenantSpec};

    fn two_phase_stream() -> SynthStream {
        // Tenant 0: sequential precise loads over a small region.
        // Tenant 1: uniform approximate traffic with stores over a
        // large region. Accesses alternate tenants, so every interval
        // mixes both, but working-set growth decays as the footprints
        // saturate.
        SynthStream::new(
            vec![
                TenantSpec {
                    base: dg_mem::Addr(0x1_0000),
                    blocks: 64,
                    pattern: SynthPattern::Sequential { stride: 1 },
                    store_sixteenths: 0,
                    approx: false,
                },
                TenantSpec {
                    base: dg_mem::Addr(0x80_0000),
                    blocks: 4096,
                    pattern: SynthPattern::Uniform,
                    store_sixteenths: 8,
                    approx: true,
                },
            ],
            20_000,
            7,
        )
    }

    #[test]
    fn profile_partitions_the_stream_exactly() {
        let mut s = two_phase_stream();
        let p = profile(&mut s, 1024);
        assert_eq!(p.total_accesses, 20_000);
        assert_eq!(p.intervals.len(), 20); // ceil(20000 / 1024)
        let sum: u64 = p.intervals.iter().map(|f| f.accesses).sum();
        assert_eq!(sum, 20_000);
        for f in &p.intervals[..19] {
            assert_eq!(f.accesses, 1024);
            assert_eq!(f.loads + f.stores, f.accesses);
            assert!(f.distinct_blocks > 0 && f.distinct_blocks <= f.accesses);
            assert!(f.new_blocks <= f.distinct_blocks);
        }
        assert_eq!(p.intervals[19].accesses, 20_000 - 19 * 1024);
        // Working-set growth decays once the footprints saturate.
        let early = p.intervals[0].new_blocks;
        let late = p.intervals[19].new_blocks;
        assert!(late < early, "late interval still discovering blocks: {late} vs {early}");
        // Approximate stores populate the value-bin histogram.
        assert!(p.intervals.iter().any(|f| f.value_bins.iter().any(|&c| c > 0)));
    }

    #[test]
    fn feature_vectors_are_normalized() {
        let mut s = two_phase_stream();
        let p = profile(&mut s, 2048);
        for f in &p.intervals {
            for (i, x) in f.to_vector().iter().enumerate() {
                assert!((0.0..=1.0).contains(x), "component {i} = {x} out of range");
                assert!(x.is_finite());
            }
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let a = profile(&mut two_phase_stream(), 1024);
        let b = profile(&mut two_phase_stream(), 1024);
        assert_eq!(a.intervals, b.intervals);
    }
}
