//! Test-only reference implementations the optimized `dg_sample` code
//! is held to, bit for bit. Shared by `dg-sample/tests/select_reference.rs`
//! and `dg-bench/tests/sample_reference.rs` (which includes this file by
//! path).
//!
//! - [`select`] is the exhaustive k-medoids: farthest-first by a full
//!   rescan of every medoid, and a medoid update that scores every
//!   cluster member by its ordered distance sum, O(|C|²·d).
//! - [`profile`] is the two-set profiler: a trace-wide `seen` set for
//!   new blocks and a per-interval `current` set, cleared at every
//!   interval boundary, for distinct blocks.

// Kept as it was written, lints included.
#![allow(clippy::unnecessary_map_or, clippy::needless_range_loop)]

use dg_mem::synth::SplitMix64;
use dg_mem::{AccessKind, TraceStream};
use dg_obs::Hist64;
use dg_par::FxHashSet;
use dg_sample::{IntervalFeatures, Profile, SelectedInterval, Selection, VALUE_BINS};

/// Squared Euclidean distance between feature vectors.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Pick at most `k` representative intervals from `profile` by
/// clustering interval feature vectors with a serial k-medoids.
///
/// The algorithm is deliberately sequential and fully ordered, so the
/// same `(profile, k, seed)` produces a bit-identical [`Selection`] on
/// every host and under every `DG_PAR_THREADS` setting:
///
/// 1. The first medoid is a seeded draw from the interval indices.
/// 2. Remaining medoids are farthest-first: the interval with the
///    greatest distance to its nearest existing medoid (ties broken
///    toward the lowest index). If every remaining interval coincides
///    with a medoid, fewer than `k` clusters are returned.
/// 3. Assignment / medoid-update sweeps run to a fixed point (bounded
///    iteration count), with all ties again broken toward the lowest
///    index.
///
/// Weights are `cluster_size / total_intervals`, with the largest
/// cluster absorbing the floating-point residual so the weights sum to
/// 1 within 1 ulp.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn select(profile: &Profile, k: usize, seed: u64) -> Selection {
    assert!(k > 0, "k must be positive");
    let m = profile.intervals.len();
    if m == 0 {
        return Selection { intervals: Vec::new(), total_intervals: 0 };
    }
    let vectors: Vec<Vec<f64>> = profile.intervals.iter().map(|f| f.to_vector()).collect();
    if m <= k {
        let mut intervals: Vec<SelectedInterval> = (0..m)
            .map(|index| SelectedInterval { index, weight: 1.0 / m as f64, cluster_size: 1 })
            .collect();
        fix_weight_residual(&mut intervals);
        return Selection { intervals, total_intervals: m };
    }

    // Seeded initial medoid; the rest farthest-first.
    let mut rng = SplitMix64::new(seed ^ (m as u64).rotate_left(17));
    let mut medoids: Vec<usize> = vec![rng.below(m as u64) as usize];
    while medoids.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for (i, v) in vectors.iter().enumerate() {
            if medoids.contains(&i) {
                continue;
            }
            let d = medoids.iter().map(|&mi| dist2(v, &vectors[mi])).fold(f64::MAX, f64::min);
            if best.map_or(true, |(_, bd)| d > bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, d)) if d > 0.0 => medoids.push(i),
            // All remaining points coincide with a medoid: more
            // clusters would only split identical intervals.
            _ => break,
        }
    }

    let mut assign = vec![0usize; m];
    for _ in 0..32 {
        // Assign every interval to its nearest medoid (first wins on
        // ties — medoid order is deterministic).
        for (i, v) in vectors.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::MAX;
            for (slot, &mi) in medoids.iter().enumerate() {
                let d = dist2(v, &vectors[mi]);
                if d < best_d {
                    best_d = d;
                    best = slot;
                }
            }
            assign[i] = best;
        }
        // Move each medoid to the cluster member minimizing the total
        // intra-cluster distance (lowest index on ties).
        let mut changed = false;
        for slot in 0..medoids.len() {
            let members: Vec<usize> =
                (0..m).filter(|&i| assign[i] == slot).collect();
            let mut best = medoids[slot];
            let mut best_cost = f64::MAX;
            for &cand in &members {
                // The terms are non-negative, so the running sum never
                // decreases: once it reaches `best_cost` the finished
                // sum cannot be below it, and the candidate is dropped
                // with the same outcome the full sum would have had.
                let mut cost = 0.0f64;
                for &o in &members {
                    cost += dist2(&vectors[cand], &vectors[o]);
                    if cost >= best_cost {
                        break;
                    }
                }
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                }
            }
            if best != medoids[slot] {
                medoids[slot] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut intervals: Vec<SelectedInterval> = medoids
        .iter()
        .enumerate()
        .map(|(slot, &index)| {
            let cluster_size = assign.iter().filter(|&&s| s == slot).count();
            SelectedInterval { index, weight: cluster_size as f64 / m as f64, cluster_size }
        })
        .filter(|s| s.cluster_size > 0)
        .collect();
    intervals.sort_by_key(|s| s.index);
    fix_weight_residual(&mut intervals);
    Selection { intervals, total_intervals: m }
}

/// Make the weights sum to 1 within 1 ulp by assigning the largest
/// cluster (lowest index on ties) the exact residual of the others.
fn fix_weight_residual(intervals: &mut [SelectedInterval]) {
    if intervals.is_empty() {
        return;
    }
    let largest = intervals
        .iter()
        .enumerate()
        .max_by(|(ai, a), (bi, b)| {
            a.cluster_size.cmp(&b.cluster_size).then(bi.cmp(ai))
        })
        .map(|(i, _)| i)
        .unwrap();
    let others: f64 =
        intervals.iter().enumerate().filter(|&(i, _)| i != largest).map(|(_, s)| s.weight).sum();
    intervals[largest].weight = 1.0 - others;
}

/// The two-set formulation of `dg_sample::profile`.
pub fn profile<S: TraceStream + ?Sized>(stream: &mut S, interval_len: u64) -> Profile {
    let empty = || IntervalFeatures {
        accesses: 0,
        loads: 0,
        stores: 0,
        approx: 0,
        think: 0,
        distinct_blocks: 0,
        new_blocks: 0,
        value_bins: [0; VALUE_BINS],
    };
    let mut intervals: Vec<IntervalFeatures> = Vec::new();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut current: FxHashSet<u64> = FxHashSet::default();
    let mut cur_idx: u64 = 0;
    let mut cur = empty();
    let mut total: u64 = 0;

    stream.visit(0, u64::MAX, &mut |base, chunk| {
        for (off, (_core, a)) in chunk.iter().enumerate() {
            let idx = base + off as u64;
            while idx / interval_len > cur_idx {
                cur.distinct_blocks = current.len() as u64;
                intervals.push(std::mem::replace(&mut cur, empty()));
                current.clear();
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
            let block = a.addr.block().0;
            current.insert(block);
            if seen.insert(block) {
                cur.new_blocks += 1;
            }
        }
    });
    if cur.accesses > 0 {
        cur.distinct_blocks = current.len() as u64;
        intervals.push(cur);
    }
    Profile { interval_len, total_accesses: total, intervals }
}
