//! Deterministic k-medoids interval selection.

use crate::features::Profile;
use dg_mem::synth::SplitMix64;

/// One representative interval chosen by [`select`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectedInterval {
    /// Interval index into the [`Profile`] it was selected from.
    pub index: usize,
    /// This interval's weight in full-run reconstruction: its cluster's
    /// share of all intervals. Weights over a selection sum to 1.
    pub weight: f64,
    /// Number of intervals assigned to this medoid's cluster.
    pub cluster_size: usize,
}

/// The set of representative intervals, sorted by interval index.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// Selected intervals, ascending by `index`.
    pub intervals: Vec<SelectedInterval>,
    /// Total number of profiled intervals the weights refer to.
    pub total_intervals: usize,
}

/// Squared Euclidean distance between feature vectors.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Higham's γ_k = k·u / (1 − k·u): the relative error bound of a
/// product of `k` rounded operations, u = 2⁻⁵³.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (f64::EPSILON / 2.0);
    ku / (1.0 - ku)
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
///    index. The medoid update screens a cluster's members with a
///    closed form in O(|C|·d) and scores only the near-ties by the
///    exhaustive ordered sum, so it returns that sum's winner bit for
///    bit.
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
    if m <= k {
        let mut intervals: Vec<SelectedInterval> = (0..m)
            .map(|index| SelectedInterval { index, weight: 1.0 / m as f64, cluster_size: 1 })
            .collect();
        fix_weight_residual(&mut intervals);
        return Selection { intervals, total_intervals: m };
    }
    // One row-major m × d buffer; `rows[i]` is interval i's vector.
    let flat: Vec<f64> = profile.intervals.iter().flat_map(|f| f.to_vector()).collect();
    let rows: Vec<&[f64]> = flat.chunks_exact(flat.len() / m).collect();

    // Seeded initial medoid; the rest farthest-first. `nearest[i]` is
    // interval i's distance to its nearest medoid so far, lowered as
    // medoids are added: `min` is exact, so it is the value a rescan
    // over every medoid would give.
    let mut rng = SplitMix64::new(seed ^ (m as u64).rotate_left(17));
    let first = rng.below(m as u64) as usize;
    let mut medoids: Vec<usize> = vec![first];
    let mut is_medoid = vec![false; m];
    is_medoid[first] = true;
    let mut nearest: Vec<f64> = rows.iter().map(|v| dist2(v, rows[first])).collect();
    while medoids.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for (i, &d) in nearest.iter().enumerate() {
            if !is_medoid[i] && best.is_none_or(|(_, bd)| d > bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, d)) if d > 0.0 => {
                medoids.push(i);
                is_medoid[i] = true;
                for (near, v) in nearest.iter_mut().zip(&rows) {
                    *near = near.min(dist2(v, rows[i]));
                }
            }
            // All remaining points coincide with a medoid: more
            // clusters would only split identical intervals.
            _ => break,
        }
    }

    let norms: Vec<f64> = rows.iter().map(|v| dot(v, v)).collect();
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); medoids.len()];
    for _ in 0..32 {
        // Assign every interval to its nearest medoid (first wins on
        // ties — medoid order is deterministic). Members are pushed in
        // ascending index order.
        clusters.iter_mut().for_each(Vec::clear);
        for (i, v) in rows.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::MAX;
            for (slot, &mi) in medoids.iter().enumerate() {
                let d = dist2(v, rows[mi]);
                if d < best_d {
                    best_d = d;
                    best = slot;
                }
            }
            clusters[best].push(i);
        }
        // Move each medoid to the cluster member minimizing the total
        // intra-cluster distance (lowest index on ties).
        let mut changed = false;
        for (medoid, members) in medoids.iter_mut().zip(&clusters) {
            if let Some(best) = cluster_medoid(&rows, &norms, members) {
                changed |= best != *medoid;
                *medoid = best;
            }
        }
        if !changed {
            break;
        }
    }

    let mut intervals: Vec<SelectedInterval> = medoids
        .iter()
        .zip(&clusters)
        .map(|(&index, members)| {
            let cluster_size = members.len();
            SelectedInterval { index, weight: cluster_size as f64 / m as f64, cluster_size }
        })
        .filter(|s| s.cluster_size > 0)
        .collect();
    intervals.sort_by_key(|s| s.index);
    fix_weight_residual(&mut intervals);
    Selection { intervals, total_intervals: m }
}

/// The member of `members` (ascending interval indices) whose cost
/// F(c) — the ordered sum of `dist2(c, o)` over every member o, as
/// floating point evaluates it — is least, lowest index on ties; `None`
/// for an empty cluster. `norms[i]` is `dot(rows[i], rows[i])`.
///
/// Scoring every member by F costs O(n²·d) for n members. Instead each
/// member first gets the closed form A(c) = n·‖c‖² − 2·c·S + Q, with
/// S = Σ o and Q = Σ ‖o‖² taken once: O(n·d) for the cluster. In exact
/// arithmetic A = F. In floating point both are sums of products whose
/// magnitudes total at most Σ_o Σ_j (|c_j| + |o_j|)² ≤ 2B, with
/// B = n·max‖c‖² + Q, each product passing through at most
/// K = n + d + 3 roundings. Each form is therefore within γ_K·2B of the
/// exact sum, and |A(c) − F(c)| ≤ δ = 4γ_K·B for every member. (The
/// components are counts over counts, so no product underflows.) With
/// c_A the minimizer of A and c* that of F:
///
/// - A(c*) ≤ F(c*) + δ ≤ F(c_A) + δ ≤ min A + 2δ, so c* survives the
///   screen A(c) ≤ min A + 2δ;
/// - a member with A(c) > min A + 2δ has F(c) > min A + δ ≥ F(c_A),
///   so it is not a minimizer of F.
///
/// The survivors are scored by F itself, in ascending index order with
/// a strict `<`, which returns exactly the exhaustive scan's member.
fn cluster_medoid(rows: &[&[f64]], norms: &[f64], members: &[usize]) -> Option<usize> {
    if members.is_empty() {
        return None;
    }
    let n = members.len();
    let mut sum = vec![0.0f64; rows[0].len()];
    let mut q = 0.0f64;
    let mut max_norm = 0.0f64;
    for &o in members {
        for (s, x) in sum.iter_mut().zip(rows[o]) {
            *s += x;
        }
        q += norms[o];
        max_norm = max_norm.max(norms[o]);
    }
    let scores: Vec<f64> =
        members.iter().map(|&c| n as f64 * norms[c] - 2.0 * dot(rows[c], &sum) + q).collect();
    let min_score = scores.iter().copied().fold(f64::MAX, f64::min);
    // 2δ = 8γ_K·B; the second factor of two covers the rounding of B,
    // γ_K and this sum, each a relative u-sized error (n ≪ 1/u).
    let limit = min_score + 16.0 * gamma(n + sum.len() + 3) * (n as f64 * max_norm + q);

    let mut best = None;
    let mut best_cost = f64::MAX;
    for (&cand, _) in members.iter().zip(&scores).filter(|&(_, &a)| a <= limit) {
        // The terms are non-negative, so the running sum never
        // decreases: once it reaches `best_cost` the finished sum
        // cannot be below it, and the candidate is dropped with the
        // same outcome the full sum would have had.
        let mut cost = 0.0f64;
        for &o in members {
            cost += dist2(rows[cand], rows[o]);
            if cost >= best_cost {
                break;
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best = Some(cand);
        }
    }
    best
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::profile;
    use dg_mem::{Addr, SynthPattern, SynthStream, TenantSpec};

    fn stream() -> SynthStream {
        SynthStream::new(
            vec![
                TenantSpec {
                    base: Addr(0x1_0000),
                    blocks: 256,
                    pattern: SynthPattern::Zipf { theta: 0.8 },
                    store_sixteenths: 4,
                    approx: true,
                },
                TenantSpec {
                    base: Addr(0x100_0000),
                    blocks: 2048,
                    pattern: SynthPattern::Uniform,
                    store_sixteenths: 2,
                    approx: false,
                },
            ],
            30_000,
            3,
        )
    }

    #[test]
    fn selection_is_deterministic_and_weighted() {
        let p = profile(&mut stream(), 1024);
        let a = select(&p, 6, 42);
        let b = select(&p, 6, 42);
        assert_eq!(a, b);
        assert!(!a.intervals.is_empty() && a.intervals.len() <= 6);
        assert_eq!(a.total_intervals, p.intervals.len());
        let covered: usize = a.intervals.iter().map(|s| s.cluster_size).sum();
        assert_eq!(covered, p.intervals.len(), "every interval belongs to one cluster");
        let sum: f64 = a.intervals.iter().map(|s| s.weight).sum();
        assert!((sum - 1.0).abs() <= f64::EPSILON, "weights sum to {sum}");
        for w in a.intervals.windows(2) {
            assert!(w[0].index < w[1].index, "selection sorted by interval index");
        }
    }

    #[test]
    fn different_seeds_may_pick_different_medoids_but_stay_valid() {
        let p = profile(&mut stream(), 1024);
        for seed in [1u64, 2, 3, 0xdead] {
            let s = select(&p, 4, seed);
            let sum: f64 = s.intervals.iter().map(|x| x.weight).sum();
            assert!((sum - 1.0).abs() <= f64::EPSILON);
            for sel in &s.intervals {
                assert!(sel.index < p.intervals.len());
                assert!(sel.cluster_size > 0);
            }
        }
    }

    #[test]
    fn tiny_profiles_select_everything() {
        let p = profile(&mut stream(), 8192);
        let m = p.intervals.len();
        let s = select(&p, m + 3, 9);
        assert_eq!(s.intervals.len(), m);
        for (i, sel) in s.intervals.iter().enumerate() {
            assert_eq!(sel.index, i);
            assert_eq!(sel.cluster_size, 1);
        }
        let sum: f64 = s.intervals.iter().map(|x| x.weight).sum();
        assert!((sum - 1.0).abs() <= f64::EPSILON);
    }

    #[test]
    fn identical_intervals_collapse_to_one_cluster() {
        // A single sequential tenant produces near-identical interval
        // features once the working set saturates; farthest-first must
        // not manufacture k distinct clusters out of duplicates.
        let mut s = SynthStream::new(
            vec![TenantSpec {
                base: Addr(0x4000),
                blocks: 16,
                pattern: SynthPattern::Sequential { stride: 1 },
                store_sixteenths: 0,
                approx: false,
            }],
            16_384,
            5,
        );
        let p = profile(&mut s, 1024);
        let sel = select(&p, 8, 7);
        assert!(!sel.intervals.is_empty());
        let sum: f64 = sel.intervals.iter().map(|x| x.weight).sum();
        assert!((sum - 1.0).abs() <= f64::EPSILON);
    }
}
