//! Executable skip/warm/measure timelines from a selection.

use crate::features::Profile;
use crate::select::{select, SelectedInterval};

/// What the hybrid runner does with a region of the access index space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// Functional warm-up: accesses go through the full cache
    /// hierarchy to prime LLC/directory state, but no statistics are
    /// attributed to the run.
    Warm,
    /// Measured interval: statistics deltas are recorded and weighted
    /// by `slot`'s weight in the schedule's interval list.
    Measure {
        /// Index into [`SampleSchedule::intervals`].
        slot: usize,
    },
}

/// A half-open access-index range `[start, end)` with its execution
/// mode. Gaps between regions are skipped (functionally simulated with
/// no cache model at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First access index in the region.
    pub start: u64,
    /// One past the last access index.
    pub end: u64,
    /// Execution mode.
    pub kind: RegionKind,
}

/// A complete sampling plan for one trace: which intervals to measure,
/// their weights, and how much warm-up precedes each.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSchedule {
    /// Measured interval length in accesses.
    pub interval_len: u64,
    /// Functional warm-up accesses before each measured interval
    /// (clipped against trace start and preceding regions).
    pub warmup_len: u64,
    /// Total accesses in the profiled trace.
    pub total_accesses: u64,
    /// Selected intervals, ascending by index, weights summing to 1.
    pub intervals: Vec<SelectedInterval>,
}

impl SampleSchedule {
    /// Profile-and-select convenience: cluster `profile` into at most
    /// `k` intervals (seeded, deterministic) and attach `warmup_len`.
    ///
    /// The trace's **final interval is always selected**: metrics
    /// computed from final memory state (application output error)
    /// depend on the accesses that write the output, and those
    /// concentrate in the trace tail. A schedule that skips the tail
    /// executes the output writes functionally — exactly — and
    /// structurally underestimates output error no matter how many
    /// body intervals it measures. The tail is therefore pinned as a
    /// singleton cluster of weight `1/m`, and the remaining `k − 1`
    /// medoids cluster the body intervals (weights scaled by
    /// `(m−1)/m`), keeping the weights an exact partition of the
    /// trace.
    ///
    /// For a profile of `m` intervals:
    ///
    /// - `m = 0`: no intervals; the schedule measures nothing.
    /// - `m = 1`: the one interval, which is also the tail, weight 1.
    /// - `k ≥ m`: every interval, each its own cluster (weights `1/m`
    ///   to rounding) — the full-coverage schedule.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, or if `k == 1` and `m ≥ 2`: one interval
    /// cannot be both the pinned tail and the body's representative.
    pub fn build(profile: &Profile, k: usize, warmup_len: u64, seed: u64) -> SampleSchedule {
        let m = profile.intervals.len();
        assert!(k >= 2 || (k == 1 && m <= 1), "k = {k} cannot pin the tail of {m} intervals");
        let intervals = if m >= 2 && k <= m {
            let body = Profile {
                interval_len: profile.interval_len,
                total_accesses: profile.total_accesses,
                intervals: profile.intervals[..m - 1].to_vec(),
            };
            let scale = (m - 1) as f64 / m as f64;
            let mut intervals = select(&body, k - 1, seed).intervals;
            for s in &mut intervals {
                s.weight *= scale;
            }
            intervals.push(SelectedInterval {
                index: m - 1,
                weight: 1.0 / m as f64,
                cluster_size: 1,
            });
            intervals
        } else {
            select(profile, k, seed).intervals
        };
        SampleSchedule {
            interval_len: profile.interval_len,
            warmup_len,
            total_accesses: profile.total_accesses,
            intervals,
        }
    }

    /// The access-index span of selected interval `slot`.
    pub fn interval_span(&self, slot: usize) -> (u64, u64) {
        let s = self.intervals[slot].index as u64 * self.interval_len;
        let e = (s + self.interval_len).min(self.total_accesses);
        (s, e)
    }

    /// The executable timeline: warm and measure regions in ascending
    /// index order, non-overlapping. Warm-up is clipped where it would
    /// run into the trace start or a preceding region (a measured
    /// interval immediately before is at least as good a warm-up as a
    /// functional one).
    pub fn regions(&self) -> Vec<Region> {
        let mut out = Vec::with_capacity(self.intervals.len() * 2);
        let mut prev_end = 0u64;
        for slot in 0..self.intervals.len() {
            let (start, end) = self.interval_span(slot);
            let warm_start = start.saturating_sub(self.warmup_len).max(prev_end);
            if warm_start < start {
                out.push(Region { start: warm_start, end: start, kind: RegionKind::Warm });
            }
            if start < end {
                out.push(Region { start, end, kind: RegionKind::Measure { slot } });
            }
            prev_end = end.max(prev_end);
        }
        out
    }

    /// Fraction of the trace covered by measured intervals.
    pub fn measured_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        let measured: u64 =
            (0..self.intervals.len()).map(|s| { let (a, b) = self.interval_span(s); b - a }).sum();
        measured as f64 / self.total_accesses as f64
    }

    /// Fraction of the trace touched by *detailed* simulation (warm-up
    /// plus measurement) — the cost driver of a sampled run.
    pub fn simulated_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        let simulated: u64 = self.regions().iter().map(|r| r.end - r.start).sum();
        simulated as f64 / self.total_accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(indices: &[(usize, usize)], interval_len: u64, warmup: u64, total: u64) -> SampleSchedule {
        let m: usize = indices.iter().map(|&(_, sz)| sz).sum();
        SampleSchedule {
            interval_len,
            warmup_len: warmup,
            total_accesses: total,
            intervals: indices
                .iter()
                .map(|&(index, cluster_size)| SelectedInterval {
                    index,
                    weight: cluster_size as f64 / m as f64,
                    cluster_size,
                })
                .collect(),
        }
    }

    /// A profile of `m` intervals with distinct load mixes.
    fn profile_of(m: usize) -> Profile {
        use crate::features::{IntervalFeatures, VALUE_BINS};
        let intervals = (0..m as u64)
            .map(|i| IntervalFeatures {
                accesses: 100,
                loads: (i * 37) % 101,
                stores: 100 - (i * 37) % 101,
                approx: i % 3,
                think: 0,
                distinct_blocks: 10 + i % 7,
                new_blocks: i % 5,
                value_bins: [0; VALUE_BINS],
            })
            .collect();
        Profile { interval_len: 100, total_accesses: 100 * m as u64, intervals }
    }

    fn picked(s: &SampleSchedule) -> Vec<(usize, usize)> {
        s.intervals.iter().map(|i| (i.index, i.cluster_size)).collect()
    }

    #[test]
    fn empty_profile_builds_an_empty_schedule() {
        for k in [1, 2, 8] {
            let s = SampleSchedule::build(&profile_of(0), k, 50, 1);
            assert!(s.intervals.is_empty());
            assert!(s.regions().is_empty());
            assert_eq!(s.measured_fraction(), 0.0);
        }
    }

    #[test]
    fn single_interval_is_the_tail_with_weight_one() {
        for k in [1, 2, 8] {
            let s = SampleSchedule::build(&profile_of(1), k, 50, 1);
            assert_eq!(picked(&s), [(0, 1)]);
            assert_eq!(s.intervals[0].weight, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "cannot pin the tail")]
    fn k_of_one_cannot_pin_the_tail_of_a_longer_trace() {
        SampleSchedule::build(&profile_of(5), 1, 50, 1);
    }

    #[test]
    fn k_at_least_m_selects_every_interval() {
        for (m, k) in [(2, 2), (5, 5), (5, 6), (5, 40)] {
            let s = SampleSchedule::build(&profile_of(m), k, 0, 1);
            assert_eq!(picked(&s), (0..m).map(|i| (i, 1)).collect::<Vec<_>>(), "m={m} k={k}");
            let sum: f64 = s.intervals.iter().map(|i| i.weight).sum();
            assert!((sum - 1.0).abs() <= f64::EPSILON, "m={m} k={k}: weights sum to {sum}");
            assert_eq!(s.measured_fraction(), 1.0);
        }
    }

    #[test]
    fn the_tail_is_pinned_below_m() {
        let m = 12;
        for k in 2..m {
            let s = SampleSchedule::build(&profile_of(m), k, 0, 1);
            assert_eq!(s.intervals.last().map(|i| (i.index, i.cluster_size)), Some((m - 1, 1)));
            assert_eq!(s.intervals.last().unwrap().weight, 1.0 / m as f64);
            let covered: usize = s.intervals.iter().map(|i| i.cluster_size).sum();
            assert_eq!(covered, m, "k={k}");
        }
    }

    #[test]
    fn regions_are_ordered_disjoint_and_clipped() {
        // Intervals 0, 3, 4 of a 10-interval trace; warm-up one full
        // interval. Interval 0 has no room for warm-up; interval 4 is
        // preceded by measured interval 3, so its warm-up vanishes.
        let s = schedule(&[(0, 4), (3, 3), (4, 3)], 100, 100, 1000);
        let r = s.regions();
        assert_eq!(
            r,
            vec![
                Region { start: 0, end: 100, kind: RegionKind::Measure { slot: 0 } },
                Region { start: 200, end: 300, kind: RegionKind::Warm },
                Region { start: 300, end: 400, kind: RegionKind::Measure { slot: 1 } },
                Region { start: 400, end: 500, kind: RegionKind::Measure { slot: 2 } },
            ]
        );
        for w in r.windows(2) {
            assert!(w[0].end <= w[1].start, "regions overlap: {w:?}");
        }
        assert!((s.measured_fraction() - 0.3).abs() < 1e-12);
        assert!((s.simulated_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn partial_warmup_clips_against_previous_measure() {
        // Warm-up shorter than the gap: full warm-up emitted.
        let s = schedule(&[(1, 1), (5, 1)], 100, 30, 1000);
        let r = s.regions();
        assert_eq!(r[0], Region { start: 70, end: 100, kind: RegionKind::Warm });
        assert_eq!(r[2], Region { start: 470, end: 500, kind: RegionKind::Warm });
    }

    #[test]
    fn final_partial_interval_is_clipped_to_the_trace() {
        let s = schedule(&[(9, 1)], 100, 50, 950);
        let r = s.regions();
        assert_eq!(
            r,
            vec![
                Region { start: 850, end: 900, kind: RegionKind::Warm },
                Region { start: 900, end: 950, kind: RegionKind::Measure { slot: 0 } },
            ]
        );
    }
}
