//! Property tests for interval selection (dg-check harness).
//!
//! These pin the two contracts the sampled-simulation pipeline depends
//! on: selection is bit-identical regardless of the worker count of the
//! pool it runs on (the whole pipeline is serial by construction, and
//! this test keeps it that way), and reconstruction weights always sum to 1
//! within 1 ulp — including on adversarial phase-free (every interval
//! different) and single-phase (every interval identical) traces.

use dg_check::{props, vec};
use dg_obs::Hist64;
use dg_sample::{profile, select, IntervalFeatures, Profile, SampleSchedule, VALUE_BINS};
use dg_mem::{Addr, SynthPattern, SynthStream, TenantSpec};
use dg_par::Pool;

/// A synthetic interval profile built directly from generated feature
/// values; `phase_free = true` gives every interval distinct features,
/// otherwise all intervals share the first generated feature row.
fn build_profile(rows: &[(u32, u32, u32, u64)], single_phase: bool) -> Profile {
    let interval_len = 1024u64;
    let intervals: Vec<IntervalFeatures> = rows
        .iter()
        .map(|&(loads, stores, approx, value)| {
            let (loads, stores) = (loads as u64 % 1024, stores as u64 % 1024);
            let accesses = (loads + stores).max(1);
            let mut value_bins = [0u32; VALUE_BINS];
            value_bins[Hist64::bucket_of(value)] = 1;
            IntervalFeatures {
                accesses,
                loads,
                stores,
                approx: approx as u64 % (accesses + 1),
                think: 0,
                distinct_blocks: (accesses / 2).max(1),
                new_blocks: accesses / 4,
                value_bins,
            }
        })
        .collect();
    let intervals = if single_phase {
        let first = intervals[0].clone();
        vec![first; rows.len()].into_iter().collect()
    } else {
        intervals
    };
    Profile {
        interval_len,
        total_accesses: rows.len() as u64 * interval_len,
        intervals,
    }
}

props! {
    cases = 12;

    /// Same seed ⇒ bit-identical selection and schedule whether the
    /// pipeline's jobs run on one worker or on four: profile → select →
    /// schedule is serial and must not observe the pool it runs on.
    fn selection_ignores_worker_count(seed in 0u64..1 << 40, k in 2usize..9) {
        let pipeline = |salt: u64| {
            move || {
                let mut s = SynthStream::new(
                    vec![
                        TenantSpec {
                            base: Addr(0x1_0000),
                            blocks: 512,
                            pattern: SynthPattern::Zipf { theta: 0.9 },
                            store_sixteenths: 6,
                            approx: true,
                        },
                        TenantSpec {
                            base: Addr(0x200_0000),
                            blocks: 1024,
                            pattern: SynthPattern::Uniform,
                            store_sixteenths: 2,
                            approx: false,
                        },
                    ],
                    24_000,
                    seed ^ salt,
                );
                let p = profile(&mut s, 1024);
                (select(&p, k, seed), SampleSchedule::build(&p, k, 512, seed))
            }
        };
        let run = |workers| Pool::with_workers(workers).run((0..4).map(pipeline).collect());
        let (serial, parallel) = (run(1), run(4));
        assert_eq!(serial, parallel, "selection must not depend on the worker count");
        for ((_, a), (_, b)) in serial.iter().zip(&parallel) {
            assert_eq!(a.regions(), b.regions());
        }
    }
}

props! {
    /// Phase-free adversary: every interval has distinct random
    /// features. Weights still sum to 1 within 1 ulp and clusters
    /// partition the interval set.
    fn weights_sum_to_one_on_phase_free_traces(
        rows in vec((0u32..1024, 0u32..1024, 0u32..2048, 0u64..u64::MAX), 1..40),
        k in 1usize..10,
        seed in 0u64..1 << 40,
    ) {
        let p = build_profile(&rows, false);
        let sel = select(&p, k, seed);
        let sum: f64 = sel.intervals.iter().map(|s| s.weight).sum();
        assert!(
            (sum - 1.0).abs() <= f64::EPSILON,
            "weights sum to {sum}, off by {} ulps-at-1", (sum - 1.0).abs() / f64::EPSILON
        );
        let covered: usize = sel.intervals.iter().map(|s| s.cluster_size).sum();
        assert_eq!(covered, rows.len(), "clusters must partition the intervals");
        for w in sel.intervals.windows(2) {
            assert!(w[0].index < w[1].index, "selection must be sorted and duplicate-free");
        }
    }

    /// Single-phase adversary: every interval identical. Selection
    /// must collapse rather than fabricate k clusters, and the (single
    /// or few) weights still sum to exactly 1.
    fn weights_sum_to_one_on_single_phase_traces(
        row in (0u32..1024, 0u32..1024, 0u32..2048, 0u64..u64::MAX),
        m in 1usize..40,
        k in 1usize..10,
        seed in 0u64..1 << 40,
    ) {
        let rows = std::vec![row; m];
        let p = build_profile(&rows, true);
        let sel = select(&p, k, seed);
        let sum: f64 = sel.intervals.iter().map(|s| s.weight).sum();
        assert!((sum - 1.0).abs() <= f64::EPSILON, "weights sum to {sum}");
        if m > k {
            assert_eq!(
                sel.intervals.len(), 1,
                "identical intervals must collapse to a single cluster"
            );
        }
    }
}
