//! The optimized selection pipeline against the implementations it
//! replaced (`reference/mod.rs`), bit for bit.
//!
//! `select` screens each cluster's medoid candidates with a closed form
//! and a rounding bound δ before scoring the survivors exhaustively.
//! Its answer can only drift from the exhaustive scan's where the two
//! floating-point forms disagree on the order of near-tied candidates,
//! so the generator below is built to produce exactly those: duplicated
//! rows, rows a few ulps apart, single-phase profiles and components
//! outside `[0, 1]` (a hand-built [`IntervalFeatures`] may count more
//! loads than accesses). With δ = 0, or with the survivors' exact
//! rescoring removed, the first property fails.

mod reference;

use dg_check::{any, props, vec};
use dg_mem::{Addr, SynthPattern, SynthStream, TenantSpec};
use dg_sample::{profile, select, IntervalFeatures, Profile, Selection, VALUE_BINS};

/// Accesses per interval of a `wide` profile. A count in
/// `[WIDE, 2·WIDE)` divides to a component in `[1, 2)`, where one ulp
/// (2⁻⁵²) is a count step of [`ULP_STEP`].
const WIDE: u64 = 1 << 62;
const ULP_STEP: u64 = 1 << 10;

/// Five counts (loads, stores, approx, distinct blocks, new blocks)
/// and two value-histogram buckets with their counts.
type Proto = ((u64, u64, u64, u64, u64), (usize, u32, usize, u32));

/// Row `(p, nudge, field)` copies prototype `p` (mod the prototype
/// count) and adds `nudge` steps to count `field`: whole ulps of a
/// component in `[1, 2)` when `wide`, otherwise 1/1024 of a component
/// in `[0, 4)`.
fn build(protos: &[Proto], rows: &[(usize, u64, usize)], wide: bool) -> Profile {
    let intervals: Vec<IntervalFeatures> = rows
        .iter()
        .map(|&(p, nudge, field)| {
            let ((loads, stores, approx, distinct, new), (ba, ca, bb, cb)) =
                protos[p % protos.len()];
            let mut counts = [loads, stores, approx, distinct, new];
            counts[field] += nudge;
            let (accesses, counts) =
                if wide { (WIDE, counts.map(|c| WIDE + c * ULP_STEP)) } else { (1024, counts) };
            let mut value_bins = [0u32; VALUE_BINS];
            value_bins[ba] += ca;
            value_bins[bb] += cb;
            IntervalFeatures {
                accesses,
                loads: counts[0],
                stores: counts[1],
                approx: counts[2],
                think: 0,
                distinct_blocks: counts[3],
                new_blocks: counts[4],
                value_bins,
            }
        })
        .collect();
    Profile { interval_len: 1024, total_accesses: rows.len() as u64 * 1024, intervals }
}

/// A selection with its weights as bit patterns, so `==` is bit
/// identity.
fn bits(s: &Selection) -> (Vec<(usize, u64, usize)>, usize) {
    let picked = s.intervals.iter().map(|i| (i.index, i.weight.to_bits(), i.cluster_size));
    (picked.collect(), s.total_intervals)
}

props! {
    cases = 48;

    /// Bit-identical `Selection`s on near-tie profiles of up to ~300
    /// intervals, k ∈ 1..25. `dedup` zeroes every nudge, so rows are
    /// exact copies of their prototype (one prototype: single-phase).
    fn screened_select_matches_the_exhaustive_scan(
        protos in vec(
            (
                (0u64..4096, 0u64..4096, 0u64..4096, 0u64..4096, 0u64..4096),
                (0usize..VALUE_BINS, 0u32..8, 0usize..VALUE_BINS, 0u32..8),
            ),
            1..7,
        ),
        rows in vec((0usize..6, 0u64..3, 0usize..5), 2..300),
        wide in any::<bool>(),
        dedup in any::<bool>(),
        k in 1usize..25,
        seed in 0u64..1 << 40,
    ) {
        let rows: Vec<_> =
            rows.into_iter().map(|(p, nudge, f)| (p, if dedup { 0 } else { nudge }, f)).collect();
        let p = build(&protos, &rows, wide);
        assert_eq!(bits(&select(&p, k, seed)), bits(&reference::select(&p, k, seed)));
    }
}

props! {
    cases = 12;

    /// The one-map profiler counts exactly what the two-set profiler
    /// counted, across interval boundaries that do and do not align
    /// with the stream's chunks.
    fn one_probe_profile_matches_the_two_set_profile(
        seed in 0u64..1 << 40,
        interval_len in 1u64..5000,
        accesses in 0u64..30_000,
        hot_blocks in 1u64..4096,
    ) {
        let stream = || {
            SynthStream::new(
                vec![
                    TenantSpec {
                        base: Addr(0x1_0000),
                        blocks: hot_blocks,
                        pattern: SynthPattern::Zipf { theta: 0.9 },
                        store_sixteenths: 6,
                        approx: true,
                    },
                    TenantSpec {
                        base: Addr(0x200_0000),
                        blocks: 8192,
                        pattern: SynthPattern::Sequential { stride: 3 },
                        store_sixteenths: 2,
                        approx: false,
                    },
                ],
                accesses,
                seed,
            )
        };
        let new = profile(&mut stream(), interval_len);
        let old = reference::profile(&mut stream(), interval_len);
        assert_eq!(new.total_accesses, old.total_accesses);
        assert_eq!(new.intervals, old.intervals);
    }
}
