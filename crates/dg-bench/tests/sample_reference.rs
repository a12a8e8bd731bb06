//! The selection pipeline on real profiles, held to the implementations
//! it replaced (`dg-sample/tests/reference/mod.rs`): every small-suite
//! kernel's profile equals the two-set profiler's, and its screened
//! k-medoids selection equals the exhaustive scan's, bit for bit, at
//! every K the sampled runner is swept over.

#[path = "../../dg-sample/tests/reference/mod.rs"]
mod reference;

use dg_bench::experiments::{suite, Scale, SEED};
use dg_bench::sampled::sampling_params;
use dg_workloads::KernelSource;

#[test]
fn small_suite_profiles_and_selections_match_the_references() {
    let scale = Scale::Small;
    let (threads, cores) = (scale.threads(), scale.baseline().cores);
    let interval_len = sampling_params(scale).0;
    for kernel in suite(scale) {
        let name = kernel.name();
        let source = || KernelSource::new(kernel.as_ref(), threads, cores);
        let p = dg_sample::profile(&mut source(), interval_len);
        let old = reference::profile(&mut source(), interval_len);
        assert_eq!(p.total_accesses, old.total_accesses, "{name}");
        assert_eq!(p.intervals, old.intervals, "{name}");
        for k in [2, 4, 8, 12, 16, 24] {
            let bits = |s: dg_sample::Selection| {
                let picked =
                    s.intervals.iter().map(|i| (i.index, i.weight.to_bits(), i.cluster_size));
                (picked.collect::<Vec<_>>(), s.total_intervals)
            };
            assert_eq!(
                bits(dg_sample::select(&p, k, SEED)),
                bits(reference::select(&p, k, SEED)),
                "{name}, K = {k}"
            );
        }
    }
}
