//! Every exported counter name, at its position.
//!
//! `--json`, `--profile` and the benchmark digests read the counter
//! structs through `Snapshot::metrics`, by position (the digests hash
//! the values in order) and by name (the exports print them). This test
//! pins both, so a counter added or moved anywhere but at the end of
//! its set is a visible diff here.

use dg_cache::{CacheStats, CompStats};
use dg_obs::Snapshot;
use dg_serve::ServeStats;
use dg_system::LlcCounters;
use doppelganger::DoppStats;

fn names(s: &dyn Snapshot) -> Vec<String> {
    s.metrics().into_iter().map(|(n, _)| n.to_string()).collect()
}

const CACHE: [&str; 7] =
    ["hits", "misses", "insertions", "evictions", "dirty_evictions", "invalidations", "accesses"];

const DOPP: [&str; 16] = [
    "hits",
    "misses",
    "insertions",
    "shared_insertions",
    "precise_insertions",
    "map_generations",
    "tag_evictions",
    "data_evictions",
    "back_invalidations",
    "writes",
    "silent_writes",
    "moved_writes",
    "tag_array_accesses",
    "mtag_accesses",
    "data_accesses",
    "lookups",
];

const COMP: [&str; 15] = [
    "hits",
    "misses",
    "insertions",
    "evictions",
    "dirty_evictions",
    "invalidations",
    "tag_evictions",
    "expansion_evictions",
    "compressions",
    "recompressions",
    "decompressions",
    "tag_accesses",
    "data_seg_accesses",
    "fill_bytes",
    "fill_segments",
];

const SERVE: [&str; 14] = [
    "gets",
    "get_hits",
    "get_misses",
    "puts",
    "put_inserts",
    "put_dedup",
    "put_updates",
    "put_moved",
    "queries",
    "query_exact_hits",
    "query_similar_hits",
    "query_misses",
    "displaced",
    "dirty_writebacks",
];

#[test]
fn counter_sets_export_their_names_in_order() {
    assert_eq!(names(&CacheStats::default()), CACHE);
    assert_eq!(names(&DoppStats::default()), DOPP);
    assert_eq!(names(&CompStats::default()), COMP);
    assert_eq!(names(&ServeStats::default()), SERVE);
    let floats: Vec<&str> = ServeStats::default().float_metrics().iter().map(|(n, _)| *n).collect();
    assert_eq!(floats, ["hit_rate"]);
}

#[test]
fn llc_counters_flatten_scalars_then_dopp_then_comp() {
    let mut expected: Vec<String> =
        ["precise_tag_accesses", "precise_data_accesses", "lookups", "hits", "misses"]
            .map(String::from)
            .into();
    // The nested sets contribute their stored counters, not the derived
    // `lookups` that DoppStats appends.
    expected.extend(DOPP[..15].iter().map(|n| format!("dopp.{n}")));
    expected.extend(COMP.iter().map(|n| format!("comp.{n}")));
    let got = names(&LlcCounters::default());
    assert_eq!(got.len(), 35);
    assert_eq!(got[4], "misses");
    assert_eq!(got, expected);
}
