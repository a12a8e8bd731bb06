//! Every LLC counter is priced, or listed here as carrying no energy.
//!
//! `llc_energy` finds each cost row's counter by name in
//! `LlcCounters::names()`. This test fails on a row whose counter does
//! not exist, and on a counter that no array prices and that
//! `NO_ENERGY` does not list, so a counter added to `LlcCounters` needs
//! a decision: a cost row or a line below.

use dg_system::{LlcCounters, SystemConfig};
use doppelganger::HardwareCost;
use std::collections::BTreeSet;

/// Counters no cost row reads, each with the reason.
const NO_ENERGY: [&str; 23] = [
    // Lookup outcomes. The probes behind them are priced by the array
    // access counters (`precise_*_accesses`, `dopp.tag_array_accesses`,
    // `dopp.mtag_accesses`, `dopp.data_accesses`, `comp.tag_accesses`,
    // `comp.data_seg_accesses`).
    "lookups",
    "hits",
    "dopp.hits",
    "dopp.misses",
    "comp.hits",
    "comp.misses",
    // Insertions, evictions, invalidations and writes: the array work
    // each one does is already in the access counters, and a map it
    // computes in `dopp.map_generations`, a codec pass in
    // `comp.{compressions, recompressions, decompressions}`.
    "dopp.insertions",
    "dopp.shared_insertions",
    "dopp.precise_insertions",
    "dopp.tag_evictions",
    "dopp.data_evictions",
    "dopp.back_invalidations",
    "dopp.writes",
    "dopp.silent_writes",
    "dopp.moved_writes",
    "comp.insertions",
    "comp.evictions",
    "comp.dirty_evictions",
    "comp.invalidations",
    "comp.tag_evictions",
    "comp.expansion_evictions",
    // Sizes, not events: the segments they add up to are priced as
    // `comp.data_seg_accesses`.
    "comp.fill_bytes",
    "comp.fill_segments",
];

/// Every counter some array's cost table reads. The four shipped
/// organizations build every `ArrayConfig` variant.
fn priced() -> BTreeSet<&'static str> {
    let hw = HardwareCost { addr_bits: 32, cores: 4 };
    let organizations = [
        SystemConfig::paper_baseline(),
        SystemConfig::paper_split(),
        SystemConfig::paper_unified(),
        SystemConfig::paper_compressed(2),
    ];
    let arrays =
        organizations.iter().flat_map(|cfg| cfg.llc_arrays().iter().copied().collect::<Vec<_>>());
    arrays
        .flat_map(|a| a.cost_table(&hw).rows)
        .flat_map(|row| row.counters.iter().copied())
        .collect()
}

#[test]
fn every_cost_row_names_an_llc_counter() {
    let names = LlcCounters::names();
    for counter in priced() {
        assert!(
            names.iter().any(|n| n == counter),
            "cost row reads `{counter}`, which LlcCounters does not export"
        );
    }
}

#[test]
fn every_llc_counter_is_priced_or_listed_as_free() {
    let priced = priced();
    let free: BTreeSet<&str> = NO_ENERGY.into_iter().collect();
    assert_eq!(free.len(), NO_ENERGY.len(), "NO_ENERGY lists a counter twice");
    for name in LlcCounters::names() {
        match (priced.contains(name.as_str()), free.contains(name.as_str())) {
            (true, true) => panic!("`{name}` is priced, so it must leave NO_ENERGY"),
            (false, false) => panic!("`{name}` has no cost row: price it or add it to NO_ENERGY"),
            _ => {}
        }
    }
    for name in free {
        assert!(
            LlcCounters::names().iter().any(|n| n == name),
            "NO_ENERGY lists `{name}`, which LlcCounters does not export"
        );
    }
}
