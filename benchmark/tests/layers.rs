//! The traced run reports exactly the per-layer metrics of
//! `BENCHMARK.json`.

use dg_benchmark::{metrics, probes, trace};
use std::collections::BTreeSet;

#[test]
fn probes_and_layer_shares_cover_every_per_layer_metric_once() {
    let mut measured: Vec<String> = probes::run(5).into_iter().map(|(name, _)| name).collect();
    measured.extend(trace::LAYERS.iter().map(|l| format!("{l}.self_share")));
    measured.push(metrics::TRACED_TAIL.to_string());
    let unique: BTreeSet<&String> = measured.iter().collect();
    assert_eq!(unique.len(), measured.len(), "a metric is measured twice");
    let listed: BTreeSet<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
    assert_eq!(unique.into_iter().cloned().collect::<BTreeSet<_>>(), listed);
}
