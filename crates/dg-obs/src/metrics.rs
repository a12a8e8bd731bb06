//! A snapshot-time metrics registry.
//!
//! The registry is *not* a hot-path structure: histograms and counters
//! live as plain fields inside the instrumented structs (no locking on
//! per-access paths). At snapshot time — end of a profiled run — those
//! values are gathered into a [`Registry`], a flat, insertion-ordered
//! list of named metrics that `dg-bench` renders to JSON.

use crate::hist::Hist64;
use crate::snapshot::Snapshot;

/// One registered metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated integer.
    Counter(u64),
    /// An instantaneous floating-point measurement.
    Gauge(f64),
    /// A log2-bucketed distribution.
    Hist(Hist64),
}

/// An insertion-ordered collection of named metrics. Names are
/// hierarchical by convention, dot-separated
/// (`"llc.dopp.shared_insertions"`, `"system.access_latency"`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), Metric::Counter(value)));
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), Metric::Gauge(value)));
    }

    /// Register a histogram (cloned into the registry).
    pub fn hist(&mut self, name: impl Into<String>, hist: &Hist64) {
        self.entries.push((name.into(), Metric::Hist(hist.clone())));
    }

    /// Register every metric of a [`Snapshot`] under `prefix.` —
    /// integer metrics as counters, float metrics as gauges.
    pub fn add_snapshot(&mut self, prefix: &str, snap: &dyn Snapshot) {
        for (name, value) in snap.metrics() {
            self.counter(format!("{prefix}.{name}"), value);
        }
        for (name, value) in snap.float_metrics() {
            self.gauge(format!("{prefix}.{name}"), value);
        }
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, Metric)] {
        &self.entries
    }

    /// Look up a metric by exact name (first match).
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;

    impl Snapshot for Fake {
        fn metrics(&self) -> Vec<(String, u64)> {
            vec![("hits".into(), 10), ("misses".into(), 3)]
        }
        fn float_metrics(&self) -> Vec<(&'static str, f64)> {
            vec![("rate", 0.77)]
        }
    }

    #[test]
    fn registry_preserves_insertion_order() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.counter("b", 2);
        r.counter("a", 1);
        let names: Vec<_> = r.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn add_snapshot_prefixes_and_types_metrics() {
        let mut r = Registry::new();
        r.add_snapshot("l1", &Fake);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get("l1.hits"), Some(&Metric::Counter(10)));
        assert_eq!(r.get("l1.misses"), Some(&Metric::Counter(3)));
        assert_eq!(r.get("l1.rate"), Some(&Metric::Gauge(0.77)));
        assert_eq!(r.get("l1.absent"), None);
    }

    #[test]
    fn hist_entries_round_trip() {
        let mut h = Hist64::new();
        h.record(9);
        let mut r = Registry::new();
        r.hist("lat", &h);
        match r.get("lat") {
            Some(Metric::Hist(stored)) => assert_eq!(stored, &h),
            other => panic!("expected hist, got {other:?}"),
        }
    }
}
