//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (crate). They are kept in memory and written out as
//! Chrome-trace JSON when the run ends. Nanosecond-scale calls are
//! never timed singly: every span here covers a whole evaluation, a
//! replay, a 16 Ki-access batch or a 4096-request batch.

use dg_bench::json::escape;
use std::time::Instant;

/// Layer name for time spent in the benchmark itself.
pub const HARNESS: &str = "harness";

/// The layers a span can be attributed to, in reporting order.
pub const LAYERS: [&str; 6] =
    ["dg-workloads", "dg-system", "dg-sample", "dg-mem", "dg-serve", HARNESS];

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran, e.g. `evaluate`.
    pub name: &'static str,
    /// The crate the call went into (one of [`LAYERS`]).
    pub layer: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Evaluation index or batch index: spans of one request share it.
    pub request: u64,
}

/// Collects spans on the thread that drives the workload. Pool jobs
/// return their own start/end instants with their results and the
/// driver records them after the batch, so the tracer is never shared.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span { name, layer, start: self.ns(start), end: self.ns(end), parent, request };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span that encloses later ones; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, layer: &'static str, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, layer, now, now, None, request)
    }

    /// Set the end of an [`open`](Tracer::open)ed span to now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.ns(Instant::now());
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its child spans cover. Children that overlap each other (jobs
/// on two workers) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Each layer's share of all self time, in [`LAYERS`] order. Shares sum
/// to 1 when any time was recorded; a layer the workload bypasses
/// reads 0.
pub fn layer_shares(spans: &[Span]) -> Vec<f64> {
    let selfs = self_times(spans);
    let total: u64 = selfs.iter().sum();
    LAYERS
        .iter()
        .map(|layer| {
            let own: u64 =
                spans.iter().zip(&selfs).filter(|(s, _)| s.layer == *layer).map(|(_, t)| t).sum();
            if total == 0 {
                0.0
            } else {
                own as f64 / total as f64
            }
        })
        .collect()
}

/// Render spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
/// Each layer gets its own track; `args` carries the parent index and
/// the request id.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let tid = LAYERS.iter().position(|l| *l == s.layer).unwrap_or(LAYERS.len());
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}{}\n",
            escape(s.name),
            escape(s.layer),
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_bench::json::Json;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "s", layer, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(HARNESS, 0, 100, None),
            // Two overlapping children (parallel jobs) cover 10..60.
            span("dg-system", 10, 50, Some(0)),
            span("dg-system", 30, 60, Some(0)),
            // A grandchild only reduces its own parent.
            span("dg-mem", 35, 45, Some(2)),
            // A child reaching past the parent is clipped to it.
            span("dg-workloads", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20, 10, 30]);
    }

    #[test]
    fn layer_shares_sum_to_one_and_bypassed_layers_read_zero() {
        let spans = vec![
            span(HARNESS, 0, 100, None),
            span("dg-system", 0, 60, Some(0)),
            span("dg-mem", 60, 80, Some(0)),
        ];
        let shares = layer_shares(&spans);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let of = |l: &str| shares[LAYERS.iter().position(|x| *x == l).unwrap()];
        assert_eq!(of("dg-system"), 0.6);
        assert_eq!(of("dg-mem"), 0.2);
        assert_eq!(of(HARNESS), 0.2);
        assert_eq!(of("dg-serve"), 0.0);
        assert_eq!(layer_shares(&[]), vec![0.0; LAYERS.len()]);
    }

    #[test]
    fn tracer_nests_open_spans_and_renders_valid_chrome_json() {
        let mut t = Tracer::new();
        let root = t.open("pass", HARNESS, 0);
        let a = Instant::now();
        let b = Instant::now();
        t.record("evaluate", "dg-system", a, b, Some(root), 7);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let doc = Json::parse(&chrome_json(spans)).expect("chrome trace is JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("dg-system"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("request")).and_then(Json::as_u64),
            Some(7)
        );
    }
}
