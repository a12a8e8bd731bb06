//! Windowed online monitoring: per-window health observations, detector
//! rules, and a flight recorder for post-mortem incident dumps.
//!
//! The monitor closes the loop the rest of this crate leaves open:
//! spans, metrics and events describe a run *after* it completes,
//! whereas a service needs to notice a shard degrading *while* traffic
//! flows. The integration layer (`dg-serve`) snapshots its counters at
//! window boundaries, diffs them into a [`Window`] of per-shard
//! observations ([`ShardWindow`]), and feeds each window to a
//! [`Monitor`], which evaluates four detector rules:
//!
//! * [`DriftRule`] — measured hit rate vs an analytic (Che
//!   approximation) baseline, alarmed outside the same
//!   `model_tolerance + sigmas·σ` band the offline oracle gate uses.
//! * [`LatencyRule`] — batch-latency tail (p99) regression against a
//!   per-shard EWMA, with warm-up and persistence to ride out host
//!   scheduling noise.
//! * [`ImbalanceRule`] — one shard drawing a disproportionate share of
//!   the window's operations.
//! * [`WatermarkRule`] — displacement-, writeback- and occupancy-rate
//!   ceilings.
//!
//! Every observed window also lands in a fixed-depth [`EventRing`]
//! flight recorder; on alarm, [`Monitor::incident`] packages the last K
//! windows plus the drained global event sink into an [`Incident`] for
//! forensic export (serialization stays in `dg-bench`, as for all
//! observability data).
//!
//! Like everything in this crate the monitor is observation-only: it
//! reads snapshots and produces alarms, and nothing here feeds back
//! into simulation or serving state.

use crate::ring::{self, Event, EventRing};

/// One shard's activity during a single window, expressed as deltas
/// (counts within the window) plus instantaneous gauges.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardWindow {
    /// Shard index.
    pub shard: u32,
    /// Requests the shard served this window.
    pub ops: u64,
    /// Lookups (gets + queries) this window.
    pub lookups: u64,
    /// Lookup hits this window.
    pub hits: u64,
    /// Approximate-data-array displacements this window.
    pub displaced: u64,
    /// Dirty writebacks this window.
    pub dirty_writebacks: u64,
    /// Fraction of the shard's data array occupied at window close.
    pub occupancy: f64,
    /// Median batch latency this window (ns), when latency histograms
    /// are being recorded.
    pub batch_p50_ns: Option<u64>,
    /// p99 batch latency this window (ns), when recorded.
    pub batch_p99_ns: Option<u64>,
}

impl ShardWindow {
    /// Lookup hit rate over the window (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One monitoring window: per-shard observations plus the wall-clock
/// the window spanned.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    /// Monotone window index (0-based from when the monitor was armed).
    pub index: u64,
    /// Host wall-clock the window spanned, in nanoseconds.
    pub wall_ns: u64,
    /// Per-shard observations, indexed by shard.
    pub shards: Vec<ShardWindow>,
    /// Median batch latency across all shards this window (ns).
    pub batch_p50_ns: Option<u64>,
    /// p99 batch latency across all shards this window (ns).
    pub batch_p99_ns: Option<u64>,
}

impl Window {
    /// Total requests served this window.
    pub fn ops(&self) -> u64 {
        self.shards.iter().map(|s| s.ops).sum()
    }

    /// Total lookups this window.
    pub fn lookups(&self) -> u64 {
        self.shards.iter().map(|s| s.lookups).sum()
    }

    /// Total lookup hits this window.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits).sum()
    }

    /// Aggregate hit rate over the window (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Serving throughput over the window in operations per second
    /// (0 when the window spanned no measurable time).
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops() as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// Which detector raised an alarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlarmKind {
    /// Measured hit rate left the Che-predicted confidence band.
    HitRateDrift,
    /// Batch-latency p99 regressed against its EWMA baseline.
    LatencyTail,
    /// One shard drew a disproportionate share of the window's ops.
    ShardImbalance,
    /// A displacement / writeback / occupancy watermark was crossed.
    Watermark,
}

impl AlarmKind {
    /// Stable lowercase name used in exports and incident files.
    pub fn name(self) -> &'static str {
        match self {
            AlarmKind::HitRateDrift => "hit_rate_drift",
            AlarmKind::LatencyTail => "latency_tail",
            AlarmKind::ShardImbalance => "shard_imbalance",
            AlarmKind::Watermark => "watermark",
        }
    }

    /// Parse the stable name back into a kind (for validators).
    pub fn parse(s: &str) -> Option<AlarmKind> {
        match s {
            "hit_rate_drift" => Some(AlarmKind::HitRateDrift),
            "latency_tail" => Some(AlarmKind::LatencyTail),
            "shard_imbalance" => Some(AlarmKind::ShardImbalance),
            "watermark" => Some(AlarmKind::Watermark),
            _ => None,
        }
    }
}

/// A detector firing on one window.
#[derive(Clone, Debug, PartialEq)]
pub struct Alarm {
    /// Index of the window the detector fired on.
    pub window: u64,
    /// Shard the alarm concerns, or `None` for whole-server alarms.
    pub shard: Option<u32>,
    /// Which detector fired.
    pub kind: AlarmKind,
    /// The measured value that tripped the rule.
    pub measured: f64,
    /// The expected / baseline value the rule compared against.
    pub expected: f64,
    /// The threshold (band half-width, multiplier, or watermark) that
    /// was exceeded.
    pub threshold: f64,
    /// Human-readable one-line description.
    pub message: String,
}

/// Hit-rate drift detection against an analytic per-shard baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftRule {
    /// Per-shard predicted hit rates (Che approximation), indexed by
    /// shard; shards beyond this vector are not drift-checked.
    pub baseline: Vec<f64>,
    /// Systematic model error allowance (the oracle gate's 0.04).
    pub model_tolerance: f64,
    /// Sampling-noise multiplier: the band widens by
    /// `sigmas · sqrt(p(1-p)/lookups)`.
    pub sigmas: f64,
    /// Minimum lookups in the window before the shard is judged — a
    /// near-empty window has too much sampling noise to mean anything.
    pub min_lookups: u64,
}

impl DriftRule {
    /// The full alarm band half-width for a predicted rate `p` observed
    /// over `lookups` samples. The edge is inside the band: a shard
    /// alarms only when its deviation is strictly greater.
    pub fn band(&self, p: f64, lookups: u64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let sigma = (p * (1.0 - p) / lookups.max(1) as f64).sqrt();
        self.model_tolerance + self.sigmas * sigma
    }
}

/// EWMA-based batch-latency tail regression detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyRule {
    /// EWMA smoothing factor in `(0, 1]`; higher tracks faster.
    pub alpha: f64,
    /// Alarm when the window's p99 exceeds `multiplier ×` the EWMA.
    pub multiplier: f64,
    /// Windows to observe before judging (the EWMA needs to settle).
    pub warmup_windows: u64,
    /// Consecutive breaching windows required before alarming — host
    /// scheduling noise makes single-window tails unreliable.
    pub persistence: u32,
}

/// Shard load-imbalance detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImbalanceRule {
    /// Alarm when some shard's ops exceed `max_over_mean ×` the
    /// per-shard mean for the window.
    pub max_over_mean: f64,
    /// Minimum total ops in the window before judging.
    pub min_ops: u64,
}

/// Rate / occupancy watermark ceilings, judged per shard per window.
/// Set a field to `f64::INFINITY` to disable that watermark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatermarkRule {
    /// Ceiling on displacements per lookup.
    pub displaced_per_lookup: f64,
    /// Ceiling on dirty writebacks per op.
    pub dirty_per_op: f64,
    /// Ceiling on data-array occupancy at window close.
    pub occupancy: f64,
    /// Minimum lookups in the window before rate watermarks are judged.
    pub min_lookups: u64,
}

impl WatermarkRule {
    /// A rule with every watermark disabled.
    pub fn disabled() -> Self {
        WatermarkRule {
            displaced_per_lookup: f64::INFINITY,
            dirty_per_op: f64::INFINITY,
            occupancy: f64::INFINITY,
            min_lookups: 1,
        }
    }
}

/// Monitor configuration: flight-recorder depth plus the detector
/// rules to arm (each optional).
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorConfig {
    /// How many recent windows the flight recorder keeps (K).
    pub history: usize,
    /// Hit-rate drift detection, if armed.
    pub drift: Option<DriftRule>,
    /// Latency-tail regression detection, if armed.
    pub latency: Option<LatencyRule>,
    /// Shard load-imbalance detection, if armed.
    pub imbalance: Option<ImbalanceRule>,
    /// Watermark ceilings, if armed.
    pub watermark: Option<WatermarkRule>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { history: 16, drift: None, latency: None, imbalance: None, watermark: None }
    }
}

/// Per-shard latency-detector state.
#[derive(Clone, Debug)]
struct LatencyState {
    /// EWMA of the shard's window p99, `None` until seeded.
    ewma: Option<f64>,
    /// Consecutive breaching windows.
    streak: u32,
}

/// The windowed detector engine and flight recorder.
///
/// Feed each closed [`Window`] to [`Monitor::observe`]; it returns the
/// alarms the window raised (empty almost always) and records the
/// window in the flight recorder. On alarm, call [`Monitor::incident`]
/// to package the recorder contents for export.
#[derive(Debug)]
pub struct Monitor {
    cfg: MonitorConfig,
    recorder: EventRing<Window>,
    latency: Vec<LatencyState>,
    windows_seen: u64,
    alarms_raised: u64,
}

impl Monitor {
    /// A monitor with the given configuration and an empty recorder.
    pub fn new(cfg: MonitorConfig) -> Monitor {
        let recorder = EventRing::new(cfg.history);
        Monitor { cfg, recorder, latency: Vec::new(), windows_seen: 0, alarms_raised: 0 }
    }

    /// The configuration the monitor was armed with.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Windows observed since arming.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Total alarms raised since arming.
    pub fn alarms_raised(&self) -> u64 {
        self.alarms_raised
    }

    /// The windows currently held by the flight recorder, oldest first.
    pub fn recorded_windows(&self) -> impl Iterator<Item = &Window> {
        self.recorder.iter()
    }

    /// Evaluate every armed detector against `window`, record it in the
    /// flight recorder, and return the alarms raised (usually none).
    pub fn observe(&mut self, window: Window) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        self.check_drift(&window, &mut alarms);
        self.check_latency(&window, &mut alarms);
        self.check_imbalance(&window, &mut alarms);
        self.check_watermarks(&window, &mut alarms);
        self.windows_seen += 1;
        self.alarms_raised += alarms.len() as u64;
        self.recorder.push(window);
        alarms
    }

    fn check_drift(&self, w: &Window, alarms: &mut Vec<Alarm>) {
        let Some(rule) = &self.cfg.drift else { return };
        for s in &w.shards {
            let Some(&predicted) = rule.baseline.get(s.shard as usize) else { continue };
            if s.lookups < rule.min_lookups {
                continue;
            }
            let measured = s.hit_rate();
            let band = rule.band(predicted, s.lookups);
            if (measured - predicted).abs() > band {
                alarms.push(Alarm {
                    window: w.index,
                    shard: Some(s.shard),
                    kind: AlarmKind::HitRateDrift,
                    measured,
                    expected: predicted,
                    threshold: band,
                    message: format!(
                        "shard {} hit rate {measured:.4} drifted from Che-predicted \
                         {predicted:.4} by more than ±{band:.4} ({} lookups)",
                        s.shard, s.lookups
                    ),
                });
            }
        }
    }

    fn check_latency(&mut self, w: &Window, alarms: &mut Vec<Alarm>) {
        let Some(rule) = self.cfg.latency else { return };
        let warmed = self.windows_seen >= rule.warmup_windows;
        for s in &w.shards {
            let Some(p99) = s.batch_p99_ns else { continue };
            let slot = s.shard as usize;
            if self.latency.len() <= slot {
                self.latency.resize(slot + 1, LatencyState { ewma: None, streak: 0 });
            }
            let state = &mut self.latency[slot];
            let p99 = p99 as f64;
            let Some(ewma) = state.ewma else {
                state.ewma = Some(p99);
                continue;
            };
            if warmed && p99 > rule.multiplier * ewma {
                state.streak += 1;
                if state.streak >= rule.persistence {
                    state.streak = 0;
                    alarms.push(Alarm {
                        window: w.index,
                        shard: Some(s.shard),
                        kind: AlarmKind::LatencyTail,
                        measured: p99,
                        expected: ewma,
                        threshold: rule.multiplier,
                        message: format!(
                            "shard {} batch p99 {p99:.0}ns exceeded {}x its EWMA \
                             baseline {ewma:.0}ns for {} consecutive windows",
                            s.shard, rule.multiplier, rule.persistence
                        ),
                    });
                }
                // A breaching sample is excluded from the EWMA so a
                // sustained regression cannot drag its own baseline up.
            } else {
                state.streak = 0;
                state.ewma = Some((1.0 - rule.alpha) * ewma + rule.alpha * p99);
            }
        }
    }

    fn check_imbalance(&self, w: &Window, alarms: &mut Vec<Alarm>) {
        let Some(rule) = self.cfg.imbalance else { return };
        let shards = w.shards.len();
        let total = w.ops();
        if shards < 2 || total < rule.min_ops {
            return;
        }
        let mean = total as f64 / shards as f64;
        let Some(hottest) = w.shards.iter().max_by_key(|s| s.ops) else { return };
        if hottest.ops as f64 > rule.max_over_mean * mean {
            alarms.push(Alarm {
                window: w.index,
                shard: Some(hottest.shard),
                kind: AlarmKind::ShardImbalance,
                measured: hottest.ops as f64,
                expected: mean,
                threshold: rule.max_over_mean,
                message: format!(
                    "shard {} served {} ops, more than {}x the per-shard mean {mean:.1}",
                    hottest.shard, hottest.ops, rule.max_over_mean
                ),
            });
        }
    }

    fn check_watermarks(&self, w: &Window, alarms: &mut Vec<Alarm>) {
        let Some(rule) = self.cfg.watermark else { return };
        for s in &w.shards {
            if s.lookups >= rule.min_lookups {
                let displaced = s.displaced as f64 / s.lookups as f64;
                if displaced > rule.displaced_per_lookup {
                    alarms.push(Self::watermark_alarm(
                        w.index,
                        s.shard,
                        displaced,
                        rule.displaced_per_lookup,
                        "displacements per lookup",
                    ));
                }
            }
            if s.ops > 0 && s.lookups >= rule.min_lookups {
                let dirty = s.dirty_writebacks as f64 / s.ops as f64;
                if dirty > rule.dirty_per_op {
                    alarms.push(Self::watermark_alarm(
                        w.index,
                        s.shard,
                        dirty,
                        rule.dirty_per_op,
                        "dirty writebacks per op",
                    ));
                }
            }
            if s.occupancy > rule.occupancy {
                alarms.push(Self::watermark_alarm(
                    w.index,
                    s.shard,
                    s.occupancy,
                    rule.occupancy,
                    "data-array occupancy",
                ));
            }
        }
    }

    fn watermark_alarm(window: u64, shard: u32, measured: f64, mark: f64, what: &str) -> Alarm {
        Alarm {
            window,
            shard: Some(shard),
            kind: AlarmKind::Watermark,
            measured,
            expected: mark,
            threshold: mark,
            message: format!("shard {shard} {what} {measured:.4} crossed watermark {mark:.4}"),
        }
    }

    /// Package the flight-recorder contents for forensic export: the
    /// last K windows, the triggering alarms, and the drained global
    /// event sink. Draining the sink is destructive to the *sink* (not
    /// to any serving state), which is what a flight recorder wants —
    /// the events belong to the incident that captured them.
    pub fn incident(&mut self, alarms: Vec<Alarm>) -> Incident {
        let events_dropped = ring::events_dropped();
        Incident {
            alarms,
            windows: self.recorder.iter().cloned().collect(),
            windows_dropped: self.recorder.dropped(),
            events: ring::take_events(),
            events_dropped,
        }
    }
}

/// A flight-recorder dump: everything known at the moment an alarm
/// fired, ready for JSONL export (see `dg_bench::monitor`).
#[derive(Clone, Debug)]
pub struct Incident {
    /// The alarms that triggered the dump.
    pub alarms: Vec<Alarm>,
    /// The last K observed windows, oldest first.
    pub windows: Vec<Window>,
    /// Windows evicted from the recorder before the dump.
    pub windows_dropped: u64,
    /// The drained global event sink, oldest first.
    pub events: Vec<Event>,
    /// Events the global sink evicted before the dump (drop-oldest
    /// loss; nonzero means the event tail is incomplete).
    pub events_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(i: u32, lookups: u64, hits: u64) -> ShardWindow {
        ShardWindow {
            shard: i,
            ops: lookups,
            lookups,
            hits,
            displaced: 0,
            dirty_writebacks: 0,
            occupancy: 1.0,
            batch_p50_ns: None,
            batch_p99_ns: None,
        }
    }

    fn window(index: u64, shards: Vec<ShardWindow>) -> Window {
        Window { index, wall_ns: 1_000_000, shards, batch_p50_ns: None, batch_p99_ns: None }
    }

    #[test]
    fn window_aggregates() {
        let w = window(0, vec![shard(0, 100, 80), shard(1, 300, 150)]);
        assert_eq!(w.ops(), 400);
        assert_eq!(w.lookups(), 400);
        assert_eq!(w.hits(), 230);
        assert!((w.hit_rate() - 230.0 / 400.0).abs() < 1e-12);
        assert!((w.ops_per_sec() - 400.0 / 1e-3).abs() < 1e-6);
        let empty = window(1, vec![shard(0, 0, 0)]);
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn drift_fires_outside_the_band_and_respects_min_lookups() {
        let mut m = Monitor::new(MonitorConfig {
            drift: Some(DriftRule {
                baseline: vec![0.8, 0.8],
                model_tolerance: 0.04,
                sigmas: 3.0,
                min_lookups: 64,
            }),
            ..MonitorConfig::default()
        });
        // Inside the band: 0.79 measured vs 0.8 predicted over 1024.
        let calm = m.observe(window(0, vec![shard(0, 1024, 809), shard(1, 1024, 810)]));
        assert!(calm.is_empty(), "{calm:?}");
        // Shard 1 collapses to 0.25; shard 0 stays healthy.
        let alarms = m.observe(window(1, vec![shard(0, 1024, 812), shard(1, 1024, 256)]));
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].kind, AlarmKind::HitRateDrift);
        assert_eq!(alarms[0].shard, Some(1));
        assert_eq!(alarms[0].window, 1);
        assert!(alarms[0].measured < alarms[0].expected);
        // The same collapse over too few lookups is not judged.
        let quiet = m.observe(window(2, vec![shard(0, 1024, 812), shard(1, 32, 8)]));
        assert!(quiet.is_empty());
        // A shard beyond the baseline vector is not judged.
        let extra = m.observe(window(3, vec![shard(0, 1024, 812), shard(2, 1024, 0)]));
        assert!(extra.is_empty());
        assert_eq!(m.windows_seen(), 4);
        assert_eq!(m.alarms_raised(), 1);
    }

    #[test]
    fn drift_band_widens_with_sampling_noise() {
        let rule = DriftRule {
            baseline: vec![0.5],
            model_tolerance: 0.04,
            sigmas: 3.0,
            min_lookups: 1,
        };
        assert!(rule.band(0.5, 64) > rule.band(0.5, 4096));
        assert!((rule.band(0.0, 1024) - 0.04).abs() < 1e-12, "degenerate p has no noise term");
        assert!((rule.band(1.5, 1024) - 0.04).abs() < 1e-12, "p clamps to [0, 1]");
    }

    /// Exact limits of the drift rule at a zero-variance prediction
    /// (p = 1 or 0), where [`DriftRule::band`] is `model_tolerance`
    /// alone. Lookup counts are powers of two and the tolerance is
    /// 64/1024, so every hit rate and deviation below is exact in
    /// binary and `>` alone decides the boundary.
    #[test]
    fn drift_boundary_is_exact_at_zero_variance() {
        let tol = 64.0 / 1024.0;
        let monitor = |model_tolerance: f64| {
            let baseline = vec![1.0, 0.0];
            let rule = DriftRule { baseline, model_tolerance, sigmas: 3.0, min_lookups: 1024 };
            assert_eq!(rule.band(1.0, 1024), model_tolerance);
            assert_eq!(rule.band(0.0, 1 << 20), model_tolerance);
            Monitor::new(MonitorConfig { drift: Some(rule), ..MonitorConfig::default() })
        };
        // Shard 0 (predicted 1.0) misses `d` of n, shard 1 (predicted
        // 0.0) hits `d` of n: both deviate by exactly d/n.
        let off_by = |i: u64, n: u64, d: u64| window(i, vec![shard(0, n, n - d), shard(1, n, d)]);

        // At exactly the predicted rate no window alarms, however many.
        let mut m = monitor(tol);
        for i in 0..4096u64 {
            assert!(m.observe(off_by(i, 1024 << (i % 8), 0)).is_empty());
        }
        // Below min_lookups a total collapse is not judged; just below
        // the tolerance and exactly at it are inside the band.
        for (i, (n, d)) in [(512, 512), (1024, 63), (1024, 64)].into_iter().enumerate() {
            assert!(m.observe(off_by(i as u64, n, d)).is_empty());
        }
        assert_eq!(m.alarms_raised(), 0);
        // One step above it: both shards alarm on the first window.
        let alarms = m.observe(off_by(3, 1024, 65));
        assert_eq!(alarms.len(), 2, "{alarms:?}");
        assert!(alarms.iter().all(|a| a.threshold == tol && a.window == 3));
        // A deviation of the tolerance plus one ulp alarms.
        let below = f64::from_bits(tol.to_bits() - 1);
        assert_eq!(monitor(below).observe(off_by(0, 1024, 64)).len(), 2);
    }

    #[test]
    fn latency_tail_needs_warmup_and_persistence() {
        let mut m = Monitor::new(MonitorConfig {
            latency: Some(LatencyRule {
                alpha: 0.5,
                multiplier: 4.0,
                warmup_windows: 2,
                persistence: 2,
            }),
            ..MonitorConfig::default()
        });
        let lat = |idx: u64, p99: u64| {
            let mut s = shard(0, 1000, 800);
            s.batch_p50_ns = Some(p99 / 2);
            s.batch_p99_ns = Some(p99);
            window(idx, vec![s])
        };
        // Seeding + warm-up: even a huge tail is not judged yet.
        assert!(m.observe(lat(0, 1000)).is_empty());
        assert!(m.observe(lat(1, 50_000)).is_empty(), "still warming up");
        // Back to normal; EWMA tracks ~1000ns.
        assert!(m.observe(lat(2, 1100)).is_empty());
        assert!(m.observe(lat(3, 900)).is_empty());
        // First breaching window arms the streak, second alarms.
        assert!(m.observe(lat(4, 40_000)).is_empty(), "persistence 2: first breach is silent");
        let alarms = m.observe(lat(5, 40_000));
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].kind, AlarmKind::LatencyTail);
        assert!(alarms[0].measured > alarms[0].expected * 4.0);
        // A healthy window resets the streak.
        assert!(m.observe(lat(6, 1000)).is_empty());
        assert!(m.observe(lat(7, 40_000)).is_empty(), "streak was reset");
        // Windows without latency data are skipped entirely.
        assert!(m.observe(window(8, vec![shard(0, 1000, 800)])).is_empty());
    }

    #[test]
    fn imbalance_fires_on_a_hot_shard() {
        let mut m = Monitor::new(MonitorConfig {
            imbalance: Some(ImbalanceRule { max_over_mean: 2.0, min_ops: 100 }),
            ..MonitorConfig::default()
        });
        let balanced = m.observe(window(0, vec![shard(0, 500, 0), shard(1, 500, 0)]));
        assert!(balanced.is_empty());
        // Shard 0 serves 900 of 1000 ops: 900 > 2.0 × 500 mean? No —
        // mean is 500, 900 > 1000 is false. Make it hotter.
        let alarms =
            m.observe(window(1, vec![shard(0, 1500, 0), shard(1, 100, 0), shard(2, 100, 0)]));
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!(alarms[0].kind, AlarmKind::ShardImbalance);
        assert_eq!(alarms[0].shard, Some(0));
        // Below min_ops the window is not judged.
        let tiny = m.observe(window(2, vec![shard(0, 90, 0), shard(1, 1, 0)]));
        assert!(tiny.is_empty());
        // A single-shard server cannot be imbalanced.
        let single = m.observe(window(3, vec![shard(0, 10_000, 0)]));
        assert!(single.is_empty());
    }

    #[test]
    fn watermarks_fire_per_metric_and_disable_cleanly() {
        let mut m = Monitor::new(MonitorConfig {
            watermark: Some(WatermarkRule {
                displaced_per_lookup: 0.5,
                dirty_per_op: 0.25,
                occupancy: 0.9,
                min_lookups: 10,
            }),
            ..MonitorConfig::default()
        });
        let mut calm = shard(0, 1000, 800);
        calm.displaced = 200;
        calm.dirty_writebacks = 100;
        calm.occupancy = 0.5;
        assert!(m.observe(window(0, vec![calm.clone()])).is_empty());
        let mut hot = calm.clone();
        hot.displaced = 700;
        hot.dirty_writebacks = 400;
        hot.occupancy = 0.95;
        let alarms = m.observe(window(1, vec![hot]));
        assert_eq!(alarms.len(), 3, "{alarms:?}");
        assert!(alarms.iter().all(|a| a.kind == AlarmKind::Watermark));
        // Disabled watermarks never fire, even on extreme values.
        let mut off = Monitor::new(MonitorConfig {
            watermark: Some(WatermarkRule::disabled()),
            ..MonitorConfig::default()
        });
        let mut extreme = shard(0, 1000, 0);
        extreme.displaced = 1000;
        extreme.dirty_writebacks = 1000;
        extreme.occupancy = 1.0;
        assert!(off.observe(window(0, vec![extreme])).is_empty());
    }

    #[test]
    fn recorder_keeps_the_last_k_windows() {
        let mut m = Monitor::new(MonitorConfig { history: 3, ..MonitorConfig::default() });
        for i in 0..5 {
            m.observe(window(i, vec![shard(0, 10, 5)]));
        }
        let held: Vec<u64> = m.recorded_windows().map(|w| w.index).collect();
        assert_eq!(held, vec![2, 3, 4]);
        let incident = m.incident(vec![]);
        assert_eq!(incident.windows.len(), 3);
        assert_eq!(incident.windows_dropped, 2);
        assert_eq!(incident.windows[0].index, 2);
    }

    #[test]
    fn default_config_never_alarms() {
        let mut m = Monitor::new(MonitorConfig::default());
        let mut worst = shard(0, 1000, 0);
        worst.displaced = 1000;
        worst.dirty_writebacks = 1000;
        worst.occupancy = 1.0;
        worst.batch_p99_ns = Some(u64::MAX);
        for i in 0..10 {
            assert!(m.observe(window(i, vec![worst.clone()])).is_empty());
        }
        assert_eq!(m.alarms_raised(), 0);
    }

    #[test]
    fn alarm_kind_names_round_trip() {
        for k in [
            AlarmKind::HitRateDrift,
            AlarmKind::LatencyTail,
            AlarmKind::ShardImbalance,
            AlarmKind::Watermark,
        ] {
            assert_eq!(AlarmKind::parse(k.name()), Some(k));
        }
        assert_eq!(AlarmKind::parse("nope"), None);
    }
}
