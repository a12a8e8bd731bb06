//! What every workload shares: the run context, set-up timing, the
//! time budget, memory and environment checks.

use crate::digest::{golden_path, StatDigests};
use crate::stats::{median, pick_tail, quantile_sorted};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A measured value with its name and unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric { name: name.into(), value, unit: unit.to_string() }
    }
}

/// The context one workload runs in.
#[derive(Debug)]
pub struct Ctx {
    /// Workload name (for golden files).
    pub workload: &'static str,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed section measures.
    pub budget: Duration,
    /// ~1/20-size inputs with verification (`--smoke`).
    pub smoke: bool,
    /// Rewrite the golden digest instead of comparing (`--bless`).
    pub bless: bool,
    /// The benchmark's directory (holds `golden/` and `out/`).
    pub bench_dir: PathBuf,
    /// Span recorder; `Some` in the traced run only.
    pub tracer: Option<Tracer>,
    /// Workload-specific end-to-end metrics.
    pub extra: Vec<Metric>,
    /// Workload-specific per-layer metrics (traced run).
    pub layer_extra: Vec<Metric>,
    /// Lines printed as `# ...`: sample counts, digests, what failed.
    pub notes: Vec<String>,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record a workload-specific end-to-end metric.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push(Metric::new(name, value, unit));
    }

    /// Record a workload-specific per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.layer_extra.push(Metric::new(name, value, unit));
    }

    /// Add a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// A pass counter that runs at least `min` passes and then until
    /// the time budget is spent.
    pub fn passes(&self, min: usize) -> Passes {
        Passes { start: Instant::now(), budget: self.budget, min, done: 0 }
    }

    /// Compare `digests` with the committed golden file for this
    /// workload, size and seed — or rewrite it under `--bless`.
    /// Returns the keys that differ. For a seed with no golden file the
    /// combined digest is printed so two commits can be compared.
    /// Reports `sim_stat_digest_ok`.
    pub fn check_golden(&mut self, digests: &StatDigests) -> Vec<String> {
        let path = golden_path(&self.bench_dir, self.workload, self.smoke, self.seed);
        self.note(format!(
            "stat digest {:016x} over {} evaluations",
            digests.combined(),
            digests.len()
        ));
        let bad = if self.bless {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).expect("create golden directory");
            }
            std::fs::write(&path, digests.render()).expect("write golden digest");
            self.note(format!("blessed {}", path.display()));
            Vec::new()
        } else {
            match std::fs::read_to_string(&path) {
                Ok(text) => match StatDigests::parse(&text) {
                    Ok(golden) => digests.mismatches(&golden),
                    Err(e) => {
                        self.note(format!("unreadable golden {}: {e}", path.display()));
                        vec!["<golden file>".to_string()]
                    }
                },
                Err(_) => {
                    self.note(format!(
                        "no committed digest for seed {}: invariant checks only",
                        self.seed
                    ));
                    Vec::new()
                }
            }
        };
        for key in bad.iter().take(8) {
            self.note(format!("digest mismatch: {key}"));
        }
        self.extra("sim_stat_digest_ok", if bad.is_empty() { 1.0 } else { 0.0 }, "count");
        bad
    }
}

/// See [`Ctx::passes`].
#[derive(Debug)]
pub struct Passes {
    start: Instant,
    budget: Duration,
    min: usize,
    done: usize,
}

impl Passes {
    /// Whether to run another pass; counts it if so.
    pub fn more(&mut self) -> bool {
        let go = self.done < self.min || self.start.elapsed() < self.budget;
        if go {
            self.done += 1;
        }
        go
    }
}

/// What a workload hands back; the caller turns it into the dense
/// end-to-end metrics.
#[derive(Clone, Debug)]
pub struct Core {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Host time of the fastest pass (a fixed amount of work), s: see
    /// [`fastest`] and [`sum_of_fastest`].
    pub wall_s: f64,
    /// Operations (simulated accesses or served requests) in one pass.
    pub ops_per_pass: f64,
    /// Time of each unit of work (an evaluation, a batch).
    pub units: Units,
    /// The tail percentile this workload declares (see `pick_tail`).
    pub tail_cap: f64,
    /// `VmHWM` when the timed section ended, MB.
    pub peak_rss_mb: f64,
    /// Hits over lookups of the cache under test; repeats exactly.
    pub hit_rate: f64,
    /// Agreement with the workload's reference, 1 = perfect.
    pub agreement: f64,
    /// Evaluations or requests attempted.
    pub attempted: u64,
    /// Those failing any check.
    pub failed: u64,
}

/// Run `f` and return its value with the instants around it.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed { value, start, end: Instant::now() }
}

/// A value with the instants its computation started and ended.
#[derive(Clone, Copy, Debug)]
pub struct Timed<T> {
    /// What was computed.
    pub value: T,
    /// When it started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
}

impl<T> Timed<T> {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.secs() * 1e6
    }
}

/// The fast end of several repetitions of the same work: their 5th
/// percentile (nearest rank), which is the minimum below 20
/// repetitions.
///
/// The host is a shared two-processor VM. Contention from its
/// neighbours adds up to 40% to a memory-bound median from one minute
/// to the next, and only ever adds; the fast end is what the code
/// costs. It is the interleaved-minima rule `scripts/verify.sh` already
/// uses for its overhead gate, with the single fastest sample of
/// thousands left out as an outlier.
pub fn fastest(secs: &[f64]) -> f64 {
    let mut v = secs.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::quantile_sorted(&v, 0.05)
}

/// The fast-end pass: each unit's fastest repetition, where
/// `passes[p][u]` is the time of unit `u` in pass `p`.
pub fn fastest_units(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len())
        .map(|u| fastest(&passes.iter().map(|p| p[u]).collect::<Vec<_>>()))
        .collect()
}

/// Time of one pass of a serial workload, built from each unit's
/// fastest repetition. Steadier than the fastest whole pass when there
/// are few passes.
pub fn sum_of_fastest(passes: &[Vec<f64>]) -> f64 {
    fastest_units(passes).iter().sum()
}

/// Units of a [`Units::Stream`] judged together.
pub const SEGMENT: usize = 500;

/// The time of each unit of work, in seconds, as `unit_p50_us` and
/// `unit_tail_us` are taken from it.
///
/// Both are taken at the fast end, like `wall_s`: a raw median or tail
/// over a whole run follows the host (a p99 moved by 40% between two
/// series of runs of the same code), and the fast end is what the code
/// costs.
#[derive(Clone, Debug)]
pub enum Units {
    /// The same units in every pass, `passes[p][u]`: the median and the
    /// tail over the units of the fast-end pass ([`fastest_units`]).
    Repeated(Vec<Vec<f64>>),
    /// Units that never repeat (served batches), in time order: the
    /// median and the tail of each [`SEGMENT`] consecutive units, then
    /// the fast end of the segments' medians and of their tails.
    Stream(Vec<f64>),
}

/// `unit_p50_us` and `unit_tail_us` with a note on how they were taken.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitSummary {
    /// Median unit, us.
    pub p50_us: f64,
    /// Tail unit, us.
    pub tail_us: f64,
    /// The percentile picked for the tail and the sample counts.
    pub note: String,
}

impl Units {
    /// The median and the tail, which is the highest percentile no
    /// higher than `cap` with at least ten samples beyond it
    /// ([`pick_tail`]): among all raw samples for repeated units, inside
    /// one segment for a stream.
    pub fn summary(&self, cap: f64) -> UnitSummary {
        match self {
            Units::Repeated(passes) => {
                let mut fast = fastest_units(passes);
                fast.sort_by(f64::total_cmp);
                let tail = pick_tail(passes.len() * fast.len(), cap);
                UnitSummary {
                    p50_us: quantile_sorted(&fast, 0.5) * 1e6,
                    tail_us: quantile_sorted(&fast, tail.q) * 1e6,
                    note: format!(
                        "unit_tail_us is {} of the {} units of the fast-end pass ({} passes)",
                        tail.label,
                        fast.len(),
                        passes.len()
                    ),
                }
            }
            Units::Stream(samples) => {
                let len = SEGMENT.min(samples.len());
                let tail = pick_tail(len, cap);
                let (mut p50s, mut tails) = (Vec::new(), Vec::new());
                for segment in samples.chunks_exact(len) {
                    let mut v = segment.to_vec();
                    v.sort_by(f64::total_cmp);
                    p50s.push(quantile_sorted(&v, 0.5));
                    tails.push(quantile_sorted(&v, tail.q));
                }
                UnitSummary {
                    p50_us: fastest(&p50s) * 1e6,
                    tail_us: fastest(&tails) * 1e6,
                    note: format!(
                        "unit_tail_us is {} of a segment of {len} units, fast end of {} segments \
                         (n={} units)",
                        tail.label,
                        p50s.len(),
                        samples.len()
                    ),
                }
            }
        }
    }
}

/// How many times each workload sets up, at least (the median is
/// reported); a set-up shorter than [`SHORT_SETUP_S`] is repeated
/// [`SHORT_SETUPS`] times, because its timing is the noisier.
pub const SETUPS: usize = 5;
const SHORT_SETUPS: usize = 15;
const SHORT_SETUP_S: f64 = 0.15;

/// Set up several times; return the last result and the median set-up
/// time in seconds.
pub fn time_setups<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SHORT_SETUPS);
    let mut last = None;
    while secs.len() < SETUPS || (secs.len() < SHORT_SETUPS && median(&secs) < SHORT_SETUP_S) {
        drop(last.take());
        let t = timed(&mut f);
        secs.push(t.secs());
        last = Some(t.value);
    }
    (last.expect("SETUPS > 0"), median(&secs))
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The `DG_*` environment knobs that are set. Any of them changes what
/// the crates under test do (worker count, SIMD lane, observability
/// level), so the benchmark refuses to start while one is set.
pub fn dg_env_knobs(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars.map(|(k, _)| k).filter(|k| k.starts_with("DG_")).collect();
    set.sort();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_any_dg_knob_and_nothing_else() {
        let env = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(dg_env_knobs(env(&[("PATH", "/bin"), ("CARGO_TARGET_DIR", "x"), ("XDG_X", "1")]))
            .is_empty());
        assert_eq!(
            dg_env_knobs(env(&[("DG_SIMD", "off"), ("HOME", "/"), ("DG_PAR_THREADS", "")])),
            vec!["DG_PAR_THREADS".to_string(), "DG_SIMD".to_string()]
        );
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204800));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a resident set");
    }

    #[test]
    fn passes_run_the_minimum_then_stop_when_the_budget_is_spent() {
        let mut p = Passes { start: Instant::now(), budget: Duration::ZERO, min: 3, done: 0 };
        let mut n = 0;
        while p.more() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn setup_runs_several_times_and_keeps_the_last() {
        let mut calls = 0;
        let (last, secs) = time_setups(|| {
            calls += 1;
            calls
        });
        // An instant set-up is a short one: repeated more often.
        assert_eq!((last, calls), (SHORT_SETUPS, SHORT_SETUPS));
        assert!(secs >= 0.0);
        let mut calls = 0;
        time_setups(|| {
            calls += 1;
            std::thread::sleep(Duration::from_secs_f64(SHORT_SETUP_S * 1.2));
        });
        assert_eq!(calls, SETUPS);
    }

    #[test]
    fn fastest_pass_and_sum_of_fastest_units() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fastest(&hundred), 5.0);
        // Unit 0 was fastest in pass 1, unit 1 in pass 0.
        assert_eq!(fastest_units(&[vec![2.0, 1.0], vec![1.0, 3.0]]), vec![1.0, 1.0]);
        assert_eq!(sum_of_fastest(&[vec![2.0, 1.0], vec![1.0, 3.0]]), 2.0);
    }

    #[test]
    fn repeated_units_are_judged_on_the_fast_end_pass() {
        // 20 units of 1..=20 us; the second pass is ten times slower.
        let quiet: Vec<f64> = (1..=20).map(|u| u as f64 * 1e-6).collect();
        let noisy: Vec<f64> = quiet.iter().map(|s| s * 10.0).collect();
        let got = Units::Repeated(vec![noisy, quiet]).summary(0.99);
        // 40 raw samples: p75 is the highest percentile with ten beyond.
        assert!((got.p50_us - 10.0).abs() < 1e-9 && (got.tail_us - 15.0).abs() < 1e-9, "{got:?}");
        assert!(got.note.contains("p75 of the 20 units"), "{}", got.note);
    }

    #[test]
    fn a_stream_is_judged_by_its_quietest_segment() {
        // Three segments of 1..=500 us, the middle one disturbed.
        let quiet: Vec<f64> = (1..=SEGMENT).map(|u| u as f64 * 1e-6).collect();
        let mut stream = quiet.clone();
        stream.extend(quiet.iter().map(|s| s * 3.0));
        stream.extend(&quiet);
        stream.extend(&quiet[..SEGMENT / 2]); // an incomplete segment is left out
        let got = Units::Stream(stream).summary(0.99);
        assert!((got.p50_us - 250.0).abs() < 1e-9 && (got.tail_us - 475.0).abs() < 1e-9, "{got:?}");
        assert!(got.note.contains("p95 of a segment of 500 units, fast end of 3"), "{}", got.note);
        // Fewer units than a segment: one segment of them all.
        let got = Units::Stream(quiet[..150].to_vec()).summary(0.99);
        assert!((got.tail_us - 135.0).abs() < 1e-9 && got.note.contains("p90"), "{got:?}");
    }
}
