//! `dg-benchmark compare A.json B.json`: apply the benchmark's bounds
//! to two result sets (A the parent, B the change).

use crate::metrics::{Better, END_TO_END, EXTRA, WORKLOADS};
use crate::results::ResultSet;
use crate::stats::{median, quartiles};

/// Verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and B's runs do
    /// not all read better than A's: neither unchanged nor regressed.
    Unresolved,
}

impl Verdict {
    /// `ok` / `regressed` / `unresolved`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median, first and third quartile of each side (quartiles equal
    /// the median for a single run).
    pub a: (f64, f64, f64),
    /// See `a`.
    pub b: (f64, f64, f64),
    /// Runs on each side.
    pub n: (usize, usize),
    /// Share of A's median by which B's is worse (negative = better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let m = median(values);
    if values.len() < 2 {
        (m, m, m)
    } else {
        let (q1, q3) = quartiles(values);
        (m, q1, q3)
    }
}

/// Judge one metric from the values of each side's runs.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (sa, sb) = (summary(a), summary(b));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if sa.0 == sb.0 { 0.0 } else { sign * (sb.0 - sa.0) / sa.0.abs() };
    let spread = |s: (f64, f64, f64)| {
        if s.0 == 0.0 {
            0.0
        } else {
            (s.2 - s.1) / s.0.abs()
        }
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let verdict = if (spread(sa) > bound || spread(sb) > bound) && !all_b_better && bound > 0.0 {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare the timed runs of two result sets, one row per
/// (workload, end-to-end metric) pair both sets measured.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    let defs = END_TO_END
        .iter()
        .map(|d| (d.name, d.unit, d.better, d.bound))
        .chain(EXTRA.iter().filter_map(|d| Some((d.name, d.unit, d.better, d.bound?))));
    let values = |set: &ResultSet, workload: &str, metric: &str| -> Vec<f64> {
        set.runs
            .iter()
            .filter(|r| !r.trace && r.workload == workload)
            .flat_map(|r| r.end_to_end.iter().chain(&r.extra))
            .filter(|m| m.name == metric)
            .map(|m| m.value)
            .collect()
    };
    let mut rows = Vec::new();
    for (metric, unit, better, bound) in defs {
        for w in WORKLOADS {
            let (va, vb) = (values(a, w.name, metric), values(b, w.name, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, verdict) = judge(&va, &vb, better, bound);
            rows.push(Row {
                workload: w.name,
                metric,
                unit,
                a: summary(&va),
                b: summary(&vb),
                n: (va.len(), vb.len()),
                worse_by,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// `v` with five significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// The comparison as text, one row per line.
pub fn render(rows: &[Row]) -> String {
    let side = |s: (f64, f64, f64)| format!("{} [{}, {}]", sig(s.0), sig(s.1), sig(s.2));
    let mut s = format!(
        "{:<20} {:<19} {:>6}  {:>2} {:<30} {:>2} {:<30} {:>7} {:>5}  verdict\n",
        "metric",
        "workload",
        "unit",
        "nA",
        "median A [q1, q3]",
        "nB",
        "median B [q1, q3]",
        "worse",
        "bound"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:<19} {:>6}  {:>2} {:<30} {:>2} {:<30} {:>+6.1}% {:>4.0}%  {}\n",
            r.metric,
            r.workload,
            r.unit,
            r.n.0,
            side(r.a),
            r.n.1,
            side(r.b),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    s.push_str(&format!(
        "{} pairs: {} ok, {} regressed, {} unresolved\n",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Metric;
    use crate::results::RunRecord;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        use Better::{Higher, Lower};
        // Tight runs, 5% worse, bound 10%: ok.
        assert_eq!(judge(&[1.0, 1.01, 0.99], &[1.05, 1.06, 1.04], Lower, 0.10).1, Verdict::Ok);
        // Tight runs, 20% worse: regressed (and the reverse is an improvement).
        let (w, v) = judge(&[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19], Lower, 0.10);
        assert!((w - 0.2).abs() < 1e-9);
        assert_eq!(v, Verdict::Regressed);
        assert_eq!(judge(&[1.2, 1.21, 1.19], &[1.0, 1.01, 0.99], Lower, 0.10).1, Verdict::Ok);
        // Higher is better: a drop is the regression.
        assert_eq!(judge(&[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9], Higher, 0.10).1, Verdict::Regressed);
        assert_eq!(judge(&[8.0, 8.1, 7.9], &[10.0, 10.1, 9.9], Higher, 0.10).1, Verdict::Ok);
        // Spread wider than the bound: unresolved, whichever way the medians lie...
        assert_eq!(
            judge(&[1.0, 1.5, 0.6, 1.2], &[1.0, 1.4, 0.7, 1.1], Lower, 0.10).1,
            Verdict::Unresolved
        );
        // ...unless every run of B reads better than every run of A.
        assert_eq!(judge(&[2.0, 2.5, 1.6, 2.2], &[1.0, 1.4, 0.7, 1.1], Lower, 0.10).1, Verdict::Ok);
        // Exact metrics (bound 0): any worsening is a regression.
        assert_eq!(judge(&[1.0, 1.0], &[1.0, 1.0], Higher, 0.0).1, Verdict::Ok);
        assert_eq!(judge(&[1.0, 1.0], &[0.0, 0.0], Higher, 0.0).1, Verdict::Regressed);
        // One run a side still compares.
        assert_eq!(judge(&[1.0], &[1.3], Lower, 0.10).1, Verdict::Regressed);
    }

    #[test]
    fn compares_only_timed_runs_of_pairs_both_sets_have() {
        let run = |workload: &str, trace: bool, wall: f64| RunRecord {
            workload: workload.into(),
            trace,
            end_to_end: vec![Metric::new("wall_s", wall, "s")],
            extra: vec![Metric::new("ops_failed", 0.0, "count")],
            ..RunRecord::default()
        };
        let a = ResultSet {
            runs: vec![
                run("sim_levels", false, 1.0),
                run("sim_levels", true, 9.0),
                run("serve_thrash", false, 1.0),
            ],
            ..ResultSet::default()
        };
        let b = ResultSet { runs: vec![run("sim_levels", false, 1.5)], ..ResultSet::default() };
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2, "wall_s and ops_failed of sim_levels");
        assert_eq!((rows[0].metric, rows[0].verdict), ("wall_s", Verdict::Regressed));
        assert_eq!((rows[1].metric, rows[1].verdict), ("ops_failed", Verdict::Ok));
        let text = render(&rows);
        assert!(
            text.contains("regressed") && text.contains("2 pairs: 1 ok, 1 regressed, 0 unresolved")
        );
    }
}
