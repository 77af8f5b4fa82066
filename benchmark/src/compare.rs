//! `scord-bench compare PARENT CHANGE`: the parent-versus-change verdict of
//! the choosing-metrics method, from two files of run records (one JSON
//! object per line, as `--record` appends them).
//!
//! Per workload and metric it prints each side's median and quartiles and
//! the change's win fraction over the pairs (i-th parent run against i-th
//! change run, so alternate the sides when recording). It claims a gain
//! only when the change wins at least nine pairs in ten and the medians
//! differ by more than the parent's interquartile range; flags a
//! regression when an end-to-end median worsens beyond its bound; and
//! calls a metric unresolved when its spread is wider than its bound,
//! unless every change run beats every parent run.

use std::collections::BTreeMap;

use crate::json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the gain rule.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// The spread is wider than the bound, so "no regression" cannot be
    /// shown.
    Unresolved,
    /// No gain shown; within the bound when the metric has one.
    Within,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "GAIN",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within bound",
        }
    }
}

/// Summary of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile (Python `statistics.quantiles` convention).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

fn side(v: &[f64]) -> Option<Side> {
    let median = median(v)?;
    let (q1, q3) = quartiles(v).unwrap_or((median, median));
    Some(Side { median, q1, q3 })
}

/// The verdict for `parent` and `change` samples of a metric that is
/// better in direction `better`, with regression bound `bound` (a share of
/// the parent's median; `None` for per-layer metrics). Also returns the
/// change's wins and the number of pairs.
#[must_use]
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> Option<(Verdict, usize, usize)> {
    let (p, c) = (side(parent)?, side(change)?);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&pv, &cv)| beats(cv, pv))
        .count();
    let worse_by = match better {
        Better::Lower => c.median - p.median,
        Better::Higher => p.median - c.median,
    };
    let spread = |s: Side| {
        if s.median == 0.0 {
            0.0
        } else {
            (s.q3 - s.q1) / s.median.abs()
        }
    };
    let all_beat = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| beats(cv, pv)));

    let v = if bound.is_some_and(|b| worse_by > b * p.median.abs()) {
        Verdict::Regression
    } else if pairs > 0 && wins * 10 >= pairs * 9 && worse_by < 0.0 && -worse_by > p.q3 - p.q1 {
        Verdict::Gain
    } else if bound.is_some_and(|b| spread(p).max(spread(c)) > b) && !all_beat {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    Some((v, wins, pairs))
}

/// One workload's runs from one file.
#[derive(Debug, Default)]
struct Runs {
    /// Metric → values, in file order.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Failed operations, summed over the runs.
    failed: u64,
}

/// Workload → its runs.
type Samples = BTreeMap<String, Runs>;

/// Parses run records, one JSON object per line; `origin` names the source
/// in error messages.
fn parse_records(text: &str, origin: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{origin}:{}", n + 1);
        let rec = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = rec
            .get("workload")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let metrics = rec
            .get("metrics")
            .and_then(json::Value::as_object)
            .ok_or_else(|| format!("{}: no metrics", at()))?;
        let failed = rec
            .get("failed")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{}: no failed count", at()))?;
        let w = out.entry(workload.to_string()).or_default();
        w.failed += failed as u64;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(json::Value::as_f64) {
                w.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// One line of the comparison.
#[derive(Debug)]
struct Row<'a> {
    workload: &'a str,
    metric: &'static str,
    unit: &'static str,
    has_bound: bool,
    verdict: Verdict,
    wins: usize,
    pairs: usize,
    parent: Side,
    change: Side,
}

/// Every workload × metric both sides report, in catalogue order, and the
/// workloads whose change runs failed more operations than the parent's
/// (with both counts). No gain is claimed on those workloads.
fn table<'a>(parent: &'a Samples, change: &'a Samples) -> (Vec<Row<'a>>, Vec<(&'a str, u64, u64)>) {
    let catalogue = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better, None)));
    let catalogue: Vec<_> = catalogue.collect();
    let (mut rows, mut failing) = (Vec::new(), Vec::new());
    for (workload, pr) in parent {
        let Some(cr) = change.get(workload) else {
            continue;
        };
        let more_failures = cr.failed > pr.failed;
        if more_failures {
            failing.push((workload.as_str(), pr.failed, cr.failed));
        }
        for &(metric, unit, better, bound) in &catalogue {
            let (Some(pv), Some(cv)) = (pr.metrics.get(metric), cr.metrics.get(metric)) else {
                continue;
            };
            let Some((mut verdict, wins, pairs)) = verdict(pv, cv, better, bound) else {
                continue;
            };
            if more_failures && verdict == Verdict::Gain {
                verdict = Verdict::Within;
            }
            rows.push(Row {
                workload,
                metric,
                unit,
                has_bound: bound.is_some(),
                verdict,
                wins,
                pairs,
                parent: side(pv).expect("non-empty"),
                change: side(cv).expect("non-empty"),
            });
        }
    }
    (rows, failing)
}

/// Runs `compare`; returns the process exit code (1 when any end-to-end
/// metric regressed or the change failed more operations than the parent).
///
/// # Errors
///
/// A message when a file cannot be read or parsed.
pub fn run(parent_path: &str, change_path: &str) -> Result<i32, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_records(&text, path)
    };
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    for workload in parent.keys().filter(|w| !change.contains_key(*w)) {
        println!("{workload}: no change runs");
    }
    let (rows, failing) = table(&parent, &change);
    for (workload, p, c) in &failing {
        println!(
            "{workload}: the change failed {c} operations, the parent {p}; no gain is claimed"
        );
    }
    println!(
        "{:<13} {:<28} {:>40} {:>40} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for r in &rows {
        let fmt = |s: Side| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, r.unit);
        let label = match (r.has_bound, r.verdict) {
            (false, Verdict::Within) => "-",
            (_, v) => v.label(),
        };
        println!(
            "{:<13} {:<28} {:>40} {:>40} {:>7}  {label}",
            r.workload,
            r.metric,
            fmt(r.parent),
            fmt(r.change),
            format!("{}/{}", r.wins, r.pairs)
        );
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .count();
    println!("{regressions} end-to-end regression(s)");
    Ok(i32::from(regressions > 0 || !failing.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(p: &[f64], c: &[f64], bound: Option<f64>) -> Verdict {
        verdict(p, c, Better::Lower, bound).unwrap().0
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn a_consistent_large_improvement_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        assert_eq!(lower(&PARENT, &change, Some(0.05)), Verdict::Gain);
        let (_, wins, pairs) = verdict(&PARENT, &change, Better::Lower, Some(0.05)).unwrap();
        assert_eq!((wins, pairs), (10, 10));
        // The same numbers are a regression when higher is better.
        let v = verdict(&PARENT, &change, Better::Higher, Some(0.05))
            .unwrap()
            .0;
        assert_eq!(v, Verdict::Regression);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        change[0] = 200.0;
        change[1] = 200.0;
        assert_eq!(lower(&PARENT, &change, None), Verdict::Within);
        change[1] = 90.0;
        assert_eq!(lower(&PARENT, &change, None), Verdict::Gain);
    }

    #[test]
    fn a_gain_must_exceed_the_parent_iqr() {
        // Wins every pair, but by less than the parent's own spread.
        let change: Vec<f64> = PARENT.iter().map(|v| v - 0.01).collect();
        assert_eq!(lower(&PARENT, &change, Some(0.05)), Verdict::Within);
    }

    #[test]
    fn worsening_beyond_the_bound_is_a_regression() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.06).collect();
        assert_eq!(lower(&PARENT, &change, Some(0.05)), Verdict::Regression);
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.04).collect();
        assert_eq!(lower(&PARENT, &change, Some(0.05)), Verdict::Within);
        // Per-layer metrics have no bound and never regress.
        let change: Vec<f64> = PARENT.iter().map(|v| v * 2.0).collect();
        assert_eq!(lower(&PARENT, &change, None), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        assert_eq!(lower(&noisy, &noisy, Some(0.05)), Verdict::Unresolved);
        assert_eq!(lower(&noisy, &noisy, Some(0.5)), Verdict::Within);
        // ...unless every change run beats every parent run.
        let change: Vec<f64> = noisy.iter().map(|v| v - 50.0).collect();
        assert_eq!(lower(&noisy, &change, Some(0.05)), Verdict::Gain);
        let change = [79.0; 10];
        assert_eq!(lower(&noisy, &change, Some(0.05)), Verdict::Within);
    }

    /// Ten run records of `workload` with `ops_per_s` scaled by `scale`
    /// and `failed` operations in the first run.
    fn records(workload: &str, scale: f64, failed: u64) -> String {
        PARENT
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let failed = if i == 0 { failed } else { 0 };
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {i}, \"trace\": 0, \
                     \"correct\": {}, \"attempted\": 100, \"failed\": {failed}, \
                     \"metrics\": {{\"ops_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}}}}}\n",
                    failed == 0,
                    v * scale
                )
            })
            .collect()
    }

    #[test]
    fn a_change_that_fails_more_operations_claims_no_gain() {
        let parent = parse_records(&records("serve", 1.0, 0), "parent").unwrap();
        assert_eq!(parent["serve"].failed, 0);
        assert_eq!(parent["serve"].metrics["ops_per_s"].len(), 10);

        let faster = parse_records(&records("serve", 1.2, 0), "change").unwrap();
        let (rows, failing) = table(&parent, &faster);
        assert!(failing.is_empty());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Gain);

        let faster_but_failing = parse_records(&records("serve", 1.2, 3), "change").unwrap();
        assert_eq!(faster_but_failing["serve"].failed, 3);
        let (rows, failing) = table(&parent, &faster_but_failing);
        assert_eq!(failing, [("serve", 0, 3)]);
        assert_eq!(rows[0].verdict, Verdict::Within);

        // A regression still shows when the change also fails more.
        let slower_and_failing = parse_records(&records("serve", 0.5, 3), "change").unwrap();
        let (rows, _) = table(&parent, &slower_and_failing);
        assert_eq!(rows[0].verdict, Verdict::Regression);
    }

    #[test]
    fn records_without_a_failed_count_are_rejected() {
        let line = "{\"workload\": \"serve\", \"metrics\": {}}";
        assert!(parse_records(line, "x")
            .unwrap_err()
            .contains("x:1: no failed count"));
    }

    #[test]
    fn empty_sides_have_no_verdict() {
        assert!(verdict(&[], &[1.0], Better::Lower, None).is_none());
    }
}
