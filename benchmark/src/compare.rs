//! `compare A.json B.json`: two result files of `run --out` (A the
//! parent, B the change), judged per workload and end-to-end metric by
//! the registry's bounds with the rule of the choosing-metrics guide:
//! a median worse by more than the bound is a regression; where the
//! runs' own spread exceeds the bound the pairing is *unresolved*, not
//! unchanged — unless every run of B beats every run of A.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{end_to_end, per_layer, Better, MetricDef};
use crate::util::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One `(workload, metric)` row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a_median: f64,
    pub b_median: f64,
    /// How much worse B's median is, as a share of A's (negative when
    /// B is better).
    pub worse_by: f64,
    pub spread: f64,
    /// `None` for per-layer metrics, which carry no bound.
    pub verdict: Option<Verdict>,
}

/// Judges one pairing from both sides' samples.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        match def.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        }
    };
    let noise = spread(a).max(spread(b));
    let b_wins_every_pair = match def.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = def.bound.map(|bound| {
        if b_wins_every_pair {
            Verdict::Better
        } else if worse_by > bound {
            Verdict::Regressed
        } else if noise > bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    });
    Row {
        workload: String::new(),
        metric: def.name.clone(),
        a_median: ma,
        b_median: mb,
        worse_by,
        spread: noise,
        verdict,
    }
}

/// `workload → metric → samples` of one result file, plus the failed
/// operations it recorded.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples(doc: &Json) -> Result<(Samples, u64), String> {
    let mut out = Samples::new();
    let mut failed = 0;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no \"runs\" array: not a `run --out` file")?;
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run without a workload")?;
        failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let metrics = run
            .get("metrics")
            .and_then(Json::entries)
            .ok_or("a run without metrics")?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no value"))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((out, failed))
}

/// Compares two parsed result files. Returns the rows and the failed
/// operations B recorded.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, u64), String> {
    let (sa, _) = samples(a)?;
    let (sb, failed_b) = samples(b)?;
    let mut rows = Vec::new();
    let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
    for (workload, metrics_a) in &sa {
        let Some(metrics_b) = sb.get(workload) else {
            return Err(format!("workload {workload} is missing from B"));
        };
        for def in &defs {
            if let (Some(va), Some(vb)) = (metrics_a.get(&def.name), metrics_b.get(&def.name)) {
                rows.push(Row {
                    workload: workload.clone(),
                    ..judge(def, va, vb)
                });
            }
        }
    }
    Ok((rows, failed_b))
}

/// Prints the table; returns the process exit code: 0 all within
/// bounds, 1 a regression (or failed operations in B), 2 no regression
/// but something unresolved.
pub fn report(rows: &[Row], failed_b: u64) -> i32 {
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread"
    );
    for r in rows {
        println!(
            "{:<16} {:<34} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}%  {}",
            r.workload,
            r.metric,
            r.a_median,
            r.b_median,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.verdict.map_or("-", Verdict::as_str)
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == Some(v)).count();
    let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
    println!(
        "{regressed} regressed, {unresolved} unresolved, {} better, {failed_b} failed operations in B",
        count(Verdict::Better)
    );
    if regressed > 0 || failed_b > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a bound of the test's own, so the registry's
    /// bounds can move without these expectations moving.
    fn def(name: &str, better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "x",
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let ops = def("ops", Better::Higher, 0.10);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&ops, &steady, &steady).verdict, Some(Verdict::Ok));
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.85).collect();
        let r = judge(&ops, &steady, &slower);
        assert_eq!(r.verdict, Some(Verdict::Regressed));
        assert!((r.worse_by - 0.15).abs() < 1e-9);
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&ops, &steady, &faster).verdict, Some(Verdict::Better));
        // Within the bound on medians, but the runs scatter more than
        // the bound: not "unchanged".
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&ops, &steady, &noisy).verdict,
            Some(Verdict::Unresolved)
        );

        let rss = def("rss", Better::Lower, 0.05);
        assert_eq!(
            judge(&rss, &[100.0, 100.0], &[107.0, 107.0]).verdict,
            Some(Verdict::Regressed)
        );
        assert_eq!(
            judge(&rss, &[100.0, 100.0], &[103.0, 103.0]).verdict,
            Some(Verdict::Ok)
        );
        let layer = per_layer().remove(0);
        assert_eq!(judge(&layer, &[1.0], &[9.0]).verdict, None);
    }

    fn file(ops_per_s: &[f64], failed: f64) -> Json {
        Json::object(vec![(
            "runs",
            Json::Arr(
                ops_per_s
                    .iter()
                    .map(|v| {
                        Json::object(vec![
                            ("workload", Json::Str("queue_handoff".into())),
                            ("failed", Json::Num(failed)),
                            (
                                "metrics",
                                Json::object(vec![(
                                    "host_ops_per_s",
                                    Json::object(vec![("value", Json::Num(*v))]),
                                )]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn files_compare_end_to_end_with_exit_codes() {
        let a = file(&[100.0, 101.0, 99.0], 0.0);
        let (rows, failed) = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(report(&rows, failed), 0);
        // The registry's bound on host_ops_per_s is at most 0.25.
        let (rows, failed) = compare(&a, &file(&[60.0, 61.0, 59.0], 0.0)).unwrap();
        assert_eq!(report(&rows, failed), 1);
        let (rows, failed) = compare(&a, &file(&[40.0, 160.0, 100.0], 0.0)).unwrap();
        assert_eq!(report(&rows, failed), 2);
        let (rows, failed) = compare(&a, &file(&[100.0, 101.0, 99.0], 3.0)).unwrap();
        assert_eq!(
            report(&rows, failed),
            1,
            "failed operations fail the comparison"
        );
        assert!(compare(&a, &Json::object(vec![])).is_err());
    }
}
