//! The benchmark regression tracker: structural comparison of two
//! `results/BENCH_*.json` generations.
//!
//! Every harness emits `{harness, benchmarks: {id: {extras...,
//! counters: {...}}}, totals}` through
//! `stm_bench::MetricsEmitter`. This module diffs two such documents
//! metric by metric under a uniform **higher-is-worse** convention —
//! ranks, ring positions, overhead percentages and telemetry counters all
//! degrade upward — with a configurable relative tolerance. The
//! `bench_gate` binary runs it as the CI regression gate.
//!
//! Two extensions to that convention:
//!
//! * metrics whose name ends in **`_floor`** are **lower-is-worse**: a
//!   drop beyond tolerance regresses, growth improves. This is how
//!   throughput numbers (`runs_per_sec_floor`) and parallel speedups
//!   (`speedup_t4_x1000_floor`) get a regression floor without inverting
//!   them into opaque reciprocals;
//! * numeric metrics at the **document top level** (outside `harness`,
//!   `benchmarks` and `totals`) are compared too, under the pseudo
//!   benchmark name `(top-level)` — that is where harnesses put
//!   whole-document headlines like the scaling harness's best runs/sec.

use stm_telemetry::json::Json;

/// Tolerances for the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative tolerance, in percent of the baseline value: deltas within
    /// `±tolerance_pct` are reported as unchanged.
    pub tolerance_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance_pct: 10.0,
        }
    }
}

/// Which way a metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The metric got worse (grew beyond tolerance, or a result was lost).
    Regression,
    /// The metric got better (shrank beyond tolerance, or a result
    /// appeared where the baseline had none).
    Improvement,
}

/// One metric that moved beyond tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The benchmark the metric belongs to.
    pub benchmark: String,
    /// Metric name; counter metrics are prefixed `counters.`.
    pub metric: String,
    /// Baseline value (`None` = the baseline had no result, e.g. a `null`
    /// rank).
    pub before: Option<f64>,
    /// Candidate value (`None` = the candidate lost the result).
    pub after: Option<f64>,
    /// Relative change in percent, when both sides are numeric and the
    /// baseline is nonzero.
    pub change_pct: Option<f64>,
    /// Regression or improvement.
    pub direction: Direction,
}

impl Delta {
    fn render_value(v: Option<f64>) -> String {
        match v {
            Some(x) if x == x.trunc() && x.abs() < 9.0e15 => format!("{}", x as i64),
            Some(x) => format!("{x}"),
            None => "null".to_string(),
        }
    }

    /// One-line rendering for the gate's output.
    pub fn render(&self) -> String {
        let arrow = match self.direction {
            Direction::Regression => "REGRESSION",
            Direction::Improvement => "improvement",
        };
        let pct = match self.change_pct {
            Some(p) => format!(" ({p:+.1}%)"),
            None => String::new(),
        };
        format!(
            "{arrow}: {}/{}: {} -> {}{pct}",
            self.benchmark,
            self.metric,
            Delta::render_value(self.before),
            Delta::render_value(self.after),
        )
    }
}

/// The outcome of comparing two benchmark-result generations.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Harness name of the baseline document.
    pub harness: String,
    /// Numeric metrics compared (including unchanged ones).
    pub compared: usize,
    /// Metrics that moved beyond tolerance, regressions first.
    pub deltas: Vec<Delta>,
}

impl BenchDiff {
    /// The regressions only.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas
            .iter()
            .filter(|d| d.direction == Direction::Regression)
    }

    /// `true` when any metric regressed.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Renders the full diff as the gate's report text.
    #[must_use = "rendering has no side effects; use the returned text"]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let regressions = self.regressions().count();
        let mut out = format!(
            "harness `{}`: {} metrics compared, {} regression(s), {} improvement(s)\n",
            self.harness,
            self.compared,
            regressions,
            self.deltas.len() - regressions,
        );
        for d in &self.deltas {
            let _ = writeln!(out, "  {}", d.render());
        }
        out
    }
}

/// A numeric-or-missing metric value. `Err(())` marks non-numeric values
/// (names, strings) that are excluded from comparison.
fn numeric(v: &Json) -> Result<Option<f64>, ()> {
    match v {
        Json::Num(n) => Ok(Some(*n)),
        Json::Null => Ok(None),
        _ => Err(()),
    }
}

/// Compares one metric, recording a delta when it moved beyond
/// tolerance. Metrics named `*_floor` are lower-is-worse; everything
/// else is higher-is-worse.
fn compare_metric(
    benchmark: &str,
    metric: &str,
    before: Option<f64>,
    after: Option<f64>,
    opts: &DiffOptions,
    deltas: &mut Vec<Delta>,
) {
    let lower_is_worse = metric.ends_with("_floor");
    let push = |deltas: &mut Vec<Delta>, direction, change_pct| {
        deltas.push(Delta {
            benchmark: benchmark.to_string(),
            metric: metric.to_string(),
            before,
            after,
            change_pct,
            direction,
        });
    };
    match (before, after) {
        (None, None) => {}
        // A result where the baseline had none (e.g. a rank for a
        // previously undiagnosed benchmark) is an improvement.
        (None, Some(_)) => push(deltas, Direction::Improvement, None),
        // A lost result (rank became null) is always a regression.
        (Some(_), None) => push(deltas, Direction::Regression, None),
        (Some(b), Some(a)) => {
            let within = if b == 0.0 {
                a == 0.0
            } else {
                ((a - b) / b.abs() * 100.0).abs() <= opts.tolerance_pct
            };
            if within {
                return;
            }
            let change_pct = (b != 0.0).then(|| (a - b) / b.abs() * 100.0);
            let worse = if lower_is_worse { a < b } else { a > b };
            if worse {
                push(deltas, Direction::Regression, change_pct);
            } else {
                push(deltas, Direction::Improvement, change_pct);
            }
        }
    }
}

/// Diffs two `BENCH_*.json` documents (baseline vs. candidate).
///
/// Every numeric (or `null`) metric of every baseline benchmark is
/// compared — per-benchmark extras (ranks, positions, overheads) and the
/// nested `counters` object alike — plus every numeric metric at the
/// baseline's document top level (whole-document headlines such as
/// `runs_per_sec_floor`), reported under the pseudo benchmark
/// `(top-level)`. Benchmarks missing from the candidate regress;
/// benchmarks new in the candidate are ignored (they have no baseline to
/// regress against). The `totals` object is skipped: it aggregates the
/// per-benchmark counters already compared.
pub fn diff_benchmarks(
    baseline: &Json,
    candidate: &Json,
    opts: &DiffOptions,
) -> Result<BenchDiff, String> {
    let harness = baseline
        .get("harness")
        .and_then(Json::as_str)
        .unwrap_or("<unknown>")
        .to_string();
    let base_benches = baseline
        .get("benchmarks")
        .and_then(Json::as_object)
        .ok_or("baseline has no `benchmarks` object")?;
    let cand_benches = candidate
        .get("benchmarks")
        .and_then(Json::as_object)
        .ok_or("candidate has no `benchmarks` object")?;

    let mut deltas = Vec::new();
    let mut compared = 0usize;
    for (id, base) in base_benches {
        let Some(cand) = cand_benches.get(id) else {
            deltas.push(Delta {
                benchmark: id.clone(),
                metric: "(benchmark)".to_string(),
                before: None,
                after: None,
                change_pct: None,
                direction: Direction::Regression,
            });
            continue;
        };
        let base_obj = base
            .as_object()
            .ok_or_else(|| format!("baseline benchmark `{id}` is not an object"))?;
        for (metric, bval) in base_obj {
            if metric == "counters" {
                let empty = std::collections::BTreeMap::new();
                let base_counters = bval.as_object().unwrap_or(&empty);
                let cand_counters = cand
                    .get("counters")
                    .and_then(Json::as_object)
                    .unwrap_or(&empty);
                for (name, cb) in base_counters {
                    let Ok(before) = numeric(cb) else { continue };
                    let after = match cand_counters.get(name) {
                        Some(v) => numeric(v).unwrap_or(None),
                        None => None,
                    };
                    compared += 1;
                    compare_metric(
                        id,
                        &format!("counters.{name}"),
                        before,
                        after,
                        opts,
                        &mut deltas,
                    );
                }
                continue;
            }
            let Ok(before) = numeric(bval) else { continue };
            let after = match cand.get(metric) {
                Some(v) => numeric(v).unwrap_or(None),
                None => None,
            };
            compared += 1;
            compare_metric(id, metric, before, after, opts, &mut deltas);
        }
    }
    if let Some(top) = baseline.as_object() {
        for (metric, bval) in top {
            if matches!(metric.as_str(), "harness" | "benchmarks" | "totals") {
                continue;
            }
            let Ok(before) = numeric(bval) else { continue };
            let after = match candidate.get(metric) {
                Some(v) => numeric(v).unwrap_or(None),
                None => None,
            };
            compared += 1;
            compare_metric("(top-level)", metric, before, after, opts, &mut deltas);
        }
    }
    deltas.sort_by_key(|d| d.direction == Direction::Improvement);
    Ok(BenchDiff {
        harness,
        compared,
        deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> Json {
        Json::parse(body).expect("test doc parses")
    }

    fn baseline() -> Json {
        doc(r#"{"harness":"table4","benchmarks":{
                "sort":{"rank":2,"position":1,"name":"sort",
                        "counters":{"runner.class.success":10}},
                "apache4":{"rank":3,"position":null,
                        "counters":{"runner.class.success":8}}
            },"totals":{"runner.class.success":18}}"#)
    }

    #[test]
    fn identical_inputs_produce_no_deltas() {
        let b = baseline();
        let d = diff_benchmarks(&b, &b, &DiffOptions::default()).unwrap();
        assert!(!d.has_regressions());
        assert!(d.deltas.is_empty());
        assert_eq!(d.harness, "table4");
        assert!(d.compared >= 5);
    }

    #[test]
    fn rank_growth_beyond_tolerance_regresses() {
        let b = baseline();
        let c = doc(r#"{"harness":"table4","benchmarks":{
                "sort":{"rank":5,"position":1,"name":"sort",
                        "counters":{"runner.class.success":10}},
                "apache4":{"rank":3,"position":null,
                        "counters":{"runner.class.success":8}}
            },"totals":{}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_regressions());
        let r = d.regressions().next().unwrap();
        assert_eq!(r.benchmark, "sort");
        assert_eq!(r.metric, "rank");
        assert_eq!(r.before, Some(2.0));
        assert_eq!(r.after, Some(5.0));
        assert_eq!(r.change_pct, Some(150.0));
        assert!(r.render().contains("REGRESSION"), "{}", r.render());
    }

    #[test]
    fn shrinking_metric_is_an_improvement_not_a_regression() {
        let b = baseline();
        let c = doc(r#"{"harness":"table4","benchmarks":{
                "sort":{"rank":1,"position":1,"name":"sort",
                        "counters":{"runner.class.success":10}},
                "apache4":{"rank":3,"position":null,
                        "counters":{"runner.class.success":8}}
            },"totals":{}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(!d.has_regressions());
        assert_eq!(d.deltas.len(), 1);
        assert_eq!(d.deltas[0].direction, Direction::Improvement);
    }

    #[test]
    fn lost_result_regresses_and_gained_result_improves() {
        let b = baseline();
        let c = doc(r#"{"harness":"table4","benchmarks":{
                "sort":{"rank":null,"position":1,"name":"sort",
                        "counters":{"runner.class.success":10}},
                "apache4":{"rank":3,"position":4,
                        "counters":{"runner.class.success":8}}
            },"totals":{}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        let lost = d
            .deltas
            .iter()
            .find(|x| x.benchmark == "sort" && x.metric == "rank")
            .unwrap();
        assert_eq!(lost.direction, Direction::Regression);
        assert_eq!(lost.after, None);
        let gained = d
            .deltas
            .iter()
            .find(|x| x.benchmark == "apache4" && x.metric == "position")
            .unwrap();
        assert_eq!(gained.direction, Direction::Improvement);
    }

    #[test]
    fn within_tolerance_counter_noise_is_ignored() {
        let b = baseline();
        let c = doc(r#"{"harness":"table4","benchmarks":{
                "sort":{"rank":2,"position":1,"name":"sort",
                        "counters":{"runner.class.success":11}},
                "apache4":{"rank":3,"position":null,
                        "counters":{"runner.class.success":8}}
            },"totals":{}}"#);
        // +10% on the counter: inside the default tolerance.
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
        // A tighter gate flags it.
        let tight = DiffOptions { tolerance_pct: 1.0 };
        let d = diff_benchmarks(&b, &c, &tight).unwrap();
        assert!(d.has_regressions());
        assert_eq!(
            d.regressions().next().unwrap().metric,
            "counters.runner.class.success"
        );
    }

    #[test]
    fn missing_benchmark_regresses() {
        let b = baseline();
        let c = doc(r#"{"harness":"table4","benchmarks":{
            "sort":{"rank":2,"position":1,"name":"sort",
                    "counters":{"runner.class.success":10}}
        },"totals":{}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_regressions());
        let r = d.regressions().next().unwrap();
        assert_eq!(r.benchmark, "apache4");
        assert_eq!(r.metric, "(benchmark)");
    }

    #[test]
    fn malformed_documents_error_out() {
        let b = baseline();
        let bad = doc(r#"{"harness":"x"}"#);
        assert!(diff_benchmarks(&bad, &b, &DiffOptions::default()).is_err());
        assert!(diff_benchmarks(&b, &bad, &DiffOptions::default()).is_err());
    }

    #[test]
    fn floor_metric_regresses_downward_and_improves_upward() {
        let b = doc(r#"{"harness":"scaling","benchmarks":{
                "apache4":{"speedup_t4_x1000_floor":1000,"counters":{}}
            }}"#);
        // A drop beyond tolerance is the regression direction for floors.
        let c = doc(r#"{"harness":"scaling","benchmarks":{
                "apache4":{"speedup_t4_x1000_floor":700,"counters":{}}
            }}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_regressions());
        let r = d.regressions().next().unwrap();
        assert_eq!(r.metric, "speedup_t4_x1000_floor");
        assert_eq!(r.change_pct, Some(-30.0));
        // Growth is an improvement, and within-tolerance drift is quiet.
        let c = doc(r#"{"harness":"scaling","benchmarks":{
                "apache4":{"speedup_t4_x1000_floor":1400,"counters":{}}
            }}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(!d.has_regressions());
        assert_eq!(d.deltas.len(), 1);
        let c = doc(r#"{"harness":"scaling","benchmarks":{
                "apache4":{"speedup_t4_x1000_floor":950,"counters":{}}
            }}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
    }

    #[test]
    fn lost_floor_metric_is_a_regression() {
        let b = doc(r#"{"harness":"scaling","benchmarks":{
                "apache4":{"speedup_t4_x1000_floor":1000,"counters":{}}
            }}"#);
        let c = doc(r#"{"harness":"scaling","benchmarks":{
                "apache4":{"counters":{}}
            }}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_regressions());
        assert_eq!(d.regressions().next().unwrap().after, None);
    }

    #[test]
    fn top_level_metrics_are_gated() {
        let b = doc(r#"{"harness":"scaling","benchmarks":{},
                        "runs_per_sec_floor":100000}"#);
        // Falling through the floor regresses...
        let c = doc(r#"{"harness":"scaling","benchmarks":{},
                        "runs_per_sec_floor":50000}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_regressions());
        let r = d.regressions().next().unwrap();
        assert_eq!(r.benchmark, "(top-level)");
        assert_eq!(r.metric, "runs_per_sec_floor");
        // ... so does losing the headline entirely ...
        let c = doc(r#"{"harness":"scaling","benchmarks":{}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.has_regressions());
        // ... while clearing it comfortably stays quiet or improves.
        let c = doc(r#"{"harness":"scaling","benchmarks":{},
                        "runs_per_sec_floor":180000}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(!d.has_regressions());
    }

    #[test]
    fn top_level_strings_and_candidate_extras_are_ignored() {
        // `harness` is a string, `totals` is structural, and candidate
        // keys absent from the baseline have nothing to regress against.
        let b = doc(r#"{"harness":"scaling","benchmarks":{},"totals":{"x":1}}"#);
        let c = doc(r#"{"harness":"scaling","benchmarks":{},
                        "runs_per_sec":123456,"totals":{"x":99}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
        assert_eq!(d.compared, 0);
    }

    #[test]
    fn regressions_sort_before_improvements() {
        let b = baseline();
        let c = doc(r#"{"harness":"table4","benchmarks":{
                "sort":{"rank":1,"position":1,"name":"sort",
                        "counters":{"runner.class.success":10}},
                "apache4":{"rank":9,"position":null,
                        "counters":{"runner.class.success":8}}
            },"totals":{}}"#);
        let d = diff_benchmarks(&b, &c, &DiffOptions::default()).unwrap();
        assert_eq!(d.deltas.len(), 2);
        assert_eq!(d.deltas[0].direction, Direction::Regression);
        assert_eq!(d.deltas[1].direction, Direction::Improvement);
    }
}
