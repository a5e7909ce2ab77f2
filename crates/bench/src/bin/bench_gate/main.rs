//! The benchmark regression gate. Runs the harnesses that guard the
//! paper's checkable claims, writes each one's
//! `results/BENCH_<name>.json`, and diffs it against the committed
//! `baselines/BENCH_<name>.json` under
//! [`stm_forensics::diff_benchmarks`]' rule: ranks, ring positions and
//! telemetry counters are higher-is-worse, `*_floor` metrics
//! lower-is-worse.
//!
//! Usage: `bench_gate [harness...]`; with no names it runs every harness
//! in table order.
//!
//! Every gated baseline was blessed at one collection thread, and the
//! gated `counters.*` include speculative runs whose number depends on
//! the thread count, so the driver pins `STM_THREADS=1` before any
//! harness runs.
//!
//! Exit codes: 0 = no regressions, 1 = a metric regressed or a harness
//! check failed, 2 = unknown harness name, or an unreadable or malformed
//! baseline or result.

mod chain;
mod convergence;
mod fleet;
mod scaling;
mod sensitivity;
mod subject;

use std::fmt::Write as _;

use stm_bench::MetricsEmitter;
use stm_forensics::{diff_benchmarks, DiffOptions};
use stm_telemetry::json::Json;

/// A metric a harness cannot measure on this host. The driver leaves it
/// out of the comparison and prints why.
#[derive(Debug)]
struct Skip {
    benchmark: &'static str,
    metric: &'static str,
    reason: String,
}

/// What a harness reports besides the metrics it checkpointed.
#[derive(Debug, Default)]
struct Outcome {
    /// A harness check failed: the gate fails even without a regression.
    failed: bool,
    skipped: Vec<Skip>,
}

type Harness = fn(&mut MetricsEmitter) -> Outcome;

/// The gated harnesses: name (the `BENCH_<name>.json` stem), relative
/// tolerance in percent, and body. Scaling gates wall-clock ratios, hence
/// its wider tolerance; everything else is deterministic.
const HARNESSES: [(&str, f64, Harness); 6] = [
    ("table4", 10.0, table4),
    ("scaling", 25.0, scaling::run),
    ("sensitivity", 10.0, sensitivity::run),
    ("convergence", 10.0, convergence::run),
    ("fleet", 10.0, fleet::run),
    ("chain", 10.0, chain::run),
];

fn table4(metrics: &mut MetricsEmitter) -> Outcome {
    stm_bench::table4(metrics);
    Outcome::default()
}

/// The gate's decision on one fresh result: its exit code and the report
/// to print. The skipped metrics are dropped from the baseline before
/// the diff.
fn decide(
    baseline: &Json,
    candidate: &Json,
    tolerance_pct: f64,
    outcome: &Outcome,
) -> (i32, String) {
    let mut baseline = baseline.clone();
    let mut report = String::new();
    for s in &outcome.skipped {
        let _ = writeln!(report, "skipped {}/{}: {}", s.benchmark, s.metric, s.reason);
        if let Json::Obj(doc) = &mut baseline {
            if let Some(Json::Obj(benches)) = doc.get_mut("benchmarks") {
                if let Some(Json::Obj(metrics)) = benches.get_mut(s.benchmark) {
                    metrics.remove(s.metric);
                }
            }
        }
    }
    match diff_benchmarks(&baseline, candidate, &DiffOptions { tolerance_pct }) {
        Ok(diff) => {
            report += &diff.render();
            (i32::from(diff.has_regressions() || outcome.failed), report)
        }
        Err(e) => (2, report + &e + "\n"),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Runs one harness, writes its result, and gates it against the
/// baseline; returns the exit code.
fn gate(name: &'static str, tolerance_pct: f64, run: Harness) -> i32 {
    println!("== {name}");
    // A zeroed registry, as in a fresh process: the document's `totals`
    // cover this harness only.
    stm_telemetry::reset();
    let mut metrics = MetricsEmitter::new(name);
    let outcome = run(&mut metrics);
    let path = match metrics.finish() {
        Ok(path) => path,
        Err(e) => {
            println!("cannot write results: {e}");
            return 2;
        }
    };
    println!("wrote {path}");
    let (code, report) = match (load(&format!("baselines/BENCH_{name}.json")), load(&path)) {
        (Ok(baseline), Ok(candidate)) => decide(&baseline, &candidate, tolerance_pct, &outcome),
        (Err(e), _) | (_, Err(e)) => (2, e + "\n"),
    };
    print!("{report}");
    code
}

/// Writes a harness's companion artifact (curves, chains) as one JSON
/// line; a failed write is logged, not fatal.
fn write_artifact(path: String, doc: &Json) {
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, doc.encode() + "\n"))
    {
        Ok(()) => println!("wrote {path}"),
        Err(e) => stm_telemetry::log::warn(
            "bench",
            "artifact.write_failed",
            vec![("path", path), ("error", e.to_string())],
        ),
    }
}

fn main() {
    let mut rows = Vec::new();
    for name in std::env::args().skip(1) {
        match HARNESSES.iter().find(|h| h.0 == name) {
            Some(row) => rows.push(*row),
            None => {
                let known: Vec<&str> = HARNESSES.iter().map(|h| h.0).collect();
                eprintln!(
                    "bench_gate: unknown harness `{name}` (known: {})",
                    known.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if rows.is_empty() {
        rows = HARNESSES.to_vec();
    }
    std::env::set_var("STM_THREADS", "1");
    let code = rows
        .into_iter()
        .map(|(name, tol, run)| gate(name, tol, run))
        .fold(0, i32::max);
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> Json {
        Json::parse(body).expect("test doc parses")
    }

    #[test]
    fn table_names_match_the_committed_baselines() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let mut stems: Vec<String> = std::fs::read_dir(dir)
            .expect("baselines/ exists")
            .filter_map(|e| {
                let file = e.expect("readable entry").file_name().into_string().ok()?;
                Some(
                    file.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_string(),
                )
            })
            .collect();
        stems.sort();
        let mut names: Vec<&str> = HARNESSES.iter().map(|h| h.0).collect();
        names.sort();
        assert_eq!(stems, names);
        for (name, ..) in HARNESSES {
            let baseline = load(&format!("{dir}/BENCH_{name}.json")).expect("baseline loads");
            assert_eq!(baseline.get("harness").and_then(Json::as_str), Some(name));
        }
    }

    #[test]
    fn decide_flags_regressions_and_malformed_baselines() {
        let base = doc(r#"{"harness":"chain","benchmarks":{
                "sort":{"chain_root_cause_link_rank":1,"counters":{"engine.runs":20}}}}"#);
        let pass = Outcome::default();
        assert_eq!(decide(&base, &base, 10.0, &pass).0, 0);
        let worse = doc(r#"{"harness":"chain","benchmarks":{
                "sort":{"chain_root_cause_link_rank":2,"counters":{"engine.runs":20}}}}"#);
        let (code, report) = decide(&base, &worse, 10.0, &pass);
        assert_eq!(code, 1);
        assert!(
            report.contains("REGRESSION: sort/chain_root_cause_link_rank"),
            "{report}"
        );
        let failed = Outcome {
            failed: true,
            skipped: Vec::new(),
        };
        assert_eq!(
            decide(&base, &base, 10.0, &failed).0,
            1,
            "a failed check fails the gate"
        );
        let malformed = doc(r#"{"harness":"chain"}"#);
        assert_eq!(decide(&malformed, &base, 10.0, &pass).0, 2);
    }

    #[test]
    fn skipped_metric_is_not_compared() {
        let base = doc(r#"{"harness":"scaling","benchmarks":{"apache4":{
                "speedup_t4_x1000_floor":1000,"seq_cost_vs_raw_x1000":1250,"counters":{}}}}"#);
        let cand = doc(r#"{"harness":"scaling","benchmarks":{"apache4":{
                "speedup_t4_x1000_floor":null,"seq_cost_vs_raw_x1000":1250,"counters":{}}}}"#);
        let skip = || Outcome {
            failed: false,
            skipped: vec![Skip {
                benchmark: "apache4",
                metric: "speedup_t4_x1000_floor",
                reason: "needs ≥4 CPUs, host has 2".to_string(),
            }],
        };
        let (code, report) = decide(&base, &cand, 25.0, &skip());
        assert_eq!(code, 0, "{report}");
        assert!(report
            .starts_with("skipped apache4/speedup_t4_x1000_floor: needs ≥4 CPUs, host has 2\n"));
        assert_eq!(
            decide(&base, &cand, 25.0, &Outcome::default()).0,
            1,
            "unskipped, the lost floor regresses"
        );
        let slower = doc(r#"{"harness":"scaling","benchmarks":{"apache4":{
                "speedup_t4_x1000_floor":null,"seq_cost_vs_raw_x1000":2000,"counters":{}}}}"#);
        assert_eq!(
            decide(&base, &slower, 25.0, &skip()).0,
            1,
            "the other metrics still gate"
        );
    }
}
