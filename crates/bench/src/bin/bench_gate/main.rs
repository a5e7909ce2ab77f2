//! The benchmark regression gate. Runs the harnesses that guard the
//! paper's checkable claims, writes each one's
//! `results/BENCH_<name>.json`, and gates it against the committed
//! `baselines/BENCH_<name>.json` under one rule: every leaf the baseline
//! carries (a value that is not an object), other than `harness`, must
//! equal the fresh document's value at the same path. A missing key, a
//! `null` that became a number, and any other change in either direction
//! fail; keys only the fresh document has are not checked. The simulator
//! is seeded, so every pinned number repeats exactly.
//!
//! A baseline is re-blessed by hand: copy the fresh value the gate prints
//! into the baseline file.
//!
//! Usage: `bench_gate [harness...]`; with no names it runs every harness
//! in table order.
//!
//! Every gated baseline was blessed at one collection thread, and the
//! gated `counters.*` include speculative runs whose number depends on
//! the thread count, so the driver pins `STM_THREADS=1` before any
//! harness runs.
//!
//! Exit codes: 0 = every pinned value matches and every harness check
//! passed, 1 = a pinned value differs or a harness check failed, 2 =
//! unknown harness name, or an unreadable or malformed baseline or
//! result.

mod chain;
mod convergence;
mod fleet;
mod scaling;
mod sensitivity;

use std::fmt::Write as _;

use stm_bench::MetricsEmitter;
use stm_suite::eval::{default_threads, Deployment};
use stm_telemetry::json::Json;

/// The benchmarks the quality gates diagnose: one sequential (LBRA) and
/// one concurrency (LCRA, Conf2) bug.
const SUBJECTS: [&str; 2] = ["sort", "apache4"];

/// Deploys suite benchmark `id` for its Table 6/7 diagnosis.
fn deploy(id: &str) -> Deployment {
    let bench = stm_suite::by_id(id).expect("benchmark exists");
    Deployment::new(bench, default_threads())
}

/// What a harness reports besides the metrics it checkpointed.
#[derive(Debug, Default)]
struct Outcome {
    /// A harness check failed: the gate fails even when every pinned
    /// value matches.
    failed: bool,
}

type Harness = fn(&mut MetricsEmitter) -> Outcome;

/// The gated harnesses: name (the `BENCH_<name>.json` stem) and body.
const HARNESSES: [(&str, Harness); 6] = [
    ("table4", table4),
    ("scaling", scaling::run),
    ("sensitivity", sensitivity::run),
    ("convergence", convergence::run),
    ("fleet", fleet::run),
    ("chain", chain::run),
];

fn table4(metrics: &mut MetricsEmitter) -> Outcome {
    stm_bench::table4(metrics);
    Outcome::default()
}

/// Pushes one `path: baseline -> fresh` line for every leaf under
/// `baseline` that `fresh` lacks or holds a different value for; returns
/// how many leaves it checked.
fn mismatches(path: &str, baseline: &Json, fresh: Option<&Json>, out: &mut Vec<String>) -> usize {
    match baseline {
        Json::Obj(members) => members
            .iter()
            .map(|(key, b)| {
                let path = format!("{path}/{key}");
                mismatches(&path, b, fresh.and_then(|f| f.get(key)), out)
            })
            .sum(),
        leaf => {
            if fresh != Some(leaf) {
                let fresh = fresh.map_or_else(|| "(missing)".to_string(), Json::encode);
                out.push(format!("{path}: {} -> {fresh}", leaf.encode()));
            }
            1
        }
    }
}

/// The gate's decision on one fresh result: its exit code and the report
/// to print. Every leaf of `baseline` other than `harness` must equal
/// `fresh`'s value at the same path; `failed` is a harness check's
/// verdict.
fn decide(baseline: &Json, fresh: &Json, failed: bool) -> (i32, String) {
    let (Json::Obj(pinned), Json::Obj(_)) = (baseline, fresh) else {
        return (2, "baseline or result is not a JSON object\n".to_string());
    };
    let mut lines = Vec::new();
    let checked: usize = pinned
        .iter()
        .filter(|(key, _)| *key != "harness")
        .map(|(key, b)| mismatches(key, b, fresh.get(key), &mut lines))
        .sum();
    let mut report = format!("{} of {checked} pinned values differ\n", lines.len());
    for line in &lines {
        let _ = writeln!(report, "  {line}");
    }
    (i32::from(!lines.is_empty() || failed), report)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Runs one harness, writes its result, and gates it against the
/// baseline; returns the exit code.
fn gate(name: &'static str, run: Harness) -> i32 {
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
        (Ok(baseline), Ok(fresh)) => decide(&baseline, &fresh, outcome.failed),
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
        .map(|(name, run)| gate(name, run))
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

    /// A fleet-shaped document: one overload shard and the top level.
    fn fleet(shed: &str, extra: &str) -> Json {
        doc(&format!(
            r#"{{"harness":"fleet","endpoints":1200,"benchmarks":{{"sort-0-overload":{{
                "shed":{shed},"ingested":32,{extra}"counters":{{"fleet.shed_total":64}}}}}}}}"#
        ))
    }

    #[test]
    fn identical_documents_pass() {
        let base = fleet("16", "");
        let (code, report) = decide(&base, &base, false);
        assert_eq!(code, 0, "{report}");
        assert_eq!(report, "0 of 4 pinned values differ\n");
    }

    #[test]
    fn an_under_count_fails() {
        let (code, report) = decide(&fleet("16", ""), &fleet("15", ""), false);
        assert_eq!(code, 1);
        assert_eq!(
            report,
            "1 of 4 pinned values differ\n  benchmarks/sort-0-overload/shed: 16 -> 15\n"
        );
    }

    #[test]
    fn a_recovered_null_fails() {
        let (code, report) = decide(&fleet("null", ""), &fleet("16", ""), false);
        assert_eq!(code, 1);
        assert!(
            report.contains("benchmarks/sort-0-overload/shed: null -> 16"),
            "{report}"
        );
    }

    #[test]
    fn a_missing_key_fails() {
        let base = fleet("16", "");
        let mut fresh = base.clone();
        if let Json::Obj(top) = &mut fresh {
            top.remove("endpoints");
        }
        let (code, report) = decide(&base, &fresh, false);
        assert_eq!(code, 1);
        assert!(
            report.contains("  endpoints: 1200 -> (missing)\n"),
            "{report}"
        );
    }

    #[test]
    fn fresh_only_keys_are_ignored() {
        let fresh = fleet("16", r#""endpoints_per_sec":93000.5,"#);
        assert_eq!(decide(&fleet("16", ""), &fresh, false).0, 0);
    }

    #[test]
    fn a_failed_check_or_malformed_baseline_fails_the_gate() {
        let base = fleet("16", "");
        assert_eq!(decide(&base, &base, true).0, 1, "a failed check fails");
        assert_eq!(decide(&doc("[16]"), &base, false).0, 2);
        assert_eq!(decide(&base, &doc("16"), false).0, 2);
    }
}
