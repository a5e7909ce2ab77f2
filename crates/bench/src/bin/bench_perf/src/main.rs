//! `bench_perf` — the repository's benchmark of the LBR/LCR diagnosis
//! pipeline, end to end and layer by layer.
//!
//! ```text
//! bench_perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One process runs one workload: it sets up, measures for `--seconds`,
//! checks every output it can, prints each metric as `name value unit`
//! (with sample counts and quartiles beside timings), writes
//! `results/perf/<workload>.json`, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` records
//! spans around the calls into each layer on every other unit of work,
//! runs the per-layer probes, and reports the per-layer metrics instead
//! (plus `results/perf/TRACE_<workload>.json`). The exit code is non-zero
//! when a correctness check fails or the arguments are invalid.

mod alloc;
mod layers;
mod stats;
mod subject;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stm_telemetry::json::Json;

use crate::stats::{highest_supported_percentile, Summary};
use crate::workloads::{Measured, Settings};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metric names and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ops_per_sec", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// Where results files go, relative to the working directory.
const RESULTS_DIR: &str = "results/perf";
/// Operation ids per root span kept in the Chrome trace sample.
const TRACE_SAMPLE_OPS: u64 = 64;

/// One finished run: human-readable lines, the results document, and the
/// machine-readable summary line.
struct Report {
    lines: Vec<String>,
    document: Json,
    summary: Json,
    trace: Option<Json>,
    correct: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench_perf: {e}");
            eprintln!(
                "usage: bench_perf --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    // Shed warnings and session events echo to stderr by default; a
    // benchmark run keeps stderr for its own diagnostics.
    stm_telemetry::log::set_stderr_level(None);
    let report = run(&workload, &settings);
    for line in &report.lines {
        println!("{line}");
    }
    let dir = Path::new(RESULTS_DIR);
    let stem = if settings.trace {
        format!("{workload}.layers")
    } else {
        workload.clone()
    };
    let mut files = vec![(dir.join(format!("{stem}.json")), &report.document)];
    if let Some(trace) = &report.trace {
        files.push((dir.join(format!("TRACE_{workload}.json")), trace));
    }
    for (path, json) in files {
        if let Err(e) = write(&path, json) {
            eprintln!("bench_perf: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
    println!("{}", report.summary.encode());
    if !report.correct {
        std::process::exit(1);
    }
}

fn write(path: &PathBuf, json: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, json.encode() + "\n")
}

/// Parses `--workload --seed --seconds --trace [--quick]`.
fn parse_args(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            quick,
        },
    ))
}

/// Runs one workload and builds its report.
fn run(workload: &str, settings: &Settings) -> Report {
    let provenance_start = Provenance::start();
    let m = workloads::run(workload, settings).expect("workload name was validated");
    let mut lines = vec![format!(
        "# {workload}: seed {} | {} s | trace {} | {} {} | latency per {}, rate per {}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        m.attempted,
        m.ops,
        m.latency_unit,
        m.round_unit,
    )];
    let mut checks = m.checks.clone();
    let (metrics, trace) = if settings.trace {
        let (metrics, trace) = per_layer(&m, settings, &mut lines, &mut checks);
        (metrics, Some(trace))
    } else {
        (end_to_end(&m, &mut lines), None)
    };
    lines.push(format!("ops {} count", m.attempted));
    lines.push(format!("failed_ops {} count", m.failed));
    for c in &checks {
        lines.push(format!(
            "check {} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name
        ));
    }
    let correct = m.failed == 0 && m.attempted > 0 && checks.iter().all(|c| c.ok);
    let provenance = provenance_start.finish(workload, settings);
    lines.push(format!("# provenance {}", provenance.encode()));
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    );
    let summary = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failed)),
        ("metrics", metrics_json),
    ]);
    let document = Json::obj([
        ("workload", Json::from(workload)),
        ("run", workloads::describe(&m)),
        ("summary", summary.clone()),
        ("samples", samples_json(&m)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("check", Json::from(c.name.as_str())),
                            ("ok", Json::from(c.ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("provenance", provenance),
    ]);
    Report {
        lines,
        document,
        summary,
        trace,
        correct,
    }
}

/// The end-to-end metrics of an untraced run, with their print lines.
fn end_to_end(
    m: &Measured,
    lines: &mut Vec<String>,
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let setup = Summary::of(&m.setup_s).expect("set-up ran");
    let rate = Summary::of(&m.rates).expect("at least one round ran");
    let fast_rate = stats::fast_decile(&m.rates);
    let ms: Vec<f64> = m.latency_s.iter().map(|s| s * 1e3).collect();
    let latency = Summary::of(&ms).expect("at least one unit ran");
    let heap = Summary::of(&m.heap_peak_bytes).expect("at least one round ran");
    let mib = 1024.0 * 1024.0;
    let quartiles =
        |s: &Summary, what: &str| format!("(n={} x {what}, q1 {:.6}, q3 {:.6})", s.n, s.q1, s.q3);
    let tail = match highest_supported_percentile(latency.n) {
        Some(p) => format!("highest percentile with >=10 beyond: p{p}"),
        None => "fewer than 20 samples".to_string(),
    };
    let values = [
        ("setup_s", setup.median, quartiles(&setup, "set-up")),
        (
            "peak_heap_mb",
            heap.median / mib,
            format!(
                "(median over rounds of the round's live-heap high-water mark; q1 {:.6}, q3 {:.6}; VmHWM {:.3} MB)",
                heap.q1 / mib,
                heap.q3 / mib,
                peak_rss_mb()
            ),
        ),
        (
            "ops_per_sec",
            fast_rate,
            format!(
                "{} {}/s, p90 over rounds; median {:.6}",
                quartiles(&rate, m.round_unit),
                m.ops,
                rate.median
            ),
        ),
        (
            "latency_ms_p50",
            latency.median,
            quartiles(&latency, m.latency_unit),
        ),
    ];
    let mut out = BTreeMap::new();
    for ((name, value, note), (_, unit)) in values.into_iter().zip(END_TO_END) {
        lines.push(format!("{name} {value} {unit}  {note}"));
        out.insert(name, (value, unit));
    }
    // Printed and recorded, but not a gated metric: on a shared host the
    // tail tracks how much of the run fell into the host's slow spells.
    lines.push(format!(
        "# latency_ms_p99 {} ms  (n={}, {} beyond; {tail}; not gated)",
        latency.p99,
        latency.n,
        latency.beyond_p99()
    ));
    out
}

/// The per-layer metrics of a traced run, with the span table.
fn per_layer(
    m: &Measured,
    settings: &Settings,
    lines: &mut Vec<String>,
    checks: &mut Vec<workloads::Check>,
) -> (BTreeMap<&'static str, (f64, &'static str)>, Json) {
    trace::set_enabled(true);
    let (values, tee_mismatches) = layers::probe(m, settings);
    trace::set_enabled(false);
    checks.push(workloads::Check {
        name: format!("timing hardware tee changes no run's report ({tee_mismatches} changed)"),
        ok: tee_mismatches == 0,
    });
    let spans = trace::take();
    let table = trace::layer_table(&spans);
    lines.push(format!(
        "# spans {:<28} {:>9} {:>12} {:>12}",
        "layer", "count", "total_ms", "self_ms"
    ));
    for (name, row) in &table {
        lines.push(format!(
            "# spans {:<28} {:>9} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    let mut out = BTreeMap::new();
    for (name, unit) in layers::METRICS {
        let value = values[name];
        lines.push(format!("{name} {value} {unit}"));
        out.insert(name, (value, unit));
    }
    let trace = trace::chrome_trace(&spans, TRACE_SAMPLE_OPS, trace::layer_table_json(&table));
    (out, trace)
}

/// Raw per-unit samples and their summaries, for the results file.
fn samples_json(m: &Measured) -> Json {
    let summary = |v: &[f64]| match Summary::of(v) {
        Some(s) => Json::obj([
            ("n", Json::from(s.n)),
            ("q1", Json::from(s.q1)),
            ("median", Json::from(s.median)),
            ("q3", Json::from(s.q3)),
            ("p99", Json::from(s.p99)),
        ]),
        None => Json::Null,
    };
    Json::obj([
        (
            "setup_s",
            Json::Arr(m.setup_s.iter().map(|&v| Json::from(v)).collect()),
        ),
        ("latency_s", summary(&m.latency_s)),
        ("ops_per_sec", summary(&m.rates)),
        ("traced_round_s", summary(&m.traced_rounds)),
        ("untraced_round_s", summary(&m.untraced_rounds)),
    ])
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host state captured around a run: how busy the hypervisor kept the
/// vCPUs (steal) and how fast a fixed CPU-only loop ran before and after.
struct Provenance {
    steal: Option<(u64, u64)>,
    calibration_ms_before: f64,
}

impl Provenance {
    fn start() -> Provenance {
        Provenance {
            calibration_ms_before: calibration_ms(),
            steal: cpu_ticks(),
        }
    }

    fn finish(self, workload: &str, settings: &Settings) -> Json {
        let steal = match (self.steal, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => Json::obj([
                ("steal_ticks", Json::from(s1 - s0)),
                ("all_ticks", Json::from(t1 - t0)),
            ]),
            _ => Json::Null,
        };
        let threads = Json::obj([
            ("collect_session", Json::from(workloads::COLLECT_THREADS)),
            ("diagnosis_session", Json::from(workloads::DIAGNOSE_THREADS)),
            ("fleet_shard_workers", Json::from(workloads::SHARDS.len())),
            ("generator", Json::from(1u64)),
        ]);
        Json::obj([
            ("git_rev", Json::from(git_rev())),
            (
                "available_parallelism",
                Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
            ),
            ("workload", Json::from(workload)),
            ("seed", Json::from(settings.seed)),
            ("seconds", Json::from(settings.seconds)),
            ("trace", Json::from(settings.trace)),
            ("quick", Json::from(settings.quick)),
            ("threads", threads),
            ("proc_stat", steal),
            (
                "calibration_ms_before",
                Json::from(self.calibration_ms_before),
            ),
            ("calibration_ms_after", Json::from(calibration_ms())),
        ])
    }
}

/// `(steal, all)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Milliseconds a fixed xorshift loop takes: a host-speed yardstick that
/// touches no memory and no code under test.
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git` at all.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = layers::METRICS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        assert_eq!(names(&doc, "per_layer"), layer);
        assert_eq!(names(&doc, "workloads"), workloads::NAMES.to_vec());
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, s) = parse_args(&args(
            "--workload fleet-ingest --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(w, "fleet-ingest");
        assert!(s.trace && s.seed == 3 && s.seconds == 10.0 && !s.quick);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload diagnose-suite --seed -1 --seconds 1 --trace 0",
            "--workload diagnose-suite --seed 1 --seconds 0 --trace 0",
            "--workload diagnose-suite --seed 1 --seconds 1 --trace 2",
            "--workload diagnose-suite --seed 1 --seconds 1",
            "--workload diagnose-suite --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload at 1/100 scale, untraced and traced: every metric in
    /// `BENCHMARK.json` is printed and every correctness check passes.
    #[test]
    fn quick_smoke_runs_every_workload() {
        let doc = benchmark_json();
        for workload in workloads::NAMES {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let settings = Settings {
                    seed: 0,
                    seconds: 0.05,
                    trace,
                    quick: true,
                };
                let report = run(workload, &settings);
                let text = report.lines.join("\n");
                assert!(report.correct, "{workload} trace={trace}:\n{text}");
                let metrics = report.summary.get("metrics").expect("metrics");
                for name in names(&doc, key) {
                    assert!(
                        report
                            .lines
                            .iter()
                            .any(|l| l.starts_with(&format!("{name} "))),
                        "{workload}: {name} not printed"
                    );
                    let value = metrics
                        .get(&name)
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                }
            }
        }
    }
}
