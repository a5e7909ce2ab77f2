//! Golden-file test for the `--trace-out` export path: a full LBRA
//! diagnosis, written through [`stm_bench::write_trace`] (the function
//! every harness's `--trace-out` reaches), must yield a valid Chrome
//! `trace_event` JSON file whose spans cover the interpreter, the ring
//! snapshots and all three diagnosis phases, and whose flow events form
//! well-ordered chains.

use std::collections::BTreeMap;
use stm_telemetry::json::Json;

/// Span names that every sequential-benchmark trace must contain.
const EXPECTED_SPANS: &[&str] = &[
    "machine.run",
    "runner.run",
    "hw.lbr.snapshot",
    "engine.collect",
    "engine.job",
    "lbra.profile_extraction",
    "lbra.ranking",
];

#[test]
fn trace_out_export_is_valid_chrome_trace() {
    stm_telemetry::set_enabled(true);
    let before = stm_telemetry::metrics_snapshot();
    let b = stm_suite::by_id("sort").expect("sort benchmark");
    let d = stm_suite::eval::run_lbra(&b);
    assert!(d.stats.failure_runs_used > 0, "no failing runs collected");
    let spans = stm_telemetry::take_spans();
    let discarded = stm_telemetry::metrics_snapshot()
        .delta_since(&before)
        .counter("engine.jobs_discarded")
        .unwrap_or(0);
    stm_telemetry::set_enabled(false);

    let path = std::env::temp_dir().join(format!("stm-chrome-trace-{}.json", std::process::id()));
    let out = path.to_str().expect("UTF-8 temp path");
    stm_bench::write_trace(&spans, out).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("trace parses as JSON");

    // Top-level Chrome trace shape.
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );

    // Every event is a well-formed complete ("X"), instant ("i") or flow
    // ("s"/"t"/"f") event. Flow events are gathered per id as (ph, ts).
    let mut names = std::collections::BTreeSet::new();
    let mut flows: BTreeMap<u64, Vec<(&str, f64)>> = BTreeMap::new();
    for ev in events {
        let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
        names.insert(name.to_string());
        assert!(ev.get("cat").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("pid").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("tid").and_then(|v| v.as_f64()).is_some());
        match ev.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
                assert!(dur >= 0.0);
            }
            Some("i") => {
                assert_eq!(ev.get("s").and_then(|v| v.as_str()), Some("t"));
            }
            Some(ph @ ("s" | "t" | "f")) => {
                assert_eq!(name, "flow");
                let id = ev.get("id").and_then(|v| v.as_f64()).expect("flow id");
                let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
                flows.entry(id as u64).or_default().push((ph, ts));
            }
            other => panic!("unexpected ph {other:?} on {name}"),
        }
    }

    // Flow chains: every id has exactly one start and at most one
    // finish, the start no later than the finish, and every step between
    // them. A job the engine dispatched speculatively and then discarded
    // (the quota filled first) is never consumed, so its flow has no
    // finish; the unfinished flows must be exactly those jobs.
    assert!(!flows.is_empty(), "engine jobs emit flow events");
    let mut unfinished = 0u64;
    for (id, chain) in &flows {
        let at = |want: &str| -> Vec<f64> {
            chain
                .iter()
                .filter(|(ph, _)| *ph == want)
                .map(|(_, ts)| *ts)
                .collect()
        };
        let (starts, finishes) = (at("s"), at("f"));
        assert_eq!(starts.len(), 1, "flow {id}: one start, got {chain:?}");
        assert!(finishes.len() <= 1, "flow {id}: one finish, got {chain:?}");
        let s = starts[0];
        let f = finishes.first().copied().unwrap_or(f64::INFINITY);
        unfinished += u64::from(finishes.is_empty());
        assert!(s <= f, "flow {id}: finish before start");
        for t in at("t") {
            assert!(s <= t && t <= f, "flow {id}: step {t} outside [{s}, {f}]");
        }
    }
    assert_eq!(
        unfinished, discarded,
        "only discarded speculative jobs may leave a flow unfinished"
    );

    for want in EXPECTED_SPANS {
        assert!(names.contains(*want), "missing span {want:?} in {names:?}");
    }

    // Phase nesting: every run job executes inside the engine's
    // collection window (workers are scoped threads the driver joins),
    // and extraction/ranking happen only after collection has begun.
    let range = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.start_us, s.start_us + s.dur_us.unwrap_or(0)))
            .expect(name)
    };
    let (c0, c1) = range("engine.collect");
    for s in spans.iter().filter(|s| s.name == "engine.job") {
        let (j0, j1) = (s.start_us, s.start_us + s.dur_us.unwrap_or(0));
        assert!(c0 <= j0 && j1 <= c1, "job outside collection window");
    }
    let (e0, _) = range("lbra.profile_extraction");
    let (r0, _) = range("lbra.ranking");
    assert!(c0 <= e0, "extraction before collection");
    assert!(e0 <= r0, "ranking before extraction");
}
