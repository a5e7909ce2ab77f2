//! The engine's observability contract: the `engine.failure_streak`
//! gauge, the structured session events that feed the
//! `stm-observatory` health model, and the `/diagnosis` status document.
//!
//! These live in their own integration binary because they enable the
//! process-global telemetry registry and assert on its exact state —
//! the library's unit tests run sessions concurrently and would race.

use std::collections::BTreeMap;
use std::sync::Mutex;
use stm_core::prelude::*;
use stm_core::transform::InstrumentOptions;
use stm_machine::builder::ProgramBuilder;
use stm_machine::ids::LogSiteId;
use stm_machine::ir::{BinOp, Program};
use stm_telemetry::json::Json;

/// Error iff input 0 is negative (the engine unit tests' shape).
fn guarded_program() -> (Program, LogSiteId) {
    let mut pb = ProgramBuilder::new("p");
    let main = pb.declare_function("main");
    let site;
    {
        let mut f = pb.build_function(main, "m.c");
        let err = f.new_block();
        let ok = f.new_block();
        let x = f.read_input(0);
        let neg = f.bin(BinOp::Lt, x, 0);
        f.br(neg, err, ok);
        f.set_block(err);
        site = f.log_error("x must be non-negative");
        f.exit(1);
        f.ret(None);
        f.set_block(ok);
        f.output(x);
        f.ret(None);
        f.finish();
    }
    (pb.finish(main), site)
}

/// A session that fills its quotas (no perturbation).
fn clean_session(threads: usize) -> Result<CollectedProfiles, SessionError> {
    let (p, site) = guarded_program();
    DiagnosisSession::new(&p)
        .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
        .failure(FailureSpec::ErrorLogAt(site))
        .failing(vec![Workload::new(vec![-1])])
        .passing(vec![Workload::new(vec![1])])
        .failure_profiles(2)
        .success_profiles(2)
        .threads(threads)
        .collect()
}

/// A session whose perturbation layer loses every snapshot, so the
/// quotas cannot fill (the `CtlResponse::Lost` symptom).
fn lossy_session() -> Result<CollectedProfiles, SessionError> {
    let (p, site) = guarded_program();
    DiagnosisSession::new(&p)
        .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
        .failure(FailureSpec::ErrorLogAt(site))
        .failing(vec![Workload::new(vec![-1])])
        .passing(vec![Workload::new(vec![1])])
        .failure_profiles(2)
        .success_profiles(2)
        .max_runs(8)
        .hw_config(stm_hardware::HwConfig {
            perturb: stm_hardware::PerturbConfig::NONE.loss_rate(1.0),
            ..stm_hardware::HwConfig::default()
        })
        .collect()
}

/// A `WrongOutput` session: a completed run never reaches the fault
/// handler and the program has no site-less profile op, so neither witness
/// phase can keep a run and both stop before their first job.
fn wrong_output_session() -> Result<CollectedProfiles, SessionError> {
    let (p, _) = guarded_program();
    DiagnosisSession::new(&p)
        .instrument(&InstrumentOptions::lbra_reactive(vec![], vec![]))
        .failure(FailureSpec::WrongOutput)
        .failing(vec![Workload::new(vec![1]).with_expected(vec![2])])
        .passing(vec![Workload::new(vec![1]).with_expected(vec![1])])
        .collect()
}

/// Telemetry is process-global; serialise the tests and start each from
/// a reset, enabled, echo-quiet registry.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    stm_telemetry::reset();
    stm_telemetry::set_enabled(true);
    stm_telemetry::log::set_stderr_level(None);
    guard
}

fn unlock() {
    stm_telemetry::log::set_stderr_level(Some(stm_telemetry::log::Level::Warn));
    stm_telemetry::set_enabled(false);
}

fn streak() -> i64 {
    stm_telemetry::metrics_snapshot()
        .gauge("engine.failure_streak")
        .unwrap_or(0)
}

#[test]
fn failure_streak_counts_consecutive_bad_sessions_and_resets() {
    let _g = lock();
    clean_session(1).expect("clean session");
    assert_eq!(streak(), 0, "a clean session keeps the streak at zero");
    lossy_session().expect("lossy session terminates");
    assert_eq!(streak(), 1, "an unfilled quota is a failed cycle");
    lossy_session().expect("lossy session terminates");
    assert_eq!(streak(), 2, "consecutive failures accumulate");
    // Session errors count too (here: no failure spec).
    let (p, _) = guarded_program();
    DiagnosisSession::new(&p)
        .failing(vec![Workload::new(vec![-1])])
        .collect()
        .unwrap_err();
    assert_eq!(streak(), 3, "an errored session extends the streak");
    clean_session(1).expect("clean session");
    assert_eq!(streak(), 0, "one clean session resets the streak");
    unlock();
}

#[test]
fn sessions_emit_structured_progress_events() {
    let _g = lock();
    clean_session(2).expect("clean session");
    let events = stm_telemetry::log::take_events();
    let complete = events
        .iter()
        .find(|e| e.event == "session.complete")
        .expect("session.complete event");
    assert_eq!(complete.component, "engine");
    assert_eq!(complete.level, stm_telemetry::log::Level::Info);
    let field = |e: &stm_telemetry::log::Event, k: &str| {
        e.fields
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(field(complete, "quota_met").as_deref(), Some("true"));
    assert_eq!(field(complete, "failures").as_deref(), Some("2"));
    assert!(
        !events.iter().any(|e| e.event == "profile.lost"),
        "clean sessions lose nothing"
    );

    lossy_session().expect("lossy session terminates");
    let events = stm_telemetry::log::take_events();
    let lost = events
        .iter()
        .find(|e| e.event == "profile.lost")
        .expect("profile.lost event");
    assert_eq!(field(lost, "quota_shortfall").as_deref(), Some("4"));
    let complete = events
        .iter()
        .find(|e| e.event == "session.complete")
        .expect("lossy sessions still complete");
    assert_eq!(field(complete, "quota_met").as_deref(), Some("false"));

    let (p, _) = guarded_program();
    DiagnosisSession::new(&p)
        .failing(vec![Workload::new(vec![-1])])
        .collect()
        .unwrap_err();
    let events = stm_telemetry::log::take_events();
    let error = events
        .iter()
        .find(|e| e.event == "session.error")
        .expect("session.error event");
    assert_eq!(error.level, stm_telemetry::log::Level::Error);
    assert!(
        field(error, "error")
            .unwrap()
            .contains("MissingFailureSpec"),
        "the error field names the failure"
    );
    unlock();
}

#[test]
fn profile_lost_names_the_phases_no_run_could_fill() {
    let _g = lock();
    let field = |k: &str| {
        let events = stm_telemetry::log::take_events();
        let lost = events
            .iter()
            .find(|e| e.event == "profile.lost")
            .expect("profile.lost event");
        lost.fields
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| v.clone())
    };
    let profiles = wrong_output_session().expect("wrong-output session terminates");
    assert_eq!(profiles.stats().total_runs, 0);
    assert_eq!(field("barren_phases").as_deref(), Some("fail,pass"));
    assert_eq!(streak(), 1, "a session short by design is still short");
    wrong_output_session().expect("wrong-output session terminates");
    assert_eq!(field("missing_profiles").as_deref(), Some("0"));
    assert_eq!(streak(), 2);
    // Perturbation loss is not a barren phase: a later run could keep.
    lossy_session().expect("lossy session terminates");
    assert_eq!(field("barren_phases").as_deref(), Some("none"));
    unlock();
}

#[test]
fn enqueue_events_carry_the_job_flow_id() {
    let _g = lock();
    clean_session(4).expect("threaded session");
    let events = stm_telemetry::log::take_events();
    let enqueues: Vec<_> = events.iter().filter(|e| e.event == "job.enqueue").collect();
    assert!(!enqueues.is_empty(), "threaded sessions enqueue jobs");
    assert!(
        enqueues.iter().all(|e| e.flow != 0),
        "every enqueue is tied into its job's causal chain"
    );
    assert!(
        enqueues
            .iter()
            .all(|e| e.level == stm_telemetry::log::Level::Debug),
        "per-job events stay at debug level"
    );
    unlock();
}

#[test]
fn worker_gauges_return_to_idle_after_a_session() {
    let _g = lock();
    clean_session(4).expect("threaded session");
    let m = stm_telemetry::metrics_snapshot();
    assert_eq!(m.gauge("engine.workers"), Some(0), "pool gone");
    assert_eq!(m.gauge("engine.workers_busy"), Some(0), "nobody working");
    assert_eq!(m.gauge("engine.queue_depth"), Some(0), "queue drained");
    unlock();
}

/// A monitored 10 + 10 witness session over the sort benchmark that runs
/// to its quota.
fn monitored_sort_session(threads: usize) -> CollectedProfiles {
    let b = stm_suite::by_id("sort").expect("sort benchmark");
    stm_suite::eval::Deployment::new(b, stm_suite::eval::default_threads())
        .session(threads)
        .converge(StabilityPolicy::never())
        .collect()
        .expect("collection succeeds")
}

fn diagnosis_doc() -> Json {
    stm_telemetry::status::get("diagnosis").expect("a published /diagnosis document")
}

fn keys(doc: &Json) -> Vec<&String> {
    match doc {
        Json::Obj(map) => map.keys().collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn top(doc: &Json) -> &[Json] {
    doc.get("top")
        .and_then(Json::as_array)
        .expect("a top array")
}

/// Compares `doc` with the committed golden `tests/golden/<name>`;
/// `BLESS=1` rewrites the golden instead.
fn check_golden(name: &str, doc: &Json) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let actual = doc.encode() + "\n";
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "document diverged from {}; re-bless if intentional",
        path.display()
    );
}

#[test]
fn terminal_diagnosis_document_is_the_live_one_under_the_final_verdict() {
    let _g = lock();
    let p1 = monitored_sort_session(1);
    let terminal = diagnosis_doc();
    check_golden("diagnosis_sort.json", &terminal);
    monitored_sort_session(4);
    assert_eq!(
        diagnosis_doc().encode(),
        terminal.encode(),
        "threads(4) must publish the threads(1) terminal document"
    );

    // Replay the session's witnesses, in consumption order, through a
    // monitor of its own, reading the live document after every witness.
    let mut monitor = ConvergenceMonitor::new(
        p1.runner().machine().layout(),
        p1.spec().clone(),
        StabilityPolicy::never(),
    );
    let failures = p1.failure_runs().iter().map(|r| (true, r));
    let witnesses = failures.chain(p1.success_runs().iter().map(|r| (false, r)));
    let mut live = Vec::new();
    for (is_failure, run) in witnesses {
        assert!(monitor.observe(is_failure, &run.witness, &run.report));
        live.push(diagnosis_doc());
    }
    monitor.finish().expect("the monitor ingested witnesses");
    assert_eq!(diagnosis_doc().encode(), terminal.encode());

    // The document after the first witness, a lone failure: every event
    // it holds scores 1, so the top-1 has one sample, `[1, 1.0]`.
    let first = Json::parse(&live[0].encode()).expect("valid JSON");
    assert_eq!(
        first.get("verdict").and_then(Json::as_str),
        Some("collecting")
    );
    assert_eq!(
        first.get("witnesses_ingested").and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(first.get("policy").is_some());
    let top1 = top(&first)[0].get("predictor").and_then(Json::as_str);
    assert_eq!(
        first.get("trajectories").and_then(|t| t.get(top1.unwrap())),
        Some(&Json::Arr(vec![Json::Arr(vec![
            Json::from(1usize),
            Json::from(1.0)
        ])]))
    );

    let last = live.last().expect("live documents");
    assert_eq!(
        last.get("verdict").and_then(Json::as_str),
        Some("collecting")
    );
    assert_eq!(keys(&terminal), keys(last), "top-level keys");
    let entry_keys = keys(&top(last)[0]);
    assert!(entry_keys.iter().any(|k| *k == "failure_matches"));
    for entry in top(&terminal) {
        assert_eq!(keys(entry), entry_keys, "top entry keys");
    }

    // One `[witness, score]` sample for every live document that listed
    // the predictor in its top-k, and no other sample.
    let mut expected: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for (i, doc) in live.iter().enumerate() {
        for entry in top(doc) {
            let predictor = entry.get("predictor").and_then(Json::as_str).unwrap();
            let sample = Json::Arr(vec![Json::from(i + 1), entry.get("score").unwrap().clone()]);
            expected
                .entry(predictor.to_string())
                .or_default()
                .push(sample);
        }
    }
    let trajectories = match terminal.get("trajectories") {
        Some(Json::Obj(map)) => map,
        other => panic!("trajectories: {other:?}"),
    };
    assert_eq!(trajectories.len(), expected.len(), "one per top-k visitor");
    for (predictor, samples) in &expected {
        assert_eq!(
            trajectories.get(predictor).and_then(Json::as_array),
            Some(samples.as_slice()),
            "trajectory of {predictor}"
        );
    }
    assert!(
        expected.values().any(|s| s.len() == live.len()),
        "some predictor stays in the top-k at every witness"
    );
    unlock();
}
