//! The pipeline causal-tracing contract: with telemetry on, every job the
//! parallel engine consumes leaves a complete flow chain in the span
//! buffer — `engine.enqueue` (flow start) → `engine.job` (step) →
//! `engine.consume` (end) — and the Chrome trace exporter turns each
//! chain into `s`/`t`/`f` flow events Perfetto renders as arrows.

use stm::suite::eval::{default_threads, Deployment};
use stm::telemetry::json::Json;
use stm::telemetry::FlowPhase;

#[test]
fn every_consumed_job_has_a_complete_flow_chain() {
    let b = stm::suite::by_id("sort").expect("sort benchmark");
    let d = Deployment::new(b, default_threads());

    stm::telemetry::set_enabled(true);
    let _ = stm::telemetry::take_spans();
    d.session(4).collect().expect("collection succeeds");
    let spans = stm::telemetry::take_spans();
    stm::telemetry::set_enabled(false);

    let phase_of = |flow: u64, name: &str| {
        spans
            .iter()
            .filter(|s| s.flow == flow && s.name == name)
            .map(|s| s.flow_phase)
            .collect::<Vec<_>>()
    };
    let consumed: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "engine.consume" && s.flow != 0)
        .map(|s| s.flow)
        .collect();
    assert!(
        !consumed.is_empty(),
        "a 4-thread session must consume jobs through the parallel path"
    );
    for &flow in &consumed {
        assert_eq!(
            phase_of(flow, "engine.enqueue"),
            vec![Some(FlowPhase::Start)],
            "flow {flow} must start at its enqueue"
        );
        assert_eq!(
            phase_of(flow, "engine.job"),
            vec![Some(FlowPhase::Step)],
            "flow {flow} must step through its worker execution"
        );
        assert_eq!(
            phase_of(flow, "engine.consume"),
            vec![Some(FlowPhase::End)],
            "flow {flow} must end at its ordered consumption"
        );
    }

    // The exporter must emit one s/t/f triple per consumed flow, each
    // bound inside its slice, so Perfetto draws enqueue → execution →
    // consumption arrows.
    let trace = stm::telemetry::export::chrome_trace(&spans);
    let parsed = Json::parse(&trace).expect("trace is strict JSON");
    let Json::Obj(root) = &parsed else {
        panic!("trace root must be an object")
    };
    let Json::Arr(events) = &root["traceEvents"] else {
        panic!("traceEvents must be an array")
    };
    for &flow in &consumed {
        let mut phases: Vec<String> = events
            .iter()
            .filter_map(|e| {
                let Json::Obj(e) = e else { return None };
                let ph = match &e["ph"] {
                    Json::Str(s) if matches!(s.as_str(), "s" | "t" | "f") => s.clone(),
                    _ => return None,
                };
                (e.get("id") == Some(&Json::Num(flow as f64))).then_some(ph)
            })
            .collect();
        phases.sort();
        assert_eq!(
            phases,
            vec!["f".to_string(), "s".to_string(), "t".to_string()],
            "flow {flow} must export exactly one s/t/f triple"
        );
    }
}
