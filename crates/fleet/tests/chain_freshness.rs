//! A fleet shard's live causal chain: fresh after every snapshot, rendered
//! identically in the shard report and the `fleet` status document, and
//! announced by a `diagnosis.chain` event only when its storyline changes.
//! The shard's live and terminal `fleet` entries share one field set.
//!
//! The reference is a single-threaded [`SnapshotIngest`] over the same
//! snapshot stream. Tests that switch telemetry on hold [`TELEMETRY`],
//! because the collection switch, the event buffer and the status
//! documents are process-global.

use std::sync::Mutex;

use stm_core::converge::{SnapshotIngest, StabilityPolicy};
use stm_core::diagnose::Quotas;
use stm_core::engine::DiagnosisSession;
use stm_core::runner::{FailureSpec, Workload};
use stm_core::transform::InstrumentOptions;
use stm_fleet::{FleetDaemon, ShardConfig, Snapshot, SubmitOutcome};
use stm_forensics::chain::CausalChain;
use stm_machine::builder::ProgramBuilder;
use stm_machine::ir::{BinOp, Program};
use stm_machine::layout::Layout;
use stm_telemetry::json::Json;

static TELEMETRY: Mutex<()> = Mutex::new(());

/// A program whose failure has a three-step story: the root-cause branch
/// (`x < 0`) fires first, a propagation branch (`y >= 0`) follows, and the
/// guard (`x < 0` again) sends the run to the error log.
fn program() -> (Program, stm_machine::ids::LogSiteId) {
    let mut pb = ProgramBuilder::new("chain-freshness");
    let main = pb.declare_function("main");
    let mut f = pb.build_function(main, "fresh.c");
    let blocks: Vec<_> = (0..7).map(|_| f.new_block()).collect();
    let [bad, good, mid, hi, lo, err, ok] = blocks[..] else {
        unreachable!()
    };
    let x = f.read_input(0);
    let y = f.read_input(1);
    let root = f.bin(BinOp::Lt, x, 0);
    f.br(root, bad, good);
    for b in [bad, good] {
        f.set_block(b);
        f.jmp(mid);
    }
    f.set_block(mid);
    let step = f.bin(BinOp::Ge, y, 0);
    f.br(step, hi, lo);
    f.set_block(hi);
    let guard = f.bin(BinOp::Lt, x, 0);
    f.br(guard, err, ok);
    f.set_block(lo);
    f.jmp(ok);
    f.set_block(err);
    let site = f.log_error("negative input");
    f.exit(1);
    f.ret(None);
    f.set_block(ok);
    f.output(x);
    f.ret(None);
    f.finish();
    (pb.finish(main), site)
}

/// The shard's layout and failure spec, and a stream of 32 snapshots
/// alternating failure and success.
fn stream(shard: &str) -> (Layout, FailureSpec, Vec<Snapshot>) {
    let (program, site) = program();
    let inputs = |x: i64| -> Vec<Workload> {
        (0..4)
            .map(|y| Workload::new(vec![x * (y + 1), 3 * y]))
            .collect()
    };
    let profiles = DiagnosisSession::new(&program)
        .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
        .failure(FailureSpec::ErrorLogAt(site))
        .failing(inputs(-1))
        .passing(inputs(1))
        .failure_profiles(16)
        .success_profiles(16)
        .collect()
        .expect("collection succeeds");
    let snapshot = |is_failure: bool, run: &stm_core::engine::CollectedRun| Snapshot {
        shard: shard.to_string(),
        witness: run.witness.clone(),
        is_failure,
        report: run.report.clone(),
    };
    let snapshots = profiles
        .failure_runs()
        .iter()
        .zip(profiles.success_runs())
        .flat_map(|(f, s)| [snapshot(true, f), snapshot(false, s)])
        .collect();
    (
        profiles.runner().machine().layout().clone(),
        profiles.spec().clone(),
        snapshots,
    )
}

/// The chain a single-threaded ingest holds after each snapshot.
fn reference_chains(
    layout: &Layout,
    spec: &FailureSpec,
    snaps: &[Snapshot],
) -> Vec<Option<CausalChain>> {
    let mut ingest = SnapshotIngest::new(layout.clone(), spec.clone(), StabilityPolicy::never());
    snaps
        .iter()
        .map(|s| {
            assert!(ingest.observe(s.is_failure, &s.witness, &s.report));
            CausalChain::from_ingest(&ingest)
        })
        .collect()
}

fn daemon(shard: &str, layout: &Layout, spec: &FailureSpec) -> FleetDaemon {
    let mut fleet = FleetDaemon::new();
    fleet.add_shard(
        shard,
        layout.clone(),
        spec.clone(),
        ShardConfig::default()
            .policy(StabilityPolicy::never())
            .quotas(
                Quotas::default()
                    .failure_profiles(usize::MAX)
                    .success_profiles(usize::MAX)
                    .max_runs(usize::MAX),
            ),
    );
    fleet.start();
    fleet
}

fn submit_all(fleet: &FleetDaemon, snaps: &[Snapshot]) {
    for s in snaps {
        assert_eq!(fleet.submit(s.clone()), SubmitOutcome::Enqueued);
    }
}

#[test]
fn report_chain_matches_a_single_threaded_ingest() {
    // Its daemon publishes whenever a sibling test has telemetry on, and
    // would overwrite the `fleet` document that test reads.
    let _serial = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    let (layout, spec, snaps) = stream("report");
    let expected = reference_chains(&layout, &spec, &snaps)
        .pop()
        .flatten()
        .expect("a chain forms");
    let events: Vec<&str> = expected.links.iter().map(|l| l.event.as_str()).collect();
    assert_eq!(events.len(), 3, "root cause -> step -> guard: {events:?}");
    let fleet = daemon("report", &layout, &spec);
    submit_all(&fleet, &snaps);
    let reports = fleet.finish();
    assert_eq!(reports["report"].chain, Some(expected.to_json()));
}

#[test]
fn status_doc_after_drain_carries_the_current_chain() {
    let _serial = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    let (layout, spec, snaps) = stream("status");
    let expected = reference_chains(&layout, &spec, &snaps);
    stm_telemetry::set_enabled(true);
    let fleet = daemon("status", &layout, &spec);
    // After each drained prefix, the document holds that prefix's chain:
    // counts included, not the chain as it stood when the story formed.
    let mut sent = 0;
    for cut in [5, 14, snaps.len()] {
        submit_all(&fleet, &snaps[sent..cut]);
        sent = cut;
        fleet.drain();
        let doc = stm_telemetry::status::get("fleet").expect("fleet doc published");
        let chain = doc
            .get("shards")
            .and_then(|s| s.get("status"))
            .and_then(|e| e.get("chain"))
            .cloned();
        let want = expected[cut - 1]
            .as_ref()
            .map_or(Json::Null, CausalChain::to_json);
        assert_eq!(chain, Some(want), "status chain after {cut} snapshots");
    }
    let _ = fleet.finish();
    stm_telemetry::set_enabled(false);
}

#[test]
fn live_and_terminal_entries_share_one_field_set() {
    let _serial = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    let (layout, spec, snaps) = stream("entry");
    stm_telemetry::set_enabled(true);
    let fleet = daemon("entry", &layout, &spec);
    submit_all(&fleet, &snaps);
    fleet.drain();
    let entry = || {
        let doc = stm_telemetry::status::get("fleet").expect("fleet doc published");
        doc.get("shards")
            .and_then(|s| s.get("entry"))
            .cloned()
            .expect("the shard's entry")
    };
    let live = entry();
    let reports = fleet.finish();
    let terminal = entry();
    stm_telemetry::set_enabled(false);

    let keys = |e: &Json| match e {
        Json::Obj(map) => map.keys().cloned().collect::<Vec<_>>(),
        other => panic!("entry is not an object: {other:?}"),
    };
    assert_eq!(keys(&live), keys(&terminal), "live vs terminal keys");
    for key in [
        "skipped",
        "ingested",
        "after_stop",
        "top1",
        "queue_depth",
        "rank_churn",
    ] {
        assert!(keys(&live).iter().any(|k| k == key), "missing {key}");
    }
    let report = &reports["entry"];
    assert_eq!(terminal.get("chain"), report.chain.as_ref());
    assert!(report.chain.is_some(), "a chain formed");
    assert_eq!(
        terminal.get("verdict").and_then(Json::as_str),
        Some(report.verdict.as_str())
    );
    assert_eq!(
        terminal.get("ingested").and_then(Json::as_f64),
        Some(report.ingested as f64)
    );
    assert_eq!(live.get("top1"), terminal.get("top1"));
    assert!(terminal.get("top1").and_then(Json::as_str).is_some());
}

#[test]
fn chain_event_fires_once_per_storyline() {
    let _serial = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    let (layout, spec, snaps) = stream("events");
    // Fingerprint transitions of the reference stream: a story forming
    // (None -> Some) or changing counts; identical stories do not.
    let mut transitions = Vec::new();
    let mut prev = None;
    for chain in reference_chains(&layout, &spec, &snaps) {
        let fp = chain.as_ref().map(CausalChain::fingerprint);
        if fp.is_some() && fp != prev {
            transitions.push(fp);
        }
        prev = fp;
    }
    let mut distinct = transitions.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), transitions.len(), "the story never reverts");
    assert!(
        transitions.len() < snaps.len() / 2,
        "a stable storyline: {} transitions over {} snapshots",
        transitions.len(),
        snaps.len()
    );

    stm_telemetry::set_enabled(true);
    let _ = stm_telemetry::log::take_events();
    let fleet = daemon("events", &layout, &spec);
    submit_all(&fleet, &snaps);
    let _ = fleet.finish();
    let events: Vec<_> = stm_telemetry::log::take_events()
        .into_iter()
        .filter(|e| {
            e.component == "fleet"
                && e.event == "diagnosis.chain"
                && e.fields.contains(&("shard", "events".to_string()))
        })
        .collect();
    stm_telemetry::set_enabled(false);
    assert_eq!(events.len(), distinct.len(), "{events:?}");
}
