//! Pins the fleet daemon's determinism contract (DESIGN.md):
//!
//! 1. A shard's final ranking is **bit-identical** to the batch
//!    [`RankingModel`] built by `DiagnosisSession` over the same
//!    snapshots — `FinalRanking::Lbr` to `lbra().model.rank()`,
//!    `FinalRanking::Lcr` to `lcra().model.rank_with_absence()`.
//! 2. Two daemon runs over the same seeded endpoint schedule produce
//!    identical evidence and rankings.
//! 3. Backpressure accounting is exact: a paused shard fed
//!    `capacity + k` snapshots sheds exactly `k`, emits one
//!    `fleet`/`shed` event per shed snapshot, and its post-shed ranking
//!    matches the batch model over exactly the *kept* snapshots
//!    (drop-oldest keeps the tail, reject-new keeps the head).
//! 4. The failing traces a shard's ingest retains for its live causal
//!    chain, decoded once at retention, equal a fresh decode of the raw
//!    ring snapshots.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use stm::core::converge::{
    FinalRanking, LiveRanking, SnapshotIngest, StabilityPolicy, CHAIN_TRACE_CAP,
};
use stm::core::diagnose::{failure_profile, success_profile, Quotas};
use stm::core::engine::CollectedProfiles;
use stm::core::profile::{decode_lbr, decode_lcr, lbr_events, BranchOutcome};
use stm::core::ranking::RankingModel;
use stm::fleet::{FleetDaemon, ShardConfig, ShardReport, ShedPolicy, Snapshot, SubmitOutcome};
use stm::machine::report::{ProfileData, RunReport};
use stm::suite::eval::{default_threads, Deployment};

/// Telemetry state is process-global; tests that enable it or drain the
/// event buffer serialize on this lock.
fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Batch-collects the replayable snapshot pool for one suite benchmark.
fn pool(id: &str) -> (CollectedProfiles, Vec<(bool, String, RunReport)>) {
    let b = stm::suite::by_id(id).expect("benchmark exists");
    let profiles = Deployment::new(b, default_threads())
        .session(default_threads())
        .collect()
        .expect("pool collection succeeds");
    let mut snaps = Vec::new();
    for run in profiles.failure_runs() {
        snaps.push((true, run.witness.clone(), run.report.clone()));
    }
    for run in profiles.success_runs() {
        snaps.push((false, run.witness.clone(), run.report.clone()));
    }
    (profiles, snaps)
}

/// A shard config that ingests every kept snapshot: quotas and the
/// stability policy both held open.
fn ingest_everything() -> ShardConfig {
    ShardConfig::default()
        .policy(StabilityPolicy::never())
        .quotas(
            Quotas::default()
                .failure_profiles(usize::MAX)
                .success_profiles(usize::MAX)
                .max_runs(usize::MAX),
        )
}

fn submit_all(fleet: &FleetDaemon, shard: &str, snaps: &[(bool, String, RunReport)]) {
    for (is_failure, witness, report) in snaps {
        let outcome = fleet.submit(Snapshot {
            shard: shard.to_string(),
            witness: witness.clone(),
            is_failure: *is_failure,
            report: report.clone(),
        });
        assert_eq!(outcome, SubmitOutcome::Enqueued);
    }
}

#[test]
fn shard_rankings_are_bit_identical_to_the_batch_models() {
    let _guard = telemetry_lock();
    let (sort_profiles, sort_snaps) = pool("sort");
    let (apache_profiles, apache_snaps) = pool("apache4");

    let mut fleet = FleetDaemon::new();
    fleet.add_shard(
        "sort",
        sort_profiles.runner().machine().layout().clone(),
        sort_profiles.spec().clone(),
        ingest_everything().queue_capacity(sort_snaps.len().max(1)),
    );
    fleet.add_shard(
        "apache4",
        apache_profiles.runner().machine().layout().clone(),
        apache_profiles.spec().clone(),
        ingest_everything().queue_capacity(apache_snaps.len().max(1)),
    );
    fleet.start();
    submit_all(&fleet, "sort", &sort_snaps);
    submit_all(&fleet, "apache4", &apache_snaps);
    fleet.drain();
    let reports = fleet.finish();

    let lbr = reports["sort"]
        .report
        .as_ref()
        .expect("sort produced a report");
    match &lbr.final_ranking {
        FinalRanking::Lbr(ranked) => {
            assert_eq!(ranked, &sort_profiles.lbra().model.rank());
        }
        other => panic!("sort shard ranked the wrong profile kind: {other:?}"),
    }
    let lcr = reports["apache4"]
        .report
        .as_ref()
        .expect("apache4 produced a report");
    match &lcr.final_ranking {
        FinalRanking::Lcr(ranked) => {
            assert_eq!(ranked, &apache_profiles.lcra().model.rank_with_absence());
        }
        other => panic!("apache4 shard ranked the wrong profile kind: {other:?}"),
    }
}

#[test]
fn two_runs_over_the_same_snapshots_are_identical() {
    let (profiles, snaps) = pool("sort");
    let run = || -> BTreeMap<String, ShardReport> {
        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "sort",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default().queue_capacity(snaps.len().max(1)),
        );
        fleet.start();
        submit_all(&fleet, "sort", &snaps);
        fleet.drain();
        fleet.finish()
    };
    let (a, b) = (run(), run());
    let (ra, rb) = (&a["sort"], &b["sort"]);
    assert_eq!(ra.verdict, rb.verdict);
    assert_eq!(ra.ingested, rb.ingested);
    assert_eq!(ra.after_stop, rb.after_stop);
    let (ca, cb) = (ra.report.as_ref().unwrap(), rb.report.as_ref().unwrap());
    assert_eq!(ca.evidence.witnesses, cb.evidence.witnesses);
    assert_eq!(ca.evidence.top1, cb.evidence.top1);
    match (&ca.final_ranking, &cb.final_ranking) {
        (FinalRanking::Lbr(x), FinalRanking::Lbr(y)) => assert_eq!(x, y),
        other => panic!("expected identical LBR rankings, got {other:?}"),
    }
}

/// The batch model over an explicit snapshot subset, in ingest order.
fn model_over(
    profiles: &CollectedProfiles,
    kept: &[(bool, String, RunReport)],
) -> RankingModel<BranchOutcome> {
    let layout = profiles.runner().machine().layout();
    let spec = profiles.spec();
    let mut model = RankingModel::new();
    for (is_failure, witness, report) in kept {
        let profile = if *is_failure {
            failure_profile(report, spec)
        } else {
            success_profile(report, spec)
        };
        let Some(profile) = profile else { continue };
        let ProfileData::Lbr(records) = &profile.data else {
            continue;
        };
        model.add_profile_named(*is_failure, witness.clone(), lbr_events(layout, records));
    }
    model
}

#[test]
fn overload_sheds_exactly_and_ranks_the_kept_snapshots() {
    let _guard = telemetry_lock();
    stm::telemetry::set_enabled(true);
    stm::telemetry::log::set_stderr_level(None);
    let _ = stm::telemetry::log::take_events();

    const CAPACITY: usize = 6;
    const SUBMITTED: usize = 20;
    let (profiles, snaps) = pool("sort");
    let stream: Vec<_> = (0..SUBMITTED)
        .map(|n| {
            let (is_failure, witness, report) = &snaps[n % snaps.len()];
            (*is_failure, format!("ep{n}:{witness}"), report.clone())
        })
        .collect();

    let mut fleet = FleetDaemon::new();
    for (name, shed) in [
        ("drop", ShedPolicy::DropOldest),
        ("reject", ShedPolicy::RejectNew),
    ] {
        fleet.add_shard(
            name,
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ingest_everything().queue_capacity(CAPACITY).shed(shed),
        );
    }
    fleet.start();
    // Hold both workers off so every overflow decision is forced at the
    // queue, deterministically.
    assert!(fleet.pause("drop"));
    assert!(fleet.pause("reject"));
    let mut shed_outcomes = BTreeMap::new();
    for name in ["drop", "reject"] {
        let expected_shed = if name == "drop" {
            SubmitOutcome::ShedOldest
        } else {
            SubmitOutcome::RejectedNew
        };
        for (n, (is_failure, witness, report)) in stream.iter().enumerate() {
            let outcome = fleet.submit(Snapshot {
                shard: name.to_string(),
                witness: witness.clone(),
                is_failure: *is_failure,
                report: report.clone(),
            });
            if n < CAPACITY {
                assert_eq!(outcome, SubmitOutcome::Enqueued, "{name}: submission {n}");
            } else {
                assert_eq!(outcome, expected_shed, "{name}: submission {n}");
                *shed_outcomes.entry(name).or_insert(0u64) += 1;
            }
        }
    }
    let shed_expected = (SUBMITTED - CAPACITY) as u64;
    assert_eq!(shed_outcomes["drop"], shed_expected);
    assert_eq!(shed_outcomes["reject"], shed_expected);
    assert_eq!(fleet.shed_count("drop"), shed_expected);
    assert_eq!(fleet.shed_count("reject"), shed_expected);

    fleet.resume("drop");
    fleet.resume("reject");
    fleet.drain();
    let shed_events = stm::telemetry::log::take_events()
        .iter()
        .filter(|e| e.component == "fleet" && e.event == "shed")
        .count() as u64;
    assert_eq!(
        shed_events,
        2 * shed_expected,
        "one fleet.shed event per shed snapshot"
    );
    let reports = fleet.finish();
    stm::telemetry::log::set_stderr_level(Some(stm::telemetry::log::Level::Warn));
    stm::telemetry::set_enabled(false);

    // Drop-oldest kept the tail of the stream; reject-new kept the head.
    for (name, kept) in [
        ("drop", &stream[SUBMITTED - CAPACITY..]),
        ("reject", &stream[..CAPACITY]),
    ] {
        let r = &reports[name];
        assert_eq!(r.shed, shed_expected, "{name}: report shed count");
        assert_eq!(
            r.ingested + r.skipped,
            CAPACITY as u64,
            "{name}: kept count"
        );
        let expected = model_over(&profiles, kept).rank();
        match &r.report.as_ref().expect("report exists").final_ranking {
            FinalRanking::Lbr(ranked) => {
                assert_eq!(ranked, &expected, "{name}: post-shed ranking matches batch");
            }
            other => panic!("{name}: wrong profile kind {other:?}"),
        }
    }
}

#[test]
fn retained_chain_traces_equal_a_fresh_decode() {
    for (id, lbr) in [("sort", true), ("apache4", false)] {
        let (profiles, snaps) = pool(id);
        let layout = profiles.runner().machine().layout();
        let spec = profiles.spec();
        let mut ingest =
            SnapshotIngest::new(layout.clone(), spec.clone(), StabilityPolicy::never());
        for (is_failure, witness, report) in &snaps {
            assert!(
                ingest.observe(*is_failure, witness, report),
                "{id}: {witness}"
            );
        }
        // The first CHAIN_TRACE_CAP failures, in consumption order.
        let raw: Vec<(&String, &ProfileData)> = snaps
            .iter()
            .filter(|(is_failure, _, _)| *is_failure)
            .take(CHAIN_TRACE_CAP)
            .map(|(_, w, r)| (w, &failure_profile(r, spec).expect("failure profile").data))
            .collect();
        assert!(!raw.is_empty(), "{id}: failing snapshots retained");
        match ingest.live_ranking().expect("ring kind pinned") {
            LiveRanking::Lbr { traces, .. } => {
                assert!(lbr, "{id}: LCR shard retained LBR traces");
                assert_eq!(traces.len(), raw.len(), "{id}");
                for ((w, decoded), (want_w, data)) in traces.iter().zip(&raw) {
                    let ProfileData::Lbr(records) = data else {
                        panic!("{id}: LCR profile in an LBR shard")
                    };
                    assert_eq!(w, *want_w);
                    assert_eq!(decoded, &decode_lbr(layout, records), "{id}: {w}");
                }
            }
            LiveRanking::Lcr { traces, .. } => {
                assert!(!lbr, "{id}: LBR shard retained LCR traces");
                assert_eq!(traces.len(), raw.len(), "{id}");
                for ((w, decoded), (want_w, data)) in traces.iter().zip(&raw) {
                    let ProfileData::Lcr(records) = data else {
                        panic!("{id}: LBR profile in an LCR shard")
                    };
                    assert_eq!(w, *want_w);
                    assert_eq!(decoded, &decode_lcr(layout, records), "{id}: {w}");
                }
            }
        }
    }
}
