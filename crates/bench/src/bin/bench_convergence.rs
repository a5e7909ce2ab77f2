//! Measures how fast the incremental diagnosis converges — the
//! observatory's "witnesses-to-stable-top-1" benchmark — and writes
//! `results/BENCH_convergence.json` plus one
//! `results/CONVERGENCE_<id>.json` curve artifact per benchmark.
//!
//! For one sequential benchmark (sort, LBRA) and one concurrency
//! benchmark (apache4, LCRA Conf2) the harness runs the same witness
//! sets twice: once to full quota under `StabilityPolicy::never()`
//! (monitor-only), once under the default early-stop policy. It then
//! re-streams the full-quota witness profiles through the public
//! [`ConvergenceTracker`] API to chart the
//! rank of the ground-truth root cause after every ingested witness and
//! to find the exact witness count at which the default policy fires.
//!
//! Gated metrics (all deterministic — the simulation is fully seeded —
//! and all "higher is worse" for `bench_diff`):
//!
//! * `witnesses_full` / `witnesses_early` — witnesses ingested by the
//!   full-quota and early-stopped sessions; early-stop regressing
//!   toward the quota fails CI.
//! * `witnesses_to_stable_top1` — first witness count satisfying the
//!   default policy on the full stream (`null` = never stabilised).
//! * `top1_mismatch` — 0 when the early-stopped session's top-1 equals
//!   the full-quota top-1, 1 otherwise (the acceptance invariant).
//! * `rank_full` / `rank_early` — 1-based rank of the root cause in
//!   each session's final (batch-identical) ranking.

use std::collections::BTreeSet;

use stm_bench::{json_rank, mark, MetricsEmitter};
use stm_core::converge::{ConvergenceTracker, FinalRanking, StabilityPolicy};
use stm_core::diagnose::{failure_profile, success_profile};
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_core::profile::{lbr_events, lcr_events, BranchOutcome, CoherenceEvent};
use stm_core::ranking::RankingModel;
use stm_core::runner::{FailureSpec, Runner};
use stm_machine::report::ProfileData;
use stm_suite::eval::{default_threads, expand_workloads, lbra_runner, lcra_runner};
use stm_suite::Benchmark;
use stm_telemetry::json::Json;

fn main() {
    let mut metrics = MetricsEmitter::new("convergence");
    println!("Diagnosis convergence (witnesses to a stable top-1; lower is better)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "bench", "full", "early", "stable@", "rank_full", "rank_early", "top1_ok"
    );

    for (id, lbr) in [("sort", true), ("apache4", false)] {
        let b = stm_suite::by_id(id).expect("benchmark exists");
        let runner = if lbr {
            lbra_runner(&b)
        } else {
            lcra_runner(&b)
        };
        let (failing, passing) = expand_workloads(&b, &runner);

        let run = |policy: StabilityPolicy| -> CollectedProfiles {
            DiagnosisSession::from_runner(&runner)
                .failure(b.truth.spec.clone())
                .failing(failing.clone())
                .passing(passing.clone())
                .profile_kind(if lbr {
                    ProfileKind::Lbr
                } else {
                    ProfileKind::Lcr
                })
                .threads(default_threads())
                .converge(policy)
                .collect()
                .expect("witness-mode collection cannot fail")
        };
        let full = run(StabilityPolicy::never());
        let early = run(StabilityPolicy::default());
        let full_report = full.convergence().expect("monitored session reports");
        let early_report = early.convergence().expect("monitored session reports");

        let (curve, stable_at) = if lbr {
            let target = b.truth.target_branch().expect("sequential target");
            replay(&b, &runner, &full, false, |e: &BranchOutcome| {
                e.branch == target
            })
        } else {
            let fpe = b.truth.fpe.expect("concurrency FPE");
            let state = fpe.conf2_state.expect("Conf2 state");
            replay(&b, &runner, &full, true, |e: &CoherenceEvent| {
                e.loc == fpe.loc && e.state == state
            })
        };

        let witnesses_full = full_report.evidence.witnesses;
        let witnesses_early = early_report.evidence.witnesses;
        // The early session consumes a strict prefix of the full
        // session's job order, so the replayed stop point must agree
        // with where the live policy actually fired.
        if early_report.verdict == stm_core::converge::Verdict::ConvergedEarly {
            assert_eq!(
                stable_at,
                Some(witnesses_early),
                "{id}: replayed stop point diverged from the live session"
            );
        }
        let rank_full = rank_of_root_cause(&b, &full_report.final_ranking);
        let rank_early = rank_of_root_cause(&b, &early_report.final_ranking);
        let top1_mismatch = usize::from(full_report.evidence.top1 != early_report.evidence.top1);

        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            id,
            witnesses_full,
            witnesses_early,
            mark(stable_at),
            mark(rank_full),
            mark(rank_early),
            if top1_mismatch == 0 { "yes" } else { "NO" },
        );

        metrics.checkpoint(
            id,
            vec![
                ("witnesses_full", Json::from(witnesses_full)),
                ("witnesses_early", Json::from(witnesses_early)),
                ("witnesses_to_stable_top1", json_rank(stable_at)),
                ("top1_mismatch", Json::from(top1_mismatch)),
                ("rank_full", json_rank(rank_full)),
                ("rank_early", json_rank(rank_early)),
            ],
        );

        let artifact = Json::obj([
            ("benchmark", Json::from(id)),
            ("mode", Json::from(if lbr { "lbra" } else { "lcra" })),
            ("verdict_full", Json::from(full_report.verdict.as_str())),
            ("verdict_early", Json::from(early_report.verdict.as_str())),
            ("witnesses_full", Json::from(witnesses_full)),
            ("witnesses_early", Json::from(witnesses_early)),
            ("witnesses_to_stable_top1", json_rank(stable_at)),
            ("policy", early_report.policy.to_json()),
            (
                "top1_full",
                full_report
                    .evidence
                    .top1
                    .clone()
                    .map_or(Json::Null, Json::from),
            ),
            (
                "top1_early",
                early_report
                    .evidence
                    .top1
                    .clone()
                    .map_or(Json::Null, Json::from),
            ),
            (
                "curve",
                Json::Arr(
                    curve
                        .iter()
                        .map(|(w, rank)| Json::Arr(vec![Json::from(*w), json_rank(*rank)]))
                        .collect(),
                ),
            ),
            (
                "history",
                Json::Arr(
                    full_report
                        .evidence
                        .history
                        .iter()
                        .map(|p| {
                            Json::Arr(vec![
                                Json::from(p.witness),
                                Json::from(p.churn),
                                Json::from(p.top1_streak),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = format!("results/CONVERGENCE_{id}.json");
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, artifact.encode() + "\n"))
        {
            Ok(()) => println!("wrote {path}"),
            Err(e) => stm_telemetry::log::warn(
                "bench",
                "artifact.write_failed",
                vec![("path", path), ("error", e.to_string())],
            ),
        }
    }

    match metrics.finish() {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => stm_telemetry::log::warn(
            "bench",
            "metrics.write_failed",
            vec![("error", e.to_string())],
        ),
    }
}

/// 1-based rank of the benchmark's ground-truth root cause in a
/// session's final (raw batch-model) ranking.
fn rank_of_root_cause(b: &Benchmark, ranking: &FinalRanking) -> Option<usize> {
    match ranking {
        FinalRanking::Lbr(r) => {
            let target = b.truth.target_branch().expect("sequential target");
            RankingModel::rank_of(r, |p| p.event.branch == target)
        }
        FinalRanking::Lcr(r) => {
            let fpe = b.truth.fpe.expect("concurrency FPE");
            let state = fpe.conf2_state.expect("Conf2 state");
            RankingModel::rank_of(r, |p| p.event.loc == fpe.loc && p.event.state == state)
        }
    }
}

/// Re-streams a full-quota session's witness profiles — in the engine's
/// consumption order (all failures, then all successes) — through a
/// public convergence tracker, charting the root cause's rank after every
/// witness and finding where the default policy would stop.
fn replay<E, F>(
    b: &Benchmark,
    runner: &Runner,
    profiles: &CollectedProfiles,
    absence: bool,
    is_target: F,
) -> (Vec<(usize, Option<usize>)>, Option<usize>)
where
    E: Ord + Clone + std::fmt::Display + WitnessEvents,
    F: Fn(&E) -> bool,
{
    let stream = witness_stream::<E>(b, runner, profiles);
    let mut tracker = if absence {
        ConvergenceTracker::with_absence(StabilityPolicy::default())
    } else {
        ConvergenceTracker::new(StabilityPolicy::default())
    };
    let mut curve = Vec::with_capacity(stream.len());
    let mut stable_at = None;
    for (i, (is_failure, witness, events)) in stream.into_iter().enumerate() {
        tracker.observe(is_failure, witness, events);
        let rank = tracker
            .scores()
            .iter()
            .position(|p| is_target(&p.event))
            .map(|i| i + 1);
        curve.push((i + 1, rank));
        if stable_at.is_none() && tracker.should_stop() {
            stable_at = Some(i + 1);
        }
    }
    (curve, stable_at)
}

/// Extraction seam: how each ring kind decodes a profile snapshot into
/// the event set the ranking ingests.
trait WitnessEvents: Sized {
    fn events(runner: &Runner, data: &ProfileData) -> Option<BTreeSet<Self>>;
}

impl WitnessEvents for BranchOutcome {
    fn events(runner: &Runner, data: &ProfileData) -> Option<BTreeSet<Self>> {
        match data {
            ProfileData::Lbr(records) => Some(lbr_events(runner.machine().layout(), records)),
            ProfileData::Lcr(_) => None,
        }
    }
}

impl WitnessEvents for CoherenceEvent {
    fn events(runner: &Runner, data: &ProfileData) -> Option<BTreeSet<Self>> {
        match data {
            ProfileData::Lcr(records) => Some(lcr_events(runner.machine().layout(), records)),
            ProfileData::Lbr(_) => None,
        }
    }
}

/// The kept witness runs as `(is_failure, witness id, events)` in the
/// engine's deterministic consumption order.
fn witness_stream<E: WitnessEvents>(
    b: &Benchmark,
    runner: &Runner,
    profiles: &CollectedProfiles,
) -> Vec<(bool, String, BTreeSet<E>)> {
    let spec: &FailureSpec = &b.truth.spec;
    let mut out = Vec::new();
    for run in profiles.failure_runs() {
        if let Some(p) = failure_profile(&run.report, spec) {
            if let Some(events) = E::events(runner, &p.data) {
                out.push((true, run.witness.clone(), events));
            }
        }
    }
    for run in profiles.success_runs() {
        if let Some(p) = success_profile(&run.report, spec) {
            if let Some(events) = E::events(runner, &p.data) {
                out.push((false, run.witness.clone(), events));
            }
        }
    }
    out
}
