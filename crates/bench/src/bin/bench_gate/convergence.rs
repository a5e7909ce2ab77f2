//! The `convergence` harness: how fast the incremental diagnosis
//! converges — the observatory's "witnesses-to-stable-top-1" benchmark —
//! plus one `results/CONVERGENCE_<id>.json` curve artifact per benchmark.
//!
//! For sort (LBRA) and apache4 (LCRA Conf2) the harness runs the same
//! witness sets twice: once to full quota under
//! `StabilityPolicy::never()` (monitor-only), once under the default
//! early-stop policy. It then re-streams the full-quota witness reports
//! through the public [`SnapshotIngest`] API to chart the rank of the
//! ground-truth root cause after every ingested witness and to find the
//! exact witness count at which the default policy fires.
//!
//! Gated metrics (all deterministic — the simulation is fully seeded —
//! and all higher-is-worse):
//!
//! * `witnesses_full` / `witnesses_early` — witnesses ingested by the
//!   full-quota and early-stopped sessions; early-stop regressing
//!   toward the quota fails the gate.
//! * `witnesses_to_stable_top1` — first witness count satisfying the
//!   default policy on the full stream (`null` = never stabilised).
//! * `top1_mismatch` — 0 when the early-stopped session's top-1 equals
//!   the full-quota top-1, 1 otherwise (the acceptance invariant).
//! * `rank_full` / `rank_early` — 1-based rank of the root cause in
//!   each session's final (batch-identical) ranking.

use stm_bench::{json_rank, mark, MetricsEmitter};
use stm_core::converge::{FinalRanking, LiveRanking, SnapshotIngest, StabilityPolicy};
use stm_core::engine::{CollectedProfiles, ProfileKind};
use stm_core::ranking::RankingModel;
use stm_suite::eval::default_threads;
use stm_suite::GroundTruth;
use stm_telemetry::json::Json;

use crate::{deploy, write_artifact, Outcome, SUBJECTS};

pub fn run(metrics: &mut MetricsEmitter) -> Outcome {
    println!("Diagnosis convergence (witnesses to a stable top-1; lower is better)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "bench", "full", "early", "stable@", "rank_full", "rank_early", "top1_ok"
    );

    for id in SUBJECTS {
        let d = deploy(id);
        let (lbr, truth) = (d.kind == ProfileKind::Lbr, &d.bench.truth);
        let run = |policy: StabilityPolicy| -> CollectedProfiles {
            d.session(default_threads())
                .converge(policy)
                .collect()
                .expect("witness-mode collection cannot fail")
        };
        let full = run(StabilityPolicy::never());
        let early = run(StabilityPolicy::default());
        let full_report = full.convergence().expect("monitored session reports");
        let early_report = early.convergence().expect("monitored session reports");

        let (curve, stable_at) = replay(truth, &full);

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
        let rank_full = rank_of_root_cause(truth, &full_report.final_ranking);
        let rank_early = rank_of_root_cause(truth, &early_report.final_ranking);
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
        write_artifact(format!("results/CONVERGENCE_{id}.json"), &artifact);
    }
    Outcome::default()
}

/// 1-based rank of the ground-truth root cause in a session's final
/// (raw batch-model) ranking.
fn rank_of_root_cause(truth: &GroundTruth, ranking: &FinalRanking) -> Option<usize> {
    match ranking {
        FinalRanking::Lbr(r) => RankingModel::rank_of(r, |p| truth.is_root_branch(&p.event)),
        FinalRanking::Lcr(r) => RankingModel::rank_of(r, |p| truth.is_root_event(&p.event)),
    }
}

/// Re-streams a full-quota session's witness reports — in the engine's
/// consumption order (all failures, then all successes) — through a
/// public snapshot ingest, charting the root cause's rank after every
/// ingested witness and finding where the default policy would stop.
fn replay(
    truth: &GroundTruth,
    profiles: &CollectedProfiles,
) -> (Vec<(usize, Option<usize>)>, Option<usize>) {
    let mut ingest = SnapshotIngest::new(
        profiles.runner().machine().layout().clone(),
        profiles.spec().clone(),
        StabilityPolicy::default(),
    );
    let failures = profiles.failure_runs().iter().map(|r| (true, r));
    let successes = profiles.success_runs().iter().map(|r| (false, r));
    let mut curve = Vec::new();
    let mut stable_at = None;
    for (is_failure, run) in failures.chain(successes) {
        if !ingest.observe(is_failure, &run.witness, &run.report) {
            continue;
        }
        let rank = match ingest.live_ranking() {
            Some(LiveRanking::Lbr { scores, .. }) => {
                scores.iter().position(|p| truth.is_root_branch(&p.event))
            }
            Some(LiveRanking::Lcr { scores, .. }) => {
                scores.iter().position(|p| truth.is_root_event(&p.event))
            }
            None => None,
        };
        curve.push((ingest.witnesses(), rank.map(|i| i + 1)));
        if stable_at.is_none() && ingest.should_stop() {
            stable_at = Some(ingest.witnesses());
        }
    }
    (curve, stable_at)
}
