//! Online diagnosis convergence: live re-ranking, rank-stability
//! tracking, and the early-stop policy.
//!
//! A [`RankingModel`] stores its profiles as per-event postings, so
//! adding one witness profile costs `O(|profile| log U)` and a fresh
//! ranking, which reads match counts and no run ids, costs `O(U log U)`,
//! whatever the number of profiles. That is cheap enough to re-rank after
//! every consumed job, so an operator can watch the diagnosis converge
//! instead of waiting for the quota.
//!
//! [`SnapshotIngest`] is the one live diagnosis state: owned,
//! publication-free, it decodes ring snapshots exactly as the batch
//! extractors do, adds each to its model and re-ranks — the seam the
//! fleet daemon feeds externally-produced snapshots through, one per
//! shard. It keeps the convergence bookkeeping once, whatever the ring:
//! class counts, top-k rank churn (Kendall-style discordant-pair count),
//! the top-1 stability streak, the poll history and the stop latch. Only
//! the ranking is per ring: the model, its latest scores and the retained
//! failing traces. Its final ranking is the one its last snapshot
//! produced, the model's own `rank()` / `rank_with_absence()`, so it
//! equals the batch ranking over the same profiles by construction
//! (pinned in `tests/engine_determinism.rs`).
//!
//! [`StabilityPolicy`] says whether the ingest may stop collecting early
//! once the ranking is stable: top-1 unchanged for [`STABLE_FOR`]
//! consecutive snapshots, with at least [`MIN_FAILURES`] and
//! [`MIN_SUCCESSES`] profiles so a failure-only prefix can never declare
//! victory.
//!
//! The engine-facing [`ConvergenceMonitor`] wraps an ingest and owns the
//! single call sites for the `engine.rank_churn` /
//! `engine.top1_stable_for` / `engine.witnesses_ingested` gauges, the
//! per-predictor score trajectories, and the `/diagnosis` status document
//! (live and terminal). A fleet shard's ingest records no trajectories:
//! nothing in the fleet reads them.

use crate::diagnose::{failure_profile, success_profile};
use crate::profile::{
    decode_lbr, decode_lcr, BranchOutcome, CoherenceEvent, DecodedLbrEntry, DecodedLcrEntry,
};
use crate::ranking::{Polarity, RankedEvent, RankingModel};
use crate::runner::FailureSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use stm_machine::layout::Layout;
use stm_machine::report::{ProfileData, RunReport};
use stm_telemetry::json::Json;

/// How many leading predictors the churn metric and the live document
/// track. Ten mirrors the paper's "top 10" reporting cut-off.
pub const TOP_K: usize = 10;

/// Consecutive witness ingests the top-1 predictor must survive unchanged
/// before the ranking counts as stable.
pub const STABLE_FOR: usize = 5;

/// Failure profiles a stable ranking needs: precision is meaningless
/// before both populations exist.
pub const MIN_FAILURES: usize = 3;

/// Success profiles a stable ranking needs. Witness-mode sessions ingest
/// all failures before the first success, so this floor keeps a
/// failure-only prefix from stopping the session before the success phase
/// begins.
pub const MIN_SUCCESSES: usize = 3;

/// Whether an incremental diagnosis may stop collecting early, once the
/// ranking is stable: a top-1 predictor that has survived [`STABLE_FOR`]
/// consecutive witness ingests unchanged, with at least [`MIN_FAILURES`]
/// failure and [`MIN_SUCCESSES`] success profiles seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityPolicy {
    /// Whether the policy may stop the session at all. `false` keeps the
    /// full observability surface (gauges, trajectories, verdict) while
    /// guaranteeing the session runs to its quota.
    pub stop: bool,
}

impl Default for StabilityPolicy {
    fn default() -> Self {
        StabilityPolicy { stop: true }
    }
}

impl StabilityPolicy {
    /// Monitor-only policy: track convergence but never stop early. A
    /// full-quota run still reports `stable` or `stalled`.
    pub fn never() -> StabilityPolicy {
        StabilityPolicy { stop: false }
    }

    /// The policy as a JSON object (for the `/diagnosis` document),
    /// stability thresholds included.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stable_for", Json::from(STABLE_FOR)),
            ("min_failures", Json::from(MIN_FAILURES)),
            ("min_successes", Json::from(MIN_SUCCESSES)),
            ("stop", Json::from(self.stop)),
        ])
    }
}

/// Kendall-style displacement between two top-k rankings: the number of
/// predictor pairs whose relative order inverted. A key absent from one
/// ranking sits at virtual position `k` (below everything ranked), so an
/// entry dropping out of the top-k counts against every key it used to
/// precede.
pub fn rank_churn<K: Ord>(prev: &[K], cur: &[K]) -> u64 {
    let pos = |list: &[K], key: &K| -> usize {
        list.iter()
            .position(|k| k == key)
            .unwrap_or_else(|| list.len().max(prev.len().max(cur.len())))
    };
    let mut union: Vec<&K> = prev.iter().chain(cur.iter()).collect();
    union.sort();
    union.dedup();
    let mut churn = 0u64;
    for (i, a) in union.iter().enumerate() {
        for b in union.iter().skip(i + 1) {
            let before = pos(prev, a) as i64 - pos(prev, b) as i64;
            let after = pos(cur, a) as i64 - pos(cur, b) as i64;
            if before.signum() * after.signum() < 0 {
                churn += 1;
            }
        }
    }
    churn
}

/// One per-witness observation of the convergence state.
#[derive(Debug, Clone, PartialEq)]
pub struct PollPoint {
    /// Witnesses ingested when the poll was taken (1-based).
    pub witness: usize,
    /// Top-k discordant-pair churn against the previous poll.
    pub churn: u64,
    /// Consecutive witnesses the current top-1 has survived.
    pub top1_streak: usize,
}

/// Score histories keyed by predictor display form (`!` prefix =
/// absence): `(witnesses ingested, harmonic score)` samples, recorded
/// whenever the predictor sat in the top-k.
type Trajectories = BTreeMap<String, Vec<(usize, f64)>>;

/// The leading [`TOP_K`] rows of a ranking.
fn top<E>(scores: &[RankedEvent<E>]) -> &[RankedEvent<E>] {
    &scores[..scores.len().min(TOP_K)]
}

/// Appends the top-k scores of a ranking to `trajectories`, as sampled
/// after `witnesses` ingests.
fn sample<E: Display>(
    scores: &[RankedEvent<E>],
    witnesses: usize,
    trajectories: &mut Trajectories,
) {
    for p in top(scores) {
        trajectories
            .entry(p.to_string())
            .or_default()
            .push((witnesses, p.score));
    }
}

/// The top-k rows of a ranking, as the `/diagnosis` document's `top`.
fn top_rows<E: Display>(scores: &[RankedEvent<E>]) -> Json {
    let rows = top(scores)
        .iter()
        .map(|p| {
            Json::obj([
                ("predictor", Json::from(p.to_string())),
                ("precision", Json::from(p.precision)),
                ("recall", Json::from(p.recall)),
                ("score", Json::from(p.score)),
                ("failure_matches", Json::from(p.failure_matches)),
                ("success_matches", Json::from(p.success_matches)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

/// How a monitored session ended, convergence-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The stability policy fired and stopped collection before the
    /// quota.
    ConvergedEarly,
    /// The session ran to its quota and the top-1 was stable at the end.
    Stable,
    /// The session ended with the top-1 still churning — more witnesses
    /// (or a better signal) are needed.
    Stalled,
}

impl Verdict {
    /// The verdict's wire form (`/diagnosis`, events, artifacts).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::ConvergedEarly => "converged",
            Verdict::Stable => "stable",
            Verdict::Stalled => "stalled",
        }
    }
}

impl Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The type-erased convergence evidence an ingest accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceEvidence {
    /// Witnesses ingested (both classes).
    pub witnesses: usize,
    /// Failure profiles ingested.
    pub failures: usize,
    /// Success profiles ingested.
    pub successes: usize,
    /// Churn at the last poll.
    pub churn: u64,
    /// Final top-1 stability streak.
    pub top1_streak: usize,
    /// Whether the policy's stability conditions held at the end.
    pub stable: bool,
    /// Display form of the final top-1 predictor.
    pub top1: Option<String>,
    /// The per-witness poll history.
    pub history: Vec<PollPoint>,
}

/// The final ranking a monitored session produced, typed by ring kind.
/// Bit-identical to the batch model over the session's collected
/// profiles.
#[derive(Debug, Clone, PartialEq)]
pub enum FinalRanking {
    /// LBRA: presence predictors over branch outcomes.
    Lbr(Vec<RankedEvent<BranchOutcome>>),
    /// LCRA: presence and absence predictors over coherence events.
    Lcr(Vec<RankedEvent<CoherenceEvent>>),
}

impl FinalRanking {
    /// Number of ranked predictors.
    pub fn len(&self) -> usize {
        match self {
            FinalRanking::Lbr(r) => r.len(),
            FinalRanking::Lcr(r) => r.len(),
        }
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a monitored [`DiagnosisSession`](crate::engine::DiagnosisSession)
/// reports about its convergence, alongside the collected profiles.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// How the session ended.
    pub verdict: Verdict,
    /// The policy that was in force.
    pub policy: StabilityPolicy,
    /// The accumulated convergence evidence.
    pub evidence: ConvergenceEvidence,
    /// The final ranking, bit-identical to the batch model.
    pub final_ranking: FinalRanking,
}

/// The snapshot-level ingest entry point, factored out of the session
/// run loop so long-lived consumers (the fleet daemon's per-shard state)
/// can feed *externally-produced* ring snapshots instead of runs the
/// engine executes itself.
///
/// One ingest owns everything a diagnosis needs — the program [`Layout`]
/// (for snapshot decoding), the [`FailureSpec`] (for profile selection),
/// the convergence bookkeeping and the ring's live ranking — and
/// publishes nothing: no gauges, no status documents, no structured
/// events. The engine-facing [`ConvergenceMonitor`] wraps it and adds the
/// global observability surface; a fleet shard uses it directly and
/// publishes per-shard series instead.
///
/// **Determinism contract** (pinned in `tests/fleet_determinism.rs`):
/// observing the same `(is_failure, witness, report)` sequence always
/// produces the same stop decision at the same snapshot, and
/// [`SnapshotIngest::finish`] returns a final ranking bit-identical to
/// the batch [`RankingModel`] over the ingested snapshots — the ingest
/// ranks its own model. Snapshots whose profile is missing or of the
/// wrong ring are skipped exactly as the batch extractors skip them.
#[derive(Debug)]
pub struct SnapshotIngest {
    layout: Layout,
    spec: FailureSpec,
    policy: StabilityPolicy,
    /// The live ranking, typed by the ring kind the first profile-bearing
    /// snapshot pinned.
    ring: Option<LiveRing>,
    failures: usize,
    successes: usize,
    churn: u64,
    top1_streak: usize,
    history: Vec<PollPoint>,
    /// Latched once the policy fires.
    fired: bool,
}

/// How many failing-witness ring snapshots an ingest retains, decoded, for
/// live causal-chain reconstruction. The first `CHAIN_TRACE_CAP` kept
/// failure snapshots are retained in consumption order, so the retained
/// set is deterministic for a deterministic stream.
pub const CHAIN_TRACE_CAP: usize = 8;

/// Retained failing-witness traces: witness id plus its decoded ring.
type Traces<D> = Vec<(String, Vec<D>)>;

/// One ring's live ranking: the model over events `E`, its latest scores,
/// the keys of the previous top-k and the retained failing traces,
/// decoded to `D`.
#[derive(Debug)]
struct Live<E, D> {
    model: RankingModel<E>,
    absence: bool,
    scores: Vec<RankedEvent<E>>,
    prev_top: Vec<(E, Polarity)>,
    traces: Traces<D>,
}

impl<E: Ord + Clone, D> Live<E, D> {
    /// An empty ranking; `absence` also scores absence predictors (the
    /// LCRA shape, §4.2.2).
    fn new(absence: bool) -> Self {
        Live {
            model: RankingModel::new(),
            absence,
            scores: Vec::new(),
            prev_top: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Adds one profile, re-scores the model, and keeps `decoded` when it
    /// is one of the first [`CHAIN_TRACE_CAP`] failures — the same decode
    /// that fed the ranking, so no second pass. Returns the top-k churn
    /// against the previous scores and whether the top-1 survived them
    /// (`None` while nothing is ranked).
    fn add(
        &mut self,
        is_failure: bool,
        witness: &str,
        events: BTreeSet<E>,
        decoded: Vec<D>,
    ) -> (u64, Option<bool>) {
        self.model.add_profile_named(is_failure, witness, events);
        self.scores = self.model.scores(self.absence);
        let keys: Vec<(E, Polarity)> = top(&self.scores)
            .iter()
            .map(|p| (p.event.clone(), p.polarity))
            .collect();
        let churn = rank_churn(&self.prev_top, &keys);
        let survived = keys.first().map(|k| self.prev_top.first() == Some(k));
        self.prev_top = keys;
        if is_failure && self.traces.len() < CHAIN_TRACE_CAP {
            self.traces.push((witness.to_string(), decoded));
        }
        (churn, survived)
    }
}

/// The part of an ingest typed by ring kind.
#[derive(Debug)]
enum LiveRing {
    Lbr(Live<BranchOutcome, DecodedLbrEntry>),
    Lcr(Live<CoherenceEvent, DecodedLcrEntry>),
}

/// The live state of an ingest that a causal-chain reconstructor walks,
/// typed by ring kind: the scored ranking as of the latest snapshot (the
/// prefix-accurate counterpart of [`FinalRanking`]) and the retained
/// failing-witness traces, decoded once when they were retained (first
/// [`CHAIN_TRACE_CAP`] kept failures, in consumption order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveRanking<'a> {
    /// LBRA: presence predictors over branch outcomes.
    Lbr {
        /// The full scored ranking, best first.
        scores: &'a [RankedEvent<BranchOutcome>],
        /// Retained failing traces, decoded.
        traces: &'a [(String, Vec<DecodedLbrEntry>)],
    },
    /// LCRA: presence and absence predictors over coherence events.
    Lcr {
        /// The full scored ranking, best first.
        scores: &'a [RankedEvent<CoherenceEvent>],
        /// Retained failing traces, decoded.
        traces: &'a [(String, Vec<DecodedLcrEntry>)],
    },
}

impl SnapshotIngest {
    /// An empty ingest. The ring kind is inferred from the first
    /// profile-bearing snapshot (so unpinned witness streams work).
    pub fn new(layout: Layout, spec: FailureSpec, policy: StabilityPolicy) -> Self {
        SnapshotIngest {
            layout,
            spec,
            policy,
            ring: None,
            failures: 0,
            successes: 0,
            churn: 0,
            top1_streak: 0,
            history: Vec::new(),
            fired: false,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &StabilityPolicy {
        &self.policy
    }

    /// Observes one snapshot-bearing run. Returns `true` when the run
    /// carried a usable profile and was ingested.
    pub fn observe(&mut self, is_failure: bool, witness: &str, report: &RunReport) -> bool {
        let profile = if is_failure {
            failure_profile(report, &self.spec)
        } else {
            success_profile(report, &self.spec)
        };
        let Some(profile) = profile else {
            return false;
        };
        // The first profile-bearing snapshot pins the ring kind.
        let ring = self.ring.get_or_insert_with(|| match &profile.data {
            ProfileData::Lbr(_) => LiveRing::Lbr(Live::new(false)),
            ProfileData::Lcr(_) => LiveRing::Lcr(Live::new(true)),
        });
        let poll = match (&profile.data, ring) {
            (ProfileData::Lbr(records), LiveRing::Lbr(live)) => {
                let decoded = decode_lbr(&self.layout, records);
                let events = decoded.iter().filter_map(DecodedLbrEntry::branch_outcome);
                live.add(is_failure, witness, events.collect(), decoded)
            }
            (ProfileData::Lcr(records), LiveRing::Lcr(live)) => {
                let decoded = decode_lcr(&self.layout, records);
                let events = decoded.iter().map(|e| e.event);
                live.add(is_failure, witness, events.collect(), decoded)
            }
            // A profile of the other ring: the batch model skips it too.
            _ => return false,
        };
        self.poll(is_failure, poll);
        true
    }

    /// Records one ingested snapshot of class `is_failure` with the churn
    /// and top-1 survival its re-ranking measured, and latches the stop
    /// once the policy may stop and the ranking is stable.
    fn poll(&mut self, is_failure: bool, (churn, survived): (u64, Option<bool>)) {
        if is_failure {
            self.failures += 1;
        } else {
            self.successes += 1;
        }
        self.churn = churn;
        self.top1_streak = match survived {
            Some(true) => self.top1_streak + 1,
            Some(false) => 1,
            None => 0,
        };
        self.history.push(PollPoint {
            witness: self.witnesses(),
            churn,
            top1_streak: self.top1_streak,
        });
        self.fired |= self.policy.stop && self.is_stable();
    }

    /// The live scored ranking and the retained decoded failing traces,
    /// typed by ring kind — borrowed, nothing is re-scored or re-decoded.
    /// `None` before the first profile-bearing snapshot pins the kind.
    pub fn live_ranking(&self) -> Option<LiveRanking<'_>> {
        Some(match self.ring.as_ref()? {
            LiveRing::Lbr(live) => LiveRanking::Lbr {
                scores: &live.scores,
                traces: &live.traces,
            },
            LiveRing::Lcr(live) => LiveRanking::Lcr {
                scores: &live.scores,
                traces: &live.traces,
            },
        })
    }

    /// Whether the policy has decided to stop the stream. Latches once
    /// fired, so speculative snapshots observed after the stop point
    /// cannot un-stop a diagnosis.
    pub fn should_stop(&self) -> bool {
        self.fired
    }

    /// Whether the policy's stability conditions hold now, whether or not
    /// the policy may stop.
    fn is_stable(&self) -> bool {
        self.top1_streak >= STABLE_FOR
            && self.failures >= MIN_FAILURES
            && self.successes >= MIN_SUCCESSES
    }

    /// Snapshots ingested so far (both classes).
    pub fn witnesses(&self) -> usize {
        self.failures + self.successes
    }

    /// Failure snapshots ingested so far.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Success snapshots ingested so far.
    pub fn successes(&self) -> usize {
        self.successes
    }

    /// Top-k churn at the latest ingest.
    pub fn churn(&self) -> u64 {
        self.churn
    }

    /// Consecutive snapshots the current top-1 predictor has survived.
    pub fn top1_streak(&self) -> usize {
        self.top1_streak
    }

    /// Display form of the current top-1 predictor (`!` prefix =
    /// absence); `None` before the first ingested snapshot.
    pub fn top1(&self) -> Option<String> {
        match self.live_ranking()? {
            LiveRanking::Lbr { scores, .. } => scores.first().map(ToString::to_string),
            LiveRanking::Lcr { scores, .. } => scores.first().map(ToString::to_string),
        }
    }

    /// Live verdict string: `converged` once the policy has fired,
    /// `collecting` before.
    pub fn live_verdict(&self) -> &'static str {
        if self.fired {
            Verdict::ConvergedEarly.as_str()
        } else {
            "collecting"
        }
    }

    /// The verdict [`finish`](SnapshotIngest::finish) would report now:
    /// `converged` once the policy has fired, `stable` when its stability
    /// conditions hold, `stalled` otherwise. `None` before the first
    /// ingested snapshot, when there is no report to end with.
    pub fn verdict(&self) -> Option<Verdict> {
        (self.witnesses() > 0).then(|| {
            if self.fired {
                Verdict::ConvergedEarly
            } else if self.is_stable() {
                Verdict::Stable
            } else {
                Verdict::Stalled
            }
        })
    }

    /// Finalises the ingest: the [`verdict`](SnapshotIngest::verdict)
    /// and the report — pure, with no side channel. `None` when no
    /// snapshot ever carried a usable profile.
    #[must_use = "finishing consumes the ingest; use the returned report"]
    pub fn finish(self) -> Option<ConvergenceReport> {
        let verdict = self.verdict()?;
        let evidence = ConvergenceEvidence {
            witnesses: self.witnesses(),
            failures: self.failures,
            successes: self.successes,
            churn: self.churn,
            top1_streak: self.top1_streak,
            stable: self.is_stable(),
            top1: self.top1(),
            history: self.history,
        };
        let final_ranking = match self.ring? {
            LiveRing::Lbr(live) => FinalRanking::Lbr(live.scores),
            LiveRing::Lcr(live) => FinalRanking::Lcr(live.scores),
        };
        Some(ConvergenceReport {
            verdict,
            policy: self.policy,
            evidence,
            final_ranking,
        })
    }
}

/// The engine-facing monitor: a [`SnapshotIngest`] plus the *global*
/// observability surface — the `engine.rank_churn` /
/// `engine.top1_stable_for` / `engine.witnesses_ingested` gauges, the
/// per-predictor score trajectories, the `/diagnosis` status document,
/// and the `diagnosis.converged` / `diagnosis.stalled` events emitted
/// when the session ends. A fleet shard uses [`SnapshotIngest`] directly
/// instead: these gauge names are single-call-site by contract
/// (snapshots sum same-name gauges), so a per-shard consumer must publish
/// per-shard labeled series, not these.
///
/// Non-generic on purpose: the gauge macros declare one static per call
/// site and snapshots *sum* same-name gauges, so the `set()` calls must
/// not be monomorphised into one copy per event type.
#[derive(Debug)]
pub struct ConvergenceMonitor {
    ingest: SnapshotIngest,
    trajectories: Trajectories,
}

impl ConvergenceMonitor {
    /// A monitor for one session. The ring kind is inferred from the
    /// first profile-bearing witness (so unpinned witness-mode sessions
    /// work); runs whose profile is missing or of the other ring are
    /// skipped, exactly as the batch extractors skip them.
    pub fn new(layout: &Layout, spec: FailureSpec, policy: StabilityPolicy) -> Self {
        let monitor = ConvergenceMonitor {
            ingest: SnapshotIngest::new(layout.clone(), spec, policy),
            trajectories: Trajectories::new(),
        };
        monitor.publish();
        monitor
    }

    /// Observes one kept witness run at the strict-ordered consumption
    /// seam. Returns `true` when the run carried a usable profile and was
    /// ingested.
    pub fn observe(&mut self, is_failure: bool, witness: &str, report: &RunReport) -> bool {
        let ingested = self.ingest.observe(is_failure, witness, report);
        if ingested {
            let witnesses = self.ingest.witnesses();
            match self.ingest.live_ranking() {
                Some(LiveRanking::Lbr { scores, .. }) => {
                    sample(scores, witnesses, &mut self.trajectories)
                }
                Some(LiveRanking::Lcr { scores, .. }) => {
                    sample(scores, witnesses, &mut self.trajectories)
                }
                None => {}
            }
            self.publish();
        }
        ingested
    }

    /// Whether the policy has decided to stop the session.
    pub fn should_stop(&self) -> bool {
        self.ingest.should_stop()
    }

    /// The `/diagnosis` document under `verdict`: the one renderer of the
    /// live, pre-first-witness and terminal documents.
    fn document(&self, verdict: &str) -> Json {
        let ingest = &self.ingest;
        let top = match ingest.live_ranking() {
            Some(LiveRanking::Lbr { scores, .. }) => top_rows(scores),
            Some(LiveRanking::Lcr { scores, .. }) => top_rows(scores),
            None => {
                return Json::obj([
                    ("verdict", Json::from(verdict)),
                    ("witnesses_ingested", Json::from(0usize)),
                    ("policy", ingest.policy.to_json()),
                ])
            }
        };
        let trajectories = self
            .trajectories
            .iter()
            .map(|(label, points)| {
                let pts = points
                    .iter()
                    .map(|(w, s)| Json::Arr(vec![Json::from(*w), Json::from(*s)]))
                    .collect();
                (label.clone(), Json::Arr(pts))
            })
            .collect();
        Json::obj([
            ("verdict", Json::from(verdict)),
            ("witnesses_ingested", Json::from(ingest.witnesses())),
            ("failures", Json::from(ingest.failures)),
            ("successes", Json::from(ingest.successes)),
            ("rank_churn", Json::from(ingest.churn)),
            ("top1_stable_for", Json::from(ingest.top1_streak)),
            ("policy", ingest.policy.to_json()),
            ("top", top),
            ("trajectories", Json::Obj(trajectories)),
        ])
    }

    /// Pushes the gauges and the live `/diagnosis` status document. These
    /// are the single call sites for the three convergence gauges
    /// (snapshots sum same-name gauges across call sites, so a second
    /// `set()` site could not overwrite this one).
    fn publish(&self) {
        stm_telemetry::gauge!("engine.rank_churn").set(self.ingest.churn() as i64);
        stm_telemetry::gauge!("engine.top1_stable_for").set(self.ingest.top1_streak() as i64);
        stm_telemetry::gauge!("engine.witnesses_ingested").set(self.ingest.witnesses() as i64);
        if stm_telemetry::enabled() {
            let doc = self.document(self.ingest.live_verdict());
            stm_telemetry::status::publish("diagnosis", doc);
        }
    }

    /// Finalises the monitor: emits the `diagnosis.converged` /
    /// `diagnosis.stalled` structured event, publishes the terminal
    /// `/diagnosis` document (the live document under the final verdict),
    /// and returns the report. `None` when no witness ever carried a
    /// usable profile.
    #[must_use = "finishing consumes the monitor; use the returned report"]
    pub fn finish(self) -> Option<ConvergenceReport> {
        let verdict = self.ingest.verdict()?;
        let terminal = stm_telemetry::enabled().then(|| self.document(verdict.as_str()));
        let report = self.ingest.finish()?;
        let e = &report.evidence;
        let fields = || {
            vec![
                ("witnesses", e.witnesses.to_string()),
                ("failures", e.failures.to_string()),
                ("successes", e.successes.to_string()),
                ("rank_churn", e.churn.to_string()),
                ("top1_stable_for", e.top1_streak.to_string()),
                ("top1", e.top1.clone().unwrap_or_default()),
            ]
        };
        match verdict {
            // `converged` also covers the quota-end `stable` case: the
            // operator's question is "did the diagnosis settle", not
            // "which loop condition ended it" — the verdict field keeps
            // the distinction.
            Verdict::ConvergedEarly | Verdict::Stable => {
                if stm_telemetry::log::would_log(stm_telemetry::log::Level::Info) {
                    let mut fields = fields();
                    fields.push(("verdict", verdict.as_str().to_string()));
                    stm_telemetry::log::info("engine", "diagnosis.converged", fields);
                }
            }
            Verdict::Stalled => {
                let mut fields = fields();
                fields.push(("stable_for_required", STABLE_FOR.to_string()));
                stm_telemetry::log::warn("engine", "diagnosis.stalled", fields);
            }
        }
        if let Some(doc) = terminal {
            stm_telemetry::status::publish("diagnosis", doc);
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::tests::{assert_scores_match, Oracle};
    use stm_machine::builder::ProgramBuilder;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// A string-event ranking feeding an ingest's bookkeeping: what
    /// [`SnapshotIngest::observe`] does after it decodes a snapshot.
    struct Stream {
        live: Live<String, ()>,
        ingest: SnapshotIngest,
    }

    impl Stream {
        fn new(absence: bool, policy: StabilityPolicy) -> Self {
            let mut pb = ProgramBuilder::new("p");
            let main = pb.declare_function("main");
            let mut f = pb.build_function(main, "m.c");
            f.ret(None);
            f.finish();
            let layout = Layout::build(&pb.finish(main));
            Stream {
                live: Live::new(absence),
                ingest: SnapshotIngest::new(layout, FailureSpec::AnyCrash, policy),
            }
        }

        fn observe(&mut self, is_failure: bool, id: &str, events: BTreeSet<String>) {
            let poll = self.live.add(is_failure, id, events, Vec::new());
            self.ingest.poll(is_failure, poll);
        }

        fn top(&self) -> &[RankedEvent<String>] {
            top(&self.live.scores)
        }
    }

    fn mixed_profiles() -> Vec<(bool, BTreeSet<String>)> {
        vec![
            (true, set(&["root", "noise"])),
            (true, set(&["root"])),
            (false, set(&["noise", "guard"])),
            (true, set(&["root", "guard"])),
            (false, set(&["guard"])),
            (false, set(&["noise"])),
        ]
    }

    #[test]
    fn finish_is_bit_identical_to_batch_rank() {
        let profiles = mixed_profiles();
        for absence in [false, true] {
            let mut s = Stream::new(absence, StabilityPolicy::never());
            let mut oracle = Oracle::new();
            for (i, (is_failure, events)) in profiles.iter().enumerate() {
                s.observe(*is_failure, &format!("p{i}"), events.clone());
                oracle.add(*is_failure, format!("p{i}"), events.clone());
            }
            // `finish` hands back these scores as the final ranking.
            assert_eq!(s.live.scores, oracle.rank(absence), "absence={absence}");
        }
    }

    #[test]
    fn live_scores_match_batch_scores_at_every_prefix() {
        let profiles = mixed_profiles();
        for absence in [false, true] {
            let mut s = Stream::new(absence, StabilityPolicy::never());
            let mut oracle = Oracle::new();
            for (i, (is_failure, events)) in profiles.iter().enumerate() {
                s.observe(*is_failure, &format!("p{i}"), events.clone());
                oracle.add(*is_failure, format!("p{i}"), events.clone());
                let context = format!("absence={absence} cut={}", i + 1);
                assert_scores_match(&s.live.scores, &oracle.rank(absence), &context);
            }
        }
    }

    #[test]
    fn churn_counts_discordant_pairs() {
        // Identical rankings: zero churn.
        assert_eq!(rank_churn(&["a", "b", "c"], &["a", "b", "c"]), 0);
        // One adjacent swap: one discordant pair.
        assert_eq!(rank_churn(&["a", "b", "c"], &["b", "a", "c"]), 1);
        // Full reversal of 3: all 3 pairs discordant.
        assert_eq!(rank_churn(&["a", "b", "c"], &["c", "b", "a"]), 3);
        // First poll (empty previous): nothing to be discordant with.
        assert_eq!(rank_churn(&[], &["a", "b"]), 0);
        // An entry dropping out is discordant with everything it led.
        assert_eq!(rank_churn(&["a", "b"], &["b"]), 1);
    }

    #[test]
    fn stable_stream_builds_a_streak_and_stops() {
        let mut s = Stream::new(false, StabilityPolicy::default());
        // Alternate failure/success so both class floors fill.
        for i in 0..8 {
            let is_failure = i % 2 == 0;
            let events = if is_failure {
                set(&["root", "noise"])
            } else {
                set(&["noise"])
            };
            s.observe(is_failure, &format!("w{i}"), events);
        }
        let streak = s.ingest.top1_streak();
        assert!(streak >= 3, "streak {streak}");
        assert_eq!(s.top()[0].event, "root");
        assert!(s.ingest.should_stop());
        // The evidence `finish` copies out of the same state
        // (`tests/engine_determinism.rs` checks it on a finished report).
        assert_eq!(s.live.scores[0].event, "root");
        assert!(s.ingest.is_stable());
        assert_eq!(s.live.scores[0].to_string(), "root");
        assert_eq!(s.ingest.history.len(), 8);
    }

    #[test]
    fn class_floors_block_early_stop() {
        // Ten failures, zero successes: however stable the top-1, the
        // success floor must hold the stop (witness mode ingests all
        // failures before the first success).
        let mut s = Stream::new(false, StabilityPolicy::default());
        for i in 0..10 {
            s.observe(true, &format!("f{i}"), set(&["root"]));
        }
        assert!(s.ingest.top1_streak() >= 5);
        assert!(!s.ingest.should_stop(), "success floor must block the stop");
        s.observe(false, "s0", set(&["noise"]));
        s.observe(false, "s1", set(&["noise"]));
        assert!(!s.ingest.should_stop(), "two successes are below the floor");
        s.observe(false, "s2", set(&["noise"]));
        assert!(s.ingest.should_stop(), "three successes satisfy the floor");
    }

    #[test]
    fn never_policy_tracks_but_does_not_stop() {
        let mut s = Stream::new(false, StabilityPolicy::never());
        for i in 0..20 {
            s.observe(i % 2 == 0, &format!("w{i}"), set(&["root"]));
        }
        assert!(
            s.ingest.is_stable(),
            "the stability conditions themselves hold"
        );
        assert!(!s.ingest.should_stop(), "never() must not stop the session");
    }

    #[test]
    fn churny_stream_resets_the_streak() {
        let mut s = Stream::new(false, StabilityPolicy::never());
        // Each failure profile carries a different singleton event, so
        // the top-1 keeps flipping to the newest tie-break winner or an
        // earlier event — the streak must stay short.
        let events = ["a", "b", "c", "d"];
        for (i, e) in events.iter().enumerate() {
            s.observe(true, &format!("f{i}"), set(&[e]));
        }
        // All four tie at the same score; tie-break keeps "a" first, so
        // after the first ingest the top-1 settles on "a".
        assert_eq!(s.top()[0].event, "a");
        // Now a success profile containing "a" dilutes its precision:
        // the top-1 flips and the streak resets.
        s.observe(false, "s0", set(&["a"]));
        assert_ne!(s.top()[0].event, "a");
        assert_eq!(s.ingest.top1_streak(), 1, "flip must reset the streak");
        assert!(s.ingest.churn() > 0, "the flip must register as churn");
    }

    #[test]
    fn verdict_strings_are_wire_stable() {
        assert_eq!(Verdict::ConvergedEarly.as_str(), "converged");
        assert_eq!(Verdict::Stable.as_str(), "stable");
        assert_eq!(Verdict::Stalled.as_str(), "stalled");
    }

    #[test]
    fn tracker_json_document_is_parseable_and_complete() {
        // The document's ranking parts; `tests/observability.rs` checks
        // the whole first live document of a real monitor the same way.
        let mut s = Stream::new(false, StabilityPolicy::default());
        let mut trajectories = Trajectories::new();
        s.observe(true, "f0", set(&["root"]));
        sample(&s.live.scores, s.ingest.witnesses(), &mut trajectories);
        let top = Json::parse(&top_rows(&s.live.scores).encode()).expect("valid JSON");
        let top = top.as_array().expect("a top array");
        assert_eq!(top[0].get("predictor").and_then(Json::as_str), Some("root"));
        assert_eq!(s.ingest.witnesses(), 1);
        assert_eq!(s.ingest.live_verdict(), "collecting");
        assert_eq!(trajectories.get("root"), Some(&vec![(1, 1.0)]));
    }
}
