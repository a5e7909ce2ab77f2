//! Online diagnosis convergence: incremental ranking, rank-stability
//! tracking, and the early-stop policy (ROADMAP item 2's streaming seam).
//!
//! The batch [`RankingModel`](crate::ranking::RankingModel) re-scores
//! every predictor against every profile (`O(P × E)`) and only after the
//! whole collection finishes. This module maintains the same statistics
//! *incrementally*: [`IncrementalRanking`] folds one witness profile in
//! at a time (`O(|profile|)` count updates), so the engine can re-rank
//! after every consumed job and an operator can watch the diagnosis
//! converge instead of waiting for the quota.
//!
//! Three layers:
//!
//! * [`IncrementalRanking`] — per-event match counts plus a shadow
//!   [`RankingModel`](crate::ranking::RankingModel), guaranteeing the
//!   final [`IncrementalRanking::finish`] ranking is *bit-identical* to
//!   the batch `rank()` / `rank_with_absence()` over the same profiles
//!   (pinned in `tests/engine_determinism.rs`);
//! * [`ConvergenceTracker`] — per-witness polling: top-k rank churn
//!   (Kendall-style discordant-pair count), the top-1 stability streak,
//!   and per-predictor score trajectories;
//! * [`StabilityPolicy`] — when the engine may stop collecting early:
//!   top-1 unchanged for `stable_for` consecutive witnesses, with floor
//!   counts on both profile classes so a failure-only prefix can never
//!   declare victory.
//!
//! The snapshot-level ingest entry point ([`SnapshotIngest`]) lives here
//! too: owned, publication-free per-diagnosis state that decodes ring
//! snapshots exactly as the batch extractors do — the seam the fleet
//! daemon feeds externally-produced snapshots through, one per shard.
//! The engine-facing [`ConvergenceMonitor`] wraps it and owns the single
//! call sites for the `engine.rank_churn` / `engine.top1_stable_for` /
//! `engine.witnesses_ingested` gauges and the live `/diagnosis` status
//! document.

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

/// When an incremental diagnosis may stop collecting early.
///
/// The default asks for a top-1 predictor that has survived five
/// consecutive witness ingests unchanged, with at least three profiles of
/// each class seen — precision is meaningless before both populations
/// exist, and witness-mode sessions ingest all failures before the first
/// success, so the floors keep a failure-only prefix from stopping the
/// session before the success phase begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityPolicy {
    /// Consecutive witnesses the top-1 predictor must survive unchanged.
    pub stable_for: usize,
    /// Minimum failure profiles ingested before stopping is allowed.
    pub min_failures: usize,
    /// Minimum success profiles ingested before stopping is allowed.
    pub min_successes: usize,
    /// Whether the policy may stop the session at all. `false` keeps the
    /// full observability surface (gauges, trajectories, verdict) while
    /// guaranteeing the session runs to its quota.
    pub stop: bool,
}

impl Default for StabilityPolicy {
    fn default() -> Self {
        StabilityPolicy {
            stable_for: 5,
            min_failures: 3,
            min_successes: 3,
            stop: true,
        }
    }
}

impl StabilityPolicy {
    /// Monitor-only policy: track convergence but never stop early. The
    /// verdict thresholds (`stable_for` and the class floors) keep their
    /// defaults so a full-quota run still reports `stable` or `stalled`.
    pub fn never() -> StabilityPolicy {
        StabilityPolicy {
            stop: false,
            ..StabilityPolicy::default()
        }
    }

    /// Sets the required top-1 stability streak.
    pub fn stable_for(mut self, n: usize) -> Self {
        self.stable_for = n;
        self
    }

    /// Sets the failure-profile floor.
    pub fn min_failures(mut self, n: usize) -> Self {
        self.min_failures = n;
        self
    }

    /// Sets the success-profile floor.
    pub fn min_successes(mut self, n: usize) -> Self {
        self.min_successes = n;
        self
    }

    /// The policy as a JSON object (for the `/diagnosis` document).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stable_for", Json::from(self.stable_for)),
            ("min_failures", Json::from(self.min_failures)),
            ("min_successes", Json::from(self.min_successes)),
            ("stop", Json::from(self.stop)),
        ])
    }
}

/// Per-event presence counts: in how many failure / success profiles the
/// event appeared.
#[derive(Debug, Clone, Copy, Default)]
struct EventCounts {
    fail: usize,
    succ: usize,
}

/// A predictor's live score at some point of the ingest stream — the
/// count-derived subset of [`RankedEvent`], cheap enough to recompute on
/// every witness.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPredictor<E> {
    /// The event.
    pub event: E,
    /// Presence or absence predictor.
    pub polarity: Polarity,
    /// Prediction precision `|F∧e| / |e|`.
    pub precision: f64,
    /// Prediction recall `|F∧e| / |F|`.
    pub recall: f64,
    /// Harmonic mean of precision and recall — the ranking key.
    pub score: f64,
    /// Failure profiles matching the predictor.
    pub failure_matches: usize,
    /// Success profiles matching the predictor.
    pub success_matches: usize,
}

/// Precision / recall / harmonic score from integer match counts — the
/// exact float expressions of `RankingModel::score_one`, so a score
/// computed from counts is bitwise equal to the batch score of the same
/// profile set.
fn score_counts(f: usize, s: usize, total_f: usize) -> (f64, f64, f64) {
    let precision = if f + s > 0 {
        f as f64 / (f + s) as f64
    } else {
        0.0
    };
    let recall = if total_f > 0 {
        f as f64 / total_f as f64
    } else {
        0.0
    };
    let score = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, score)
}

/// The §5.2 ranking statistics, maintained one profile at a time.
///
/// Each ingested profile updates per-event presence counts in
/// `O(|profile| log U)`; a live ranking over the event universe `U`
/// ([`IncrementalRanking::scores`]) costs `O(U log U)` — independent of
/// how many profiles have accumulated, where the batch model pays
/// `O(P × U)` per re-score. A shadow [`RankingModel`] keeps the full
/// profiles so [`IncrementalRanking::finish`] returns the batch ranking
/// verbatim (witness id lists included), bit-identical to calling
/// `rank()` / `rank_with_absence()` on the same profile stream.
#[derive(Debug, Clone)]
pub struct IncrementalRanking<E: Ord + Clone> {
    model: RankingModel<E>,
    counts: BTreeMap<E, EventCounts>,
    total_fail: usize,
    total_succ: usize,
    absence: bool,
}

impl<E: Ord + Clone> IncrementalRanking<E> {
    /// An empty presence-only ranking (the LBRA shape).
    pub fn new() -> Self {
        IncrementalRanking {
            model: RankingModel::new(),
            counts: BTreeMap::new(),
            total_fail: 0,
            total_succ: 0,
            absence: false,
        }
    }

    /// An empty ranking that also scores absence predictors (the LCRA
    /// shape, §4.2.2).
    pub fn with_absence() -> Self {
        IncrementalRanking {
            absence: true,
            ..IncrementalRanking::new()
        }
    }

    /// Whether absence predictors are scored alongside presence ones.
    pub fn scores_absence(&self) -> bool {
        self.absence
    }

    /// Failure profiles ingested so far.
    pub fn failure_count(&self) -> usize {
        self.total_fail
    }

    /// Success profiles ingested so far.
    pub fn success_count(&self) -> usize {
        self.total_succ
    }

    /// Folds one witness profile into the statistics.
    pub fn ingest(&mut self, is_failure: bool, id: impl Into<String>, events: BTreeSet<E>) {
        for e in &events {
            let slot = self.counts.entry(e.clone()).or_default();
            if is_failure {
                slot.fail += 1;
            } else {
                slot.succ += 1;
            }
        }
        if is_failure {
            self.total_fail += 1;
        } else {
            self.total_succ += 1;
        }
        self.model.add_profile_named(is_failure, id, events);
    }

    fn score_key(&self, event: &E, polarity: Polarity) -> ScoredPredictor<E> {
        let c = self.counts.get(event).copied().unwrap_or_default();
        let (f, s) = match polarity {
            Polarity::Present => (c.fail, c.succ),
            Polarity::Absent => (self.total_fail - c.fail, self.total_succ - c.succ),
        };
        let (precision, recall, score) = score_counts(f, s, self.total_fail);
        ScoredPredictor {
            event: event.clone(),
            polarity,
            precision,
            recall,
            score,
            failure_matches: f,
            success_matches: s,
        }
    }

    /// The current ranking, best first, under the batch tie-break order
    /// (score descending, event ascending, `Present` before `Absent`).
    /// Scores are bitwise equal to what the batch model would report for
    /// the same prefix of profiles.
    #[must_use = "scoring computes a fresh ranking; use the returned list"]
    pub fn scores(&self) -> Vec<ScoredPredictor<E>> {
        let mut out: Vec<ScoredPredictor<E>> = Vec::new();
        for e in self.counts.keys() {
            out.push(self.score_key(e, Polarity::Present));
            if self.absence {
                out.push(self.score_key(e, Polarity::Absent));
            }
        }
        out.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then_with(|| {
                a.event
                    .cmp(&b.event)
                    .then_with(|| a.polarity.cmp(&b.polarity))
            })
        });
        out
    }

    /// The final batch ranking over everything ingested — delegated to
    /// the shadow [`RankingModel`], so the result (witness lists and all)
    /// is bit-identical to a batch `rank()` / `rank_with_absence()` over
    /// the same profiles.
    #[must_use = "finishing consumes the ranking; use the returned list"]
    pub fn finish(self) -> Vec<RankedEvent<E>> {
        if self.absence {
            self.model.rank_with_absence()
        } else {
            self.model.rank()
        }
    }
}

impl<E: Ord + Clone> Default for IncrementalRanking<E> {
    fn default() -> Self {
        IncrementalRanking::new()
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

/// A named predictor's score history: `(witness count, score)` samples,
/// recorded whenever the predictor sat in the top-k.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Display form of the predictor (`!` prefix = absence).
    pub predictor: String,
    /// `(witnesses ingested, harmonic score)` samples.
    pub points: Vec<(usize, f64)>,
}

/// Live convergence state over an [`IncrementalRanking`]: churn, streak,
/// and trajectories, polled once per ingested witness.
#[derive(Debug, Clone)]
pub struct ConvergenceTracker<E: Ord + Clone + Display> {
    ranking: IncrementalRanking<E>,
    policy: StabilityPolicy,
    prev_top: Vec<(E, Polarity)>,
    churn: u64,
    top1_streak: usize,
    history: Vec<PollPoint>,
    trajectories: BTreeMap<String, Vec<(usize, f64)>>,
    scored: Vec<ScoredPredictor<E>>,
}

impl<E: Ord + Clone + Display> ConvergenceTracker<E> {
    /// A tracker over an empty ranking.
    pub fn new(ranking: IncrementalRanking<E>, policy: StabilityPolicy) -> Self {
        ConvergenceTracker {
            ranking,
            policy,
            prev_top: Vec::new(),
            churn: 0,
            top1_streak: 0,
            history: Vec::new(),
            trajectories: BTreeMap::new(),
            scored: Vec::new(),
        }
    }

    /// The policy the tracker evaluates.
    pub fn policy(&self) -> &StabilityPolicy {
        &self.policy
    }

    /// Witnesses ingested so far (both classes).
    pub fn witnesses(&self) -> usize {
        self.ranking.failure_count() + self.ranking.success_count()
    }

    /// Failure profiles ingested so far.
    pub fn failures(&self) -> usize {
        self.ranking.failure_count()
    }

    /// Success profiles ingested so far.
    pub fn successes(&self) -> usize {
        self.ranking.success_count()
    }

    /// Top-k churn measured at the latest poll.
    pub fn churn(&self) -> u64 {
        self.churn
    }

    /// Consecutive witnesses the current top-1 predictor has survived.
    pub fn top1_streak(&self) -> usize {
        self.top1_streak
    }

    /// The latest top-k ranking.
    pub fn top(&self) -> &[ScoredPredictor<E>] {
        &self.scored[..self.scored.len().min(TOP_K)]
    }

    /// The full live ranking over every observed event, as scored at the
    /// latest poll — the causal-chain reconstructor's support source (link
    /// candidates deep in a ring window rarely make the top-k).
    pub fn scores(&self) -> &[ScoredPredictor<E>] {
        &self.scored
    }

    /// Per-witness poll history.
    pub fn history(&self) -> &[PollPoint] {
        &self.history
    }

    /// Display form of a predictor key (`!` prefix marks absence).
    fn label(event: &E, polarity: Polarity) -> String {
        match polarity {
            Polarity::Present => format!("{event}"),
            Polarity::Absent => format!("!{event}"),
        }
    }

    /// Ingests one witness profile and re-polls the convergence state.
    pub fn observe(&mut self, is_failure: bool, id: impl Into<String>, events: BTreeSet<E>) {
        self.ranking.ingest(is_failure, id, events);
        self.scored = self.ranking.scores();
        let keys: Vec<(E, Polarity)> = self
            .top()
            .iter()
            .map(|p| (p.event.clone(), p.polarity))
            .collect();
        self.churn = rank_churn(&self.prev_top, &keys);
        let top1 = keys.first();
        self.top1_streak = match (self.prev_top.first(), top1) {
            (Some(prev), Some(cur)) if prev == cur => self.top1_streak + 1,
            (_, Some(_)) => 1,
            (_, None) => 0,
        };
        let witness = self.witnesses();
        for p in &self.scored[..keys.len()] {
            self.trajectories
                .entry(Self::label(&p.event, p.polarity))
                .or_default()
                .push((witness, p.score));
        }
        self.history.push(PollPoint {
            witness,
            churn: self.churn,
            top1_streak: self.top1_streak,
        });
        self.prev_top = keys;
    }

    /// Whether the policy's stability conditions hold right now
    /// (regardless of whether the policy is allowed to stop).
    pub fn is_stable(&self) -> bool {
        self.top1_streak >= self.policy.stable_for
            && self.failures() >= self.policy.min_failures
            && self.successes() >= self.policy.min_successes
    }

    /// Whether the engine should stop collecting: the stability
    /// conditions hold *and* the policy is armed.
    pub fn should_stop(&self) -> bool {
        self.policy.stop && self.is_stable()
    }

    /// Finalises the tracker: the batch-identical final ranking plus the
    /// accumulated convergence evidence.
    #[must_use = "finishing consumes the tracker; use the returned parts"]
    pub fn finish(self) -> (Vec<RankedEvent<E>>, ConvergenceEvidence) {
        let evidence = ConvergenceEvidence {
            witnesses: self.witnesses(),
            failures: self.failures(),
            successes: self.successes(),
            churn: self.churn,
            top1_streak: self.top1_streak,
            stable: self.is_stable(),
            top1: self
                .top()
                .first()
                .map(|p| Self::label(&p.event, p.polarity)),
            top: self
                .top()
                .iter()
                .map(|p| PredictorSummary {
                    predictor: Self::label(&p.event, p.polarity),
                    precision: p.precision,
                    recall: p.recall,
                    score: p.score,
                    failure_matches: p.failure_matches,
                    success_matches: p.success_matches,
                })
                .collect(),
            trajectories: self
                .trajectories
                .into_iter()
                .map(|(predictor, points)| Trajectory { predictor, points })
                .collect(),
            history: self.history,
        };
        (self.ranking.finish(), evidence)
    }

    /// The tracker's live state as the `/diagnosis` JSON document.
    pub fn to_json(&self, verdict: &str) -> Json {
        let top = self
            .top()
            .iter()
            .map(|p| {
                Json::obj([
                    ("predictor", Json::from(Self::label(&p.event, p.polarity))),
                    ("precision", Json::from(p.precision)),
                    ("recall", Json::from(p.recall)),
                    ("score", Json::from(p.score)),
                    ("failure_matches", Json::from(p.failure_matches)),
                    ("success_matches", Json::from(p.success_matches)),
                ])
            })
            .collect();
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
            ("witnesses_ingested", Json::from(self.witnesses())),
            ("failures", Json::from(self.failures())),
            ("successes", Json::from(self.successes())),
            ("rank_churn", Json::from(self.churn)),
            ("top1_stable_for", Json::from(self.top1_streak)),
            ("policy", self.policy.to_json()),
            ("top", Json::Arr(top)),
            ("trajectories", Json::Obj(trajectories)),
        ])
    }
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

/// One final top-k predictor, in display form.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorSummary {
    /// Display form of the predictor (`!` prefix = absence).
    pub predictor: String,
    /// Prediction precision.
    pub precision: f64,
    /// Prediction recall.
    pub recall: f64,
    /// Harmonic score.
    pub score: f64,
    /// Failure profiles matching.
    pub failure_matches: usize,
    /// Success profiles matching.
    pub success_matches: usize,
}

/// The type-erased convergence evidence a tracker accumulated.
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
    /// The final top-k, summarised.
    pub top: Vec<PredictorSummary>,
    /// Score history of every predictor that visited the top-k.
    pub trajectories: Vec<Trajectory>,
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

impl ConvergenceReport {
    /// The report as a JSON object (the `CONVERGENCE_<id>.json` shape,
    /// minus the harness-computed rank curve).
    pub fn to_json(&self) -> Json {
        let e = &self.evidence;
        let top = e
            .top
            .iter()
            .map(|p| {
                Json::obj([
                    ("predictor", Json::from(p.predictor.clone())),
                    ("precision", Json::from(p.precision)),
                    ("recall", Json::from(p.recall)),
                    ("score", Json::from(p.score)),
                ])
            })
            .collect();
        let trajectories = e
            .trajectories
            .iter()
            .map(|t| {
                let pts = t
                    .points
                    .iter()
                    .map(|(w, s)| Json::Arr(vec![Json::from(*w), Json::from(*s)]))
                    .collect();
                (t.predictor.clone(), Json::Arr(pts))
            })
            .collect();
        Json::obj([
            ("verdict", Json::from(self.verdict.as_str())),
            ("witnesses_ingested", Json::from(e.witnesses)),
            ("failures", Json::from(e.failures)),
            ("successes", Json::from(e.successes)),
            ("rank_churn", Json::from(e.churn)),
            ("top1_stable_for", Json::from(e.top1_streak)),
            ("policy", self.policy.to_json()),
            ("top", Json::Arr(top)),
            ("trajectories", Json::Obj(trajectories)),
        ])
    }
}

/// The snapshot-level ingest entry point, factored out of the session
/// run loop so long-lived consumers (the fleet daemon's per-shard state)
/// can feed *externally-produced* ring snapshots instead of runs the
/// engine executes itself.
///
/// One ingest owns everything a diagnosis needs — the program [`Layout`]
/// (for snapshot decoding), the [`FailureSpec`] (for profile selection)
/// and the ring-appropriate [`ConvergenceTracker`] — and publishes
/// nothing: no gauges, no status documents, no structured events. The
/// engine-facing [`ConvergenceMonitor`] wraps it and adds the global
/// observability surface; a fleet shard uses it directly and publishes
/// per-shard series instead.
///
/// **Determinism contract** (pinned in `tests/fleet_determinism.rs`):
/// observing the same `(is_failure, witness, report)` sequence always
/// produces the same stop decision at the same snapshot, and
/// [`SnapshotIngest::finish`] returns a final ranking bit-identical to
/// the batch [`RankingModel`](crate::ranking::RankingModel) over the
/// ingested snapshots — the shadow-model guarantee of
/// [`IncrementalRanking::finish`]. Snapshots whose profile is missing or
/// of the wrong ring are skipped exactly as the batch extractors skip
/// them.
#[derive(Debug)]
pub struct SnapshotIngest {
    layout: Layout,
    spec: FailureSpec,
    policy: StabilityPolicy,
    inner: Option<MonitorInner>,
    fired: bool,
}

/// How many failing-witness ring snapshots an ingest retains, decoded, for
/// live causal-chain reconstruction. The first `CHAIN_TRACE_CAP` kept
/// failure snapshots are retained in consumption order, so the retained
/// set is deterministic for a deterministic stream.
pub const CHAIN_TRACE_CAP: usize = 8;

/// Retained failing-witness traces: witness id plus its decoded ring.
type Traces<D> = Vec<(String, Vec<D>)>;

#[derive(Debug)]
enum MonitorInner {
    Lbr(ConvergenceTracker<BranchOutcome>, Traces<DecodedLbrEntry>),
    Lcr(ConvergenceTracker<CoherenceEvent>, Traces<DecodedLcrEntry>),
}

impl MonitorInner {
    fn lbr(policy: StabilityPolicy) -> Self {
        MonitorInner::Lbr(
            ConvergenceTracker::new(IncrementalRanking::new(), policy),
            Vec::new(),
        )
    }

    fn lcr(policy: StabilityPolicy) -> Self {
        MonitorInner::Lcr(
            ConvergenceTracker::new(IncrementalRanking::with_absence(), policy),
            Vec::new(),
        )
    }
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
        scores: &'a [ScoredPredictor<BranchOutcome>],
        /// Retained failing traces, decoded.
        traces: &'a [(String, Vec<DecodedLbrEntry>)],
    },
    /// LCRA: presence and absence predictors over coherence events.
    Lcr {
        /// The full scored ranking, best first.
        scores: &'a [ScoredPredictor<CoherenceEvent>],
        /// Retained failing traces, decoded.
        traces: &'a [(String, Vec<DecodedLcrEntry>)],
    },
}

/// Keeps a decoded ring when it is one of the first [`CHAIN_TRACE_CAP`]
/// failures — the same decode that fed the ranking, so no second pass.
fn retain<D>(traces: &mut Traces<D>, is_failure: bool, witness: &str, decoded: Vec<D>) {
    if is_failure && traces.len() < CHAIN_TRACE_CAP {
        traces.push((witness.to_string(), decoded));
    }
}

impl SnapshotIngest {
    /// An empty ingest. The ring kind is inferred from the first
    /// profile-bearing snapshot (so unpinned witness streams work).
    pub fn new(layout: Layout, spec: FailureSpec, policy: StabilityPolicy) -> Self {
        SnapshotIngest {
            layout,
            spec,
            policy,
            inner: None,
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
        let policy = self.policy;
        let inner = self.inner.get_or_insert_with(|| match &profile.data {
            ProfileData::Lbr(_) => MonitorInner::lbr(policy),
            ProfileData::Lcr(_) => MonitorInner::lcr(policy),
        });
        let ingested = match (&profile.data, inner) {
            (ProfileData::Lbr(records), MonitorInner::Lbr(t, traces)) => {
                let decoded = decode_lbr(&self.layout, records);
                let events = decoded.iter().filter_map(DecodedLbrEntry::branch_outcome);
                t.observe(is_failure, witness, events.collect());
                retain(traces, is_failure, witness, decoded);
                true
            }
            (ProfileData::Lcr(records), MonitorInner::Lcr(t, traces)) => {
                let decoded = decode_lcr(&self.layout, records);
                let events = decoded.iter().map(|e| e.event);
                t.observe(is_failure, witness, events.collect());
                retain(traces, is_failure, witness, decoded);
                true
            }
            // A profile of the other ring: the batch model skips it too.
            _ => false,
        };
        if ingested && self.should_stop() {
            self.fired = true;
        }
        ingested
    }

    /// The live scored ranking and the retained decoded failing traces,
    /// typed by ring kind — borrowed, nothing is re-scored or re-decoded.
    /// `None` before the first profile-bearing snapshot pins the kind.
    pub fn live_ranking(&self) -> Option<LiveRanking<'_>> {
        match &self.inner {
            Some(MonitorInner::Lbr(t, traces)) => Some(LiveRanking::Lbr {
                scores: t.scores(),
                traces,
            }),
            Some(MonitorInner::Lcr(t, traces)) => Some(LiveRanking::Lcr {
                scores: t.scores(),
                traces,
            }),
            None => None,
        }
    }

    /// Whether the policy has decided to stop the stream. Latches once
    /// fired, so speculative snapshots observed after the stop point
    /// cannot un-stop a diagnosis.
    pub fn should_stop(&self) -> bool {
        self.fired
            || match &self.inner {
                Some(MonitorInner::Lbr(t, _)) => t.should_stop(),
                Some(MonitorInner::Lcr(t, _)) => t.should_stop(),
                None => false,
            }
    }

    /// Snapshots ingested so far (both classes).
    pub fn witnesses(&self) -> usize {
        match &self.inner {
            Some(MonitorInner::Lbr(t, _)) => t.witnesses(),
            Some(MonitorInner::Lcr(t, _)) => t.witnesses(),
            None => 0,
        }
    }

    /// Failure snapshots ingested so far.
    pub fn failures(&self) -> usize {
        match &self.inner {
            Some(MonitorInner::Lbr(t, _)) => t.failures(),
            Some(MonitorInner::Lcr(t, _)) => t.failures(),
            None => 0,
        }
    }

    /// Success snapshots ingested so far.
    pub fn successes(&self) -> usize {
        match &self.inner {
            Some(MonitorInner::Lbr(t, _)) => t.successes(),
            Some(MonitorInner::Lcr(t, _)) => t.successes(),
            None => 0,
        }
    }

    /// Top-k churn at the latest ingest.
    pub fn churn(&self) -> u64 {
        match &self.inner {
            Some(MonitorInner::Lbr(t, _)) => t.churn(),
            Some(MonitorInner::Lcr(t, _)) => t.churn(),
            None => 0,
        }
    }

    /// Consecutive snapshots the current top-1 predictor has survived.
    pub fn top1_streak(&self) -> usize {
        match &self.inner {
            Some(MonitorInner::Lbr(t, _)) => t.top1_streak(),
            Some(MonitorInner::Lcr(t, _)) => t.top1_streak(),
            None => 0,
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

    /// The live state as a `/diagnosis`-shaped JSON document.
    pub fn to_json(&self) -> Json {
        match &self.inner {
            Some(MonitorInner::Lbr(t, _)) => t.to_json(self.live_verdict()),
            Some(MonitorInner::Lcr(t, _)) => t.to_json(self.live_verdict()),
            None => Json::obj([
                ("verdict", Json::from(self.live_verdict())),
                ("witnesses_ingested", Json::from(0usize)),
                ("policy", self.policy.to_json()),
            ]),
        }
    }

    /// Finalises the ingest: computes the verdict and returns the report
    /// — pure, with no side channel. `None` when no snapshot ever
    /// carried a usable profile.
    #[must_use = "finishing consumes the ingest; use the returned report"]
    pub fn finish(self) -> Option<ConvergenceReport> {
        let policy = self.policy;
        let fired = self.fired;
        let (final_ranking, evidence) = match self.inner? {
            MonitorInner::Lbr(t, _) => {
                let (r, e) = t.finish();
                (FinalRanking::Lbr(r), e)
            }
            MonitorInner::Lcr(t, _) => {
                let (r, e) = t.finish();
                (FinalRanking::Lcr(r), e)
            }
        };
        let verdict = if fired {
            Verdict::ConvergedEarly
        } else if evidence.stable {
            Verdict::Stable
        } else {
            Verdict::Stalled
        };
        Some(ConvergenceReport {
            verdict,
            policy,
            evidence,
            final_ranking,
        })
    }
}

/// The engine-facing monitor: a [`SnapshotIngest`] plus the *global*
/// observability surface — the `engine.rank_churn` /
/// `engine.top1_stable_for` / `engine.witnesses_ingested` gauges, the
/// live `/diagnosis` status document, and the `diagnosis.converged` /
/// `diagnosis.stalled` events emitted when the session ends. A fleet
/// shard uses [`SnapshotIngest`] directly instead: these gauge names are
/// single-call-site by contract (snapshots sum same-name gauges), so a
/// per-shard consumer must publish per-shard labeled series, not these.
///
/// Non-generic on purpose: the gauge macros declare one static per call
/// site and snapshots *sum* same-name gauges, so the `set()` calls must
/// not be monomorphised into one copy per event type.
#[derive(Debug)]
pub struct ConvergenceMonitor {
    ingest: SnapshotIngest,
}

impl ConvergenceMonitor {
    /// A monitor for one session. The ring kind is inferred from the
    /// first profile-bearing witness (so unpinned witness-mode sessions
    /// work); runs whose profile is missing or of the other ring are
    /// skipped, exactly as the batch extractors skip them.
    pub fn new(layout: &Layout, spec: FailureSpec, policy: StabilityPolicy) -> Self {
        let monitor = ConvergenceMonitor {
            ingest: SnapshotIngest::new(layout.clone(), spec, policy),
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
            self.publish();
        }
        ingested
    }

    /// Whether the policy has decided to stop the session.
    pub fn should_stop(&self) -> bool {
        self.ingest.should_stop()
    }

    /// Pushes the gauges and the `/diagnosis` status document. These are
    /// the single call sites for the three convergence gauges (snapshots
    /// sum same-name gauges across call sites, so a second `set()` site
    /// could not overwrite this one).
    fn publish(&self) {
        stm_telemetry::gauge!("engine.rank_churn").set(self.ingest.churn() as i64);
        stm_telemetry::gauge!("engine.top1_stable_for").set(self.ingest.top1_streak() as i64);
        stm_telemetry::gauge!("engine.witnesses_ingested").set(self.ingest.witnesses() as i64);
        if stm_telemetry::enabled() {
            stm_telemetry::status::publish("diagnosis", self.ingest.to_json());
        }
    }

    /// Finalises the monitor: computes the verdict, emits the
    /// `diagnosis.converged` / `diagnosis.stalled` structured event,
    /// publishes the terminal `/diagnosis` document, and returns the
    /// report. `None` when no witness ever carried a usable profile.
    #[must_use = "finishing consumes the monitor; use the returned report"]
    pub fn finish(self) -> Option<ConvergenceReport> {
        let report = self.ingest.finish()?;
        let policy = report.policy;
        let verdict = report.verdict;
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
                fields.push(("stable_for_required", policy.stable_for.to_string()));
                stm_telemetry::log::warn("engine", "diagnosis.stalled", fields);
            }
        }
        if stm_telemetry::enabled() {
            stm_telemetry::status::publish("diagnosis", report.to_json());
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The canonical check: stream profiles through the incremental
    /// ranker and compare against a batch model over the same stream.
    fn batch(profiles: &[(bool, BTreeSet<String>)], absence: bool) -> Vec<RankedEvent<String>> {
        let mut m = RankingModel::new();
        for (i, (is_failure, events)) in profiles.iter().enumerate() {
            m.add_profile_named(*is_failure, format!("p{i}"), events.clone());
        }
        if absence {
            m.rank_with_absence()
        } else {
            m.rank()
        }
    }

    fn stream(profiles: &[(bool, BTreeSet<String>)], absence: bool) -> IncrementalRanking<String> {
        let mut inc = if absence {
            IncrementalRanking::with_absence()
        } else {
            IncrementalRanking::new()
        };
        for (i, (is_failure, events)) in profiles.iter().enumerate() {
            inc.ingest(*is_failure, format!("p{i}"), events.clone());
        }
        inc
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
            let inc = stream(&profiles, absence);
            let batch = batch(&profiles, absence);
            assert_eq!(inc.finish(), batch, "absence={absence}");
        }
    }

    #[test]
    fn live_scores_match_batch_scores_at_every_prefix() {
        let profiles = mixed_profiles();
        for absence in [false, true] {
            let ranking = if absence {
                IncrementalRanking::with_absence()
            } else {
                IncrementalRanking::new()
            };
            let mut tracker = ConvergenceTracker::new(ranking, StabilityPolicy::never());
            for cut in 1..=profiles.len() {
                let inc = stream(&profiles[..cut], absence);
                let scores = inc.scores();
                // The tracker's cached list is the fresh scoring, bitwise:
                // `ScoredPredictor`'s derived equality compares the floats
                // by value, so the bits are checked on top.
                let (is_failure, events) = &profiles[cut - 1];
                tracker.observe(*is_failure, format!("p{}", cut - 1), events.clone());
                assert_eq!(tracker.scores(), &scores[..], "cut={cut}");
                for (c, s) in tracker.scores().iter().zip(&scores) {
                    assert_eq!(c.score.to_bits(), s.score.to_bits(), "cut={cut}");
                    assert_eq!(c.precision.to_bits(), s.precision.to_bits());
                    assert_eq!(c.recall.to_bits(), s.recall.to_bits());
                }
                let batch = batch(&profiles[..cut], absence);
                assert_eq!(scores.len(), batch.len());
                for (s, b) in scores.iter().zip(&batch) {
                    assert_eq!(s.event, b.event, "cut={cut}");
                    assert_eq!(s.polarity, b.polarity, "cut={cut}");
                    // Bitwise equality: same integer counts, same float
                    // expressions.
                    assert_eq!(s.score.to_bits(), b.score.to_bits(), "cut={cut}");
                    assert_eq!(s.precision.to_bits(), b.precision.to_bits());
                    assert_eq!(s.recall.to_bits(), b.recall.to_bits());
                    assert_eq!(s.failure_matches, b.failure_matches);
                    assert_eq!(s.success_matches, b.success_matches);
                }
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
        let mut t = ConvergenceTracker::new(
            IncrementalRanking::new(),
            StabilityPolicy::default().stable_for(3),
        );
        // Alternate failure/success so both class floors fill.
        for i in 0..8 {
            let is_failure = i % 2 == 0;
            let events = if is_failure {
                set(&["root", "noise"])
            } else {
                set(&["noise"])
            };
            t.observe(is_failure, format!("w{i}"), events);
        }
        assert!(t.top1_streak() >= 3, "streak {}", t.top1_streak());
        assert_eq!(t.top()[0].event, "root");
        assert!(t.should_stop());
        let (ranked, evidence) = t.finish();
        assert_eq!(ranked[0].event, "root");
        assert!(evidence.stable);
        assert_eq!(evidence.top1.as_deref(), Some("root"));
        assert_eq!(evidence.history.len(), 8);
    }

    #[test]
    fn class_floors_block_early_stop() {
        // Ten failures, zero successes: however stable the top-1, the
        // success floor must hold the stop (witness mode ingests all
        // failures before the first success).
        let mut t = ConvergenceTracker::new(IncrementalRanking::new(), StabilityPolicy::default());
        for i in 0..10 {
            t.observe(true, format!("f{i}"), set(&["root"]));
        }
        assert!(t.top1_streak() >= 5);
        assert!(!t.should_stop(), "success floor must block the stop");
        t.observe(false, "s0", set(&["noise"]));
        t.observe(false, "s1", set(&["noise"]));
        assert!(!t.should_stop(), "two successes are below the floor");
        t.observe(false, "s2", set(&["noise"]));
        assert!(t.should_stop(), "three successes satisfy the floor");
    }

    #[test]
    fn never_policy_tracks_but_does_not_stop() {
        let mut t = ConvergenceTracker::new(IncrementalRanking::new(), StabilityPolicy::never());
        for i in 0..20 {
            t.observe(i % 2 == 0, format!("w{i}"), set(&["root"]));
        }
        assert!(t.is_stable(), "the stability conditions themselves hold");
        assert!(!t.should_stop(), "never() must not stop the session");
    }

    #[test]
    fn churny_stream_resets_the_streak() {
        let mut t = ConvergenceTracker::new(IncrementalRanking::new(), StabilityPolicy::never());
        // Each failure profile carries a different singleton event, so
        // the top-1 keeps flipping to the newest tie-break winner or an
        // earlier event — the streak must stay short.
        let events = ["a", "b", "c", "d"];
        for (i, e) in events.iter().enumerate() {
            t.observe(true, format!("f{i}"), set(&[e]));
        }
        // All four tie at the same score; tie-break keeps "a" first, so
        // after the first ingest the top-1 settles on "a".
        assert_eq!(t.top()[0].event, "a");
        // Now a success profile containing "a" dilutes its precision:
        // the top-1 flips and the streak resets.
        t.observe(false, "s0", set(&["a"]));
        assert_ne!(t.top()[0].event, "a");
        assert_eq!(t.top1_streak(), 1, "flip must reset the streak");
        assert!(t.churn() > 0, "the flip must register as churn");
    }

    #[test]
    fn trajectories_follow_top_k_members() {
        let mut t = ConvergenceTracker::new(IncrementalRanking::new(), StabilityPolicy::never());
        t.observe(true, "f0", set(&["root"]));
        t.observe(false, "s0", set(&["noise"]));
        let (_, evidence) = t.finish();
        let names: Vec<&str> = evidence
            .trajectories
            .iter()
            .map(|t| t.predictor.as_str())
            .collect();
        assert!(names.contains(&"root"), "{names:?}");
        let root = evidence
            .trajectories
            .iter()
            .find(|t| t.predictor == "root")
            .unwrap();
        assert_eq!(root.points.len(), 2, "one sample per poll in top-k");
        assert_eq!(root.points[0].0, 1);
        assert_eq!(root.points[1].0, 2);
    }

    #[test]
    fn verdict_strings_are_wire_stable() {
        assert_eq!(Verdict::ConvergedEarly.as_str(), "converged");
        assert_eq!(Verdict::Stable.as_str(), "stable");
        assert_eq!(Verdict::Stalled.as_str(), "stalled");
    }

    #[test]
    fn tracker_json_document_is_parseable_and_complete() {
        let mut t = ConvergenceTracker::new(IncrementalRanking::new(), StabilityPolicy::default());
        t.observe(true, "f0", set(&["root"]));
        let doc = t.to_json("collecting");
        let round = Json::parse(&doc.encode()).expect("valid JSON");
        assert_eq!(
            round.get("verdict").and_then(Json::as_str),
            Some("collecting")
        );
        assert_eq!(
            round.get("witnesses_ingested").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(round.get("policy").is_some());
        assert!(round.get("top").and_then(Json::as_array).is_some());
        assert!(round.get("trajectories").is_some());
    }
}
