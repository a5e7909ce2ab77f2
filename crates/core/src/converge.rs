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
//! Two layers sit on top of the model:
//!
//! * [`ConvergenceTracker`] — owns the model, re-ranks it after every
//!   witness and polls top-k rank churn (Kendall-style discordant-pair
//!   count) and the top-1 stability streak. Its final ranking is the one
//!   its last witness produced: the model's own `rank()` /
//!   `rank_with_absence()`, so it equals the batch ranking over the same
//!   profiles by construction (pinned in `tests/engine_determinism.rs`);
//! * [`StabilityPolicy`] — whether the engine may stop collecting early
//!   once the ranking is stable: top-1 unchanged for [`STABLE_FOR`]
//!   consecutive witnesses, with at least [`MIN_FAILURES`] and
//!   [`MIN_SUCCESSES`] profiles so a failure-only prefix can never declare
//!   victory.
//!
//! The snapshot-level ingest entry point ([`SnapshotIngest`]) lives here
//! too: owned, publication-free per-diagnosis state that decodes ring
//! snapshots exactly as the batch extractors do — the seam the fleet
//! daemon feeds externally-produced snapshots through, one per shard.
//! The engine-facing [`ConvergenceMonitor`] wraps it and owns the single
//! call sites for the `engine.rank_churn` / `engine.top1_stable_for` /
//! `engine.witnesses_ingested` gauges, the per-predictor score
//! trajectories, and the `/diagnosis` status document (live and
//! terminal). A fleet shard's ingest records no trajectories: nothing in
//! the fleet reads them.

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

/// Display form of a predictor (`!` prefix marks absence).
fn label<E: Display>(p: &RankedEvent<E>) -> String {
    match p.polarity {
        Polarity::Present => format!("{}", p.event),
        Polarity::Absent => format!("!{}", p.event),
    }
}

/// Live convergence state over a [`RankingModel`]: churn and streak,
/// polled once per ingested witness.
#[derive(Debug, Clone)]
pub struct ConvergenceTracker<E: Ord + Clone + Display> {
    model: RankingModel<E>,
    absence: bool,
    policy: StabilityPolicy,
    prev_top: Vec<(E, Polarity)>,
    churn: u64,
    top1_streak: usize,
    history: Vec<PollPoint>,
    scored: Vec<RankedEvent<E>>,
}

impl<E: Ord + Clone + Display> ConvergenceTracker<E> {
    /// A tracker over an empty presence-only ranking (the LBRA shape).
    pub fn new(policy: StabilityPolicy) -> Self {
        ConvergenceTracker {
            model: RankingModel::new(),
            absence: false,
            policy,
            prev_top: Vec::new(),
            churn: 0,
            top1_streak: 0,
            history: Vec::new(),
            scored: Vec::new(),
        }
    }

    /// A tracker over an empty ranking that also scores absence
    /// predictors (the LCRA shape, §4.2.2).
    pub fn with_absence(policy: StabilityPolicy) -> Self {
        ConvergenceTracker {
            absence: true,
            ..ConvergenceTracker::new(policy)
        }
    }

    /// The policy the tracker evaluates.
    pub fn policy(&self) -> &StabilityPolicy {
        &self.policy
    }

    /// Witnesses ingested so far (both classes).
    pub fn witnesses(&self) -> usize {
        self.model.failure_count() + self.model.success_count()
    }

    /// Failure profiles ingested so far.
    pub fn failures(&self) -> usize {
        self.model.failure_count()
    }

    /// Success profiles ingested so far.
    pub fn successes(&self) -> usize {
        self.model.success_count()
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
    pub fn top(&self) -> &[RankedEvent<E>] {
        &self.scored[..self.scored.len().min(TOP_K)]
    }

    /// The full live ranking over every observed event, as scored at the
    /// latest poll — the causal-chain reconstructor's support source (link
    /// candidates deep in a ring window rarely make the top-k).
    pub fn scores(&self) -> &[RankedEvent<E>] {
        &self.scored
    }

    /// Display form of the latest top-1 predictor (`!` prefix = absence).
    fn top1(&self) -> Option<String> {
        self.top().first().map(label)
    }

    /// Per-witness poll history.
    pub fn history(&self) -> &[PollPoint] {
        &self.history
    }

    /// Ingests one witness profile and re-polls the convergence state.
    pub fn observe(&mut self, is_failure: bool, id: impl Into<String>, events: BTreeSet<E>) {
        self.model.add_profile_named(is_failure, id, events);
        self.scored = self.model.scores(self.absence);
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
        self.history.push(PollPoint {
            witness: self.witnesses(),
            churn: self.churn,
            top1_streak: self.top1_streak,
        });
        self.prev_top = keys;
    }

    /// Whether the policy's stability conditions hold right now
    /// (regardless of whether the policy is allowed to stop).
    pub fn is_stable(&self) -> bool {
        self.top1_streak >= STABLE_FOR
            && self.failures() >= MIN_FAILURES
            && self.successes() >= MIN_SUCCESSES
    }

    /// Whether the engine should stop collecting: the stability
    /// conditions hold *and* the policy is armed.
    pub fn should_stop(&self) -> bool {
        self.policy.stop && self.is_stable()
    }

    /// Finalises the tracker: the ranking its last witness produced —
    /// bit-identical to the model's `rank()`, or `rank_with_absence()` for
    /// the LCRA shape — plus the accumulated convergence evidence.
    #[must_use = "finishing consumes the tracker; use the returned parts"]
    pub fn finish(self) -> (Vec<RankedEvent<E>>, ConvergenceEvidence) {
        let evidence = ConvergenceEvidence {
            witnesses: self.witnesses(),
            failures: self.failures(),
            successes: self.successes(),
            churn: self.churn,
            top1_streak: self.top1_streak,
            stable: self.is_stable(),
            top1: self.top1(),
            history: self.history,
        };
        (self.scored, evidence)
    }

    /// Appends the latest top-k scores to `trajectories`.
    fn sample(&self, trajectories: &mut Trajectories) {
        for p in self.top() {
            trajectories
                .entry(label(p))
                .or_default()
                .push((self.witnesses(), p.score));
        }
    }

    /// The tracker's state under `verdict`, with `trajectories`, as the
    /// `/diagnosis` JSON document.
    fn to_json(&self, verdict: &str, trajectories: &Trajectories) -> Json {
        let top = self
            .top()
            .iter()
            .map(|p| {
                Json::obj([
                    ("predictor", Json::from(label(p))),
                    ("precision", Json::from(p.precision)),
                    ("recall", Json::from(p.recall)),
                    ("score", Json::from(p.score)),
                    ("failure_matches", Json::from(p.failure_matches)),
                    ("success_matches", Json::from(p.success_matches)),
                ])
            })
            .collect();
        let trajectories = trajectories
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
/// the batch [`RankingModel`] over the ingested snapshots — the tracker
/// ranks its own model. Snapshots whose profile is missing or of the
/// wrong ring are skipped exactly as the batch extractors skip them.
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
            ProfileData::Lbr(_) => MonitorInner::Lbr(ConvergenceTracker::new(policy), Vec::new()),
            ProfileData::Lcr(_) => {
                MonitorInner::Lcr(ConvergenceTracker::with_absence(policy), Vec::new())
            }
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

    /// Display form of the current top-1 predictor (`!` prefix =
    /// absence); `None` before the first ingested snapshot.
    pub fn top1(&self) -> Option<String> {
        match self.inner.as_ref()? {
            MonitorInner::Lbr(t, _) => t.top1(),
            MonitorInner::Lcr(t, _) => t.top1(),
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
        let stable = match self.inner.as_ref()? {
            MonitorInner::Lbr(t, _) => t.is_stable(),
            MonitorInner::Lcr(t, _) => t.is_stable(),
        };
        Some(if self.fired {
            Verdict::ConvergedEarly
        } else if stable {
            Verdict::Stable
        } else {
            Verdict::Stalled
        })
    }

    /// Finalises the ingest: the [`verdict`](SnapshotIngest::verdict)
    /// and the report — pure, with no side channel. `None` when no
    /// snapshot ever carried a usable profile.
    #[must_use = "finishing consumes the ingest; use the returned report"]
    pub fn finish(self) -> Option<ConvergenceReport> {
        let verdict = self.verdict()?;
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
            match &self.ingest.inner {
                Some(MonitorInner::Lbr(t, _)) => t.sample(&mut self.trajectories),
                Some(MonitorInner::Lcr(t, _)) => t.sample(&mut self.trajectories),
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
        match &self.ingest.inner {
            Some(MonitorInner::Lbr(t, _)) => t.to_json(verdict, &self.trajectories),
            Some(MonitorInner::Lcr(t, _)) => t.to_json(verdict, &self.trajectories),
            None => Json::obj([
                ("verdict", Json::from(verdict)),
                ("witnesses_ingested", Json::from(0usize)),
                ("policy", self.ingest.policy.to_json()),
            ]),
        }
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

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn tracker(absence: bool, policy: StabilityPolicy) -> ConvergenceTracker<String> {
        if absence {
            ConvergenceTracker::with_absence(policy)
        } else {
            ConvergenceTracker::new(policy)
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
            let mut t = tracker(absence, StabilityPolicy::never());
            let mut oracle = Oracle::new();
            for (i, (is_failure, events)) in profiles.iter().enumerate() {
                t.observe(*is_failure, format!("p{i}"), events.clone());
                oracle.add(*is_failure, format!("p{i}"), events.clone());
            }
            assert_eq!(t.finish().0, oracle.rank(absence), "absence={absence}");
        }
    }

    #[test]
    fn live_scores_match_batch_scores_at_every_prefix() {
        let profiles = mixed_profiles();
        for absence in [false, true] {
            let mut t = tracker(absence, StabilityPolicy::never());
            let mut oracle = Oracle::new();
            for (i, (is_failure, events)) in profiles.iter().enumerate() {
                t.observe(*is_failure, format!("p{i}"), events.clone());
                oracle.add(*is_failure, format!("p{i}"), events.clone());
                let context = format!("absence={absence} cut={}", i + 1);
                assert_scores_match(t.scores(), &oracle.rank(absence), &context);
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
        let mut t = ConvergenceTracker::new(StabilityPolicy::default());
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
        let mut t = ConvergenceTracker::new(StabilityPolicy::default());
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
        let mut t = ConvergenceTracker::new(StabilityPolicy::never());
        for i in 0..20 {
            t.observe(i % 2 == 0, format!("w{i}"), set(&["root"]));
        }
        assert!(t.is_stable(), "the stability conditions themselves hold");
        assert!(!t.should_stop(), "never() must not stop the session");
    }

    #[test]
    fn churny_stream_resets_the_streak() {
        let mut t = ConvergenceTracker::new(StabilityPolicy::never());
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
    fn verdict_strings_are_wire_stable() {
        assert_eq!(Verdict::ConvergedEarly.as_str(), "converged");
        assert_eq!(Verdict::Stable.as_str(), "stable");
        assert_eq!(Verdict::Stalled.as_str(), "stalled");
    }

    #[test]
    fn tracker_json_document_is_parseable_and_complete() {
        let mut t = ConvergenceTracker::new(StabilityPolicy::default());
        let mut trajectories = Trajectories::new();
        t.observe(true, "f0", set(&["root"]));
        t.sample(&mut trajectories);
        let doc = t.to_json("collecting", &trajectories);
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
        assert_eq!(
            round.get("trajectories").and_then(|t| t.get("root")),
            Some(&Json::Arr(vec![Json::Arr(vec![
                Json::from(1usize),
                Json::from(1.0)
            ])]))
        );
    }
}
