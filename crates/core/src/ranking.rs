//! The statistical failure-predictor ranking model of §5.2.
//!
//! Each run contributes one *profile*: the set of events recorded in
//! LBR/LCR at (or near) the failure site. For an event `e`:
//!
//! * **prediction precision** = `|F ∧ e| / |e|` — of the runs whose profile
//!   contains `e`, how many failed;
//! * **prediction recall** = `|F ∧ e| / |F|` — of the failing runs, how
//!   many contain `e`.
//!
//! Events are ranked by the harmonic mean of the two. The model optionally
//! also scores *absence* predictors (`¬e`), which §4.2.2 needs for
//! read-too-early order violations under the space-saving LCR
//! configuration ("failures are highly correlated with B2 *not*
//! encountering a shared state").
//!
//! [`RankingModel`] is the only implementation of these statistics. It
//! stores profiles as *postings*: for every event, the ascending indexes
//! of the failure profiles and of the success profiles that contain it —
//! the hit-spectrum matrix of spectrum-based fault localization, stored
//! sparsely. Match counts are posting lengths, so
//! [`RankingModel::scores`] costs `O(U log U)` over the event universe
//! `U` however many profiles have accumulated, and
//! [`RankingModel::rank`] reads its witness ids straight from the
//! postings. The batch diagnosis drivers and the live
//! [`ConvergenceTracker`](crate::converge::ConvergenceTracker) share this
//! one store, so incremental and batch rankings agree by construction.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Whether a predictor fires on the presence or the absence of its event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// The event's presence in a profile predicts failure.
    Present,
    /// The event's absence from a profile predicts failure.
    Absent,
}

/// A scored failure predictor, carrying the full evidence trail that
/// produced its rank: the precision/recall split, the match counts, and
/// the ids of the runs supporting (and contradicting) the prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEvent<E> {
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
    /// Number of failure runs matching the predictor.
    pub failure_matches: usize,
    /// Number of success runs matching the predictor.
    pub success_matches: usize,
    /// Ids of the failure runs matching the predictor — the runs that
    /// voted for it.
    pub failure_witnesses: Vec<String>,
    /// Ids of the success runs matching the predictor — the runs that
    /// dilute its precision.
    pub success_witnesses: Vec<String>,
}

impl<E> RankedEvent<E> {
    /// Total number of profiles matching the predictor, `|e|` (or `|¬e|`).
    pub fn total_matches(&self) -> usize {
        self.failure_matches + self.success_matches
    }
}

/// A predictor scored from match counts alone — a [`RankedEvent`]
/// without its witness lists, cheap enough to recompute after every
/// profile.
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

impl<E: Clone> ScoredPredictor<E> {
    /// Scores a predictor that `f` of the `total_f` failure profiles and
    /// `s` success profiles match. These are the model's only copies of
    /// the §5.2 float expressions.
    fn from_counts(event: &E, polarity: Polarity, f: usize, s: usize, total_f: usize) -> Self {
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
        // The three values are ratios of finite counts with guarded
        // denominators; a non-finite score would silently scramble every
        // downstream sort, so fail loudly here instead.
        debug_assert!(
            precision.is_finite() && recall.is_finite() && score.is_finite(),
            "non-finite ranking score (precision {precision}, recall {recall}, score {score})"
        );
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
}

/// The ranking order: score descending, then event ascending, then
/// `Present` before `Absent`. Every `(event, polarity)` pair is unique,
/// so the order is total and a ranking never depends on the order the
/// predictors were scored in.
fn rank_order<E: Ord>(a: &ScoredPredictor<E>, b: &ScoredPredictor<E>) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.event.cmp(&b.event))
        .then_with(|| a.polarity.cmp(&b.polarity))
}

/// One event's postings: the ascending indexes of the failure profiles
/// and of the success profiles that contain it.
#[derive(Debug, Clone)]
struct Postings<E> {
    event: E,
    fail: Vec<u32>,
    succ: Vec<u32>,
}

/// The ids of one class's profiles that match a predictor: those listed
/// in `postings` for a presence predictor, every other profile (in index
/// order) for an absence predictor.
fn witnesses(ids: &[String], postings: &[u32], polarity: Polarity) -> Vec<String> {
    let index = |i: &u32| usize::try_from(*i).expect("a u32 profile index fits in usize");
    match polarity {
        Polarity::Present => postings.iter().map(|i| ids[index(i)].clone()).collect(),
        Polarity::Absent => {
            let mut present = postings.iter().map(index).peekable();
            ids.iter()
                .enumerate()
                .filter(|(i, _)| present.next_if_eq(i).is_none())
                .map(|(_, id)| id.clone())
                .collect()
        }
    }
}

/// Accumulates profiles as per-event postings and ranks events.
#[derive(Debug, Clone)]
pub struct RankingModel<E> {
    /// Failure profile ids, by profile index.
    failure_ids: Vec<String>,
    /// Success profile ids, by profile index.
    success_ids: Vec<String>,
    /// Each event's slot in `postings`.
    slots: BTreeMap<E, usize>,
    /// Per-event postings, in first-seen order.
    postings: Vec<Postings<E>>,
}

impl<E: Ord + Clone> RankingModel<E> {
    /// Creates an empty model.
    pub fn new() -> Self {
        RankingModel {
            failure_ids: Vec::new(),
            success_ids: Vec::new(),
            slots: BTreeMap::new(),
            postings: Vec::new(),
        }
    }

    /// Adds one run's profile under an auto-generated id (`F#n` / `S#n`).
    pub fn add_profile(&mut self, is_failure: bool, events: BTreeSet<E>) {
        let id = if is_failure {
            format!("F#{}", self.failure_ids.len())
        } else {
            format!("S#{}", self.success_ids.len())
        };
        self.add_profile_named(is_failure, id, events);
    }

    /// Adds one run's profile under an explicit id (e.g. the workload and
    /// scheduler seed that produced it), so ranked events can name the
    /// exact runs that voted for them.
    pub fn add_profile_named(
        &mut self,
        is_failure: bool,
        id: impl Into<String>,
        events: BTreeSet<E>,
    ) {
        let ids = if is_failure {
            &mut self.failure_ids
        } else {
            &mut self.success_ids
        };
        let index = u32::try_from(ids.len()).expect("more than u32::MAX profiles of one class");
        ids.push(id.into());
        for event in events {
            let slot = *self.slots.entry(event).or_insert_with_key(|event| {
                self.postings.push(Postings {
                    event: event.clone(),
                    fail: Vec::new(),
                    succ: Vec::new(),
                });
                self.postings.len() - 1
            });
            let postings = &mut self.postings[slot];
            if is_failure {
                postings.fail.push(index);
            } else {
                postings.succ.push(index);
            }
        }
    }

    /// Number of failure profiles collected so far.
    pub fn failure_count(&self) -> usize {
        self.failure_ids.len()
    }

    /// Number of success profiles collected so far.
    pub fn success_count(&self) -> usize {
        self.success_ids.len()
    }

    /// The current ranking from match counts alone, best first: every
    /// presence predictor and, with `absence`, every absence predictor.
    /// The order and the scores are those of [`RankingModel::rank`] /
    /// [`RankingModel::rank_with_absence`], bit for bit.
    #[must_use = "scoring computes a fresh ranking; use the returned list"]
    pub fn scores(&self, absence: bool) -> Vec<ScoredPredictor<E>> {
        let (total_f, total_s) = (self.failure_count(), self.success_count());
        let mut out = Vec::with_capacity(self.postings.len() * (1 + usize::from(absence)));
        for p in &self.postings {
            let (f, s) = (p.fail.len(), p.succ.len());
            out.push(ScoredPredictor::from_counts(
                &p.event,
                Polarity::Present,
                f,
                s,
                total_f,
            ));
            if absence {
                out.push(ScoredPredictor::from_counts(
                    &p.event,
                    Polarity::Absent,
                    total_f - f,
                    total_s - s,
                    total_f,
                ));
            }
        }
        out.sort_unstable_by(rank_order);
        out
    }

    /// [`RankingModel::scores`] with each predictor's witness ids read
    /// from its event's postings.
    fn ranked(&self, absence: bool) -> Vec<RankedEvent<E>> {
        self.scores(absence)
            .into_iter()
            .map(|p| {
                let postings = &self.postings[self.slots[&p.event]];
                RankedEvent {
                    failure_witnesses: witnesses(&self.failure_ids, &postings.fail, p.polarity),
                    success_witnesses: witnesses(&self.success_ids, &postings.succ, p.polarity),
                    event: p.event,
                    polarity: p.polarity,
                    precision: p.precision,
                    recall: p.recall,
                    score: p.score,
                    failure_matches: p.failure_matches,
                    success_matches: p.success_matches,
                }
            })
            .collect()
    }

    /// Ranks all presence predictors, best first.
    ///
    /// Tie-breaking is deterministic: predictors with equal harmonic score
    /// are ordered by their event's `Ord` order (ascending). Downstream
    /// re-sorts (e.g. the failure-proximity tie-break of
    /// [`CollectedProfiles::lbra`](crate::engine::CollectedProfiles::lbra))
    /// are stable, so rank numbers are reproducible run to run for
    /// identical profile sets.
    #[must_use = "ranking computes scores without storing them; use the returned list"]
    pub fn rank(&self) -> Vec<RankedEvent<E>> {
        self.ranked(false)
    }

    /// Ranks presence *and* absence predictors, best first.
    ///
    /// Tie-breaking is deterministic: equal harmonic scores order by the
    /// event's `Ord` order, then `Present` before `Absent` — so a
    /// presence predictor always precedes its own absence twin when both
    /// score the same. An absence predictor's witnesses are the profiles
    /// missing its event, in insertion order.
    #[must_use = "ranking computes scores without storing them; use the returned list"]
    pub fn rank_with_absence(&self) -> Vec<RankedEvent<E>> {
        self.ranked(true)
    }

    /// 1-based rank of the first predictor satisfying `pred` in the given
    /// ranking.
    #[must_use = "the computed rank is the result; use it"]
    pub fn rank_of(
        ranked: &[RankedEvent<E>],
        pred: impl FnMut(&RankedEvent<E>) -> bool,
    ) -> Option<usize> {
        ranked.iter().position(pred).map(|i| i + 1)
    }
}

impl<E: Ord + Clone> Default for RankingModel<E> {
    fn default() -> Self {
        RankingModel::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::fmt::Debug;
    use stm_machine::rng::SplitMix64;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The brute-force reference the postings store is checked against:
    /// every profile kept whole, and every predictor re-scanned against
    /// all of them (`O(P × U)`), with its own copy of the §5.2 float
    /// expressions and of the ranking order.
    #[derive(Debug)]
    pub(crate) struct Oracle<E> {
        failures: Vec<(String, BTreeSet<E>)>,
        successes: Vec<(String, BTreeSet<E>)>,
    }

    impl<E: Ord + Clone> Oracle<E> {
        pub(crate) fn new() -> Self {
            Oracle {
                failures: Vec::new(),
                successes: Vec::new(),
            }
        }

        pub(crate) fn add(&mut self, is_failure: bool, id: impl Into<String>, events: BTreeSet<E>) {
            let class = if is_failure {
                &mut self.failures
            } else {
                &mut self.successes
            };
            class.push((id.into(), events));
        }

        fn score_one(&self, event: &E, polarity: Polarity) -> RankedEvent<E> {
            let matches = |(_, events): &&(String, BTreeSet<E>)| match polarity {
                Polarity::Present => events.contains(event),
                Polarity::Absent => !events.contains(event),
            };
            let failure_witnesses: Vec<String> = self
                .failures
                .iter()
                .filter(matches)
                .map(|(id, _)| id.clone())
                .collect();
            let success_witnesses: Vec<String> = self
                .successes
                .iter()
                .filter(matches)
                .map(|(id, _)| id.clone())
                .collect();
            let f = failure_witnesses.len();
            let s = success_witnesses.len();
            let total_f = self.failures.len();
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
            RankedEvent {
                event: event.clone(),
                polarity,
                precision,
                recall,
                score,
                failure_matches: f,
                success_matches: s,
                failure_witnesses,
                success_witnesses,
            }
        }

        /// Every presence predictor (and, with `absence`, every absence
        /// predictor) over the events seen so far, best first.
        pub(crate) fn rank(&self, absence: bool) -> Vec<RankedEvent<E>> {
            let universe: BTreeSet<&E> = self
                .failures
                .iter()
                .chain(&self.successes)
                .flat_map(|(_, events)| events)
                .collect();
            let mut ranked = Vec::new();
            for event in universe {
                ranked.push(self.score_one(event, Polarity::Present));
                if absence {
                    ranked.push(self.score_one(event, Polarity::Absent));
                }
            }
            ranked.sort_by(|a, b| {
                b.score.total_cmp(&a.score).then_with(|| {
                    a.event
                        .cmp(&b.event)
                        .then_with(|| a.polarity.cmp(&b.polarity))
                })
            });
            ranked
        }
    }

    /// A ranked event without its witness lists.
    fn counts_only<E: Clone>(r: &RankedEvent<E>) -> ScoredPredictor<E> {
        ScoredPredictor {
            event: r.event.clone(),
            polarity: r.polarity,
            precision: r.precision,
            recall: r.recall,
            score: r.score,
            failure_matches: r.failure_matches,
            success_matches: r.success_matches,
        }
    }

    /// Asserts that `live` is the oracle ranking without its witness
    /// lists: same order and polarities, same counts, floats equal bit
    /// for bit.
    pub(crate) fn assert_scores_match<E: Clone + PartialEq + Debug>(
        live: &[ScoredPredictor<E>],
        oracle: &[RankedEvent<E>],
        context: &str,
    ) {
        let bits = |p: &ScoredPredictor<E>| {
            let floats = [p.precision, p.recall, p.score].map(f64::to_bits);
            (
                p.event.clone(),
                p.polarity,
                floats,
                p.failure_matches,
                p.success_matches,
            )
        };
        let live: Vec<_> = live.iter().map(bits).collect();
        let oracle: Vec<_> = oracle.iter().map(|r| bits(&counts_only(r))).collect();
        assert_eq!(live, oracle, "{context}");
    }

    /// Asserts that a full ranking is the oracle's: everything
    /// [`assert_scores_match`] checks, plus both witness id lists.
    fn assert_rank_matches<E: Clone + PartialEq + Debug>(
        ranked: &[RankedEvent<E>],
        oracle: &[RankedEvent<E>],
        context: &str,
    ) {
        let scores: Vec<_> = ranked.iter().map(counts_only).collect();
        assert_scores_match(&scores, oracle, context);
        let witnesses =
            |r: &RankedEvent<E>| (r.failure_witnesses.clone(), r.success_witnesses.clone());
        assert_eq!(
            ranked.iter().map(witnesses).collect::<Vec<_>>(),
            oracle.iter().map(witnesses).collect::<Vec<_>>(),
            "{context}"
        );
    }

    fn assert_model_matches(model: &RankingModel<u64>, oracle: &Oracle<u64>, context: &str) {
        assert_eq!(model.failure_count(), oracle.failures.len(), "{context}");
        assert_eq!(model.success_count(), oracle.successes.len(), "{context}");
        for absence in [false, true] {
            assert_scores_match(&model.scores(absence), &oracle.rank(absence), context);
        }
        assert_rank_matches(&model.rank(), &oracle.rank(false), context);
        assert_rank_matches(&model.rank_with_absence(), &oracle.rank(true), context);
    }

    #[test]
    fn postings_match_the_rescan_oracle_on_random_streams() {
        // Each stream draws its own universe size and failure rate; the
        // rates include 0 % and 100 %, so some streams never see one class,
        // and a profile's density may be zero, so empty profiles occur.
        // Every prefix, the empty one included, is checked.
        const STREAMS: u64 = 300;
        let mut rng = SplitMix64::new(0x5EED_0013);
        for stream in 0..STREAMS {
            let universe = 1 + rng.next_below(12);
            let failure_pct = [0, 100, 50, 20, 80][usize::try_from(stream % 5).unwrap()];
            let len = rng.next_below(25);
            let mut model = RankingModel::new();
            let mut oracle = Oracle::new();
            assert_model_matches(&model, &oracle, &format!("stream {stream}, empty"));
            for i in 0..len {
                let is_failure = rng.next_below(100) < failure_pct;
                let density = rng.next_below(universe + 1);
                let events: BTreeSet<u64> = (0..universe)
                    .filter(|_| rng.next_below(universe) < density)
                    .collect();
                let id = format!("s{stream}p{i}");
                model.add_profile_named(is_failure, id.clone(), events.clone());
                oracle.add(is_failure, id, events);
                let context = format!("stream {stream}, prefix {}", i + 1);
                assert_model_matches(&model, &oracle, &context);
            }
        }
    }

    #[test]
    fn perfect_predictor_ranks_first() {
        let mut m = RankingModel::new();
        for _ in 0..10 {
            m.add_profile(true, set(&["root", "noise"]));
            m.add_profile(false, set(&["noise"]));
        }
        let ranked = m.rank();
        assert_eq!(ranked[0].event, "root");
        assert_eq!(ranked[0].precision, 1.0);
        assert_eq!(ranked[0].recall, 1.0);
        assert_eq!(ranked[0].score, 1.0);
        // Noise appears everywhere: precision 0.5, recall 1.0.
        let noise = ranked.iter().find(|r| r.event == "noise").unwrap();
        assert!((noise.score - (2.0 * 0.5 / 1.5)).abs() < 1e-9);
    }

    #[test]
    fn success_only_event_scores_zero() {
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["a"]));
        m.add_profile(false, set(&["b"]));
        let ranked = m.rank();
        let b = ranked.iter().find(|r| r.event == "b").unwrap();
        assert_eq!(b.score, 0.0);
    }

    #[test]
    fn imperfect_recall_lowers_score() {
        // Event appears in 5 of 10 failure runs, never in success runs.
        let mut m = RankingModel::new();
        for i in 0..10 {
            let p = if i < 5 { set(&["e"]) } else { set(&[]) };
            m.add_profile(true, p);
            m.add_profile(false, set(&[]));
        }
        let ranked = m.rank();
        let e = &ranked[0];
        assert_eq!(e.event, "e");
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 0.5);
        assert!((e.score - (2.0 * 0.5 / 1.5)).abs() < 1e-9);
    }

    #[test]
    fn absence_predictor_wins_when_event_vanishes_in_failures() {
        // "B2 observed Shared" appears in every success run and no failure
        // run: its absence is the perfect predictor.
        let mut m = RankingModel::new();
        for _ in 0..10 {
            m.add_profile(true, set(&["noise"]));
            m.add_profile(false, set(&["b2-shared", "noise"]));
        }
        let ranked = m.rank_with_absence();
        assert_eq!(ranked[0].event, "b2-shared");
        assert_eq!(ranked[0].polarity, Polarity::Absent);
        assert_eq!(ranked[0].score, 1.0);
    }

    #[test]
    fn rank_of_is_one_based() {
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["x"]));
        m.add_profile(false, set(&["y"]));
        let ranked = m.rank();
        assert_eq!(RankingModel::rank_of(&ranked, |r| r.event == "x"), Some(1));
    }

    #[test]
    fn multiple_failure_sites_do_not_break_relative_ranking() {
        // §5.3 "multiple failures": even when the best predictor misses
        // some failure runs (two root causes at one site), it still beats
        // noise.
        let mut m = RankingModel::new();
        for i in 0..10 {
            let p = if i % 2 == 0 {
                set(&["rootA", "noise"])
            } else {
                set(&["rootB", "noise"])
            };
            m.add_profile(true, p);
            m.add_profile(false, set(&["noise"]));
        }
        let ranked = m.rank();
        let score_of = |name: &str| ranked.iter().find(|r| r.event == name).unwrap().score;
        // Each root's perfect precision compensates for its halved recall:
        // neither falls below the omnipresent noise event.
        assert!(score_of("rootA") >= score_of("noise"));
        assert!(score_of("rootB") >= score_of("noise"));
        assert!(score_of("rootA") > 0.5);
    }

    #[test]
    fn witnesses_name_the_supporting_runs() {
        let mut m = RankingModel::new();
        m.add_profile_named(true, "fail:seed7", set(&["root", "noise"]));
        m.add_profile_named(true, "fail:seed9", set(&["root"]));
        m.add_profile_named(false, "pass:seed1", set(&["noise"]));
        let ranked = m.rank();
        let root = ranked.iter().find(|r| r.event == "root").unwrap();
        assert_eq!(root.failure_witnesses, vec!["fail:seed7", "fail:seed9"]);
        assert!(root.success_witnesses.is_empty());
        assert_eq!(root.total_matches(), 2);
        let noise = ranked.iter().find(|r| r.event == "noise").unwrap();
        assert_eq!(noise.failure_witnesses, vec!["fail:seed7"]);
        assert_eq!(noise.success_witnesses, vec!["pass:seed1"]);
    }

    #[test]
    fn auto_ids_count_per_class() {
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["a"]));
        m.add_profile(false, set(&["a"]));
        m.add_profile(true, set(&["a"]));
        let ranked = m.rank();
        let a = &ranked[0];
        assert_eq!(a.failure_witnesses, vec!["F#0", "F#1"]);
        assert_eq!(a.success_witnesses, vec!["S#0"]);
    }

    #[test]
    fn absence_witnesses_are_the_runs_missing_the_event() {
        let mut m = RankingModel::new();
        m.add_profile_named(true, "f0", set(&["noise"]));
        m.add_profile_named(false, "s0", set(&["guard", "noise"]));
        let ranked = m.rank_with_absence();
        let absent = ranked
            .iter()
            .find(|r| r.event == "guard" && r.polarity == Polarity::Absent)
            .unwrap();
        assert_eq!(absent.failure_witnesses, vec!["f0"]);
        assert!(absent.success_witnesses.is_empty());
    }

    #[test]
    fn equal_scores_tie_break_by_event_then_polarity() {
        // Two events, each in exactly one (distinct) failure profile, no
        // successes: identical precision/recall. The tie resolves by
        // event order; with absence predictors, Present precedes Absent
        // for the same event and score.
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["alpha"]));
        m.add_profile(true, set(&["beta"]));
        let ranked = m.rank();
        assert_eq!(ranked[0].event, "alpha");
        assert_eq!(ranked[1].event, "beta");
        // Deterministic across repeated rankings of the same model.
        for _ in 0..5 {
            assert_eq!(m.rank(), ranked);
        }
        let with_absence = m.rank_with_absence();
        for pair in with_absence.windows(2) {
            let same_score = (pair[0].score - pair[1].score).abs() < 1e-12;
            if same_score && pair[0].event == pair[1].event {
                assert_eq!(pair[0].polarity, Polarity::Present);
                assert_eq!(pair[1].polarity, Polarity::Absent);
            }
        }
    }

    #[test]
    fn empty_model_ranks_nothing() {
        let m: RankingModel<String> = RankingModel::new();
        assert!(m.rank().is_empty());
        assert_eq!(m.failure_count(), 0);
        assert_eq!(m.success_count(), 0);
    }

    #[test]
    fn ranking_is_invariant_under_profile_insertion_order() {
        // The same profile multiset added in three different orders must
        // produce identical rankings (scores, order, and counts — witness
        // ids are position-dependent by design, so compare them by set).
        let profiles: Vec<(bool, BTreeSet<String>)> = vec![
            (true, set(&["root", "noise"])),
            (true, set(&["root"])),
            (true, set(&["noise"])),
            (false, set(&["noise", "guard"])),
            (false, set(&["guard"])),
        ];
        let build = |order: &[usize]| {
            let mut m = RankingModel::new();
            for &i in order {
                let (is_failure, events) = &profiles[i];
                m.add_profile(*is_failure, events.clone());
            }
            m
        };
        let strip = |ranked: Vec<RankedEvent<String>>| {
            ranked
                .into_iter()
                .map(|r| {
                    (
                        r.event,
                        r.polarity,
                        r.score.to_bits(),
                        r.failure_matches,
                        r.success_matches,
                    )
                })
                .collect::<Vec<_>>()
        };
        let baseline = build(&[0, 1, 2, 3, 4]);
        for order in [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1]] {
            let m = build(&order);
            assert_eq!(strip(m.rank()), strip(baseline.rank()));
            assert_eq!(
                strip(m.rank_with_absence()),
                strip(baseline.rank_with_absence())
            );
        }
    }

    #[test]
    fn zero_failing_profiles_rank_nan_free() {
        // Success-only models hit every guarded denominator (|F| = 0 and,
        // for presence predictors with no matches, |e| = 0). All scores
        // must come out finite and zero — never NaN.
        let mut m = RankingModel::new();
        m.add_profile(false, set(&["a", "b"]));
        m.add_profile(false, set(&["b"]));
        for r in m.rank().into_iter().chain(m.rank_with_absence()) {
            assert!(r.precision.is_finite(), "{:?}", r.event);
            assert!(r.recall.is_finite(), "{:?}", r.event);
            assert!(r.score.is_finite(), "{:?}", r.event);
            assert_eq!(r.score, 0.0);
        }
    }
}
