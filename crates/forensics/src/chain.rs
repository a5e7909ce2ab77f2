//! Causal-chain reconstruction: from the top-ranked predictor to an
//! evidence-linked failure storyline.
//!
//! LBRA/LCRA stop at "event X best predicts the failure" (Tables 4–7
//! rank single events). A developer debugging a production failure needs
//! the *path*: what happened between the root cause and the failure
//! site. This module walks backward through the short-term hardware
//! memory the diagnosis already decoded — the LBR/LCR ring snapshots of
//! the failing witnesses — and emits an ordered **root-cause →
//! propagation → failure** chain:
//!
//! 1. **Anchor.** The walk anchors at the *deepest* ring occurrence of
//!    the top-ranked presence predictor in each failing witness: the
//!    largest decoded position (1 = most recent,
//!    [`stm_machine::ring::walk`]) whose event it is. When the top
//!    predictor is an absence predictor (§4.2.2's read-too-early
//!    signature never appears in failing rings), the walk anchors at
//!    the best *presence* predictor instead and reports both.
//! 2. **Window.** Everything between the anchor and the failure
//!    (decoded positions 1..=anchor) happened after the root cause
//!    fired — the candidate propagation events.
//! 3. **Support.** Each candidate is scored against the passing
//!    population with the same precision/recall harmonic the ranking
//!    uses (program-spectra-style, per Abreu et al.), so a link's
//!    support is directly comparable to a predictor's rank score.
//! 4. **Order.** Links sort by mean ring position across the failing
//!    witnesses, deepest (oldest, closest to the root cause) first; the
//!    anchor always leads. Ties break by support score descending, then
//!    by event display — fully deterministic, pinned across thread
//!    counts in `tests/engine_determinism.rs`.
//!
//! Every link carries typed evidence: the witnesses containing it and
//! its position in each of their rings, the branch edge or MESI
//! transition it rides on ([`crate::dossier::mesi_transition`]), and the
//! precision/recall/support triple with raw match counts.

use crate::dossier::mesi_transition;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::hash::{DefaultHasher, Hash, Hasher};
use stm_core::converge::{LiveRanking, SnapshotIngest};
use stm_core::diagnose::{failure_profile, Diagnosis};
use stm_core::engine::CollectedProfiles;
use stm_core::profile::{
    decode_lbr, decode_lcr, BranchOutcome, CoherenceEvent, DecodedLbrEntry, DecodedLcrEntry,
};
use stm_core::ranking::{Polarity, RankedEvent};
use stm_machine::ir::Program;
use stm_machine::report::ProfileData;
use stm_telemetry::json::Json;

/// Longest chain the reconstructor reports. The anchor and the
/// failure-end link always survive the cap; middle links are kept by
/// support score.
pub const MAX_LINKS: usize = 8;

/// Which ring the chain was walked from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// Last Branch Record — branch-outcome links.
    Lbr,
    /// Last Cache-coherence Record — coherence-event links.
    Lcr,
}

impl ChainKind {
    /// Wire form (`"lbr"` / `"lcr"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ChainKind::Lbr => "lbr",
            ChainKind::Lcr => "lcr",
        }
    }
}

/// A link's role in the storyline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRole {
    /// The anchor: the top-ranked predictor the walk started from.
    RootCause,
    /// An intermediate event between root cause and failure.
    Propagation,
    /// The window's failure end: the event nearest position 1.
    Failure,
}

impl LinkRole {
    /// Wire form (`"root-cause"` / `"propagation"` / `"failure"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LinkRole::RootCause => "root-cause",
            LinkRole::Propagation => "propagation",
            LinkRole::Failure => "failure",
        }
    }
}

/// One witness sighting of a link: which profile contains it and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessMark {
    /// The witness id (`fail:w<idx>:seed<seed>` or an endpoint-prefixed
    /// fleet form).
    pub witness: String,
    /// Deepest 1-based ring position of the event in that witness
    /// (1 = most recent, closest to the failure).
    pub position: usize,
}

/// One step of the reconstructed chain, with its typed evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLink {
    /// Role in the storyline.
    pub role: LinkRole,
    /// Canonical predictor form (`br1=true`, `load@m.c:9:S`).
    pub event: String,
    /// Human label; program-aware when a [`Program`] was available
    /// (`branch br1 at m.c:10 taken TRUE`), canonical otherwise.
    pub label: String,
    /// The hardware mechanism the link rides on: the branch edge
    /// (`edge 0x.. -> 0x..`) or the MESI transition with its meaning.
    pub mechanism: String,
    /// Mean deepest ring position across the witnesses containing the
    /// link — the chain's ordering key (larger = earlier in time).
    pub mean_position: f64,
    /// The failing witnesses containing the link, with positions.
    pub witnesses: Vec<WitnessMark>,
    /// Prediction precision against the passing population.
    pub precision: f64,
    /// Prediction recall over the failing population.
    pub recall: f64,
    /// Harmonic support score — same formula as the predictor ranking.
    pub support: f64,
    /// Failure profiles containing the event.
    pub failure_matches: usize,
    /// Success profiles containing the event.
    pub success_matches: usize,
}

/// An ordered root-cause → propagation → failure chain with per-link
/// evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalChain {
    /// Which ring was walked.
    pub kind: ChainKind,
    /// Display form of the top-ranked predictor (with `!` prefix when it
    /// is an absence predictor).
    pub top_predictor: String,
    /// Display form of the presence predictor the walk anchored at.
    /// Differs from `top_predictor` only when the top is an absence
    /// predictor.
    pub anchor: String,
    /// Failing-witness traces the walk consulted (ring-retention capped;
    /// support counts below cover the full populations).
    pub witnesses_consulted: usize,
    /// Failure profiles in the support population.
    pub failures: usize,
    /// Success profiles in the support population.
    pub successes: usize,
    /// What failed, when known (`FailureKind` display of the witness
    /// run, e.g. `assertion failed: ...`).
    pub symptom: Option<String>,
    /// The links, root cause first.
    pub links: Vec<ChainLink>,
}

/// One decoded ring record the walk reads: its 1-based position and
/// source-level event (`None` for records that prove no event), and the
/// hardware mechanism it rides on — rendered only for links that survive
/// into the chain.
trait TraceRecord {
    type Event;
    fn occurrence(&self) -> Option<(usize, Self::Event)>;
    fn mechanism(&self) -> String;
}

impl TraceRecord for DecodedLbrEntry {
    type Event = BranchOutcome;

    fn occurrence(&self) -> Option<(usize, BranchOutcome)> {
        self.branch_outcome().map(|bo| (self.position, bo))
    }

    fn mechanism(&self) -> String {
        let taken = self.branch_outcome().is_some_and(|bo| bo.outcome);
        format!(
            "edge {:#010x} -> {:#010x} taken {}",
            self.record.from,
            self.record.to,
            if taken { "TRUE" } else { "FALSE" }
        )
    }
}

impl TraceRecord for DecodedLcrEntry {
    type Event = CoherenceEvent;

    fn occurrence(&self) -> Option<(usize, CoherenceEvent)> {
        Some((self.position, self.event))
    }

    fn mechanism(&self) -> String {
        let t = mesi_transition(self.event.access, self.event.state);
        format!("{}: {}", t.transition, t.meaning)
    }
}

/// Renders a branch predictor for chains and ranking reports: with its
/// source location when the program is known, its display form otherwise.
pub(crate) fn branch_label(program: Option<&Program>, e: &BranchOutcome) -> String {
    match program {
        Some(p) => {
            let loc = p
                .branches
                .iter()
                .find(|b| b.id == e.branch)
                .map(|b| p.render_loc(b.loc))
                .unwrap_or_else(|| "<unknown>".to_string());
            format!(
                "branch {} at {} taken {}",
                e.branch,
                loc,
                if e.outcome { "TRUE" } else { "FALSE" }
            )
        }
        None => e.to_string(),
    }
}

/// Renders a coherence predictor the same way as `branch_label`.
pub(crate) fn coherence_label(program: Option<&Program>, e: &CoherenceEvent) -> String {
    match program {
        Some(p) => format!(
            "{} at {} observed {}",
            e.access,
            p.render_loc(e.loc),
            e.state
        ),
        None => e.to_string(),
    }
}

impl CausalChain {
    /// Reconstructs the chain of a collection's diagnosis (ranked after
    /// site-guard exclusion) from the decoded failure-site snapshots of the
    /// failing witnesses it kept, in consumption order, with its program,
    /// layout and spec. `None` as for [`CausalChain::from_lbra`].
    pub fn from_profiles(profiles: &CollectedProfiles, diagnosis: &Diagnosis) -> Option<Self> {
        let machine = profiles.runner().machine();
        let (program, layout) = (machine.program(), machine.layout());
        let snapshots = profiles.failure_runs().iter().filter_map(|run| {
            let p = failure_profile(&run.report, profiles.spec())?;
            Some((&run.witness, &p.data))
        });
        let stats = diagnosis.stats();
        let (failures, successes) = (stats.failure_runs_used, stats.success_runs_used);
        match diagnosis {
            Diagnosis::Lbr(d) => {
                let traces: Vec<_> = snapshots
                    .filter_map(|(witness, data)| match data {
                        ProfileData::Lbr(r) => Some((witness.clone(), decode_lbr(layout, r))),
                        ProfileData::Lcr(_) => None,
                    })
                    .collect();
                Self::from_lbra(Some(program), &d.ranked, &traces, failures, successes)
            }
            Diagnosis::Lcr(d) => {
                let traces: Vec<_> = snapshots
                    .filter_map(|(witness, data)| match data {
                        ProfileData::Lcr(r) => Some((witness.clone(), decode_lcr(layout, r))),
                        ProfileData::Lbr(_) => None,
                    })
                    .collect();
                Self::from_lcra(Some(program), &d.ranked, &traces, failures, successes)
            }
        }
    }

    /// Reconstructs an LBR chain from a batch ranking and decoded
    /// failing-witness traces. Pass the ranking *after* site-guard
    /// exclusion so the anchor is a cause, not the failure site itself.
    /// `None` when the ranking is empty or no trace contains the anchor.
    pub fn from_lbra(
        program: Option<&Program>,
        ranked: &[RankedEvent<BranchOutcome>],
        traces: &[(String, Vec<DecodedLbrEntry>)],
        failures: usize,
        successes: usize,
    ) -> Option<CausalChain> {
        reconstruct(ChainKind::Lbr, ranked, traces, failures, successes, |e| {
            branch_label(program, e)
        })
    }

    /// Reconstructs an LCR chain from a batch ranking and decoded
    /// failing-witness traces. `None` when the ranking is empty or no
    /// trace contains the anchor.
    pub fn from_lcra(
        program: Option<&Program>,
        ranked: &[RankedEvent<CoherenceEvent>],
        traces: &[(String, Vec<DecodedLcrEntry>)],
        failures: usize,
        successes: usize,
    ) -> Option<CausalChain> {
        reconstruct(ChainKind::Lcr, ranked, traces, failures, successes, |e| {
            coherence_label(program, e)
        })
    }

    /// Reconstructs the *live* chain of a streaming ingest (the fleet
    /// path): anchors on the current incremental top predictor and walks
    /// the ingest's retained failing traces, both borrowed as the ingest
    /// holds them (scored at the latest snapshot, decoded at retention).
    /// Labels are canonical (the daemon holds a
    /// [`Layout`](stm_machine::layout::Layout), not a [`Program`]). `None`
    /// before the first failing trace is retained or while no retained
    /// trace contains the anchor.
    pub fn from_ingest(ingest: &SnapshotIngest) -> Option<CausalChain> {
        let failures = ingest.failures();
        let successes = ingest.successes();
        match ingest.live_ranking()? {
            LiveRanking::Lbr { scores, traces } => {
                reconstruct(ChainKind::Lbr, scores, traces, failures, successes, |e| {
                    branch_label(None, e)
                })
            }
            LiveRanking::Lcr { scores, traces } => {
                reconstruct(ChainKind::Lcr, scores, traces, failures, successes, |e| {
                    coherence_label(None, e)
                })
            }
        }
    }

    /// Attaches the failing run's symptom (its `FailureKind` display) to
    /// the chain — the dossier-side context of the storyline.
    pub fn with_symptom(mut self, symptom: impl Into<String>) -> Self {
        self.symptom = Some(symptom.into());
        self
    }

    /// 1-based position of the first link matching `pred` — how the
    /// chain-quality gate asks "does the chain contain the injected
    /// root-cause event".
    pub fn link_rank_of(&self, pred: impl FnMut(&ChainLink) -> bool) -> Option<usize> {
        self.links.iter().position(pred).map(|i| i + 1)
    }

    /// The smallest link support score — the chain's weakest evidence.
    pub fn min_link_support(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.support)
            .fold(f64::INFINITY, f64::min)
    }

    /// A stable fingerprint of the chain's *storyline* — kind, top
    /// predictor, anchor, witnesses consulted and the ordered (role, event)
    /// links — used to fire `diagnosis.chain` events only when the story
    /// forms or changes. Support counts, scores and ring positions move
    /// with every witness and are deliberately left out. Deterministic
    /// across processes (fixed-key hasher).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.kind.as_str().hash(&mut h);
        self.top_predictor.hash(&mut h);
        self.anchor.hash(&mut h);
        self.witnesses_consulted.hash(&mut h);
        for l in &self.links {
            l.role.as_str().hash(&mut h);
            l.event.hash(&mut h);
        }
        h.finish()
    }

    /// The chain as a JSON object (the `/diagnosis` and report shape).
    pub fn to_json(&self) -> Json {
        let links = self
            .links
            .iter()
            .map(|l| {
                let witnesses = l
                    .witnesses
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("witness", Json::from(m.witness.clone())),
                            ("position", Json::from(m.position)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("role", Json::from(l.role.as_str())),
                    ("event", Json::from(l.event.clone())),
                    ("label", Json::from(l.label.clone())),
                    ("mechanism", Json::from(l.mechanism.clone())),
                    ("mean_position", Json::from(l.mean_position)),
                    ("precision", Json::from(l.precision)),
                    ("recall", Json::from(l.recall)),
                    ("support", Json::from(l.support)),
                    ("failure_matches", Json::from(l.failure_matches)),
                    ("success_matches", Json::from(l.success_matches)),
                    ("witnesses", Json::Arr(witnesses)),
                ])
            })
            .collect();
        Json::obj([
            ("kind", Json::from(self.kind.as_str())),
            ("top_predictor", Json::from(self.top_predictor.clone())),
            ("anchor", Json::from(self.anchor.clone())),
            ("witnesses_consulted", Json::from(self.witnesses_consulted)),
            ("failures", Json::from(self.failures)),
            ("successes", Json::from(self.successes)),
            (
                "symptom",
                self.symptom.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
            ("links", Json::Arr(links)),
        ])
    }

    /// The chain as a markdown storyline section.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Causal chain ({})", self.kind.as_str());
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Top predictor `{}`; walk anchored at `{}` across {} failing witness trace(s) \
             ({} failure / {} success profiles in the support population).",
            self.top_predictor,
            self.anchor,
            self.witnesses_consulted,
            self.failures,
            self.successes
        );
        if let Some(symptom) = &self.symptom {
            let _ = writeln!(out, "Failure symptom: {symptom}.");
        }
        let _ = writeln!(out);
        for (i, l) in self.links.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}. **{}** — {} (rides `{}`)",
                i + 1,
                l.role.as_str(),
                l.label,
                l.mechanism
            );
            let marks: Vec<String> = l
                .witnesses
                .iter()
                .map(|m| format!("{}@{}", m.witness, m.position))
                .collect();
            let _ = writeln!(
                out,
                "   support {:.3} (precision {:.2}, recall {:.2}; {}F/{}S), \
                 mean ring position {:.1}, seen in {}",
                l.support,
                l.precision,
                l.recall,
                l.failure_matches,
                l.success_matches,
                l.mean_position,
                if marks.is_empty() {
                    "(no retained trace)".to_string()
                } else {
                    marks.join(", ")
                }
            );
        }
        if self.links.is_empty() {
            let _ = writeln!(out, "(no links)");
        }
        out
    }
}

/// Sightings of one candidate event across the failing windows, with the
/// record its mechanism is rendered from (the first witness's).
struct Candidate<'a, D> {
    marks: Vec<WitnessMark>,
    position_sum: u64,
    source: &'a D,
}

/// A link before the cap: everything the ordering needs, with the label and
/// mechanism strings left unrendered until the link survives. `support` is
/// the event's presence predictor; an event the ranking never scored has
/// none, and zero support.
struct Draft<'a, 'r, E, D> {
    event: E,
    display: String,
    source: &'a D,
    mean_position: f64,
    marks: Vec<WitnessMark>,
    support: Option<&'r RankedEvent<E>>,
}

impl<E, D> Draft<'_, '_, E, D> {
    /// The link's support score, 0 when its event was never scored.
    fn score(&self) -> f64 {
        self.support.map_or(0.0, |r| r.score)
    }
}

/// The shared reconstruction walk over decoded traces. `ranked` must be in
/// ranking order (best predictor first).
fn reconstruct<E, D>(
    kind: ChainKind,
    ranked: &[RankedEvent<E>],
    traces: &[(String, Vec<D>)],
    failures: usize,
    successes: usize,
    label: impl Fn(&E) -> String,
) -> Option<CausalChain>
where
    E: Ord + Clone + Display,
    D: TraceRecord<Event = E>,
{
    let top = ranked.first()?;
    let top_display = top.to_string();
    // The anchor must be a presence predictor that actually occurs in a
    // retained failing trace — an absence predictor never does, and a
    // presence predictor can be missing from the (capped) retained set.
    let anchor = ranked
        .iter()
        .filter(|s| s.polarity == Polarity::Present)
        .find(|s| {
            traces.iter().any(|(_, t)| {
                t.iter()
                    .any(|r| r.occurrence().is_some_and(|(_, e)| e == s.event))
            })
        })?;
    let anchor_event = &anchor.event;

    // Per-witness window: from the anchor's deepest occurrence down to
    // the failure at position 1. Witnesses without the anchor contribute
    // no window (their snapshot starts after the root cause fired).
    let mut candidates: BTreeMap<E, Candidate<'_, D>> = BTreeMap::new();
    let mut consulted = 0usize;
    for (witness, trace) in traces {
        let Some(anchor_pos) = trace
            .iter()
            .filter_map(TraceRecord::occurrence)
            .filter(|(_, e)| e == anchor_event)
            .map(|(p, _)| p)
            .max()
        else {
            continue;
        };
        consulted += 1;
        // Deepest in-window occurrence per event in this witness.
        let mut deepest: BTreeMap<E, (usize, &D)> = BTreeMap::new();
        for record in trace {
            if let Some((pos, event)) = record.occurrence() {
                if pos <= anchor_pos {
                    deepest.insert(event, (pos, record));
                }
            }
        }
        for (event, (pos, record)) in deepest {
            let c = candidates.entry(event).or_insert_with(|| Candidate {
                marks: Vec::new(),
                position_sum: 0,
                source: record,
            });
            c.marks.push(WitnessMark {
                witness: witness.clone(),
                position: pos,
            });
            c.position_sum += pos as u64;
        }
    }
    if consulted == 0 {
        return None;
    }

    let support_of = |event: &E| {
        ranked
            .iter()
            .find(|s| s.polarity == Polarity::Present && s.event == *event)
    };

    let mut links: Vec<Draft<'_, '_, E, D>> = candidates
        .into_iter()
        .map(|(event, c)| Draft {
            display: format!("{event}"),
            support: support_of(&event),
            event,
            source: c.source,
            mean_position: c.position_sum as f64 / c.marks.len() as f64,
            marks: c.marks,
        })
        .collect();

    // Temporal order: deepest mean position first (root cause end), ties
    // by support descending, then event display — all deterministic.
    links.sort_by(|a, b| {
        b.mean_position
            .total_cmp(&a.mean_position)
            .then_with(|| b.score().total_cmp(&a.score()))
            .then_with(|| a.display.cmp(&b.display))
    });

    // The anchor leads the storyline regardless of its mean position
    // (other window events can average deeper across different witness
    // subsets).
    let anchor_display = format!("{anchor_event}");
    if let Some(i) = links.iter().position(|l| l.display == anchor_display) {
        let anchor_link = links.remove(i);
        links.insert(0, anchor_link);
    }

    // Cap: keep the anchor and the failure-end link, fill the middle
    // with the best-supported propagation links, then restore order.
    if links.len() > MAX_LINKS {
        let last = links.pop().expect("len > MAX_LINKS >= 2");
        let anchor_link = links.remove(0);
        let mut order: Vec<usize> = (0..links.len()).collect();
        order.sort_by(|&a, &b| {
            links[b]
                .score()
                .total_cmp(&links[a].score())
                .then_with(|| links[a].display.cmp(&links[b].display))
        });
        let mut keep: Vec<bool> = vec![false; links.len()];
        for &i in order.iter().take(MAX_LINKS - 2) {
            keep[i] = true;
        }
        let mut kept: Vec<Draft<'_, '_, E, D>> = links
            .into_iter()
            .zip(keep)
            .filter_map(|(l, k)| k.then_some(l))
            .collect();
        kept.insert(0, anchor_link);
        kept.push(last);
        links = kept;
    }

    let n = links.len();
    let links = links
        .into_iter()
        .enumerate()
        .map(|(i, d)| ChainLink {
            role: if i == 0 {
                LinkRole::RootCause
            } else if i == n - 1 {
                LinkRole::Failure
            } else {
                LinkRole::Propagation
            },
            label: label(&d.event),
            event: d.display,
            mechanism: d.source.mechanism(),
            mean_position: d.mean_position,
            witnesses: d.marks,
            precision: d.support.map_or(0.0, |r| r.precision),
            recall: d.support.map_or(0.0, |r| r.recall),
            support: d.support.map_or(0.0, |r| r.score),
            failure_matches: d.support.map_or(0, |r| r.failure_matches),
            success_matches: d.support.map_or(0, |r| r.success_matches),
        })
        .collect();

    Some(CausalChain {
        kind,
        top_predictor: top_display,
        anchor: anchor_display,
        witnesses_consulted: consulted,
        failures,
        successes,
        symptom: None,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::events::{AccessKind, BranchKind, BranchRecord, CoherenceState};
    use stm_machine::ids::BranchId;
    use stm_machine::ir::SourceLoc;
    use stm_machine::layout::Decoded;

    fn bo(branch: u32, outcome: bool) -> BranchOutcome {
        BranchOutcome {
            branch: BranchId::new(branch),
            outcome,
        }
    }

    fn ranked_bo(
        branch: u32,
        outcome: bool,
        score: f64,
        f: usize,
        s: usize,
    ) -> RankedEvent<BranchOutcome> {
        RankedEvent {
            event: bo(branch, outcome),
            polarity: Polarity::Present,
            precision: score,
            recall: score,
            score,
            failure_matches: f,
            success_matches: s,
        }
    }

    fn entry(position: usize, branch: u32, outcome: bool) -> DecodedLbrEntry {
        DecodedLbrEntry {
            position,
            record: BranchRecord {
                from: 0x100 + 8 * branch as u64,
                to: 0x200 + 8 * branch as u64,
                kind: BranchKind::CondJump,
            },
            decoded: Some(Decoded::SourceBranch {
                branch: BranchId::new(branch),
                outcome,
                loc: SourceLoc::UNKNOWN,
                func: stm_machine::ids::FuncId::new(0),
            }),
        }
    }

    type DemoTraces = Vec<(String, Vec<DecodedLbrEntry>)>;

    /// Two witnesses, anchor b0=true deepest, b1/b2 in the window, b9
    /// outside it (deeper than the anchor).
    fn demo_inputs() -> (Vec<RankedEvent<BranchOutcome>>, DemoTraces) {
        let ranked = vec![
            ranked_bo(0, true, 1.0, 2, 0),
            ranked_bo(1, false, 0.8, 2, 1),
            ranked_bo(2, true, 0.5, 1, 1),
            ranked_bo(9, true, 0.1, 1, 2),
        ];
        let traces = vec![
            (
                "fail:w0:seed1".to_string(),
                vec![
                    entry(1, 2, true),
                    entry(2, 1, false),
                    entry(3, 0, true),
                    entry(4, 9, true), // before the root cause: outside
                ],
            ),
            (
                "fail:w1:seed2".to_string(),
                vec![entry(1, 1, false), entry(2, 0, true)],
            ),
        ];
        (ranked, traces)
    }

    #[test]
    fn chain_orders_root_cause_to_failure() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        assert_eq!(chain.kind, ChainKind::Lbr);
        assert_eq!(chain.anchor, "br0=true");
        assert_eq!(chain.top_predictor, "br0=true");
        assert_eq!(chain.witnesses_consulted, 2);
        let events: Vec<&str> = chain.links.iter().map(|l| l.event.as_str()).collect();
        assert_eq!(events, vec!["br0=true", "br1=false", "br2=true"]);
        assert_eq!(chain.links[0].role, LinkRole::RootCause);
        assert_eq!(chain.links[1].role, LinkRole::Propagation);
        assert_eq!(chain.links[2].role, LinkRole::Failure);
        // b9 sits deeper than the anchor in w0: not part of the story.
        assert!(!events.contains(&"br9=true"));
    }

    #[test]
    fn link_evidence_carries_witness_positions_and_support() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        let root = &chain.links[0];
        assert_eq!(root.witnesses.len(), 2);
        assert_eq!(root.witnesses[0].witness, "fail:w0:seed1");
        assert_eq!(root.witnesses[0].position, 3);
        assert_eq!(root.witnesses[1].position, 2);
        assert_eq!(root.mean_position, 2.5);
        assert_eq!(root.support, 1.0);
        assert_eq!(root.failure_matches, 2);
        assert!(root.mechanism.starts_with("edge 0x"));
    }

    #[test]
    fn absence_top_predictor_anchors_at_best_presence() {
        let (mut ranked, traces) = demo_inputs();
        ranked.insert(
            0,
            RankedEvent {
                polarity: Polarity::Absent,
                ..ranked_bo(7, true, 1.0, 2, 0)
            },
        );
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        assert_eq!(chain.top_predictor, "!br7=true");
        assert_eq!(chain.anchor, "br0=true");
    }

    #[test]
    fn empty_ranking_or_unmatched_anchor_yields_no_chain() {
        let (ranked, traces) = demo_inputs();
        assert!(CausalChain::from_lbra(None, &[], &traces, 0, 0).is_none());
        // A ranking whose presence predictors never occur in any trace.
        let foreign = vec![ranked_bo(42, true, 1.0, 1, 0)];
        assert!(CausalChain::from_lbra(None, &foreign, &traces, 1, 0).is_none());
        // Empty rings: nothing to anchor in.
        let empty = vec![("fail:w0:seed1".to_string(), vec![])];
        assert!(CausalChain::from_lbra(None, &ranked, &empty, 2, 2).is_none());
    }

    #[test]
    fn cap_keeps_anchor_and_failure_end() {
        // One witness with MAX_LINKS + 3 distinct events; the middle is
        // thinned by support but the ends survive.
        let n = MAX_LINKS + 3;
        let mut ranked = vec![ranked_bo(0, true, 1.0, 1, 0)];
        let mut trace = Vec::new();
        for i in 0..n {
            let branch = i as u32;
            if branch != 0 {
                ranked.push(ranked_bo(branch, true, 0.9 - 0.01 * i as f64, 1, 1));
            }
            // Position n..1: branch 0 deepest, branch n-1 at position 1.
            trace.push(entry(n - i, branch, true));
        }
        let traces = vec![("fail:w0:seed1".to_string(), trace)];
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 1, 1).unwrap();
        assert_eq!(chain.links.len(), MAX_LINKS);
        assert_eq!(chain.links[0].event, "br0=true");
        assert_eq!(chain.links[0].role, LinkRole::RootCause);
        let last = chain.links.last().unwrap();
        assert_eq!(last.event, format!("br{}=true", n - 1));
        assert_eq!(last.role, LinkRole::Failure);
    }

    #[test]
    fn lcr_links_ride_mesi_transitions() {
        let loc = SourceLoc::UNKNOWN;
        let e = CoherenceEvent {
            loc,
            state: CoherenceState::Shared,
            access: AccessKind::Store,
        };
        let ranked = vec![RankedEvent {
            event: e,
            polarity: Polarity::Present,
            precision: 1.0,
            recall: 1.0,
            score: 1.0,
            failure_matches: 1,
            success_matches: 0,
        }];
        let traces = vec![(
            "fail:w0:seed1".to_string(),
            vec![DecodedLcrEntry {
                position: 1,
                record: stm_machine::events::CoherenceRecord {
                    pc: 0x10,
                    state: CoherenceState::Shared,
                    access: AccessKind::Store,
                },
                event: e,
            }],
        )];
        let chain = CausalChain::from_lcra(None, &ranked, &traces, 1, 0).unwrap();
        assert_eq!(chain.kind, ChainKind::Lcr);
        let t = mesi_transition(AccessKind::Store, CoherenceState::Shared);
        assert!(chain.links[0].mechanism.starts_with(t.transition));
    }

    #[test]
    fn json_round_trips_and_fingerprint_tracks_the_storyline() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2)
            .unwrap()
            .with_symptom("assertion failed: demo");
        let parsed = Json::parse(&chain.to_json().encode()).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("lbr"));
        assert_eq!(
            parsed.get("symptom").and_then(Json::as_str),
            Some("assertion failed: demo")
        );
        assert_eq!(
            parsed
                .get("links")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(3)
        );
        let same = CausalChain::from_lbra(None, &ranked, &traces, 2, 2)
            .unwrap()
            .with_symptom("assertion failed: demo");
        assert_eq!(chain.fingerprint(), same.fingerprint());
        // Counts, supports and positions move with every witness; the
        // storyline does not.
        let mut recounted = ranked.clone();
        recounted[1] = ranked_bo(1, false, 0.6, 3, 2);
        let recounted = CausalChain::from_lbra(None, &recounted, &traces, 5, 9).unwrap();
        assert_ne!(recounted.to_json(), chain.to_json());
        assert_eq!(recounted.fingerprint(), chain.fingerprint());
        // Fewer witnesses consulted, or a different link order, is a
        // different story.
        let fewer = CausalChain::from_lbra(None, &ranked, &traces[..1], 2, 2).unwrap();
        assert_ne!(chain.fingerprint(), fewer.fingerprint());
        let mut reordered = chain.clone();
        reordered.links.swap(1, 2);
        assert_ne!(chain.fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn rank_and_support_helpers() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        assert_eq!(chain.link_rank_of(|l| l.event == "br0=true"), Some(1));
        assert_eq!(chain.link_rank_of(|l| l.event == "br2=true"), Some(3));
        assert_eq!(chain.link_rank_of(|l| l.event == "br9=true"), None);
        assert_eq!(chain.min_link_support(), 0.5);
    }
}
