//! The explainable ranking report: the top-K predictors of a diagnosis
//! together with the evidence that produced each rank.
//!
//! A rank number alone is not actionable (a developer cannot tell a
//! confident rank #1 from a coin-flip rank #1); a [`RankingReport`] keeps
//! the precision/recall split, the match counts and the ids of the runs
//! that voted for — and against — every shown predictor, and renders them
//! as strict JSON and as markdown with a "why ranked here" section.

use stm_core::diagnose::{DiagnosisStats, LbraDiagnosis, LcraDiagnosis};
use stm_core::ranking::{Polarity, RankedEvent, RankingModel};
use stm_machine::ir::Program;
use stm_telemetry::json::Json;

use crate::chain::{branch_label, coherence_label, CausalChain};
use crate::dossier::FailureDossier;

/// One ranked predictor with its full evidence trail.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceRow {
    /// 1-based rank.
    pub rank: usize,
    /// Source-level label ("branch b1 at m.c:9 taken TRUE").
    pub label: String,
    /// `"present"` or `"absent"`.
    pub polarity: String,
    /// Prediction precision `|F∧e| / |e|`.
    pub precision: f64,
    /// Prediction recall `|F∧e| / |F|`.
    pub recall: f64,
    /// Harmonic mean of the two — the ranking key.
    pub score: f64,
    /// Failure runs matching the predictor.
    pub failure_matches: usize,
    /// Success runs matching the predictor.
    pub success_matches: usize,
    /// Ids of the failure runs that voted for the predictor.
    pub failure_witnesses: Vec<String>,
    /// Ids of the success runs that dilute its precision.
    pub success_witnesses: Vec<String>,
}

impl EvidenceRow {
    /// The row of `r`, with the runs that match it read from the `model`
    /// that scored it.
    fn from_ranked<E: Ord + Clone>(
        rank: usize,
        label: String,
        r: &RankedEvent<E>,
        model: &RankingModel<E>,
    ) -> EvidenceRow {
        let (failure_witnesses, success_witnesses) = model.witnesses(&r.event, r.polarity);
        EvidenceRow {
            rank,
            label,
            polarity: match r.polarity {
                Polarity::Present => "present".to_string(),
                Polarity::Absent => "absent".to_string(),
            },
            precision: r.precision,
            recall: r.recall,
            score: r.score,
            failure_matches: r.failure_matches,
            success_matches: r.success_matches,
            failure_witnesses,
            success_witnesses,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("rank", Json::from(self.rank)),
            ("label", Json::Str(self.label.clone())),
            ("polarity", Json::Str(self.polarity.clone())),
            ("precision", Json::from(self.precision)),
            ("recall", Json::from(self.recall)),
            ("score", Json::from(self.score)),
            ("failure_matches", Json::from(self.failure_matches)),
            ("success_matches", Json::from(self.success_matches)),
            (
                "failure_witnesses",
                Json::Arr(
                    self.failure_witnesses
                        .iter()
                        .map(|w| Json::Str(w.clone()))
                        .collect(),
                ),
            ),
            (
                "success_witnesses",
                Json::Arr(
                    self.success_witnesses
                        .iter()
                        .map(|w| Json::Str(w.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The "why ranked here" explanation, in prose.
    fn why(&self, failure_runs: usize) -> String {
        let presence = match self.polarity.as_str() {
            "absent" => "missing from",
            _ => "seen in",
        };
        let mut s = format!(
            "{} {} of {} failing runs (recall {:.2}); of the {} runs matching it, {} failed (precision {:.2}); harmonic mean {:.3}.",
            presence,
            self.failure_matches,
            failure_runs,
            self.recall,
            self.failure_matches + self.success_matches,
            self.failure_matches,
            self.precision,
            self.score,
        );
        if self.success_matches == 0 {
            s.push_str(" No successful run matches it.");
        }
        s
    }
}

/// The explainable report of one LBRA/LCRA diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingReport {
    /// `"LBRA"` or `"LCRA"`.
    pub system: String,
    /// The benchmark or program under diagnosis.
    pub benchmark: String,
    /// Failure runs the diagnosis consumed (its diagnosis latency).
    pub failure_runs: usize,
    /// Success runs consumed.
    pub success_runs: usize,
    /// Total runs executed, including excluded ones.
    pub total_runs: usize,
    /// Total predictors the diagnosis scored.
    pub total_events: usize,
    /// The tie-breaking order behind the rank numbers, most significant
    /// first.
    pub tie_break: Vec<String>,
    /// The top-K predictors with their evidence.
    pub rows: Vec<EvidenceRow>,
}

impl RankingReport {
    fn build<E: Ord + Clone>(
        system: &str,
        benchmark: &str,
        ranked: &[RankedEvent<E>],
        model: &RankingModel<E>,
        stats: DiagnosisStats,
        top_k: usize,
        label: impl Fn(&E) -> String,
    ) -> RankingReport {
        RankingReport {
            system: system.to_string(),
            benchmark: benchmark.to_string(),
            failure_runs: stats.failure_runs_used,
            success_runs: stats.success_runs_used,
            total_runs: stats.total_runs,
            total_events: ranked.len(),
            tie_break: LcraDiagnosis::tie_break_order()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: ranked
                .iter()
                .take(top_k)
                .enumerate()
                .map(|(i, r)| EvidenceRow::from_ranked(i + 1, label(&r.event), r, model))
                .collect(),
        }
    }

    /// Builds the report from an LBRA diagnosis.
    pub fn from_lbra(
        program: &Program,
        benchmark: &str,
        d: &LbraDiagnosis,
        top_k: usize,
    ) -> RankingReport {
        RankingReport::build(
            "LBRA",
            benchmark,
            &d.ranked,
            &d.model,
            d.stats,
            top_k,
            |e| branch_label(Some(program), e),
        )
    }

    /// Builds the report from an LCRA diagnosis.
    pub fn from_lcra(
        program: &Program,
        benchmark: &str,
        d: &LcraDiagnosis,
        top_k: usize,
    ) -> RankingReport {
        RankingReport::build(
            "LCRA",
            benchmark,
            &d.ranked,
            &d.model,
            d.stats,
            top_k,
            |e| coherence_label(Some(program), e),
        )
    }

    /// Serializes the report as a strict-JSON value.
    #[must_use = "serialization has no side effects; use the returned value"]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("system", Json::Str(self.system.clone())),
            ("benchmark", Json::Str(self.benchmark.clone())),
            (
                "runs",
                Json::obj([
                    ("failure", Json::from(self.failure_runs)),
                    ("success", Json::from(self.success_runs)),
                    ("total", Json::from(self.total_runs)),
                ]),
            ),
            ("total_events", Json::from(self.total_events)),
            (
                "tie_break",
                Json::Arr(
                    self.tie_break
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "events",
                Json::Arr(self.rows.iter().map(EvidenceRow::to_json).collect()),
            ),
        ])
    }

    /// Renders the report as markdown with a "why ranked here" section
    /// per predictor.
    #[must_use = "rendering has no side effects; use the returned text"]
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## {} diagnosis report — `{}`",
            self.system, self.benchmark
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Consumed {} failing and {} passing runs ({} runs total); \
             {} predictors scored, top {} shown.",
            self.failure_runs,
            self.success_runs,
            self.total_runs,
            self.total_events,
            self.rows.len()
        );
        let _ = writeln!(out, "\nTie-breaking order behind equal scores:");
        for (i, t) in self.tie_break.iter().enumerate() {
            let _ = writeln!(out, "{}. {}", i + 1, t);
        }
        for row in &self.rows {
            let _ = writeln!(
                out,
                "\n### #{} · {} ({})\n",
                row.rank, row.label, row.polarity
            );
            let _ = writeln!(
                out,
                "| precision | recall | score | failure matches | success matches |"
            );
            let _ = writeln!(
                out,
                "|-----------|--------|-------|-----------------|-----------------|"
            );
            let _ = writeln!(
                out,
                "| {:.2} | {:.2} | {:.3} | {} | {} |",
                row.precision, row.recall, row.score, row.failure_matches, row.success_matches
            );
            let _ = writeln!(out, "\n**Why ranked here:** {}", row.why(self.failure_runs));
            if !row.failure_witnesses.is_empty() {
                let _ = writeln!(
                    out,
                    "\nSupporting failure runs: {}",
                    row.failure_witnesses
                        .iter()
                        .map(|w| format!("`{w}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            if !row.success_witnesses.is_empty() {
                let _ = writeln!(
                    out,
                    "\nContradicting success runs: {}",
                    row.success_witnesses
                        .iter()
                        .map(|w| format!("`{w}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
        out
    }
}

/// A complete forensic artifact for one diagnosed failure: the flight
/// recorder dossier of one failing run, the explainable ranking report
/// of the statistical diagnosis, and (when one reconstructs) the causal
/// chain linking the top-ranked predictor to the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicReport {
    /// The flight-recorder dossier.
    pub dossier: FailureDossier,
    /// The ranking evidence.
    pub ranking: RankingReport,
    /// The evidence-linked root-cause → propagation → failure storyline;
    /// `None` when no chain reconstructs (empty ranking, or no failing
    /// trace contains the anchor predictor).
    pub chain: Option<CausalChain>,
}

impl ForensicReport {
    /// Serializes all sections as one strict-JSON document. The `chain`
    /// key is always present (`null` when no chain reconstructed).
    #[must_use = "serialization has no side effects; use the returned value"]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("dossier", self.dossier.to_json()),
            ("ranking", self.ranking.to_json()),
            (
                "chain",
                self.chain
                    .as_ref()
                    .map(CausalChain::to_json)
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Renders all sections as one markdown document.
    #[must_use = "rendering has no side effects; use the returned text"]
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# Forensic report — `{}`\n\n{}\n{}",
            self.ranking.benchmark,
            self.dossier.to_markdown(),
            self.ranking.to_markdown()
        );
        if let Some(chain) = &self.chain {
            out.push('\n');
            out.push_str(&chain.to_markdown());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::diagnose::LbraDiagnosis;
    use stm_core::engine::{DiagnosisSession, ProfileKind};
    use stm_core::runner::{FailureSpec, Runner, Workload};
    use stm_core::transform::InstrumentOptions;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    fn diagnosed() -> (Program, LbraDiagnosis) {
        let mut pb = ProgramBuilder::new("report-demo");
        let main = pb.declare_function("main");
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
            let x = f.read_input(0);
            let c = f.bin(BinOp::Lt, x, 0);
            f.at(9);
            f.br(c, err, ok);
            f.set_block(err);
            f.at(10);
            site = f.log_error("negative");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let runner =
            Runner::instrumented(&p, &InstrumentOptions::lbra_reactive(vec![site], vec![]));
        let failing: Vec<Workload> = (0..4).map(|i| Workload::new(vec![-1 - i])).collect();
        let passing: Vec<Workload> = (0..4).map(|i| Workload::new(vec![1 + i])).collect();
        let d = DiagnosisSession::from_runner(&runner)
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(failing)
            .passing(passing)
            .profile_kind(ProfileKind::Lbr)
            .failure_profiles(4)
            .success_profiles(4)
            .max_runs(50)
            .collect()
            .expect("collection")
            .lbra();
        (p, d)
    }

    #[test]
    fn report_carries_precision_recall_and_witnesses() {
        let (p, d) = diagnosed();
        let r = RankingReport::from_lbra(&p, "demo", &d, 5);
        assert_eq!(r.system, "LBRA");
        assert_eq!(r.failure_runs, 4);
        assert!(!r.rows.is_empty());
        let top = &r.rows[0];
        assert_eq!(top.rank, 1);
        assert!(top.score > 0.0);
        assert_eq!(top.failure_witnesses.len(), top.failure_matches);
    }

    #[test]
    fn top_k_truncates_but_total_counts_everything() {
        let (p, d) = diagnosed();
        let r = RankingReport::from_lbra(&p, "demo", &d, 1);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.total_events, d.ranked.len());
        assert!(r.total_events >= 1);
    }

    #[test]
    fn json_round_trips_and_names_the_evidence() {
        let (p, d) = diagnosed();
        let r = RankingReport::from_lbra(&p, "demo", &d, 3);
        let text = r.to_json().encode();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, r.to_json());
        let events = back.get("events").and_then(Json::as_array).unwrap();
        assert!(!events.is_empty());
        assert!(events[0].get("precision").and_then(Json::as_f64).is_some());
        assert!(events[0]
            .get("failure_witnesses")
            .and_then(Json::as_array)
            .is_some());
    }

    #[test]
    fn markdown_explains_every_shown_rank() {
        let (p, d) = diagnosed();
        let r = RankingReport::from_lbra(&p, "demo", &d, 3);
        let md = r.to_markdown();
        assert!(md.contains("Why ranked here"), "{md}");
        assert!(md.contains("precision"), "{md}");
        assert!(md.contains("branch"), "{md}");
        for row in &r.rows {
            assert!(md.contains(&format!("#{}", row.rank)), "{md}");
        }
    }
}
