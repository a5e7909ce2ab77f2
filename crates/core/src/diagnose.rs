//! LBRA and LCRA: automatic failure diagnosis from LBR/LCR profiles (§5.2).
//!
//! Both drivers follow the same loop: replay failing workloads until
//! `failure_profiles` failure-run profiles are collected, replay passing
//! workloads until `success_profiles` success-run profiles are collected,
//! feed both sets to the [`RankingModel`] and rank events by the harmonic
//! mean of prediction precision and recall. Runs that neither reproduce the
//! target failure nor reach the success logging site are naturally excluded
//! (§5.2: "LBR/LCR will not be profiled during runs that do not execute the
//! code around the failure site").
//!
//! The number of *failing* runs a diagnosis consumes is its **diagnosis
//! latency** — the headline advantage over sampling-based CBI (§7.2: 10
//! vs. 1000 failure occurrences).

use crate::engine::CollectedProfiles;
use crate::profile::{lbr_events, lcr_events, BranchOutcome, CoherenceEvent};
use crate::ranking::{Polarity, RankedEvent, RankingModel};
use crate::runner::FailureSpec;
use std::collections::{BTreeSet, HashMap};
use stm_machine::ids::BranchId;
use stm_machine::ir::{ProfileRole, SourceLoc};
use stm_machine::report::{ProfileData, ProfileEvent, RunReport};

/// How many profiles of each class a collection keeps — the one quota
/// surface shared by the
/// [`DiagnosisSession`](crate::engine::DiagnosisSession) builder and the
/// fleet daemon's per-shard configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quotas {
    /// Failure-run profiles to collect (the paper uses 10).
    pub failure_profiles: usize,
    /// Success-run profiles to collect (the paper uses 10).
    pub success_profiles: usize,
    /// Hard cap on runs *per collection phase* (failure and success each),
    /// to bound non-reproducing workload sets.
    pub max_runs: usize,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            failure_profiles: 10,
            success_profiles: 10,
            max_runs: 2000,
        }
    }
}

impl Quotas {
    /// Sets the failure-profile quota.
    pub fn failure_profiles(mut self, n: usize) -> Self {
        self.failure_profiles = n;
        self
    }

    /// Sets the success-profile quota.
    pub fn success_profiles(mut self, n: usize) -> Self {
        self.success_profiles = n;
        self
    }

    /// Sets the per-phase run cap.
    pub fn max_runs(mut self, n: usize) -> Self {
        self.max_runs = n;
        self
    }
}

/// Statistics of one diagnosis: how many runs of each class were consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiagnosisStats {
    /// Runs that reproduced the target failure and yielded a profile.
    pub failure_runs_used: usize,
    /// Successful runs that yielded a success-site profile.
    pub success_runs_used: usize,
    /// Total runs executed, including excluded ones.
    pub total_runs: usize,
}

/// Selects the failure-run profile matching the spec: the profile taken at
/// the target logging site, or the fault-handler profile for crashes.
pub fn failure_profile<'r>(report: &'r RunReport, spec: &FailureSpec) -> Option<&'r ProfileEvent> {
    let want_site = match spec {
        FailureSpec::ErrorLogAt(site) => Some(*site),
        _ => None,
    };
    report
        .profiles
        .iter()
        .rfind(|p| p.role == ProfileRole::FailureSite && p.site == want_site)
}

/// Selects the success-run profile matching the spec: the last snapshot
/// taken at the corresponding success logging site.
pub fn success_profile<'r>(report: &'r RunReport, spec: &FailureSpec) -> Option<&'r ProfileEvent> {
    let want_site = match spec {
        FailureSpec::ErrorLogAt(site) => Some(*site),
        _ => None,
    };
    report
        .profiles
        .iter()
        .rfind(|p| p.role == ProfileRole::SuccessSite && p.site == want_site)
}

/// Builds the ranking model from collected profiles: failures first, then
/// successes, both in their deterministic consumption order — exactly the
/// insertion order the sequential driver produced.
fn build_model<E: Ord + Clone>(
    profiles: &CollectedProfiles,
    extraction_span: &'static str,
    mut extract: impl FnMut(&ProfileEvent) -> Option<BTreeSet<E>>,
) -> RankingModel<E> {
    let spec = profiles.spec();
    let mut extract = |p: &ProfileEvent| {
        let _span = stm_telemetry::span_cat(extraction_span, "diagnosis");
        extract(p)
    };
    let mut model = RankingModel::new();
    for run in profiles.failure_runs() {
        if let Some(events) = failure_profile(&run.report, spec).and_then(&mut extract) {
            model.add_profile_named(true, run.witness.clone(), events);
        }
    }
    for run in profiles.success_runs() {
        if let Some(events) = success_profile(&run.report, spec).and_then(&mut extract) {
            model.add_profile_named(false, run.witness.clone(), events);
        }
    }
    model
}

impl CollectedProfiles {
    /// Runs the LBRA ranking (§5.2) over the collected LBR profiles:
    /// branch outcomes scored by the harmonic mean of prediction
    /// precision and recall, proximity tie-broken by ring position.
    pub fn lbra(&self) -> LbraDiagnosis {
        let layout = self.runner().machine().layout();
        let mut positions: HashMap<BranchOutcome, (u64, u64)> = HashMap::new();
        let model = build_model(self, "lbra.profile_extraction", |p| match &p.data {
            ProfileData::Lbr(records) => {
                if p.role == ProfileRole::FailureSite {
                    for e in crate::profile::decode_lbr(layout, records) {
                        if let Some(bo) = e.branch_outcome() {
                            let slot = positions.entry(bo).or_insert((0, 0));
                            slot.0 += e.position as u64;
                            slot.1 += 1;
                        }
                    }
                }
                Some(lbr_events(layout, records))
            }
            ProfileData::Lcr(_) => None,
        });
        let _rank_span = stm_telemetry::span_cat("lbra.ranking", "diagnosis");
        let mut ranked = model.rank();
        proximity_tiebreak(&mut ranked, |e| positions.get(e).copied());
        LbraDiagnosis {
            ranked,
            stats: *self.stats(),
        }
    }

    /// Runs the LCRA ranking (§5.2) over the collected LCR profiles,
    /// including the absence predictors of §4.2.2.
    pub fn lcra(&self) -> LcraDiagnosis {
        let layout = self.runner().machine().layout();
        let mut positions: HashMap<CoherenceEvent, (u64, u64)> = HashMap::new();
        let model = build_model(self, "lcra.profile_extraction", |p| match &p.data {
            ProfileData::Lcr(records) => {
                if p.role == ProfileRole::FailureSite {
                    for e in crate::profile::decode_lcr(layout, records) {
                        let slot = positions.entry(e.event).or_insert((0, 0));
                        slot.0 += e.position as u64;
                        slot.1 += 1;
                    }
                }
                Some(lcr_events(layout, records))
            }
            ProfileData::Lbr(_) => None,
        });
        let _rank_span = stm_telemetry::span_cat("lcra.ranking", "diagnosis");
        let mut ranked = model.rank_with_absence();
        proximity_tiebreak(&mut ranked, |e| positions.get(e).copied());
        LcraDiagnosis {
            ranked,
            stats: *self.stats(),
        }
    }

    /// The raw batch [`RankingModel`] over the collected LBR profiles —
    /// the exact model [`CollectedProfiles::lbra`] ranks before its
    /// proximity tie-break. A monitored session's final ranking
    /// ([`crate::converge::FinalRanking::Lbr`]) is pinned bit-identical
    /// to this model's `rank()`.
    pub fn lbr_model(&self) -> RankingModel<BranchOutcome> {
        let layout = self.runner().machine().layout();
        build_model(self, "lbra.profile_extraction", |p| match &p.data {
            ProfileData::Lbr(records) => Some(lbr_events(layout, records)),
            ProfileData::Lcr(_) => None,
        })
    }

    /// The raw batch [`RankingModel`] over the collected LCR profiles —
    /// the exact model [`CollectedProfiles::lcra`] ranks before its
    /// proximity tie-break. A monitored session's final ranking
    /// ([`crate::converge::FinalRanking::Lcr`]) is pinned bit-identical
    /// to this model's `rank_with_absence()`.
    pub fn lcr_model(&self) -> RankingModel<CoherenceEvent> {
        let layout = self.runner().machine().layout();
        build_model(self, "lcra.profile_extraction", |p| match &p.data {
            ProfileData::Lcr(records) => Some(lcr_events(layout, records)),
            ProfileData::Lbr(_) => None,
        })
    }
}

/// The result of an LBRA diagnosis.
#[derive(Debug, Clone)]
pub struct LbraDiagnosis {
    /// Scored branch-outcome predictors, best first.
    pub ranked: Vec<RankedEvent<BranchOutcome>>,
    /// Run accounting.
    pub stats: DiagnosisStats,
}

impl LbraDiagnosis {
    /// 1-based rank of the first predictor involving `branch`.
    ///
    /// Deterministic for identical profile sets: predictors order by
    /// harmonic score (descending), then average failure-profile ring
    /// position (ascending, unseen last), then event order
    /// (`BranchOutcome`'s `Ord`: branch id, then outcome).
    pub fn rank_of_branch(&self, branch: BranchId) -> Option<usize> {
        RankingModel::rank_of(&self.ranked, |r| r.event.branch == branch)
    }

    /// Drops the predictors formed by the branch edges that jump directly
    /// into the failure site's block. That branch is the failure *site*
    /// (LBRLOG reports it as the location); keeping it would let it
    /// trivially outrank every actual cause, since by construction it
    /// fires in exactly the failing runs.
    pub fn exclude_site_guards(&mut self, program: &stm_machine::ir::Program, spec: &FailureSpec) {
        if let Some((func, block)) = crate::analysis::failure_site_block(program, spec) {
            let guards = crate::analysis::site_guard_outcomes(program, func, block);
            self.ranked
                .retain(|r| !guards.contains(&(r.event.branch, r.event.outcome)));
        }
    }

    /// The best predictor, if any event was observed at all.
    pub fn top(&self) -> Option<&RankedEvent<BranchOutcome>> {
        self.ranked.first()
    }
}

/// Stable-reorders equal-scored predictors by their average ring position
/// in the failure profiles (closest to the failure first). This follows
/// the paper's locality observation (§1.2): information recorded closer to
/// the failure is more likely to be its cause, so among statistically
/// indistinguishable predictors the nearest one is reported first.
fn proximity_tiebreak<E: Ord + Clone>(
    ranked: &mut [RankedEvent<E>],
    position_of: impl Fn(&E) -> Option<(u64, u64)>,
) {
    let avg = |e: &E| -> f64 {
        match position_of(e) {
            Some((sum, n)) if n > 0 => sum as f64 / n as f64,
            _ => f64::INFINITY,
        }
    };
    ranked.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| avg(&a.event).total_cmp(&avg(&b.event)))
            .then_with(|| a.event.cmp(&b.event))
    });
}

/// The result of an LCRA diagnosis.
#[derive(Debug, Clone)]
pub struct LcraDiagnosis {
    /// Scored coherence-event predictors (presence and absence), best
    /// first.
    pub ranked: Vec<RankedEvent<CoherenceEvent>>,
    /// Run accounting.
    pub stats: DiagnosisStats,
}

impl LcraDiagnosis {
    /// 1-based rank of the first predictor at the given source location
    /// (any state, either polarity).
    ///
    /// Rank numbers are deterministic for identical profile sets: the
    /// ranking orders by harmonic score (descending), then by average
    /// ring position in the failure profiles (closest to the failure
    /// first, unseen events last), then by event order
    /// (`CoherenceEvent`'s `Ord`: location, state, access kind), then
    /// `Present` before `Absent`. See [`LcraDiagnosis::tie_break_order`].
    pub fn rank_of_loc(&self, loc: SourceLoc) -> Option<usize> {
        RankingModel::rank_of(&self.ranked, |r| r.event.loc == loc)
    }

    /// 1-based rank of a specific (location, state) predictor, matching
    /// either access kind and either polarity.
    ///
    /// Deterministic under the same tie-breaking order as
    /// [`LcraDiagnosis::rank_of_loc`]; replaying the same diagnosis (same
    /// workloads, seeds and configuration) reports the same rank.
    pub fn rank_of_event(
        &self,
        loc: SourceLoc,
        state: stm_machine::events::CoherenceState,
    ) -> Option<usize> {
        RankingModel::rank_of(&self.ranked, |r| {
            r.event.loc == loc && r.event.state == state
        })
    }

    /// The tie-breaking order behind every rank number this diagnosis
    /// reports, most significant first. Stable sorts preserve each level,
    /// so ranks are reproducible across runs given identical profiles.
    pub const fn tie_break_order() -> &'static [&'static str] {
        &[
            "harmonic score, descending",
            "average failure-profile ring position, ascending (unseen last)",
            "event order (location, state, access kind)",
            "polarity (Present before Absent)",
        ]
    }

    /// The best predictor.
    pub fn top(&self) -> Option<&RankedEvent<CoherenceEvent>> {
        self.ranked.first()
    }

    /// `true` when the top predictor is an absence predictor — the
    /// space-saving-configuration signature of read-too-early order
    /// violations (§4.2.2).
    pub fn top_is_absence(&self) -> bool {
        self.top()
            .map(|t| t.polarity == Polarity::Absent)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DiagnosisSession, ProfileKind};
    use crate::runner::{Runner, Workload};
    use crate::transform::InstrumentOptions;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ids::LogSiteId;
    use stm_machine::ir::{BinOp, Program};

    /// The session-API equivalent of the retired `lbra()` shim call the
    /// tests used to make.
    fn lbra_session(
        runner: &Runner,
        failing: &[Workload],
        passing: &[Workload],
        spec: &FailureSpec,
        config: &Quotas,
    ) -> LbraDiagnosis {
        DiagnosisSession::from_runner(runner)
            .failure(spec.clone())
            .failing(failing.to_vec())
            .passing(passing.to_vec())
            .profile_kind(ProfileKind::Lbr)
            .failure_profiles(config.failure_profiles)
            .success_profiles(config.success_profiles)
            .max_runs(config.max_runs)
            .collect()
            .expect("witness-mode collection succeeds")
            .lbra()
    }

    /// A sanity-check program: the error fires iff input 0 is negative,
    /// after passing through a couple of unrelated branches.
    fn guarded_program() -> (Program, LogSiteId, BranchId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let mid_t = f.new_block();
            let mid_j = f.new_block();
            let err = f.new_block();
            let ok = f.new_block();
            // Unrelated branch on input 1.
            let y = f.read_input(1);
            let cy = f.bin(BinOp::Gt, y, 50);
            f.at(5);
            f.br(cy, mid_t, mid_j);
            f.set_block(mid_t);
            f.nop();
            f.jmp(mid_j);
            f.set_block(mid_j);
            // Root-cause branch on input 0.
            let x = f.read_input(0);
            let neg = f.bin(BinOp::Lt, x, 0);
            f.at(10);
            f.br(neg, err, ok);
            f.set_block(err);
            f.at(11);
            site = f.log_error("x must be non-negative");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        // The root-cause branch is the one at m.c:10 (the second branch).
        let root = p
            .branches
            .iter()
            .find(|b| b.loc.line == 10)
            .map(|b| b.id)
            .unwrap();
        (p, site, root)
    }

    #[test]
    fn lbra_ranks_root_cause_branch_first() {
        let (p, site, root) = guarded_program();
        let runner =
            Runner::instrumented(&p, &InstrumentOptions::lbra_reactive(vec![site], vec![]));
        let failing: Vec<Workload> = (0..10)
            .map(|i| Workload::new(vec![-1 - i as i64, (i as i64 * 13) % 100]))
            .collect();
        let passing: Vec<Workload> = (0..10)
            .map(|i| Workload::new(vec![1 + i as i64, (i as i64 * 29) % 100]))
            .collect();
        let spec = FailureSpec::ErrorLogAt(site);
        let d = lbra_session(&runner, &failing, &passing, &spec, &Quotas::default());
        assert_eq!(d.stats.failure_runs_used, 10);
        assert_eq!(d.stats.success_runs_used, 10);
        // The top predictor is (root branch, true-edge): precision and
        // recall are both 1.
        let top = d.top().unwrap();
        assert_eq!(top.event.branch, root);
        assert!(top.event.outcome);
        assert_eq!(top.score, 1.0);
        assert_eq!(d.rank_of_branch(root), Some(1));
    }

    #[test]
    fn lbra_excludes_runs_that_miss_the_site() {
        let (p, site, _) = guarded_program();
        let runner =
            Runner::instrumented(&p, &InstrumentOptions::lbra_reactive(vec![site], vec![]));
        // Every "failing" workload actually succeeds: no failure profiles.
        let failing = vec![Workload::new(vec![5, 5])];
        let passing = vec![Workload::new(vec![6, 6])];
        let spec = FailureSpec::ErrorLogAt(site);
        let cfg = Quotas {
            failure_profiles: 3,
            success_profiles: 3,
            max_runs: 20,
        };
        let d = lbra_session(&runner, &failing, &passing, &spec, &cfg);
        assert_eq!(d.stats.failure_runs_used, 0);
        assert_eq!(d.stats.success_runs_used, 3);
    }

    #[test]
    fn diagnosis_ranks_are_deterministic_across_replays() {
        let (p, site, _) = guarded_program();
        let runner =
            Runner::instrumented(&p, &InstrumentOptions::lbra_reactive(vec![site], vec![]));
        let failing: Vec<Workload> = (0..6)
            .map(|i| Workload::new(vec![-1 - i as i64, (i as i64 * 13) % 100]))
            .collect();
        let passing: Vec<Workload> = (0..6)
            .map(|i| Workload::new(vec![1 + i as i64, (i as i64 * 29) % 100]))
            .collect();
        let spec = FailureSpec::ErrorLogAt(site);
        let cfg = Quotas {
            failure_profiles: 6,
            success_profiles: 6,
            max_runs: 100,
        };
        let first = lbra_session(&runner, &failing, &passing, &spec, &cfg);
        for _ in 0..3 {
            let again = lbra_session(&runner, &failing, &passing, &spec, &cfg);
            assert_eq!(again.ranked, first.ranked, "rank order must not drift");
        }
    }

    #[test]
    fn diagnosis_witnesses_name_workload_and_seed() {
        let (p, site, root) = guarded_program();
        let runner =
            Runner::instrumented(&p, &InstrumentOptions::lbra_reactive(vec![site], vec![]));
        let failing = vec![Workload::new(vec![-5, 3]).with_seed(42)];
        let passing = vec![Workload::new(vec![5, 3]).with_seed(7)];
        let spec = FailureSpec::ErrorLogAt(site);
        let cfg = Quotas {
            failure_profiles: 2,
            success_profiles: 1,
            max_runs: 20,
        };
        let d = lbra_session(&runner, &failing, &passing, &spec, &cfg);
        let top = d
            .ranked
            .iter()
            .find(|r| r.event.branch == root)
            .expect("root branch ranked");
        assert_eq!(top.failure_witnesses.len(), 2);
        assert!(
            top.failure_witnesses[0].starts_with("fail:w0:seed42"),
            "{:?}",
            top.failure_witnesses
        );
        // The second profile comes from the seed-perturbed second lap.
        assert!(top.failure_witnesses[1].starts_with("fail:w0:seed"));
        assert_ne!(top.failure_witnesses[0], top.failure_witnesses[1]);
    }

    #[test]
    fn scan_mode_session_finds_failing_workloads() {
        let (p, site, _) = guarded_program();
        let runner = Runner::instrumented(&p, &InstrumentOptions::lbrlog());
        let spec = FailureSpec::ErrorLogAt(site);
        let found = DiagnosisSession::from_runner(&runner)
            .failure(spec)
            .workloads(vec![Workload::new(vec![-1, 0])])
            .seeds(0..10)
            .failure_profiles(3)
            .success_profiles(0)
            .collect()
            .expect("scan-mode collection succeeds")
            .failing_workloads();
        assert_eq!(found.len(), 3);
        assert_eq!(found[0].seed, 0);
    }
}
