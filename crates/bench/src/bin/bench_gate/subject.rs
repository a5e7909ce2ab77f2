//! The benchmarks the quality gates diagnose, each deployed the way its
//! Table 6/7 row is: sort under LBRA, apache4 under LCRA (space-consuming
//! Conf2).

use stm_core::engine::{DiagnosisSession, ProfileKind};
use stm_core::profile::{BranchOutcome, CoherenceEvent};
use stm_core::runner::{Runner, Workload};
use stm_forensics::ChainLink;
use stm_suite::eval::{default_threads, expand_workloads, lbra_runner, lcra_runner};
use stm_suite::{Benchmark, BugClass};

/// One sequential (LBRA) and one concurrency (LCRA) benchmark.
pub const SUBJECTS: [&str; 2] = ["sort", "apache4"];

/// A benchmark deployed for its diagnosis, with its witnesses expanded.
pub struct Subject {
    pub bench: Benchmark,
    /// The reactive-scheme deployment: `lbra_runner` or `lcra_runner`.
    pub runner: Runner,
    pub failing: Vec<Workload>,
    pub passing: Vec<Workload>,
    pub kind: ProfileKind,
}

impl Subject {
    /// Deploys suite benchmark `id` and expands its failing/passing
    /// witnesses (a seed scan for a concurrency bug).
    pub fn new(id: &str) -> Subject {
        let bench = stm_suite::by_id(id).expect("benchmark exists");
        let (runner, kind) = match bench.info.bug_class {
            BugClass::Sequential => (lbra_runner(&bench), ProfileKind::Lbr),
            BugClass::Concurrency => (lcra_runner(&bench), ProfileKind::Lcr),
        };
        let (failing, passing) = expand_workloads(&bench, &runner);
        Subject {
            bench,
            runner,
            failing,
            passing,
            kind,
        }
    }

    pub fn lbr(&self) -> bool {
        self.kind == ProfileKind::Lbr
    }

    /// A witness-mode session over the subject's witnesses at the default
    /// collection thread count.
    pub fn session(&self) -> DiagnosisSession {
        DiagnosisSession::from_runner(&self.runner)
            .failure(self.bench.truth.spec.clone())
            .failing(self.failing.clone())
            .passing(self.passing.clone())
            .profile_kind(self.kind)
            .threads(default_threads())
    }

    /// Whether an LBRA predictor is the ground-truth root-cause branch.
    pub fn is_root_branch(&self, e: &BranchOutcome) -> bool {
        self.bench.truth.target_branch() == Some(e.branch)
    }

    /// Whether an LCRA predictor is the ground-truth failure-predicting
    /// event in its Conf2 state.
    pub fn is_root_event(&self, e: &CoherenceEvent) -> bool {
        self.bench
            .truth
            .fpe
            .is_some_and(|f| f.loc == e.loc && f.conf2_state == Some(e.state))
    }

    /// Whether a chain link's canonical event form names the ground-truth
    /// root cause.
    pub fn is_root_link(&self, l: &ChainLink) -> bool {
        let truth = &self.bench.truth;
        if self.lbr() {
            truth
                .target_branch()
                .is_some_and(|t| l.event.starts_with(&format!("{t}=")))
        } else {
            truth.fpe.is_some_and(|f| {
                f.conf2_state
                    .is_some_and(|s| l.event.ends_with(&format!("@{}:{s}", f.loc)))
            })
        }
    }
}
