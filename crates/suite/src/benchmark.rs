//! The benchmark vocabulary: one [`Benchmark`] per real-world failure of
//! the paper's Table 4, carrying the IR program, ground truth and
//! workloads, plus the numbers the paper reports for that failure (so the
//! harness can print paper-vs-measured side by side).

use stm_core::profile::{BranchOutcome, CoherenceEvent};
use stm_core::runner::{FailureSpec, Workload};
use stm_machine::events::CoherenceState;
use stm_machine::ids::{BranchId, FuncId};
use stm_machine::ir::{Program, SourceLoc};

/// Implementation language of the original application (CBI supports only
/// C programs — the `N/A` rows of Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// C.
    C,
    /// C++.
    Cpp,
}

/// Root-cause classification (Table 4's "Root Cause" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootCauseKind {
    /// Configuration error.
    Config,
    /// Semantic bug.
    Semantic,
    /// Memory bug.
    Memory,
    /// Single-variable atomicity violation.
    AtomicityViolation,
    /// Order violation.
    OrderViolation,
}

impl RootCauseKind {
    /// Table 4's abbreviation.
    pub fn short(&self) -> &'static str {
        match self {
            RootCauseKind::Config => "config.",
            RootCauseKind::Semantic => "semantic",
            RootCauseKind::Memory => "memory",
            RootCauseKind::AtomicityViolation => "A.V.",
            RootCauseKind::OrderViolation => "O.V.",
        }
    }
}

/// Failure symptom (Table 4's "Failure Symptom" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symptom {
    /// An error message is emitted.
    ErrorMessage,
    /// The program crashes.
    Crash,
    /// The program hangs.
    Hang,
    /// The program produces wrong output.
    WrongOutput,
    /// The program corrupts its log silently.
    CorruptedLog,
}

impl Symptom {
    /// Table 4's wording.
    pub fn describe(&self) -> &'static str {
        match self {
            Symptom::ErrorMessage => "error message",
            Symptom::Crash => "crash",
            Symptom::Hang => "hang",
            Symptom::WrongOutput => "wrong output",
            Symptom::CorruptedLog => "corrupted log",
        }
    }
}

/// Sequential vs. concurrency benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugClass {
    /// A sequential-bug failure (Table 6).
    Sequential,
    /// A concurrency-bug failure (Table 7).
    Concurrency,
}

/// A `✓ n` / `✓ n*` / `-` cell from the paper's result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperMark {
    /// `✓ n`: the root cause itself at entry/rank `n`.
    Found(u32),
    /// `✓ n*`: the root cause was missed but a related branch is at `n`.
    Related(u32),
    /// `-`: nothing related found.
    Miss,
}

impl std::fmt::Display for PaperMark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaperMark::Found(n) => write!(f, "Y {n}"),
            PaperMark::Related(n) => write!(f, "Y {n}*"),
            PaperMark::Miss => write!(f, "-"),
        }
    }
}

/// The numbers the paper reports for one benchmark (for paper-vs-measured
/// tables). `None` in a CBI field means CBI is inapplicable (`N/A`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PaperExpectations {
    /// Table 6 "LBRLOG w/ tog".
    pub lbrlog_tog: Option<PaperMark>,
    /// Table 6 "LBRLOG w/o tog".
    pub lbrlog_no_tog: Option<PaperMark>,
    /// Table 6 "LBRA" rank.
    pub lbra: Option<PaperMark>,
    /// Table 6 "CBI" rank; `None` = N/A.
    pub cbi: Option<PaperMark>,
    /// Table 6 patch distance from the failure site; `None` = ∞
    /// (different file). Only meaningful when `has_patch_distance`.
    pub patch_dist_failure: Option<u32>,
    /// Table 6 patch distance from the nearest LBR branch; `None` = ∞.
    pub patch_dist_lbr: Option<u32>,
    /// Marks the two patch-distance fields as meaningful (Table 6 rows).
    pub has_patch_distance: bool,
    /// Table 7 LCRLOG entry under the space-saving Conf1.
    pub lcrlog_conf1: Option<PaperMark>,
    /// Table 7 LCRLOG entry under the space-consuming Conf2.
    pub lcrlog_conf2: Option<PaperMark>,
    /// Table 7 LCRA rank (under Conf2).
    pub lcra: Option<PaperMark>,
    /// Table 4 KLOC of the real application.
    pub kloc: f64,
    /// Table 4 "#Log Points" of the real application.
    pub log_points: u32,
}

/// The failure-predicting event of a concurrency benchmark (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpeSpec {
    /// Source location of the access (the `a2`/`B2`/`B3` instruction).
    pub loc: SourceLoc,
    /// Observed state under the space-consuming Conf2, if capturable.
    pub conf2_state: Option<CoherenceState>,
    /// Observed state involved under the space-saving Conf1, if capturable.
    pub conf1_state: Option<CoherenceState>,
    /// Under Conf1 the signal is the event's *absence* from failure runs
    /// (read-too-early order violations, §4.2.2).
    pub conf1_is_absence: bool,
}

/// Ground truth for evaluating diagnosis results against the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// How the target failure manifests.
    pub spec: FailureSpec,
    /// The root-cause branch (sequential bugs): the branch the patch
    /// changes.
    pub root_cause_branch: Option<BranchId>,
    /// A branch related to the root cause (the `*` rows of Table 6).
    pub related_branch: Option<BranchId>,
    /// Source lines the real patch touches (mapped into our programs).
    pub patch_locs: Vec<SourceLoc>,
    /// Where the failure manifests.
    pub failure_site_loc: SourceLoc,
    /// The failure-predicting coherence event (concurrency bugs).
    pub fpe: Option<FpeSpec>,
    /// Fault locations for reactive success-site instrumentation of
    /// crash-type failures.
    pub fault_locs: Vec<(FuncId, SourceLoc)>,
}

impl GroundTruth {
    /// The branch LBRLOG/LBRA are evaluated against: the root cause when
    /// capturable, otherwise the related branch.
    pub fn target_branch(&self) -> Option<BranchId> {
        self.root_cause_branch.or(self.related_branch)
    }

    /// Whether an LBRA predictor names the target branch (either
    /// outcome).
    pub fn is_root_branch(&self, e: &BranchOutcome) -> bool {
        self.target_branch() == Some(e.branch)
    }

    /// Whether an LCRA predictor is the failure-predicting event in its
    /// Conf2 state (either access kind).
    pub fn is_root_event(&self, e: &CoherenceEvent) -> bool {
        self.fpe
            .is_some_and(|f| f.loc == e.loc && f.conf2_state == Some(e.state))
    }

    /// Whether an event's display form — the string a causal-chain link
    /// or a report carries — names the root cause: `{target_branch}=…`
    /// agrees with [`GroundTruth::is_root_branch`] and
    /// `…@{fpe.loc}:{conf2_state}` with [`GroundTruth::is_root_event`].
    /// The two forms cannot be confused: a branch display never contains
    /// `@`, and a coherence display always starts with `load@` or
    /// `store@`.
    pub fn is_root_display(&self, display: &str) -> bool {
        self.target_branch()
            .is_some_and(|t| display.starts_with(&format!("{t}=")))
            || self.fpe.is_some_and(|f| {
                f.conf2_state
                    .is_some_and(|s| display.ends_with(&format!("@{}:{s}", f.loc)))
            })
    }
}

/// The workload sets of a benchmark.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workloads {
    /// Workloads that (deterministically or under their seed) reproduce
    /// the failure.
    pub failing: Vec<Workload>,
    /// Workloads that complete successfully while exercising nearby code.
    pub passing: Vec<Workload>,
    /// A developer-designed common-scenario workload for overhead
    /// measurement (never fails).
    pub perf: Workload,
}

/// Descriptive metadata (one row of Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkInfo {
    /// Short unique id (`"sort"`, `"apache1"`, ...).
    pub id: &'static str,
    /// Application name.
    pub app: &'static str,
    /// Application version the bug lives in.
    pub version: &'static str,
    /// Implementation language of the original.
    pub language: Language,
    /// Root-cause class.
    pub root_cause: RootCauseKind,
    /// Failure symptom.
    pub symptom: Symptom,
    /// Sequential or concurrency.
    pub bug_class: BugClass,
    /// One-line description of the real bug.
    pub description: &'static str,
    /// The paper's reported numbers.
    pub paper: PaperExpectations,
}

/// One benchmark: a real-world failure modeled as an IR program.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Metadata.
    pub info: BenchmarkInfo,
    /// The buggy program.
    pub program: Program,
    /// Ground truth for evaluation.
    pub truth: GroundTruth,
    /// Workloads.
    pub workloads: Workloads,
}

impl Benchmark {
    /// Number of `Error` logging sites in the program (our analogue of
    /// Table 4's "#Log Points").
    pub fn log_points(&self) -> usize {
        self.program.error_log_sites().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mark_display() {
        assert_eq!(PaperMark::Found(3).to_string(), "Y 3");
        assert_eq!(PaperMark::Related(13).to_string(), "Y 13*");
        assert_eq!(PaperMark::Miss.to_string(), "-");
    }

    #[test]
    fn root_cause_short_names() {
        assert_eq!(RootCauseKind::AtomicityViolation.short(), "A.V.");
        assert_eq!(RootCauseKind::Config.short(), "config.");
    }

    #[test]
    fn ground_truth_prefers_root_cause_branch() {
        let t = GroundTruth {
            spec: FailureSpec::AnyCrash,
            root_cause_branch: Some(BranchId::new(4)),
            related_branch: Some(BranchId::new(9)),
            patch_locs: vec![],
            failure_site_loc: SourceLoc::UNKNOWN,
            fpe: None,
            fault_locs: vec![],
        };
        assert_eq!(t.target_branch(), Some(BranchId::new(4)));
    }

    /// The display-form predicate agrees with the typed ones on every
    /// branch outcome and every (access, state) at the FPE location of
    /// all 31 benchmarks, and rejects near misses.
    #[test]
    fn root_display_agrees_with_typed_predicates() {
        use stm_machine::events::AccessKind;
        use stm_machine::ids::FileId;
        let benches = crate::all();
        assert_eq!(benches.len(), 31);
        let mut hits = 0;
        for b in &benches {
            let (id, t) = (b.info.id, &b.truth);
            for i in 0..b.program.branches.len() as u32 {
                for outcome in [false, true] {
                    let e = BranchOutcome {
                        branch: BranchId::new(i),
                        outcome,
                    };
                    let root = t.is_root_branch(&e);
                    assert_eq!(t.is_root_display(&e.to_string()), root, "{id} {e}");
                    hits += usize::from(root);
                }
            }
            if let Some(target) = t.target_branch() {
                // A neighbouring branch, and one whose id extends the
                // target's digits.
                for other in [target.index() as u32 + 1, target.index() as u32 * 10 + 1] {
                    let e = BranchOutcome {
                        branch: BranchId::new(other),
                        outcome: true,
                    };
                    assert!(!t.is_root_display(&e.to_string()), "{id} {e}");
                }
            }
            let Some(fpe) = t.fpe else { continue };
            for access in [AccessKind::Load, AccessKind::Store] {
                for state in [
                    CoherenceState::Modified,
                    CoherenceState::Exclusive,
                    CoherenceState::Shared,
                    CoherenceState::Invalid,
                ] {
                    let e = CoherenceEvent {
                        loc: fpe.loc,
                        state,
                        access,
                    };
                    let root = t.is_root_event(&e);
                    assert_eq!(t.is_root_display(&e.to_string()), root, "{id} {e}");
                    hits += usize::from(root);
                    let next_line = SourceLoc::new(fpe.loc.file, fpe.loc.line + 1);
                    let other_file =
                        SourceLoc::new(FileId::new(fpe.loc.file.index() as u32 + 10), fpe.loc.line);
                    for loc in [next_line, other_file] {
                        let e = CoherenceEvent { loc, ..e };
                        assert!(!t.is_root_display(&e.to_string()), "{id} {e}");
                    }
                }
            }
        }
        assert!(hits > 0, "some display names a root cause");
    }
}
