//! Shared evaluation drivers: run one benchmark through LBRLOG / LBRA /
//! LCRLOG / LCRA exactly as the paper's experiments do, and report the
//! measured positions/ranks that Tables 6 and 7 tabulate. Every LBRA/LCRA
//! diagnosis of a benchmark goes through one [`Deployment`].

use crate::benchmark::{Benchmark, BugClass};
use stm_core::diagnose::{Diagnosis, LbraDiagnosis, LcraDiagnosis};
use stm_core::engine::{
    CollectedProfiles, DiagnosisSession, ProfileKind, SessionError, MAX_THREADS,
};
use stm_core::logging::{failure_log_for, FailureLog};
use stm_core::runner::{FailureSpec, RunClass, Runner, Workload};
use stm_core::transform::InstrumentOptions;
use stm_hardware::HwConfig;
use stm_machine::events::LcrConfig;
use stm_machine::ir::SourceLoc;

/// How many seeds to scan when expanding concurrency workloads.
const SEED_SCAN: u64 = 400;

/// Worker threads for profile collection: `STM_THREADS` when set to a
/// number, clamped into `1..=`[`MAX_THREADS`], otherwise the machine's
/// available parallelism capped at 8. Thread count never changes results
/// (the engine consumes runs in job order), only wall-clock time.
pub fn default_threads() -> usize {
    std::env::var("STM_THREADS")
        .ok()
        .and_then(|v| threads_from_env(&v))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1)
        })
}

/// An `STM_THREADS` value as a thread count clamped into
/// `1..=MAX_THREADS`; `None` when it is not a number.
fn threads_from_env(value: &str) -> Option<usize> {
    let n = value.trim().parse::<usize>().ok()?;
    Some(n.clamp(1, MAX_THREADS))
}

/// Builds the reactive-scheme instrumentation options implied by a
/// benchmark's ground truth (the failure has been observed once; §5.2).
pub fn reactive_options(
    b: &Benchmark,
    lbr: bool,
    lcr_config: Option<LcrConfig>,
) -> InstrumentOptions {
    let log_sites = match &b.truth.spec {
        FailureSpec::ErrorLogAt(site) => vec![*site],
        _ => Vec::new(),
    };
    let fault_locs = b.truth.fault_locs.clone();
    let mut opts = match lcr_config {
        Some(cfg) => InstrumentOptions::lcra_reactive(cfg, log_sites, fault_locs),
        None => InstrumentOptions::lbra_reactive(log_sites, fault_locs),
    };
    opts.lbr = lbr || lcr_config.is_none();
    opts
}

/// An LBRLOG deployment of the benchmark.
pub fn lbrlog_runner(b: &Benchmark, toggling: bool) -> Runner {
    let opts = if toggling {
        InstrumentOptions::lbrlog()
    } else {
        InstrumentOptions::lbrlog_without_toggling()
    };
    Runner::instrumented(&b.program, &opts)
}

/// An LCRLOG deployment of the benchmark.
pub fn lcrlog_runner(b: &Benchmark, config: LcrConfig) -> Runner {
    Runner::instrumented(&b.program, &InstrumentOptions::lcrlog(config))
}

/// Expands the benchmark's workloads into concrete failing/passing sets.
/// Sequential benchmarks fail deterministically; concurrency benchmarks
/// scan scheduler seeds for reproducing/avoiding interleavings.
pub fn expand_workloads(b: &Benchmark, runner: &Runner) -> (Vec<Workload>, Vec<Workload>) {
    expand(b, runner, default_threads())
}

/// [`expand_workloads`] on `threads` collection threads, which never
/// change the lists.
fn expand(b: &Benchmark, runner: &Runner, threads: usize) -> (Vec<Workload>, Vec<Workload>) {
    match b.info.bug_class {
        BugClass::Sequential => (b.workloads.failing.clone(), b.workloads.passing.clone()),
        BugClass::Concurrency => {
            let scan = |base: &Workload, fail_n: usize, pass_n: usize| {
                DiagnosisSession::from_runner(runner)
                    .failure(b.truth.spec.clone())
                    .workloads(vec![base.clone()])
                    .seeds(base.seed..base.seed + SEED_SCAN)
                    .failure_profiles(fail_n)
                    .success_profiles(pass_n)
                    .threads(threads)
                    .collect()
                    .expect("scan-mode collection cannot fail")
            };
            let mut failing = Vec::new();
            let mut passing = Vec::new();
            if b.workloads.failing == b.workloads.passing {
                // One combined pass per base finds both witness classes
                // and stops as soon as both quotas are met (previously:
                // two full scans over the same seed range).
                for base in &b.workloads.failing {
                    let got = scan(base, 12, 12);
                    failing.extend(got.failing_workloads());
                    passing.extend(got.passing_workloads());
                }
            } else {
                for base in &b.workloads.failing {
                    failing.extend(scan(base, 12, 0).failing_workloads());
                }
                for base in &b.workloads.passing {
                    passing.extend(scan(base, 0, 12).passing_workloads());
                }
            }
            (failing, passing)
        }
    }
}

/// The failure log of the first expanded failing workload that
/// reproduces the target failure — the log a developer reads in a Table
/// 6/7 LBRLOG/LCRLOG cell. `None` when no workload reproduces it, or the
/// first reproduction logged no ring snapshot.
fn first_failure_log(b: &Benchmark, runner: &Runner) -> Option<FailureLog> {
    let (failing, _) = expand_workloads(b, runner);
    let report = failing.iter().find_map(|w| {
        let (report, class) = runner.run_classified(w, &b.truth.spec);
        (class == RunClass::TargetFailure).then_some(report)
    })?;
    failure_log_for(runner, &report, &b.truth.spec)
}

/// Runs the benchmark under LBRLOG and returns the ring position of the
/// target (root-cause or related) branch in the first reproduced failure —
/// a Table 6 "LBRLOG" cell.
pub fn lbrlog_position(b: &Benchmark, toggling: bool) -> Option<usize> {
    let target = b.truth.target_branch()?;
    first_failure_log(b, &lbrlog_runner(b, toggling))?.lbr_position_of_branch(target)
}

/// Like [`lbrlog_position`], but with a custom LBR capacity — the E7
/// capacity-sensitivity experiment (4 entries on Pentium 4, 8 on
/// Pentium M, 16 on Nehalem, §2.1).
pub fn lbrlog_position_with_entries(b: &Benchmark, entries: usize) -> Option<usize> {
    let target = b.truth.target_branch()?;
    let runner = lbrlog_runner(b, true).with_hw_config(HwConfig {
        lbr_entries: entries,
        ..HwConfig::default()
    });
    first_failure_log(b, &runner)?.lbr_position_of_branch(target)
}

/// Measured patch distances (Table 6's "Patch distance" columns):
/// `(failure_site_to_patch, nearest_lbr_branch_to_patch)`; `None` = ∞
/// (different file, or branch not captured).
pub fn patch_distances(b: &Benchmark) -> (Option<u32>, Option<u32>) {
    let dist = |a: SourceLoc, p: SourceLoc| -> Option<u32> {
        (a.file == p.file).then(|| a.line.abs_diff(p.line))
    };
    let fail_dist = b
        .truth
        .patch_locs
        .iter()
        .filter_map(|p| dist(b.truth.failure_site_loc, *p))
        .min();

    let mut lbr_dist: Option<u32> = None;
    if let Some(log) = first_failure_log(b, &lbrlog_runner(b, true)) {
        for e in &log.lbr {
            if let Some(stm_machine::layout::Decoded::SourceBranch { loc, .. }) = e.decoded {
                for p in &b.truth.patch_locs {
                    if let Some(d) = dist(loc, *p) {
                        lbr_dist = Some(lbr_dist.map_or(d, |x| x.min(d)));
                    }
                }
            }
        }
    }
    (fail_dist, lbr_dist)
}

/// A benchmark deployed for its Table 6/7 diagnosis (§5.2), witnesses
/// expanded: LBRA (reactive) for a sequential bug, LCRA (Conf2) for a
/// concurrency bug. Its stages, then `CausalChain::from_profiles`
/// (`stm-forensics`), are DESIGN.md's "One diagnosis pipeline". The
/// witnesses hold under every hardware configuration: a perturbation
/// degrades only the snapshots a diagnosis reads, never execution.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The benchmark.
    pub bench: Benchmark,
    /// The runner of the instrumented program.
    pub runner: Runner,
    /// The ring the diagnosis reads.
    pub kind: ProfileKind,
    /// Failing witnesses.
    pub failing: Vec<Workload>,
    /// Passing witnesses.
    pub passing: Vec<Workload>,
}

impl Deployment {
    /// Instruments `bench` for its diagnosis and expands its witnesses (a
    /// seed scan on `threads` collection threads for a concurrency bug).
    pub fn new(bench: Benchmark, threads: usize) -> Deployment {
        let (kind, lcr_config) = match bench.info.bug_class {
            BugClass::Sequential => (ProfileKind::Lbr, None),
            BugClass::Concurrency => (ProfileKind::Lcr, Some(LcrConfig::SPACE_CONSUMING)),
        };
        let opts = reactive_options(&bench, lcr_config.is_none(), lcr_config);
        let runner = Runner::instrumented(&bench.program, &opts);
        let (failing, passing) = expand(&bench, &runner, threads);
        Deployment {
            bench,
            runner,
            kind,
            failing,
            passing,
        }
    }

    /// A witness-mode session over the witnesses on `threads` collection
    /// threads, to configure further (hardware, interpreter, convergence)
    /// and collect.
    pub fn session(&self, threads: usize) -> DiagnosisSession {
        DiagnosisSession::from_runner(&self.runner)
            .failure(self.bench.truth.spec.clone())
            .failing(self.failing.clone())
            .passing(self.passing.clone())
            .profile_kind(self.kind)
            .threads(threads)
    }

    /// Ranks a collection of this deployment: LBRA with the failure
    /// site's guard branches excluded, or LCRA.
    pub fn rank(&self, profiles: &CollectedProfiles) -> Diagnosis {
        match self.kind {
            ProfileKind::Lbr => {
                let mut d = profiles.lbra();
                d.exclude_site_guards(self.runner.machine().program(), &self.bench.truth.spec);
                Diagnosis::Lbr(d)
            }
            ProfileKind::Lcr => Diagnosis::Lcr(profiles.lcra()),
        }
    }

    /// Collects under `hw` on `threads` collection threads and ranks: the
    /// diagnosis and the collection it read.
    ///
    /// # Errors
    ///
    /// Returns the session's error, e.g. for an invalid `hw`.
    pub fn diagnose(
        &self,
        hw: HwConfig,
        threads: usize,
    ) -> Result<(Diagnosis, CollectedProfiles), SessionError> {
        let profiles = self.session(threads).hw_config(hw).collect()?;
        Ok((self.rank(&profiles), profiles))
    }
}

/// The benchmark's Table 6/7 diagnosis at full signal.
fn diagnose(b: &Benchmark) -> Diagnosis {
    Deployment::new(b.clone(), default_threads())
        .diagnose(HwConfig::default(), default_threads())
        .expect("witness-mode collection cannot fail")
        .0
}

/// Runs LBRA (reactive scheme, 10 + 10 runs) on a sequential bug and
/// returns the diagnosis; panics on a concurrency bug.
pub fn run_lbra(b: &Benchmark) -> LbraDiagnosis {
    match diagnose(b) {
        Diagnosis::Lbr(d) => d,
        Diagnosis::Lcr(_) => panic!("{}: a concurrency bug is diagnosed by LCRA", b.info.id),
    }
}

/// The LBRA rank of the benchmark's target branch — a Table 6 "LBRA" cell.
pub fn lbra_rank(b: &Benchmark) -> Option<usize> {
    let target = b.truth.target_branch()?;
    run_lbra(b).rank_of_branch(target)
}

/// Runs the benchmark under LCRLOG with the given configuration and
/// returns the ring position of the failure-predicting event — a Table 7
/// "LCRLOG" cell.
///
/// For FPEs whose space-saving signal is an *absence* (read-too-early
/// order violations), the reported position is that of the corresponding
/// record in a success-run profile — the entry whose disappearance the
/// developer keys on (§4.2.2).
pub fn lcrlog_position(b: &Benchmark, space_saving: bool) -> Option<usize> {
    let fpe = b.truth.fpe?;
    let config = if space_saving {
        LcrConfig::SPACE_SAVING
    } else {
        LcrConfig::SPACE_CONSUMING
    };
    let state = if space_saving {
        fpe.conf1_state?
    } else {
        fpe.conf2_state?
    };
    if space_saving && fpe.conf1_is_absence {
        // Collect a success-site profile instead.
        let opts = reactive_options(b, false, Some(config));
        let runner = Runner::instrumented(&b.program, &opts);
        let (_, passing) = expand_workloads(b, &runner);
        for w in &passing {
            let (report, class) = runner.run_classified(w, &b.truth.spec);
            if class != RunClass::Success {
                continue;
            }
            let Some(prof) = report
                .profiles_with_role(stm_machine::ir::ProfileRole::SuccessSite)
                .last()
            else {
                continue; // this run never reached the success site
            };
            if let stm_machine::report::ProfileData::Lcr(records) = &prof.data {
                let log = FailureLog {
                    lcr: stm_core::profile::decode_lcr(runner.machine().layout(), records),
                    ..FailureLog::default()
                };
                return log.lcr_position_of_event(fpe.loc, state);
            }
        }
        return None;
    }
    first_failure_log(b, &lcrlog_runner(b, config))?.lcr_position_of_event(fpe.loc, state)
}

/// Runs LCRA (reactive, Conf2, 10 + 10 runs) on a concurrency bug and
/// returns the diagnosis; panics on a sequential bug.
pub fn run_lcra(b: &Benchmark) -> LcraDiagnosis {
    match diagnose(b) {
        Diagnosis::Lcr(d) => d,
        Diagnosis::Lbr(_) => panic!("{}: a sequential bug is diagnosed by LBRA", b.info.id),
    }
}

/// The LCRA rank of the benchmark's FPE — a Table 7 "LCRA" cell.
pub fn lcra_rank(b: &Benchmark) -> Option<usize> {
    let fpe = b.truth.fpe?;
    let state = fpe.conf2_state?;
    run_lcra(b).rank_of_event(fpe.loc, state)
}

/// One measured Table 6 row.
#[derive(Debug, Clone)]
pub struct SeqRow {
    /// Benchmark id.
    pub id: String,
    /// LBRLOG position with toggling.
    pub lbrlog_tog: Option<usize>,
    /// LBRLOG position without toggling.
    pub lbrlog_no_tog: Option<usize>,
    /// LBRA rank of the target branch.
    pub lbra: Option<usize>,
    /// Measured failure-site→patch distance (None = ∞).
    pub dist_failure: Option<u32>,
    /// Measured nearest-LBR-branch→patch distance (None = ∞).
    pub dist_lbr: Option<u32>,
}

/// Evaluates a sequential benchmark end to end (one Table 6 row, minus the
/// CBI and overhead columns, which have their own harnesses).
pub fn evaluate_sequential(b: &Benchmark) -> SeqRow {
    let (dist_failure, dist_lbr) = patch_distances(b);
    SeqRow {
        id: b.info.id.to_string(),
        lbrlog_tog: lbrlog_position(b, true),
        lbrlog_no_tog: lbrlog_position(b, false),
        lbra: lbra_rank(b),
        dist_failure,
        dist_lbr,
    }
}

/// One measured Table 7 row.
#[derive(Debug, Clone)]
pub struct ConcRow {
    /// Benchmark id.
    pub id: String,
    /// LCRLOG position under the space-saving Conf1.
    pub lcrlog_conf1: Option<usize>,
    /// LCRLOG position under the space-consuming Conf2.
    pub lcrlog_conf2: Option<usize>,
    /// LCRA rank of the FPE.
    pub lcra: Option<usize>,
}

/// Evaluates a concurrency benchmark end to end (one Table 7 row).
pub fn evaluate_concurrency(b: &Benchmark) -> ConcRow {
    ConcRow {
        id: b.info.id.to_string(),
        lcrlog_conf1: lcrlog_position(b, true),
        lcrlog_conf2: lcrlog_position(b, false),
        lcra: lcra_rank(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stm_threads_is_clamped_into_the_engine_range() {
        assert_eq!(threads_from_env("0"), Some(1));
        assert_eq!(threads_from_env(" 4\n"), Some(4));
        assert_eq!(threads_from_env("100000"), Some(MAX_THREADS));
        assert_eq!(threads_from_env("abc"), None);
    }

    #[test]
    fn every_concurrency_benchmark_collects_on_fewer_cores() {
        for b in crate::concurrency() {
            let d = Deployment::new(b, 1);
            for num_cores in [1, 2] {
                let hw = HwConfig {
                    num_cores,
                    ..HwConfig::default()
                };
                if let Err(e) = d.session(1).hw_config(hw).collect() {
                    panic!("{} at {num_cores} cores: {e}", d.bench.info.id);
                }
            }
        }
    }
}
