//! One suite benchmark deployed for its diagnosis: LBRA for a sequential
//! bug, LCRA (space-consuming Conf2) for a concurrency bug — the same
//! instrumentation, witness expansion and ranking the Table 6/7 harnesses
//! use, with every thread count pinned by the caller.

use stm_core::diagnose::failure_profile;
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_core::profile::{decode_lbr, decode_lcr};
use stm_core::runner::{Runner, Workload};
use stm_core::transform::{instrument, InstrumentOptions};
use stm_forensics::CausalChain;
use stm_machine::events::LcrConfig;
use stm_machine::interp::Machine;
use stm_machine::report::ProfileData;
use stm_suite::eval::reactive_options;
use stm_suite::{Benchmark, BugClass, PaperMark};

use crate::trace::span;

/// Scheduler seeds scanned per base workload when expanding a
/// concurrency benchmark's witnesses (the Table 7 harness' value).
const SEED_SCAN: u64 = 400;
/// Witnesses of each class a concurrency scan looks for per base.
const SCAN_WITNESSES: usize = 12;

/// A benchmark with its deployed (instrumented, lowered) runner.
#[derive(Debug, Clone)]
pub struct Subject {
    /// The benchmark.
    pub bench: Benchmark,
    /// `true` for LBRA, `false` for LCRA.
    pub lbr: bool,
    /// The reactive-scheme instrumentation applied.
    pub opts: InstrumentOptions,
    /// The runner of the instrumented program.
    pub runner: Runner,
}

/// What one diagnosis produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// 1-based rank of the ground-truth root cause.
    pub rank: Option<usize>,
    /// 1-based chain link holding the ground-truth root cause.
    pub chain_link: Option<usize>,
}

impl Subject {
    /// Instruments and lowers `bench` for its diagnosis (LBRA for
    /// sequential bugs, LCRA for concurrency bugs). `op` tags the spans.
    pub fn deploy(bench: Benchmark, op: u64) -> Subject {
        let lbr = bench.info.bug_class == BugClass::Sequential;
        Subject::deploy_as(bench, lbr, op)
    }

    /// Instruments and lowers `bench` for LBRA (`lbr`) or LCRA.
    pub fn deploy_as(bench: Benchmark, lbr: bool, op: u64) -> Subject {
        let opts = if lbr {
            reactive_options(&bench, true, None)
        } else {
            reactive_options(&bench, false, Some(LcrConfig::SPACE_CONSUMING))
        };
        let program = {
            let _s = span("transform.instrument", op);
            instrument(&bench.program, &opts)
        };
        let machine = {
            let _s = span("machine.new", op);
            Machine::new(program)
        };
        Subject {
            bench,
            lbr,
            opts,
            runner: Runner::new(machine),
        }
    }

    fn kind(&self) -> ProfileKind {
        if self.lbr {
            ProfileKind::Lbr
        } else {
            ProfileKind::Lcr
        }
    }

    /// The benchmark's concrete failing and passing witnesses: its own
    /// lists for a sequential bug, seed scans for a concurrency bug.
    pub fn expand(&self, threads: usize, op: u64) -> (Vec<Workload>, Vec<Workload>) {
        let b = &self.bench;
        if b.info.bug_class == BugClass::Sequential {
            return (b.workloads.failing.clone(), b.workloads.passing.clone());
        }
        let scan = |base: &Workload, fail_n: usize, pass_n: usize| {
            let _s = span("engine.scan", op);
            DiagnosisSession::from_runner(&self.runner)
                .failure(b.truth.spec.clone())
                .workloads(vec![base.clone()])
                .seeds(base.seed..base.seed + SEED_SCAN)
                .failure_profiles(fail_n)
                .success_profiles(pass_n)
                .threads(threads)
                .collect()
                .expect("scan-mode collection cannot fail")
        };
        let (mut failing, mut passing) = (Vec::new(), Vec::new());
        if b.workloads.failing == b.workloads.passing {
            for base in &b.workloads.failing {
                let got = scan(base, SCAN_WITNESSES, SCAN_WITNESSES);
                failing.extend(got.failing_workloads());
                passing.extend(got.passing_workloads());
            }
        } else {
            for base in &b.workloads.failing {
                failing.extend(scan(base, SCAN_WITNESSES, 0).failing_workloads());
            }
            for base in &b.workloads.passing {
                passing.extend(scan(base, 0, SCAN_WITNESSES).passing_workloads());
            }
        }
        (failing, passing)
    }

    /// A witness-mode session over the given witnesses with the paper's
    /// default quotas (10 + 10).
    pub fn collect(
        &self,
        failing: Vec<Workload>,
        passing: Vec<Workload>,
        threads: usize,
        op: u64,
    ) -> CollectedProfiles {
        self.collect_with_quota(failing, passing, threads, 10, op)
    }

    /// A witness-mode session keeping `quota` profiles of each class.
    pub fn collect_with_quota(
        &self,
        failing: Vec<Workload>,
        passing: Vec<Workload>,
        threads: usize,
        quota: usize,
        op: u64,
    ) -> CollectedProfiles {
        let _s = span("engine.session", op);
        DiagnosisSession::from_runner(&self.runner)
            .failure(self.bench.truth.spec.clone())
            .failing(failing)
            .passing(passing)
            .profile_kind(self.kind())
            .failure_profiles(quota)
            .success_profiles(quota)
            .threads(threads)
            .collect()
            .expect("witness-mode collection cannot fail")
    }

    /// Ranks collected profiles and reconstructs the causal chain.
    pub fn rank_and_chain(&self, profiles: &CollectedProfiles, op: u64) -> Diagnosis {
        let b = &self.bench;
        let program = self.runner.machine().program();
        let layout = self.runner.machine().layout();
        let failures = profiles.failure_runs();
        let (rank, chain) = if self.lbr {
            let d = {
                let _s = span("ranking.lbra", op);
                let mut d = profiles.lbra();
                d.exclude_site_guards(program, &b.truth.spec);
                d
            };
            let traces: Vec<_> = {
                let _s = span("profile.decode", op);
                failures
                    .iter()
                    .filter_map(
                        |run| match &failure_profile(&run.report, &b.truth.spec)?.data {
                            ProfileData::Lbr(r) => {
                                Some((run.witness.clone(), decode_lbr(layout, r)))
                            }
                            ProfileData::Lcr(_) => None,
                        },
                    )
                    .collect()
            };
            let _s = span("chain.build", op);
            let chain = CausalChain::from_lbra(
                Some(program),
                &d.ranked,
                &traces,
                d.stats.failure_runs_used,
                d.stats.success_runs_used,
            );
            let rank = b.truth.target_branch().and_then(|t| d.rank_of_branch(t));
            (rank, chain)
        } else {
            let d = {
                let _s = span("ranking.lcra", op);
                profiles.lcra()
            };
            let traces: Vec<_> = {
                let _s = span("profile.decode", op);
                failures
                    .iter()
                    .filter_map(
                        |run| match &failure_profile(&run.report, &b.truth.spec)?.data {
                            ProfileData::Lcr(r) => {
                                Some((run.witness.clone(), decode_lcr(layout, r)))
                            }
                            ProfileData::Lbr(_) => None,
                        },
                    )
                    .collect()
            };
            let _s = span("chain.build", op);
            let chain = CausalChain::from_lcra(
                Some(program),
                &d.ranked,
                &traces,
                d.stats.failure_runs_used,
                d.stats.success_runs_used,
            );
            let rank = b
                .truth
                .fpe
                .and_then(|f| f.conf2_state.and_then(|s| d.rank_of_event(f.loc, s)));
            (rank, chain)
        };
        Diagnosis {
            rank,
            chain_link: chain.and_then(|c| c.link_rank_of(|l| self.is_root_cause(&l.event))),
        }
    }

    /// The full developer-side diagnosis from the raw program: deploy,
    /// expand witnesses, collect, rank, chain.
    pub fn diagnose(bench: Benchmark, threads: usize, op: u64) -> Diagnosis {
        let _s = span("diagnosis", op);
        let subject = Subject::deploy(bench, op);
        let (failing, passing) = subject.expand(threads, op);
        let profiles = subject.collect(failing, passing, threads, op);
        subject.rank_and_chain(&profiles, op)
    }

    /// Whether a chain link's canonical event names the ground-truth root
    /// cause (the target branch for LBRA, the FPE for LCRA).
    pub fn is_root_cause(&self, event: &str) -> bool {
        let truth = &self.bench.truth;
        if self.lbr {
            truth
                .target_branch()
                .is_some_and(|t| event.starts_with(&format!("{t}=")))
        } else {
            truth.fpe.is_some_and(|f| {
                f.conf2_state
                    .is_some_and(|s| event.ends_with(&format!("@{}:{s}", f.loc)))
            })
        }
    }
}

/// The paper's Table 6 (LBRA) or Table 7 (LCRA) rank of `bench`'s root
/// cause; `None` where the paper reports no diagnosis.
pub fn paper_rank(bench: &Benchmark) -> Option<usize> {
    let paper = &bench.info.paper;
    let mark = match bench.info.bug_class {
        BugClass::Sequential => paper.lbra,
        BugClass::Concurrency => paper.lcra,
    };
    match mark {
        Some(PaperMark::Found(n) | PaperMark::Related(n)) => Some(n as usize),
        Some(PaperMark::Miss) | None => None,
    }
}
