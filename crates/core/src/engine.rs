//! Parallel profile-collection engine behind the [`DiagnosisSession`] API.
//!
//! Every witness run the paper's LBRA/LCRA drivers consume is an
//! independent simulated execution: a (workload, seed) pair replayed on a
//! fresh [`HardwareCtx`](stm_hardware::HardwareCtx), classified against the
//! failure spec, and mined for a ring snapshot. Nothing couples one run to
//! the next, so collection is embarrassingly parallel. `threads(n)` runs
//! the jobs on the calling thread and the first `n − 1` workers of one
//! process-wide pool of `std::thread` workers, with **zero new
//! dependencies**; `threads(1)` is the same loop with no workers.
//!
//! ## Job model
//!
//! A collection is described by a `JobPlan`: a pure function from a
//! logical job index `i` to the `i`-th (workload, seed) pair. Witness-mode
//! plans cycle a workload list, perturbing the scheduler seed on each lap
//! exactly as the sequential driver did; scan-mode plans enumerate
//! `bases × seeds` (the retired `find_workloads` seed scan). Because the plan is a
//! function of the index, jobs need no shared state and can be regenerated
//! anywhere — which is exactly what the claim loop exploits: each of a
//! plan's threads **claims** the lowest unclaimed index from the plan's
//! shared counter (one compare-and-swap), regenerates that job from the
//! plan and runs it. Claims stay at most `max(owed, consumed)` jobs ahead
//! of the consumed prefix — the profiles the quota still owes or, on a
//! scan that keeps missing, the runs the plan has already consumed, so
//! long scans speculate further — and never more than `threads × 16`. A
//! 10-witness phase claims 10 jobs however many threads share them.
//!
//! A witness phase ends when its quota fills, when it reaches `max_runs`,
//! or as soon as no run it could still execute can be kept. Two exact
//! rules decide the last, so they change the run count of a phase that
//! keeps nothing and never which runs are kept:
//!
//! 1. **An unprofilable phase runs no job.** Only two things put a
//!    profile on a run report: a `ProfileLbr`/`ProfileLcr` op, carrying
//!    the op's site and role, and the fault handler of a run that ends in
//!    failure, carrying site `None` and the failure role. A phase keeps a
//!    profile only with its own role, the site
//!    [`failure_profile`]/[`success_profile`] select and the pinned ring.
//!    When the session's (instrumented) program holds no such op and, for
//!    the failure phase of a crash or hang spec, no matching fault-handler
//!    ring, no run can be kept, so the phase executes nothing.
//! 2. **A barren lap on a lap-invariant plan ends the phase.** A later lap
//!    changes only the seed ([`Workload::lap`]), and a run reads its seed
//!    only where the random scheduler chooses between two or more runnable
//!    threads and where the perturbation stream draws. A program without
//!    `Spawn` has one thread, and a no-op perturbation builds no stream,
//!    so every lap replays the first report for report. Once such a phase
//!    has consumed one lap and kept nothing, it stops.
//!
//! Rule 1 is decided once per session, before the phase starts; rule 2 on
//! the ordered prefix, where the quota is checked. So `threads(N)` still
//! equals `threads(1)`.
//!
//! ## The claim loop and the warm pool
//!
//! The paper diagnoses from 10 failing and 10 passing runs (§5.2), so a
//! diagnosis is a short session whose fixed costs, not its runs, set its
//! latency. Waking a worker is one of them, so the caller never waits
//! for a worker to wake:
//!
//! * The caller is one of a session's `n` threads. It claims job 0 before
//!   any worker gets the plan, so a plan it finishes before a worker
//!   wakes never waits on the pool. It consumes each of its own runs as
//!   soon as every lower index is consumed, polls the workers' answers
//!   between its own jobs, and blocks only when every job below the
//!   bound is claimed and the lowest unconsumed one still runs on a
//!   worker.
//! * A pool worker gets one hand-off per plan: an `Arc` of the plan share
//!   (the plan, the executor and the claim counters) and the answer
//!   channel. It registers on the plan, claims and runs jobs until none
//!   below the bound is left, answering each run as it finishes, then
//!   flushes its telemetry spans, deregisters and says so. It gets
//!   another hand-off only if claimable jobs reappear after it left. A
//!   worker that wakes late finds fewer jobs left.
//! * To close a plan (the quota fills, a stop rule ends the phase, or
//!   the plan runs out), the caller zeroes the bound and then waits only
//!   while a worker is registered, so every `engine.job` span ends inside
//!   its `engine.collect`. A worker that wakes after that claims nothing
//!   and is not waited for.
//! * Workers are spawned on first use and never exit. The pool only
//!   grows, to the widest session seen minus one, and each worker has its
//!   own queue, so a session at or below that width spawns nothing and a
//!   `threads(n)` session runs on exactly `n` threads. A session may ask
//!   for at most [`MAX_THREADS`]; a wider request, or a spawn the OS
//!   refuses, is a typed [`SessionError`], never a panic.
//! * Workers outlive phases and sessions, so each keeps its thread-local
//!   run cache (hardware context and interpreter scratch, see
//!   `crate::runner`) warm. The executor holds a [`Runner`] whose machine
//!   is itself shared: a hand-off copies no program.
//!
//! ## Merge determinism
//!
//! Threads finish out of order, but the caller **consumes results
//! strictly in job-index order**: completed jobs park in a `BTreeMap`
//! until every lower-indexed job has been consumed. Quota checks (how
//! many failure / success profiles are still needed) and the early-stop
//! decision happen only at consumption time, on that ordered prefix. Speculatively executed
//! jobs past the stopping point are discarded. The consumed prefix is
//! therefore *identical* to what a sequential loop would have executed —
//! same witnesses, same profile order, same `DiagnosisStats` — so
//! `threads(N)` is bit-for-bit equal to `threads(1)`.
//!
//! ## Thread-safety argument
//!
//! All threads of a plan share one executor around one [`Runner`]
//! (machine + configs, immutable plain data — compile-time `Send + Sync`
//! assertions live in the machine and hardware crates), and each runs on
//! its own thread-local hardware context and interpreter scratch (reset to
//! the exactly-fresh state between runs — see `crate::runner`). The only
//! shared mutable state is the claim loop's three atomic counters: the
//! next unclaimed index, the claim bound and the number of registered
//! workers. A claim's compare-and-swap gives each index to exactly one
//! thread, and runs travel to the caller over a channel. A run that
//! panics, on the caller or on a worker, is caught with `catch_unwind`
//! and surfaces as [`SessionError::WorkerPanicked`] instead of a hang; a
//! worker survives it and serves its next hand-off.

use crate::converge::{ConvergenceMonitor, ConvergenceReport, StabilityPolicy};
use crate::diagnose::{failure_profile, profile_site, success_profile, DiagnosisStats, Quotas};
use crate::runner::{FailureSpec, RunClass, Runner, Workload};
use crate::transform::{instrument, InstrumentOptions};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use stm_hardware::HwConfig;
use stm_machine::events::HwCtlOp;
use stm_machine::interp::{Machine, RunConfig};
use stm_machine::ir::{Instr, ProfileRole, Program};
use stm_machine::report::{ProfileData, ProfileEvent, RunReport};

/// Which hardware ring a session collects, and therefore which profile
/// data a run must carry to count against the collection quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// Last Branch Record snapshots (LBRA, §4.1).
    Lbr,
    /// Last Cache-coherence Record snapshots (LCRA, §4.2).
    Lcr,
}

/// The widest collection session: `threads(n)` above it is rejected before
/// any run, since the pool starts one OS thread per requested thread
/// beyond the caller. Eight times the host default's cap
/// (`stm_suite::eval::default_threads`); the thread count never changes
/// results.
pub const MAX_THREADS: usize = 64;

/// Why a [`DiagnosisSession::collect`] call could not produce profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No [`FailureSpec`] was given; nothing can be classified.
    MissingFailureSpec,
    /// Both witness lists (`failing`/`passing`) and scan bases
    /// (`workloads`) were set; a session is one or the other.
    ConflictingWorkloads,
    /// The hardware configuration is contradictory — a zero-capacity
    /// ring, or a malformed perturbation setting. Surfaced before any run
    /// executes, so a bad sweep setting fails fast with the reason rather
    /// than panicking inside a worker.
    InvalidHardware(stm_hardware::HwConfigError),
    /// `threads(n)` asked for more than [`MAX_THREADS`] threads. Surfaced
    /// before any run executes or any worker starts.
    TooManyThreads {
        /// The requested thread count.
        requested: usize,
    },
    /// The OS refused to start a collection worker.
    SpawnFailed {
        /// The OS error.
        message: String,
    },
    /// A run panicked, on a pool worker or on the calling thread. The
    /// engine reports this instead of hanging or unwinding across the
    /// pool.
    WorkerPanicked {
        /// Logical index of the job whose run panicked.
        job: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingFailureSpec => {
                write!(f, "diagnosis session has no failure spec")
            }
            SessionError::ConflictingWorkloads => write!(
                f,
                "session mixes witness lists (failing/passing) with scan bases (workloads)"
            ),
            SessionError::WorkerPanicked { job, message } => {
                write!(f, "collection worker panicked on job {job}: {message}")
            }
            SessionError::InvalidHardware(e) => {
                write!(f, "invalid hardware configuration: {e}")
            }
            SessionError::TooManyThreads { requested } => write!(
                f,
                "{requested} collection threads requested; at most {MAX_THREADS} are allowed"
            ),
            SessionError::SpawnFailed { message } => {
                write!(f, "could not start a collection worker: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// One profile-bearing run kept by a collection: the witness id the
/// forensic report names, the exact (seed-perturbed) workload that was
/// replayed, and its full run report (ring snapshots included).
#[derive(Debug, Clone)]
pub struct CollectedRun {
    /// Witness id, `fail:w<idx>:seed<seed>` / `pass:w<idx>:seed<seed>`.
    pub witness: String,
    /// The workload exactly as replayed (seed already perturbed).
    pub workload: Workload,
    /// The run's report, carrying the ring-snapshot profiles.
    pub report: RunReport,
}

/// The output of [`DiagnosisSession::collect`]: the kept failure/success
/// runs in deterministic consumption order, plus everything needed to
/// rank them ([`CollectedProfiles::lbra`] / [`CollectedProfiles::lcra`])
/// or flight-record them into forensics dossiers.
#[derive(Debug)]
pub struct CollectedProfiles {
    pub(crate) runner: Runner,
    pub(crate) spec: FailureSpec,
    pub(crate) kind: Option<ProfileKind>,
    pub(crate) failures: Vec<CollectedRun>,
    pub(crate) successes: Vec<CollectedRun>,
    pub(crate) stats: DiagnosisStats,
    pub(crate) convergence: Option<ConvergenceReport>,
}

impl CollectedProfiles {
    /// The runner the profiles were collected with: the machine every
    /// worker ran, shared, and the session's configs.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The failure being diagnosed.
    pub fn spec(&self) -> &FailureSpec {
        &self.spec
    }

    /// The ring kind the quota counted, when one was set.
    pub fn kind(&self) -> Option<ProfileKind> {
        self.kind
    }

    /// Run accounting: identical to the sequential driver's stats.
    pub fn stats(&self) -> &DiagnosisStats {
        &self.stats
    }

    /// Failure-run witnesses, in consumption (= sequential) order.
    pub fn failure_runs(&self) -> &[CollectedRun] {
        &self.failures
    }

    /// Success-run witnesses, in consumption (= sequential) order.
    pub fn success_runs(&self) -> &[CollectedRun] {
        &self.successes
    }

    /// The workloads (seeds applied) of the kept failure runs — what a
    /// scan-mode session hands back as failing witnesses.
    pub fn failing_workloads(&self) -> Vec<Workload> {
        self.failures.iter().map(|r| r.workload.clone()).collect()
    }

    /// The workloads (seeds applied) of the kept success runs.
    pub fn passing_workloads(&self) -> Vec<Workload> {
        self.successes.iter().map(|r| r.workload.clone()).collect()
    }

    /// The convergence report, when the session was built with
    /// [`DiagnosisSession::converge`]: verdict, churn/streak history,
    /// and the final incremental ranking (bit-identical to the batch
    /// model over the same witnesses). The score trajectories are served
    /// only by the `/diagnosis` document.
    pub fn convergence(&self) -> Option<&ConvergenceReport> {
        self.convergence.as_ref()
    }
}

/// Builder for one diagnosis: what to run (witness lists or a seed scan),
/// what failure to look for, and how to run it (quotas, configs,
/// parallelism). Ends with [`DiagnosisSession::collect`].
///
/// ```
/// use stm_core::engine::DiagnosisSession;
/// use stm_core::prelude::*;
/// # use stm_machine::builder::ProgramBuilder;
/// # use stm_machine::ir::BinOp;
/// # let mut pb = ProgramBuilder::new("demo");
/// # let main = pb.declare_function("main");
/// # let mut f = pb.build_function(main, "demo.c");
/// # let err = f.new_block();
/// # let ok = f.new_block();
/// # let x = f.read_input(0);
/// # let neg = f.bin(BinOp::Lt, x, 0);
/// # f.br(neg, err, ok);
/// # f.set_block(err);
/// # let site = f.log_error("negative input");
/// # f.exit(1);
/// # f.ret(None);
/// # f.set_block(ok);
/// # f.output(x);
/// # f.ret(None);
/// # f.finish();
/// # let program = pb.finish(main);
/// let profiles = DiagnosisSession::new(&program)
///     .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
///     .failure(FailureSpec::ErrorLogAt(site))
///     .failing(vec![Workload::new(vec![-1])])
///     .passing(vec![Workload::new(vec![1])])
///     .threads(2)
///     .collect()?;
/// let diagnosis = profiles.lbra();
/// assert_eq!(diagnosis.top().expect("a predictor").score, 1.0);
/// # Ok::<(), stm_core::engine::SessionError>(())
/// ```
#[derive(Debug)]
pub struct DiagnosisSession {
    machine: Arc<Machine>,
    spec: Option<FailureSpec>,
    failing: Vec<Workload>,
    passing: Vec<Workload>,
    bases: Vec<Workload>,
    seeds: Option<Range<u64>>,
    kind: Option<ProfileKind>,
    /// The paper diagnoses from 10 failure occurrences (§5.2; §7.2
    /// contrasts this diagnosis latency with CBI's ~1000).
    quotas: Quotas,
    /// The caller plus `threads − 1` pool workers; `0` asks the OS. Runs
    /// are independent production executions (§2's per-run short-term
    /// memory snapshots), so sharding them changes no result.
    threads: usize,
    run: RunConfig,
    hw: HwConfig,
    policy: Option<StabilityPolicy>,
}

impl DiagnosisSession {
    /// Starts a session on `program` as-is (assumed already instrumented;
    /// call [`DiagnosisSession::instrument`] otherwise).
    pub fn new(program: &Program) -> Self {
        DiagnosisSession::with_machine(Arc::new(Machine::new(program.clone())))
    }

    fn with_machine(machine: Arc<Machine>) -> Self {
        DiagnosisSession {
            machine,
            spec: None,
            failing: Vec::new(),
            passing: Vec::new(),
            bases: Vec::new(),
            seeds: None,
            kind: None,
            quotas: Quotas::default(),
            threads: 1,
            run: RunConfig::default(),
            hw: HwConfig::default(),
            policy: None,
        }
    }

    /// Starts a session with a runner's machine and both of its configs —
    /// the migration path for callers that already hold a [`Runner`]. The
    /// session shares the runner's machine rather than copying it.
    pub fn from_runner(runner: &Runner) -> Self {
        let mut s = DiagnosisSession::with_machine(Arc::clone(runner.shared_machine()));
        s.run = runner.run_config().clone();
        s.hw = *runner.hw_config();
        s
    }

    /// Applies the §5.1 source-to-source instrumentation to the session's
    /// program and infers the profile kind from it (LCR wins when both
    /// rings are deployed, matching LCRA's use of the richer ring).
    pub fn instrument(mut self, opts: &InstrumentOptions) -> Self {
        self.machine = Arc::new(Machine::new(instrument(self.machine.program(), opts)));
        self.kind = if opts.lcr {
            Some(ProfileKind::Lcr)
        } else if opts.lbr {
            Some(ProfileKind::Lbr)
        } else {
            None
        };
        self
    }

    /// Sets the failure being diagnosed. Required.
    pub fn failure(mut self, spec: FailureSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Witness mode: workloads known to reproduce the failure, cycled
    /// (with per-lap seed perturbation) until the failure quota is met.
    pub fn failing(mut self, workloads: Vec<Workload>) -> Self {
        self.failing = workloads;
        self
    }

    /// Witness mode: workloads known to succeed, cycled until the
    /// success quota is met.
    pub fn passing(mut self, workloads: Vec<Workload>) -> Self {
        self.passing = workloads;
        self
    }

    /// Scan mode: base workloads whose scheduler seeds are enumerated
    /// (see [`DiagnosisSession::seeds`]) to *find* failing and passing
    /// interleavings — the redesign of the retired `find_workloads`. Mutually
    /// exclusive with the witness lists.
    pub fn workloads(mut self, bases: Vec<Workload>) -> Self {
        self.bases = bases;
        self
    }

    /// Scan mode: the seed range to enumerate per base workload
    /// (default `0..max_runs`).
    pub fn seeds(mut self, seeds: Range<u64>) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Sets the number of threads that run jobs: the calling thread plus
    /// `n − 1` pool workers. `0` = available parallelism, capped at
    /// [`MAX_THREADS`]; an explicit count above it makes
    /// [`collect`](DiagnosisSession::collect) fail with
    /// [`SessionError::TooManyThreads`].
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the failure-profile quota (scan mode: failing witnesses to
    /// find).
    pub fn failure_profiles(mut self, n: usize) -> Self {
        self.quotas.failure_profiles = n;
        self
    }

    /// Sets the success-profile quota (scan mode: passing witnesses to
    /// find).
    pub fn success_profiles(mut self, n: usize) -> Self {
        self.quotas.success_profiles = n;
        self
    }

    /// Sets the per-phase run cap. A witness phase that provably cannot
    /// keep a run stops earlier; see [`Quotas::max_runs`].
    pub fn max_runs(mut self, n: usize) -> Self {
        self.quotas.max_runs = n;
        self
    }

    /// Sets the interpreter configuration.
    pub fn run_config(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Sets the simulated-hardware configuration.
    pub fn hw_config(mut self, hw: HwConfig) -> Self {
        self.hw = hw;
        self
    }

    /// Pins the ring kind a witness run must carry to count against the
    /// quota. Witness mode without a kind accepts any profile at the
    /// failure/success site.
    pub fn profile_kind(mut self, kind: ProfileKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Attaches a convergence monitor: the session feeds every consumed
    /// witness into a live ranking
    /// ([`SnapshotIngest`](crate::converge::SnapshotIngest)), publishes
    /// the `engine.rank_churn` / `engine.top1_stable_for` /
    /// `engine.witnesses_ingested` gauges and the `/diagnosis` document
    /// (live, then terminal), and — when `policy.stop` is set — stops
    /// collecting as soon as the top-1 predictor has been stable for
    /// [`STABLE_FOR`](crate::converge::STABLE_FOR) consecutive witnesses
    /// (both class floors permitting). The stop decision is taken at the
    /// strict-ordered consumption seam, so an early-stopped session is
    /// still bit-identical across thread counts. The resulting
    /// [`ConvergenceReport`] rides on
    /// [`CollectedProfiles::convergence`].
    pub fn converge(mut self, policy: StabilityPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Runs the collection: replays jobs (on pool workers beside the
    /// calling thread when `threads > 1`), classifies each run, and keeps
    /// the deterministic prefix that fills the profile quotas.
    ///
    /// Besides the result, the session reports its outcome to the
    /// observability layer: the `engine.failure_streak` gauge counts
    /// consecutive sessions that errored or ended short of their
    /// profile quota (perturbation loss — the `CtlResponse::Lost`
    /// symptom — or a witness phase that could keep nothing), and
    /// structured `profile.lost`, `session.complete` and `session.error`
    /// events record what happened (see `stm_telemetry::log`).
    pub fn collect(self) -> Result<CollectedProfiles, SessionError> {
        let result = self.collect_inner();
        // The streak gauge must keep this single call site: snapshots
        // sum same-name gauges across call sites, so a `set(0)` here
        // could not clear a contribution added elsewhere.
        let streak = stm_telemetry::gauge!("engine.failure_streak");
        match &result {
            Ok((profiles, loss)) => {
                if loss.quota_met() {
                    streak.set(0);
                } else {
                    streak.add(1);
                }
                if stm_telemetry::log::would_log(stm_telemetry::log::Level::Info) {
                    if loss.missing_profiles > 0 || !loss.quota_met() {
                        stm_telemetry::log::info(
                            "engine",
                            "profile.lost",
                            vec![
                                ("missing_profiles", loss.missing_profiles.to_string()),
                                ("quota_shortfall", loss.shortfall.to_string()),
                                ("barren_phases", loss.barren_phases()),
                            ],
                        );
                    }
                    stm_telemetry::log::info(
                        "engine",
                        "session.complete",
                        vec![
                            ("runs", profiles.stats.total_runs.to_string()),
                            ("failures", profiles.failures.len().to_string()),
                            ("successes", profiles.successes.len().to_string()),
                            ("quota_met", loss.quota_met().to_string()),
                        ],
                    );
                }
            }
            Err(e) => {
                streak.add(1);
                stm_telemetry::log::error(
                    "engine",
                    "session.error",
                    vec![("error", format!("{e:?}"))],
                );
            }
        }
        result.map(|(profiles, _)| profiles)
    }

    fn collect_inner(self) -> Result<(CollectedProfiles, SessionLoss), SessionError> {
        let spec = self.spec.ok_or(SessionError::MissingFailureSpec)?;
        self.hw.validate().map_err(SessionError::InvalidHardware)?;
        let threads = resolve_threads(self.threads)?;
        let scan = !self.bases.is_empty();
        if scan && (!self.failing.is_empty() || !self.passing.is_empty()) {
            return Err(SessionError::ConflictingWorkloads);
        }
        let runner = Runner::new(self.machine)
            .with_run_config(self.run.clone())
            .with_hw_config(self.hw);
        let _span = stm_telemetry::span_cat("engine.collect", "engine");

        let mut sink = Sink::default();
        let exec: Arc<Exec> = {
            let (r, spec) = (runner.clone(), spec.clone());
            Arc::new(move |job: &Job| r.run_classified(&job.workload, &spec))
        };
        // The monitor ingests witnesses at the ordered consumption seam,
        // one incremental ranking update per kept run; it persists across
        // both witness phases so the success phase continues the failure
        // phase's statistics.
        let mut monitor = self
            .policy
            .map(|p| ConvergenceMonitor::new(runner.machine().layout(), spec.clone(), p));
        let mut loss = SessionLoss::default();
        if scan {
            let seeds = self.seeds.unwrap_or(0..self.quotas.max_runs as u64);
            let plan = JobPlan::scan(self.bases, seeds);
            let mut quota = Quota::scan(self.quotas.failure_profiles, self.quotas.success_profiles);
            run_plan(
                plan,
                threads,
                &mut quota,
                &spec,
                &mut sink,
                &mut monitor,
                &exec,
            )?;
            loss.absorb(&quota);
        } else {
            // The module docs' stop rules, decided once from the program
            // the workers run.
            let program = runner.machine().program();
            let lap_invariant = self.hw.perturb.is_noop()
                && !instrs(program).any(|i| matches!(i, Instr::Spawn { .. }));
            let barren_after = |role, witnesses: &[Workload]| {
                if !phase_profilable(program, &spec, role, self.kind) {
                    Some(0)
                } else {
                    (lap_invariant && !witnesses.is_empty()).then_some(witnesses.len() as u64)
                }
            };
            let mut quota = Quota::witness_fail(
                self.quotas.failure_profiles,
                self.kind,
                barren_after(ProfileRole::FailureSite, &self.failing),
            );
            let plan = JobPlan::cycle(self.failing, self.quotas.max_runs as u64);
            run_plan(
                plan,
                threads,
                &mut quota,
                &spec,
                &mut sink,
                &mut monitor,
                &exec,
            )?;
            loss.absorb(&quota);
            let mut quota = Quota::witness_pass(
                self.quotas.success_profiles,
                self.kind,
                barren_after(ProfileRole::SuccessSite, &self.passing),
            );
            let plan = JobPlan::cycle(self.passing, self.quotas.max_runs as u64);
            run_plan(
                plan,
                threads,
                &mut quota,
                &spec,
                &mut sink,
                &mut monitor,
                &exec,
            )?;
            loss.absorb(&quota);
        }
        // A stability-policy stop leaves the quota legitimately unfilled;
        // record that before finishing so the streak accounting treats
        // the session as a success, not a shortfall.
        loss.converged_early = monitor.as_ref().is_some_and(|m| m.should_stop());
        let convergence = monitor.and_then(|m| m.finish());
        Ok((
            CollectedProfiles {
                runner,
                spec,
                kind: self.kind,
                failures: sink.failures,
                successes: sink.successes,
                stats: sink.stats,
                convergence,
            },
            loss,
        ))
    }
}

/// What a session failed to collect: runs whose class matched the quota
/// but whose profile was lost (the perturbation layer's
/// `CtlResponse::Lost` symptom), the final quota shortfall, and the
/// witness phases that could keep nothing at all.
#[derive(Debug, Default, Clone)]
struct SessionLoss {
    /// Quota-class runs discarded for lacking the required profile.
    missing_profiles: usize,
    /// Profiles still owed when the plans were exhausted.
    shortfall: usize,
    /// The stability policy stopped collection before the quota; the
    /// remaining shortfall is by design, not a signal problem.
    converged_early: bool,
    /// Witness phases (`fail`, `pass`) a stop rule ended with nothing
    /// kept: the instrumentation, spec or witness list cannot yield a
    /// profile, so no run budget would fill them.
    barren: Vec<&'static str>,
}

impl SessionLoss {
    fn absorb(&mut self, quota: &Quota) {
        if quota.barren() {
            self.barren.push(quota.phase());
        }
        self.missing_profiles += quota.missing;
        // A `usize::MAX` quota means "keep everything the plan
        // produces", not a target the session owes — an exhaustive
        // scan is never short.
        let owed = |want: usize, got: usize| {
            if want == usize::MAX {
                0
            } else {
                want.saturating_sub(got)
            }
        };
        self.shortfall = self
            .shortfall
            .saturating_add(owed(quota.want_fail, quota.got_fail))
            .saturating_add(owed(quota.want_pass, quota.got_pass));
    }

    /// A session that filled every quota keeps the failure streak at
    /// zero even if some runs lost profiles along the way — it
    /// compensated with extra runs, which is normal operation under
    /// perturbation. Only an unfilled quota (or an error) is a failed
    /// cycle.
    fn quota_met(&self) -> bool {
        self.shortfall == 0 || self.converged_early
    }

    /// The `barren_phases` field of `profile.lost`: `fail`, `pass`,
    /// `fail,pass` or `none`.
    fn barren_phases(&self) -> String {
        if self.barren.is_empty() {
            "none".to_string()
        } else {
            self.barren.join(",")
        }
    }
}

/// `0` = ask the OS, capped at [`MAX_THREADS`]; otherwise the explicit
/// count, which must not exceed it.
fn resolve_threads(threads: usize) -> Result<usize, SessionError> {
    match threads {
        0 => Ok(std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_THREADS)),
        n if n > MAX_THREADS => Err(SessionError::TooManyThreads { requested: n }),
        n => Ok(n),
    }
}

/// One replay: its logical index (the determinism key), which workload it
/// came from (for witness naming), and the exact workload to run.
///
/// `flow` is telemetry plumbing stamped when a pooled plan's job is
/// claimed: the flow id ties the claim (`engine.enqueue`), execution and
/// ordered consumption into one Chrome-trace causal chain. It stays zero
/// when collection is off or the plan has no workers, and never
/// influences execution.
#[derive(Debug, Clone)]
struct Job {
    index: u64,
    widx: usize,
    workload: Workload,
    flow: u64,
}

/// A pure index → job function; see the module docs.
#[derive(Debug)]
enum JobPlan {
    /// Witness mode: cycle the list, perturbing the seed each lap.
    Cycle {
        workloads: Vec<Workload>,
        limit: u64,
    },
    /// Scan mode: enumerate `bases × seeds`, base-major.
    Scan {
        bases: Vec<Workload>,
        start: u64,
        per_base: u64,
    },
}

impl JobPlan {
    fn cycle(workloads: Vec<Workload>, limit: u64) -> JobPlan {
        JobPlan::Cycle { workloads, limit }
    }

    fn scan(bases: Vec<Workload>, seeds: Range<u64>) -> JobPlan {
        JobPlan::Scan {
            per_base: seeds.end.saturating_sub(seeds.start),
            start: seeds.start,
            bases,
        }
    }

    fn len(&self) -> u64 {
        match self {
            JobPlan::Cycle { workloads, limit } => {
                if workloads.is_empty() {
                    0
                } else {
                    *limit
                }
            }
            JobPlan::Scan {
                bases, per_base, ..
            } => bases.len() as u64 * per_base,
        }
    }

    fn job_at(&self, index: u64) -> Job {
        match self {
            JobPlan::Cycle { workloads, .. } => {
                let n = workloads.len() as u64;
                let widx = (index % n) as usize;
                Job {
                    index,
                    widx,
                    workload: workloads[widx].lap(index / n),
                    flow: 0,
                }
            }
            JobPlan::Scan {
                bases,
                start,
                per_base,
            } => {
                let widx = (index / per_base) as usize;
                let workload = bases[widx].clone().with_seed(start + index % per_base);
                Job {
                    index,
                    widx,
                    workload,
                    flow: 0,
                }
            }
        }
    }
}

/// What a consumed run was kept as.
enum Pick {
    Failure,
    Success,
}

/// How the consumed prefix decides which runs to keep and when to stop.
struct Quota {
    mode: QuotaMode,
    want_fail: usize,
    want_pass: usize,
    got_fail: usize,
    got_pass: usize,
    kind: Option<ProfileKind>,
    /// Runs whose class matched an unfilled quota but whose profile was
    /// absent or of the wrong ring — the observable trace of
    /// perturbation loss (`CtlResponse::Lost`).
    missing: usize,
    /// Runs consumed so far.
    runs: u64,
    /// Witness mode: after this many consumed runs with none kept, no
    /// later run can be kept either — `0` when the program cannot profile
    /// the phase (rule 1 of the module docs), one lap on a lap-invariant
    /// plan (rule 2), `None` when neither rule applies.
    barren_after: Option<u64>,
}

enum QuotaMode {
    /// Witness fail phase: keep target failures that carry a
    /// failure-site profile (of the right ring, when pinned).
    WitnessFail,
    /// Witness pass phase: keep successes with a success-site profile.
    WitnessPass,
    /// Seed scan: keep by class alone (`find_workloads` semantics).
    Scan,
}

impl Quota {
    fn new(
        mode: QuotaMode,
        want_fail: usize,
        want_pass: usize,
        kind: Option<ProfileKind>,
        barren_after: Option<u64>,
    ) -> Quota {
        Quota {
            mode,
            want_fail,
            want_pass,
            got_fail: 0,
            got_pass: 0,
            kind,
            missing: 0,
            runs: 0,
            barren_after,
        }
    }

    fn witness_fail(want: usize, kind: Option<ProfileKind>, barren_after: Option<u64>) -> Quota {
        Quota::new(QuotaMode::WitnessFail, want, 0, kind, barren_after)
    }

    fn witness_pass(want: usize, kind: Option<ProfileKind>, barren_after: Option<u64>) -> Quota {
        Quota::new(QuotaMode::WitnessPass, 0, want, kind, barren_after)
    }

    fn scan(want_fail: usize, want_pass: usize) -> Quota {
        Quota::new(QuotaMode::Scan, want_fail, want_pass, None, None)
    }

    /// The phase needs no further run: its quota is filled, or no run it
    /// could still execute can be kept.
    fn done(&self) -> bool {
        self.filled() || self.barren()
    }

    fn filled(&self) -> bool {
        self.got_fail >= self.want_fail && self.got_pass >= self.want_pass
    }

    /// A stop rule ended the phase short, with nothing kept.
    fn barren(&self) -> bool {
        !self.filled()
            && self.got_fail + self.got_pass == 0
            && self.barren_after.is_some_and(|n| self.runs >= n)
    }

    /// The phase's name in `profile.lost`.
    fn phase(&self) -> &'static str {
        match self.mode {
            QuotaMode::WitnessFail => "fail",
            QuotaMode::WitnessPass => "pass",
            QuotaMode::Scan => "scan",
        }
    }

    /// Profiles still owed; an unbounded (`usize::MAX`) quota owes
    /// `usize::MAX`.
    fn owed(&self) -> usize {
        self.want_fail
            .saturating_sub(self.got_fail)
            .saturating_add(self.want_pass.saturating_sub(self.got_pass))
    }

    fn consider(
        &mut self,
        class: RunClass,
        report: &RunReport,
        spec: &FailureSpec,
    ) -> Option<Pick> {
        self.runs += 1;
        match (&self.mode, class) {
            (QuotaMode::WitnessFail, RunClass::TargetFailure) if self.got_fail < self.want_fail => {
                if profile_matches(failure_profile(report, spec), self.kind) {
                    self.got_fail += 1;
                    Some(Pick::Failure)
                } else {
                    self.missing += 1;
                    None
                }
            }
            (QuotaMode::WitnessPass, RunClass::Success) if self.got_pass < self.want_pass => {
                if profile_matches(success_profile(report, spec), self.kind) {
                    self.got_pass += 1;
                    Some(Pick::Success)
                } else {
                    self.missing += 1;
                    None
                }
            }
            (QuotaMode::Scan, RunClass::TargetFailure) if self.got_fail < self.want_fail => {
                self.got_fail += 1;
                Some(Pick::Failure)
            }
            (QuotaMode::Scan, RunClass::Success) if self.got_pass < self.want_pass => {
                self.got_pass += 1;
                Some(Pick::Success)
            }
            _ => None,
        }
    }
}

/// Does the report carry the profile the quota needs, of the right ring?
fn profile_matches(profile: Option<&ProfileEvent>, kind: Option<ProfileKind>) -> bool {
    match profile {
        None => false,
        Some(p) => match kind {
            None => true,
            Some(ProfileKind::Lbr) => matches!(p.data, ProfileData::Lbr(_)),
            Some(ProfileKind::Lcr) => matches!(p.data, ProfileData::Lcr(_)),
        },
    }
}

/// Every instruction of `program`.
fn instrs(program: &Program) -> impl Iterator<Item = &Instr> {
    program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.stmts)
        .map(|s| &s.instr)
}

/// Rule 1 of the module docs: can a run of `program` ever carry a profile
/// the `role` phase keeps for `spec`, of the pinned ring?
fn phase_profilable(
    program: &Program,
    spec: &FailureSpec,
    role: ProfileRole,
    kind: Option<ProfileKind>,
) -> bool {
    let site = profile_site(spec);
    let ring = |lbr: bool| kind.is_none_or(|k| (k == ProfileKind::Lbr) == lbr);
    let fault = program.fault_profile;
    let fault_handler = role == ProfileRole::FailureSite
        && site.is_none()
        && spec.target_ends_run()
        && (fault.lbr && ring(true) || fault.lcr && ring(false));
    fault_handler
        || instrs(program).any(|i| match *i {
            Instr::HwCtl {
                op: op @ (HwCtlOp::ProfileLbr | HwCtlOp::ProfileLcr),
                site: at,
                role: r,
            } => r == role && at == site && ring(op == HwCtlOp::ProfileLbr),
            _ => false,
        })
}

/// Replays one job and classifies the run. One executor serves every
/// thread of a session, so it must be `Sync`; tests inject hostile ones
/// (e.g. a panicking run) without a real machine.
type Exec = dyn Fn(&Job) -> (RunReport, RunClass) + Send + Sync;

/// Each thread's share of the claim bound: claims run at most
/// `threads × MAX_AHEAD` jobs ahead of the consumed prefix.
const MAX_AHEAD: u64 = 16;

/// One plan as its threads share it: the plan, its executor and the
/// claim loop's counters.
///
/// Every counter access is `SeqCst`, because closing a plan relies on a
/// total order: the caller zeroes `bound` and then reads `active`, and a
/// worker raises `active` and then reads `bound`. Either the caller sees
/// the worker registered and waits for it, or the worker sees the zero
/// bound and claims nothing.
struct PlanShare {
    plan: JobPlan,
    exec: Arc<Exec>,
    /// Pool workers take part: claims stamp flows and keep the queue
    /// gauges.
    pooled: bool,
    /// The lowest unclaimed job index.
    next: AtomicU64,
    /// Jobs below it may be claimed. The caller raises it as it consumes
    /// and zeroes it to close the plan.
    bound: AtomicU64,
    /// Pool workers registered on the plan.
    active: AtomicUsize,
}

impl PlanShare {
    /// Claims the lowest unclaimed job below the bound: one
    /// compare-and-swap, retried only when another thread claimed first.
    fn claim(&self) -> Option<Job> {
        let below_bound = |n: u64| (n < self.bound.load(Ordering::SeqCst)).then_some(n + 1);
        let index = self
            .next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, below_bound)
            .ok()?;
        let mut job = self.plan.job_at(index);
        if self.pooled {
            stm_telemetry::counter!("engine.jobs").incr();
            stm_telemetry::gauge!("engine.queue_depth").add(1);
            if stm_telemetry::enabled() {
                // The claim starts the job's causal chain: claim → execution
                // → ordered consumption share one flow id.
                job.flow = stm_telemetry::new_flow_id();
                if stm_telemetry::log::would_log(stm_telemetry::log::Level::Debug) {
                    stm_telemetry::log::emit(
                        stm_telemetry::log::Level::Debug,
                        "engine",
                        "job.enqueue",
                        job.flow,
                        vec![
                            ("job", job.index.to_string()),
                            ("seed", job.workload.seed.to_string()),
                        ],
                    );
                }
                let _enq = stm_telemetry::span_cat("engine.enqueue", "engine")
                    .with_flow(job.flow, stm_telemetry::FlowPhase::Start);
            }
        }
        Some(job)
    }

    /// Runs a claimed job on the calling thread; a panic becomes the
    /// session's error.
    fn run(&self, job: &Job) -> Result<(RunReport, RunClass), SessionError> {
        // Net-zero across add(+1)/add(-1), so the shared static needs no
        // reset between sessions.
        let busy = stm_telemetry::gauge!("engine.workers_busy");
        if self.pooled {
            busy.add(1);
        }
        let outcome = {
            let _span = stm_telemetry::span_cat("engine.job", "engine")
                .with_flow(job.flow, stm_telemetry::FlowPhase::Step);
            stm_telemetry::counter!("engine.runs").incr();
            catch_unwind(AssertUnwindSafe(|| (self.exec)(job)))
        };
        if self.pooled {
            busy.add(-1);
        }
        outcome.map_err(|p| {
            let message = panic_message(p);
            stm_telemetry::log::error(
                "engine",
                "worker.panic",
                vec![("job", job.index.to_string()), ("message", message.clone())],
            );
            SessionError::WorkerPanicked {
                job: job.index,
                message,
            }
        })
    }

    /// Opens the consume span of a pooled plan's job, the end of its
    /// flow, and takes the job off the queue depth.
    fn consuming(&self, job: &Job) -> Option<stm_telemetry::SpanGuard> {
        self.pooled.then(|| {
            stm_telemetry::gauge!("engine.queue_depth").add(-1);
            stm_telemetry::span_cat("engine.consume", "engine")
                .with_flow(job.flow, stm_telemetry::FlowPhase::End)
        })
    }
}

/// A pool worker's turn on one plan: its slot, where to answer, and when
/// the hand-off was sent.
struct Handoff {
    share: Arc<PlanShare>,
    slot: usize,
    answers: mpsc::Sender<Answer>,
    sent: Option<std::time::Instant>,
}

/// What a pool worker tells the caller.
enum Answer {
    /// A run, sent as soon as it finished; the worker claims nothing more
    /// after a panic. The report is boxed so the channel moves a pointer,
    /// not the profile payloads.
    Ran(Job, Result<Box<(RunReport, RunClass)>, SessionError>),
    /// The worker in this slot deregistered from the plan.
    Left(usize),
}

impl Handoff {
    /// Registers on the plan, claims and runs jobs until none below the
    /// bound is left, then deregisters.
    fn serve(self) {
        self.share.active.fetch_add(1, Ordering::SeqCst);
        if let Some(at) = self.sent {
            stm_telemetry::histogram!("engine.queue_wait_us")
                .record(at.elapsed().as_micros() as u64);
        }
        while let Some(job) = self.share.claim() {
            let run = self.share.run(&job).map(Box::new);
            let panicked = run.is_err();
            // A registered worker's caller is still waiting, so the send
            // cannot fail.
            let _ = self.answers.send(Answer::Ran(job, run));
            if panicked {
                break;
            }
        }
        // The caller stops waiting once no worker is registered, so the
        // spans must reach the global sink first.
        stm_telemetry::flush_thread();
        self.share.active.fetch_sub(1, Ordering::SeqCst);
        // Fails only for a worker that woke after the plan closed.
        let _ = self.answers.send(Answer::Left(self.slot));
    }
}

/// The process-wide collection pool: one hand-off queue per long-lived
/// worker.
static POOL: Mutex<Vec<mpsc::Sender<Handoff>>> = Mutex::new(Vec::new());

/// The queues of the pool's first `n` workers, spawning any that do not
/// exist yet. Workers never exit, so the pool only grows.
fn pool_workers(n: usize) -> Result<Vec<mpsc::Sender<Handoff>>, SessionError> {
    // A queue is pushed only once its worker runs, so a failed spawn
    // leaves the list valid.
    let mut pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
    while pool.len() < n {
        let (tx, rx) = mpsc::channel::<Handoff>();
        // Detached on purpose: the worker lives as long as the process,
        // and `PlanShare::run` catches every panic a job can raise.
        std::thread::Builder::new()
            .name(format!("stm-collect-{}", pool.len()))
            .spawn(move || rx.into_iter().for_each(Handoff::serve))
            .map_err(|e| SessionError::SpawnFailed {
                message: e.to_string(),
            })?;
        stm_telemetry::counter!("engine.pool_spawns").incr();
        pool.push(tx);
    }
    Ok(pool[..n].to_vec())
}

/// A finished run above the consumed prefix, with when it was parked.
type Parked = (Job, RunReport, RunClass, Option<std::time::Instant>);

/// The caller's side of a pooled plan: the workers' queues, the slots not
/// on the plan, and the answer channel.
struct Workers {
    share: Arc<PlanShare>,
    queues: Vec<mpsc::Sender<Handoff>>,
    /// Slots that have not had the plan yet, or have left it.
    idle: Vec<usize>,
    tx: mpsc::Sender<Answer>,
    rx: mpsc::Receiver<Answer>,
}

impl Workers {
    /// Hands the plan to idle workers, at most one per claimable job.
    fn hand_off(&mut self) {
        let (bound, next) = (&self.share.bound, &self.share.next);
        let claimable = bound
            .load(Ordering::SeqCst)
            .saturating_sub(next.load(Ordering::SeqCst));
        let keep = self.idle.len().saturating_sub(claimable as usize);
        for slot in self.idle.drain(keep..) {
            let handoff = Handoff {
                share: Arc::clone(&self.share),
                slot,
                answers: self.tx.clone(),
                sent: stm_telemetry::enabled().then(std::time::Instant::now),
            };
            if self.queues[slot].send(handoff).is_err() {
                unreachable!("collection workers never exit");
            }
        }
    }

    /// Files one answer: a run is parked, a panic fails the plan, and a
    /// worker that left becomes idle.
    fn file(
        &mut self,
        answer: Answer,
        parked: &mut BTreeMap<u64, Parked>,
        failure: &mut Option<SessionError>,
    ) {
        match answer {
            Answer::Ran(job, Ok(run)) => {
                let at = stm_telemetry::enabled().then(std::time::Instant::now);
                let (report, class) = *run;
                parked.insert(job.index, (job, report, class, at));
            }
            Answer::Ran(_, Err(e)) => {
                failure.get_or_insert(e);
            }
            Answer::Left(slot) => self.idle.push(slot),
        }
    }

    /// Closes the plan: zeroes the bound, waits while a worker is
    /// registered, and accounts the claims that were never consumed.
    fn close(self, consumed: u64) {
        self.share.bound.store(0, Ordering::SeqCst);
        while self.share.active.load(Ordering::SeqCst) > 0 {
            let _ = self.rx.recv();
        }
        let discarded = self.share.next.load(Ordering::SeqCst) - consumed;
        stm_telemetry::counter!("engine.jobs_discarded").add(discarded);
        stm_telemetry::gauge!("engine.queue_depth").add(-(discarded as i64));
    }
}

/// Where consumed runs accumulate: the run accounting plus the collected
/// failure/success witnesses, shared across a session's plans.
#[derive(Default)]
struct Sink {
    stats: DiagnosisStats,
    failures: Vec<CollectedRun>,
    successes: Vec<CollectedRun>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Consumes one run in index order: accounts it, asks the quota whether
/// to keep it, and stores the witness.
fn consume(
    job: Job,
    report: RunReport,
    class: RunClass,
    quota: &mut Quota,
    spec: &FailureSpec,
    sink: &mut Sink,
    monitor: &mut Option<ConvergenceMonitor>,
) {
    sink.stats.total_runs += 1;
    let Some(pick) = quota.consider(class, &report, spec) else {
        return;
    };
    let (kind, is_failure) = match pick {
        Pick::Failure => ("fail", true),
        Pick::Success => ("pass", false),
    };
    let witness = format!("{kind}:w{}:seed{}", job.widx, job.workload.seed);
    // One incremental ranking update per kept run, still inside the
    // ordered consumption seam — the early-stop decision this feeds is
    // therefore identical at any thread count.
    if let Some(m) = monitor.as_mut() {
        m.observe(is_failure, &witness, &report);
    }
    let run = CollectedRun {
        witness,
        workload: job.workload,
        report,
    };
    if is_failure {
        sink.stats.failure_runs_used += 1;
        sink.failures.push(run);
    } else {
        sink.stats.success_runs_used += 1;
        sink.successes.push(run);
    }
}

/// Has an attached convergence monitor decided to stop the session?
fn converged(monitor: &Option<ConvergenceMonitor>) -> bool {
    monitor.as_ref().is_some_and(|m| m.should_stop())
}

/// Executes one plan on the calling thread and `threads − 1` pool
/// workers, consuming runs in strict index order until the quota is done
/// (filled, or ended by a stop rule) or the plan is exhausted; see the
/// module docs.
fn run_plan(
    plan: JobPlan,
    threads: usize,
    quota: &mut Quota,
    spec: &FailureSpec,
    sink: &mut Sink,
    monitor: &mut Option<ConvergenceMonitor>,
    exec: &Arc<Exec>,
) -> Result<(), SessionError> {
    let limit = plan.len();
    if limit == 0 || quota.done() || converged(monitor) {
        return Ok(());
    }
    let local = PlanShare {
        plan,
        exec: Arc::clone(exec),
        pooled: threads > 1,
        next: AtomicU64::new(0),
        bound: AtomicU64::new(0),
        active: AtomicUsize::new(0),
    };
    // A `threads(1)` plan builds no channel and no `Arc`.
    let pooled;
    let (share, mut workers) = if threads > 1 {
        let queues = pool_workers(threads - 1)?;
        pooled = Arc::new(local);
        let (tx, rx) = mpsc::channel();
        let workers = Workers {
            share: Arc::clone(&pooled),
            queues,
            idle: (0..threads - 1).rev().collect(),
            tx,
            rx,
        };
        (&*pooled, Some(workers))
    } else {
        (&local, None)
    };
    // Session-width gauge: one call site for both `set`s (snapshots sum
    // same-name gauges across call sites, so a second site could not
    // zero this one).
    let width = stm_telemetry::gauge!("engine.workers");
    if workers.is_some() {
        width.set(threads as i64);
    }
    // Claims stay at most `max(owed, consumed)` jobs, and at most
    // `threads × MAX_AHEAD`, ahead of the consumed prefix.
    let cap = threads as u64 * MAX_AHEAD;
    let raise = |consumed: u64, quota: &Quota| {
        let ahead = (quota.owed().max(consumed as usize) as u64).clamp(1, cap);
        share
            .bound
            .store(limit.min(consumed.saturating_add(ahead)), Ordering::SeqCst);
    };
    let mut consumed = 0u64;
    let mut parked: BTreeMap<u64, Parked> = BTreeMap::new();
    let mut failure: Option<SessionError> = None;
    raise(0, quota);
    // Job 0 is claimed before any worker has the plan.
    let mut mine = share.claim();
    loop {
        if let Some(w) = workers.as_mut() {
            w.hand_off();
        }
        match mine {
            Some(job) => match share.run(&job) {
                Ok((report, class)) if job.index == consumed => {
                    let _span = share.consuming(&job);
                    consume(job, report, class, quota, spec, sink, monitor);
                    consumed += 1;
                }
                Ok((report, class)) => {
                    let at = stm_telemetry::enabled().then(std::time::Instant::now);
                    parked.insert(job.index, (job, report, class, at));
                }
                Err(e) => failure = Some(e),
            },
            // Every job below the bound is claimed, and the lowest
            // unconsumed one still runs on a worker.
            None => {
                let w = workers
                    .as_mut()
                    .expect("a threads(1) plan can always claim its next job");
                let answer = w.rx.recv().expect("the caller holds an answer sender");
                w.file(answer, &mut parked, &mut failure);
            }
        }
        if let Some(w) = workers.as_mut() {
            while let Ok(answer) = w.rx.try_recv() {
                w.file(answer, &mut parked, &mut failure);
            }
        }
        // Consume the ready prefix, in order, re-checking the quota (and
        // the convergence stop) after each run exactly as a sequential
        // loop would.
        while !quota.done() && !converged(monitor) {
            let Some((job, report, class, at)) = parked.remove(&consumed) else {
                break;
            };
            if let Some(at) = at {
                stm_telemetry::histogram!("engine.result_holdback_us")
                    .record(at.elapsed().as_micros() as u64);
            }
            let _span = share.consuming(&job);
            consume(job, report, class, quota, spec, sink, monitor);
            consumed += 1;
        }
        if failure.is_some() || consumed == limit || quota.done() || converged(monitor) {
            break;
        }
        raise(consumed, quota);
        mine = share.claim();
    }
    if let Some(w) = workers {
        w.close(consumed);
        width.set(0);
    }
    failure.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::InstrumentOptions;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ids::LogSiteId;
    use stm_machine::ir::BinOp;

    /// Error iff input 0 is negative (same shape as the diagnose tests).
    fn guarded_program() -> (Program, LogSiteId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
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
        (pb.finish(main), site)
    }

    fn session(threads: usize) -> Result<CollectedProfiles, SessionError> {
        let (p, site) = guarded_program();
        DiagnosisSession::new(&p)
            .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
            .failure(FailureSpec::ErrorLogAt(site))
            .failing((0..4).map(|i| Workload::new(vec![-1 - i])).collect())
            .passing((0..4).map(|i| Workload::new(vec![1 + i])).collect())
            .failure_profiles(6)
            .success_profiles(6)
            .threads(threads)
            .collect()
    }

    #[test]
    fn missing_spec_is_an_error() {
        let (p, _) = guarded_program();
        let err = DiagnosisSession::new(&p)
            .failing(vec![Workload::new(vec![-1])])
            .collect()
            .unwrap_err();
        assert_eq!(err, SessionError::MissingFailureSpec);
    }

    #[test]
    fn zero_capacity_ring_is_a_typed_error_not_a_clamp() {
        let (p, site) = guarded_program();
        for (lbr_entries, lcr_entries, want) in [
            (0usize, 16usize, stm_hardware::HwConfigError::ZeroLbrEntries),
            (16, 0, stm_hardware::HwConfigError::ZeroLcrEntries),
        ] {
            let err = DiagnosisSession::new(&p)
                .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
                .failure(FailureSpec::ErrorLogAt(site))
                .failing(vec![Workload::new(vec![-1])])
                .hw_config(stm_hardware::HwConfig {
                    lbr_entries,
                    lcr_entries,
                    ..stm_hardware::HwConfig::default()
                })
                .collect()
                .unwrap_err();
            assert_eq!(err, SessionError::InvalidHardware(want));
        }
    }

    #[test]
    fn malformed_perturbation_is_rejected_before_any_run() {
        let (p, site) = guarded_program();
        let err = DiagnosisSession::new(&p)
            .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(vec![Workload::new(vec![-1])])
            .hw_config(stm_hardware::HwConfig {
                perturb: stm_hardware::PerturbConfig::NONE.truncate_lbr(0),
                ..stm_hardware::HwConfig::default()
            })
            .collect()
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::InvalidHardware(stm_hardware::HwConfigError::ZeroTruncation {
                ring: "lbr"
            })
        ));
    }

    #[test]
    fn extreme_perturbations_complete_without_panicking() {
        // Ring size 1 plus total entry drop plus total snapshot loss: no
        // profile can survive, but collection must terminate cleanly at
        // its run cap rather than panic or hang.
        let (p, site) = guarded_program();
        let profiles = DiagnosisSession::new(&p)
            .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(vec![Workload::new(vec![-1])])
            .passing(vec![Workload::new(vec![1])])
            .failure_profiles(2)
            .success_profiles(2)
            .max_runs(8)
            .hw_config(stm_hardware::HwConfig {
                lbr_entries: 1,
                perturb: stm_hardware::PerturbConfig::NONE
                    .drop_rate(1.0)
                    .loss_rate(1.0),
                ..stm_hardware::HwConfig::default()
            })
            .collect()
            .expect("collection terminates");
        // Every snapshot was lost, so no witness carries a profile.
        assert!(profiles.failure_runs().is_empty());
        assert!(profiles.success_runs().is_empty());
        assert_eq!(profiles.stats().total_runs, 16, "both phases hit the cap");
    }

    #[test]
    fn witness_and_scan_workloads_conflict() {
        let (p, site) = guarded_program();
        let err = DiagnosisSession::new(&p)
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(vec![Workload::new(vec![-1])])
            .workloads(vec![Workload::new(vec![-1])])
            .collect()
            .unwrap_err();
        assert_eq!(err, SessionError::ConflictingWorkloads);
    }

    #[test]
    fn parallel_collection_matches_sequential_exactly() {
        let seq = session(1).expect("sequential collection");
        for threads in [2, 4, 8] {
            let par = session(threads).expect("parallel collection");
            assert_eq!(par.stats(), seq.stats(), "stats at {threads} threads");
            let w =
                |runs: &[CollectedRun]| runs.iter().map(|r| r.witness.clone()).collect::<Vec<_>>();
            assert_eq!(w(par.failure_runs()), w(seq.failure_runs()));
            assert_eq!(w(par.success_runs()), w(seq.success_runs()));
            assert_eq!(par.lbra().ranked, seq.lbra().ranked);
        }
    }

    #[test]
    fn scan_mode_finds_witnesses_in_seed_order() {
        let (p, site) = guarded_program();
        // The class depends only on the input, so every seed matches:
        // the first `failure_profiles` seeds must come back, in order.
        let profiles = DiagnosisSession::new(&p)
            .instrument(&InstrumentOptions::lbrlog())
            .failure(FailureSpec::ErrorLogAt(site))
            .workloads(vec![Workload::new(vec![-3])])
            .seeds(5..50)
            .failure_profiles(3)
            .success_profiles(0)
            .threads(4)
            .collect()
            .expect("scan collection");
        let seeds: Vec<u64> = profiles
            .failing_workloads()
            .iter()
            .map(|w| w.seed)
            .collect();
        assert_eq!(seeds, vec![5, 6, 7]);
        assert_eq!(profiles.stats().total_runs, 3, "stops at the quota");
    }

    #[test]
    fn poisoned_worker_surfaces_as_error_not_hang() {
        // Drive the pool with an executor that panics on the third job.
        let plan = JobPlan::cycle(vec![Workload::new(vec![0])], 64);
        let mut quota = Quota::scan(64, 0);
        let spec = FailureSpec::AnyCrash;
        let mut sink = Sink::default();
        let exec: Arc<Exec> = Arc::new(|job: &Job| -> (RunReport, RunClass) {
            if job.index >= 2 {
                panic!("poisoned run");
            }
            // Never returns a report before the poison triggers: the
            // first two jobs produce a real (trivial) run.
            let (p, _) = guarded_program();
            let runner = Runner::new(Machine::new(p));
            runner.run_classified(&job.workload, &FailureSpec::AnyCrash)
        });
        let err = run_plan(plan, 4, &mut quota, &spec, &mut sink, &mut None, &exec).unwrap_err();
        match err {
            SessionError::WorkerPanicked { message, .. } => {
                assert!(message.contains("poisoned run"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The panic cost the pool nothing: its workers caught it, and a
        // session in the same process still matches the inline path.
        let (seq, par) = (session(1).unwrap(), session(4).unwrap());
        assert_eq!(par.stats(), seq.stats());
        assert_eq!(par.lbra().ranked, seq.lbra().ranked);
    }

    /// Which thread ran each job, as recorded by [`recording_exec`].
    type Ran = Arc<Mutex<Vec<(u64, std::thread::ThreadId)>>>;

    /// An executor over real runs of [`guarded_program`] that records the
    /// thread each job ran on.
    fn recording_exec() -> (Arc<Exec>, Ran) {
        let ran = Ran::default();
        let log = Arc::clone(&ran);
        let runner = Runner::new(Machine::new(guarded_program().0));
        let exec: Arc<Exec> = Arc::new(move |job: &Job| {
            let tid = std::thread::current().id();
            log.lock().expect("no run panics").push((job.index, tid));
            runner.run_classified(&job.workload, &FailureSpec::AnyCrash)
        });
        (exec, ran)
    }

    /// Runs a `limit`-job plan of passing runs whose quota keeps up to
    /// `want_pass` of them, and returns the runs it consumed.
    fn run_passing_plan(limit: u64, want_pass: usize, threads: usize, exec: &Arc<Exec>) -> usize {
        let plan = JobPlan::cycle(vec![Workload::new(vec![0])], limit);
        let mut quota = Quota::scan(0, want_pass);
        let mut sink = Sink::default();
        let spec = FailureSpec::AnyCrash;
        run_plan(plan, threads, &mut quota, &spec, &mut sink, &mut None, exec)
            .expect("no run panics");
        sink.stats.total_runs
    }

    #[test]
    fn job_zero_of_every_plan_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            for limit in [1, 10, 64] {
                let (exec, ran) = recording_exec();
                let consumed = run_passing_plan(limit, usize::MAX, threads, &exec);
                assert_eq!(consumed as u64, limit, "threads({threads})");
                let ran = ran.lock().expect("no run panics");
                let job0: Vec<_> = ran.iter().filter(|(i, _)| *i == 0).collect();
                assert_eq!(job0, [&(0, caller)], "threads({threads}), {limit} jobs");
            }
        }
    }

    #[test]
    fn a_plan_that_needs_one_run_executes_exactly_one_job() {
        // A one-job plan, and a long plan whose quota owes one profile
        // that its first run fills.
        for threads in [2, 4] {
            for (limit, want_pass) in [(1, usize::MAX), (64, 1)] {
                let (exec, ran) = recording_exec();
                assert_eq!(run_passing_plan(limit, want_pass, threads, &exec), 1);
                let ran = ran.lock().expect("no run panics").len();
                assert_eq!(ran, 1, "threads({threads}), {limit} jobs");
            }
        }
    }

    #[test]
    fn from_runner_sessions_share_the_runners_machine() {
        let (p, site) = guarded_program();
        let runner =
            Runner::instrumented(&p, &InstrumentOptions::lbra_reactive(vec![site], vec![]));
        let profiles = DiagnosisSession::from_runner(&runner)
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(vec![Workload::new(vec![-1])])
            .passing(vec![Workload::new(vec![1])])
            .threads(2)
            .collect()
            .expect("collection succeeds");
        assert!(std::ptr::eq(profiles.runner().machine(), runner.machine()));
    }

    /// Error iff input 0 is below -10, behind a `x < 0` gate; the log's
    /// block is entered from the inner `Br`, or through a `Jmp` hop when
    /// `hop`. With `helper`, main first spawns and joins a thread.
    fn gated_program(hop: bool, helper: bool) -> (Program, LogSiteId) {
        let mut pb = ProgramBuilder::new("gated");
        let main = pb.declare_function("main");
        let aux = pb.declare_function("helper");
        {
            let mut f = pb.build_function(aux, "m.c");
            f.nop();
            f.ret(None);
            f.finish();
        }
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let check = f.new_block();
            let detour = f.new_block();
            let err = f.new_block();
            let ok = f.new_block();
            if helper {
                let t = f.spawn(aux, &[]);
                f.join(t);
            }
            let x = f.read_input(0);
            let neg = f.bin(BinOp::Lt, x, 0);
            f.at(10);
            f.br(neg, check, ok);
            f.set_block(check);
            let low = f.bin(BinOp::Lt, x, -10);
            f.at(11);
            f.br(low, if hop { detour } else { err }, ok);
            f.set_block(detour);
            f.jmp(err);
            f.set_block(err);
            f.at(12);
            site = f.log_error("x too low");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        (pb.finish(main), site)
    }

    /// A 6 + 6 `ErrorLogAt` session over [`gated_program`] whose passing
    /// witnesses stop at the outer gate, short of the success site.
    fn gated_session(
        (program, site): (Program, LogSiteId),
        hw: HwConfig,
        threads: usize,
    ) -> CollectedProfiles {
        DiagnosisSession::new(&program)
            .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
            .failure(FailureSpec::ErrorLogAt(site))
            .failing((0..4).map(|i| Workload::new(vec![-20 - i])).collect())
            .passing((0..3).map(|i| Workload::new(vec![1 + i])).collect())
            .failure_profiles(6)
            .success_profiles(6)
            .max_runs(40)
            .hw_config(hw)
            .threads(threads)
            .collect()
            .expect("collection succeeds")
    }

    fn witnesses(runs: &[CollectedRun]) -> Vec<&str> {
        runs.iter().map(|r| r.witness.as_str()).collect()
    }

    #[test]
    fn wrong_output_session_runs_no_job() {
        // A completed run never reaches the fault handler, and the program
        // has no site-less profile op: neither phase can keep a run.
        let (p, _) = guarded_program();
        for threads in [1, 4] {
            let profiles = DiagnosisSession::new(&p)
                .instrument(&InstrumentOptions::lbra_reactive(vec![], vec![]))
                .failure(FailureSpec::WrongOutput)
                .failing(vec![Workload::new(vec![5]).with_expected(vec![6])])
                .passing(vec![Workload::new(vec![5]).with_expected(vec![5])])
                .max_runs(64)
                .threads(threads)
                .collect()
                .expect("collection succeeds");
            assert_eq!(profiles.stats().total_runs, 0, "threads({threads})");
            assert!(profiles.failure_runs().is_empty() && profiles.success_runs().is_empty());
        }
    }

    #[test]
    fn jmp_reached_log_has_no_success_site_so_the_pass_phase_runs_nothing() {
        let profiles = gated_session(gated_program(true, false), HwConfig::default(), 1);
        assert_eq!(
            profiles.stats().failure_runs_used,
            6,
            "the fail phase fills"
        );
        assert_eq!(profiles.stats().total_runs, 6, "the pass phase runs no job");
    }

    #[test]
    fn barren_lap_ends_a_lap_invariant_pass_phase() {
        let seq = gated_session(gated_program(false, false), HwConfig::default(), 1);
        assert_eq!(seq.stats().failure_runs_used, 6);
        assert!(seq.success_runs().is_empty());
        assert_eq!(
            seq.stats().total_runs,
            6 + 3,
            "one lap of 3 passing witnesses"
        );
        for threads in [2, 8] {
            let par = gated_session(gated_program(false, false), HwConfig::default(), threads);
            assert_eq!(par.stats(), seq.stats(), "stats at {threads} threads");
            assert_eq!(witnesses(par.failure_runs()), witnesses(seq.failure_runs()));
            assert_eq!(witnesses(par.success_runs()), witnesses(seq.success_runs()));
        }
    }

    #[test]
    fn lap_variant_pass_phases_still_run_to_max_runs() {
        // A second thread lets the seed pick the interleaving, and a
        // perturbation draws from a seeded stream: a later lap could keep
        // a run, so neither stops early.
        let helper = gated_session(gated_program(false, true), HwConfig::default(), 2);
        let perturbed = gated_session(
            gated_program(false, false),
            HwConfig {
                perturb: stm_hardware::PerturbConfig::NONE.truncate_lbr(8),
                ..HwConfig::default()
            },
            2,
        );
        for profiles in [helper, perturbed] {
            assert_eq!(profiles.stats().failure_runs_used, 6);
            assert_eq!(profiles.stats().total_runs, 6 + 40);
        }
    }

    #[test]
    fn thread_count_above_the_cap_is_rejected_before_any_spawn() {
        assert_eq!(
            session(MAX_THREADS + 1).unwrap_err(),
            SessionError::TooManyThreads {
                requested: MAX_THREADS + 1
            }
        );
        // Had the session reached `pool_workers`, the pool would now be
        // at least as wide as the cap: the caller is one of its threads.
        let width = POOL.lock().unwrap_or_else(|p| p.into_inner()).len();
        assert!(width < MAX_THREADS, "pool grew to {width}");
        assert_eq!(resolve_threads(MAX_THREADS), Ok(MAX_THREADS));
        let host = resolve_threads(0).expect("the host default is in range");
        assert!((1..=MAX_THREADS).contains(&host), "{host}");
    }

    #[test]
    fn warm_pool_spawns_no_thread_at_or_below_its_width() {
        // No test in this crate asks for more than 8 threads, so once the
        // pool is 7 wide (the caller is the eighth thread), concurrently
        // running tests cannot grow it either.
        session(8).expect("warm-up session");
        let width = || POOL.lock().unwrap_or_else(|p| p.into_inner()).len();
        let warmed = width();
        assert!(warmed >= 7);
        for threads in [2, 4, 8] {
            session(threads).expect("warm session");
            assert_eq!(width(), warmed, "a threads({threads}) session spawned");
        }
    }
}
