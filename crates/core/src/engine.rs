//! Parallel profile-collection engine behind the [`DiagnosisSession`] API.
//!
//! Every witness run the paper's LBRA/LCRA drivers consume is an
//! independent simulated execution: a (workload, seed) pair replayed on a
//! fresh [`HardwareCtx`](stm_hardware::HardwareCtx), classified against the
//! failure spec, and mined for a ring snapshot. Nothing couples one run to
//! the next, so collection is embarrassingly parallel. `threads(1)` runs
//! every job inline on the calling thread — the reference path — and
//! `threads(n)` shards the jobs across the first `n` workers of one
//! process-wide pool of `std::thread` workers, with **zero new
//! dependencies**.
//!
//! ## Job model
//!
//! A collection is described by a `JobPlan`: a pure function from a
//! logical job index `i` to the `i`-th (workload, seed) pair. Witness-mode
//! plans cycle a workload list, perturbing the scheduler seed on each lap
//! exactly as the sequential driver did; scan-mode plans enumerate
//! `bases × seeds` (the retired `find_workloads` seed scan). Because the plan is a
//! function of the index, jobs need no shared state and can be regenerated
//! anywhere — which is exactly what the transport exploits: the
//! coordinator sends each worker a contiguous **index chunk** (two
//! integers), the worker regenerates its jobs from the shared plan and
//! answers with one result message per chunk, and the coordinator hands
//! that worker its next chunk. A chunk is the number of profiles the
//! quota still owes split across the session's threads — or, on a scan
//! that keeps missing, the runs the plan has already consumed, so long
//! scans grow their chunks geometrically — capped at 16 jobs. A 10-witness phase at two threads
//! is two 5-job chunks, not one 16-job chunk that runs 6 jobs too many
//! while the other worker idles. Dispatch never runs more than
//! `threads × 16` jobs ahead of consumption.
//!
//! ## The warm pool
//!
//! The paper diagnoses from 10 failing and 10 passing runs (§5.2), so a
//! diagnosis is a short session whose fixed costs, not its runs, set its
//! latency. The pool pays those costs once per process:
//!
//! * Workers are spawned on first use and never exit. The pool only
//!   grows, to the widest session seen, and each worker has its own
//!   channel, so a session at or below that width spawns nothing and a
//!   `threads(n)` session runs on exactly `n` threads.
//! * Workers outlive phases and sessions, so each keeps its thread-local
//!   run cache (hardware context and interpreter scratch, see
//!   `crate::runner`) warm.
//! * A chunk task carries `Arc`s of the plan and of the executor, which
//!   holds a [`Runner`] whose machine is itself shared: dispatch copies
//!   no program.
//! * Each plan has a cancel flag. When the quota fills, the coordinator
//!   raises it and workers stop the plan's remaining chunks at their next
//!   job.
//!   The coordinator then waits for every chunk it handed out, so every
//!   `engine.job` span ends inside its `engine.collect`. Workers flush
//!   their telemetry spans at the end of each chunk, before answering.
//!
//! ## Merge determinism
//!
//! Workers finish out of order, but the coordinator **consumes results
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
//! All workers of a plan share one executor around one [`Runner`]
//! (machine + configs, immutable plain data — compile-time `Send + Sync`
//! assertions live in the machine and hardware crates), and each runs on
//! its own thread-local hardware context and interpreter scratch (reset to
//! the exactly-fresh state between runs — see `crate::runner`), so workers
//! share nothing mutable. A run that panics is caught with `catch_unwind`,
//! reported in its chunk's answer, and surfaces as
//! [`SessionError::WorkerPanicked`] instead of a hang; the worker itself
//! survives and serves the next chunk.

use crate::converge::{ConvergenceMonitor, ConvergenceReport, StabilityPolicy};
use crate::diagnose::{failure_profile, success_profile, DiagnosisStats, Quotas};
use crate::runner::{FailureSpec, RunClass, Runner, Workload};
use crate::transform::{instrument, InstrumentOptions};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use stm_hardware::HwConfig;
use stm_machine::interp::{Machine, RunConfig};
use stm_machine::ir::Program;
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
    /// A worker panicked while executing a run. The engine reports this
    /// instead of hanging or unwinding across the pool.
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
    /// trajectories, and the final incremental ranking (bit-identical to
    /// the batch model over the same witnesses).
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
    /// `1` keeps the sequential driver, `0` asks the OS. Runs are
    /// independent production executions (§2's per-run short-term memory
    /// snapshots), so sharding them changes no result.
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

    /// Sets the worker-thread count (`0` = available parallelism).
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

    /// Sets the per-phase run cap.
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
    /// ([`ConvergenceTracker`](crate::converge::ConvergenceTracker)),
    /// publishes the `engine.rank_churn` / `engine.top1_stable_for` /
    /// `engine.witnesses_ingested` gauges and the live `/diagnosis`
    /// document, and — when `policy.stop` is set — stops collecting as
    /// soon as the top-1 predictor has been stable for
    /// `policy.stable_for` consecutive witnesses (both class floors
    /// permitting). The stop decision is taken at the strict-ordered
    /// consumption seam, so an early-stopped session is still
    /// bit-identical across thread counts. The resulting
    /// [`ConvergenceReport`] rides on
    /// [`CollectedProfiles::convergence`].
    pub fn converge(mut self, policy: StabilityPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Runs the collection: replays jobs (in parallel when
    /// `threads > 1`), classifies each run, and keeps the deterministic
    /// prefix that fills the profile quotas.
    ///
    /// Besides the result, the session reports its outcome to the
    /// observability layer: the `engine.failure_streak` gauge counts
    /// consecutive sessions that errored or ended short of their
    /// profile quota (perturbation loss — the `CtlResponse::Lost`
    /// symptom), and a structured `session.complete` / `session.error`
    /// event records what happened (see `stm_telemetry::log`).
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
        let scan = !self.bases.is_empty();
        if scan && (!self.failing.is_empty() || !self.passing.is_empty()) {
            return Err(SessionError::ConflictingWorkloads);
        }
        let runner = Runner::new(self.machine)
            .with_run_config(self.run.clone())
            .with_hw_config(self.hw);
        let threads = resolve_threads(self.threads);
        // Speculation window: how many jobs may be dispatched beyond the
        // consumed prefix. Bounds the work discarded when the quota
        // early-stop triggers.
        let window = threads.saturating_mul(MAX_CHUNK as usize).max(1);
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
                window,
                &mut quota,
                &spec,
                &mut sink,
                &mut monitor,
                &exec,
            )?;
            loss.absorb(&quota);
        } else {
            let plan = JobPlan::cycle(self.failing, self.quotas.max_runs as u64);
            let mut quota = Quota::witness_fail(self.quotas.failure_profiles, self.kind);
            run_plan(
                plan,
                threads,
                window,
                &mut quota,
                &spec,
                &mut sink,
                &mut monitor,
                &exec,
            )?;
            loss.absorb(&quota);
            let plan = JobPlan::cycle(self.passing, self.quotas.max_runs as u64);
            let mut quota = Quota::witness_pass(self.quotas.success_profiles, self.kind);
            run_plan(
                plan,
                threads,
                window,
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
/// `CtlResponse::Lost` symptom), and the final quota shortfall.
#[derive(Debug, Default, Clone, Copy)]
struct SessionLoss {
    /// Quota-class runs discarded for lacking the required profile.
    missing_profiles: usize,
    /// Profiles still owed when the plans were exhausted.
    shortfall: usize,
    /// The stability policy stopped collection before the quota; the
    /// remaining shortfall is by design, not a signal problem.
    converged_early: bool,
}

impl SessionLoss {
    fn absorb(&mut self, quota: &Quota) {
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
}

/// `0` = ask the OS; otherwise the explicit count.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// One replay: its logical index (the determinism key), which workload it
/// came from (for witness naming), and the exact workload to run.
///
/// `flow` is telemetry plumbing stamped at dispatch time: the flow id
/// ties the job's enqueue, execution and ordered consumption into one
/// Chrome-trace causal chain. It stays zero when collection is off and
/// never influences execution.
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
    fn witness_fail(want: usize, kind: Option<ProfileKind>) -> Quota {
        Quota {
            mode: QuotaMode::WitnessFail,
            want_fail: want,
            want_pass: 0,
            got_fail: 0,
            got_pass: 0,
            kind,
            missing: 0,
        }
    }

    fn witness_pass(want: usize, kind: Option<ProfileKind>) -> Quota {
        Quota {
            mode: QuotaMode::WitnessPass,
            want_fail: 0,
            want_pass: want,
            got_fail: 0,
            got_pass: 0,
            kind,
            missing: 0,
        }
    }

    fn scan(want_fail: usize, want_pass: usize) -> Quota {
        Quota {
            mode: QuotaMode::Scan,
            want_fail,
            want_pass,
            got_fail: 0,
            got_pass: 0,
            kind: None,
            missing: 0,
        }
    }

    fn done(&self) -> bool {
        self.got_fail >= self.want_fail && self.got_pass >= self.want_pass
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

/// Replays one job and classifies the run. One executor serves every
/// worker of a session, so it must be `Sync`; tests inject hostile ones
/// (e.g. a panicking run) without a real machine.
type Exec = dyn Fn(&Job) -> (RunReport, RunClass) + Send + Sync;

/// The largest chunk a worker is handed, and each thread's share of the
/// speculation window.
const MAX_CHUNK: u64 = 16;

/// A chunk's results coming back from a worker in one message. Reports
/// are boxed so the vector moves pointers, not full profile payloads.
struct ChunkResult {
    /// First job index of the chunk this answers.
    start: u64,
    /// The chunk's dispatched length (for queue-depth accounting; `runs`
    /// is shorter when a job panicked or the plan was cancelled).
    len: u32,
    /// The session-local worker slot that ran the chunk, free again.
    slot: usize,
    /// Per-job outcomes for jobs `start..start + runs.len()`, in order.
    runs: Vec<(Job, Box<RunReport>, RunClass)>,
    /// The job that panicked, when one did; the worker stops its chunk
    /// there.
    panicked: Option<(u64, String)>,
}

/// What every chunk of one pooled plan shares.
struct PlanShare {
    plan: JobPlan,
    exec: Arc<Exec>,
    /// Raised once the consumed prefix no longer needs the plan's
    /// remaining jobs; workers check it before each job. It publishes no
    /// data, so `Relaxed` suffices: a worker that sees it late only runs
    /// a job whose result is discarded anyway.
    cancel: AtomicBool,
}

/// One unit of pool work: a contiguous slab of a plan's job indices,
/// and where to answer. Workers regenerate the jobs themselves from the
/// shared [`JobPlan`], so the transport moves two integers (plus flow ids
/// when tracing) instead of a workload clone per run, and a worker wakes
/// once per chunk: on the paper's microsecond-scale runs, a channel send
/// and a thread wake per job would cost more than the job.
struct ChunkTask {
    share: Arc<PlanShare>,
    /// First job index in the slab.
    start: u64,
    /// Number of consecutive jobs.
    len: u32,
    /// Flow ids stamped at enqueue time, one per job, empty when
    /// telemetry is off.
    flows: Vec<u64>,
    /// Enqueue timestamp for the queue-wait histogram.
    enqueued: Option<std::time::Instant>,
    /// The session-local worker slot the chunk was handed to.
    slot: usize,
    results: mpsc::Sender<ChunkResult>,
}

impl ChunkTask {
    /// Runs the chunk's jobs in index order, stopping at a panic or a
    /// cancelled plan, and answers with one message.
    fn run(self) {
        let ChunkTask {
            share,
            start,
            len,
            flows,
            enqueued,
            slot,
            results,
        } = self;
        if let Some(at) = enqueued {
            stm_telemetry::histogram!("engine.queue_wait_us")
                .record(at.elapsed().as_micros() as u64);
        }
        // Net-zero across add(+1)/add(-1), so the shared static needs no
        // reset between sessions.
        let busy = stm_telemetry::gauge!("engine.workers_busy");
        busy.add(1);
        let mut runs = Vec::with_capacity(len as usize);
        let mut index = start;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..u64::from(len) {
                if share.cancel.load(Ordering::Relaxed) {
                    break;
                }
                index = start + i;
                let mut job = share.plan.job_at(index);
                job.flow = flows.get(i as usize).copied().unwrap_or(0);
                let _span = stm_telemetry::span_cat("engine.job", "engine")
                    .with_flow(job.flow, stm_telemetry::FlowPhase::Step);
                stm_telemetry::counter!("engine.runs").incr();
                let (report, class) = (share.exec)(&job);
                runs.push((job, Box::new(report), class));
            }
        }));
        busy.add(-1);
        // The coordinator returns once every chunk has answered, so the spans
        // must reach the global sink before the answer does.
        stm_telemetry::flush_thread();
        let _ = results.send(ChunkResult {
            start,
            len,
            slot,
            runs,
            panicked: outcome.err().map(|p| (index, panic_message(p))),
        });
    }
}

/// The process-wide collection pool: one channel per long-lived worker.
static POOL: Mutex<Vec<mpsc::Sender<ChunkTask>>> = Mutex::new(Vec::new());

/// The queues of the pool's first `n` workers, spawning any that do not
/// exist yet. Workers never exit, so the pool only grows.
fn pool_workers(n: usize) -> Vec<mpsc::Sender<ChunkTask>> {
    // A queue is pushed only once its worker runs, so the list is valid
    // even if a spawn panicked while the lock was held.
    let mut pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
    while pool.len() < n {
        let (tx, rx) = mpsc::channel::<ChunkTask>();
        // Detached on purpose: the worker lives as long as the process,
        // and `ChunkTask::run` catches every panic a job can raise.
        std::thread::Builder::new()
            .name(format!("stm-collect-{}", pool.len()))
            .spawn(move || rx.into_iter().for_each(ChunkTask::run))
            .expect("spawn a collection worker");
        stm_telemetry::counter!("engine.pool_spawns").incr();
        pool.push(tx);
    }
    pool[..n].to_vec()
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

/// Executes one plan, sequentially or on the pool, consuming results in
/// strict index order until the quota is met or the plan is exhausted.
#[allow(clippy::too_many_arguments)] // the engine's one internal seam
fn run_plan(
    plan: JobPlan,
    threads: usize,
    window: usize,
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

    if threads <= 1 {
        let mut index = 0u64;
        while index < limit && !quota.done() && !converged(monitor) {
            let job = plan.job_at(index);
            let _span = stm_telemetry::span_cat("engine.job", "engine");
            stm_telemetry::counter!("engine.runs").incr();
            let jid = job.index;
            let (report, class) = catch_unwind(AssertUnwindSafe(|| exec(&job))).map_err(|p| {
                let message = panic_message(p);
                stm_telemetry::log::error(
                    "engine",
                    "worker.panic",
                    vec![("job", jid.to_string()), ("message", message.clone())],
                );
                SessionError::WorkerPanicked { job: jid, message }
            })?;
            consume(job, report, class, quota, spec, sink, monitor);
            index += 1;
        }
        return Ok(());
    }

    let depth = stm_telemetry::gauge!("engine.queue_depth");
    // Session-width gauge: one call site for both `set`s (snapshots sum
    // same-name gauges across call sites, so a second site could not
    // zero this one).
    let workers = stm_telemetry::gauge!("engine.workers");
    workers.set(threads as i64);
    let queues = pool_workers(threads);
    let share = Arc::new(PlanShare {
        plan,
        exec: Arc::clone(exec),
        cancel: AtomicBool::new(false),
    });
    let (res_tx, res_rx) = mpsc::channel::<ChunkResult>();
    // Worker slots without a chunk; each holds at most one at a time.
    let mut idle: Vec<usize> = (0..threads).rev().collect();
    let mut dispatched = 0u64;
    let mut consumed = 0u64;
    // Each parked result remembers when it arrived, so ordered
    // consumption can report how long speculation held it back.
    type Parked = (Job, RunReport, RunClass, Option<std::time::Instant>);
    let mut pending: BTreeMap<u64, Parked> = BTreeMap::new();
    let mut failure: Option<SessionError> = None;
    while consumed < limit && !quota.done() && !converged(monitor) && failure.is_none() {
        // Hand every idle worker a chunk, within the speculation window.
        // The chunk is the quota's remaining need split across the
        // threads; on a scan whose runs keep missing, the need grows
        // with the runs already consumed.
        while dispatched < limit && dispatched < consumed + window as u64 {
            let Some(slot) = idle.pop() else { break };
            let need = quota.owed().max(consumed as usize).div_ceil(threads) as u64;
            let len = need
                .clamp(1, MAX_CHUNK)
                .min(limit - dispatched)
                .min(consumed + window as u64 - dispatched);
            let mut flows = Vec::new();
            if stm_telemetry::enabled() {
                // Stamp the causal chain per job: enqueue → worker
                // execution → ordered consumption share one flow id.
                flows.reserve(len as usize);
                for i in 0..len {
                    let flow = stm_telemetry::new_flow_id();
                    if stm_telemetry::log::would_log(stm_telemetry::log::Level::Debug) {
                        let job = share.plan.job_at(dispatched + i);
                        stm_telemetry::log::emit(
                            stm_telemetry::log::Level::Debug,
                            "engine",
                            "job.enqueue",
                            flow,
                            vec![
                                ("job", job.index.to_string()),
                                ("seed", job.workload.seed.to_string()),
                            ],
                        );
                    }
                    let _enq = stm_telemetry::span_cat("engine.enqueue", "engine")
                        .with_flow(flow, stm_telemetry::FlowPhase::Start);
                    flows.push(flow);
                }
            }
            let task = ChunkTask {
                share: Arc::clone(&share),
                start: dispatched,
                len: len as u32,
                flows,
                enqueued: stm_telemetry::enabled().then(std::time::Instant::now),
                slot,
                results: res_tx.clone(),
            };
            if queues[slot].send(task).is_err() {
                unreachable!("collection workers never exit");
            }
            stm_telemetry::counter!("engine.jobs").add(len);
            depth.add(len as i64);
            dispatched += len;
        }
        if idle.len() == threads {
            break; // nothing in flight, so nothing more can arrive
        }
        let msg = res_rx
            .recv()
            .expect("the coordinator holds a result sender");
        depth.add(-(msg.len as i64));
        idle.push(msg.slot);
        let arrived = stm_telemetry::enabled().then(std::time::Instant::now);
        for (i, (job, report, class)) in msg.runs.into_iter().enumerate() {
            pending.insert(msg.start + i as u64, (job, *report, class, arrived));
        }
        if let Some((job, message)) = msg.panicked {
            stm_telemetry::log::error(
                "engine",
                "worker.panic",
                vec![("job", job.to_string()), ("message", message.clone())],
            );
            failure = Some(SessionError::WorkerPanicked { job, message });
        }
        // Consume the ready prefix, in order, re-checking the quota
        // (and the convergence stop) after each job exactly as the
        // sequential loop does.
        while !quota.done() && !converged(monitor) {
            let Some((job, report, class, arrived)) = pending.remove(&consumed) else {
                break;
            };
            if let Some(at) = arrived {
                stm_telemetry::histogram!("engine.result_holdback_us")
                    .record(at.elapsed().as_micros() as u64);
            }
            let _span = stm_telemetry::span_cat("engine.consume", "engine")
                .with_flow(job.flow, stm_telemetry::FlowPhase::End);
            consume(job, report, class, quota, spec, sink, monitor);
            consumed += 1;
        }
    }

    // Stop the plan's outstanding chunks at their next job and wait for
    // their answers, then account the speculative overshoot.
    share.cancel.store(true, Ordering::Relaxed);
    for msg in res_rx.iter().take(threads - idle.len()) {
        depth.add(-(msg.len as i64));
    }
    stm_telemetry::counter!("engine.jobs_discarded").add(dispatched.saturating_sub(consumed));
    depth.set(0);
    workers.set(0);
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
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
        let err = run_plan(plan, 4, 8, &mut quota, &spec, &mut sink, &mut None, &exec).unwrap_err();
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

    #[test]
    fn warm_pool_spawns_no_thread_at_or_below_its_width() {
        // No test in this crate asks for more than 8 threads, so once the
        // pool is 8 wide, concurrently running tests cannot grow it either.
        session(8).expect("warm-up session");
        let width = || POOL.lock().unwrap_or_else(|p| p.into_inner()).len();
        let warmed = width();
        assert!(warmed >= 8);
        for threads in [2, 4, 8] {
            session(threads).expect("warm session");
            assert_eq!(width(), warmed, "a threads({threads}) session spawned");
        }
    }
}
