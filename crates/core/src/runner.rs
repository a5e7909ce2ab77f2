//! Run orchestration: workloads, failure specifications and run
//! classification.
//!
//! The diagnosis drivers (LBRA/LCRA) and the harness binaries all execute
//! programs the same way: a [`Workload`] names the inputs and scheduler
//! seed, a [`FailureSpec`] describes the failure being diagnosed, and
//! [`classify`] decides whether a given run reproduced that failure,
//! succeeded, or did something else (and should be discarded, as the
//! paper's per-failure-site grouping does).

use crate::transform::{instrument, InstrumentOptions};
use std::cell::RefCell;
use std::sync::Arc;
use stm_hardware::{HardwareCtx, HwConfig};
use stm_machine::ids::LogSiteId;
use stm_machine::interp::{Machine, RunConfig, RunScratch};
use stm_machine::ir::Program;
use stm_machine::report::{RunOutcome, RunReport};
use stm_machine::sched::SchedPolicy;

thread_local! {
    /// Per-thread run cache. The collection engine calls [`Runner::run`]
    /// once per replay, and on the paper's short workloads building the
    /// run state is a large share of running it: a fresh [`HardwareCtx`]
    /// makes 10 allocations and then grows each cache set the run first
    /// touches, and a fresh interpreter scratch re-grows memory, thread
    /// and register buffers from zero — 33 allocation calls for sort's
    /// first failing witness on a fresh thread. The cache keeps one
    /// hardware context (keyed by its [`HwConfig`]) and one
    /// [`RunScratch`] per thread and recycles their capacity across runs,
    /// so a warm run allocates only the buffers of the report it returns
    /// (5 calls for that witness, pinned by `tests/allocations.rs`).
    /// [`HardwareCtx::reset`] restores the exact fresh state (pinned by
    /// the hardware crate's `reset_restores_the_fresh_state` test) and
    /// every run re-seeds the perturbation stream from its workload seed,
    /// so reuse is invisible in results — only in allocator traffic.
    static RUN_CACHE: RefCell<RunCache> = RefCell::new(RunCache::default());
}

/// The per-thread state recycled across [`Runner::run`] calls.
#[derive(Default)]
struct RunCache {
    hw: Option<(HwConfig, HardwareCtx)>,
    scratch: RunScratch,
}

/// One run's inputs: data inputs, scheduler seed and the expected output
/// (for wrong-output symptom checking).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Workload {
    /// Data inputs, read by `ReadInput`.
    pub inputs: Vec<i64>,
    /// Scheduler seed (interleaving selector).
    pub seed: u64,
    /// Expected program output, when the symptom is wrong output.
    pub expected: Option<Vec<i64>>,
}

impl Workload {
    /// A workload with the given inputs and seed 0.
    pub fn new(inputs: Vec<i64>) -> Self {
        Workload {
            inputs,
            seed: 0,
            expected: None,
        }
    }

    /// Sets the scheduler seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the expected output.
    pub fn with_expected(mut self, expected: Vec<i64>) -> Self {
        self.expected = Some(expected);
        self
    }

    /// This workload on its `n`-th pass through a cycled workload list:
    /// later laps shift the scheduler seed so they explore fresh
    /// interleavings. Lap 0 is the workload itself.
    pub fn lap(&self, n: u64) -> Workload {
        let mut w = self.clone();
        w.seed = self.seed.wrapping_add(n.wrapping_mul(0x9E37_79B9));
        w
    }
}

/// Describes the failure being diagnosed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureSpec {
    /// The failure manifests as an error message from this logging site.
    ErrorLogAt(LogSiteId),
    /// The failure is a crash (segfault/invalid free/assert/…) in the
    /// named function at the given line.
    CrashAt {
        /// Function name.
        func: String,
        /// Source line of the faulting statement.
        line: u32,
    },
    /// Any fail-stop crash.
    AnyCrash,
    /// The program completes but its output differs from the workload's
    /// expectation.
    WrongOutput,
    /// The program hangs (watchdog) or deadlocks.
    Hang,
}

/// How a run relates to the failure under diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// The run reproduced the target failure.
    TargetFailure,
    /// The run completed successfully (with the expected output, when one
    /// is specified).
    Success,
    /// The run did something else — a different failure, or completed when
    /// a wrong output was expected; excluded from the profile sets.
    Other,
}

/// Classifies a run report against a failure specification.
pub fn classify(
    program: &Program,
    report: &RunReport,
    workload: &Workload,
    spec: &FailureSpec,
) -> RunClass {
    let output_ok = workload
        .expected
        .as_ref()
        .map(|e| e == &report.outputs)
        .unwrap_or(true);
    match spec {
        FailureSpec::ErrorLogAt(site) => {
            if report.logged_site(*site) {
                RunClass::TargetFailure
            } else if report.outcome.is_completed() && output_ok {
                RunClass::Success
            } else {
                RunClass::Other
            }
        }
        FailureSpec::CrashAt { func, line } => match report.outcome.failure() {
            Some(f) => {
                let fname = &program.function(f.func).name;
                if fname == func && f.loc.line == *line {
                    RunClass::TargetFailure
                } else {
                    RunClass::Other
                }
            }
            None => {
                if output_ok {
                    RunClass::Success
                } else {
                    RunClass::Other
                }
            }
        },
        FailureSpec::AnyCrash => match &report.outcome {
            RunOutcome::Failed(_) => RunClass::TargetFailure,
            RunOutcome::Completed { .. } if output_ok => RunClass::Success,
            RunOutcome::Completed { .. } => RunClass::Other,
        },
        FailureSpec::WrongOutput => match &report.outcome {
            RunOutcome::Completed { .. } if !output_ok => RunClass::TargetFailure,
            RunOutcome::Completed { .. } => RunClass::Success,
            RunOutcome::Failed(_) => RunClass::Other,
        },
        FailureSpec::Hang => match report.outcome.failure() {
            Some(f)
                if matches!(
                    f.kind,
                    stm_machine::report::FailureKind::Hang
                        | stm_machine::report::FailureKind::Deadlock
                ) =>
            {
                RunClass::TargetFailure
            }
            Some(_) => RunClass::Other,
            None => {
                if output_ok {
                    RunClass::Success
                } else {
                    RunClass::Other
                }
            }
        },
    }
}

impl FailureSpec {
    /// Whether a run that [`classify`] calls this spec's target failure
    /// always ended in a failure, the only path on which the fault
    /// handler profiles the rings. True for crash and hang specs. A
    /// `WrongOutput` target is a completed run, and an `ErrorLogAt`
    /// target is matched by its log, whatever the outcome.
    pub(crate) fn target_ends_run(&self) -> bool {
        matches!(
            self,
            FailureSpec::CrashAt { .. } | FailureSpec::AnyCrash | FailureSpec::Hang
        )
    }
}

/// Executes runs of one (instrumented) machine, each on logically fresh
/// hardware: [`Runner::run`] and the classified variants recycle a
/// thread-local hardware context and interpreter scratch, reset to the
/// fresh state between runs.
///
/// `Runner` is `Clone + Send + Sync`. The machine is immutable once built
/// and shared behind an [`Arc`], and both configs are small plain data,
/// so a clone is a reference-count bump: the collection engine's
/// executor and every session built with
/// [`DiagnosisSession::from_runner`](crate::engine::DiagnosisSession::from_runner)
/// run the same machine, not a copy of it.
#[derive(Debug, Clone)]
pub struct Runner {
    machine: Arc<Machine>,
    run_config: RunConfig,
    hw_config: HwConfig,
}

impl Runner {
    /// Instruments `program` with `opts` and prepares a runner for it.
    pub fn instrumented(program: &Program, opts: &InstrumentOptions) -> Self {
        Runner::new(Machine::new(instrument(program, opts)))
    }

    /// Wraps an already-built machine, or shares one another runner or
    /// session already holds.
    pub fn new(machine: impl Into<Arc<Machine>>) -> Self {
        Runner {
            machine: machine.into(),
            run_config: RunConfig::default(),
            hw_config: HwConfig::default(),
        }
    }

    /// Overrides the run configuration (step budget, cores...).
    pub fn with_run_config(mut self, config: RunConfig) -> Self {
        self.run_config = config;
        self
    }

    /// Overrides the hardware configuration (LBR size, cache geometry...).
    pub fn with_hw_config(mut self, config: HwConfig) -> Self {
        self.hw_config = config;
        self
    }

    /// The machine being run.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The shared handle to the machine, for sessions that run it too.
    pub(crate) fn shared_machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The hardware configuration used for each run.
    pub fn hw_config(&self) -> &HwConfig {
        &self.hw_config
    }

    /// The run configuration used for each run.
    pub fn run_config(&self) -> &RunConfig {
        &self.run_config
    }

    /// Runs one workload on (logically) fresh hardware; returns the
    /// report. The hardware context and interpreter scratch come from the
    /// thread-local `RUN_CACHE`, so the hot collection path allocates
    /// no per-run state.
    pub fn run(&self, workload: &Workload) -> RunReport {
        self.run_cached(workload, None)
    }

    /// The cached-state run underneath [`Runner::run`] and the classified
    /// variants. `sample_seed` overrides the run config's sampling seed
    /// when set.
    fn run_cached(&self, workload: &Workload, sample_seed: Option<u64>) -> RunReport {
        let _span = stm_telemetry::span_cat("runner.run", "runner");
        RUN_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let cache = &mut *cache;
            match &mut cache.hw {
                Some((cfg, hw)) if *cfg == self.hw_config => hw.reset(),
                slot => *slot = Some((self.hw_config, HardwareCtx::new(self.hw_config))),
            }
            let hw = &mut cache.hw.as_mut().expect("cache primed above").1;
            // Fault injection draws from a stream derived from the
            // workload's scheduler seed, so perturbed runs replay
            // identically regardless of which worker thread executes them.
            hw.seed_perturbations(workload.seed);
            let mut cfg = self.run_config.clone();
            cfg.scheduler = SchedPolicy::Random {
                seed: workload.seed,
            };
            if let Some(seed) = sample_seed {
                cfg.sample_seed = seed;
            }
            let report = self
                .machine
                .run_reusing(&workload.inputs, &cfg, hw, &mut cache.scratch);
            hw.counters().flush_run_telemetry();
            report
        })
    }

    /// Runs one workload and classifies it.
    pub fn run_classified(&self, workload: &Workload, spec: &FailureSpec) -> (RunReport, RunClass) {
        let report = self.run(workload);
        let class = classify(self.machine.program(), &report, workload, spec);
        note_class(class);
        (report, class)
    }

    /// Like [`Runner::run_classified`], but with an explicit sampling-seed
    /// override so probe-based baselines (CBI/CCI) draw fresh sampling
    /// streams across repeated replays of the same workload.
    pub fn run_classified_with_sample_seed(
        &self,
        workload: &Workload,
        spec: &FailureSpec,
        sample_seed: u64,
    ) -> (RunReport, RunClass) {
        let report = self.run_cached(workload, Some(sample_seed));
        let class = classify(self.machine.program(), &report, workload, spec);
        note_class(class);
        (report, class)
    }
}

/// Counts one classified run in the telemetry collector.
fn note_class(class: RunClass) {
    match class {
        RunClass::TargetFailure => stm_telemetry::counter!("runner.class.target_failure").incr(),
        RunClass::Success => stm_telemetry::counter!("runner.class.success").incr(),
        RunClass::Other => stm_telemetry::counter!("runner.class.other").incr(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    /// input < 0 → error log; input == 0 → segfault; else outputs input.
    fn sample() -> (Program, LogSiteId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let rest = f.new_block();
            let crash = f.new_block();
            let ok = f.new_block();
            let x = f.read_input(0);
            let neg = f.bin(BinOp::Lt, x, 0);
            f.br(neg, err, rest);
            f.set_block(err);
            f.at(10);
            site = f.log_error("negative");
            f.exit(1);
            f.ret(None);
            f.set_block(rest);
            let zero = f.bin(BinOp::Eq, x, 0);
            f.br(zero, crash, ok);
            f.set_block(crash);
            f.at(20);
            let _ = f.load(0i64, 0);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        (pb.finish(main), site)
    }

    #[test]
    fn lap_shifts_only_the_seed() {
        let w = Workload::new(vec![3]).with_seed(7).with_expected(vec![3]);
        assert_eq!(w.lap(0), w);
        let lap1 = w.lap(1);
        assert_eq!(lap1.seed, 7 + 0x9E37_79B9);
        assert_eq!((lap1.inputs, lap1.expected), (w.inputs, w.expected));
        let edge = Workload::new(vec![]).with_seed(u64::MAX - 1);
        assert_eq!(edge.lap(1).seed, 0x9E37_79B9 - 2);
    }

    #[test]
    fn classify_error_log_spec() {
        let (p, site) = sample();
        let runner = Runner::new(Machine::new(p));
        let spec = FailureSpec::ErrorLogAt(site);
        let (_, c) = runner.run_classified(&Workload::new(vec![-1]), &spec);
        assert_eq!(c, RunClass::TargetFailure);
        let (_, c) = runner.run_classified(&Workload::new(vec![5]), &spec);
        assert_eq!(c, RunClass::Success);
        let (_, c) = runner.run_classified(&Workload::new(vec![0]), &spec);
        assert_eq!(c, RunClass::Other);
    }

    #[test]
    fn classify_crash_spec() {
        let (p, _) = sample();
        let runner = Runner::new(Machine::new(p));
        let spec = FailureSpec::CrashAt {
            func: "main".into(),
            line: 20,
        };
        let (_, c) = runner.run_classified(&Workload::new(vec![0]), &spec);
        assert_eq!(c, RunClass::TargetFailure);
        let (_, c) = runner.run_classified(&Workload::new(vec![7]), &spec);
        assert_eq!(c, RunClass::Success);
        let (_, c) = runner.run_classified(&Workload::new(vec![-3]), &spec);
        // A clean exit(1) with an error message is not the crash.
        assert_eq!(c, RunClass::Success);
    }

    #[test]
    fn classify_wrong_output_spec() {
        let (p, _) = sample();
        let runner = Runner::new(Machine::new(p));
        let spec = FailureSpec::WrongOutput;
        let w_bad = Workload::new(vec![5]).with_expected(vec![999]);
        let (_, c) = runner.run_classified(&w_bad, &spec);
        assert_eq!(c, RunClass::TargetFailure);
        let w_good = Workload::new(vec![5]).with_expected(vec![5]);
        let (_, c) = runner.run_classified(&w_good, &spec);
        assert_eq!(c, RunClass::Success);
    }

    #[test]
    fn instrumented_runner_profiles_failure_logs() {
        let (p, site) = sample();
        let runner = Runner::instrumented(&p, &InstrumentOptions::lbrlog());
        let report = runner.run(&Workload::new(vec![-4]));
        let prof = report.failure_profile().expect("failure profile");
        assert_eq!(prof.site, Some(site));
        match &prof.data {
            stm_machine::report::ProfileData::Lbr(records) => assert!(!records.is_empty()),
            other => panic!("expected LBR data, got {other:?}"),
        }
    }

    #[test]
    fn fault_handler_profiles_on_segfault() {
        let (p, _) = sample();
        let runner = Runner::instrumented(&p, &InstrumentOptions::lbrlog());
        let report = runner.run(&Workload::new(vec![0]));
        assert!(report.outcome.failure().is_some());
        let prof = report.failure_profile().expect("fault-handler profile");
        assert_eq!(prof.site, None);
    }
}
