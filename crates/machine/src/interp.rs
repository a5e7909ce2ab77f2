//! The deterministic multithreaded interpreter.
//!
//! [`Machine`] owns a validated [`Program`] plus its address [`Layout`] and
//! executes workloads under a [`RunConfig`], driving a [`Hardware`]
//! implementation with branch-retirement and cache-access events — exactly
//! the event streams LBR and LCR consume.
//!
//! Determinism: given the same `(program, inputs, config)` triple, a run
//! replays identically — the scheduler and the sampling countdowns use the
//! seeded [`SplitMix64`].
//!
//! ## The hot path
//!
//! Loading a program pre-lowers the block-structured IR into a flat
//! instruction stream (the private `flat` module): per-step dispatch is a single
//! indexed fetch plus one `match` over pre-decoded operands, with branch
//! targets, call entry addresses and const-folded rvalues resolved at load
//! time. Hardware events are buffered and pushed in batches
//! ([`Hardware::on_batch`]) instead of one virtual call per event; the
//! buffer is always flushed before a [`Hardware::ctl`] call and at run end,
//! so the hardware observes exactly the per-event order. Per-run state
//! (memory tables, thread stacks, register arenas, the event buffer) lives
//! in a caller-owned [`RunScratch`] that [`Machine::run_reusing`] recycles
//! across runs, eliminating per-run allocation storms on the collection
//! path.

use crate::events::{
    AccessEvent, AccessKind, BranchEvent, BranchKind, CtlResponse, Hardware, HwCtlOp, HwEvent, Ring,
};
use crate::flat::{FlatProgram, Op, Val};
use crate::ids::{BlockId, CoreId, FuncId, ThreadId};
use crate::ir::{BinOp, Program, SourceLoc, UnOp, STACK_BASE, STACK_STRIDE};
use crate::layout::{Layout, SLOT};
use crate::memory::{MemFault, Memory, RegionKind};
use crate::report::{
    Failure, FailureKind, LockWaitEvent, LogEvent, ProfileData, ProfileEvent, RunOutcome,
    RunReport, SampleEvent, StackSample,
};
use crate::rng::SplitMix64;
use crate::sched::{SchedPolicy, Scheduler};

/// Call depth at which a call fails with
/// [`FailureKind::StackOverflow`].
pub const MAX_CALL_DEPTH: usize = 128;

/// Configuration of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Watchdog step budget; exceeding it reports a [`FailureKind::Hang`].
    pub max_steps: u64,
    /// Scheduling policy.
    pub scheduler: SchedPolicy,
    /// Number of simulated cores; threads map to cores round-robin.
    /// Runners overwrite it with their hardware configuration's core
    /// count, so a thread never lands on a core the hardware lacks.
    pub num_cores: u32,
    /// Mean period of the `Sample` countdown (the CBI `1/rate`).
    pub sample_mean: u32,
    /// Seed of the sampling countdown PRNG.
    pub sample_seed: u64,
    /// Guest-profiler sampling period: every `profile_period` retired
    /// instructions the interpreter captures the scheduled thread's call
    /// stack into [`RunReport::stack_samples`] and tracks contended lock
    /// acquisitions into [`RunReport::lock_waits`]. 0 (the default)
    /// disables profiling entirely — the hot loop then pays exactly one
    /// integer compare per step.
    pub profile_period: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 2_000_000,
            scheduler: SchedPolicy::default(),
            num_cores: 4,
            sample_mean: 100,
            sample_seed: 0,
            profile_period: 0,
        }
    }
}

impl RunConfig {
    /// Convenience: a config with a random scheduler seeded by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        RunConfig {
            scheduler: SchedPolicy::Random { seed },
            ..RunConfig::default()
        }
    }
}

/// A loaded program ready to execute workloads.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    layout: Layout,
    flat: FlatProgram,
}

impl Machine {
    /// Loads a program, computing its address layout and pre-lowering the
    /// IR into the flat dispatch stream.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation — construct programs through
    /// [`ProgramBuilder`](crate::builder::ProgramBuilder) to avoid this.
    pub fn new(program: Program) -> Self {
        program
            .validate()
            .expect("program failed validation; build with ProgramBuilder");
        let layout = Layout::build(&program);
        let flat = FlatProgram::lower(&program, &layout);
        Machine {
            program,
            layout,
            flat,
        }
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The program's address layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Executes one run.
    pub fn run<H: Hardware>(&self, inputs: &[i64], config: &RunConfig, hw: &mut H) -> RunReport {
        let mut scratch = RunScratch::new();
        self.run_reusing(inputs, config, hw, &mut scratch)
    }

    /// Executes one run reusing a caller-owned [`RunScratch`].
    ///
    /// Behaviourally identical to [`Machine::run`] — the scratch only
    /// recycles allocations (memory tables, thread state, the hardware
    /// event buffer), never state: every run starts from the same freshly
    /// initialised memory image. One scratch may be reused across
    /// machines, workloads and configs in any order.
    pub fn run_reusing<H: Hardware>(
        &self,
        inputs: &[i64],
        config: &RunConfig,
        hw: &mut H,
        scratch: &mut RunScratch,
    ) -> RunReport {
        scratch.begin_run(&self.program);
        Exec::new(self, inputs, config, hw, scratch).run()
    }
}

/// Reusable per-run allocations for [`Machine::run_reusing`].
///
/// Holds the memory tables, thread states (call frames + register arena),
/// the scheduler's runnable buffer and the hardware event batch buffer of a
/// run. Reusing one scratch across many runs keeps the capacity those
/// structures grew to, so steady-state collection does not allocate per
/// run. A scratch carries no state between runs — only capacity.
#[derive(Debug)]
pub struct RunScratch {
    mem: Memory,
    threads: Vec<ThreadState>,
    /// Retired thread states kept for their frame/register capacity.
    spare: Vec<ThreadState>,
    runnable: Vec<ThreadId>,
    events: Vec<HwEvent>,
}

impl RunScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        RunScratch {
            mem: Memory::new(),
            threads: Vec::new(),
            spare: Vec::new(),
            runnable: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Resets the scratch to a fresh run over `program`: clears memory and
    /// re-maps the globals, recycles old thread states, empties buffers.
    fn begin_run(&mut self, program: &Program) {
        self.mem.reset();
        for g in &program.globals {
            self.mem.map_fixed(g.addr, g.words * 8, RegionKind::Global);
            for (i, v) in g.init.iter().enumerate() {
                self.mem.poke(g.addr + i as u64 * 8, *v);
            }
        }
        self.spare.append(&mut self.threads);
        self.runnable.clear();
        self.events.clear();
    }
}

impl Default for RunScratch {
    fn default() -> Self {
        RunScratch::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedLock(u64),
    BlockedJoin(ThreadId),
    Done,
}

/// One call frame. Locals live in the thread's flat register arena at
/// `vars_base ..`; `ip` indexes the function's flat instruction stream.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    block: u32,
    ip: u32,
    vars_base: u32,
    stack_base: u64,
    ret_dst: Option<u32>,
    ret_pc: u64,
}

/// One in-progress contended lock acquisition, tracked per thread while
/// guest profiling is on: where the thread first blocked and on whom.
#[derive(Debug, Clone, Copy)]
struct PendingLock {
    addr: u64,
    since_step: u64,
    holder: Option<ThreadId>,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    frames: Vec<Frame>,
    /// Flat register arena: every live frame's locals, innermost last.
    regs: Vec<i64>,
    sp: u64,
    countdown: u32,
    /// Global step at which this thread last retired an instruction.
    last_step: u64,
    /// Contended acquisition in progress (guest profiling only).
    pending_lock: Option<PendingLock>,
}

impl Default for ThreadState {
    fn default() -> Self {
        ThreadState {
            status: Status::Runnable,
            frames: Vec::new(),
            regs: Vec::new(),
            sp: 0,
            countdown: 0,
            last_step: 0,
            pending_lock: None,
        }
    }
}

enum Flow {
    /// Advance to the next statement.
    Next,
    /// Control transferred (branch/call/ret handled positioning itself).
    Jumped,
    /// Re-execute the same statement later (blocked).
    Blocked,
    /// The whole program exits.
    Exit(i64),
    /// The run fails.
    Fault(FailureKind),
}

/// Hardware events are flushed whenever the buffer reaches this many
/// entries (and always before a `ctl` call and at run end).
const EVENT_BATCH: usize = 4096;

struct Exec<'m, 'h, 's, H> {
    m: &'m Machine,
    cfg: &'s RunConfig,
    inputs: &'s [i64],
    hw: &'h mut H,
    scratch: &'s mut RunScratch,
    sched: Scheduler,
    sample_rng: SplitMix64,
    report: RunReport,
    steps: u64,
    // Local telemetry accumulators, flushed once per run so the hot loop
    // never touches shared atomics.
    loads: u64,
    stores: u64,
    ctx_switches: u64,
    last_tid: Option<ThreadId>,
}

impl<'m, 'h, 's, H: Hardware> Exec<'m, 'h, 's, H> {
    fn new(
        m: &'m Machine,
        inputs: &'s [i64],
        cfg: &'s RunConfig,
        hw: &'h mut H,
        scratch: &'s mut RunScratch,
    ) -> Self {
        let report = RunReport {
            outcome: RunOutcome::Completed { exit_code: 0 },
            outputs: Vec::new(),
            logs: Vec::new(),
            profiles: Vec::new(),
            samples: Vec::new(),
            steps: 0,
            branches_retired: 0,
            accesses_retired: 0,
            threads_spawned: 0,
            thread_states: Vec::new(),
            stack_samples: Vec::new(),
            lock_waits: Vec::new(),
        };
        let mut exec = Exec {
            m,
            cfg,
            inputs,
            hw,
            scratch,
            sched: Scheduler::new(cfg.scheduler),
            sample_rng: SplitMix64::new(cfg.sample_seed),
            report,
            steps: 0,
            loads: 0,
            stores: 0,
            ctx_switches: 0,
            last_tid: None,
        };
        exec.spawn_thread(m.program.entry.raw());
        exec
    }

    fn core_of(&self, tid: ThreadId) -> CoreId {
        CoreId(tid.0 % self.cfg.num_cores.max(1))
    }

    /// Spawns a thread running `func` with zeroed arguments; the caller
    /// copies real argument values into the new thread's registers.
    fn spawn_thread(&mut self, func: u32) -> ThreadId {
        let tid = ThreadId(self.scratch.threads.len() as u32);
        let stack_region = STACK_BASE + tid.0 as u64 * STACK_STRIDE;
        self.scratch
            .mem
            .map_fixed(stack_region, STACK_STRIDE / 2, RegionKind::Stack);
        let f = &self.m.flat.funcs[func as usize];
        let mut t = self.scratch.spare.pop().unwrap_or_default();
        t.status = Status::Runnable;
        t.frames.clear();
        t.frames.push(Frame {
            func,
            block: 0,
            ip: 0,
            vars_base: 0,
            stack_base: stack_region,
            ret_dst: None,
            ret_pc: 0,
        });
        t.regs.clear();
        t.regs.resize(f.num_vars as usize, 0);
        t.sp = f.frame_slots as u64 * 8;
        t.countdown = self.sample_rng.next_countdown(self.cfg.sample_mean);
        t.last_step = 0;
        t.pending_lock = None;
        self.scratch.threads.push(t);
        self.report.threads_spawned += 1;
        tid
    }

    fn is_runnable(&self, tid: ThreadId) -> bool {
        match self.scratch.threads[tid.index()].status {
            Status::Runnable => true,
            Status::BlockedLock(addr) => matches!(self.scratch.mem.read(addr), Ok(0) | Err(_)),
            Status::BlockedJoin(t) => {
                self.scratch.threads.get(t.index()).map(|t| t.status) == Some(Status::Done)
            }
            Status::Done => false,
        }
    }

    fn run(mut self) -> RunReport {
        let _span = stm_telemetry::span_cat("machine.run", "machine");
        loop {
            if self.scratch.threads[0].status == Status::Done {
                break;
            }
            let mut runnable = std::mem::take(&mut self.scratch.runnable);
            runnable.clear();
            let n = self.scratch.threads.len() as u32;
            runnable.extend((0..n).map(ThreadId).filter(|t| self.is_runnable(*t)));
            if runnable.is_empty() {
                self.scratch.runnable = runnable;
                let victim = (0..n)
                    .map(ThreadId)
                    .find(|t| self.scratch.threads[t.index()].status != Status::Done)
                    .unwrap_or(ThreadId::MAIN);
                self.fail(victim, FailureKind::Deadlock);
                break;
            }
            let tid = self.sched.pick(&runnable);
            self.scratch.runnable = runnable;
            if self.last_tid.is_some_and(|last| last != tid) {
                self.ctx_switches += 1;
            }
            self.last_tid = Some(tid);
            self.steps += 1;
            if self.steps > self.cfg.max_steps {
                self.fail(tid, FailureKind::Hang);
                break;
            }
            // Unblock the thread; blocked statements re-execute.
            let t = &mut self.scratch.threads[tid.index()];
            t.status = Status::Runnable;
            t.last_step = self.steps;
            // The guest profiler's "sampling interrupt": driven by the
            // retired-instruction count, not wall-clock, so the sample
            // stream replays identically with the run.
            if self.cfg.profile_period != 0 && self.steps.is_multiple_of(self.cfg.profile_period) {
                self.record_stack_sample(tid);
            }
            match self.step(tid) {
                Flow::Next => {
                    self.scratch.threads[tid.index()]
                        .frames
                        .last_mut()
                        .expect("running thread has a frame")
                        .ip += 1;
                }
                Flow::Jumped | Flow::Blocked => {}
                Flow::Exit(code) => {
                    self.report.outcome = RunOutcome::Completed { exit_code: code };
                    break;
                }
                Flow::Fault(kind) => {
                    self.fail(tid, kind);
                    break;
                }
            }
        }
        self.report.steps = self.steps;
        // Deliver any buffered retirement events before the run report is
        // handed back — post-run hardware inspection must see everything.
        self.flush_events();
        self.record_thread_states();
        self.flush_telemetry();
        self.report
    }

    /// Captures every thread's final context into the report — the
    /// flight-recorder view of where each thread stood when the run ended.
    fn record_thread_states(&mut self) {
        use crate::report::{FinalStatus, ThreadFinalState};
        let mut states = Vec::with_capacity(self.scratch.threads.len());
        for (i, t) in self.scratch.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            let status = match t.status {
                Status::Runnable => FinalStatus::Runnable,
                Status::BlockedLock(addr) => FinalStatus::BlockedLock(addr),
                Status::BlockedJoin(j) => FinalStatus::BlockedJoin(j),
                Status::Done => FinalStatus::Done,
            };
            let (func, loc, pc) = self.position(tid);
            states.push(ThreadFinalState {
                thread: tid,
                status,
                func,
                loc,
                pc,
                last_step: t.last_step,
            });
        }
        self.report.thread_states = states;
    }

    /// Captures the scheduled thread's call stack, outermost frame first —
    /// the guest profiler's sample. Only called while profiling is on.
    fn record_stack_sample(&mut self, tid: ThreadId) {
        let frames = self.scratch.threads[tid.index()]
            .frames
            .iter()
            .map(|f| (FuncId::new(f.func), BlockId::new(f.block)))
            .collect();
        self.report.stack_samples.push(StackSample {
            thread: tid,
            step: self.steps,
            frames,
        });
    }

    /// Guest profiling: a lock acquisition failed; remember when this
    /// thread first blocked on the lock and who held it then (the lock
    /// word stores `holder + 1`).
    fn record_lock_blocked(&mut self, tid: ThreadId, addr: u64, held: i64) {
        let holder = u32::try_from(held - 1)
            .ok()
            .map(ThreadId)
            .filter(|h| h.index() < self.scratch.threads.len());
        let t = &mut self.scratch.threads[tid.index()];
        let fresh = match t.pending_lock {
            Some(p) => p.addr != addr,
            None => true,
        };
        if fresh {
            t.pending_lock = Some(PendingLock {
                addr,
                since_step: self.steps,
                holder,
            });
        }
    }

    /// Guest profiling: a lock acquisition succeeded. When the thread had
    /// been blocked on this same lock, emit the wait record (uncontended
    /// acquisitions record nothing).
    fn record_lock_acquired(&mut self, tid: ThreadId, addr: u64, pc: u64) {
        let t = &mut self.scratch.threads[tid.index()];
        let Some(p) = t.pending_lock.take() else {
            return;
        };
        if p.addr != addr {
            t.pending_lock = Some(p);
            return;
        }
        self.report.lock_waits.push(LockWaitEvent {
            addr,
            waiter: tid,
            holder: p.holder,
            wait_steps: self.steps.saturating_sub(p.since_step),
            acquired_step: self.steps,
            pc,
        });
    }

    /// Flushes the run's telemetry accumulators into the global collector
    /// (one batch of atomic adds per run; free when collection is off).
    fn flush_telemetry(&self) {
        if !stm_telemetry::enabled() {
            return;
        }
        stm_telemetry::counter!("machine.runs").incr();
        stm_telemetry::counter!("machine.instructions").add(self.steps);
        stm_telemetry::counter!("machine.branches").add(self.report.branches_retired);
        stm_telemetry::counter!("machine.loads").add(self.loads);
        stm_telemetry::counter!("machine.stores").add(self.stores);
        stm_telemetry::counter!("machine.context_switches").add(self.ctx_switches);
        stm_telemetry::counter!("machine.threads_spawned").add(self.report.threads_spawned as u64);
        if self.report.outcome.is_completed() {
            stm_telemetry::counter!("machine.runs_completed").incr();
        } else {
            stm_telemetry::counter!("machine.runs_failed").incr();
        }
        stm_telemetry::histogram!("machine.run_steps").record(self.steps);
        if self.cfg.profile_period != 0 {
            stm_telemetry::counter!("machine.profile_samples")
                .add(self.report.stack_samples.len() as u64);
            stm_telemetry::counter!("machine.profile_lock_waits")
                .add(self.report.lock_waits.len() as u64);
        }
    }

    /// Records the failure and lets the registered fault handler profile
    /// the hardware short-term memory (transformer step 4 of §5.1).
    fn fail(&mut self, tid: ThreadId, kind: FailureKind) {
        let (func, loc, pc) = self.position(tid);
        self.report.outcome = RunOutcome::Failed(Failure {
            kind,
            thread: tid,
            func,
            loc,
            pc,
        });
        let core = self.core_of(tid);
        let fp = self.m.program.fault_profile;
        if fp.lbr {
            self.ctl(core, tid, HwCtlOp::DisableLbr);
            if let CtlResponse::Lbr(records) = self.ctl(core, tid, HwCtlOp::ProfileLbr) {
                self.report.profiles.push(ProfileEvent {
                    site: None,
                    role: crate::ir::ProfileRole::FailureSite,
                    thread: tid,
                    step: self.steps,
                    data: ProfileData::Lbr(records),
                });
            }
        }
        if fp.lcr {
            self.ctl(core, tid, HwCtlOp::DisableLcr);
            if let CtlResponse::Lcr(records) = self.ctl(core, tid, HwCtlOp::ProfileLcr) {
                self.report.profiles.push(ProfileEvent {
                    site: None,
                    role: crate::ir::ProfileRole::FailureSite,
                    thread: tid,
                    step: self.steps,
                    data: ProfileData::Lcr(records),
                });
            }
        }
    }

    /// Current (function, location, pc) of a thread, off the flat side
    /// tables (which cover statements and terminators uniformly).
    fn position(&self, tid: ThreadId) -> (FuncId, SourceLoc, u64) {
        let Some(frame) = self.scratch.threads[tid.index()].frames.last() else {
            return (self.m.program.entry, SourceLoc::UNKNOWN, 0);
        };
        let ff = &self.m.flat.funcs[frame.func as usize];
        let ip = frame.ip as usize;
        (FuncId::new(frame.func), ff.loc[ip], ff.pc[ip])
    }

    /// Reads register `r` of the frame whose arena base is `base`.
    #[inline]
    fn reg(&self, tid: ThreadId, base: usize, r: u32) -> i64 {
        self.scratch.threads[tid.index()].regs[base + r as usize]
    }

    /// Evaluates a pre-decoded operand against the current frame.
    #[inline]
    fn val(&self, tid: ThreadId, base: usize, v: Val) -> i64 {
        match v {
            Val::C(c) => c,
            Val::V(r) => self.reg(tid, base, r),
        }
    }

    #[inline]
    fn set_reg(&mut self, tid: ThreadId, base: usize, r: u32, value: i64) {
        self.scratch.threads[tid.index()].regs[base + r as usize] = value;
    }

    /// Buffers a retired-branch event (flushing at capacity).
    fn emit_branch(&mut self, tid: ThreadId, from: u64, to: u64, kind: BranchKind, ring: Ring) {
        let core = self.core_of(tid);
        self.scratch.events.push(HwEvent::Branch {
            core,
            ev: BranchEvent {
                from,
                to,
                kind,
                ring,
            },
        });
        self.report.branches_retired += 1;
        if self.scratch.events.len() >= EVENT_BATCH {
            self.flush_events();
        }
    }

    /// Delivers all buffered retirement events to the hardware, in order.
    fn flush_events(&mut self) {
        if !self.scratch.events.is_empty() {
            self.hw.on_batch(&self.scratch.events);
            self.scratch.events.clear();
        }
    }

    /// A hardware control call; buffered events are flushed first so the
    /// hardware observes them in exactly the per-event order.
    fn ctl(&mut self, core: CoreId, tid: ThreadId, op: HwCtlOp) -> CtlResponse {
        self.flush_events();
        self.hw.ctl(core, tid, op)
    }

    /// Emits the kernel-side branches of a syscall/ioctl at `pc`.
    fn emit_kernel_branches(&mut self, tid: ThreadId, pc: u64, conds: u8) {
        const KERNEL_BASE: u64 = 0xffff_8000_0000_0000;
        self.emit_branch(tid, pc, KERNEL_BASE, BranchKind::Far, Ring::Kernel);
        for i in 0..conds {
            self.emit_branch(
                tid,
                KERNEL_BASE + 8 * i as u64,
                KERNEL_BASE + 0x100 + 8 * i as u64,
                BranchKind::CondJump,
                Ring::Kernel,
            );
        }
        self.emit_branch(
            tid,
            KERNEL_BASE + 0x200,
            pc + SLOT,
            BranchKind::Far,
            Ring::Kernel,
        );
    }

    /// Performs a checked data access: fault check first (a faulting access
    /// never retires), then the cache/hardware notification, then the
    /// actual memory operation.
    fn access(
        &mut self,
        tid: ThreadId,
        pc: u64,
        addr: u64,
        kind: AccessKind,
        write_value: Option<i64>,
    ) -> Result<i64, FailureKind> {
        if !self.scratch.mem.is_mapped(addr) {
            return Err(FailureKind::Segfault { addr });
        }
        let core = self.core_of(tid);
        self.scratch.events.push(HwEvent::Access {
            core,
            thread: tid,
            ev: AccessEvent {
                pc,
                addr,
                kind,
                ring: Ring::User,
            },
        });
        if self.scratch.events.len() >= EVENT_BATCH {
            self.flush_events();
        }
        self.report.accesses_retired += 1;
        match kind {
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
        }
        match write_value {
            Some(v) => {
                self.scratch.mem.write(addr, v).map_err(fault_to_failure)?;
                Ok(v)
            }
            None => self.scratch.mem.read(addr).map_err(fault_to_failure),
        }
    }

    /// Pushes a call frame: depth check, branch event, argument copy into
    /// the register arena, stack accounting.
    #[allow(clippy::too_many_arguments)]
    fn do_call(
        &mut self,
        tid: ThreadId,
        base: usize,
        pc: u64,
        dst: Option<u32>,
        target: u32,
        entry: u64,
        args: &[Val],
        kind: BranchKind,
    ) -> Flow {
        if self.scratch.threads[tid.index()].frames.len() >= MAX_CALL_DEPTH {
            return Flow::Fault(FailureKind::StackOverflow);
        }
        self.emit_branch(tid, pc, entry, kind, Ring::User);
        let f = &self.m.flat.funcs[target as usize];
        let (params, num_vars, frame_slots) =
            (f.params as usize, f.num_vars as usize, f.frame_slots as u64);
        let t = &mut self.scratch.threads[tid.index()];
        let nbase = t.regs.len();
        t.regs.resize(nbase + num_vars, 0);
        for (i, a) in args.iter().enumerate().take(params) {
            t.regs[nbase + i] = match *a {
                Val::C(c) => c,
                Val::V(r) => t.regs[base + r as usize],
            };
        }
        let stack_base = STACK_BASE + tid.0 as u64 * STACK_STRIDE + t.sp;
        t.sp += frame_slots * 8;
        if t.sp >= STACK_STRIDE / 2 {
            return Flow::Fault(FailureKind::StackOverflow);
        }
        t.frames.push(Frame {
            func: target,
            block: 0,
            ip: 0,
            vars_base: nbase as u32,
            stack_base,
            ret_dst: dst,
            ret_pc: pc + SLOT,
        });
        Flow::Jumped
    }

    fn step(&mut self, tid: ThreadId) -> Flow {
        // Borrow the flat code through the machine's own lifetime so the
        // instruction stays readable while execution state is mutated.
        let m: &'m Machine = self.m;
        let (fi, ip, base, sbase) = {
            let f = self.scratch.threads[tid.index()]
                .frames
                .last()
                .expect("running thread has a frame");
            (
                f.func as usize,
                f.ip as usize,
                f.vars_base as usize,
                f.stack_base,
            )
        };
        let ff = &m.flat.funcs[fi];
        let op = &ff.code[ip];
        let pc = ff.pc[ip];
        match op {
            Op::AssignConst { dst, value } => {
                self.set_reg(tid, base, *dst, *value);
                Flow::Next
            }
            Op::AssignVar { dst, src } => {
                let v = self.reg(tid, base, *src);
                self.set_reg(tid, base, *dst, v);
                Flow::Next
            }
            Op::BinVV { op, dst, lhs, rhs } => {
                let l = self.reg(tid, base, *lhs);
                let r = self.reg(tid, base, *rhs);
                match eval_bin(*op, l, r) {
                    Some(v) => {
                        self.set_reg(tid, base, *dst, v);
                        Flow::Next
                    }
                    None => Flow::Fault(FailureKind::DivByZero),
                }
            }
            Op::BinVC { op, dst, lhs, rhs } => {
                let l = self.reg(tid, base, *lhs);
                match eval_bin(*op, l, *rhs) {
                    Some(v) => {
                        self.set_reg(tid, base, *dst, v);
                        Flow::Next
                    }
                    None => Flow::Fault(FailureKind::DivByZero),
                }
            }
            Op::BinCV { op, dst, lhs, rhs } => {
                let r = self.reg(tid, base, *rhs);
                match eval_bin(*op, *lhs, r) {
                    Some(v) => {
                        self.set_reg(tid, base, *dst, v);
                        Flow::Next
                    }
                    None => Flow::Fault(FailureKind::DivByZero),
                }
            }
            Op::Unary { op, dst, operand } => {
                let v = self.reg(tid, base, *operand);
                let value = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                    UnOp::BitNot => !v,
                };
                self.set_reg(tid, base, *dst, value);
                Flow::Next
            }
            Op::ReadInput { dst, index } => {
                let i = self.val(tid, base, *index);
                if i < 0 {
                    return Flow::Fault(FailureKind::NegativeInputIndex { index: i });
                }
                let value = usize::try_from(i)
                    .ok()
                    .and_then(|i| self.inputs.get(i).copied())
                    .unwrap_or(0);
                self.set_reg(tid, base, *dst, value);
                Flow::Next
            }
            Op::ConstDivByZero => Flow::Fault(FailureKind::DivByZero),
            Op::Load { dst, addr, disp } => {
                let a = self.val(tid, base, *addr).wrapping_add(*disp) as u64;
                match self.access(tid, pc, a, AccessKind::Load, None) {
                    Ok(v) => {
                        self.set_reg(tid, base, *dst, v);
                        Flow::Next
                    }
                    Err(k) => Flow::Fault(k),
                }
            }
            Op::Store { addr, disp, value } => {
                let a = self.val(tid, base, *addr).wrapping_add(*disp) as u64;
                let v = self.val(tid, base, *value);
                match self.access(tid, pc, a, AccessKind::Store, Some(v)) {
                    Ok(_) => Flow::Next,
                    Err(k) => Flow::Fault(k),
                }
            }
            Op::StackLoad { dst, slot } => {
                let a = sbase + *slot as u64 * 8;
                match self.access(tid, pc, a, AccessKind::Load, None) {
                    Ok(v) => {
                        self.set_reg(tid, base, *dst, v);
                        Flow::Next
                    }
                    Err(k) => Flow::Fault(k),
                }
            }
            Op::StackStore { slot, value } => {
                let a = sbase + *slot as u64 * 8;
                let v = self.val(tid, base, *value);
                match self.access(tid, pc, a, AccessKind::Store, Some(v)) {
                    Ok(_) => Flow::Next,
                    Err(k) => Flow::Fault(k),
                }
            }
            Op::Alloc { dst, words } => {
                let w = self.val(tid, base, *words).max(0) as u64;
                let heap_base = self.scratch.mem.alloc(w);
                self.set_reg(tid, base, *dst, heap_base as i64);
                Flow::Next
            }
            Op::Free { addr } => {
                let a = self.val(tid, base, *addr) as u64;
                match self.scratch.mem.free(a) {
                    Ok(()) => Flow::Next,
                    Err(MemFault::InvalidFree { addr }) => {
                        Flow::Fault(FailureKind::InvalidFree { addr })
                    }
                    Err(MemFault::Unmapped { addr }) => Flow::Fault(FailureKind::Segfault { addr }),
                }
            }
            Op::CallDirect {
                dst,
                target,
                entry,
                args,
            } => self.do_call(
                tid,
                base,
                pc,
                *dst,
                *target,
                *entry,
                args,
                BranchKind::NearRelCall,
            ),
            Op::CallIndirect {
                dst,
                targets,
                selector,
                args,
            } => {
                let s = self.val(tid, base, *selector);
                let idx = (s.rem_euclid(targets.len() as i64)) as usize;
                let (target, entry) = targets[idx];
                self.do_call(
                    tid,
                    base,
                    pc,
                    *dst,
                    target,
                    entry,
                    args,
                    BranchKind::NearIndCall,
                )
            }
            Op::Spawn { dst, func, args } => {
                let new_tid = self.spawn_thread(*func);
                let params = self.m.flat.funcs[*func as usize].params as usize;
                for (i, a) in args.iter().enumerate().take(params) {
                    let v = self.val(tid, base, *a);
                    self.scratch.threads[new_tid.index()].regs[i] = v;
                }
                self.set_reg(tid, base, *dst, new_tid.0 as i64);
                Flow::Next
            }
            Op::Join { thread } => {
                let t = self.val(tid, base, *thread);
                let target = ThreadId(t.max(0) as u32);
                if target.index() >= self.scratch.threads.len() {
                    return Flow::Next; // joining a never-spawned thread is a no-op
                }
                if self.scratch.threads[target.index()].status == Status::Done {
                    Flow::Next
                } else {
                    self.scratch.threads[tid.index()].status = Status::BlockedJoin(target);
                    Flow::Blocked
                }
            }
            Op::Lock { addr } => {
                let a = self.val(tid, base, *addr) as u64;
                if !self.scratch.mem.is_mapped(a) {
                    return Flow::Fault(FailureKind::Segfault { addr: a });
                }
                let held = self.scratch.mem.read(a).unwrap_or(0);
                if held == 0 {
                    match self.access(tid, pc, a, AccessKind::Store, Some(tid.0 as i64 + 1)) {
                        Ok(_) => {
                            if self.cfg.profile_period != 0 {
                                self.record_lock_acquired(tid, a, pc);
                            }
                            Flow::Next
                        }
                        Err(k) => Flow::Fault(k),
                    }
                } else {
                    // Failed acquisition: observe the lock word, then sleep.
                    if let Err(k) = self.access(tid, pc, a, AccessKind::Load, None) {
                        return Flow::Fault(k);
                    }
                    if self.cfg.profile_period != 0 {
                        self.record_lock_blocked(tid, a, held);
                    }
                    self.scratch.threads[tid.index()].status = Status::BlockedLock(a);
                    Flow::Blocked
                }
            }
            Op::Unlock { addr } => {
                let a = self.val(tid, base, *addr) as u64;
                match self.access(tid, pc, a, AccessKind::Store, Some(0)) {
                    Ok(_) => Flow::Next,
                    Err(k) => Flow::Fault(k),
                }
            }
            Op::Output { value } => {
                let v = self.val(tid, base, *value);
                self.report.outputs.push(v);
                Flow::Next
            }
            Op::Log { site, kind } => {
                self.report.logs.push(LogEvent {
                    site: *site,
                    kind: *kind,
                    thread: tid,
                    step: self.steps,
                });
                self.emit_kernel_branches(tid, pc, 2);
                Flow::Next
            }
            Op::HwCtl { op, site, role } => {
                let core = self.core_of(tid);
                match op {
                    HwCtlOp::ProfileLbr => {
                        // The access path executes no user-level branches;
                        // the ioctl's kernel branches happen after the read.
                        let resp = self.ctl(core, tid, *op);
                        if let CtlResponse::Lbr(records) = resp {
                            self.report.profiles.push(ProfileEvent {
                                site: *site,
                                role: *role,
                                thread: tid,
                                step: self.steps,
                                data: ProfileData::Lbr(records),
                            });
                        }
                        self.emit_kernel_branches(tid, pc, 1);
                    }
                    HwCtlOp::ProfileLcr => {
                        let resp = self.ctl(core, tid, *op);
                        if let CtlResponse::Lcr(records) = resp {
                            self.report.profiles.push(ProfileEvent {
                                site: *site,
                                role: *role,
                                thread: tid,
                                step: self.steps,
                                data: ProfileData::Lcr(records),
                            });
                        }
                        self.emit_kernel_branches(tid, pc, 1);
                    }
                    HwCtlOp::DisableLbr | HwCtlOp::DisableLcr => {
                        // Kernel entry happens first, then the facility is
                        // disabled inside the driver.
                        self.emit_kernel_branches(tid, pc, 1);
                        self.ctl(core, tid, *op);
                    }
                    _ => {
                        // Enable/clean/config: the facility switches state
                        // inside the driver; the return path branches are
                        // visible to an unfiltered LBR.
                        self.ctl(core, tid, *op);
                        self.emit_kernel_branches(tid, pc, 1);
                    }
                }
                Flow::Next
            }
            Op::Sample { id, value } => {
                let t = &mut self.scratch.threads[tid.index()];
                t.countdown = t.countdown.saturating_sub(1);
                if t.countdown == 0 {
                    t.countdown = self.sample_rng.next_countdown(self.cfg.sample_mean);
                    let v = self.val(tid, base, *value);
                    self.report.samples.push(SampleEvent {
                        id: *id,
                        value: v,
                        thread: tid,
                        step: self.steps,
                    });
                }
                Flow::Next
            }
            Op::Assert { cond, message } => {
                if self.val(tid, base, *cond) == 0 {
                    Flow::Fault(FailureKind::AssertFailed {
                        message: message.to_string(),
                    })
                } else {
                    Flow::Next
                }
            }
            Op::Exit { code } => Flow::Exit(self.val(tid, base, *code)),
            Op::Nop => Flow::Next,
            Op::Br {
                cond,
                then_blk,
                then_ip,
                then_to,
                else_blk,
                else_ip,
                else_to,
            } => {
                let taken_then = self.val(tid, base, *cond) != 0;
                let (blk, nip, from, to, kind) = if taken_then {
                    // Fall-through unconditional jump on the true edge.
                    (
                        *then_blk,
                        *then_ip,
                        pc + SLOT,
                        *then_to,
                        BranchKind::UncondRelative,
                    )
                } else {
                    // Taken conditional jump on the false edge.
                    (*else_blk, *else_ip, pc, *else_to, BranchKind::CondJump)
                };
                self.emit_branch(tid, from, to, kind, Ring::User);
                let f = self.scratch.threads[tid.index()]
                    .frames
                    .last_mut()
                    .expect("running thread has a frame");
                f.block = blk;
                f.ip = nip;
                Flow::Jumped
            }
            Op::Jmp {
                target_blk,
                target_ip,
                to,
                record,
            } => {
                if *record {
                    self.emit_branch(tid, pc, *to, BranchKind::UncondRelative, Ring::User);
                }
                let f = self.scratch.threads[tid.index()]
                    .frames
                    .last_mut()
                    .expect("running thread has a frame");
                f.block = *target_blk;
                f.ip = *target_ip;
                Flow::Jumped
            }
            Op::Ret { value } => {
                let v = value.map(|val| self.val(tid, base, val)).unwrap_or(0);
                let t = &mut self.scratch.threads[tid.index()];
                let done_frame = t.frames.pop().expect("running thread has a frame");
                t.regs.truncate(done_frame.vars_base as usize);
                let slots = m.flat.funcs[done_frame.func as usize].frame_slots;
                t.sp = t.sp.saturating_sub(slots as u64 * 8);
                self.emit_branch(
                    tid,
                    pc,
                    done_frame.ret_pc,
                    BranchKind::NearReturn,
                    Ring::User,
                );
                let t = &mut self.scratch.threads[tid.index()];
                if t.frames.is_empty() {
                    t.status = Status::Done;
                    return Flow::Jumped;
                }
                let (frames, regs) = (&mut t.frames, &mut t.regs);
                let caller = frames.last_mut().expect("caller frame");
                if let Some(dst) = done_frame.ret_dst {
                    regs[caller.vars_base as usize + dst as usize] = v;
                }
                caller.ip += 1; // move past the call
                Flow::Jumped
            }
        }
    }
}

pub(crate) fn eval_bin(op: BinOp, l: i64, r: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return None;
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return None;
            }
            l.wrapping_rem(r)
        }
        BinOp::And => l & r,
        BinOp::Or => l | r,
        BinOp::Xor => l ^ r,
        BinOp::Shl => l.wrapping_shl(r as u32),
        BinOp::Shr => l.wrapping_shr(r as u32),
        BinOp::Eq => i64::from(l == r),
        BinOp::Ne => i64::from(l != r),
        BinOp::Lt => i64::from(l < r),
        BinOp::Le => i64::from(l <= r),
        BinOp::Gt => i64::from(l > r),
        BinOp::Ge => i64::from(l >= r),
    })
}

fn fault_to_failure(f: MemFault) -> FailureKind {
    match f {
        MemFault::Unmapped { addr } => FailureKind::Segfault { addr },
        MemFault::InvalidFree { addr } => FailureKind::InvalidFree { addr },
    }
}

// Send/Sync audit: the parallel collection engine (stm-core) shares one
// `Machine` across its worker threads and moves run reports back over
// channels.
// These assertions fail to compile if anyone introduces interior
// mutability or thread-bound state (Rc, RefCell, raw pointers) into the
// interpreter's plain-data types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<crate::ir::Program>();
    assert_send_sync::<RunConfig>();
    assert_send_sync::<crate::report::RunReport>();
    assert_send_sync::<RunScratch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::events::NullHardware;
    use crate::ir::{LogKind, Operand};

    fn run(p: Program, inputs: &[i64]) -> RunReport {
        let m = Machine::new(p);
        m.run(inputs, &RunConfig::default(), &mut NullHardware)
    }

    #[test]
    fn arithmetic_and_output() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let x = f.read_input(0);
        let y = f.bin(BinOp::Mul, x, 3);
        let z = f.bin(BinOp::Add, y, 1);
        f.output(z);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[7]);
        assert!(r.outcome.is_completed());
        assert_eq!(r.outputs, vec![22]);
    }

    #[test]
    fn branching_selects_the_right_path() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let t = f.new_block();
        let e = f.new_block();
        let x = f.read_input(0);
        f.br(x, t, e);
        f.set_block(t);
        f.output(1);
        f.ret(None);
        f.set_block(e);
        f.output(2);
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let m = Machine::new(p);
        let cfg = RunConfig::default();
        let r1 = m.run(&[5], &cfg, &mut NullHardware);
        assert_eq!(r1.outputs, vec![1]);
        let r0 = m.run(&[0], &cfg, &mut NullHardware);
        assert_eq!(r0.outputs, vec![2]);
    }

    #[test]
    fn loop_sums_inputs() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        let n = f.read_input(0);
        let i = f.var();
        let sum = f.var();
        f.assign(i, 0);
        f.assign(sum, 0);
        f.jmp(header);
        f.set_block(header);
        let c = f.bin(BinOp::Lt, i, n);
        f.br(c, body, exit);
        f.set_block(body);
        let i1 = f.bin(BinOp::Add, i, 1);
        let v = f.read_input(i1);
        f.assign_bin(sum, BinOp::Add, sum, v);
        f.assign(i, i1);
        f.jmp(header);
        f.set_block(exit);
        f.output(sum);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[3, 10, 20, 30]);
        assert_eq!(r.outputs, vec![60]);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let add = pb.declare_function("add");
        {
            let mut f = pb.build_function(add, "lib.c");
            let ps = f.params(2);
            let s = f.bin(BinOp::Add, ps[0], ps[1]);
            f.ret(Some(s.into()));
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let r = f.call(add, &[Operand::Const(4), Operand::Const(5)]);
            f.output(r);
            f.ret(None);
            f.finish();
        }
        let r = run(pb.finish(main), &[]);
        assert_eq!(r.outputs, vec![9]);
    }

    #[test]
    fn recursion_works_and_overflow_is_detected() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let rec = pb.declare_function("rec");
        {
            let mut f = pb.build_function(rec, "lib.c");
            let ps = f.params(1);
            let base = f.new_block();
            let step = f.new_block();
            let c = f.bin(BinOp::Le, ps[0], 0);
            f.br(c, base, step);
            f.set_block(base);
            f.ret(Some(Operand::Const(0)));
            f.set_block(step);
            let n1 = f.bin(BinOp::Sub, ps[0], 1);
            let sub = f.call(rec, &[n1.into()]);
            let s = f.bin(BinOp::Add, sub, ps[0]);
            f.ret(Some(s.into()));
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let n = f.read_input(0);
            let r = f.call(rec, &[n.into()]);
            f.output(r);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let m = Machine::new(p);
        let cfg = RunConfig::default();
        let ok = m.run(&[10], &cfg, &mut NullHardware);
        assert_eq!(ok.outputs, vec![55]);
        let deep = m.run(&[100_000], &cfg, &mut NullHardware);
        assert_eq!(
            deep.outcome.failure().map(|f| &f.kind),
            Some(&FailureKind::StackOverflow)
        );
    }

    #[test]
    fn globals_heap_and_segfault() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global_init("g", 2, vec![11, 22]);
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let v = f.load(g as i64, 8);
        f.output(v);
        let buf = f.alloc(4);
        f.store(buf, 0, 99);
        let w = f.load(buf, 0);
        f.output(w);
        let _crash = f.load(0i64, 0);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[]);
        assert_eq!(r.outputs, vec![22, 99]);
        match r.outcome.failure() {
            Some(Failure {
                kind: FailureKind::Segfault { addr: 0 },
                ..
            }) => {}
            other => panic!("expected segfault, got {other:?}"),
        }
    }

    #[test]
    fn div_by_zero_faults() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let x = f.read_input(0);
        let _ = f.bin(BinOp::Div, 10, x);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[0]);
        assert_eq!(
            r.outcome.failure().map(|f| &f.kind),
            Some(&FailureKind::DivByZero)
        );
    }

    #[test]
    fn negative_read_input_index_faults() {
        // inputs[0] = -3 feeds back in as an index: a typed guest fault,
        // not a silent zero (bad ground truth must not mask itself).
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let x = f.read_input(0);
        let _ = f.read_input(x);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[-3]);
        match r.outcome.failure() {
            Some(Failure {
                kind: FailureKind::NegativeInputIndex { index: -3 },
                ..
            }) => {}
            other => panic!("expected negative-input-index fault, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_read_input_reads_zero() {
        // Reading past the end of the input vector stays the documented
        // zero sentinel (workloads are logically zero-padded).
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let v = f.read_input(5);
        f.output(v);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[1]);
        assert!(r.outcome.is_completed());
        assert_eq!(r.outputs, vec![0]);
    }

    #[test]
    fn assert_failure_reports_message() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let x = f.read_input(0);
        f.assert(x, "input must be non-zero");
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[0]);
        match r.outcome.failure() {
            Some(Failure {
                kind: FailureKind::AssertFailed { message },
                ..
            }) => assert_eq!(message, "input must be non-zero"),
            other => panic!("expected assert failure, got {other:?}"),
        }
    }

    #[test]
    fn spawn_join_and_shared_memory() {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("shared", 1);
        let main = pb.declare_function("main");
        let worker = pb.declare_function("worker");
        {
            let mut f = pb.build_function(worker, "w.c");
            let ps = f.params(1);
            f.store(g as i64, 0, ps[0]);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let t = f.spawn(worker, &[Operand::Const(77)]);
            f.join(t);
            let v = f.load(g as i64, 0);
            f.output(v);
            f.ret(None);
            f.finish();
        }
        let r = run(pb.finish(main), &[]);
        assert!(r.outcome.is_completed());
        assert_eq!(r.outputs, vec![77]);
        assert_eq!(r.threads_spawned, 2);
        // The flight-recorder context covers both threads in spawn order;
        // the worker finished (joined), so it reads as done.
        assert_eq!(r.thread_states.len(), 2);
        assert_eq!(r.thread_states[0].thread, ThreadId::MAIN);
        assert_eq!(r.thread_states[1].thread, ThreadId(1));
        assert_eq!(r.thread_states[1].status, crate::report::FinalStatus::Done);
        assert!(r.thread_states[0].last_step >= r.thread_states[1].last_step);
    }

    #[test]
    fn deadlock_records_blocked_thread_states() {
        // Main locks the mutex and joins a worker that also wants it:
        // a guaranteed deadlock whose final states name the lock address.
        let mut pb = ProgramBuilder::new("p");
        let mutex = pb.global("mutex", 1);
        let main = pb.declare_function("main");
        let worker = pb.declare_function("worker");
        {
            let mut f = pb.build_function(worker, "w.c");
            f.lock(mutex as i64);
            f.unlock(mutex as i64);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            f.lock(mutex as i64);
            let t = f.spawn(worker, &[]);
            f.join(t);
            f.unlock(mutex as i64);
            f.ret(None);
            f.finish();
        }
        let r = run(pb.finish(main), &[]);
        assert!(matches!(
            r.outcome.failure().map(|f| &f.kind),
            Some(FailureKind::Deadlock)
        ));
        use crate::report::FinalStatus;
        assert_eq!(r.thread_states.len(), 2);
        assert_eq!(
            r.thread_states[0].status,
            FinalStatus::BlockedJoin(ThreadId(1))
        );
        assert_eq!(r.thread_states[1].status, FinalStatus::BlockedLock(mutex));
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        // Two threads increment a shared counter 100 times each under a
        // lock; with mutual exclusion the result is exactly 200.
        let mut pb = ProgramBuilder::new("p");
        let mutex = pb.global("mutex", 1);
        let counter = pb.global("counter", 1);
        let main = pb.declare_function("main");
        let worker = pb.declare_function("worker");
        {
            let mut f = pb.build_function(worker, "w.c");
            let header = f.new_block();
            let body = f.new_block();
            let done = f.new_block();
            let i = f.var();
            f.assign(i, 0);
            f.jmp(header);
            f.set_block(header);
            let c = f.bin(BinOp::Lt, i, 100);
            f.br(c, body, done);
            f.set_block(body);
            f.lock(mutex as i64);
            let v = f.load(counter as i64, 0);
            let v1 = f.bin(BinOp::Add, v, 1);
            f.store(counter as i64, 0, v1);
            f.unlock(mutex as i64);
            f.assign_bin(i, BinOp::Add, i, 1);
            f.jmp(header);
            f.set_block(done);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let t1 = f.spawn(worker, &[]);
            let t2 = f.spawn(worker, &[]);
            f.join(t1);
            f.join(t2);
            let v = f.load(counter as i64, 0);
            f.output(v);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let m = Machine::new(p);
        for seed in 0..5 {
            let r = m.run(&[], &RunConfig::with_seed(seed), &mut NullHardware);
            assert!(r.outcome.is_completed(), "seed {seed}: {:?}", r.outcome);
            assert_eq!(r.outputs, vec![200], "seed {seed}");
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let mut pb = ProgramBuilder::new("p");
        let m1 = pb.global("m1", 1);
        let m2 = pb.global("m2", 1);
        let main = pb.declare_function("main");
        let worker = pb.declare_function("worker");
        {
            let mut f = pb.build_function(worker, "w.c");
            f.lock(m2 as i64);
            f.yield_now();
            f.lock(m1 as i64);
            f.unlock(m1 as i64);
            f.unlock(m2 as i64);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            f.lock(m1 as i64);
            let t = f.spawn(worker, &[]);
            // Give the worker a chance to grab m2 before we try it.
            for _ in 0..32 {
                f.yield_now();
            }
            f.lock(m2 as i64);
            f.unlock(m2 as i64);
            f.unlock(m1 as i64);
            f.join(t);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let m = Machine::new(p);
        let deadlocked = (0..20).any(|seed| {
            let r = m.run(&[], &RunConfig::with_seed(seed), &mut NullHardware);
            matches!(
                r.outcome.failure().map(|f| &f.kind),
                Some(FailureKind::Deadlock)
            )
        });
        assert!(deadlocked, "no seed produced the deadlock");
    }

    #[test]
    fn hang_watchdog_fires() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let spin = f.new_block();
        f.jmp(spin);
        f.set_block(spin);
        f.jmp(spin);
        f.finish();
        let p = pb.finish(main);
        let m = Machine::new(p);
        let cfg = RunConfig {
            max_steps: 1000,
            ..RunConfig::default()
        };
        let r = m.run(&[], &cfg, &mut NullHardware);
        assert_eq!(
            r.outcome.failure().map(|f| &f.kind),
            Some(&FailureKind::Hang)
        );
    }

    #[test]
    fn exit_stops_everything() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.exit(3);
        f.output(9); // never reached
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[]);
        assert_eq!(r.outcome, RunOutcome::Completed { exit_code: 3 });
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn logs_are_recorded_with_sites() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let s = f.log_error("bad config");
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let site = s;
        let r = run(p, &[]);
        assert!(r.logged_error());
        assert!(r.logged_site(site));
        assert_eq!(r.logs[0].kind, LogKind::Error);
    }

    #[test]
    fn use_after_free_segfaults() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let a = f.alloc(2);
        f.store(a, 0, 5);
        f.free(a);
        let _ = f.load(a, 0);
        f.ret(None);
        f.finish();
        let r = run(pb.finish(main), &[]);
        assert!(matches!(
            r.outcome.failure().map(|f| &f.kind),
            Some(FailureKind::Segfault { .. })
        ));
    }

    /// The seeded two-spawn race used by the determinism tests.
    fn racy_program() -> Program {
        let mut pb = ProgramBuilder::new("p");
        let g = pb.global("g", 1);
        let main = pb.declare_function("main");
        let worker = pb.declare_function("worker");
        {
            let mut f = pb.build_function(worker, "w.c");
            let ps = f.params(1);
            f.store(g as i64, 0, ps[0]);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let t1 = f.spawn(worker, &[Operand::Const(1)]);
            let t2 = f.spawn(worker, &[Operand::Const(2)]);
            f.join(t1);
            f.join(t2);
            let v = f.load(g as i64, 0);
            f.output(v);
            f.ret(None);
            f.finish();
        }
        pb.finish(main)
    }

    #[test]
    fn runs_are_deterministic_for_fixed_seed() {
        let m = Machine::new(racy_program());
        let r1 = m.run(&[], &RunConfig::with_seed(9), &mut NullHardware);
        let r2 = m.run(&[], &RunConfig::with_seed(9), &mut NullHardware);
        assert_eq!(r1.outputs, r2.outputs);
        assert_eq!(r1.steps, r2.steps);
    }

    #[test]
    fn scratch_reuse_replays_identically() {
        // One scratch, reused across repeated runs, a multithreaded
        // program (thread-state recycling) and a different machine: every
        // run must be byte-identical to a fresh-scratch run.
        let racy = Machine::new(racy_program());
        let cfg = RunConfig::with_seed(9);
        let mut scratch = RunScratch::new();
        let fresh = racy.run(&[], &cfg, &mut NullHardware);
        let r1 = racy.run_reusing(&[], &cfg, &mut NullHardware, &mut scratch);
        let r2 = racy.run_reusing(&[], &cfg, &mut NullHardware, &mut scratch);
        assert_eq!(fresh, r1);
        assert_eq!(fresh, r2);

        // Same scratch against a different program and workload.
        let m2 = Machine::new(looping_program());
        let cfg2 = RunConfig {
            profile_period: 10,
            ..RunConfig::with_seed(3)
        };
        let fresh2 = m2.run(&[50], &cfg2, &mut NullHardware);
        let r3 = m2.run_reusing(&[50], &cfg2, &mut NullHardware, &mut scratch);
        assert_eq!(fresh2, r3);
    }

    #[test]
    fn indirect_calls_dispatch_by_selector() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let f1 = pb.declare_function("one");
        let f2 = pb.declare_function("two");
        for (fid, v) in [(f1, 1i64), (f2, 2)] {
            let mut f = pb.build_function(fid, "lib.c");
            f.ret(Some(Operand::Const(v)));
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let sel = f.read_input(0);
            let r = f.call_indirect(vec![f1, f2], sel, &[]);
            f.output(r);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let m = Machine::new(p);
        let cfg = RunConfig::default();
        assert_eq!(m.run(&[0], &cfg, &mut NullHardware).outputs, vec![1]);
        assert_eq!(m.run(&[1], &cfg, &mut NullHardware).outputs, vec![2]);
    }

    /// main calls `work`, which loops `n` times — deep enough stacks and
    /// enough steps for the sampling countdown to fire repeatedly.
    fn looping_program() -> Program {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let work = pb.declare_function("work");
        {
            let mut f = pb.build_function(work, "lib.c");
            let ps = f.params(1);
            let header = f.new_block();
            let body = f.new_block();
            let done = f.new_block();
            let i = f.var();
            f.assign(i, 0);
            f.jmp(header);
            f.set_block(header);
            let c = f.bin(BinOp::Lt, i, ps[0]);
            f.br(c, body, done);
            f.set_block(body);
            f.assign_bin(i, BinOp::Add, i, 1);
            f.jmp(header);
            f.set_block(done);
            f.ret(Some(i.into()));
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            let n = f.read_input(0);
            let r = f.call(work, &[n.into()]);
            f.output(r);
            f.ret(None);
            f.finish();
        }
        pb.finish(main)
    }

    #[test]
    fn guest_sampling_fires_on_period_and_replays_identically() {
        let m = Machine::new(looping_program());
        let cfg = RunConfig {
            profile_period: 10,
            ..RunConfig::with_seed(3)
        };
        let r1 = m.run(&[50], &cfg, &mut NullHardware);
        let r2 = m.run(&[50], &cfg, &mut NullHardware);
        // One sample per full period, at exact period multiples.
        assert_eq!(r1.stack_samples.len() as u64, r1.steps / 10);
        assert!(!r1.stack_samples.is_empty());
        for s in &r1.stack_samples {
            assert_eq!(s.step % 10, 0);
            assert!(!s.frames.is_empty());
            assert_eq!(s.frames[0].0, FuncId::new(0), "outermost frame is main");
        }
        // Most of the run sits inside work(): some sample must see the
        // two-deep main -> work stack.
        assert!(r1.stack_samples.iter().any(|s| s.frames.len() == 2));
        // The sample stream is as deterministic as the run.
        assert_eq!(r1.stack_samples, r2.stack_samples);
        assert_eq!(r1.steps, r2.steps);
    }

    #[test]
    fn guest_sampling_disabled_records_nothing_and_changes_nothing() {
        let m = Machine::new(looping_program());
        let plain = RunConfig::with_seed(3);
        let profiled = RunConfig {
            profile_period: 7,
            ..RunConfig::with_seed(3)
        };
        let r_plain = m.run(&[50], &plain, &mut NullHardware);
        let r_prof = m.run(&[50], &profiled, &mut NullHardware);
        assert!(r_plain.stack_samples.is_empty());
        assert!(r_plain.lock_waits.is_empty());
        // Profiling observes the run without perturbing it.
        assert_eq!(r_plain.outputs, r_prof.outputs);
        assert_eq!(r_plain.steps, r_prof.steps);
        assert_eq!(r_plain.outcome, r_prof.outcome);
    }

    #[test]
    fn guest_lock_profile_attributes_holder_and_wait() {
        // Main grabs the mutex, spawns a worker that wants it, and holds
        // on through a pile of yields: the worker's acquisition must be
        // recorded with main as the holder and a nonzero wait.
        let mut pb = ProgramBuilder::new("p");
        let mutex = pb.global("mutex", 1);
        let main = pb.declare_function("main");
        let worker = pb.declare_function("worker");
        {
            let mut f = pb.build_function(worker, "w.c");
            f.lock(mutex as i64);
            f.unlock(mutex as i64);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            f.lock(mutex as i64);
            let t = f.spawn(worker, &[]);
            for _ in 0..64 {
                f.yield_now();
            }
            f.unlock(mutex as i64);
            f.join(t);
            f.ret(None);
            f.finish();
        }
        let m = Machine::new(pb.finish(main));
        let contended = (0..10).find_map(|seed| {
            let cfg = RunConfig {
                profile_period: 1,
                ..RunConfig::with_seed(seed)
            };
            let r = m.run(&[], &cfg, &mut NullHardware);
            assert!(r.outcome.is_completed(), "seed {seed}: {:?}", r.outcome);
            r.lock_waits.first().copied().map(|w| (seed, r.clone(), w))
        });
        let (seed, r, w) = contended.expect("some seed contends the lock");
        assert_eq!(w.addr, mutex);
        assert_eq!(w.waiter, ThreadId(1));
        assert_eq!(w.holder, Some(ThreadId::MAIN));
        assert!(w.wait_steps >= 1, "blocked at least one step");
        assert!(w.acquired_step > 0);
        // Replays identically.
        let cfg = RunConfig {
            profile_period: 1,
            ..RunConfig::with_seed(seed)
        };
        assert_eq!(m.run(&[], &cfg, &mut NullHardware).lock_waits, r.lock_waits);
    }
}
