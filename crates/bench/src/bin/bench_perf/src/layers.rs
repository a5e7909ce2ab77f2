//! Per-layer probes of a traced run. Each probe drives one layer through
//! its public API on the workload's own programs and inputs, so the
//! counts are a pure function of the seed and the times are costs per
//! unit of work in that layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use stm_core::converge::{SnapshotIngest, StabilityPolicy};
use stm_core::diagnose::{failure_profile, success_profile};
use stm_core::engine::CollectedProfiles;
use stm_core::profile::{lbr_events, lcr_events};
use stm_core::runner::Workload;
use stm_core::transform::instrument;
use stm_fleet::{FleetDaemon, Snapshot, SubmitOutcome};
use stm_forensics::CausalChain;
use stm_hardware::{CacheSystem, HardwareCtx, Lbr, Lcr};
use stm_machine::events::{
    AccessEvent, CoherenceState, CtlResponse, Hardware, HwCtlOp, HwEvent, NullHardware,
};
use stm_machine::ids::{CoreId, ThreadId};
use stm_machine::interp::{Machine, RunScratch};
use stm_machine::report::{ProfileData, RunReport};
use stm_machine::sched::SchedPolicy;

use crate::alloc;
use crate::stats::{median, Summary};
use crate::subject::Subject;
use crate::trace::span;
use crate::workloads::{
    pool_of, scan_jobs, scan_session, unbounded_shard, Measured, PoolEntry, Settings, BACKOFF,
    DIAGNOSE_THREADS, IN_FLIGHT,
};

/// Scan jobs probed per workload, split evenly over its programs.
const JOBS: usize = 2000;
/// Snapshots replayed per workload, split evenly over its programs.
const SNAPSHOTS: usize = 2000;
/// Repetitions of the short, allocation-heavy probes (instrument, lower,
/// decode, rank), reported as a median.
const REPS: usize = 20;

/// The per-layer metric names, in `BENCHMARK.json` order, with units.
pub const METRICS: [(&str, &str); 29] = [
    ("machine.ns_per_step", "ns"),
    ("machine.lower_us", "us"),
    ("machine.steps_per_run", "count"),
    ("transform.instrument_us", "us"),
    ("hardware.ns_per_event", "ns"),
    ("hardware.ctl_ns_per_run", "ns"),
    ("hardware.events_per_run", "count"),
    ("lbr.ns_per_push", "ns"),
    ("cache.ns_per_access", "ns"),
    ("cache.accesses_per_run", "count"),
    ("lcr.ns_per_push", "ns"),
    ("runner.us_per_run", "us"),
    ("runner.allocs_per_run", "count"),
    ("engine.overhead_pct", "%"),
    ("engine.session_us", "us"),
    ("engine.t2_speedup", "x"),
    ("engine.useful_run_ratio", "ratio"),
    ("profile.ns_per_record", "ns"),
    ("profile.records_per_snapshot", "count"),
    ("ranking.us_per_profile", "us"),
    ("ranking.events_per_profile", "count"),
    ("converge.us_per_observe", "us"),
    ("chain.us_per_build", "us"),
    ("chain.links", "count"),
    ("fleet.submit_ns_p50", "ns"),
    ("fleet.submit_ns_p99", "ns"),
    ("fleet.worker_share_pct", "%"),
    ("fleet.bytes_per_snapshot", "B"),
    ("trace.overhead_pct", "%"),
];

/// Work counts and busy times summed over the probed programs.
#[derive(Debug, Default)]
struct Totals {
    instrument_us: Vec<f64>,
    lower_us: Vec<f64>,
    runs: u64,
    null_ns: u64,
    steps: u64,
    batch_ns: u64,
    ctl_ns: u64,
    events: u64,
    branches: u64,
    accesses: u64,
    lbr_ns: u64,
    cache_ns: u64,
    lcr_ns: u64,
    tee_mismatches: u64,
    bare_ns: u64,
    allocs: u64,
    scan_t1_ns: u64,
    scan_t2_ns: u64,
    session_ns: u64,
    sessions: u64,
    kept: u64,
    consumed: u64,
    decode_ns: f64,
    records: u64,
    rank_ns: f64,
    profiles: u64,
    profile_events: u64,
    observe_ns: u64,
    chain_ns: u64,
    observes: u64,
    links: u64,
    chains: u64,
    retained: i64,
    submit_ns: Vec<f64>,
    shard_wall_ns: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs every probe on the workload's programs; returns the per-layer
/// metrics and the number of probe runs whose report differed under the
/// timing hardware wrapper from `Runner::run`'s (must be 0).
pub fn probe(m: &Measured, settings: &Settings) -> (BTreeMap<&'static str, f64>, u64) {
    let scale = if settings.quick { 100 } else { 1 };
    let n = m.subjects.len().max(1);
    let jobs = (JOBS / n / scale).max(4) as u64;
    let snapshots = (SNAPSHOTS / n / scale).max(4);
    let reps = (REPS / scale).max(2);
    let first = crate::workloads::first_scan_seed(settings.seed);
    let mut t = Totals::default();
    for (i, subject) in m.subjects.iter().enumerate() {
        let op = i as u64;
        let work = scan_jobs(subject, first, jobs);
        {
            let _s = span("probe.deploy", op);
            probe_deploy(subject, reps, &mut t);
        }
        {
            let _s = span("probe.machine", op);
            probe_machine(subject, &work, &mut t);
        }
        {
            let _s = span("probe.hardware", op);
            probe_hardware(subject, &work, &mut t);
        }
        {
            let _s = span("probe.runner", op);
            probe_runner(subject, &work, first, jobs, &mut t);
        }
        let profiles = {
            let _s = span("probe.session", op);
            let (failing, passing) = subject.expand(DIAGNOSE_THREADS, op);
            let start = Instant::now();
            let p = subject.collect(failing, passing, DIAGNOSE_THREADS, op);
            t.session_ns += ns(start.elapsed());
            t.sessions += 1;
            let stats = p.stats();
            t.kept += (stats.failure_runs_used + stats.success_runs_used) as u64;
            t.consumed += stats.total_runs as u64;
            p
        };
        {
            let _s = span("probe.profile", op);
            probe_profile(subject, &profiles, reps, &mut t);
        }
        let pool = pool_of(&profiles);
        if pool.is_empty() {
            // No witness of either class (a benchmark the paper cannot
            // diagnose either): nothing for a shard to ingest.
            continue;
        }
        {
            let _s = span("probe.converge", op);
            probe_converge(subject, &pool, snapshots, &mut t);
        }
        {
            let _s = span("probe.fleet", op);
            probe_fleet(subject, &pool, snapshots, &mut t);
        }
    }
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let submit = Summary::of(&t.submit_ns).expect("the fleet probe submits snapshots");
    let overhead = match (median(&m.traced_rounds), median(&m.untraced_rounds)) {
        (Some(on), Some(off)) => (on / off - 1.0) * 100.0,
        _ => f64::NAN,
    };
    let metrics = BTreeMap::from([
        ("machine.ns_per_step", per(t.null_ns as f64, t.steps)),
        ("machine.lower_us", mean(&t.lower_us)),
        ("machine.steps_per_run", per(t.steps as f64, t.runs)),
        ("transform.instrument_us", mean(&t.instrument_us)),
        ("hardware.ns_per_event", per(t.batch_ns as f64, t.events)),
        ("hardware.ctl_ns_per_run", per(t.ctl_ns as f64, t.runs)),
        ("hardware.events_per_run", per(t.events as f64, t.runs)),
        ("lbr.ns_per_push", per(t.lbr_ns as f64, t.branches)),
        ("cache.ns_per_access", per(t.cache_ns as f64, t.accesses)),
        ("cache.accesses_per_run", per(t.accesses as f64, t.runs)),
        ("lcr.ns_per_push", per(t.lcr_ns as f64, t.accesses)),
        ("runner.us_per_run", per(t.bare_ns as f64 / 1e3, t.runs)),
        ("runner.allocs_per_run", per(t.allocs as f64, t.runs)),
        (
            "engine.overhead_pct",
            (t.scan_t1_ns as f64 / t.bare_ns.max(1) as f64 - 1.0) * 100.0,
        ),
        (
            "engine.session_us",
            per(t.session_ns as f64 / 1e3, t.sessions),
        ),
        (
            "engine.t2_speedup",
            t.scan_t1_ns as f64 / t.scan_t2_ns.max(1) as f64,
        ),
        ("engine.useful_run_ratio", per(t.kept as f64, t.consumed)),
        ("profile.ns_per_record", per(t.decode_ns, t.records)),
        (
            "profile.records_per_snapshot",
            per(t.records as f64, t.profiles),
        ),
        ("ranking.us_per_profile", per(t.rank_ns / 1e3, t.profiles)),
        (
            "ranking.events_per_profile",
            per(t.profile_events as f64, t.profiles),
        ),
        (
            "converge.us_per_observe",
            per(t.observe_ns as f64 / 1e3, t.observes),
        ),
        (
            "chain.us_per_build",
            per(t.chain_ns as f64 / 1e3, t.observes),
        ),
        ("chain.links", per(t.links as f64, t.chains)),
        ("fleet.submit_ns_p50", submit.median),
        ("fleet.submit_ns_p99", submit.p99),
        (
            "fleet.worker_share_pct",
            (t.observe_ns + t.chain_ns) as f64 / t.shard_wall_ns.max(1) as f64 * 100.0,
        ),
        (
            "fleet.bytes_per_snapshot",
            per(t.retained as f64, t.observes),
        ),
        ("trace.overhead_pct", overhead),
    ]);
    (metrics, t.tee_mismatches)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// `transform::instrument` and `Machine::new` (IR validation, layout and
/// lowering to the flat dispatch stream), each the median of `reps`.
fn probe_deploy(subject: &Subject, reps: usize, t: &mut Totals) {
    let mut instr = Vec::new();
    let mut lower = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let program = black_box(instrument(&subject.bench.program, &subject.opts));
        instr.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        black_box(Machine::new(program));
        lower.push(start.elapsed().as_secs_f64() * 1e6);
    }
    t.instrument_us.extend(median(&instr));
    t.lower_us.extend(median(&lower));
}

/// The run configuration `Runner::run` uses for `w`.
fn run_config(subject: &Subject, w: &Workload) -> stm_machine::interp::RunConfig {
    let mut cfg = subject.runner.run_config().clone();
    cfg.scheduler = SchedPolicy::Random { seed: w.seed };
    cfg
}

/// The interpreter alone: `run_reusing` with monitoring hardware off.
fn probe_machine(subject: &Subject, work: &[Workload], t: &mut Totals) {
    let machine = subject.runner.machine();
    let mut scratch = RunScratch::new();
    let cfgs: Vec<_> = work.iter().map(|w| run_config(subject, w)).collect();
    // One untimed pass grows the scratch to its steady-state capacity.
    for (w, cfg) in work.iter().zip(&cfgs) {
        black_box(machine.run_reusing(&w.inputs, cfg, &mut NullHardware, &mut scratch));
    }
    let start = Instant::now();
    let mut steps = 0;
    for (w, cfg) in work.iter().zip(&cfgs) {
        steps += machine
            .run_reusing(&w.inputs, cfg, &mut NullHardware, &mut scratch)
            .steps;
    }
    t.null_ns += ns(start.elapsed());
    t.steps += steps;
    t.runs += work.len() as u64;
}

/// One control operation or retirement event as the interpreter issued it.
#[derive(Debug, Clone, Copy)]
enum Rec {
    Event(HwEvent),
    Ctl(ThreadId, HwCtlOp),
}

/// A timing tee around `HardwareCtx`: forwards every call, times the
/// batch and control paths, and logs the stream for the replays.
struct Tee<'a> {
    hw: &'a mut HardwareCtx,
    log: &'a mut Vec<Rec>,
    batch_ns: u64,
    ctl_ns: u64,
    events: u64,
}

impl Hardware for Tee<'_> {
    fn on_branch(&mut self, core: CoreId, ev: stm_machine::events::BranchEvent) {
        self.on_batch(&[HwEvent::Branch { core, ev }]);
    }

    fn on_access(&mut self, core: CoreId, thread: ThreadId, ev: AccessEvent) {
        self.on_batch(&[HwEvent::Access { core, thread, ev }]);
    }

    fn on_batch(&mut self, events: &[HwEvent]) {
        let start = Instant::now();
        self.hw.on_batch(events);
        self.batch_ns += ns(start.elapsed());
        self.events += events.len() as u64;
        self.log.extend(events.iter().copied().map(Rec::Event));
    }

    fn ctl(&mut self, core: CoreId, thread: ThreadId, op: HwCtlOp) -> CtlResponse {
        let start = Instant::now();
        let response = self.hw.ctl(core, thread, op);
        self.ctl_ns += ns(start.elapsed());
        self.log.push(Rec::Ctl(thread, op));
        response
    }
}

/// `HardwareCtx` driven exactly as `Runner::run` drives it (reset, reseed,
/// run), then the logged event stream replayed into standalone `Lbr`s, a
/// `CacheSystem` and an `Lcr`, each timed on its own.
fn probe_hardware(subject: &Subject, work: &[Workload], t: &mut Totals) {
    let machine = subject.runner.machine();
    let config = *subject.runner.hw_config();
    let mut hw = HardwareCtx::new(config);
    let mut scratch = RunScratch::new();
    let mut log = Vec::new();
    let mut lbrs: Vec<Lbr> = (0..config.num_cores.max(1))
        .map(|_| Lbr::new(config.lbr_entries))
        .collect();
    let mut cache = CacheSystem::new(config.num_cores, config.cache);
    let mut lcr = Lcr::new(config.lcr_entries);
    let mut observed: Vec<CoherenceState> = Vec::new();
    for w in work {
        log.clear();
        hw.reset();
        hw.seed_perturbations(w.seed);
        let mut tee = Tee {
            hw: &mut hw,
            log: &mut log,
            batch_ns: 0,
            ctl_ns: 0,
            events: 0,
        };
        let report =
            machine.run_reusing(&w.inputs, &run_config(subject, w), &mut tee, &mut scratch);
        t.batch_ns += tee.batch_ns;
        t.ctl_ns += tee.ctl_ns;
        t.events += tee.events;
        if report != subject.runner.run(w) {
            t.tee_mismatches += 1;
        }

        for l in &mut lbrs {
            l.reset();
        }
        let start = Instant::now();
        for rec in &log {
            match *rec {
                Rec::Event(HwEvent::Branch { core, ev }) => {
                    black_box(lbrs[core.index()].push(ev));
                }
                Rec::Ctl(_, op) => match op {
                    HwCtlOp::CleanLbr => lbrs.iter_mut().for_each(Lbr::clean),
                    HwCtlOp::ConfigLbr(mask) => lbrs.iter_mut().for_each(|l| l.config(mask)),
                    HwCtlOp::EnableLbr => lbrs.iter_mut().for_each(Lbr::enable),
                    HwCtlOp::DisableLbr => lbrs.iter_mut().for_each(Lbr::disable),
                    _ => {}
                },
                Rec::Event(HwEvent::Access { .. }) => {}
            }
        }
        t.lbr_ns += ns(start.elapsed());

        cache.reset();
        observed.clear();
        let start = Instant::now();
        for rec in &log {
            if let Rec::Event(HwEvent::Access { core, ev, .. }) = *rec {
                observed.push(cache.access(core, ev.addr, ev.kind));
            }
        }
        t.cache_ns += ns(start.elapsed());

        lcr.reset();
        lcr.configure(config.lcr_config);
        let mut states = observed.iter();
        let start = Instant::now();
        for rec in &log {
            match *rec {
                Rec::Event(HwEvent::Access { thread, ev, .. }) => {
                    let state = *states.next().expect("one observed state per access");
                    black_box(lcr.push(thread, ev.pc, state, ev.kind, ev.ring));
                }
                Rec::Ctl(thread, op) => match op {
                    HwCtlOp::CleanLcr => lcr.clean(thread),
                    HwCtlOp::ConfigLcr(c) => lcr.configure(c),
                    HwCtlOp::EnableLcr => lcr.enable(thread),
                    HwCtlOp::DisableLcr => lcr.disable(thread),
                    _ => {}
                },
                Rec::Event(HwEvent::Branch { .. }) => {}
            }
        }
        t.lcr_ns += ns(start.elapsed());
        t.branches += log
            .iter()
            .filter(|r| matches!(r, Rec::Event(HwEvent::Branch { .. })))
            .count() as u64;
        t.accesses += observed.len() as u64;
    }
}

/// A bare `run_classified` loop (time and allocations per run) against
/// scan sessions over the same seeds at one and two worker threads.
fn probe_runner(subject: &Subject, work: &[Workload], first: u64, jobs: u64, t: &mut Totals) {
    let runner = &subject.runner;
    let spec = &subject.bench.truth.spec;
    for w in work {
        black_box(runner.run_classified(w, spec));
    }
    let before = alloc::thread_stats();
    let start = Instant::now();
    for w in work {
        black_box(runner.run_classified(w, spec));
    }
    t.bare_ns += ns(start.elapsed());
    t.allocs += alloc::thread_stats().allocs_since(before);

    let start = Instant::now();
    black_box(scan_session(subject, first..first + jobs, 1));
    t.scan_t1_ns += ns(start.elapsed());
    let start = Instant::now();
    black_box(scan_session(subject, first..first + jobs, 2));
    t.scan_t2_ns += ns(start.elapsed());
}

/// Snapshot decode (`lbr_events` / `lcr_events`) and batch ranking
/// (`CollectedProfiles::lbra` / `lcra`) over a diagnosis's profiles.
fn probe_profile(subject: &Subject, profiles: &CollectedProfiles, reps: usize, t: &mut Totals) {
    let layout = subject.runner.machine().layout();
    let spec = &subject.bench.truth.spec;
    let mut data = Vec::new();
    for run in profiles.failure_runs() {
        data.extend(failure_profile(&run.report, spec).map(|p| &p.data));
    }
    for run in profiles.success_runs() {
        data.extend(success_profile(&run.report, spec).map(|p| &p.data));
    }
    let decode = || {
        data.iter()
            .map(|d| match d {
                ProfileData::Lbr(r) => lbr_events(layout, r).len(),
                ProfileData::Lcr(r) => lcr_events(layout, r).len(),
            })
            .sum::<usize>()
    };
    let mut decode_ns = Vec::new();
    let mut events = 0;
    for _ in 0..reps {
        let start = Instant::now();
        events = black_box(decode());
        decode_ns.push(start.elapsed().as_nanos() as f64);
    }
    let mut rank_ns = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        if subject.lbr {
            black_box(profiles.lbra());
        } else {
            black_box(profiles.lcra());
        }
        rank_ns.push(start.elapsed().as_nanos() as f64);
    }
    t.decode_ns += median(&decode_ns).unwrap_or(0.0);
    t.rank_ns += median(&rank_ns).unwrap_or(0.0);
    t.records += data
        .iter()
        .map(|d| match d {
            ProfileData::Lbr(r) => r.len(),
            ProfileData::Lcr(r) => r.len(),
        })
        .sum::<usize>() as u64;
    t.profiles += data.len() as u64;
    t.profile_events += events as u64;
}

/// The `i`-th replayed snapshot of a pool, under a fresh witness id.
fn replayed(pool: &[PoolEntry], i: usize) -> (bool, String, &RunReport) {
    let (is_failure, witness, report) = &pool[i % pool.len()];
    (*is_failure, format!("r{i}:{witness}"), report)
}

/// One shard's ingest work on a single thread: `SnapshotIngest::observe`
/// then `CausalChain::from_ingest` per snapshot, plus the heap the
/// ingest retains per snapshot.
fn probe_converge(subject: &Subject, pool: &[PoolEntry], n: usize, t: &mut Totals) {
    let layout = subject.runner.machine().layout().clone();
    let before = alloc::thread_stats();
    let mut ingest = SnapshotIngest::new(
        layout,
        subject.bench.truth.spec.clone(),
        StabilityPolicy::never(),
    );
    let mut chain = None;
    for i in 0..n {
        let (is_failure, witness, report) = replayed(pool, i);
        let start = Instant::now();
        ingest.observe(is_failure, &witness, report);
        let mid = Instant::now();
        chain = CausalChain::from_ingest(&ingest);
        let end = Instant::now();
        t.observe_ns += ns(mid - start);
        t.chain_ns += ns(end - mid);
    }
    t.retained += alloc::thread_stats().retained_since(before);
    t.observes += n as u64;
    t.links += chain.map_or(0, |c| c.links.len() as u64);
    t.chains += 1;
}

/// A one-shard `FleetDaemon` fed the same replay closed-loop: time per
/// `submit` call, and the shard's wall time against the single-thread
/// observe + chain time of the converge probe.
fn probe_fleet(subject: &Subject, pool: &[PoolEntry], n: usize, t: &mut Totals) {
    let mut fleet = FleetDaemon::new();
    fleet.add_shard(
        "probe",
        subject.runner.machine().layout().clone(),
        subject.bench.truth.spec.clone(),
        unbounded_shard(),
    );
    fleet.start();
    let start = Instant::now();
    for i in 0..n {
        let (is_failure, witness, report) = replayed(pool, i);
        while fleet.queue_depth("probe") >= IN_FLIGHT {
            std::thread::sleep(BACKOFF);
        }
        let snapshot = Snapshot {
            shard: "probe".to_string(),
            witness,
            is_failure,
            report: report.clone(),
        };
        let submit = Instant::now();
        let outcome = fleet.submit(snapshot);
        t.submit_ns.push(submit.elapsed().as_nanos() as f64);
        assert_eq!(
            outcome,
            SubmitOutcome::Enqueued,
            "the probe never overfills a queue"
        );
    }
    fleet.drain();
    t.shard_wall_ns += ns(start.elapsed());
    drop(fleet.finish());
}
