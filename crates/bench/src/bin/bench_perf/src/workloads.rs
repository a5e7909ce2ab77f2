//! The four workloads. Each sets up (several times, so set-up time has a
//! median), then repeats a fixed unit of work until the time budget is
//! spent, timing every unit and checking its outputs.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use stm_core::converge::{FinalRanking, StabilityPolicy};
use stm_core::diagnose::{failure_profile, success_profile, Quotas};
use stm_core::engine::{CollectedProfiles, DiagnosisSession};
use stm_core::profile::{lbr_events, lcr_events};
use stm_core::ranking::RankingModel;
use stm_core::runner::{RunClass, Workload};
use stm_fleet::{FleetDaemon, ShardConfig, Snapshot, SubmitOutcome};
use stm_machine::report::{ProfileData, RunReport};
use stm_machine::rng::SplitMix64;
use stm_telemetry::json::Json;

use crate::alloc;
use crate::subject::{paper_rank, Subject};
use crate::trace::{self, span};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "lbr-collect-sort",
    "lcr-collect-apache4",
    "diagnose-suite",
    "fleet-ingest",
];

/// Worker threads of a collect session.
pub const COLLECT_THREADS: usize = 1;
/// Worker threads of every session inside a diagnosis.
pub const DIAGNOSE_THREADS: usize = 2;
/// Set-up repetitions per run; set-up time is their median. The first
/// runs before the first round, the rest at the first round boundaries
/// after each tenth of the run, so the median samples the host over the
/// whole run, as the rounds do, not only its state at process start.
const SETUP_REPS: u32 = 10;
/// Scheduler seeds per collect session (one latency sample each).
const SESSION_SEEDS: u64 = 500;
/// Every this many collect jobs, one is re-run outside the session.
const SPOT_CHECK_EVERY: u64 = 1000;
/// Fleet shards: (name, benchmark, LBRA?).
pub const SHARDS: [(&str, &str, bool); 2] =
    [("sort-0", "sort", true), ("apache4-0", "apache4", false)];
/// Profiles of each class kept per fleet snapshot pool.
const POOL_QUOTA: usize = 10;
/// Snapshots in flight per shard: the daemon's default queue capacity.
pub const IN_FLIGHT: usize = 64;
/// How long the generator backs off when a shard's queue is full. Long
/// enough that the generator does not compete with the shard workers for
/// the CPUs, short enough that no queue runs dry while it sleeps.
pub const BACKOFF: Duration = Duration::from_micros(200);
/// Snapshots per fleet latency window.
const WINDOW: usize = 64;
/// Snapshots per fleet epoch (one daemon lifetime).
const EPOCH: usize = 10_000;

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Record spans on every other unit of work.
    pub trace: bool,
    /// Shrink fixed-size work to 1/100 (smoke runs).
    pub quick: bool,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per unit of work (the latency samples).
    pub latency_s: Vec<f64>,
    /// What one latency sample times.
    pub latency_unit: &'static str,
    /// What one rate sample (round) covers.
    pub round_unit: &'static str,
    /// Operations per second of each round.
    pub rates: Vec<f64>,
    /// Heap high-water mark of each round, in bytes.
    pub heap_peak_bytes: Vec<f64>,
    /// What an operation is, plural.
    pub ops: &'static str,
    /// Round durations with spans recorded (trace mode only).
    pub traced_rounds: Vec<f64>,
    /// Round durations without spans (trace mode only).
    pub untraced_rounds: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// The deployed benchmarks the workload exercised, for the layer
    /// probes.
    pub subjects: Vec<Subject>,
}

impl Measured {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            name: name.into(),
            ok,
        });
    }

    /// Heap held by the sample vectors themselves. It grows with the
    /// number of rounds, i.e. with the host's speed, so the heap metric
    /// leaves it out.
    fn sample_bytes(&self) -> u64 {
        let vectors = [
            &self.setup_s,
            &self.latency_s,
            &self.rates,
            &self.heap_peak_bytes,
            &self.traced_rounds,
            &self.untraced_rounds,
        ];
        let elements: usize = vectors.iter().map(|v| v.capacity()).sum();
        (elements * std::mem::size_of::<f64>()) as u64
    }

    /// Starts timing a round, and a fresh heap high-water mark for it.
    fn start_round(&self) -> Instant {
        alloc::reset_peak();
        Instant::now()
    }

    /// Ends a round: records its heap high-water mark and, in trace mode,
    /// its duration under the matching traced/untraced heading.
    fn round(&mut self, settings: &Settings, traced: bool, secs: f64) {
        let peak = alloc::peak_bytes().saturating_sub(self.sample_bytes());
        self.heap_peak_bytes.push(peak as f64);
        if settings.trace {
            if traced {
                self.traced_rounds.push(secs);
            } else {
                self.untraced_rounds.push(secs);
            }
        }
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, settings: &Settings) -> Option<Measured> {
    Some(match name {
        "lbr-collect-sort" => collect("sort", true, settings),
        "lcr-collect-apache4" => collect("apache4", false, settings),
        "diagnose-suite" => diagnose_suite(settings),
        "fleet-ingest" => fleet_ingest(settings),
        _ => return None,
    })
}

/// The time budget of the run and its set-up schedule. At least two
/// rounds always run, so a traced run has both a traced and an untraced
/// round.
struct Budget {
    start: Instant,
    limit: Duration,
    setups: u32,
}

impl Budget {
    /// Starts the clock; the caller times the first set-up right away.
    fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
            setups: 1,
        }
    }

    fn more(&self, rounds_done: usize) -> bool {
        rounds_done < 2 || self.start.elapsed() < self.limit
    }

    /// Whether the next set-up repetition is due.
    fn setup_due(&mut self) -> bool {
        let due = self.setups < SETUP_REPS
            && self.start.elapsed() >= self.limit * self.setups / SETUP_REPS;
        self.setups += u32::from(due);
        due
    }
}

/// Times one set-up repetition.
fn timed_setup<T>(m: &mut Measured, setup: &mut impl FnMut() -> T) -> T {
    let t = Instant::now();
    let out = setup();
    m.setup_s.push(t.elapsed().as_secs_f64());
    out
}

/// First scheduler seed of a collect workload: disjoint ranges per seed.
pub fn first_scan_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1 << 32)
}

/// A scan session over `seeds` with quotas that never fill.
pub fn scan_session(
    subject: &Subject,
    seeds: std::ops::Range<u64>,
    threads: usize,
) -> CollectedProfiles {
    let b = &subject.bench;
    DiagnosisSession::from_runner(&subject.runner)
        .failure(b.truth.spec.clone())
        .workloads(vec![b.workloads.failing[0].clone()])
        .seeds(seeds)
        .failure_profiles(usize::MAX)
        .success_profiles(usize::MAX)
        .threads(threads)
        .collect()
        .expect("scan-mode collection cannot fail")
}

/// Class counts `(failures, successes, other)` of the first session at
/// seed 0, pinned so a behaviour change in the interpreter, hardware or
/// classifier fails the run.
fn pinned_classes(id: &str) -> (usize, usize, usize) {
    match id {
        "sort" => (500, 0, 0),
        _ => (170, 330, 0),
    }
}

/// `lbr-collect-sort` / `lcr-collect-apache4`: back-to-back scan sessions
/// of `SESSION_SEEDS` scheduler seeds each.
fn collect(id: &str, lbr: bool, settings: &Settings) -> Measured {
    let mut m = Measured {
        latency_unit: "session",
        round_unit: "session",
        ops: "runs",
        ..Measured::default()
    };
    let first = first_scan_seed(settings.seed);
    let mut budget = Budget::new(settings.seconds);
    let mut setup = || {
        let bench = stm_suite::by_id(id).expect("suite benchmark exists");
        let subject = Subject::deploy_as(bench, lbr, 0);
        // Warm the engine, allocator and caches on the first session.
        scan_session(&subject, first..first + SESSION_SEEDS, COLLECT_THREADS);
        subject
    };
    let subject = timed_setup(&mut m, &mut setup);
    let spec = subject.bench.truth.spec.clone();
    let base = subject.bench.workloads.failing[0].clone();
    let mut k = 0u64;
    while budget.more(k as usize) {
        if budget.setup_due() {
            timed_setup(&mut m, &mut setup);
        }
        let traced = settings.trace && k.is_multiple_of(2);
        trace::set_enabled(traced);
        let seeds = first + k * SESSION_SEEDS..first + (k + 1) * SESSION_SEEDS;
        let t = m.start_round();
        let profiles = {
            let _s = span("engine.session", k);
            scan_session(&subject, seeds.clone(), COLLECT_THREADS)
        };
        let secs = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        m.latency_s.push(secs);
        m.rates.push(SESSION_SEEDS as f64 / secs);
        m.round(settings, traced, secs);

        let runs = profiles.stats().total_runs as u64;
        m.attempted += runs;
        m.failed += SESSION_SEEDS.abs_diff(runs);
        let fails: BTreeSet<u64> = profiles
            .failing_workloads()
            .iter()
            .map(|w| w.seed)
            .collect();
        let passes: BTreeSet<u64> = profiles
            .passing_workloads()
            .iter()
            .map(|w| w.seed)
            .collect();
        if k == 0 && settings.seed == 0 {
            let counts = (
                fails.len(),
                passes.len(),
                runs as usize - fails.len() - passes.len(),
            );
            m.check(
                format!(
                    "{id} seed-0 class counts {counts:?} == {:?}",
                    pinned_classes(id)
                ),
                counts == pinned_classes(id),
            );
        }
        for s in seeds.filter(|s| (s - first).is_multiple_of(SPOT_CHECK_EVERY)) {
            let expected = if fails.contains(&s) {
                RunClass::TargetFailure
            } else if passes.contains(&s) {
                RunClass::Success
            } else {
                RunClass::Other
            };
            let (_, class) = subject
                .runner
                .run_classified(&base.clone().with_seed(s), &spec);
            if class != expected {
                m.failed += 1;
            }
        }
        k += 1;
    }
    m.check(
        format!("{id}: every spot-checked run reproduces its session class"),
        m.failed == 0,
    );
    m.subjects.push(subject);
    m
}

/// `diagnose-suite`: passes over all 31 benchmarks in a seed-shuffled
/// order, each diagnosis starting from the raw program.
fn diagnose_suite(settings: &Settings) -> Measured {
    let mut m = Measured {
        latency_unit: "diagnosis",
        round_unit: "pass",
        ops: "diagnoses",
        ..Measured::default()
    };
    let mut budget = Budget::new(settings.seconds);
    let suite = timed_setup(&mut m, &mut stm_suite::all);
    let expected: Vec<Option<usize>> = suite.iter().map(paper_rank).collect();
    let mut rng = SplitMix64::new(settings.seed);
    // (rank, chain link, paper rank) of every benchmark that disagreed.
    type Mismatch = (Option<usize>, Option<usize>, Option<usize>);
    let mut mismatches: BTreeMap<&str, Mismatch> = BTreeMap::new();
    let mut pass = 0usize;
    let mut op = 0u64;
    while budget.more(pass) {
        if budget.setup_due() {
            timed_setup(&mut m, &mut stm_suite::all);
        }
        let mut order: Vec<usize> = (0..suite.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let traced = settings.trace && pass.is_multiple_of(2);
        trace::set_enabled(traced);
        let pass_start = m.start_round();
        for &i in &order {
            let t = Instant::now();
            let d = Subject::diagnose(suite[i].clone(), DIAGNOSE_THREADS, op);
            m.latency_s.push(t.elapsed().as_secs_f64());
            m.attempted += 1;
            if d.rank != expected[i] || d.chain_link != expected[i] {
                m.failed += 1;
                mismatches.insert(suite[i].info.id, (d.rank, d.chain_link, expected[i]));
            }
            op += 1;
        }
        let secs = pass_start.elapsed().as_secs_f64();
        trace::set_enabled(false);
        m.rates.push(suite.len() as f64 / secs);
        m.round(settings, traced, secs);
        pass += 1;
    }
    m.check(
        format!(
            "every root-cause rank and chain link equal the paper's Table 6/7 rank (mismatches: {mismatches:?})"
        ),
        mismatches.is_empty(),
    );
    m.subjects = suite.into_iter().map(|b| Subject::deploy(b, 0)).collect();
    m
}

/// A replayable snapshot: class, witness id, run report.
pub type PoolEntry = (bool, String, RunReport);

/// Collects one shard's snapshot pool: `quota` failing and passing runs
/// of the benchmark's diagnosis witnesses.
fn snapshot_pool(subject: &Subject, threads: usize, quota: usize) -> Vec<PoolEntry> {
    let (failing, passing) = subject.expand(threads, 0);
    pool_of(&subject.collect_with_quota(failing, passing, threads, quota, 0))
}

/// The profile-bearing runs of a collection as replayable snapshots,
/// failures first.
pub fn pool_of(profiles: &CollectedProfiles) -> Vec<PoolEntry> {
    let failures = profiles.failure_runs().iter().map(|r| (true, r));
    let successes = profiles.success_runs().iter().map(|r| (false, r));
    failures
        .chain(successes)
        .map(|(is_failure, r)| (is_failure, r.witness.clone(), r.report.clone()))
        .collect()
}

/// A shard that ingests everything: no early stop, no quota.
pub fn unbounded_shard() -> ShardConfig {
    ShardConfig::default()
        .policy(StabilityPolicy::never())
        .quotas(
            Quotas::default()
                .failure_profiles(usize::MAX)
                .success_profiles(usize::MAX)
                .max_runs(usize::MAX),
        )
}

/// `fleet-ingest`: a closed-loop generator replays pooled snapshots into a
/// 2-shard daemon, one fresh daemon per epoch, keeping at most
/// `IN_FLIGHT` snapshots queued per shard so nothing sheds.
fn fleet_ingest(settings: &Settings) -> Measured {
    let mut m = Measured {
        latency_unit: "window",
        round_unit: "window",
        ops: "snapshots",
        ..Measured::default()
    };
    let mut budget = Budget::new(settings.seconds);
    let mut setup = || {
        let mut subjects = Vec::new();
        let mut pools = Vec::new();
        for (_, id, lbr) in SHARDS {
            let bench = stm_suite::by_id(id).expect("suite benchmark exists");
            let subject = Subject::deploy_as(bench, lbr, 0);
            pools.push(snapshot_pool(&subject, 1, POOL_QUOTA));
            subjects.push(subject);
        }
        (subjects, pools)
    };
    let (subjects, pools) = timed_setup(&mut m, &mut setup);
    let epoch_len = if settings.quick { EPOCH / 100 } else { EPOCH };
    let mut rng = SplitMix64::new(settings.seed);
    let mut windows = 0usize;
    let mut next_op = 0u64;
    let mut epoch = 0u64;
    let mut tallies: [ShardTally; 2] = Default::default();
    while budget.more(windows) {
        // Between epochs no daemon is running, so a set-up repetition
        // competes with nothing.
        if budget.setup_due() {
            timed_setup(&mut m, &mut setup);
        }
        let mut fleet = FleetDaemon::new();
        for ((name, _, _), subject) in SHARDS.iter().zip(&subjects) {
            fleet.add_shard(
                *name,
                subject.runner.machine().layout().clone(),
                subject.bench.truth.spec.clone(),
                unbounded_shard(),
            );
        }
        fleet.start();
        // Per shard, the pool indices submitted, in order: the batch
        // reference ranks exactly these.
        let mut sent: [Vec<(usize, String)>; 2] = [Vec::new(), Vec::new()];
        let mut n = 0;
        // Epochs always complete, so every run has the same per-epoch
        // heap growth profile; a run overshoots its budget by under one
        // epoch.
        while n < epoch_len {
            let traced = settings.trace && windows.is_multiple_of(2);
            trace::set_enabled(traced);
            let t = m.start_round();
            for _ in 0..WINDOW {
                let r = rng.next_u64();
                let shard = (r & 1) as usize;
                let idx = ((r >> 8) % pools[shard].len() as u64) as usize;
                let (is_failure, witness, report) = &pools[shard][idx];
                let name = SHARDS[shard].0;
                while fleet.queue_depth(name) >= IN_FLIGHT {
                    std::thread::sleep(BACKOFF);
                }
                let witness = format!("e{epoch}:{n}:{witness}");
                let outcome = {
                    let _s = span("fleet.submit", next_op);
                    fleet.submit(Snapshot {
                        shard: name.to_string(),
                        witness: witness.clone(),
                        is_failure: *is_failure,
                        report: report.clone(),
                    })
                };
                if outcome == SubmitOutcome::Enqueued {
                    sent[shard].push((idx, witness));
                } else {
                    m.failed += 1;
                }
                m.attempted += 1;
                next_op += 1;
                n += 1;
            }
            let secs = t.elapsed().as_secs_f64();
            trace::set_enabled(false);
            m.latency_s.push(secs);
            m.rates.push(WINDOW as f64 / secs);
            m.round(settings, traced, secs);
            windows += 1;
        }
        fleet.drain();
        let reports = fleet.finish();
        for (shard, ((name, _, _), subject)) in SHARDS.iter().zip(&subjects).enumerate() {
            let r = &reports[*name];
            let kept = sent[shard].len() as u64;
            m.failed += r.shed + r.skipped + kept.saturating_sub(r.ingested);
            let batch_top = batch_top1(subject, &pools[shard], &sent[shard]);
            let fleet_top = r.report.as_ref().and_then(|c| top1(&c.final_ranking));
            let chain_events: Vec<String> = r
                .chain
                .as_ref()
                .and_then(|c| c.get("links")?.as_array())
                .map(|links| {
                    links
                        .iter()
                        .filter_map(|l| l.get("event")?.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            let root_link = chain_events
                .iter()
                .position(|e| subject.is_root_cause(e))
                .map(|i| i + 1);
            let t = &mut tallies[shard];
            t.accounting += u64::from(r.ingested != kept || r.shed != 0 || r.skipped != 0);
            t.top1 += u64::from(fleet_top.is_none() || fleet_top != batch_top);
            t.chain += u64::from(root_link.is_none());
            t.last = (fleet_top, root_link, chain_events.len());
        }
        epoch += 1;
    }
    for ((name, _, _), t) in SHARDS.iter().zip(&tallies) {
        let (top, link, links) = &t.last;
        m.check(
            format!(
                "{name}: ingested == submitted, 0 shed, 0 skipped (failed in {} of {epoch} epochs)",
                t.accounting
            ),
            t.accounting == 0,
        );
        m.check(
            format!(
                "{name}: fleet top-1 == batch top-1, last {top:?} (failed in {} of {epoch} epochs)",
                t.top1
            ),
            t.top1 == 0,
        );
        m.check(
            format!("{name}: root cause in the live causal chain, last at link {link:?} of {links} (missing in {} of {epoch} epochs)", t.chain),
            t.chain == 0,
        );
    }
    m.subjects = subjects;
    m
}

/// Per-shard epochs that failed each fleet check, and the last epoch's
/// top-1, root-cause link and chain length.
#[derive(Debug, Default)]
struct ShardTally {
    accounting: u64,
    top1: u64,
    chain: u64,
    last: (Option<String>, Option<usize>, usize),
}

/// The top-1 predictor of a final ranking, as `event` / `!event`.
fn top1(ranking: &FinalRanking) -> Option<String> {
    match ranking {
        FinalRanking::Lbr(r) => r.first().map(|e| format!("{:?}:{}", e.polarity, e.event)),
        FinalRanking::Lcr(r) => r.first().map(|e| format!("{:?}:{}", e.polarity, e.event)),
    }
}

/// The batch model's top-1 over the snapshots a shard was sent — the
/// `lbr_model().rank()` / `lcr_model().rank_with_absence()` reference.
fn batch_top1(subject: &Subject, pool: &[PoolEntry], sent: &[(usize, String)]) -> Option<String> {
    let layout = subject.runner.machine().layout();
    let spec = &subject.bench.truth.spec;
    let profile = |is_failure: bool, report: &RunReport| {
        let p = if is_failure {
            failure_profile(report, spec)
        } else {
            success_profile(report, spec)
        };
        p.map(|p| p.data.clone())
    };
    if subject.lbr {
        let mut model = RankingModel::new();
        for (idx, witness) in sent {
            let (f, _, report) = &pool[*idx];
            if let Some(ProfileData::Lbr(records)) = profile(*f, report) {
                model.add_profile_named(*f, witness.clone(), lbr_events(layout, &records));
            }
        }
        top1(&FinalRanking::Lbr(model.rank()))
    } else {
        let mut model = RankingModel::new();
        for (idx, witness) in sent {
            let (f, _, report) = &pool[*idx];
            if let Some(ProfileData::Lcr(records)) = profile(*f, report) {
                model.add_profile_named(*f, witness.clone(), lcr_events(layout, &records));
            }
        }
        top1(&FinalRanking::Lcr(model.rank_with_absence()))
    }
}

/// The run's workload-specific facts for the results file.
pub fn describe(m: &Measured) -> Json {
    Json::obj([
        ("ops", Json::from(m.ops)),
        ("latency_unit", Json::from(m.latency_unit)),
        ("round_unit", Json::from(m.round_unit)),
        (
            "subjects",
            Json::Arr(
                m.subjects
                    .iter()
                    .map(|s| Json::from(s.bench.info.id))
                    .collect(),
            ),
        ),
    ])
}

/// Scan jobs of a subject: its first failing workload under `n`
/// consecutive scheduler seeds from `first`.
pub fn scan_jobs(subject: &Subject, first: u64, n: u64) -> Vec<Workload> {
    let base = &subject.bench.workloads.failing[0];
    (first..first + n)
        .map(|s| base.clone().with_seed(s))
        .collect()
}
