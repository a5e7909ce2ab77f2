//! # stm-fleet — long-lived sharded ingest with explicit backpressure
//!
//! The batch [`DiagnosisSession`](stm_core::DiagnosisSession) executes
//! its own runs; a production fleet works the other way around:
//! thousands of endpoints *push* ring snapshots at a central daemon,
//! which must diagnose each workload population independently and under
//! bounded memory. This crate is that daemon:
//!
//! * **Sharding** — every snapshot names a shard (one per workload
//!   population); each shard owns a [`SnapshotIngest`] — the same
//!   incremental ranking + [`StabilityPolicy`] machinery the session run
//!   loop uses — and early-stops independently of its siblings.
//! * **Backpressure** — each shard has a *bounded* ingest queue with an
//!   explicit [`ShedPolicy`]. Overload sheds snapshots deterministically
//!   (drop-oldest or reject-new), counts every shed in the
//!   `fleet.shed_total` counter and the per-shard
//!   `fleet.shed{shard="…"}` series, and emits a structured
//!   `fleet`/`shed` event per shed snapshot.
//! * **Observability** — per-shard queue depth, ingest and witness
//!   counts are published as labeled gauges, and a `"fleet"` status
//!   document (shard → live verdict) feeds `/diagnosis` and `stm_watch`.
//!
//! ## Determinism
//!
//! Each shard is consumed by exactly one worker thread popping a FIFO
//! queue, so snapshots are ingested in submission order regardless of
//! how many threads submit. For a fixed endpoint schedule the per-shard
//! final ranking is bit-identical to a batch
//! [`RankingModel`](stm_core::RankingModel) over the same (kept)
//! snapshots — the [`SnapshotIngest`] contract, pinned in
//! `tests/fleet_determinism.rs`. Shedding is equally deterministic: with
//! a paused shard and a seeded schedule, exactly the queued-beyond-
//! capacity snapshots are shed, and which ones depends only on the
//! [`ShedPolicy`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use stm_core::converge::{ConvergenceReport, SnapshotIngest, StabilityPolicy};
use stm_core::diagnose::Quotas;
use stm_core::runner::FailureSpec;
use stm_forensics::chain::CausalChain;
use stm_machine::layout::Layout;
use stm_machine::report::RunReport;
use stm_telemetry::json::Json;
use stm_telemetry::{self as telemetry, counter, log};

/// What a shard does with a snapshot that arrives while its bounded
/// queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the *oldest* queued snapshot and enqueue the new one:
    /// freshest-data-wins, the right default for live diagnosis where a
    /// newer snapshot is as informative as a stale one.
    DropOldest,
    /// Shed the *new* snapshot and keep the queue as-is:
    /// first-come-first-served, the right choice when replaying a fixed
    /// archive where the earliest snapshots must win.
    RejectNew,
}

impl ShedPolicy {
    /// The policy's wire form (events, status documents, artifacts).
    pub fn as_str(self) -> &'static str {
        match self {
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::RejectNew => "reject-new",
        }
    }
}

/// Per-shard configuration: the diagnosis quota surface shared with the
/// batch session ([`Quotas`]), the early-stop policy, and the
/// backpressure envelope.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Ingest quotas. A shard stops ingesting once it holds
    /// `failure_profiles` failure *and* `success_profiles` success
    /// snapshots, or after `max_runs` ingest attempts — exactly the
    /// batch session's quota semantics.
    pub quotas: Quotas,
    /// Early-stop policy evaluated after every ingested snapshot.
    pub policy: StabilityPolicy,
    /// Bounded ingest queue capacity; beyond it [`ShardConfig::shed`]
    /// applies.
    pub queue_capacity: usize,
    /// What to shed when the queue is full.
    pub shed: ShedPolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            quotas: Quotas::default(),
            policy: StabilityPolicy::default(),
            queue_capacity: 64,
            shed: ShedPolicy::DropOldest,
        }
    }
}

impl ShardConfig {
    /// Replaces the quota surface.
    pub fn quotas(mut self, quotas: Quotas) -> Self {
        self.quotas = quotas;
        self
    }

    /// Replaces the early-stop policy.
    pub fn policy(mut self, policy: StabilityPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the queue capacity (clamped to at least 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Replaces the shed policy.
    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }
}

/// One endpoint-submitted ring snapshot: which shard it belongs to, the
/// witness id the endpoint reports under, its outcome class, and the
/// run report carrying the decoded hardware rings.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Target shard (workload population) name.
    pub shard: String,
    /// Witness id — distinct per endpoint report; the ranking treats it
    /// as the profile identity.
    pub witness: String,
    /// `true` for a failure snapshot, `false` for a success snapshot.
    pub is_failure: bool,
    /// The run report the endpoint captured (ring snapshots included).
    pub report: RunReport,
}

/// The outcome of one [`FleetDaemon::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Enqueued; no shed.
    Enqueued,
    /// Queue was full; the *oldest* queued snapshot was shed to make
    /// room ([`ShedPolicy::DropOldest`]). The submitted snapshot IS
    /// enqueued.
    ShedOldest,
    /// Queue was full; the *submitted* snapshot was shed
    /// ([`ShedPolicy::RejectNew`]). The queue is unchanged.
    RejectedNew,
    /// No shard with that name exists; nothing was enqueued or counted.
    UnknownShard,
    /// The daemon is shutting down; nothing was enqueued.
    Closed,
}

/// Per-shard final accounting returned by [`FleetDaemon::finish`].
#[derive(Debug)]
pub struct ShardReport {
    /// Final verdict wire form: `converged` / `stable` / `stalled`, or
    /// `warming` when the shard never ingested a snapshot.
    pub verdict: String,
    /// The full convergence report (final ranking, evidence,
    /// trajectories); `None` for a warming shard.
    pub report: Option<ConvergenceReport>,
    /// Snapshots accepted into the queue (enqueued, including ones that
    /// later shed a predecessor).
    pub accepted: u64,
    /// Snapshots shed under backpressure (either policy).
    pub shed: u64,
    /// Snapshots ingested into the ranking.
    pub ingested: u64,
    /// Snapshots popped but skipped (missing profile / wrong ring).
    pub skipped: u64,
    /// Snapshots popped after the shard had already stopped (early-stop
    /// or quota); dropped without ingesting, like the batch session
    /// ignores post-stop runs.
    pub after_stop: u64,
    /// The causal chain standing when the shard stopped (JSON form of
    /// [`CausalChain`]); `None` when no chain ever formed.
    pub chain: Option<Json>,
}

impl ShardReport {
    /// The report as a JSON object (the shard's entry in the terminal
    /// `"fleet"` status document that [`FleetDaemon::finish`] publishes).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("verdict", Json::from(self.verdict.as_str())),
            ("accepted", Json::from(self.accepted)),
            ("shed", Json::from(self.shed)),
            ("ingested", Json::from(self.ingested)),
            ("skipped", Json::from(self.skipped)),
            ("after_stop", Json::from(self.after_stop)),
            (
                "witnesses",
                Json::from(
                    self.report
                        .as_ref()
                        .map(|r| r.evidence.witnesses)
                        .unwrap_or(0),
                ),
            ),
            (
                "top1",
                self.report
                    .as_ref()
                    .and_then(|r| r.evidence.top1.clone())
                    .map(Json::from)
                    .unwrap_or(Json::Null),
            ),
            ("chain", self.chain.clone().unwrap_or(Json::Null)),
        ])
    }
}

/// The bounded FIFO ingest queue of one shard, plus its flow-control
/// flags. `paused` holds the worker off (snapshots keep queueing — the
/// deterministic way to force overload in tests); `closed` tells the
/// worker to drain and exit; `busy` marks a popped snapshot still being
/// processed (so [`FleetDaemon::drain`] does not report empty-but-busy
/// as drained).
#[derive(Debug)]
struct Queue {
    items: VecDeque<Snapshot>,
    paused: bool,
    closed: bool,
    busy: bool,
}

/// Mutable diagnosis state of one shard, owned by its worker.
#[derive(Debug)]
struct ShardState {
    ingest: Option<SnapshotIngest>,
    attempts: u64,
    ingested: u64,
    skipped: u64,
    after_stop: u64,
    done: bool,
    /// The current [`CausalChain`], rebuilt after every ingested snapshot
    /// so its counts stay current; `None` until one forms. Rendered as
    /// JSON only where it is read (the status document and `finish`).
    chain: Option<CausalChain>,
}

#[derive(Debug)]
struct Shard {
    name: String,
    config: ShardConfig,
    queue: Mutex<Queue>,
    cond: Condvar,
    state: Mutex<ShardState>,
    accepted: AtomicU64,
    shed: AtomicU64,
}

impl Shard {
    fn queue_lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn state_lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records one shed snapshot: per-shard and fleet-wide counters plus
    /// the structured `fleet`/`shed` event.
    fn record_shed(&self, witness: &str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        counter!("fleet.shed_total").incr();
        telemetry::labeled_counter_add("fleet.shed", "shard", &self.name, 1);
        log::warn(
            "fleet",
            "shed",
            vec![
                ("shard", self.name.clone()),
                ("witness", witness.to_string()),
                ("policy", self.config.shed.as_str().to_string()),
            ],
        );
    }

    /// Publishes this shard's labeled gauge series.
    fn publish_gauges(&self, queue_depth: usize) {
        telemetry::labeled_gauge_set("fleet.queue_depth", "shard", &self.name, queue_depth as i64);
        let st = self.state_lock();
        let (w, streak) = match &st.ingest {
            Some(i) => (i.witnesses(), i.top1_streak()),
            None => (0, 0),
        };
        telemetry::labeled_gauge_set("fleet.witnesses", "shard", &self.name, w as i64);
        telemetry::labeled_gauge_set("fleet.top1_stable_for", "shard", &self.name, streak as i64);
    }

    /// This shard's entry in the `"fleet"` status document.
    fn status_entry(&self) -> Json {
        let depth = self.queue_lock().items.len();
        let st = self.state_lock();
        let (verdict, witnesses, failures, successes, churn, streak) = match &st.ingest {
            Some(i) => (
                if st.done && !i.should_stop() {
                    // Quota-terminated without the policy firing: the
                    // final Stable/Stalled call belongs to finish();
                    // live, the shard is simply no longer collecting.
                    "quota"
                } else {
                    i.live_verdict()
                },
                i.witnesses(),
                i.failures(),
                i.successes(),
                i.churn(),
                i.top1_streak(),
            ),
            None => ("warming", 0, 0, 0, 0, 0),
        };
        Json::obj([
            ("verdict", Json::from(verdict)),
            ("witnesses", Json::from(witnesses)),
            ("failures", Json::from(failures)),
            ("successes", Json::from(successes)),
            ("rank_churn", Json::from(churn)),
            ("top1_stable_for", Json::from(streak)),
            (
                "chain",
                st.chain.as_ref().map_or(Json::Null, CausalChain::to_json),
            ),
            ("queue_depth", Json::from(depth)),
            (
                "accepted",
                Json::from(self.accepted.load(Ordering::Relaxed)),
            ),
            ("shed", Json::from(self.shed.load(Ordering::Relaxed))),
        ])
    }
}

/// Publishes the `"fleet"` status document covering every shard.
/// Building and publishing happen under one lock, so the last document
/// published is also the last one built: a worker cannot overwrite a
/// sibling's fresher document with an entry it read earlier.
fn publish_fleet_doc(shards: &BTreeMap<String, Arc<Shard>>) {
    if !telemetry::enabled() {
        return;
    }
    static PUBLISH: Mutex<()> = Mutex::new(());
    let _serial = PUBLISH.lock().unwrap_or_else(|p| p.into_inner());
    let entries: Vec<(String, Json)> = shards
        .iter()
        .map(|(name, s)| (name.clone(), s.status_entry()))
        .collect();
    let shed_total: u64 = shards
        .values()
        .map(|s| s.shed.load(Ordering::Relaxed))
        .sum();
    telemetry::status::publish(
        "fleet",
        Json::obj([
            ("shards", Json::Obj(entries.into_iter().collect())),
            ("shed_total", Json::from(shed_total)),
        ]),
    );
}

/// The long-lived sharded ingest daemon.
///
/// Build it, [`add_shard`](FleetDaemon::add_shard) every workload
/// population, [`start`](FleetDaemon::start) the per-shard workers, then
/// [`submit`](FleetDaemon::submit) snapshots from any number of threads.
/// [`finish`](FleetDaemon::finish) drains, joins and returns per-shard
/// [`ShardReport`]s.
#[derive(Debug)]
pub struct FleetDaemon {
    shards: BTreeMap<String, Arc<Shard>>,
    workers: Vec<thread::JoinHandle<()>>,
    started: bool,
}

impl Default for FleetDaemon {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetDaemon {
    /// An empty daemon with no shards and no workers.
    pub fn new() -> Self {
        FleetDaemon {
            shards: BTreeMap::new(),
            workers: Vec::new(),
            started: false,
        }
    }

    /// Registers a shard. Each shard owns the layout and failure spec of
    /// its workload population (endpoints of one shard all run the same
    /// instrumented program). Must be called before
    /// [`start`](FleetDaemon::start); replaces any same-named shard.
    pub fn add_shard(
        &mut self,
        name: impl Into<String>,
        layout: Layout,
        spec: FailureSpec,
        config: ShardConfig,
    ) {
        assert!(!self.started, "add_shard after start");
        let name = name.into();
        let shard = Shard {
            name: name.clone(),
            config,
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                paused: false,
                closed: false,
                busy: false,
            }),
            cond: Condvar::new(),
            state: Mutex::new(ShardState {
                ingest: Some(SnapshotIngest::new(layout, spec, config.policy)),
                attempts: 0,
                ingested: 0,
                skipped: 0,
                after_stop: 0,
                done: false,
                chain: None,
            }),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        };
        self.shards.insert(name, Arc::new(shard));
    }

    /// Spawns one worker thread per shard and publishes the initial
    /// (all-warming) `"fleet"` status document. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        publish_fleet_doc(&self.shards);
        for shard in self.shards.values() {
            let shard = Arc::clone(shard);
            let all = self.shards.clone();
            self.workers.push(thread::spawn(move || {
                worker_loop(&shard, &all);
                telemetry::flush_thread();
            }));
        }
    }

    /// Submits one snapshot to its shard's queue, applying backpressure
    /// when the queue is full. Safe to call from any thread.
    pub fn submit(&self, snapshot: Snapshot) -> SubmitOutcome {
        let Some(shard) = self.shards.get(&snapshot.shard) else {
            return SubmitOutcome::UnknownShard;
        };
        let outcome;
        let depth;
        {
            let mut q = shard.queue_lock();
            if q.closed {
                return SubmitOutcome::Closed;
            }
            if q.items.len() >= shard.config.queue_capacity {
                match shard.config.shed {
                    ShedPolicy::DropOldest => {
                        let old = q.items.pop_front().expect("capacity >= 1, queue full");
                        q.items.push_back(snapshot);
                        shard.accepted.fetch_add(1, Ordering::Relaxed);
                        depth = q.items.len();
                        drop(q);
                        shard.record_shed(&old.witness);
                        outcome = SubmitOutcome::ShedOldest;
                    }
                    ShedPolicy::RejectNew => {
                        depth = q.items.len();
                        let witness = snapshot.witness;
                        drop(q);
                        shard.record_shed(&witness);
                        outcome = SubmitOutcome::RejectedNew;
                    }
                }
            } else {
                q.items.push_back(snapshot);
                shard.accepted.fetch_add(1, Ordering::Relaxed);
                depth = q.items.len();
                outcome = SubmitOutcome::Enqueued;
            }
        }
        telemetry::labeled_gauge_set("fleet.queue_depth", "shard", &shard.name, depth as i64);
        shard.cond.notify_all();
        outcome
    }

    /// Pauses a shard's worker: queued snapshots stay queued (and shed
    /// under overload) until [`resume`](FleetDaemon::resume). The
    /// deterministic way to force backpressure. Returns `false` for an
    /// unknown shard.
    pub fn pause(&self, shard: &str) -> bool {
        let Some(s) = self.shards.get(shard) else {
            return false;
        };
        s.queue_lock().paused = true;
        s.cond.notify_all();
        true
    }

    /// Resumes a paused shard. Returns `false` for an unknown shard.
    pub fn resume(&self, shard: &str) -> bool {
        let Some(s) = self.shards.get(shard) else {
            return false;
        };
        s.queue_lock().paused = false;
        s.cond.notify_all();
        true
    }

    /// Current queue depth of a shard (0 for unknown shards).
    pub fn queue_depth(&self, shard: &str) -> usize {
        self.shards
            .get(shard)
            .map(|s| s.queue_lock().items.len())
            .unwrap_or(0)
    }

    /// Snapshots shed by a shard so far (0 for unknown shards).
    pub fn shed_count(&self, shard: &str) -> u64 {
        self.shards
            .get(shard)
            .map(|s| s.shed.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Blocks until every *unpaused* shard's queue is empty and its
    /// worker idle, with the gauges and status document of its last
    /// snapshot published. A paused shard is skipped — its queue is
    /// intentionally backed up.
    pub fn drain(&self) {
        for shard in self.shards.values() {
            let mut q = shard.queue_lock();
            while !q.paused && (!q.items.is_empty() || q.busy) {
                q = shard.cond.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    /// Closes every queue (un-pausing so backlogs drain), joins all
    /// workers, and returns per-shard reports. The final `"fleet"`
    /// status document (terminal verdicts) is published before
    /// returning.
    pub fn finish(mut self) -> BTreeMap<String, ShardReport> {
        for shard in self.shards.values() {
            let mut q = shard.queue_lock();
            q.closed = true;
            q.paused = false;
            shard.cond.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let mut reports = BTreeMap::new();
        let mut entries: Vec<(String, Json)> = Vec::new();
        let mut shed_total = 0u64;
        for (name, shard) in &self.shards {
            let mut st = shard.state_lock();
            let ingest = st.ingest.take().expect("finish called once");
            let report = ingest.finish();
            let verdict = report
                .as_ref()
                .map(|r| r.verdict.as_str())
                .unwrap_or("warming")
                .to_string();
            let shed = shard.shed.load(Ordering::Relaxed);
            shed_total += shed;
            let shard_report = ShardReport {
                verdict: verdict.clone(),
                report,
                accepted: shard.accepted.load(Ordering::Relaxed),
                shed,
                ingested: st.ingested,
                skipped: st.skipped,
                after_stop: st.after_stop,
                chain: st.chain.as_ref().map(CausalChain::to_json),
            };
            entries.push((name.clone(), shard_report.to_json()));
            reports.insert(name.clone(), shard_report);
        }
        if telemetry::enabled() {
            telemetry::status::publish(
                "fleet",
                Json::obj([
                    ("shards", Json::Obj(entries.into_iter().collect())),
                    ("shed_total", Json::from(shed_total)),
                ]),
            );
        }
        reports
    }
}

/// One shard's worker: pop in FIFO order, ingest, publish, repeat until
/// the queue is closed and empty.
fn worker_loop(shard: &Arc<Shard>, all: &BTreeMap<String, Arc<Shard>>) {
    loop {
        let snapshot = {
            let mut q = shard.queue_lock();
            loop {
                if !q.paused {
                    if let Some(s) = q.items.pop_front() {
                        q.busy = true;
                        break Some(s);
                    }
                    if q.closed {
                        break None;
                    }
                } else if q.closed {
                    // finish() un-pauses before closing; a pause racing
                    // a close must not wedge the worker.
                    q.paused = false;
                    continue;
                }
                q = shard.cond.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(snapshot) = snapshot else {
            break;
        };
        {
            let mut st = shard.state_lock();
            if st.done {
                st.after_stop += 1;
            } else {
                st.attempts += 1;
                let ingest = st.ingest.as_mut().expect("worker runs before finish");
                let ok = ingest.observe(snapshot.is_failure, &snapshot.witness, &snapshot.report);
                let quotas = shard.config.quotas;
                let quota_met = ingest.failures() >= quotas.failure_profiles
                    && ingest.successes() >= quotas.success_profiles;
                let stop = ingest.should_stop();
                let chain = if ok {
                    CausalChain::from_ingest(ingest)
                } else {
                    None
                };
                if ok {
                    st.ingested += 1;
                    // The storyline fingerprint ignores support counts, so
                    // the event fires when the story forms or changes, not
                    // on every witness.
                    if let Some(c) = &chain {
                        if log::would_log(log::Level::Info)
                            && st.chain.as_ref().map(CausalChain::fingerprint)
                                != Some(c.fingerprint())
                        {
                            log::info(
                                "fleet",
                                "diagnosis.chain",
                                vec![
                                    ("shard", shard.name.clone()),
                                    ("kind", c.kind.as_str().to_string()),
                                    ("links", c.links.len().to_string()),
                                    ("anchor", c.anchor.clone()),
                                    ("top_predictor", c.top_predictor.clone()),
                                ],
                            );
                        }
                    }
                    st.chain = chain;
                } else {
                    st.skipped += 1;
                }
                if stop || quota_met || st.attempts >= quotas.max_runs as u64 {
                    st.done = true;
                }
            }
        }
        // Publish before going idle, so a `drain()` that returns sees
        // this snapshot in the gauges and the status document.
        let depth = shard.queue_lock().items.len();
        shard.publish_gauges(depth);
        publish_fleet_doc(all);
        shard.queue_lock().busy = false;
        shard.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::prelude::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;
    use stm_machine::ir::Program;

    /// A tiny guarded program: logs an error whenever input 0 is
    /// negative (the crate-doc example of stm-core).
    fn guarded_program() -> (Program, stm_machine::ids::LogSiteId) {
        let mut pb = ProgramBuilder::new("fleet-test");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "fleet.c");
        let err = f.new_block();
        let ok = f.new_block();
        let x = f.read_input(0);
        let neg = f.bin(BinOp::Lt, x, 0);
        f.br(neg, err, ok);
        f.set_block(err);
        let site = f.log_error("negative input");
        f.exit(1);
        f.ret(None);
        f.set_block(ok);
        f.output(x);
        f.ret(None);
        f.finish();
        (pb.finish(main), site)
    }

    fn collected() -> (CollectedProfiles, stm_machine::ids::LogSiteId) {
        let (program, site) = guarded_program();
        let profiles = DiagnosisSession::new(&program)
            .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(vec![Workload::new(vec![-1]), Workload::new(vec![-7])])
            .passing(vec![Workload::new(vec![1]), Workload::new(vec![9])])
            .failure_profiles(6)
            .success_profiles(6)
            .collect()
            .expect("collection succeeds");
        (profiles, site)
    }

    fn snapshots(profiles: &CollectedProfiles, shard: &str) -> Vec<Snapshot> {
        let mut out = Vec::new();
        for run in profiles.failure_runs() {
            out.push(Snapshot {
                shard: shard.to_string(),
                witness: run.witness.clone(),
                is_failure: true,
                report: run.report.clone(),
            });
        }
        for run in profiles.success_runs() {
            out.push(Snapshot {
                shard: shard.to_string(),
                witness: run.witness.clone(),
                is_failure: false,
                report: run.report.clone(),
            });
        }
        out
    }

    #[test]
    fn daemon_matches_batch_ranking() {
        let (profiles, _site) = collected();
        let expected = profiles.lbr_model().rank();

        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "only",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default().policy(StabilityPolicy::never()),
        );
        fleet.start();
        for s in snapshots(&profiles, "only") {
            assert_eq!(fleet.submit(s), SubmitOutcome::Enqueued);
        }
        let reports = fleet.finish();
        let report = reports["only"].report.as_ref().expect("ingested");
        match &report.final_ranking {
            FinalRanking::Lbr(ranked) => assert_eq!(*ranked, expected),
            FinalRanking::Lcr(_) => panic!("lbr shard produced lcr ranking"),
        }
        assert_eq!(reports["only"].ingested, 12);
        assert_eq!(reports["only"].shed, 0);
    }

    #[test]
    fn chain_rides_the_shard_verdict() {
        let (profiles, _site) = collected();
        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "only",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default().policy(StabilityPolicy::never()),
        );
        fleet.start();
        for s in snapshots(&profiles, "only") {
            assert_eq!(fleet.submit(s), SubmitOutcome::Enqueued);
        }
        let reports = fleet.finish();
        let chain = reports["only"].chain.as_ref().expect("chain formed");
        let links = chain.get("links").and_then(Json::as_array).expect("links");
        assert!(!links.is_empty(), "chain has at least the anchor link");
        // The terminal fleet doc entry carries the same chain.
        let entry = reports["only"].to_json();
        assert_eq!(entry.get("chain"), Some(chain));
    }

    #[test]
    fn unknown_shard_and_closed_are_reported() {
        let (profiles, _site) = collected();
        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "a",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default(),
        );
        fleet.start();
        let mut snap = snapshots(&profiles, "nope").remove(0);
        assert_eq!(fleet.submit(snap.clone()), SubmitOutcome::UnknownShard);
        snap.shard = "a".to_string();
        assert_eq!(fleet.submit(snap.clone()), SubmitOutcome::Enqueued);
        let _ = fleet.finish();
    }

    #[test]
    fn drop_oldest_sheds_exactly_the_overflow() {
        let (profiles, _site) = collected();
        let all = snapshots(&profiles, "s");
        let capacity = 4;
        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "s",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default()
                .policy(StabilityPolicy::never())
                .queue_capacity(capacity)
                .shed(ShedPolicy::DropOldest),
        );
        fleet.start();
        fleet.pause("s");
        let mut shed = 0;
        for s in &all {
            match fleet.submit(s.clone()) {
                SubmitOutcome::Enqueued => {}
                SubmitOutcome::ShedOldest => shed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(shed, all.len() - capacity);
        assert_eq!(fleet.queue_depth("s"), capacity);
        assert_eq!(fleet.shed_count("s"), shed as u64);
        fleet.resume("s");
        fleet.drain();
        let reports = fleet.finish();
        // Drop-oldest keeps the LAST `capacity` snapshots.
        assert_eq!(reports["s"].ingested, capacity as u64);
        assert_eq!(reports["s"].shed, shed as u64);
        let expected: Vec<_> = all[all.len() - capacity..]
            .iter()
            .map(|s| s.witness.clone())
            .collect();
        // All kept snapshots are successes here (failures came first and
        // were shed), so the ranking has no failure evidence; the exact
        // kept set is pinned via counts instead.
        assert_eq!(expected.len(), capacity);
    }

    #[test]
    fn reject_new_keeps_the_head_of_the_stream() {
        let (profiles, _site) = collected();
        let all = snapshots(&profiles, "s");
        let capacity = 5;
        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "s",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default()
                .policy(StabilityPolicy::never())
                .queue_capacity(capacity)
                .shed(ShedPolicy::RejectNew),
        );
        fleet.start();
        fleet.pause("s");
        let mut rejected = 0;
        for s in &all {
            match fleet.submit(s.clone()) {
                SubmitOutcome::Enqueued => {}
                SubmitOutcome::RejectedNew => rejected += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(rejected, all.len() - capacity);
        fleet.resume("s");
        let reports = fleet.finish();
        assert_eq!(reports["s"].ingested, capacity as u64);
        assert_eq!(reports["s"].shed, rejected as u64);
    }

    #[test]
    fn early_stop_latches_per_shard() {
        let (profiles, _site) = collected();
        let all = snapshots(&profiles, "s");
        let mut fleet = FleetDaemon::new();
        fleet.add_shard(
            "s",
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            ShardConfig::default().policy(
                StabilityPolicy::default()
                    .stable_for(2)
                    .min_failures(2)
                    .min_successes(2),
            ),
        );
        fleet.start();
        // Interleave so the policy can see both classes early.
        let (fails, passes): (Vec<_>, Vec<_>) = all.into_iter().partition(|s| s.is_failure);
        for (f, p) in fails.into_iter().zip(passes) {
            fleet.submit(f);
            fleet.submit(p);
        }
        let reports = fleet.finish();
        let r = &reports["s"];
        assert_eq!(r.verdict, "converged");
        // Post-stop snapshots were dropped, not ingested.
        assert!(r.after_stop > 0, "expected post-stop drops, got {r:?}");
        let report = r.report.as_ref().expect("report");
        assert_eq!(report.verdict, Verdict::ConvergedEarly);
    }
}
