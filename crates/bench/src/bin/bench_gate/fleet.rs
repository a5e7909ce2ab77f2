//! The `fleet` harness: sustained sharded ingest throughput, per-shard
//! time-to-converged, and exact shed accounting under forced overload.
//!
//! Two phases over the same snapshot pools (sort → LBRA, apache4 →
//! LCRA Conf2; both batch-collected once, then replayed by simulated
//! endpoints):
//!
//! * **Sustained** — ≥1000 seeded endpoints push snapshots at four
//!   shards (`sort-0/1`, `apache4-0/1`) through queues deep enough to
//!   never shed. The wall-clock headline (`endpoints_per_sec`) is
//!   machine-dependent and stays ungated; the per-shard witness counts
//!   to the early-stop verdict are fully deterministic — each shard is
//!   one FIFO consumer, so ingest order equals the seeded submission
//!   order — and gate against the baseline.
//! * **Overload** — every shard is paused (its worker held off) and
//!   fed `capacity + overflow` snapshots, so exactly `overflow` must
//!   shed — half the shards under drop-oldest, half under reject-new —
//!   with one `fleet`/`shed` event per shed snapshot. The exact counts
//!   gate; a shed going missing (or an extra one appearing) is a
//!   backpressure accounting bug.
//!
//! Counter baselines are higher-is-worse, so a diff alone would read an
//! under-count as an improvement. Four harness checks close that hole;
//! each prints its reason and fails the gate:
//!
//! * after the sustained phase drains, the live `"fleet"` status
//!   document (what `/diagnosis` serves) lists every shard, each with a
//!   causal chain of at least one link;
//! * after either phase's `finish`, the terminal `"fleet"` document lists
//!   every shard with its live entry's key set, and with the `verdict`,
//!   `ingested`, `skipped`, `after_stop` and `shed` of its `ShardReport`;
//! * after the overload phase, `fleet.shed_total` equals the shards'
//!   summed `shed`;
//! * and each `fleet.shed{shard="…"}` series equals its own shard's
//!   `shed`.

use std::collections::BTreeMap;
use std::time::Instant;

use stm_bench::MetricsEmitter;
use stm_core::converge::StabilityPolicy;
use stm_core::diagnose::Quotas;
use stm_core::engine::CollectedProfiles;
use stm_fleet::{FleetDaemon, ShardConfig, ShardReport, ShedPolicy, Snapshot, SubmitOutcome};
use stm_machine::report::RunReport;
use stm_suite::eval::default_threads;
use stm_telemetry::json::Json;

use crate::{deploy, Outcome};

/// Simulated endpoints in the sustained phase (≥1000 per the
/// acceptance bar; spread across all four shards by the schedule).
const ENDPOINTS: usize = 1200;
/// Queue capacity in the overload phase.
const CAPACITY: usize = 32;
/// Submissions beyond capacity per paused shard — the exact shed count.
const OVERFLOW: usize = 16;
/// Endpoint schedule seed: fixing it pins every gated metric.
const SEED: u64 = 0xF1EE7;

const SHARDS: [&str; 4] = ["sort-0", "sort-1", "apache4-0", "apache4-1"];

/// xorshift64* over the schedule seed.
struct Schedule(u64);

impl Schedule {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }
}

/// Batch-collects the replayable snapshot pool for one suite benchmark.
fn pool(id: &str) -> (CollectedProfiles, Vec<(bool, String, RunReport)>) {
    let profiles = deploy(id)
        .session(default_threads())
        .collect()
        .expect("pool collection succeeds");
    let mut snaps = Vec::new();
    for run in profiles.failure_runs() {
        snaps.push((true, run.witness.clone(), run.report.clone()));
    }
    for run in profiles.success_runs() {
        snaps.push((false, run.witness.clone(), run.report.clone()));
    }
    (profiles, snaps)
}

fn add_shards(
    fleet: &mut FleetDaemon,
    pools: &[&CollectedProfiles; 2],
    config: impl Fn(usize) -> ShardConfig,
) {
    for (i, name) in SHARDS.iter().enumerate() {
        let profiles = pools[i / 2];
        fleet.add_shard(
            *name,
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            config(i),
        );
    }
}

pub fn run(metrics: &mut MetricsEmitter) -> Outcome {
    // Pools are collected with telemetry off, so the gated counter
    // deltas cover only daemon activity.
    stm_telemetry::set_enabled(false);
    let (sort_profiles, sort_snaps) = pool("sort");
    let (apache_profiles, apache_snaps) = pool("apache4");
    stm_telemetry::set_enabled(true);
    let pools = [&sort_profiles, &apache_profiles];
    let snaps = [&sort_snaps, &apache_snaps];

    println!("Fleet daemon: sharded ingest with explicit backpressure");

    // ---- Phase 1: sustained ingest, no shedding ---------------------
    let mut fleet = FleetDaemon::new();
    add_shards(&mut fleet, &pools, |_| {
        // Queues deep enough that backpressure never triggers: this
        // phase measures throughput and convergence, not shedding.
        ShardConfig::default()
            .queue_capacity(ENDPOINTS)
            .policy(StabilityPolicy::default())
    });
    fleet.start();
    let started = Instant::now();
    let mut schedule = Schedule(SEED | 1);
    for endpoint in 0..ENDPOINTS {
        let r = schedule.next();
        let shard_idx = (r % SHARDS.len() as u64) as usize;
        let pool = snaps[shard_idx / 2];
        let (is_failure, witness, report) = &pool[(r >> 8) as usize % pool.len()];
        let outcome = fleet.submit(Snapshot {
            shard: SHARDS[shard_idx].to_string(),
            witness: format!("ep{endpoint}:{witness}"),
            is_failure: *is_failure,
            report: report.clone(),
        });
        assert_eq!(
            outcome,
            SubmitOutcome::Enqueued,
            "sustained phase must not shed"
        );
    }
    fleet.drain();
    let elapsed = started.elapsed();
    let mut outcome = Outcome::default();
    let live = fleet_entries();
    let live_links = live_chain_links(&live, &mut outcome);
    let reports = fleet.finish();
    check_terminal_doc(&live, &reports, &mut outcome);
    let eps = ENDPOINTS as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "  sustained: {ENDPOINTS} endpoints in {:.1} ms ({eps:.0}/s)",
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "  {:<12} {:>10} {:>12} {:>10} {:>10} {:>11}",
        "shard", "verdict", "to-verdict", "ingested", "after-stop", "live-links"
    );
    for (name, links) in SHARDS.into_iter().zip(live_links) {
        let r = &reports[name];
        let witnesses = r.report.as_ref().map(|c| c.evidence.witnesses).unwrap_or(0);
        println!(
            "  {:<12} {:>10} {:>12} {:>10} {:>10} {:>11}",
            name, r.verdict, witnesses, r.ingested, r.after_stop, links
        );
        metrics.checkpoint(
            name,
            vec![
                ("witnesses_to_verdict", Json::from(witnesses)),
                ("ingested", Json::from(r.ingested)),
                ("skipped", Json::from(r.skipped)),
                ("after_stop", Json::from(r.after_stop)),
                ("shed", Json::from(r.shed)),
                (
                    "not_converged",
                    Json::from(u64::from(r.verdict != "converged")),
                ),
            ],
        );
    }

    // ---- Phase 2: forced overload, exact shed accounting ------------
    // Shed warnings echo to stderr by default; 64 of them would bury
    // the table. The structured events still land in the buffer.
    stm_telemetry::log::set_stderr_level(None);
    let _ = stm_telemetry::log::take_events();
    let before_overload = stm_telemetry::metrics_snapshot();
    let mut fleet = FleetDaemon::new();
    add_shards(&mut fleet, &pools, |i| {
        ShardConfig::default()
            .queue_capacity(CAPACITY)
            // `never()` + roomy quotas: every kept snapshot ingests, so
            // the gated ingest count is exactly the queue capacity.
            .policy(StabilityPolicy::never())
            .quotas(
                Quotas::default()
                    .failure_profiles(usize::MAX)
                    .success_profiles(usize::MAX)
                    .max_runs(usize::MAX),
            )
            .shed(if i % 2 == 0 {
                ShedPolicy::DropOldest
            } else {
                ShedPolicy::RejectNew
            })
    });
    fleet.start();
    for name in SHARDS {
        assert!(fleet.pause(name), "shard {name} exists");
    }
    let mut schedule = Schedule(SEED.wrapping_add(0xBEEF) | 1);
    let mut shed_outcomes = [0u64; 4];
    for (i, name) in SHARDS.iter().enumerate() {
        let pool = snaps[i / 2];
        for n in 0..CAPACITY + OVERFLOW {
            let (is_failure, witness, report) = &pool[schedule.next() as usize % pool.len()];
            match fleet.submit(Snapshot {
                shard: name.to_string(),
                witness: format!("overload{n}:{witness}"),
                is_failure: *is_failure,
                report: report.clone(),
            }) {
                SubmitOutcome::Enqueued => {}
                SubmitOutcome::ShedOldest | SubmitOutcome::RejectedNew => shed_outcomes[i] += 1,
                other => panic!("overload submit returned {other:?}"),
            }
        }
    }
    for name in SHARDS {
        fleet.resume(name);
    }
    fleet.drain();
    let shed_events = stm_telemetry::log::take_events()
        .iter()
        .filter(|e| e.component == "fleet" && e.event == "shed")
        .count();
    let live = fleet_entries();
    let reports = fleet.finish();
    check_terminal_doc(&live, &reports, &mut outcome);
    let shed_counters = stm_telemetry::metrics_snapshot().delta_since(&before_overload);
    stm_telemetry::log::set_stderr_level(Some(stm_telemetry::log::Level::Warn));
    println!(
        "  overload: {} submissions/shard against capacity {CAPACITY} \
         ({shed_events} shed events)",
        CAPACITY + OVERFLOW
    );
    println!(
        "  {:<12} {:>12} {:>8} {:>10}",
        "shard", "policy", "shed", "ingested"
    );
    for (i, name) in SHARDS.iter().enumerate() {
        let r = &reports[*name];
        let policy = if i % 2 == 0 {
            "drop-oldest"
        } else {
            "reject-new"
        };
        println!(
            "  {:<12} {:>12} {:>8} {:>10}",
            name, policy, r.shed, r.ingested
        );
        assert_eq!(r.shed, shed_outcomes[i], "{name}: counter vs outcomes");
        let series = stm_telemetry::series_name("fleet.shed", "shard", name);
        let counted = shed_counters.counter(&series).unwrap_or(0);
        if counted != r.shed {
            eprintln!(
                "{name}: {series} counted {counted} sheds, the shard shed {}",
                r.shed
            );
            outcome.failed = true;
        }
        metrics.checkpoint(
            &format!("{name}-overload"),
            vec![
                ("shed", Json::from(r.shed)),
                ("ingested", Json::from(r.ingested)),
                ("skipped", Json::from(r.skipped)),
                (
                    "shed_delta_vs_expected",
                    Json::from(r.shed.abs_diff(OVERFLOW as u64)),
                ),
            ],
        );
    }
    let total_shed: u64 = reports.values().map(|r| r.shed).sum();
    let counted = shed_counters.counter("fleet.shed_total").unwrap_or(0);
    if counted != total_shed {
        eprintln!("fleet: fleet.shed_total counted {counted} sheds, the shards shed {total_shed}");
        outcome.failed = true;
    }
    metrics.checkpoint(
        "overload-events",
        vec![(
            "missing_shed_events",
            Json::from((total_shed as usize).abs_diff(shed_events)),
        )],
    );

    metrics.top_level("endpoints", Json::from(ENDPOINTS));
    metrics.top_level("endpoints_per_sec", Json::from(eps));
    metrics.top_level("sustained_ms", Json::from(elapsed.as_secs_f64() * 1e3));
    outcome
}

/// Each shard's entry in the `"fleet"` status document published last.
fn fleet_entries() -> [Option<Json>; 4] {
    let doc = stm_telemetry::status::get("fleet");
    SHARDS.map(|name| doc.as_ref()?.get("shards")?.get(name).cloned())
}

/// Link counts of each shard's live causal chain, read from its live
/// `"fleet"` status entry. A shard the document does not list, or lists
/// without a chain, fails the gate.
fn live_chain_links(live: &[Option<Json>; 4], outcome: &mut Outcome) -> [usize; 4] {
    std::array::from_fn(|i| {
        let links = live[i]
            .as_ref()
            .and_then(|e| e.get("chain")?.get("links"))
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        if links == 0 {
            let name = SHARDS[i];
            eprintln!("{name}: no causal chain in the live fleet status document");
            outcome.failed = true;
        }
        links
    })
}

/// Fails the gate unless the terminal `"fleet"` status document lists
/// every shard with the key set of its `live` entry, and with the
/// verdict and counts of its [`ShardReport`].
fn check_terminal_doc(
    live: &[Option<Json>; 4],
    reports: &BTreeMap<String, ShardReport>,
    outcome: &mut Outcome,
) {
    let keys = |entry: Option<&Json>| -> Vec<String> {
        match entry {
            Some(Json::Obj(map)) => map.keys().cloned().collect(),
            _ => Vec::new(),
        }
    };
    for ((name, live), terminal) in SHARDS.iter().zip(live).zip(fleet_entries()) {
        let Some(terminal) = terminal else {
            eprintln!("{name}: missing from the terminal fleet status document");
            outcome.failed = true;
            continue;
        };
        let (want, got) = (keys(live.as_ref()), keys(Some(&terminal)));
        if want != got {
            eprintln!("{name}: terminal fleet entry keys {got:?}, live entry keys {want:?}");
            outcome.failed = true;
        }
        let r = &reports[*name];
        for (key, value) in [
            ("verdict", Json::from(r.verdict.as_str())),
            ("ingested", Json::from(r.ingested)),
            ("skipped", Json::from(r.skipped)),
            ("after_stop", Json::from(r.after_stop)),
            ("shed", Json::from(r.shed)),
        ] {
            let entry = terminal.get(key);
            if entry != Some(&value) {
                eprintln!("{name}: terminal fleet entry {key} is {entry:?}, the shard report says {value:?}");
                outcome.failed = true;
            }
        }
    }
}
