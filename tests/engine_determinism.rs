//! The collection engine's headline guarantee: thread count never changes
//! results. `threads(1)` and `threads(8)` must produce byte-identical
//! ranking artifacts for a sequential (LBRA) and a concurrency (LCRA)
//! benchmark — same witnesses, same stats, same serialized report.

use stm::core::diagnose::Diagnosis;
use stm::core::engine::CollectedProfiles;
use stm::forensics::{CausalChain, RankingReport};
use stm::hardware::HwConfig;
use stm::suite::eval::{default_threads, Deployment};

/// Deploys one benchmark for its Table 6/7 diagnosis, its witnesses
/// expanded on `threads` workers. Every collection below deploys afresh
/// at its own thread count, so each 1-vs-8 pair also compares two
/// independent instrumentations and, for apache4, two seed scans.
fn deploy(id: &str, threads: usize) -> Deployment {
    let b = stm::suite::by_id(id).expect("benchmark exists");
    Deployment::new(b, threads)
}

/// Deploys and collects one benchmark's profiles at the given thread
/// count, with an optional hardware override (perturbed sweeps reuse
/// full-signal witnesses: perturbation never changes execution or
/// classification).
fn collect_hw(id: &str, threads: usize, hw: Option<HwConfig>) -> (Deployment, CollectedProfiles) {
    let d = deploy(id, threads);
    let mut session = d.session(threads);
    if let Some(hw) = hw {
        session = session.hw_config(hw);
    }
    let profiles = session.collect().expect("collection succeeds");
    (d, profiles)
}

/// Deploys and collects one benchmark's profiles at the given thread
/// count.
fn collect(id: &str, threads: usize) -> (Deployment, CollectedProfiles) {
    collect_hw(id, threads, None)
}

/// Deploys and collects with a convergence monitor attached.
fn collect_converge(
    id: &str,
    threads: usize,
    policy: stm::core::converge::StabilityPolicy,
) -> CollectedProfiles {
    deploy(id, threads)
        .session(threads)
        .converge(policy)
        .collect()
        .expect("collection succeeds")
}

/// The deployment's top-10 ranking report over one collection, as JSON.
fn report(d: &Deployment, p: &CollectedProfiles) -> String {
    let (program, id) = (d.runner.machine().program(), d.bench.info.id);
    let report = match d.rank(p) {
        Diagnosis::Lbr(r) => RankingReport::from_lbra(program, id, &r, 10),
        Diagnosis::Lcr(r) => RankingReport::from_lcra(program, id, &r, 10),
    };
    report.to_json().encode()
}

fn witnesses(p: &CollectedProfiles) -> (Vec<String>, Vec<String>) {
    let names = |runs: &[stm::core::engine::CollectedRun]| {
        runs.iter().map(|r| r.witness.clone()).collect::<Vec<_>>()
    };
    (names(p.failure_runs()), names(p.success_runs()))
}

#[test]
fn lbra_ranking_json_is_identical_at_1_and_8_threads() {
    let (d, p1) = collect("sort", 1);
    let (_, p8) = collect("sort", 8);

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");
    assert_eq!(
        report(&d, &p1),
        report(&d, &p8),
        "LBRA ranking JSON must be byte-identical"
    );
}

/// A mid-grid sensitivity setting: truncate both rings to 8 records and
/// drop each surviving record with probability 1/2.
fn perturbed_hw() -> HwConfig {
    HwConfig {
        perturb: stm::hardware::PerturbConfig::NONE
            .truncate_lbr(8)
            .truncate_lcr(8)
            .drop_rate(0.5),
        ..HwConfig::default()
    }
}

#[test]
fn perturbed_lbra_ranking_json_is_identical_at_1_and_8_threads() {
    // Fault injection draws from a per-run RNG seeded by the workload's
    // scheduler seed, so a degraded-signal session must keep the engine's
    // headline guarantee: thread count never changes results.
    let (d, p1) = collect_hw("sort", 1, Some(perturbed_hw()));
    let (_, p8) = collect_hw("sort", 8, Some(perturbed_hw()));

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");
    assert_eq!(
        report(&d, &p1),
        report(&d, &p8),
        "perturbed LBRA ranking JSON must be byte-identical"
    );
}

#[test]
fn perturbed_lcra_ranking_json_is_identical_at_1_and_8_threads() {
    let (d, p1) = collect_hw("apache4", 1, Some(perturbed_hw()));
    let (_, p8) = collect_hw("apache4", 8, Some(perturbed_hw()));

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");
    assert_eq!(
        report(&d, &p1),
        report(&d, &p8),
        "perturbed LCRA ranking JSON must be byte-identical"
    );
}

#[test]
fn guest_profile_is_identical_at_1_and_8_threads() {
    // The guest profiler samples on retired instructions — the machine's
    // own clock — so every profile artifact must inherit the engine's
    // thread-count invariance. (The critical-path report is wall-clock
    // and deliberately excluded from this pin.)
    let period = 64u64;
    let profile_at = |threads: usize| {
        let d = deploy("sort", threads);
        let profiles = d
            .session(threads)
            .run_config(stm::machine::interp::RunConfig {
                profile_period: period,
                ..d.runner.run_config().clone()
            })
            .collect()
            .expect("collection succeeds");
        let mut g = stm::profiler::GuestProfile::new(d.runner.machine().program(), period);
        for run in profiles
            .failure_runs()
            .iter()
            .chain(profiles.success_runs())
        {
            g.add_run(&run.report);
        }
        g
    };
    let g1 = profile_at(1);
    let g8 = profile_at(8);
    assert_eq!(
        g1.folded(),
        g8.folded(),
        "folded stacks must be byte-identical"
    );
    assert_eq!(
        g1.render_md(10),
        g8.render_md(10),
        "markdown report must be byte-identical"
    );
    assert_eq!(
        g1.to_json(10).encode(),
        g8.to_json(10).encode(),
        "JSON report must be byte-identical"
    );
    assert!(!g1.folded().is_empty(), "sort must produce samples");
    // Pin sort's known hot spot: the instrumented run spends its leaf
    // samples in the hash function the bug lives around.
    let (top, _) = g1.top_frame().expect("samples exist");
    assert_eq!(top, "hash", "sort's hottest function must stay pinned");
}

#[test]
fn observatory_scrapes_do_not_change_rankings() {
    // The observability layer is read-only by construction: telemetry
    // collection on, the metrics endpoint live, and a scraper hammering
    // /metrics and /health throughout collection must leave the ranking
    // artifacts byte-identical across thread counts. (Nothing in this
    // binary asserts registry contents, so flipping the global enable
    // flag here cannot disturb the other tests.)
    use std::sync::atomic::{AtomicBool, Ordering};

    stm::telemetry::set_enabled(true);
    let server = stm::observatory::MetricsServer::start("127.0.0.1:0").expect("bind endpoint");
    let addr = server.addr();
    let stop = AtomicBool::new(false);

    let (d, p1, p8, scrapes) = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut scrapes = 0u64;
            let timeout = std::time::Duration::from_secs(2);
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/health"] {
                    if stm::observatory::watch::http_get(addr, path, timeout).is_ok() {
                        scrapes += 1;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            scrapes
        });
        let (d, p1) = collect("sort", 1);
        let (_, p8) = collect("sort", 8);
        stop.store(true, Ordering::Relaxed);
        (d, p1, p8, scraper.join().expect("scraper thread"))
    });
    stm::telemetry::set_enabled(false);

    assert!(scrapes > 0, "the endpoint must have answered live scrapes");
    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");
    assert_eq!(
        report(&d, &p1),
        report(&d, &p8),
        "rankings must be byte-identical with the observatory enabled"
    );
}

#[test]
fn incremental_ranking_at_quota_is_bit_identical_to_batch_rank() {
    // The tentpole invariant: a monitored session run to its full quota
    // (policy may never stop) must hand back a final ranking that is
    // bit-identical — scores and tie-break order — to the batch model over
    // the same collected profiles, for every Table 4 diagnosis at both
    // thread counts. Witness ids are not part of a ranking: the model
    // answers them on demand, and the postings oracle test checks them
    // against a rescan at every prefix.
    use stm::core::converge::{FinalRanking, StabilityPolicy};
    use stm::core::engine::ProfileKind;
    use stm::core::runner::FailureSpec;

    for b in stm::suite::all() {
        let id = b.info.id;
        let wrong_output = b.truth.spec == FailureSpec::WrongOutput;
        for threads in [1, 8] {
            let d = deploy(id, threads);
            let p = d
                .session(threads)
                .converge(StabilityPolicy::never())
                .collect()
                .expect("collection succeeds");
            let batch = match d.kind {
                ProfileKind::Lbr => FinalRanking::Lbr(p.lbra().model.rank()),
                ProfileKind::Lcr => FinalRanking::Lcr(p.lcra().model.rank_with_absence()),
            };
            match p.convergence() {
                Some(report) => {
                    assert!(
                        !wrong_output,
                        "{id} threads({threads}): no profile to ingest"
                    );
                    assert_eq!(
                        report.final_ranking, batch,
                        "{id} threads({threads}): incremental != batch ranking"
                    );
                }
                None => {
                    assert!(
                        wrong_output,
                        "{id} threads({threads}): monitored session reports"
                    );
                    assert!(batch.is_empty(), "{id} threads({threads}): {batch:?}");
                }
            }
        }
    }
}

#[test]
fn early_stop_is_identical_at_1_and_8_threads() {
    // The stability policy decides only at the strict-ordered consumption
    // seam, so an early-stopped session must keep every headline
    // determinism guarantee: same witnesses kept, same stop point, same
    // verdict and evidence, same final ranking at any thread count.
    use stm::core::converge::{FinalRanking, StabilityPolicy};

    let p1 = collect_converge("apache4", 1, StabilityPolicy::default());
    let p8 = collect_converge("apache4", 8, StabilityPolicy::default());

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let r1 = p1.convergence().expect("monitored session reports");
    let r8 = p8.convergence().expect("monitored session reports");
    assert_eq!(r1.verdict, r8.verdict, "verdict must match");
    assert_eq!(r1.evidence, r8.evidence, "evidence must match");
    assert_eq!(r1.final_ranking, r8.final_ranking, "ranking must match");
    // The policy must actually have fired on apache4: fewer witnesses
    // than the 10 + 10 quota (the bench gate pins the exact count).
    assert_eq!(
        r1.verdict,
        stm::core::converge::Verdict::ConvergedEarly,
        "apache4 must converge early under the default policy"
    );
    assert!(
        r1.evidence.witnesses < 20,
        "early stop must ingest fewer witnesses than the quota, got {}",
        r1.evidence.witnesses
    );
    // The evidence names the final ranking's top-1, holds one poll per
    // ingested witness, and records the stability that stopped it.
    assert!(r1.evidence.stable);
    let FinalRanking::Lcr(ranked) = &r1.final_ranking else {
        panic!("apache4 is diagnosed by LCRA");
    };
    assert_eq!(r1.evidence.top1, Some(ranked[0].to_string()));
    assert_eq!(r1.evidence.history.len(), r1.evidence.witnesses);
}

/// A reference hardware stack that forwards only the per-event
/// [`Hardware`](stm::machine::events::Hardware) methods, so the
/// trait-default `on_batch` replays every batch one event at a time —
/// exactly the pre-batching ingestion path the real
/// [`HardwareCtx`](stm::hardware::HardwareCtx) override must stay
/// bit-identical to.
struct PerEvent(stm::hardware::HardwareCtx);

impl stm::machine::events::Hardware for PerEvent {
    fn on_branch(
        &mut self,
        core: stm::machine::ids::CoreId,
        ev: stm::machine::events::BranchEvent,
    ) {
        self.0.on_branch(core, ev);
    }

    fn on_access(
        &mut self,
        core: stm::machine::ids::CoreId,
        thread: stm::machine::ids::ThreadId,
        ev: stm::machine::events::AccessEvent,
    ) {
        self.0.on_access(core, thread, ev);
    }

    fn ctl(
        &mut self,
        core: stm::machine::ids::CoreId,
        thread: stm::machine::ids::ThreadId,
        op: stm::machine::events::HwCtlOp,
    ) -> stm::machine::events::CtlResponse {
        self.0.ctl(core, thread, op)
    }
}

/// Collects a benchmark through the engine (batched event path, cached
/// per-thread hardware) and replays every kept witness on a fresh
/// per-event hardware stack: the full run reports — ring-snapshot
/// profiles included — must be byte-identical.
fn assert_batched_matches_per_event(bench: &str, hw: Option<HwConfig>) {
    for threads in [1usize, 8] {
        let (d, profiles) = collect_hw(bench, threads, hw);
        let runner = &d.runner;
        let kept: Vec<_> = profiles
            .failure_runs()
            .iter()
            .chain(profiles.success_runs())
            .collect();
        assert!(!kept.is_empty(), "{bench} must keep witnesses");
        let hw_config = hw.unwrap_or_default();
        for run in kept {
            let mut reference = PerEvent(stm::hardware::HardwareCtx::new(hw_config));
            reference.0.seed_perturbations(run.workload.seed);
            let mut cfg = runner.run_config().clone();
            cfg.scheduler = stm::machine::sched::SchedPolicy::Random {
                seed: run.workload.seed,
            };
            let report = runner
                .machine()
                .run(&run.workload.inputs, &cfg, &mut reference);
            assert_eq!(
                report, run.report,
                "{bench} threads({threads}) witness {}: batched rings must \
                 equal the per-event replay",
                run.witness
            );
        }
    }
}

#[test]
fn batched_rings_match_per_event_replay_on_sort() {
    assert_batched_matches_per_event("sort", None);
}

#[test]
fn batched_rings_match_per_event_replay_on_apache4() {
    assert_batched_matches_per_event("apache4", None);
}

#[test]
fn perturbed_batched_rings_match_per_event_replay() {
    // The copy-elided (lazy) snapshot path defers the ring read past the
    // perturbation layer's loss draws; the RNG draw order must still
    // match the per-event reference exactly, or these reports diverge.
    assert_batched_matches_per_event("sort", Some(perturbed_hw()));
    assert_batched_matches_per_event("apache4", Some(perturbed_hw()));
}

#[test]
fn bts_batch_push_matches_per_event_recording() {
    // With BTS enabled, the interpreter's batched event path lands in
    // `Bts::push_batch`; the whole-history trace (and the run report)
    // must be byte-identical to the per-event reference recording.
    let d = deploy("sort", default_threads());
    let runner = &d.runner;
    let hw_config = HwConfig {
        enable_bts: true,
        ..HwConfig::default()
    };
    for w in d.failing.iter().take(3) {
        let mut cfg = runner.run_config().clone();
        cfg.scheduler = stm::machine::sched::SchedPolicy::Random { seed: w.seed };

        let mut batched = stm::hardware::HardwareCtx::new(hw_config);
        batched.seed_perturbations(w.seed);
        let batched_report = runner.machine().run(&w.inputs, &cfg, &mut batched);

        let mut reference = PerEvent(stm::hardware::HardwareCtx::new(hw_config));
        reference.0.seed_perturbations(w.seed);
        let reference_report = runner.machine().run(&w.inputs, &cfg, &mut reference);

        assert_eq!(
            batched_report, reference_report,
            "seed {}: run reports must match under BTS",
            w.seed
        );
        let trace = batched.bts().expect("BTS enabled").trace();
        assert_eq!(
            trace,
            reference.0.bts().expect("BTS enabled").trace(),
            "seed {}: batched BTS trace must equal per-event recording",
            w.seed
        );
        assert!(
            !trace.is_empty(),
            "seed {}: sort must retire branches",
            w.seed
        );
    }
}

#[test]
fn causal_chain_json_is_identical_at_1_and_8_threads() {
    // The causal-chain reconstruction consumes the ranking AND the raw
    // decoded rings of every failing witness, so it inherits (and must
    // preserve) the engine's thread-count invariance end to end.
    for id in ["sort", "apache4"] {
        let chain = |threads: usize| -> String {
            let (diagnosis, p) = deploy(id, threads)
                .diagnose(HwConfig::default(), threads)
                .expect("collection succeeds");
            CausalChain::from_profiles(&p, &diagnosis)
                .unwrap_or_else(|| panic!("{id}: chain must reconstruct"))
                .to_json()
                .encode()
        };
        assert_eq!(
            chain(1),
            chain(8),
            "{id}: causal-chain JSON must be byte-identical across thread counts"
        );
    }
}

#[test]
fn lcra_ranking_json_is_identical_at_1_and_8_threads() {
    let (d, p1) = collect("apache4", 1);
    let (_, p8) = collect("apache4", 8);

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");
    assert_eq!(
        report(&d, &p1),
        report(&d, &p8),
        "LCRA ranking JSON must be byte-identical"
    );
}
