//! Suite-wide pins for the collection engine's witness-phase stop rules
//! (`stm_core::engine`, "Job model"): a phase that cannot keep a run
//! stops early, and only the run count of such a phase may move.
//!
//! Every Table 6/7 diagnosis is deployed and run at one and four threads
//! (seed scan and witness session alike); both give the same stats,
//! witnesses, ranking and causal chain, and `total_runs` is pinned per
//! benchmark. The lap-invariance premise of the barren-lap
//! rule is pinned on the real witnesses.

use stm::core::engine::CollectedRun;
use stm::core::runner::Runner;
use stm::forensics::CausalChain;
use stm::hardware::HwConfig;
use stm::machine::ir::Instr;
use stm::suite::eval::{default_threads, Deployment};
use stm::suite::Benchmark;

/// `DiagnosisStats::total_runs` of every Table 6/7 diagnosis. Before the
/// stop rules, apache3 and cp ran 2,010 times and the three `WrongOutput`
/// bugs (apache5, cherokee, mozilla-js2) 4,000 times; every other entry
/// is unchanged.
const TOTAL_RUNS: &[(&str, usize)] = &[
    ("apache1", 20),
    ("apache2", 20),
    ("apache3", 10),
    ("cp", 13),
    ("cppcheck1", 20),
    ("cppcheck2", 20),
    ("cppcheck3", 20),
    ("lighttpd", 20),
    ("ln", 20),
    ("mv", 20),
    ("paste", 20),
    ("pbzip1", 20),
    ("pbzip2", 20),
    ("rm", 20),
    ("sort", 20),
    ("squid1", 20),
    ("squid2", 20),
    ("tac", 20),
    ("tar1", 20),
    ("tar2", 20),
    ("apache4", 28),
    ("apache5", 0),
    ("cherokee", 0),
    ("fft", 20),
    ("lu", 20),
    ("mozilla-js1", 28),
    ("mozilla-js2", 0),
    ("mozilla-js3", 20),
    ("mysql1", 20),
    ("mysql2", 20),
    ("pbzip3", 20),
];

/// The benchmark's Table 6 (LBRA) or Table 7 (LCRA, Conf2) deployment.
fn deployment(b: Benchmark) -> Deployment {
    Deployment::new(b, default_threads())
}

fn witnesses(runs: &[CollectedRun]) -> Vec<&str> {
    runs.iter().map(|r| r.witness.as_str()).collect()
}

#[test]
fn suite_run_counts_are_pinned_and_thread_independent() {
    let mut measured = Vec::new();
    let mut chainless = Vec::new();
    for b in stm::suite::all() {
        // Each thread count deploys afresh, so a concurrency bug's seed
        // scan runs at that count too.
        let diagnose = |threads: usize| {
            let (diagnosis, profiles) = Deployment::new(b.clone(), threads)
                .diagnose(HwConfig::default(), threads)
                .expect("witness-mode collection cannot fail");
            let chain = CausalChain::from_profiles(&profiles, &diagnosis);
            (diagnosis, profiles, chain.map(|c| c.to_json().encode()))
        };
        let (seq_diagnosis, seq, seq_chain) = diagnose(1);
        let (par_diagnosis, par, par_chain) = diagnose(4);
        let id = b.info.id;
        assert_eq!(par.stats(), seq.stats(), "{id}: stats at 4 threads");
        assert_eq!(
            witnesses(par.failure_runs()),
            witnesses(seq.failure_runs()),
            "{id}: failure witnesses at 4 threads"
        );
        assert_eq!(
            witnesses(par.success_runs()),
            witnesses(seq.success_runs()),
            "{id}: success witnesses at 4 threads"
        );
        assert_eq!(par_diagnosis, seq_diagnosis, "{id}: ranking at 4 threads");
        assert_eq!(par_chain, seq_chain, "{id}: causal chain at 4 threads");
        measured.push((id, seq.stats().total_runs));
        if seq_chain.is_none() {
            chainless.push(id);
        }
    }
    assert_eq!(measured, TOTAL_RUNS, "total_runs per benchmark");
    // 28 of 31 diagnoses produce a chain: the three `WrongOutput` bugs
    // keep no failure witness to walk.
    assert_eq!(
        chainless,
        ["apache5", "cherokee", "mozilla-js2"],
        "diagnoses without a causal chain"
    );
}

/// Does the program ever start a second thread?
fn spawns(runner: &Runner) -> bool {
    let program = runner.machine().program();
    program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.stmts)
        .any(|s| matches!(s.instr, Instr::Spawn { .. }))
}

#[test]
fn spawn_free_witnesses_replay_identically_on_every_lap() {
    let mut spawn_free = 0;
    for b in stm::suite::all() {
        let d = deployment(b);
        if spawns(&d.runner) {
            continue;
        }
        spawn_free += 1;
        for w in d.failing.iter().chain(&d.passing) {
            let lap0 = d.runner.run(w);
            for lap in [1, 7] {
                assert_eq!(
                    d.runner.run(&w.lap(lap)),
                    lap0,
                    "{}: witness {w:?} at lap {lap}",
                    d.bench.info.id
                );
            }
        }
    }
    assert!(spawn_free > 0, "some benchmark is spawn-free");

    // The premise is not vacuous: a spawning program's laps differ.
    let d = deployment(stm::suite::by_id("apache4").expect("apache4 benchmark"));
    assert!(spawns(&d.runner), "apache4 spawns threads");
    assert!(
        d.failing.iter().chain(&d.passing).any(|w| [1, 7]
            .iter()
            .any(|&lap| d.runner.run(&w.lap(lap)) != d.runner.run(w))),
        "some apache4 witness replays differently on a later lap"
    );
}
