//! Suite-wide pins for the collection engine's witness-phase stop rules
//! (`stm_core::engine`, "Job model"): a phase that cannot keep a run
//! stops early, and only the run count of such a phase may move.
//!
//! Every Table 6/7 deployment is collected at one and four threads; both
//! give the same stats and witnesses, and `total_runs` is pinned per
//! benchmark. The lap-invariance premise of the barren-lap rule is pinned
//! on the real witnesses.

use stm::core::engine::{CollectedProfiles, CollectedRun, DiagnosisSession, ProfileKind};
use stm::core::runner::{Runner, Workload};
use stm::machine::ir::Instr;
use stm::suite::eval::{expand_workloads, lbra_runner, lcra_runner};
use stm::suite::{Benchmark, BugClass};

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
fn deployment(b: &Benchmark) -> (Runner, ProfileKind) {
    match b.info.bug_class {
        BugClass::Sequential => (lbra_runner(b), ProfileKind::Lbr),
        BugClass::Concurrency => (lcra_runner(b), ProfileKind::Lcr),
    }
}

fn collect(
    b: &Benchmark,
    runner: &Runner,
    kind: ProfileKind,
    failing: &[Workload],
    passing: &[Workload],
    threads: usize,
) -> CollectedProfiles {
    DiagnosisSession::from_runner(runner)
        .failure(b.truth.spec.clone())
        .failing(failing.to_vec())
        .passing(passing.to_vec())
        .profile_kind(kind)
        .threads(threads)
        .collect()
        .expect("witness-mode collection cannot fail")
}

fn witnesses(runs: &[CollectedRun]) -> Vec<&str> {
    runs.iter().map(|r| r.witness.as_str()).collect()
}

#[test]
fn suite_run_counts_are_pinned_and_thread_independent() {
    let mut measured = Vec::new();
    for b in stm::suite::all() {
        let (runner, kind) = deployment(&b);
        let (failing, passing) = expand_workloads(&b, &runner);
        let seq = collect(&b, &runner, kind, &failing, &passing, 1);
        let par = collect(&b, &runner, kind, &failing, &passing, 4);
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
        measured.push((id, seq.stats().total_runs));
    }
    assert_eq!(measured, TOTAL_RUNS, "total_runs per benchmark");
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
        let (runner, _) = deployment(&b);
        if spawns(&runner) {
            continue;
        }
        spawn_free += 1;
        let (failing, passing) = expand_workloads(&b, &runner);
        for w in failing.iter().chain(&passing) {
            let lap0 = runner.run(w);
            for lap in [1, 7] {
                assert_eq!(
                    runner.run(&w.lap(lap)),
                    lap0,
                    "{}: witness {w:?} at lap {lap}",
                    b.info.id
                );
            }
        }
    }
    assert!(spawn_free > 0, "some benchmark is spawn-free");

    // The premise is not vacuous: a spawning program's laps differ.
    let b = stm::suite::by_id("apache4").expect("apache4 benchmark");
    let (runner, _) = deployment(&b);
    assert!(spawns(&runner), "apache4 spawns threads");
    let (failing, passing) = expand_workloads(&b, &runner);
    assert!(
        failing.iter().chain(&passing).any(|w| [1, 7]
            .iter()
            .any(|&lap| runner.run(&w.lap(lap)) != runner.run(w))),
        "some apache4 witness replays differently on a later lap"
    );
}
