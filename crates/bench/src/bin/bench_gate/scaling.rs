//! The `scaling` harness: the parallel collection engine's throughput at
//! 1/2/4/8 threads on sort (LBR) and apache4 (LCR).
//!
//! Each measurement is a scan-mode [`DiagnosisSession`] over a fixed
//! seed range with quotas that never fill, so every thread count
//! executes exactly the same set of runs and `runs/sec` is comparable
//! across thread counts.
//!
//! The baseline pins one number, the top-level `pool_spawns` (0): a
//! host-independent count of collection-pool threads spawned during the
//! sweep. One warm-up session at the widest sweep width runs first, so
//! every later session must find its workers already alive; a session
//! that spawns threads again pays that fixed cost per call.
//!
//! Everything else in the result is wall clock and stays out of the
//! baseline. The harness itself checks four of those numbers against
//! fixed bounds and fails the gate, saying why, when one is broken:
//!
//! * per case, `seq_cost_vs_raw_x1000 ≤ 1562` — engine at 1 thread
//!   relative to a bare `Runner::run_classified` loop, ×1000: the session
//!   machinery must stay close to free;
//! * per case, `inv_speedup_t4_x1000 ≤ 1875` — time at 4 threads
//!   relative to 1 thread, ×1000: parallel overhead must not blow up;
//! * per case, `speedup_t4_x1000 ≥ 750` — four collection threads must
//!   not fall far behind one. With fewer than four hardware threads the
//!   4-thread sweep timeshares and lands around 0.7–0.9× of sequential,
//!   so on such a host the check is skipped with the reason printed;
//! * the top-level `runs_per_sec ≥ 75 000` — the best throughput any
//!   case reached at any thread count, a deliberately conservative bound
//!   that catches order-of-magnitude collapses of the interpreter/engine
//!   hot path.
//!
//! The remaining numbers — `runs_per_sec_t{1,2,4,8}`,
//! `speedup_t{2,8}_x1000`, `available_parallelism` and the median time
//! of the paper's 10 + 10 witness session at one and two threads
//! (`witness_session_us_t{1,2}`) — are printed and written, never
//! checked.
//!
//! The witness-session row has no bound at all. A 10 + 10 session lasts
//! a few hundred microseconds, so its two-thread time swings with
//! whatever else the host runs: on a 2-vCPU VM, four gate runs of one
//! build printed t2/t1 ratios of 0.90–1.05 on sort and 1.02–1.52 on
//! apache4. A wall-clock bound tight enough to catch a regression would
//! flake there; the spawn counter gates the fixed cost instead.

use std::time::Instant;

use stm_bench::MetricsEmitter;
use stm_core::engine::DiagnosisSession;
use stm_core::runner::Runner;
use stm_profiler::CriticalPathReport;
use stm_suite::eval::Deployment;
use stm_telemetry::json::Json;

use crate::{deploy, Outcome, SUBJECTS};

/// Thread counts swept per benchmark.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Timing repetitions per configuration; the fastest is kept.
const REPS: usize = 3;
/// Scan seeds per measurement — sized so one sweep stays under a few
/// seconds even on a single core.
const RUNS: u64 = 400;
/// Witness sessions timed per thread count; the median is reported.
const SESSION_REPS: usize = 101;

/// A wall-clock number's bound, inclusive.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
}

// The four bounds the module docs list.
const SEQ_COST_VS_RAW_X1000: Bound = Bound::AtMost(1562.0);
const INV_SPEEDUP_T4_X1000: Bound = Bound::AtMost(1875.0);
const SPEEDUP_T4_X1000: Bound = Bound::AtLeast(750.0);
const RUNS_PER_SEC: Bound = Bound::AtLeast(75_000.0);

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtMost(max) => value <= max,
            Bound::AtLeast(min) => value >= min,
        }
    }
}

/// Fails the gate, printing why, when `value` breaks `bound`.
fn check(what: &str, value: f64, bound: Bound, outcome: &mut Outcome) {
    if !bound.holds(value) {
        let (op, limit) = match bound {
            Bound::AtMost(max) => ("≤", max),
            Bound::AtLeast(min) => ("≥", min),
        };
        eprintln!("{what} is {value}; it must be {op} {limit}");
        outcome.failed = true;
    }
}

/// The t4 speedup bound, or why a host with `cores` hardware threads
/// cannot meet it.
fn speedup_bound(cores: usize) -> Result<Bound, String> {
    if cores >= 4 {
        Ok(SPEEDUP_T4_X1000)
    } else {
        Err(format!("needs ≥4 CPUs, host has {cores}"))
    }
}

/// Runs one scan sweep and returns the wall-clock seconds it took.
/// Quotas are set above the job count so no early stop ever triggers:
/// the engine executes all `runs` jobs at every thread count.
fn timed_sweep(runner: &Runner, b: &stm_suite::Benchmark, runs: u64, threads: usize) -> f64 {
    let base = b.workloads.failing[0].clone();
    let start = Instant::now();
    let profiles = DiagnosisSession::from_runner(runner)
        .failure(b.truth.spec.clone())
        .workloads(vec![base])
        .seeds(0..runs)
        .failure_profiles(usize::MAX)
        .success_profiles(usize::MAX)
        .threads(threads)
        .collect()
        .expect("scan collection cannot fail");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        profiles.stats().total_runs,
        runs as usize,
        "sweep must execute every job"
    );
    secs
}

/// The engine-free reference: the same runs through a bare
/// `run_classified` loop, without sessions, channels, or merging.
fn timed_raw(runner: &Runner, b: &stm_suite::Benchmark, runs: u64) -> f64 {
    let base = b.workloads.failing[0].clone();
    let start = Instant::now();
    let mut failures = 0usize;
    for seed in 0..runs {
        let w = base.clone().with_seed(seed);
        let (_, class) = runner.run_classified(&w, &b.truth.spec);
        if class == stm_core::runner::RunClass::TargetFailure {
            failures += 1;
        }
    }
    std::hint::black_box(failures);
    start.elapsed().as_secs_f64()
}

fn best_of<F: FnMut() -> f64>(mut f: F) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Median wall-clock microseconds of the subject's 10 + 10 witness
/// session at `threads`.
fn witness_session_us(s: &Deployment, threads: usize) -> f64 {
    let mut us: Vec<f64> = (0..SESSION_REPS)
        .map(|_| {
            let start = Instant::now();
            let profiles = s
                .session(threads)
                .collect()
                .expect("witness collection cannot fail");
            let us = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(profiles);
            us
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Collection-pool threads spawned so far (telemetry is on in a gate).
fn pool_spawns() -> u64 {
    stm_telemetry::metrics_snapshot()
        .counter("engine.pool_spawns")
        .unwrap_or(0)
}

pub fn run(metrics: &mut MetricsEmitter) -> Outcome {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut outcome = Outcome::default();
    // Headline throughput: the best runs/sec any case reached at any
    // thread count on this box.
    let mut headline = 0.0f64;
    println!("Collection-engine scaling (available_parallelism = {cores})");
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "bench", "runs", "t1 runs/s", "t2 runs/s", "t4 runs/s", "t8 runs/s", "raw/s"
    );

    let subjects = SUBJECTS.map(deploy);
    // Grow the collection pool to the widest sweep point once; nothing
    // after this may spawn a thread.
    let widest = THREADS[THREADS.len() - 1];
    timed_sweep(
        &subjects[0].runner,
        &subjects[0].bench,
        RUNS.min(50),
        widest,
    );
    let spawns_before = pool_spawns();
    for (id, s) in SUBJECTS.into_iter().zip(&subjects) {
        let (runner, b) = (&s.runner, &s.bench);

        // Warm up allocators and page in the program before timing.
        timed_sweep(runner, b, RUNS.min(50), 1);

        let raw = best_of(|| timed_raw(runner, b, RUNS));
        let mut secs = [0.0f64; THREADS.len()];
        let mut paths = Vec::new();
        for (i, &t) in THREADS.iter().enumerate() {
            // Telemetry is already on (the emitter enabled it), so the
            // sweeps leave full span DAGs behind; start each thread count
            // from a drained buffer and attribute its last session.
            let _ = stm_telemetry::take_spans();
            secs[i] = best_of(|| timed_sweep(runner, b, RUNS, t));
            let report = CriticalPathReport::analyze(&stm_telemetry::take_spans());
            paths.push((t, report));
        }
        let rps = |s: f64| RUNS as f64 / s;
        headline = secs.iter().fold(headline, |h, &s| h.max(rps(s)));

        println!(
            "{:<10} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>10.0}",
            id,
            RUNS,
            rps(secs[0]),
            rps(secs[1]),
            rps(secs[2]),
            rps(secs[3]),
            rps(raw),
        );
        // Informational: where the session wall-clock went at each thread
        // count (machine-dependent, never gated).
        for (t, report) in &paths {
            match report {
                Some(c) => {
                    let phases = c.by_label();
                    let us = |label: &str| phases.get(label).copied().unwrap_or(0);
                    println!(
                        "  t{t}: wall {} us | job execution {} | queue wait {} | hold-back {} | consume {} | efficiency {:.1}%",
                        c.wall_us,
                        us("job execution"),
                        us("queue wait"),
                        us("result hold-back"),
                        us("ordered consumption"),
                        c.parallel_efficiency_pct,
                    );
                }
                None => println!("  t{t}: no completed session span"),
            }
        }

        // Informational: the paper's short diagnosis session (§5.2).
        let session_us = [1, 2].map(|t| witness_session_us(s, t));
        // Those sessions' spans are not attributed; drop them.
        let _ = stm_telemetry::take_spans();
        println!(
            "  witness session (10 + 10): t1 {:.0} us | t2 {:.0} us | t2/t1 {:.2}",
            session_us[0],
            session_us[1],
            session_us[1] / session_us[0],
        );

        let x1000 = |ratio: f64| (ratio * 1000.0).round();
        let seq_cost = x1000(secs[0] / raw);
        let inv_speedup = x1000(secs[2] / secs[0]);
        let speedup = x1000(secs[0] / secs[2]);
        println!(
            "  seq_cost_vs_raw_x1000 {seq_cost} | inv_speedup_t4_x1000 {inv_speedup} | speedup_t4_x1000 {speedup}"
        );
        for (name, value, bound) in [
            ("seq_cost_vs_raw_x1000", seq_cost, Ok(SEQ_COST_VS_RAW_X1000)),
            (
                "inv_speedup_t4_x1000",
                inv_speedup,
                Ok(INV_SPEEDUP_T4_X1000),
            ),
            ("speedup_t4_x1000", speedup, speedup_bound(cores)),
        ] {
            match bound {
                Ok(bound) => check(&format!("{id}/{name}"), value, bound, &mut outcome),
                Err(reason) => println!("skipped {id}/{name}: {reason}"),
            }
        }
        metrics.checkpoint(
            id,
            vec![
                ("inv_speedup_t4_x1000", Json::from(inv_speedup)),
                ("seq_cost_vs_raw_x1000", Json::from(seq_cost)),
                ("runs", Json::from(RUNS)),
                ("runs_per_sec_t1", Json::from(rps(secs[0]).round())),
                ("runs_per_sec_t2", Json::from(rps(secs[1]).round())),
                ("runs_per_sec_t4", Json::from(rps(secs[2]).round())),
                ("runs_per_sec_t8", Json::from(rps(secs[3]).round())),
                ("speedup_t2_x1000", Json::from(x1000(secs[0] / secs[1]))),
                ("speedup_t4_x1000", Json::from(speedup)),
                ("speedup_t8_x1000", Json::from(x1000(secs[0] / secs[3]))),
                ("available_parallelism", Json::from(cores as u64)),
                ("witness_session_us_t1", Json::from(session_us[0].round())),
                ("witness_session_us_t2", Json::from(session_us[1].round())),
            ],
        );
    }

    // Gated: a host-independent count, zero once the pool is warm.
    let spawns = pool_spawns() - spawns_before;
    println!("collection-pool threads spawned after warm-up: {spawns}");
    metrics.top_level("pool_spawns", Json::from(spawns));

    println!("\nheadline runs/sec (best case × thread count): {headline:.0}");
    check("runs_per_sec", headline.round(), RUNS_PER_SEC, &mut outcome);
    metrics.top_level("runs_per_sec", Json::from(headline.round()));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_bound_holds_at_its_limit_and_breaks_one_unit_past() {
        for (bound, at, past) in [
            (SEQ_COST_VS_RAW_X1000, 1562.0, 1563.0),
            (INV_SPEEDUP_T4_X1000, 1875.0, 1876.0),
            (SPEEDUP_T4_X1000, 750.0, 749.0),
            (RUNS_PER_SEC, 75_000.0, 74_999.0),
        ] {
            assert!(bound.holds(at), "{bound:?} at {at}");
            assert!(!bound.holds(past), "{bound:?} at {past}");
        }
    }

    #[test]
    fn the_speedup_bound_is_skipped_below_four_cpus() {
        let bound = speedup_bound(4).expect("4 CPUs measure the t4 speedup");
        assert!(bound.holds(750.0) && !bound.holds(749.0));
        assert_eq!(speedup_bound(3).unwrap_err(), "needs ≥4 CPUs, host has 3");
    }

    #[test]
    fn a_broken_bound_fails_the_gate() {
        let mut outcome = Outcome::default();
        check("runs_per_sec", 75_000.0, RUNS_PER_SEC, &mut outcome);
        assert!(!outcome.failed);
        check("runs_per_sec", 74_999.0, RUNS_PER_SEC, &mut outcome);
        assert!(outcome.failed);
    }
}
