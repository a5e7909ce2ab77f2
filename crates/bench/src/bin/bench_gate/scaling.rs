//! The `scaling` harness: the parallel collection engine's throughput at
//! 1/2/4/8 threads on sort (LBR) and apache4 (LCR).
//!
//! Each measurement is a scan-mode [`DiagnosisSession`] over a fixed
//! seed range with quotas that never fill, so every thread count
//! executes exactly the same set of runs and `runs/sec` is comparable
//! across thread counts.
//!
//! The result carries four kinds of numbers:
//!
//! * informational throughput (`runs_per_sec_t{1,2,4,8}`,
//!   `speedup_t{2,4,8}_x1000`, `available_parallelism`, and the
//!   top-level `runs_per_sec` headline — the best throughput any case
//!   reached at any thread count) and the median time of the paper's
//!   10 + 10 witness session at one and two threads
//!   (`witness_session_us_t{1,2}`) — machine-dependent and deliberately
//!   kept out of the committed baseline, so the gate never checks the
//!   exact speed of the box;
//! * a host-independent work counter, the top-level `pool_spawns`
//!   (**higher is worse**, baseline 0): collection-pool threads spawned
//!   during the sweep. One warm-up session at the widest sweep width runs
//!   first, so every later session must find its workers already alive;
//!   a session that spawns threads again pays that fixed cost per call;
//! * scale-free ratio gates where **higher is worse**:
//!   `inv_speedup_t4_x1000` (time at 4 threads relative to 1 thread,
//!   ×1000 — parallel overhead must not blow up) and
//!   `seq_cost_vs_raw_x1000` (engine at 1 thread relative to a bare
//!   `Runner::run_classified` loop, ×1000 — the session machinery must
//!   stay close to free);
//! * floor gates (`*_floor`, **lower is worse**): per-case
//!   `speedup_t4_x1000_floor` — four collection threads must actually
//!   beat one — and the top-level `runs_per_sec_floor`, a deliberately
//!   conservative absolute throughput floor that catches
//!   order-of-magnitude collapses of the interpreter/engine hot path.
//!
//! The speedup floor needs four hardware threads: with fewer, the
//! 4-thread sweep timeshares and lands around 0.7–0.9× of sequential.
//! On such a host the harness reports the floor as not measurable
//! (`null`) and the driver skips it, saying why.
//!
//! The witness-session row has no floor at all. A 10 + 10 session lasts
//! a few hundred microseconds, so its two-thread time swings with
//! whatever else the host runs: on a 2-vCPU VM, three gate runs of one
//! build printed t2/t1 ratios of 0.94–1.17 on sort and 1.27–1.89 on
//! apache4. A wall-clock bound tight enough to catch a regression would
//! flake there; the spawn counter gates the fixed cost instead.

use std::time::Instant;

use stm_bench::MetricsEmitter;
use stm_core::engine::DiagnosisSession;
use stm_core::runner::Runner;
use stm_profiler::CriticalPathReport;
use stm_telemetry::json::Json;

use crate::subject::{Subject, SUBJECTS};
use crate::{Outcome, Skip};

/// Thread counts swept per benchmark.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Timing repetitions per configuration; the fastest is kept.
const REPS: usize = 3;
/// Scan seeds per measurement — sized so one sweep stays under a few
/// seconds even on a single core.
const RUNS: u64 = 400;
/// Witness sessions timed per thread count; the median is reported.
const SESSION_REPS: usize = 101;

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
fn witness_session_us(s: &Subject, threads: usize) -> f64 {
    let mut us: Vec<f64> = (0..SESSION_REPS)
        .map(|_| {
            let start = Instant::now();
            let profiles = s
                .session()
                .threads(threads)
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
    let floor_measurable = cores >= 4;
    let mut outcome = Outcome::default();
    // Headline throughput: the best runs/sec any case reached at any
    // thread count on this box. Informational (machine-dependent) — it
    // goes in the document top level, outside the gated `benchmarks`.
    let mut headline = 0.0f64;
    println!("Collection-engine scaling (available_parallelism = {cores})");
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "bench", "runs", "t1 runs/s", "t2 runs/s", "t4 runs/s", "t8 runs/s", "raw/s"
    );

    let subjects = SUBJECTS.map(Subject::new);
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

        let x1000 = |ratio: f64| Json::from((ratio * 1000.0).round());
        if !floor_measurable {
            outcome.skipped.push(Skip {
                benchmark: id,
                metric: "speedup_t4_x1000_floor",
                reason: format!("needs ≥4 CPUs, host has {cores}"),
            });
        }
        metrics.checkpoint(
            id,
            vec![
                // Gate metrics: scale-free, higher-is-worse.
                ("inv_speedup_t4_x1000", x1000(secs[2] / secs[0])),
                ("seq_cost_vs_raw_x1000", x1000(secs[0] / raw)),
                // Floor gate: lower-is-worse (the `_floor` suffix flips
                // the comparison); `null` where this host cannot measure it.
                (
                    "speedup_t4_x1000_floor",
                    if floor_measurable {
                        x1000(secs[0] / secs[2])
                    } else {
                        Json::Null
                    },
                ),
                // Informational: machine-dependent, not in the baseline.
                ("runs", Json::from(RUNS)),
                ("runs_per_sec_t1", Json::from(rps(secs[0]).round())),
                ("runs_per_sec_t2", Json::from(rps(secs[1]).round())),
                ("runs_per_sec_t4", Json::from(rps(secs[2]).round())),
                ("runs_per_sec_t8", Json::from(rps(secs[3]).round())),
                ("speedup_t2_x1000", x1000(secs[0] / secs[1])),
                ("speedup_t4_x1000", x1000(secs[0] / secs[2])),
                ("speedup_t8_x1000", x1000(secs[0] / secs[3])),
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
    metrics.top_level("runs_per_sec", Json::from(headline.round()));
    // The gated twin: same number under the lower-is-worse suffix, so the
    // committed baseline can hold a conservative absolute floor without
    // ever gating on how fast the box happens to be today.
    metrics.top_level("runs_per_sec_floor", Json::from(headline.round()));
    outcome
}
