//! Measures the cost of the observability layers themselves on three
//! suite benchmarks: perf-workload throughput with telemetry collection
//! disabled (the hooks gate on one relaxed atomic load) versus enabled
//! (counter batches, ring-push counters and spans), with the guest
//! sampling profiler on at its default period (telemetry off — the two
//! costs are independent), and with the observatory metrics endpoint
//! serving scrapes while the enabled workload runs (a polling thread
//! hits `/metrics` and `/health` throughout the timed region, proving
//! live serving stays within the telemetry budget; zero extra cost when
//! no server runs, since the engine never touches it). Writes
//! `results/BENCH_telemetry_overhead.json`.
//!
//! Usage: `telemetry_overhead [--iters N]` (default 60 runs per sample).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stm_bench::HarnessFlags;
use stm_core::runner::Runner;
use stm_machine::interp::{Machine, RunConfig};
use stm_observatory::watch::http_get;
use stm_observatory::MetricsServer;
use stm_profiler::DEFAULT_PERIOD;
use stm_suite::Benchmark;
use stm_telemetry::json::Json;

const BENCHMARKS: &[&str] = &["sort", "rm", "apache3"];
/// Timing samples per mode; the minimum is kept. Sized so at least one
/// sample per mode lands in an unpreempted scheduler window even on a
/// busy host — the modes differ by percents, preemption by multiples.
const SAMPLES: u32 = 9;
/// Scrape cadence while timing the server-enabled mode — aggressive
/// compared to a production Prometheus interval, to bound the cost from
/// above.
const SCRAPE_EVERY: Duration = Duration::from_millis(20);

/// Wall-clock ns/run for `iters` perf-workload runs, best of [`SAMPLES`].
fn ns_per_run(runner: &Runner, b: &Benchmark, iters: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for i in 0..iters {
            let mut w = b.workloads.perf.clone();
            w.seed = i as u64;
            let _ = runner.run(&w);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Times the enabled workload while a [`MetricsServer`] answers a
/// scraper thread polling `/metrics` and `/health` every
/// [`SCRAPE_EVERY`]. Returns `(ns_per_run, scrapes_served)`. Telemetry
/// must already be enabled.
fn timed_with_server(runner: &Runner, b: &Benchmark, iters: u32) -> (f64, u64) {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind metrics endpoint");
    let addr = server.addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if http_get(addr, "/metrics", Duration::from_secs(2)).is_ok() {
                    scrapes += 1;
                }
                if http_get(addr, "/health", Duration::from_secs(2)).is_ok() {
                    scrapes += 1;
                }
                std::thread::sleep(SCRAPE_EVERY);
            }
            scrapes
        });
        let ns = ns_per_run(runner, b, iters);
        stop.store(true, Ordering::Relaxed);
        let scrapes = scraper.join().expect("scraper thread");
        (ns, scrapes)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters = HarnessFlags::parse_or_exit(
        &args,
        "usage: telemetry_overhead [--iters N]",
        &[],
        &["--iters"],
    )
    .count("--iters")
    .unwrap_or(60);

    println!("Observability overhead ({iters} runs/sample, best of {SAMPLES}):");
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>14} {:>10} {:>14} {:>9}",
        "Benchmark",
        "off ns/run",
        "on ns/run",
        "telemetry",
        "sampled ns/run",
        "sampling",
        "server ns/run",
        "serving"
    );
    let mut rows = std::collections::BTreeMap::new();
    for id in BENCHMARKS {
        let b = stm_suite::by_id(id).expect("suite benchmark");
        let runner = Runner::new(Machine::new(b.program.clone()));
        let sampling_runner =
            Runner::new(Machine::new(b.program.clone())).with_run_config(RunConfig {
                profile_period: DEFAULT_PERIOD,
                ..RunConfig::default()
            });
        // Warm up caches and the allocator before any mode is timed.
        let _ = ns_per_run(&runner, &b, iters.min(10));

        stm_telemetry::set_enabled(false);
        let off = ns_per_run(&runner, &b, iters);
        let sampled = ns_per_run(&sampling_runner, &b, iters);
        stm_telemetry::set_enabled(true);
        let before = stm_telemetry::metrics_snapshot();
        let on = ns_per_run(&runner, &b, iters);
        let delta = stm_telemetry::metrics_snapshot().delta_since(&before);

        // Server-enabled mode: same enabled workload, but with the
        // observatory endpoint live and a scraper polling it the whole
        // time. The delta against `on` is the cost of *serving*.
        let (with_server, scrapes) = timed_with_server(&runner, &b, iters);
        stm_telemetry::set_enabled(false);

        // The enabled phase doubles as a data check: the histogram delta
        // must show exactly the timed runs (SAMPLES timed batches).
        let (runs, steps_per_run) = delta
            .histograms
            .iter()
            .find(|h| h.name == "machine.run_steps")
            .map(|h| (h.count, h.sum as f64 / h.count.max(1) as f64))
            .unwrap_or((0, 0.0));

        let pct = |cost: f64| ((cost - off) / off * 100.0).max(0.0);
        let telemetry_pct = pct(on);
        let sampling_pct = pct(sampled);
        // Serving cost relative to the already-enabled baseline: the
        // endpoint only ever runs with collection on.
        let server_pct = ((with_server - on) / on * 100.0).max(0.0);
        println!(
            "{id:<12} {off:>14.0} {on:>14.0} {telemetry_pct:>9.2}% {sampled:>14.0} {sampling_pct:>9.2}% {with_server:>14.0} {server_pct:>8.2}% ({scrapes} scrapes)"
        );
        rows.insert(
            id.to_string(),
            Json::obj([
                ("disabled_ns_per_run", Json::from(off)),
                ("enabled_ns_per_run", Json::from(on)),
                ("overhead_pct", Json::from(telemetry_pct)),
                ("sampling_ns_per_run", Json::from(sampled)),
                ("sampling_overhead_pct", Json::from(sampling_pct)),
                ("sampling_period", Json::from(DEFAULT_PERIOD)),
                ("server_ns_per_run", Json::from(with_server)),
                ("server_overhead_pct", Json::from(server_pct)),
                ("server_scrapes", Json::from(scrapes)),
                ("timed_runs_observed", Json::from(runs)),
                ("steps_per_run", Json::from(steps_per_run)),
            ]),
        );
    }

    let doc = Json::obj([
        ("harness", Json::from("telemetry_overhead")),
        ("iters_per_sample", Json::from(iters as u64)),
        ("samples", Json::from(SAMPLES as u64)),
        ("benchmarks", Json::Obj(rows)),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_telemetry_overhead.json";
    std::fs::write(path, doc.encode() + "\n").expect("write metrics file");
    println!("\nwrote {path}");
}
