//! A one-screen terminal status board for a live diagnosis pipeline,
//! plus the CI smoke gate for the whole observatory stack.
//!
//! **Watch mode** polls a running harness's `--metrics-addr` endpoint
//! and redraws the board each interval: health state (with reasons),
//! the engine gauges, runs/sec, and a per-second rate column for every
//! monotonic series.
//!
//! ```text
//! stm_watch --addr 127.0.0.1:9184 [--interval-ms 1000] [--once]
//! ```
//!
//! **Smoke mode** (`stm_watch --smoke`) runs a real scan-mode
//! [`DiagnosisSession`] with the metrics endpoint live, scrapes
//! `/metrics` and `/health` *during* the run, and asserts the contract
//! CI relies on: the required gauge/counter names are exposed, the
//! board renders, and the pipeline ends in the `healthy` state. It
//! writes the final health snapshot to `results/HEALTH_smoke.json` and
//! exits non-zero on any violation.

use std::net::SocketAddr;
use std::time::Duration;

use stm_core::engine::DiagnosisSession;
use stm_observatory::watch::{http_get, render_board, Sample};
use stm_observatory::MetricsServer;
use stm_suite::eval::lbra_runner;
use stm_telemetry::json::Json;

const HTTP_TIMEOUT: Duration = Duration::from_secs(2);

/// The series names the smoke gate requires on `/metrics` once a
/// session has run to completion.
const REQUIRED_SERIES: &[&str] = &[
    "stm_engine_runs_total",
    "stm_engine_jobs_total",
    "stm_engine_queue_depth",
    "stm_engine_failure_streak",
    "stm_engine_rank_churn",
    "stm_engine_top1_stable_for",
];

fn usage() -> ! {
    eprintln!("usage: stm_watch --addr HOST:PORT [--interval-ms N] [--once]");
    eprintln!("       stm_watch --smoke   (self-contained CI gate)");
    std::process::exit(2);
}

fn fetch(addr: SocketAddr) -> Result<Sample, String> {
    let metrics =
        http_get(addr, "/metrics", HTTP_TIMEOUT).map_err(|e| format!("GET /metrics: {e}"))?;
    let health =
        http_get(addr, "/health", HTTP_TIMEOUT).map_err(|e| format!("GET /health: {e}"))?;
    let sample = Sample::parse(&metrics, &health)?;
    // The convergence panel is best-effort: keep the board usable
    // against servers without a /diagnosis route.
    match http_get(addr, "/diagnosis", HTTP_TIMEOUT) {
        Ok(body) => Ok(sample.clone().with_diagnosis(&body).unwrap_or(sample)),
        Err(_) => Ok(sample),
    }
}

fn watch(addr: SocketAddr, interval: Duration, once: bool) -> ! {
    let mut prev: Option<(Sample, std::time::Instant)> = None;
    loop {
        match fetch(addr) {
            Ok(sample) => {
                let now = std::time::Instant::now();
                let board = render_board(
                    &sample,
                    prev.as_ref()
                        .map(|(p, at)| (p, now.duration_since(*at).as_secs_f64())),
                );
                if !once {
                    // Clear and home, so the board repaints in place.
                    print!("\x1b[2J\x1b[H");
                }
                println!("{board}");
                if once {
                    std::process::exit(0);
                }
                prev = Some((sample, now));
            }
            Err(e) => {
                eprintln!("{addr}: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(interval);
    }
}

/// The self-contained gate: a real session behind a live endpoint.
fn smoke() -> i32 {
    stm_telemetry::set_enabled(true);
    let server = MetricsServer::start("127.0.0.1:0").expect("bind metrics endpoint");
    let addr = server.addr();
    println!("smoke: metrics endpoint on http://{addr}");

    let b = stm_suite::by_id("sort").expect("suite benchmark");
    let runner = lbra_runner(&b);
    let base = b.workloads.failing[0].clone();
    let spec = b.truth.spec.clone();

    let mut failures = Vec::new();
    let mut mid_run_scrapes = 0u32;
    let session = std::thread::spawn(move || {
        DiagnosisSession::from_runner(&runner)
            .failure(spec)
            .workloads(vec![base])
            .seeds(0..400)
            .failure_profiles(usize::MAX)
            .success_profiles(usize::MAX)
            .threads(4)
            // Monitor-only: publish the convergence gauges and the
            // /diagnosis document without cutting the scan short.
            .converge(stm_core::converge::StabilityPolicy::never())
            .collect()
    });
    // Scrape while the session runs: the endpoint must serve live.
    while !session.is_finished() {
        if fetch(addr).is_ok() {
            mid_run_scrapes += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    match session.join().expect("session thread") {
        Ok(profiles) => println!("smoke: session done, {} runs", profiles.stats().total_runs),
        Err(e) => failures.push(format!("session failed: {e}")),
    }
    if mid_run_scrapes == 0 {
        failures.push("no successful scrape while the session ran".to_string());
    } else {
        println!("smoke: {mid_run_scrapes} scrapes answered during the run");
    }

    // Let the health machine's recovery hysteresis settle, then take the
    // verdict sample.
    let mut last = None;
    for _ in 0..4 {
        last = fetch(addr).ok();
        std::thread::sleep(Duration::from_millis(10));
    }
    let Some(sample) = last else {
        eprintln!("smoke: FAILED: could not scrape the endpoint after the session");
        return 1;
    };
    for name in REQUIRED_SERIES {
        if !sample.metrics.contains_key(*name) {
            failures.push(format!("/metrics is missing required series {name}"));
        }
    }
    let state = sample.health.get("state").and_then(Json::as_str);
    if state != Some("healthy") {
        failures.push(format!(
            "terminal health state is {state:?}, expected healthy"
        ));
    }
    // /diagnosis must serve a parseable verdict: the session ran with a
    // convergence monitor, so the terminal document is its verdict (the
    // scan ran to quota under `never()`, i.e. stable or stalled — any
    // non-idle verdict string proves the monitor published).
    match http_get(addr, "/diagnosis", HTTP_TIMEOUT) {
        Ok(body) => match Json::parse(body.trim()) {
            Ok(doc) => match doc.get("verdict").and_then(Json::as_str) {
                Some(verdict) if verdict != "idle" => {
                    println!("smoke: /diagnosis verdict: {verdict}");
                }
                other => failures.push(format!(
                    "/diagnosis verdict is {other:?}, expected a session verdict"
                )),
            },
            Err(e) => failures.push(format!("/diagnosis body is not JSON: {e:?}")),
        },
        Err(e) => failures.push(format!("GET /diagnosis: {e}")),
    }

    let board = render_board(&sample, None);
    if !board.contains("health:") {
        failures.push("status board failed to render".to_string());
    }
    if !board.contains("diagnosis —") {
        failures.push("board is missing the convergence panel".to_string());
    }
    println!("\n{board}");

    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/HEALTH_smoke.json", sample.health.encode() + "\n"))
    {
        failures.push(format!("could not write results/HEALTH_smoke.json: {e}"));
    } else {
        println!("wrote results/HEALTH_smoke.json");
    }

    if failures.is_empty() {
        println!("smoke: OK");
        0
    } else {
        for f in &failures {
            eprintln!("smoke: FAILED: {f}");
        }
        1
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut run_smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next(),
            "--interval-ms" => {
                let Some(ms) = args.next().and_then(|v| v.parse().ok()) else {
                    usage()
                };
                interval = Duration::from_millis(ms);
            }
            "--once" => once = true,
            "--smoke" => run_smoke = true,
            _ => usage(),
        }
    }
    if run_smoke {
        std::process::exit(smoke());
    }
    let Some(addr) = addr else { usage() };
    let addr: SocketAddr = addr.parse().unwrap_or_else(|e| {
        eprintln!("--addr {addr}: {e}");
        std::process::exit(2);
    });
    watch(addr, interval, once);
}
