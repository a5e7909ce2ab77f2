//! The metrics endpoint: a std-only `TcpListener` HTTP server exposing
//! the live telemetry registry.
//!
//! Routes:
//!
//! * `GET /metrics` — the registry as Prometheus text ([`crate::prom`]);
//! * `GET /health` — one [`HealthEngine`] observation as JSON (runs/sec
//!   derived from the `engine.runs` counter delta since the previous
//!   `/health` poll);
//! * `GET /events` — the most recent structured log events as JSONL
//!   (`?tail=N` overrides the default tail of 64; invalid or oversized
//!   values are rejected with 400);
//! * `GET /diagnosis` — the live convergence document a monitored
//!   [`DiagnosisSession`](../../stm_core/engine/struct.DiagnosisSession.html)
//!   publishes (current top-k, score trajectories, stability verdict);
//!   `{"verdict":"idle"}` when no session has published one.
//!
//! One background thread accepts connections and answers each request
//! inline — scrapes are small and rare, so there is no per-connection
//! thread. [`MetricsServer::stop`] (also run on drop) flips a flag and
//! self-connects to unblock `accept`.

use crate::health::{HealthEngine, Observation};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many recent events `/events` returns.
const EVENTS_TAIL: usize = 64;

/// Per-connection socket timeout: a stalled scraper cannot wedge the
/// serving thread for long.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint. Stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Shared request-handling state: the health state machine plus the
/// rate tracker feeding its runs/sec input.
struct ServerState {
    health: HealthEngine,
    last_rate: Option<(Instant, u64)>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Mutex::new(ServerState {
            health: HealthEngine::new(),
            last_rate: None,
        });
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("stm-observatory".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = serve_one(stream, &state);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the way to learn the port after `:0`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one request head (up to the blank line) and answers it.
fn serve_one(mut stream: TcpStream, state: &Mutex<ServerState>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::prom::render(&stm_telemetry::metrics_snapshot()),
            ),
            "/health" => ("200 OK", "application/json", health_body(state)),
            "/events" => match events_tail(query) {
                Ok(tail) => (
                    "200 OK",
                    "application/x-ndjson",
                    stm_telemetry::log::to_jsonl(&stm_telemetry::log::recent_events(tail)),
                ),
                Err(reason) => ("400 Bad Request", "text/plain; charset=utf-8", reason),
            },
            "/diagnosis" => ("200 OK", "application/json", diagnosis_body()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "routes: /metrics /health /events /diagnosis\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Resolves the `/events` tail: the default with no query string, an
/// explicit `tail=N` otherwise. Malformed input is an explicit 400 —
/// a silently-applied default would hand a scraper asking for
/// `tail=10O0` (typo) 64 events and no hint anything was wrong.
fn events_tail(query: Option<&str>) -> Result<usize, String> {
    let Some(query) = query else {
        return Ok(EVENTS_TAIL);
    };
    let mut tail = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "tail" {
            return Err(format!("unknown query parameter {key:?}; only tail=N\n"));
        }
        let n: usize = value
            .parse()
            .map_err(|_| format!("tail must be a non-negative integer, got {value:?}\n"))?;
        if n > stm_telemetry::log::EVENT_CAPACITY {
            return Err(format!(
                "tail {n} exceeds the event buffer capacity {}\n",
                stm_telemetry::log::EVENT_CAPACITY
            ));
        }
        tail = Some(n);
    }
    Ok(tail.unwrap_or(EVENTS_TAIL))
}

/// The `/diagnosis` body: the live convergence document, or the idle
/// placeholder when no monitored session has published one (or telemetry
/// is disabled). When a fleet daemon has published its `"fleet"` status
/// document (per-shard verdicts and backpressure gauges), it rides along
/// under the `fleet` key so one scrape shows the whole fleet.
fn diagnosis_body() -> String {
    use stm_telemetry::json::Json;
    let mut doc = stm_telemetry::status::get("diagnosis")
        .unwrap_or_else(|| Json::obj([("verdict", Json::from("idle"))]));
    if let Some(fleet) = stm_telemetry::status::get("fleet") {
        if let Json::Obj(map) = &mut doc {
            map.insert("fleet".to_string(), fleet);
        }
    }
    doc.encode() + "\n"
}

/// One health observation: snapshot the registry, derive runs/sec from
/// the `engine.runs` delta since the previous poll, feed the machine.
fn health_body(state: &Mutex<ServerState>) -> String {
    let m = stm_telemetry::metrics_snapshot();
    let runs = m.counter("engine.runs").unwrap_or(0);
    let now = Instant::now();
    let mut s = state.lock().unwrap_or_else(|p| p.into_inner());
    let rate = match s.last_rate {
        Some((at, prev)) => {
            let secs = now.duration_since(at).as_secs_f64();
            (secs > 0.0).then(|| runs.saturating_sub(prev) as f64 / secs)
        }
        None => None,
    };
    s.last_rate = Some((now, runs));
    let report = s.health.observe(Observation::from_snapshot(&m, rate));
    report.to_json().encode() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watch::http_get;

    /// Telemetry is process-global; serialise the tests that enable it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        stm_telemetry::reset();
        stm_telemetry::set_enabled(true);
        guard
    }

    #[test]
    fn serves_metrics_health_and_events_live() {
        let _g = lock();
        stm_telemetry::counter!("engine.runs").add(7);
        stm_telemetry::gauge!("engine.queue_depth").set(2);
        stm_telemetry::log::set_stderr_level(None);
        stm_telemetry::log::info("test", "server.check", vec![]);
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let metrics = http_get(addr, "/metrics", IO_TIMEOUT).expect("/metrics");
        assert!(metrics.contains("stm_engine_runs_total 7\n"), "{metrics}");
        assert!(metrics.contains("stm_engine_queue_depth 2\n"), "{metrics}");

        let health = http_get(addr, "/health", IO_TIMEOUT).expect("/health");
        let j = stm_telemetry::json::Json::parse(health.trim()).expect("health JSON");
        assert_eq!(
            j.get("state").and_then(stm_telemetry::json::Json::as_str),
            Some("healthy")
        );
        assert_eq!(
            j.get("observed")
                .and_then(|o| o.get("queue_depth"))
                .and_then(stm_telemetry::json::Json::as_f64),
            Some(2.0)
        );

        let events = http_get(addr, "/events", IO_TIMEOUT).expect("/events");
        assert!(events.contains("\"server.check\""), "{events}");

        let miss = http_get(addr, "/nope", IO_TIMEOUT).expect("404 body");
        assert!(miss.contains("routes:"));
        assert!(miss.contains("/diagnosis"), "{miss}");
        server.stop();
        stm_telemetry::log::set_stderr_level(Some(stm_telemetry::log::Level::Warn));
        stm_telemetry::set_enabled(false);
    }

    /// Like [`http_get`], but returns the raw response including the
    /// status line, so tests can assert on the status code.
    fn http_get_raw(addr: SocketAddr, path: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).expect("connect");
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        stream.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn events_tail_parameter_is_validated_not_defaulted() {
        let _g = lock();
        stm_telemetry::log::set_stderr_level(None);
        for i in 0..5 {
            stm_telemetry::log::info("test", "tail.check", vec![("i", i.to_string())]);
        }
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        // A valid explicit tail narrows the window.
        let two = http_get(addr, "/events?tail=2", IO_TIMEOUT).expect("tail=2");
        assert_eq!(two.lines().count(), 2, "{two}");
        // tail=0 is valid and empty.
        let zero = http_get(addr, "/events?tail=0", IO_TIMEOUT).expect("tail=0");
        assert_eq!(zero.lines().count(), 0, "{zero}");
        // No query string keeps the default.
        let default = http_get(addr, "/events", IO_TIMEOUT).expect("no query");
        assert_eq!(default.lines().count(), 5, "{default}");

        // Non-numeric, oversized, negative and unknown parameters are
        // explicit 400s, not silent defaults.
        for bad in [
            "/events?tail=abc",
            "/events?tail=10O0",
            "/events?tail=-1",
            "/events?tail=",
            "/events?tail=99999999",
            "/events?limit=3",
        ] {
            let raw = http_get_raw(addr, bad);
            assert!(raw.starts_with("HTTP/1.1 400 "), "{bad} -> {raw}");
        }

        server.stop();
        stm_telemetry::log::set_stderr_level(Some(stm_telemetry::log::Level::Warn));
        stm_telemetry::set_enabled(false);
    }

    #[test]
    fn diagnosis_endpoint_serves_idle_then_published_document() {
        let _g = lock();
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let idle = http_get(addr, "/diagnosis", IO_TIMEOUT).expect("/diagnosis");
        let j = stm_telemetry::json::Json::parse(idle.trim()).expect("idle JSON");
        assert_eq!(
            j.get("verdict").and_then(stm_telemetry::json::Json::as_str),
            Some("idle")
        );

        stm_telemetry::status::publish(
            "diagnosis",
            stm_telemetry::json::Json::obj([
                ("verdict", stm_telemetry::json::Json::from("collecting")),
                ("witnesses_ingested", stm_telemetry::json::Json::from(7u64)),
            ]),
        );
        let live = http_get(addr, "/diagnosis", IO_TIMEOUT).expect("/diagnosis");
        let j = stm_telemetry::json::Json::parse(live.trim()).expect("live JSON");
        assert_eq!(
            j.get("verdict").and_then(stm_telemetry::json::Json::as_str),
            Some("collecting")
        );
        assert_eq!(
            j.get("witnesses_ingested")
                .and_then(stm_telemetry::json::Json::as_f64),
            Some(7.0)
        );

        server.stop();
        stm_telemetry::set_enabled(false);
    }

    #[test]
    fn diagnosis_endpoint_attaches_the_fleet_document() {
        let _g = lock();
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        stm_telemetry::status::publish(
            "fleet",
            stm_telemetry::json::Json::parse(
                r#"{"shed_total":4,"shards":{"sort-0":{"verdict":"collecting","witnesses":3}}}"#,
            )
            .unwrap(),
        );
        let body = http_get(addr, "/diagnosis", IO_TIMEOUT).expect("/diagnosis");
        let j = stm_telemetry::json::Json::parse(body.trim()).expect("JSON");
        // No session published: the top-level verdict stays idle, but
        // the fleet document rides along.
        assert_eq!(
            j.get("verdict").and_then(stm_telemetry::json::Json::as_str),
            Some("idle")
        );
        let fleet = j.get("fleet").expect("fleet key");
        assert_eq!(
            fleet
                .get("shards")
                .and_then(|s| s.get("sort-0"))
                .and_then(|s| s.get("verdict"))
                .and_then(stm_telemetry::json::Json::as_str),
            Some("collecting")
        );

        server.stop();
        stm_telemetry::set_enabled(false);
    }

    #[test]
    fn health_rate_tracks_runs_between_polls() {
        let _g = lock();
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let rate_of = |body: String| {
            stm_telemetry::json::Json::parse(body.trim())
                .expect("health JSON")
                .get("observed")
                .and_then(|o| o.get("runs_per_sec"))
                .cloned()
        };
        let first = rate_of(http_get(addr, "/health", IO_TIMEOUT).unwrap());
        assert_eq!(
            first,
            Some(stm_telemetry::json::Json::Null),
            "first poll has no rate"
        );
        stm_telemetry::counter!("engine.runs").add(50);
        std::thread::sleep(Duration::from_millis(20));
        let second = rate_of(http_get(addr, "/health", IO_TIMEOUT).unwrap());
        let rate = second.and_then(|j| j.as_f64()).expect("a number");
        assert!(rate > 0.0, "rate {rate} must be positive");
        server.stop();
        stm_telemetry::set_enabled(false);
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let _g = lock();
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        drop(server); // drop == stop
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port must be released after stop");
        stm_telemetry::set_enabled(false);
    }
}
