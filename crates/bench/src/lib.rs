//! # stm-bench — harness utilities shared by the table/figure binaries
//!
//! One binary per evaluation artifact (see DESIGN.md's experiment index):
//! `table4`, `table5`, `table6`, `table7`, `latency`, `logging_latency`,
//! `capacity`, `bts_overhead`, plus the `bench_gate` regression driver.
//! This library holds the pieces they share: CBI evaluation over suite
//! benchmarks, wall-clock overhead measurement, failing-trace decoding,
//! and table rendering helpers.

#![warn(missing_docs)]

use std::time::Instant;
use stm_baselines::cbi::{cbi, instrument_cbi};
use stm_core::diagnose::{failure_profile, Quotas};
use stm_core::engine::CollectedProfiles;
use stm_core::profile::{decode_lbr, decode_lcr, DecodedLbrEntry, DecodedLcrEntry};
use stm_core::runner::Runner;
use stm_core::transform::{instrument, InstrumentOptions};
use stm_hardware::HwConfig;
use stm_machine::interp::{Machine, RunConfig};
use stm_machine::layout::Layout;
use stm_machine::report::ProfileData;
use stm_suite::eval::{expand_workloads, lbrlog_runner, reactive_options};
use stm_suite::{Benchmark, Language};
use stm_telemetry::json::Json;

/// Renders an optional rank/position as the tables do (`Y n` / `-`).
pub fn mark(v: Option<usize>) -> String {
    match v {
        Some(n) => format!("Y {n}"),
        None => "-".to_string(),
    }
}

/// Renders an optional distance (`None` = ∞, different file).
pub fn dist(v: Option<u32>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "inf".to_string(),
    }
}

/// Renders an optional rank/distance as JSON (`null` when absent).
pub fn json_rank(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::from(n),
        None => Json::Null,
    }
}

/// Prints Table 4 (features of the real-world failures evaluated) and
/// checkpoints each benchmark's model size — log points and IR
/// statements — into `metrics`. Paper columns (KLOC, log points)
/// describe the original applications; the "our" columns describe the
/// IR reproductions.
pub fn table4(metrics: &mut MetricsEmitter) {
    println!("Table 4: Features of real-world failures evaluated");
    println!(
        "{:<12} {:>8} {:>10} {:>14} {:>8} {:>10} {:>11} {:>11}",
        "Program",
        "Version",
        "KLOC(pap)",
        "RootCause",
        "Symptom",
        "LogPts(pap)",
        "LogPts(our)",
        "Stmts(our)"
    );
    for b in stm_suite::all() {
        println!(
            "{:<12} {:>8} {:>10} {:>14} {:>8} {:>10} {:>11} {:>11}",
            b.info.id,
            b.info.version,
            b.info.paper.kloc,
            b.info.root_cause.short(),
            b.info.symptom.describe(),
            b.info.paper.log_points,
            b.log_points(),
            b.program.stmt_count(),
        );
        metrics.checkpoint(
            b.info.id,
            vec![
                ("log_points", Json::from(b.log_points() as u64)),
                ("stmts", Json::from(b.program.stmt_count() as u64)),
            ],
        );
    }
}

/// A decoded ring-snapshot entry: which ring's snapshot it reads, and how.
pub trait TraceEntry: Sized {
    /// Decodes `data` when it is this entry's ring, `None` otherwise.
    fn decode(layout: &Layout, data: &ProfileData) -> Option<Vec<Self>>;
}

impl TraceEntry for DecodedLbrEntry {
    fn decode(layout: &Layout, data: &ProfileData) -> Option<Vec<Self>> {
        match data {
            ProfileData::Lbr(records) => Some(decode_lbr(layout, records)),
            ProfileData::Lcr(_) => None,
        }
    }
}

impl TraceEntry for DecodedLcrEntry {
    fn decode(layout: &Layout, data: &ProfileData) -> Option<Vec<Self>> {
        match data {
            ProfileData::Lcr(records) => Some(decode_lcr(layout, records)),
            ProfileData::Lbr(_) => None,
        }
    }
}

/// Decodes the failure-site snapshot of every failing witness a
/// collection kept, as `(witness id, entries)` in consumption order — the
/// traces a `CausalChain` is reconstructed from. Witnesses whose snapshot
/// is of the other ring are skipped.
pub fn failure_traces<T: TraceEntry>(profiles: &CollectedProfiles) -> Vec<(String, Vec<T>)> {
    let layout = profiles.runner().machine().layout();
    profiles
        .failure_runs()
        .iter()
        .filter_map(|run| {
            let p = failure_profile(&run.report, profiles.spec())?;
            Some((run.witness.clone(), T::decode(layout, &p.data)?))
        })
        .collect()
}

/// Runs CBI on a benchmark (its default 1/100 sampling) with the given run
/// budgets and returns the rank of the target branch. `None` when CBI is
/// inapplicable (C++ applications) or no related predicate survives.
pub fn cbi_rank(b: &Benchmark, failing_runs: usize, successful_runs: usize) -> Option<usize> {
    if b.info.language == Language::Cpp {
        return None; // the CBI framework instruments C programs only
    }
    let target = b.truth.target_branch()?;
    let machine = Machine::new(instrument_cbi(&b.program));
    let runner = Runner::new(machine).with_run_config(RunConfig {
        sample_mean: 100,
        ..RunConfig::default()
    });
    let (failing, passing) = expand_workloads(b, &runner);
    let quotas = Quotas {
        failure_profiles: failing_runs,
        success_profiles: successful_runs,
        max_runs: failing_runs.max(successful_runs) * 20,
    };
    let d = cbi(&runner, &failing, &passing, &b.truth.spec, &quotas);
    d.rank_of(|p| p.branch == target)
}

/// Wall-clock time of `iters` runs of the benchmark's performance workload
/// on the given runner, in seconds.
fn time_runs(runner: &Runner, b: &Benchmark, iters: u32) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        let mut w = b.workloads.perf.clone();
        w.seed = i as u64;
        let _ = runner.run(&w);
    }
    start.elapsed().as_secs_f64()
}

/// Retired interpreter operations over `iters` perf-workload runs — the
/// simulator's deterministic time proxy (each operation costs one
/// interpreter step, so extra instrumentation work shows up exactly).
fn step_runs(runner: &Runner, b: &Benchmark, iters: u32) -> u64 {
    let mut total = 0;
    for i in 0..iters {
        let mut w = b.workloads.perf.clone();
        w.seed = i as u64;
        total += runner.run(&w).steps;
    }
    total
}

/// Measured run-time overheads for one benchmark (the Table 6 "Overhead"
/// columns), as percentages over the uninstrumented baseline.
#[derive(Debug, Clone, Copy)]
pub struct OverheadRow {
    /// LBRLOG with toggling.
    pub lbrlog_tog: f64,
    /// LBRLOG without toggling.
    pub lbrlog_no_tog: f64,
    /// LBRA, reactive success-site scheme.
    pub lbra_reactive: f64,
    /// LBRA, proactive success-site scheme.
    pub lbra_proactive: f64,
    /// CBI with 1/100 sampling; `None` for C++ applications.
    pub cbi: Option<f64>,
}

/// Measures the overhead columns for one benchmark as the relative growth
/// in retired interpreter operations — deterministic, unlike wall clock on
/// sub-millisecond simulated workloads. The paper measures wall time on
/// real hardware; in this simulator every extra instrumentation
/// instruction costs one interpreter step, so the step ratio is the
/// faithful analogue.
pub fn measure_overheads(b: &Benchmark, iters: u32) -> OverheadRow {
    let baseline_runner = Runner::new(Machine::new(b.program.clone()));
    let base = step_runs(&baseline_runner, b, iters) as f64;
    let run_variant = |runner: &Runner| {
        let t = step_runs(runner, b, iters) as f64;
        ((t - base) / base * 100.0).max(0.0)
    };

    let lbrlog_tog = run_variant(&lbrlog_runner(b, true));
    let lbrlog_no_tog = run_variant(&lbrlog_runner(b, false));
    let reactive = Runner::new(Machine::new(instrument(
        &b.program,
        &reactive_options(b, true, None),
    )));
    let lbra_reactive = run_variant(&reactive);
    let proactive = Runner::new(Machine::new(instrument(
        &b.program,
        &InstrumentOptions::lbra_proactive(),
    )));
    let lbra_proactive = run_variant(&proactive);
    let cbi = if b.info.language == Language::Cpp {
        None
    } else {
        let r = Runner::new(Machine::new(instrument_cbi(&b.program))).with_run_config(RunConfig {
            sample_mean: 100,
            ..RunConfig::default()
        });
        Some(run_variant(&r))
    };
    OverheadRow {
        lbrlog_tog,
        lbrlog_no_tog,
        lbra_reactive,
        lbra_proactive,
        cbi,
    }
}

/// Times `iters` runs of the benchmark's perf workload with and without a
/// BTS attached (experiment E8); returns `(baseline_secs, bts_secs)`.
pub fn bts_comparison(b: &Benchmark, iters: u32) -> (f64, f64) {
    let plain = lbrlog_runner(b, true);
    let with_bts = lbrlog_runner(b, true).with_hw_config(HwConfig {
        enable_bts: true,
        ..HwConfig::default()
    });
    let mut base = f64::MAX;
    let mut bts = f64::MAX;
    for _ in 0..3 {
        base = base.min(time_runs(&plain, b, iters));
        bts = bts.min(time_runs(&with_bts, b, iters));
    }
    (base, bts)
}

/// Collects per-benchmark telemetry counter deltas for a harness binary
/// and writes them as one `results/BENCH_<harness>.json` document next to
/// the harness's human-readable table.
#[derive(Debug)]
pub struct MetricsEmitter {
    harness: &'static str,
    last: stm_telemetry::MetricsSnapshot,
    benchmarks: Vec<(String, stm_telemetry::json::Json)>,
    top_level: Vec<(&'static str, stm_telemetry::json::Json)>,
}

impl MetricsEmitter {
    /// Enables telemetry collection and starts a fresh emitter.
    pub fn new(harness: &'static str) -> Self {
        stm_telemetry::set_enabled(true);
        MetricsEmitter {
            harness,
            last: stm_telemetry::metrics_snapshot(),
            benchmarks: Vec::new(),
            top_level: Vec::new(),
        }
    }

    /// Records a harness-wide headline field at the top level of the
    /// document — *outside* `benchmarks`. Only top-level keys the
    /// committed baseline also carries are gated, so informational values
    /// (throughput headlines) left out of the baseline never fail a
    /// regression gate.
    pub fn top_level(&mut self, key: &'static str, value: stm_telemetry::json::Json) {
        self.top_level.push((key, value));
    }

    /// Records the counter deltas accumulated since the previous
    /// checkpoint under `id`, merged with harness-specific `extra` fields
    /// (ranks, ratios...).
    pub fn checkpoint(&mut self, id: &str, extra: Vec<(&'static str, stm_telemetry::json::Json)>) {
        use stm_telemetry::json::Json;
        let now = stm_telemetry::metrics_snapshot();
        let counters: std::collections::BTreeMap<String, Json> = now
            .delta_since(&self.last)
            .counters
            .into_iter()
            .map(|(name, v)| (name, Json::from(v)))
            .collect();
        self.last = now;
        let mut obj = std::collections::BTreeMap::new();
        for (k, v) in extra {
            obj.insert(k.to_string(), v);
        }
        obj.insert("counters".to_string(), Json::Obj(counters));
        self.benchmarks.push((id.to_string(), Json::Obj(obj)));
    }

    /// Writes `results/BENCH_<harness>.json` and returns its path.
    pub fn finish(self) -> std::io::Result<String> {
        use stm_telemetry::json::Json;
        // A harness may checkpoint the same benchmark twice (ranks, then
        // overheads); merge the objects, first checkpoint winning ties.
        let mut merged: std::collections::BTreeMap<String, Json> =
            std::collections::BTreeMap::new();
        for (id, obj) in self.benchmarks {
            match merged.entry(id) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(obj);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if let (Json::Obj(dst), Json::Obj(src)) = (e.get_mut(), obj) {
                        for (k, v) in src {
                            dst.entry(k).or_insert(v);
                        }
                    }
                }
            }
        }
        let mut doc = std::collections::BTreeMap::new();
        doc.insert("harness".to_string(), Json::from(self.harness));
        doc.insert("benchmarks".to_string(), Json::Obj(merged));
        doc.insert(
            "totals".to_string(),
            stm_telemetry::export::metrics_json(&stm_telemetry::metrics_snapshot()),
        );
        for (k, v) in self.top_level {
            doc.insert(k.to_string(), v);
        }
        let doc = Json::Obj(doc);
        std::fs::create_dir_all("results")?;
        let path = format!("results/BENCH_{}.json", self.harness);
        std::fs::write(&path, doc.encode() + "\n")?;
        Ok(path)
    }
}

/// The shared observability flags every harness binary understands:
/// `--telemetry` turns span/metric collection on for the whole process,
/// `--trace-out <path>` additionally exports a Chrome `trace_event`
/// JSON when the harness exits, and `--metrics-addr <addr>` serves the
/// live registry over HTTP (`/metrics`, `/health`, `/events`) for the
/// process's lifetime — both imply `--telemetry`. One parser, one
/// behaviour — `table4`…`table7`, `diagnose_report` and `profile_run`
/// all route through here instead of hand-rolling flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryCli {
    /// Collection requested (`--telemetry`, or implied by the others).
    pub enabled: bool,
    /// Export path for the Chrome trace, when requested.
    pub trace_out: Option<String>,
    /// Bind address for the observatory endpoint (`127.0.0.1:0` picks an
    /// ephemeral port, printed on startup), when requested.
    pub metrics_addr: Option<String>,
}

impl TelemetryCli {
    /// Extracts the shared flags out of `args`, removing them so the
    /// caller's own positional/flag parsing never sees them.
    ///
    /// # Errors
    ///
    /// Returns a usage message when `--trace-out` is missing its path.
    pub fn extract(args: &mut Vec<String>) -> Result<TelemetryCli, String> {
        let mut cli = TelemetryCli::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--telemetry" => {
                    cli.enabled = true;
                    args.remove(i);
                }
                "--trace-out" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("--trace-out needs a file path".to_string());
                    }
                    cli.trace_out = Some(args.remove(i));
                    cli.enabled = true;
                }
                "--metrics-addr" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err(
                            "--metrics-addr needs a bind address (e.g. 127.0.0.1:0)".to_string()
                        );
                    }
                    cli.metrics_addr = Some(args.remove(i));
                    cli.enabled = true;
                }
                _ => i += 1,
            }
        }
        Ok(cli)
    }

    /// Extracts the shared flags from the process arguments; exits with
    /// the usage error on a malformed invocation. Returns the remaining
    /// arguments (program name excluded) for the caller to parse.
    pub fn from_env() -> (TelemetryCli, Vec<String>) {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        match TelemetryCli::extract(&mut args) {
            Ok(cli) => (cli, args),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Applies the flags: enables collection, drains any spans a
    /// previous phase left behind (so an exported trace starts at this
    /// harness's own work), and starts the observatory endpoint when
    /// `--metrics-addr` was given. The returned server, if any, serves
    /// for as long as the caller keeps it alive — bind it for the
    /// harness's whole run. Exits with the usage error when the bind
    /// address is unusable, matching [`TelemetryCli::from_env`].
    #[must_use = "bind the returned server: dropping it stops the metrics endpoint"]
    pub fn apply(&self) -> Option<stm_observatory::MetricsServer> {
        if self.enabled {
            stm_telemetry::set_enabled(true);
            let _ = stm_telemetry::take_spans();
        }
        let addr = self.metrics_addr.as_ref()?;
        match stm_observatory::MetricsServer::start(addr) {
            Ok(server) => {
                // The one place a `:0` caller can learn the real port.
                eprintln!("metrics endpoint listening on http://{}", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("--metrics-addr {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Finishes the harness: prints the metrics summary when telemetry
    /// was on, then writes the Chrome trace when `--trace-out` was given
    /// (round-tripped through the strict JSON parser first — never ship
    /// a malformed trace). Returns the trace path if one was written.
    ///
    /// # Errors
    ///
    /// Returns an error when the trace fails validation or the write
    /// fails.
    pub fn finish(&self) -> Result<Option<String>, String> {
        if self.enabled {
            println!();
            print!(
                "{}",
                stm_telemetry::export::summary(&stm_telemetry::metrics_snapshot())
            );
        }
        let Some(out) = &self.trace_out else {
            return Ok(None);
        };
        write_trace(&stm_telemetry::take_spans(), out)?;
        Ok(Some(out.clone()))
    }
}

/// Writes `spans` as a Chrome `trace_event` JSON at `out`, round-tripped
/// through the strict parser first — never ship a malformed trace.
/// Harnesses that need the spans for their own analysis (critical-path
/// attribution) drain them once and call this directly instead of
/// [`TelemetryCli::finish`].
///
/// # Errors
///
/// Returns an error when the trace fails validation or the write fails.
pub fn write_trace(spans: &[stm_telemetry::SpanRecord], out: &str) -> Result<(), String> {
    let trace = stm_telemetry::export::chrome_trace(spans);
    if let Err(e) = stm_telemetry::json::Json::parse(&trace) {
        return Err(format!("generated trace is not valid JSON: {e}"));
    }
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, &trace).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out} ({} events)", spans.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_dist_render() {
        assert_eq!(mark(Some(3)), "Y 3");
        assert_eq!(mark(None), "-");
        assert_eq!(dist(Some(0)), "0");
        assert_eq!(dist(None), "inf");
    }

    #[test]
    fn telemetry_cli_extracts_and_leaves_the_rest() {
        let mut args: Vec<String> = ["sort", "--telemetry", "--top", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = TelemetryCli::extract(&mut args).unwrap();
        assert!(cli.enabled);
        assert_eq!(cli.trace_out, None);
        assert_eq!(args, vec!["sort", "--top", "3"]);

        let mut args: Vec<String> = ["--trace-out", "results/T.json", "apache4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = TelemetryCli::extract(&mut args).unwrap();
        assert!(cli.enabled, "--trace-out implies --telemetry");
        assert_eq!(cli.trace_out.as_deref(), Some("results/T.json"));
        assert_eq!(args, vec!["apache4"]);

        let mut args: Vec<String> = ["--metrics-addr", "127.0.0.1:0", "sort"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = TelemetryCli::extract(&mut args).unwrap();
        assert!(cli.enabled, "--metrics-addr implies --telemetry");
        assert_eq!(cli.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(args, vec!["sort"]);

        let mut args = vec!["--trace-out".to_string()];
        assert!(TelemetryCli::extract(&mut args).is_err());

        let mut args = vec!["--metrics-addr".to_string()];
        assert!(TelemetryCli::extract(&mut args).is_err());

        let mut args = vec!["plain".to_string()];
        let cli = TelemetryCli::extract(&mut args).unwrap();
        assert_eq!(cli, TelemetryCli::default());
        assert!(cli.finish().unwrap().is_none(), "no trace requested");
        assert!(cli.apply().is_none(), "no endpoint requested");
    }

    #[test]
    fn cbi_is_na_for_cpp() {
        let b = stm_suite::by_id("cppcheck2").unwrap();
        assert_eq!(cbi_rank(&b, 10, 10), None);
    }

    #[test]
    fn table6_cbi_cells_at_100_runs() {
        // Two Table 6 CBI cells, pinned exactly: lighttpd's flips to
        // `Some(1)` if CBI's per-run sample seed shifts by one.
        let ln = stm_suite::by_id("ln").unwrap();
        assert_eq!(cbi_rank(&ln, 100, 100), Some(2));
        let lighttpd = stm_suite::by_id("lighttpd").unwrap();
        assert_eq!(cbi_rank(&lighttpd, 100, 100), None);
    }

    #[test]
    fn overheads_have_the_papers_shape_on_average() {
        // CBI executes a probe per branch; LBRLOG's instrumentation sits
        // on failure paths and library boundaries. Across benchmarks, CBI
        // must cost more (individual rows can invert when a program is
        // library-call-heavy but branch-light).
        let mut lbr = 0.0;
        let mut cbi = 0.0;
        for id in ["apache3", "rm", "squid2"] {
            let b = stm_suite::by_id(id).unwrap();
            let row = measure_overheads(&b, 10);
            assert!(row.lbrlog_tog.is_finite());
            lbr += row.lbrlog_tog;
            cbi += row.cbi.expect("C program");
        }
        assert!(cbi > lbr, "cbi {cbi:.2}% <= lbrlog {lbr:.2}%");
    }
}
