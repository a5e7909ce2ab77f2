//! Runs one suite benchmark's full diagnosis under telemetry and exports
//! a Chrome `trace_event` JSON — load it at chrome://tracing or
//! <https://ui.perfetto.dev> to see the interpreter runs, ring snapshots,
//! diagnosis phases and per-job flow arrows on a timeline.
//!
//! Usage: `trace_run <benchmark-id> [--trace-out FILE] [--threads N]`
//! (default output: `results/TRACE_<id>.json`; `--out` is accepted as an
//! alias for `--trace-out`; default threads: the `STM_THREADS` env var,
//! else available parallelism capped at 8). Telemetry is always on here —
//! exporting the trace is this binary's whole job — so the shared
//! `--telemetry` flag is accepted but redundant.

use stm_bench::TelemetryCli;
use stm_suite::BugClass;

fn main() {
    let (mut tele, rest) = TelemetryCli::from_env();
    let mut id: Option<String> = None;
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            // Historical alias for the shared --trace-out flag.
            "--out" => match args.next() {
                Some(path) => tele.trace_out = Some(path),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            "--threads" => {
                let Some(threads) = args.next().filter(|t| t.parse::<usize>().is_ok()) else {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                };
                // The eval drivers read STM_THREADS for their collection
                // engine.
                std::env::set_var("STM_THREADS", threads);
            }
            other if !other.starts_with("--") && id.is_none() => id = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(id) = id else {
        eprintln!("usage: trace_run <benchmark-id> [--trace-out FILE] [--threads N]");
        eprintln!("benchmarks:");
        for b in stm_suite::all() {
            eprintln!("  {:<12} ({:?})", b.info.id, b.info.bug_class);
        }
        std::process::exit(2);
    };
    let Some(b) = stm_suite::by_id(&id) else {
        eprintln!("unknown benchmark {id:?}; run with no arguments for the list");
        std::process::exit(2);
    };

    tele.enabled = true;
    if tele.trace_out.is_none() {
        tele.trace_out = Some(format!("results/TRACE_{id}.json"));
    }
    let _metrics = tele.apply();
    {
        let _run = stm_telemetry::span_cat("trace_run", "harness");
        match b.info.bug_class {
            BugClass::Sequential => {
                let d = stm_suite::eval::run_lbra(&b);
                println!(
                    "{id}: LBRA used {} failing + {} successful of {} runs, {} predictors",
                    d.stats.failure_runs_used,
                    d.stats.success_runs_used,
                    d.stats.total_runs,
                    d.ranked.len()
                );
            }
            BugClass::Concurrency => {
                let d = stm_suite::eval::run_lcra(&b);
                println!(
                    "{id}: LCRA used {} failing + {} successful of {} runs, {} predictors",
                    d.stats.failure_runs_used,
                    d.stats.success_runs_used,
                    d.stats.total_runs,
                    d.ranked.len()
                );
            }
        }
    }

    if let Err(e) = tele.finish() {
        eprintln!("internal error: {e}");
        std::process::exit(1);
    }

    println!();
    print!(
        "{}",
        stm_telemetry::export::summary(&stm_telemetry::metrics_snapshot())
    );
}
