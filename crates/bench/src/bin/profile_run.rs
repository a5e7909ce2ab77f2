//! Profiles one suite benchmark's full diagnosis, inside and out:
//!
//! * **guest side** — runs the collection session with the interpreter's
//!   sampling profiler on ([`RunConfig::profile_period`]), folds every
//!   kept witness run into a [`GuestProfile`], and writes
//!   `results/PROFILE_<id>.folded` (flamegraph.pl/inferno input) plus
//!   hot-block and lock-contention tables. Samples fire on retired
//!   instructions, so these artifacts are byte-identical across engine
//!   thread counts.
//! * **pipeline side** — collects the session's telemetry spans and runs
//!   the [`CriticalPathReport`] sweep over them, attributing every
//!   microsecond of session wall-clock to a phase (job execution, queue
//!   wait, result hold-back, ...). Wall-clock numbers are
//!   machine-dependent by nature.
//!
//! Usage: `profile_run <benchmark-id> [--threads N] [--period P]
//! [--top K] [--check] [--trace-out FILE]`
//!
//! `--check` turns the run into a smoke gate for CI: it fails unless the
//! folded output is non-empty and the critical path covers ≥95% of the
//! session wall-clock. `--trace-out` additionally exports the Chrome
//! trace (with per-job flow arrows) from the same spans.
//!
//! [`RunConfig::profile_period`]: stm_machine::interp::RunConfig
//! [`GuestProfile`]: stm_profiler::GuestProfile
//! [`CriticalPathReport`]: stm_profiler::CriticalPathReport

use stm_bench::{write_trace, TelemetryCli};
use stm_core::engine::{DiagnosisSession, ProfileKind};
use stm_machine::interp::RunConfig;
use stm_profiler::{CriticalPathReport, GuestProfile, DEFAULT_PERIOD};
use stm_suite::eval::{default_threads, expand_workloads, lbra_runner, lcra_runner};
use stm_suite::BugClass;
use stm_telemetry::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: profile_run <benchmark-id> [--threads N] [--period P] [--top K] [--check] [--trace-out FILE]"
    );
    eprintln!("benchmarks:");
    for b in stm_suite::all() {
        eprintln!("  {:<12} ({:?})", b.info.id, b.info.bug_class);
    }
    std::process::exit(2);
}

fn main() {
    let (tele, rest) = TelemetryCli::from_env();
    let mut id: Option<String> = None;
    let mut threads = default_threads();
    let mut period = DEFAULT_PERIOD;
    let mut top_k = 10usize;
    let mut check = false;
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a number");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--bench" => id = args.next(),
            "--threads" => threads = num("--threads") as usize,
            "--period" => period = num("--period"),
            "--top" => top_k = num("--top") as usize,
            "--check" => check = true,
            other if !other.starts_with("--") && id.is_none() => id = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(id) = id else { usage() };
    let Some(b) = stm_suite::by_id(&id) else {
        eprintln!("unknown benchmark {id:?}; run with no arguments for the list");
        std::process::exit(2);
    };
    if period == 0 {
        eprintln!("--period must be nonzero (period 0 disables the guest profiler)");
        std::process::exit(2);
    }

    // Same reactive deployments the Table 6/7 harnesses use.
    let (runner, kind) = match b.info.bug_class {
        BugClass::Sequential => (lbra_runner(&b), ProfileKind::Lbr),
        BugClass::Concurrency => (lcra_runner(&b), ProfileKind::Lcr),
    };
    let (failing, passing) = expand_workloads(&b, &runner);
    if failing.is_empty() {
        eprintln!("{id}: no failing workload reproduces the target failure");
        std::process::exit(1);
    }

    // The pipeline trace needs telemetry regardless of the shared flags;
    // start it from a clean span buffer so the critical path sees only
    // this session. `apply` also starts the observatory endpoint when
    // `--metrics-addr` was given.
    let _metrics = tele.apply();
    stm_telemetry::set_enabled(true);
    let _ = stm_telemetry::take_spans();
    let profiles = DiagnosisSession::from_runner(&runner)
        .run_config(RunConfig {
            profile_period: period,
            ..runner.run_config().clone()
        })
        .failure(b.truth.spec.clone())
        .failing(failing)
        .passing(passing)
        .profile_kind(kind)
        .threads(threads)
        .collect()
        .unwrap_or_else(|e| {
            eprintln!("{id}: collection failed: {e}");
            std::process::exit(1);
        });
    let spans = stm_telemetry::take_spans();

    let mut guest = GuestProfile::new(runner.machine().program(), period);
    for run in profiles
        .failure_runs()
        .iter()
        .chain(profiles.success_runs())
    {
        guest.add_run(&run.report);
    }
    let critical = CriticalPathReport::analyze(&spans);

    let folded = guest.folded();
    let mut md = format!(
        "# Profile: {id}\n\n## Guest profile\n\n{}",
        guest.render_md(top_k)
    );
    let mut doc = vec![
        ("bench", Json::from(id.as_str())),
        ("threads", Json::from(threads as u64)),
        ("guest", guest.to_json(top_k)),
    ];
    match &critical {
        Some(c) => {
            md.push_str("\n## Pipeline critical path\n\n");
            md.push_str(&c.render_md(top_k));
            doc.push(("critical_path", c.to_json()));
        }
        None => {
            md.push_str("\n## Pipeline critical path\n\n(no completed session span)\n");
            doc.push(("critical_path", Json::Null));
        }
    }

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("cannot create results/: {e}");
        std::process::exit(1);
    }
    let base = format!("results/PROFILE_{id}");
    let io = std::fs::write(format!("{base}.folded"), &folded)
        .and_then(|_| std::fs::write(format!("{base}.md"), &md))
        .and_then(|_| std::fs::write(format!("{base}.json"), Json::obj(doc).encode() + "\n"));
    if let Err(e) = io {
        eprintln!("{id}: write failed: {e}");
        std::process::exit(1);
    }
    println!("wrote {base}.folded, {base}.json and {base}.md");

    match guest.top_frame() {
        Some((name, n)) => println!(
            "{id}: {} samples across {} runs (period {period}); hottest function {name} ({n} samples)",
            guest.sample_count(),
            guest.run_count()
        ),
        None => println!("{id}: no samples (runs shorter than the period?)"),
    }
    if let Some(c) = &critical {
        println!(
            "critical path: wall {} us, {} jobs on {} worker(s), parallel efficiency {:.1}%, coverage {:.1}%",
            c.wall_us,
            c.jobs,
            c.workers,
            c.parallel_efficiency_pct,
            c.coverage_pct()
        );
    }

    if let Some(out) = &tele.trace_out {
        if let Err(e) = write_trace(&spans, out) {
            stm_telemetry::log::warn("bench", "trace.write_failed", vec![("error", e)]);
        }
    }

    if check {
        let mut bad = vec![];
        if folded.is_empty() {
            bad.push("folded output is empty".to_string());
        }
        match &critical {
            Some(c) if c.coverage_pct() >= 95.0 => {}
            Some(c) => bad.push(format!(
                "critical-path coverage {:.1}% < 95%",
                c.coverage_pct()
            )),
            None => bad.push("no completed engine.collect session in the trace".to_string()),
        }
        if !bad.is_empty() {
            for m in &bad {
                eprintln!("{id}: CHECK FAILED: {m}");
            }
            std::process::exit(1);
        }
        println!("{id}: checks passed");
    }
}
