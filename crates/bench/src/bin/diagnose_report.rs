//! Emits the forensic artifacts for suite benchmarks: a failure-dossier +
//! ranking-evidence report per benchmark, as strict JSON
//! (`results/REPORT_<id>.json`) and markdown (`results/REPORT_<id>.md`).
//!
//! Sequential benchmarks run through LBRA, concurrency benchmarks through
//! LCRA — the same reactive deployments the Table 6/7 harnesses use.
//!
//! Usage: `diagnose_report [--top K] [--telemetry] [--trace-out FILE]
//! [benchmark ids...]` (defaults: top 5, benchmarks `sort` and
//! `apache4`). The shared observability flags enable span/metric
//! collection and export a Chrome trace of the whole emission.

use stm_bench::failure_traces;
use stm_core::engine::{DiagnosisSession, ProfileKind};
use stm_forensics::{CausalChain, FailureDossier, ForensicReport, RankingReport};
use stm_suite::eval::{default_threads, expand_workloads, lbra_runner, lcra_runner};
use stm_suite::{Benchmark, BugClass};
use stm_telemetry::json::Json;

/// Builds the forensic report for one benchmark, or says why it cannot.
fn report_for(b: &Benchmark, top_k: usize) -> Result<ForensicReport, String> {
    let (runner, kind) = match b.info.bug_class {
        BugClass::Sequential => (lbra_runner(b), ProfileKind::Lbr),
        BugClass::Concurrency => (lcra_runner(b), ProfileKind::Lcr),
    };
    let (failing, passing) = expand_workloads(b, &runner);
    if failing.is_empty() {
        return Err("no failing workload reproduces the target failure".into());
    }
    let profiles = DiagnosisSession::from_runner(&runner)
        .failure(b.truth.spec.clone())
        .failing(failing)
        .passing(passing)
        .profile_kind(kind)
        .threads(default_threads())
        .collect()
        .map_err(|e| e.to_string())?;
    let program = runner.machine().program();
    let (ranking, chain) = match kind {
        ProfileKind::Lbr => {
            let mut d = profiles.lbra();
            d.exclude_site_guards(program, &b.truth.spec);
            let chain = CausalChain::from_lbra(
                Some(program),
                &d.ranked,
                &failure_traces(&profiles),
                d.stats.failure_runs_used,
                d.stats.success_runs_used,
            );
            (
                RankingReport::from_lbra(program, b.info.id, &d, top_k),
                chain,
            )
        }
        ProfileKind::Lcr => {
            let d = profiles.lcra();
            let chain = CausalChain::from_lcra(
                Some(program),
                &d.ranked,
                &failure_traces(&profiles),
                d.stats.failure_runs_used,
                d.stats.success_runs_used,
            );
            (
                RankingReport::from_lcra(program, b.info.id, &d, top_k),
                chain,
            )
        }
    };
    // Flight-record the first collected failure witness — the run is
    // already in the profile set, no replay needed.
    let dossier = profiles
        .failure_runs()
        .iter()
        .find_map(|run| {
            FailureDossier::collect(&runner, &run.report, &run.workload, Some(&b.truth.spec))
        })
        .ok_or("no run yielded a failure-site profile")?;
    let chain = chain.map(|c| c.with_symptom(dossier.symptom.clone()));
    Ok(ForensicReport {
        dossier,
        ranking,
        chain,
    })
}

fn main() {
    let (tele, rest) = stm_bench::TelemetryCli::from_env();
    let _metrics = tele.apply();
    let mut top_k = 5usize;
    let mut ids: Vec<String> = Vec::new();
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top_k = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--top needs a number");
                    std::process::exit(2);
                });
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        // One sequential (LBRA) and one concurrency (LCRA) benchmark.
        ids = vec!["sort".to_string(), "apache4".to_string()];
    }

    let mut failed = false;
    for id in &ids {
        let Some(b) = stm_suite::by_id(id) else {
            eprintln!("{id}: unknown benchmark");
            failed = true;
            continue;
        };
        match report_for(&b, top_k) {
            Ok(report) => {
                let json = report.to_json();
                let encoded = json.encode();
                // The artifact must round-trip through the strict parser.
                match Json::parse(&encoded) {
                    Ok(back) if back == json => {}
                    Ok(_) => {
                        eprintln!("{id}: JSON round-trip altered the document");
                        failed = true;
                        continue;
                    }
                    Err(e) => {
                        eprintln!("{id}: emitted JSON does not re-parse: {e}");
                        failed = true;
                        continue;
                    }
                }
                if let Err(e) = std::fs::create_dir_all("results") {
                    eprintln!("cannot create results/: {e}");
                    std::process::exit(2);
                }
                let json_path = format!("results/REPORT_{id}.json");
                let md_path = format!("results/REPORT_{id}.md");
                let io = std::fs::write(&json_path, encoded + "\n")
                    .and_then(|_| std::fs::write(&md_path, report.to_markdown()));
                match io {
                    Ok(()) => println!("wrote {json_path} and {md_path}"),
                    Err(e) => {
                        eprintln!("{id}: write failed: {e}");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("{id}: {e}");
                failed = true;
            }
        }
    }
    if let Err(e) = tele.finish() {
        stm_telemetry::log::warn("bench", "trace.write_failed", vec![("error", e)]);
    }
    if failed {
        std::process::exit(1);
    }
}
