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

use stm_core::diagnose::Diagnosis;
use stm_forensics::{CausalChain, FailureDossier, ForensicReport, RankingReport};
use stm_hardware::HwConfig;
use stm_suite::eval::{default_threads, Deployment};
use stm_suite::Benchmark;
use stm_telemetry::json::Json;

/// Builds the forensic report for one benchmark, or says why it cannot.
fn report_for(b: Benchmark, top_k: usize) -> Result<ForensicReport, String> {
    let d = Deployment::new(b, default_threads());
    if d.failing.is_empty() {
        return Err("no failing workload reproduces the target failure".into());
    }
    let (diagnosis, profiles) = d
        .diagnose(HwConfig::default(), default_threads())
        .map_err(|e| e.to_string())?;
    let (program, id) = (d.runner.machine().program(), d.bench.info.id);
    let ranking = match &diagnosis {
        Diagnosis::Lbr(r) => RankingReport::from_lbra(program, id, r, top_k),
        Diagnosis::Lcr(r) => RankingReport::from_lcra(program, id, r, top_k),
    };
    // Flight-record the first collected failure witness — the run is
    // already in the profile set, no replay needed.
    let dossier = profiles
        .failure_runs()
        .iter()
        .find_map(|run| {
            let spec = Some(&d.bench.truth.spec);
            FailureDossier::collect(&d.runner, &run.report, &run.workload, spec)
        })
        .ok_or("no run yielded a failure-site profile")?;
    let chain = CausalChain::from_profiles(&profiles, &diagnosis)
        .map(|c| c.with_symptom(dossier.symptom.clone()));
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
        match report_for(b, top_k) {
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
