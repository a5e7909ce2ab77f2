//! Regenerates Table 5: resolution of control-flow uncertainties by
//! LBRLOG — the useful-branch ratio of every application's logging sites,
//! computed by the static backward path analysis of §7.1.1. Also writes
//! `results/BENCH_table5.json` with the per-benchmark ratios.

use stm_bench::{HarnessFlags, MetricsEmitter, TelemetryCli};
use stm_core::analysis::useful_branch_ratio;
use stm_telemetry::json::Json;

/// Paper values for the 13 LBR applications.
const PAPER: &[(&str, f64)] = &[
    ("apache1", 0.86),
    ("apache2", 0.86),
    ("apache3", 0.86),
    ("cp", 0.77),
    ("cppcheck1", 0.98),
    ("cppcheck2", 0.98),
    ("cppcheck3", 0.98),
    ("lighttpd", 0.84),
    ("ln", 0.81),
    ("mv", 0.74),
    ("paste", 0.86),
    ("pbzip1", 0.81),
    ("pbzip2", 0.81),
    ("rm", 0.79),
    ("sort", 0.91),
    ("squid1", 0.88),
    ("squid2", 0.88),
    ("tac", 0.89),
    ("tar1", 0.84),
    ("tar2", 0.84),
];

const USAGE: &str = "usage: table5 [--telemetry] [--trace-out FILE] [--metrics-addr ADDR]";

fn main() {
    let (tele, args) = TelemetryCli::from_env();
    HarnessFlags::parse_or_exit(&args, USAGE, &[], &[]);
    let _metrics = tele.apply();
    let mut metrics = MetricsEmitter::new("table5");
    println!("Table 5: Resolution of control-flow uncertainties by LBRLOG");
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "Application", "#LogSites", "ratio(our)", "ratio(paper)"
    );
    let mut ours = Vec::new();
    for b in stm_suite::sequential() {
        let r = useful_branch_ratio(&b.program, 16);
        let paper = PAPER
            .iter()
            .find(|(id, _)| *id == b.info.id)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        println!(
            "{:<12} {:>10} {:>12.2} {:>12.2}",
            b.info.id, r.sites, r.average, paper
        );
        ours.push(r.average);
        metrics.checkpoint(
            b.info.id,
            vec![
                ("log_sites", Json::from(r.sites as u64)),
                ("useful_branch_ratio", Json::from(r.average)),
                ("paper_ratio", Json::from(paper)),
            ],
        );
    }
    let avg = ours.iter().sum::<f64>() / ours.len() as f64;
    println!("\naverage useful-branch ratio (our programs): {avg:.2}");
    println!("paper range: 0.74 - 0.98 across 6945 logging sites of 13 applications");
    match metrics.finish() {
        Ok(path) => println!("wrote {path}"),
        Err(e) => stm_telemetry::log::warn(
            "bench",
            "metrics.write_failed",
            vec![("error", e.to_string())],
        ),
    }
    if let Err(e) = tele.finish() {
        stm_telemetry::log::warn("bench", "trace.write_failed", vec![("error", e)]);
    }
}
