//! Regenerates Table 6: LBRLOG/LBRA/CBI results and patch distances for
//! the 20 sequential-bug failures. Pass `--timed` to also measure the
//! overhead columns (slower), and `--cbi-runs N` to change the CBI run
//! budget (default 1000, the paper's setting). Also writes
//! `results/BENCH_table6.json` with per-benchmark ranks and run volumes.

use stm_bench::{
    cbi_rank, dist, json_rank, mark, measure_overheads, HarnessFlags, MetricsEmitter, TelemetryCli,
};
use stm_suite::eval::evaluate_sequential;
use stm_telemetry::json::Json;

const USAGE: &str =
    "usage: table6 [--timed] [--cbi-runs N] [--telemetry] [--trace-out FILE] [--metrics-addr ADDR]";

fn main() {
    let (tele, args) = TelemetryCli::from_env();
    let flags = HarnessFlags::parse_or_exit(&args, USAGE, &["--timed"], &["--cbi-runs"]);
    let _metrics = tele.apply();
    let timed = flags.switch("--timed");
    let cbi_runs = flags.count("--cbi-runs").unwrap_or(1000) as usize;

    let mut metrics = MetricsEmitter::new("table6");
    println!("Table 6: Results of LBRLOG and LBRA (paper values in parentheses)");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "App.", "LBRLOG w/tog", "LBRLOG w/o", "LBRA", "CBI", "dist(fail)", "dist(LBR)"
    );
    for b in stm_suite::sequential() {
        let row = evaluate_sequential(&b);
        let cbi = cbi_rank(&b, cbi_runs, cbi_runs);
        let p = &b.info.paper;
        println!(
            "{:<10} {:>7}{:>5} {:>7}{:>5} {:>5}{:>5} {:>5}{:>5} {:>6}{:>4} {:>5}{:>4}",
            row.id,
            mark(row.lbrlog_tog),
            format!(
                "({})",
                p.lbrlog_tog.map(|m| m.to_string()).unwrap_or_default()
            ),
            mark(row.lbrlog_no_tog),
            format!(
                "({})",
                p.lbrlog_no_tog.map(|m| m.to_string()).unwrap_or_default()
            ),
            mark(row.lbra),
            format!("({})", p.lbra.map(|m| m.to_string()).unwrap_or_default()),
            mark(cbi),
            format!(
                "({})",
                p.cbi.map(|m| m.to_string()).unwrap_or_else(|| "N/A".into())
            ),
            dist(row.dist_failure),
            format!(
                "({})",
                p.patch_dist_failure
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "inf".into())
            ),
            dist(row.dist_lbr),
            format!(
                "({})",
                p.patch_dist_lbr
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "inf".into())
            ),
        );
        metrics.checkpoint(
            b.info.id,
            vec![
                ("lbrlog_tog", json_rank(row.lbrlog_tog)),
                ("lbrlog_no_tog", json_rank(row.lbrlog_no_tog)),
                ("lbra", json_rank(row.lbra)),
                ("cbi", json_rank(cbi)),
                (
                    "dist_failure",
                    json_rank(row.dist_failure.map(|d| d as usize)),
                ),
                ("dist_lbr", json_rank(row.dist_lbr.map(|d| d as usize))),
            ],
        );
    }

    if timed {
        println!("\nOverheads (% over uninstrumented; paper: LBRLOG<3%, LBRA reactive<3%,");
        println!("LBRA proactive 2.1-6.3%, CBI avg 15.2%):");
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "App.", "LOG w/tog", "LOG w/o", "LBRA-re", "LBRA-pro", "CBI"
        );
        for b in stm_suite::sequential() {
            let o = measure_overheads(&b, 60);
            println!(
                "{:<10} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}% {:>10}",
                b.info.id,
                o.lbrlog_tog,
                o.lbrlog_no_tog,
                o.lbra_reactive,
                o.lbra_proactive,
                o.cbi
                    .map(|c| format!("{c:.2}%"))
                    .unwrap_or_else(|| "N/A".into()),
            );
            metrics.checkpoint(
                b.info.id,
                vec![
                    ("overhead_lbrlog_tog_pct", Json::from(o.lbrlog_tog)),
                    ("overhead_lbrlog_no_tog_pct", Json::from(o.lbrlog_no_tog)),
                    ("overhead_lbra_reactive_pct", Json::from(o.lbra_reactive)),
                    ("overhead_lbra_proactive_pct", Json::from(o.lbra_proactive)),
                    (
                        "overhead_cbi_pct",
                        o.cbi.map(Json::from).unwrap_or(Json::Null),
                    ),
                ],
            );
        }
    }
    match metrics.finish() {
        Ok(path) => println!("\nwrote {path}"),
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
