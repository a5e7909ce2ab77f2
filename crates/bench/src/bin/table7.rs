//! Regenerates Table 7: failure-diagnosis capability of LCR over the 11
//! concurrency-bug failures (LCRLOG under both configurations, LCRA under
//! the space-consuming Conf2). Also writes `results/BENCH_table7.json`
//! with per-benchmark ranks and run volumes.

use stm_bench::{json_rank, mark, HarnessFlags, MetricsEmitter, TelemetryCli};
use stm_suite::eval::evaluate_concurrency;

const USAGE: &str = "usage: table7 [--telemetry] [--trace-out FILE] [--metrics-addr ADDR]";

fn main() {
    let (tele, args) = TelemetryCli::from_env();
    HarnessFlags::parse_or_exit(&args, USAGE, &[], &[]);
    let _metrics = tele.apply();
    let mut metrics = MetricsEmitter::new("table7");
    println!("Table 7: Failure diagnosis capability of LCR (paper values in parentheses)");
    println!(
        "{:<12} {:>16} {:>16} {:>12}",
        "ID", "LCRLOG (Conf1)", "LCRLOG (Conf2)", "LCRA"
    );
    for b in stm_suite::concurrency() {
        let row = evaluate_concurrency(&b);
        let p = &b.info.paper;
        println!(
            "{:<12} {:>9}{:>7} {:>9}{:>7} {:>6}{:>6}",
            row.id,
            mark(row.lcrlog_conf1),
            format!(
                "({})",
                p.lcrlog_conf1.map(|m| m.to_string()).unwrap_or_default()
            ),
            mark(row.lcrlog_conf2),
            format!(
                "({})",
                p.lcrlog_conf2.map(|m| m.to_string()).unwrap_or_default()
            ),
            mark(row.lcra),
            format!("({})", p.lcra.map(|m| m.to_string()).unwrap_or_default()),
        );
        metrics.checkpoint(
            b.info.id,
            vec![
                ("lcrlog_conf1", json_rank(row.lcrlog_conf1)),
                ("lcrlog_conf2", json_rank(row.lcrlog_conf2)),
                ("lcra", json_rank(row.lcra)),
            ],
        );
    }
    println!("\nConf1 = space-saving (invalid loads/stores + shared loads);");
    println!("Conf2 = space-consuming (invalid loads/stores + exclusive loads); LCRA uses Conf2.");
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
