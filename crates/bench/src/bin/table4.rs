//! Regenerates Table 4: features of the real-world failures evaluated.
//!
//! Paper columns (KLOC, log points) describe the original applications;
//! the "model" columns describe our IR reproductions. Also writes
//! `results/BENCH_table4.json` with the per-benchmark model sizes (the
//! same document `bench_gate table4` writes and gates).

use stm_bench::{HarnessFlags, MetricsEmitter, TelemetryCli};

const USAGE: &str = "usage: table4 [--telemetry] [--trace-out FILE] [--metrics-addr ADDR]";

fn main() {
    let (tele, args) = TelemetryCli::from_env();
    HarnessFlags::parse_or_exit(&args, USAGE, &[], &[]);
    let _metrics = tele.apply();
    let mut metrics = MetricsEmitter::new("table4");
    stm_bench::table4(&mut metrics);
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
