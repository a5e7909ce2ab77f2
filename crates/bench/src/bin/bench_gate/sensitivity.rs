//! The `sensitivity` harness: diagnosis quality against degraded hardware
//! signals — the paper's §7 sensitivity analysis (4/8/16-entry LBR
//! capacities, row 1 of PAPER.md's substitutions table), generalized with
//! the fault-injection layer (`stm_hardware::perturb`).
//!
//! Grid: effective ring size (truncation at read time to 16/8/4/1
//! records) × random per-record drop rate (0%/25%/50%/100%) on sort
//! (LBRA, rank of the root-cause branch) and apache4 (LCRA Conf2, rank of
//! the failure-predicting event).
//!
//! Witness workloads are expanded **once** per benchmark at full signal
//! and reused across every grid cell: perturbations degrade only the
//! snapshots the driver reads back, never execution or classification, so
//! the sweep isolates signal degradation from workload luck.
//!
//! Every metric is a 1-based rank (lower is better) and `null` means the
//! root cause was not ranked at all (total signal loss). The simulation
//! is fully seeded, so these ranks are machine-independent, and any
//! change to one — a rank moving either way, appearing or disappearing —
//! fails the gate.

use stm_bench::{json_rank, mark, MetricsEmitter};
use stm_core::diagnose::Diagnosis;
use stm_core::engine::ProfileKind;
use stm_core::ranking::RankingModel;
use stm_hardware::{HwConfig, PerturbConfig};
use stm_suite::eval::default_threads;

use crate::{deploy, Outcome, SUBJECTS};

/// Effective ring sizes swept (records kept per snapshot, newest first).
/// 16 = the full Nehalem-sized signal; 8 ≈ Pentium M; 4 ≈ Pentium 4; 1 =
/// a single surviving record.
const RING_SIZES: [usize; 4] = [16, 8, 4, 1];

/// Per-record drop rates swept, in percent.
const DROP_PCTS: [u32; 4] = [0, 25, 50, 100];

/// The grid cell's hardware: default geometry, snapshots truncated to
/// `ring` records and thinned by `drop_pct` at read time.
fn perturbed_hw(lbr: bool, ring: usize, drop_pct: u32) -> HwConfig {
    let base = PerturbConfig::NONE.drop_rate(drop_pct as f64 / 100.0);
    let perturb = if lbr {
        base.truncate_lbr(ring)
    } else {
        base.truncate_lcr(ring)
    };
    HwConfig {
        perturb,
        ..HwConfig::default()
    }
}

/// Leaks a formatted metric name; checkpoint extras want `&'static str`
/// and the grid is small and swept once per process.
fn metric_name(ring: usize, drop_pct: u32) -> &'static str {
    Box::leak(format!("rank_r{ring}_d{drop_pct}").into_boxed_str())
}

pub fn run(metrics: &mut MetricsEmitter) -> Outcome {
    println!("Diagnosis rank under degraded signals (lower is better, - = lost)");
    println!(
        "{:<10} {:<6} {:>8} {:>8} {:>8} {:>8}",
        "bench", "ring", "d0", "d25", "d50", "d100"
    );

    for id in SUBJECTS {
        let d = deploy(id);
        let truth = &d.bench.truth;
        let rank_with = |hw: HwConfig| -> Option<usize> {
            let (diagnosis, _) = d
                .diagnose(hw, default_threads())
                .expect("witness-mode collection cannot fail");
            match diagnosis {
                Diagnosis::Lbr(r) => {
                    RankingModel::rank_of(&r.ranked, |p| truth.is_root_branch(&p.event))
                }
                Diagnosis::Lcr(r) => {
                    RankingModel::rank_of(&r.ranked, |p| truth.is_root_event(&p.event))
                }
            }
        };

        let full = rank_with(HwConfig::default());
        let mut extras = vec![("rank_full", json_rank(full))];
        for ring in RING_SIZES {
            let mut row = Vec::with_capacity(DROP_PCTS.len());
            for drop_pct in DROP_PCTS {
                let rank = rank_with(perturbed_hw(d.kind == ProfileKind::Lbr, ring, drop_pct));
                if ring == 16 && drop_pct == 0 {
                    // The full-signal grid corner must reproduce today's
                    // unperturbed diagnosis exactly.
                    assert_eq!(
                        rank, full,
                        "{id}: full-signal cell diverged from the unperturbed rank"
                    );
                }
                extras.push((metric_name(ring, drop_pct), json_rank(rank)));
                row.push(rank);
            }
            println!(
                "{:<10} {:<6} {:>8} {:>8} {:>8} {:>8}",
                id,
                ring,
                mark(row[0]),
                mark(row[1]),
                mark(row[2]),
                mark(row[3]),
            );
        }
        metrics.checkpoint(id, extras);
    }
    Outcome::default()
}
