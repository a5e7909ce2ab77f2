//! The `chain` harness: causal-chain quality — does the reconstructed
//! storyline contain the ground-truth root cause, and how strong is its
//! weakest evidence — plus one `results/CHAIN_<id>.json` artifact per
//! benchmark.
//!
//! For sort (LBRA) and apache4 (LCRA Conf2) the harness collects the same
//! witness sets at `threads(1)` and at a fixed `threads(8)`, rebuilds
//! the [`CausalChain`] from each collection, and gates:
//!
//! * `chain_root_cause_link_rank` — 1-based link rank of the
//!   ground-truth root-cause event in the chain (lower is better; a
//!   chain that loses the root cause loses the metric and fails the
//!   gate).
//! * `chain_links` — storyline length; a ballooning chain is a noisier
//!   storyline (higher is worse).
//! * `min_link_support_floor` — the weakest link's support score
//!   (`_floor`: lower is worse — evidence quality must not erode).
//! * `thread_mismatch` — 0 when the `threads(1)` and `threads(8)`
//!   chains are byte-identical JSON, 1 otherwise (the determinism
//!   acceptance invariant).
//!
//! The `threads(8)` collection runs with telemetry switched off: its
//! speculative runs depend on scheduling, so only the `threads(1)`
//! collection feeds the gated `counters.*`.

use stm_bench::{json_rank, mark, MetricsEmitter};
use stm_core::engine::ProfileKind;
use stm_forensics::CausalChain;
use stm_hardware::HwConfig;
use stm_telemetry::json::Json;

use crate::{deploy, write_artifact, Outcome, SUBJECTS};

pub fn run(metrics: &mut MetricsEmitter) -> Outcome {
    println!("Causal-chain quality (root-cause link rank; lower is better)");
    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>12} {:>14}",
        "bench", "kind", "root@link", "links", "min_support", "thread_match"
    );

    let mut outcome = Outcome::default();
    for id in SUBJECTS {
        let d = deploy(id);
        let lbr = d.kind == ProfileKind::Lbr;
        let chain_at = |threads: usize| -> Option<CausalChain> {
            let (diagnosis, profiles) = d
                .diagnose(HwConfig::default(), threads)
                .expect("collection succeeds");
            CausalChain::from_profiles(&profiles, &diagnosis)
        };

        let serial = chain_at(1);
        stm_telemetry::set_enabled(false);
        let parallel = chain_at(8);
        stm_telemetry::set_enabled(true);
        let thread_mismatch = usize::from(
            serial.as_ref().map(|c| c.to_json().encode())
                != parallel.as_ref().map(|c| c.to_json().encode()),
        );

        let Some(chain) = serial else {
            println!(
                "{id:<10} {:>6} {:>10} {:>8} {:>12} {:>14}",
                "-", "-", 0, "-", "-"
            );
            eprintln!("{id}: no chain reconstructed");
            outcome.failed = true;
            metrics.checkpoint(
                id,
                vec![
                    ("chain_links", Json::from(0usize)),
                    ("chain_root_cause_link_rank", Json::Null),
                    ("min_link_support_floor", Json::Null),
                    ("thread_mismatch", Json::from(thread_mismatch)),
                ],
            );
            continue;
        };
        let root_rank = chain.link_rank_of(|l| d.bench.truth.is_root_display(&l.event));
        let min_support = chain.min_link_support();

        println!(
            "{:<10} {:>6} {:>10} {:>8} {:>12.3} {:>14}",
            id,
            chain.kind.as_str(),
            mark(root_rank),
            chain.links.len(),
            min_support,
            if thread_mismatch == 0 { "yes" } else { "NO" },
        );
        if root_rank.is_none() {
            eprintln!("{id}: chain does not contain the ground-truth root cause");
            outcome.failed = true;
        }
        if thread_mismatch != 0 {
            eprintln!("{id}: chain differs between threads(1) and threads(8)");
            outcome.failed = true;
        }

        metrics.checkpoint(
            id,
            vec![
                ("chain_links", Json::from(chain.links.len())),
                ("chain_root_cause_link_rank", json_rank(root_rank)),
                ("min_link_support_floor", Json::from(min_support)),
                ("thread_mismatch", Json::from(thread_mismatch)),
            ],
        );

        let artifact = Json::obj([
            ("benchmark", Json::from(id)),
            ("mode", Json::from(if lbr { "lbra" } else { "lcra" })),
            ("root_cause_link_rank", json_rank(root_rank)),
            ("thread_mismatch", Json::from(thread_mismatch)),
            ("chain", chain.to_json()),
        ]);
        write_artifact(format!("results/CHAIN_{id}.json"), &artifact);
    }
    outcome
}
