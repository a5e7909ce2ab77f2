//! Evaluates causal-chain quality — does the reconstructed storyline
//! contain the ground-truth root cause, and how strong is its weakest
//! evidence — and writes `results/BENCH_chain.json` plus one
//! `results/CHAIN_<id>.json` artifact per benchmark.
//!
//! For one sequential benchmark (sort, LBRA) and one concurrency
//! benchmark (apache4, LCRA Conf2) the harness collects the same
//! witness sets at `threads(1)` and at a fixed `threads(8)`, rebuilds
//! the [`CausalChain`] from each collection, and gates:
//!
//! * `chain_root_cause_link_rank` — 1-based link rank of the
//!   ground-truth root-cause event in the chain (lower is better; a
//!   chain that loses the root cause loses the metric and fails CI).
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
use stm_core::diagnose::failure_profile;
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_core::profile::{decode_lbr, decode_lcr};
use stm_core::runner::Runner;
use stm_forensics::{CausalChain, ChainLink};
use stm_machine::report::ProfileData;
use stm_suite::eval::{expand_workloads, lbra_runner, lcra_runner};
use stm_suite::Benchmark;
use stm_telemetry::json::Json;

fn main() {
    let mut metrics = MetricsEmitter::new("chain");
    println!("Causal-chain quality (root-cause link rank; lower is better)");
    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>12} {:>14}",
        "bench", "kind", "root@link", "links", "min_support", "thread_match"
    );

    let mut failed = false;
    for (id, lbr) in [("sort", true), ("apache4", false)] {
        let b = stm_suite::by_id(id).expect("benchmark exists");
        let runner = if lbr {
            lbra_runner(&b)
        } else {
            lcra_runner(&b)
        };
        let (failing, passing) = expand_workloads(&b, &runner);
        let collect = |threads: usize| -> CollectedProfiles {
            DiagnosisSession::from_runner(&runner)
                .failure(b.truth.spec.clone())
                .failing(failing.clone())
                .passing(passing.clone())
                .profile_kind(if lbr {
                    ProfileKind::Lbr
                } else {
                    ProfileKind::Lcr
                })
                .threads(threads)
                .collect()
                .expect("collection succeeds")
        };

        let serial = chain_for(&b, &runner, &collect(1), lbr);
        stm_telemetry::set_enabled(false);
        let parallel = chain_for(&b, &runner, &collect(8), lbr);
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
            failed = true;
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
        let root_rank = chain.link_rank_of(|l| is_root_cause(&b, lbr, l));
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
            failed = true;
        }
        if thread_mismatch != 0 {
            eprintln!("{id}: chain differs between threads(1) and threads(8)");
            failed = true;
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
        let path = format!("results/CHAIN_{id}.json");
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, artifact.encode() + "\n"))
        {
            Ok(()) => println!("wrote {path}"),
            Err(e) => stm_telemetry::log::warn(
                "bench",
                "artifact.write_failed",
                vec![("path", path), ("error", e.to_string())],
            ),
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
    if failed {
        std::process::exit(1);
    }
}

/// Reconstructs the benchmark's chain from one collection — the same
/// post-site-guard-exclusion ranking and decoded failure traces the
/// `diagnose_report` artifact uses.
fn chain_for(
    b: &Benchmark,
    runner: &Runner,
    profiles: &CollectedProfiles,
    lbr: bool,
) -> Option<CausalChain> {
    let program = runner.machine().program();
    let layout = runner.machine().layout();
    if lbr {
        let mut d = profiles.lbra();
        d.exclude_site_guards(program, &b.truth.spec);
        let traces: Vec<_> = profiles
            .failure_runs()
            .iter()
            .filter_map(|run| {
                let p = failure_profile(&run.report, &b.truth.spec)?;
                match &p.data {
                    ProfileData::Lbr(records) => {
                        Some((run.witness.clone(), decode_lbr(layout, records)))
                    }
                    ProfileData::Lcr(_) => None,
                }
            })
            .collect();
        CausalChain::from_lbra(
            Some(program),
            &d.ranked,
            &traces,
            d.stats.failure_runs_used,
            d.stats.success_runs_used,
        )
    } else {
        let d = profiles.lcra();
        let traces: Vec<_> = profiles
            .failure_runs()
            .iter()
            .filter_map(|run| {
                let p = failure_profile(&run.report, &b.truth.spec)?;
                match &p.data {
                    ProfileData::Lcr(records) => {
                        Some((run.witness.clone(), decode_lcr(layout, records)))
                    }
                    ProfileData::Lbr(_) => None,
                }
            })
            .collect();
        CausalChain::from_lcra(
            Some(program),
            &d.ranked,
            &traces,
            d.stats.failure_runs_used,
            d.stats.success_runs_used,
        )
    }
}

/// Whether a link's canonical event form names the benchmark's
/// ground-truth root cause.
fn is_root_cause(b: &Benchmark, lbr: bool, l: &ChainLink) -> bool {
    if lbr {
        let Some(target) = b.truth.target_branch() else {
            return false;
        };
        l.event.starts_with(&format!("{target}="))
    } else {
        let Some(fpe) = b.truth.fpe else { return false };
        let Some(state) = fpe.conf2_state else {
            return false;
        };
        l.event.ends_with(&format!("@{}:{state}", fpe.loc))
    }
}
