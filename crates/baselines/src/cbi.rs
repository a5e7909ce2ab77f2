//! The CBI baseline: Cooperative Bug Isolation with branch predicates and
//! 1/100 random sampling (Liblit et al., PLDI'03/'05) — the system the
//! paper compares LBRA against in Table 6 and §7.2.
//!
//! CBI instruments every source conditional with a sampled probe. A run's
//! report says, per branch, whether the probe fired at all and which
//! outcomes it saw; the shared scoring model ranks `(branch, outcome)`
//! predicates by Importance. Because the probes are sampled at 1/100, a predicate must
//! fire in many failing runs to become rankable — hence CBI's ~1000-run
//! diagnosis latency, versus LBRA's 10.

use crate::scoring::{collect, Diagnosis};
use stm_core::diagnose::Quotas;
use stm_core::runner::{FailureSpec, Runner, Workload};
use stm_machine::ids::{BranchId, SampleId};
use stm_machine::ir::{Instr, Program, Stmt, Terminator};

/// A CBI branch predicate: "branch `branch` evaluated `taken`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchPredicate {
    /// The source branch.
    pub branch: BranchId,
    /// The outcome the predicate asserts.
    pub taken: bool,
}

/// Instruments every conditional branch of the application code with a
/// sampled probe (the CBI compiler pass). The probe id equals the branch
/// id, so reports decode trivially.
pub fn instrument_cbi(program: &Program) -> Program {
    let mut p = program.clone();
    for func in &mut p.functions {
        if func.is_library {
            continue;
        }
        for block in &mut func.blocks {
            if let Terminator::Br { cond, .. } = block.term {
                let branch = block
                    .branch
                    .expect("program must be finalized before CBI instrumentation");
                block.stmts.push(Stmt {
                    instr: Instr::Sample {
                        id: SampleId::new(branch.raw()),
                        value: cond,
                    },
                    loc: block.term_loc,
                });
            }
        }
    }
    p.finalize();
    debug_assert!(p.validate().is_ok());
    p
}

/// Runs CBI: executes failing and passing workloads under sampling and
/// ranks branch predicates.
///
/// `runner` must wrap a program instrumented with [`instrument_cbi`]; its
/// `RunConfig::sample_mean` sets the sampling rate (100 ⇒ 1/100). Each
/// sampled probe is one sighting of both outcome predicates of its
/// branch, holding for the outcome it saw.
pub fn cbi(
    runner: &Runner,
    failing: &[Workload],
    passing: &[Workload],
    spec: &FailureSpec,
    quotas: &Quotas,
) -> Diagnosis<BranchPredicate> {
    collect(failing, passing, quotas, |w, index| {
        // Vary the sampling stream run to run, as wall-clock skew does in
        // a real deployment.
        let (report, class) = runner.run_classified_with_sample_seed(w, spec, index + 1);
        let sightings = report.samples.into_iter().flat_map(|s| {
            let branch = BranchId::new(s.id.raw());
            [true, false].map(|taken| (BranchPredicate { branch, taken }, (s.value != 0) == taken))
        });
        (class, sightings)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ids::LogSiteId;
    use stm_machine::interp::{Machine, RunConfig};
    use stm_machine::ir::BinOp;

    fn guarded_program() -> (Program, LogSiteId, BranchId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
            let x = f.read_input(0);
            let neg = f.bin(BinOp::Lt, x, 0);
            f.at(10);
            f.br(neg, err, ok);
            f.set_block(err);
            site = f.log_error("negative");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let root = p.branches[0].id;
        (p, site, root)
    }

    #[test]
    fn instrumentation_adds_one_probe_per_branch() {
        let (p, _, _) = guarded_program();
        let out = instrument_cbi(&p);
        let probes = out
            .functions
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.stmts)
            .filter(|s| matches!(s.instr, Instr::Sample { .. }))
            .count();
        assert_eq!(probes, p.branches.len());
    }

    #[test]
    fn cbi_finds_root_with_enough_runs_and_dense_sampling() {
        let (p, site, root) = guarded_program();
        let machine = Machine::new(instrument_cbi(&p));
        // sample_mean 1 = always-on probes: isolates the statistics from
        // the sampling-miss effect (tested separately below).
        let runner = Runner::new(machine).with_run_config(RunConfig {
            sample_mean: 1,
            ..RunConfig::default()
        });
        let failing: Vec<Workload> = (0..4).map(|i| Workload::new(vec![-1 - i])).collect();
        let passing: Vec<Workload> = (0..4).map(|i| Workload::new(vec![1 + i])).collect();
        let cfg = Quotas {
            failure_profiles: 40,
            success_profiles: 40,
            max_runs: 200,
        };
        let d = cbi(
            &runner,
            &failing,
            &passing,
            &FailureSpec::ErrorLogAt(site),
            &cfg,
        );
        assert_eq!(d.failing_runs, 40);
        let top = d.top().expect("a ranked predicate");
        assert_eq!(top.predicate.branch, root);
        assert!(top.predicate.taken);
    }

    #[test]
    fn sparse_sampling_misses_rare_predicates_with_few_runs() {
        let (p, site, root) = guarded_program();
        let machine = Machine::new(instrument_cbi(&p));
        // 1/100 sampling and the branch executes once per run: with only a
        // handful of runs the probe almost surely never fires.
        let runner = Runner::new(machine).with_run_config(RunConfig {
            sample_mean: 100,
            ..RunConfig::default()
        });
        let failing = vec![Workload::new(vec![-5])];
        let passing = vec![Workload::new(vec![5])];
        let cfg = Quotas {
            failure_profiles: 5,
            success_profiles: 5,
            max_runs: 50,
        };
        let d = cbi(
            &runner,
            &failing,
            &passing,
            &FailureSpec::ErrorLogAt(site),
            &cfg,
        );
        assert_eq!(d.rank_of(|p| p.branch == root), None, "{:?}", d.ranked);
    }

    #[test]
    fn pinned_result_at_one_in_three_sampling() {
        // Exact pin of the collection loop: the per-run sample seed
        // (index + 1, restarting per phase) decides which probes fire, so
        // any change to it moves the importance bits.
        let (p, site, root) = guarded_program();
        let runner = Runner::new(Machine::new(instrument_cbi(&p))).with_run_config(RunConfig {
            sample_mean: 3,
            ..RunConfig::default()
        });
        let failing: Vec<Workload> = (0..3).map(|i| Workload::new(vec![-1 - i])).collect();
        let passing: Vec<Workload> = (0..3).map(|i| Workload::new(vec![1 + i])).collect();
        let cfg = Quotas {
            failure_profiles: 12,
            success_profiles: 12,
            max_runs: 100,
        };
        let d = cbi(
            &runner,
            &failing,
            &passing,
            &FailureSpec::ErrorLogAt(site),
            &cfg,
        );
        assert_eq!(
            (d.failing_runs, d.successful_runs, d.ranked.len()),
            (12, 12, 1)
        );
        let top = d.top().expect("a ranked predicate");
        let want = BranchPredicate {
            branch: root,
            taken: true,
        };
        assert_eq!(top.predicate, want);
        assert_eq!(top.importance.to_bits(), 0x3fd6_eb2e_fbd2_c1ac);
    }
}
