//! The PBI baseline: production-run bug isolation via hardware
//! performance-counter sampling of cache-coherence events (Arulraj et al.,
//! ASPLOS'13) — the concurrency-bug comparison point of §7.3.
//!
//! PBI needs **no program instrumentation**: the hardware sampler latches
//! the `(pc, observed MESI state)` of every N-th coherence event; per run,
//! PBI reports which `(location, state)` predicates were observed/true and
//! scores them with the CBI model. Like CBI, its diagnosis latency is set
//! by the sampling rate: rare one-shot predicates need hundreds to
//! thousands of failing runs.

use crate::scoring::{collect, run_uninstrumented, Diagnosis};
use stm_core::diagnose::Quotas;
use stm_core::runner::{FailureSpec, Workload};
use stm_hardware::{HardwareCtx, HwConfig};
use stm_machine::events::{AccessKind, CoherenceState};
use stm_machine::interp::Machine;
use stm_machine::ir::SourceLoc;

/// A PBI predicate: "the access at `loc` observed `state`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoherencePredicate {
    /// Source location of the access instruction.
    pub loc: SourceLoc,
    /// Load or store.
    pub access: AccessKind,
    /// The observed MESI state the predicate asserts.
    pub state: CoherenceState,
}

/// Runs PBI on an **uninstrumented** machine, latching every
/// `sampling_period`-th coherence event. Each latched event is one
/// sighting of all four MESI-state predicates of its access, holding for
/// the state it observed.
pub fn pbi(
    machine: &Machine,
    failing: &[Workload],
    passing: &[Workload],
    spec: &FailureSpec,
    quotas: &Quotas,
    sampling_period: u64,
) -> Diagnosis<CoherencePredicate> {
    let layout = machine.layout();
    collect(failing, passing, quotas, |w, index| {
        let mut hw = HardwareCtx::new(HwConfig {
            sampler_period: Some(sampling_period),
            ..HwConfig::default()
        });
        // Vary the interrupt phase run to run, as timing skew does on
        // real machines.
        if let Some(s) = hw.sampler_mut() {
            s.set_countdown(index % sampling_period + 1);
        }
        let class = run_uninstrumented(machine, w, spec, &mut hw);
        let sightings = hw.take_coherence_samples().into_iter().flat_map(|rec| {
            let loc = layout
                .decode_stmt(rec.pc)
                .map(|s| s.loc)
                .unwrap_or(SourceLoc::UNKNOWN);
            [
                CoherenceState::Invalid,
                CoherenceState::Shared,
                CoherenceState::Exclusive,
                CoherenceState::Modified,
            ]
            .map(|state| {
                let pred = CoherencePredicate {
                    loc,
                    access: rec.access,
                    state,
                };
                (pred, rec.state == state)
            })
        });
        (class, sightings)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    /// Thread 2 may null st->table between init and check (the WWR pattern
    /// of Fig. 4); input 0 high ⇒ more yields ⇒ more interleavings fail.
    fn racy_machine() -> (Machine, stm_machine::ids::LogSiteId, SourceLoc) {
        let mut pb = ProgramBuilder::new("racy");
        let table = pb.global("table", 1);
        let main = pb.declare_function("main");
        let killer = pb.declare_function("killer");
        {
            let mut f = pb.build_function(killer, "k.c");
            f.yield_now();
            f.store(table as i64, 0, 0);
            f.ret(None);
            f.finish();
        }
        let site;
        let check_loc: u32;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
            f.at(3);
            f.store(table as i64, 0, 777); // init
            let t = f.spawn(killer, &[]);
            f.yield_now();
            f.at(10);
            let v = f.load(table as i64, 0); // the racy check read
                                             // Resolved against the real file table below.
            check_loc = 10;
            let bad = f.bin(BinOp::Eq, v, 0);
            f.br(bad, err, ok);
            f.set_block(err);
            site = f.log_error("out of memory");
            f.join(t);
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.join(t);
            f.output(1);
            f.ret(None);
            f.finish();
        }
        let program = pb.finish(main);
        let file = program.function(main).file;
        let loc = SourceLoc::new(file, check_loc);
        (Machine::new(program), site, loc)
    }

    #[test]
    fn pbi_with_dense_sampling_finds_the_invalid_read() {
        let (machine, site, check_loc) = racy_machine();
        let spec = FailureSpec::ErrorLogAt(site);
        let failing: Vec<Workload> = (0..50)
            .map(|s| Workload::new(vec![]).with_seed(s))
            .collect();
        let passing = failing.clone();
        let cfg = Quotas {
            failure_profiles: 30,
            success_profiles: 30,
            max_runs: 3000,
        };
        let d = pbi(&machine, &failing, &passing, &spec, &cfg, 1); // dense: capability test, not latency test
        assert!(d.failing_runs > 0, "no failing interleaving found");
        let rank = d.rank_of(|p| p.loc == check_loc && p.state == CoherenceState::Invalid);
        assert_eq!(rank, Some(1), "{:?}", &d.ranked[..d.ranked.len().min(4)]);
    }

    #[test]
    fn pbi_with_sparse_sampling_needs_more_runs() {
        let (machine, site, check_loc) = racy_machine();
        let spec = FailureSpec::ErrorLogAt(site);
        let failing: Vec<Workload> = (0..20)
            .map(|s| Workload::new(vec![]).with_seed(s))
            .collect();
        let passing = failing.clone();
        let cfg = Quotas {
            failure_profiles: 5,
            success_profiles: 5,
            max_runs: 500,
        };
        let d = pbi(&machine, &failing, &passing, &spec, &cfg, 1000); // sparse: the racy read is almost never latched
        assert_eq!(
            d.rank_of(|p| p.loc == check_loc && p.state == CoherenceState::Invalid),
            None
        );
    }

    #[test]
    fn pinned_result_at_period_two() {
        // Exact pin of the collection loop: the sampler's initial
        // countdown (run index % period + 1, restarting per phase) sets
        // which coherence events get latched.
        let (machine, site, check_loc) = racy_machine();
        let spec = FailureSpec::ErrorLogAt(site);
        let workloads: Vec<Workload> = (0..20)
            .map(|s| Workload::new(vec![]).with_seed(s))
            .collect();
        let cfg = Quotas {
            failure_profiles: 10,
            success_profiles: 10,
            max_runs: 400,
        };
        let d = pbi(&machine, &workloads, &workloads, &spec, &cfg, 2);
        assert_eq!(
            (d.failing_runs, d.successful_runs, d.ranked.len()),
            (10, 10, 1)
        );
        let top = d.top().expect("a ranked predicate");
        let want = CoherencePredicate {
            loc: check_loc,
            access: AccessKind::Load,
            state: CoherenceState::Invalid,
        };
        assert_eq!(top.predicate, want);
        assert_eq!(top.importance.to_bits(), 0x3fe1_635b_04e3_506a);
    }
}
