//! The CCI baseline: Cooperative Concurrency-bug Isolation (Jin et al.,
//! OOPSLA'10), using software-sampled *communication* predicates.
//!
//! CCI-Prev asks, at every memory access: "was the previous access to this
//! location performed by a different thread?" — evaluated under sampling
//! because the bookkeeping is expensive (the original system costs up to
//! ~10× at full rate, §5.3/§7.3). We model the bookkeeping with a
//! [`Hardware`]-side tracker so the predicate stream is exact, and apply
//! the sampling at collection time.

use crate::scoring::{collect, run_uninstrumented, Diagnosis};
use std::collections::HashMap;
use stm_core::diagnose::Quotas;
use stm_core::runner::{FailureSpec, Workload};
use stm_machine::events::{AccessEvent, BranchEvent, CtlResponse, Hardware, HwCtlOp};
use stm_machine::ids::{CoreId, ThreadId};
use stm_machine::interp::Machine;
use stm_machine::ir::SourceLoc;
use stm_machine::rng::SplitMix64;

/// A CCI-Prev predicate: "at `loc`, the previous access to the same
/// location was by a different thread" (`remote = true`) or by the same
/// thread (`remote = false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrevPredicate {
    /// Source location of the access.
    pub loc: SourceLoc,
    /// Whether the previous access came from another thread.
    pub remote: bool,
}

/// The CCI bookkeeping: last accessor per address, with sampled predicate
/// collection.
#[derive(Debug)]
struct CciTracker {
    last_accessor: HashMap<u64, ThreadId>,
    rng: SplitMix64,
    rate: u32,
    samples: Vec<(u64, bool)>, // (pc, remote)
}

impl CciTracker {
    fn new(rate: u32, seed: u64) -> Self {
        CciTracker {
            last_accessor: HashMap::new(),
            rng: SplitMix64::new(seed),
            rate: rate.max(1),
            samples: Vec::new(),
        }
    }
}

impl Hardware for CciTracker {
    fn on_branch(&mut self, _core: CoreId, _ev: BranchEvent) {}

    fn on_access(&mut self, _core: CoreId, thread: ThreadId, ev: AccessEvent) {
        let prev = self.last_accessor.insert(ev.addr, thread);
        if self.rng.next_below(self.rate as u64) == 0 {
            if let Some(prev) = prev {
                self.samples.push((ev.pc, prev != thread));
            }
        }
    }

    fn ctl(&mut self, _core: CoreId, _thread: ThreadId, _op: HwCtlOp) -> CtlResponse {
        CtlResponse::Done
    }
}

/// Runs CCI on an uninstrumented machine, sampling one access in
/// `sampling_rate` (100 ⇒ 1/100). Each sampled access is one sighting of
/// both predicates at its location, holding for the side it saw.
pub fn cci(
    machine: &Machine,
    failing: &[Workload],
    passing: &[Workload],
    spec: &FailureSpec,
    quotas: &Quotas,
    sampling_rate: u32,
) -> Diagnosis<PrevPredicate> {
    let layout = machine.layout();
    collect(failing, passing, quotas, |w, index| {
        let mut hw = CciTracker::new(sampling_rate, 0xCC1 + index);
        let class = run_uninstrumented(machine, w, spec, &mut hw);
        let sightings = hw.samples.into_iter().flat_map(|(pc, remote)| {
            let loc = layout
                .decode_stmt(pc)
                .map(|s| s.loc)
                .unwrap_or(SourceLoc::UNKNOWN);
            [true, false].map(|value| (PrevPredicate { loc, remote: value }, remote == value))
        });
        (class, sightings)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    /// Same racy check-after-init pattern as the PBI test: in failing
    /// interleavings, the check read communicates with the killer thread.
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
            f.store(table as i64, 0, 777);
            let t = f.spawn(killer, &[]);
            f.yield_now();
            f.at(10);
            let v = f.load(table as i64, 0);
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
    fn cci_dense_sampling_finds_remote_communication() {
        let (machine, site, check_loc) = racy_machine();
        let spec = FailureSpec::ErrorLogAt(site);
        let workloads: Vec<Workload> = (0..50)
            .map(|s| Workload::new(vec![]).with_seed(s))
            .collect();
        let cfg = Quotas {
            failure_profiles: 30,
            success_profiles: 30,
            max_runs: 3000,
        };
        let d = cci(&machine, &workloads, &workloads, &spec, &cfg, 1);
        assert!(d.failing_runs > 0);
        let rank = d
            .rank_of(|p| p.loc == check_loc && p.remote)
            .expect("predicate ranked");
        assert!(
            rank <= 2,
            "rank {rank}: {:?}",
            &d.ranked[..d.ranked.len().min(4)]
        );
    }

    #[test]
    fn cci_sparse_sampling_misses_with_few_runs() {
        let (machine, site, check_loc) = racy_machine();
        let spec = FailureSpec::ErrorLogAt(site);
        let workloads: Vec<Workload> = (0..20)
            .map(|s| Workload::new(vec![]).with_seed(s))
            .collect();
        let cfg = Quotas {
            failure_profiles: 4,
            success_profiles: 4,
            max_runs: 400,
        };
        let d = cci(&machine, &workloads, &workloads, &spec, &cfg, 10_000);
        assert_eq!(d.rank_of(|p| p.loc == check_loc && p.remote), None);
    }

    #[test]
    fn pinned_result_at_one_in_two_sampling() {
        // Exact pin of the collection loop: the tracker seed (0xCC1 +
        // run index, restarting per phase) picks the sampled accesses.
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
        let d = cci(&machine, &workloads, &workloads, &spec, &cfg, 2);
        assert_eq!(
            (d.failing_runs, d.successful_runs, d.ranked.len()),
            (10, 10, 1)
        );
        let top = d.top().expect("a ranked predicate");
        let want = PrevPredicate {
            loc: check_loc,
            remote: true,
        };
        assert_eq!(top.predicate, want);
        assert_eq!(top.importance.to_bits(), 0x3fe0_e88d_fb63_39c0);
    }
}
