//! The CBI statistical-debugging scoring model (Liblit et al., PLDI'05)
//! and the one collection loop shared by the CBI, CCI and PBI baselines.
//!
//! Each run reports, for every predicate `P`, whether `P` was *observed*
//! (its site was sampled at least once) and whether it was *true* at least
//! once. The score of `P` combines:
//!
//! * `Failure(P)   = F(P) / (F(P) + S(P))` — crash probability when `P` is
//!   true;
//! * `Context(P)   = F(P obs) / (F(P obs) + S(P obs))` — crash probability
//!   when `P` is merely observed;
//! * `Increase(P)  = Failure(P) − Context(P)` — the predicate's own
//!   predictive contribution (≤ 0 ⇒ discarded);
//! * `Importance(P)` — harmonic mean of `Increase(P)` and a normalized
//!   log-recall term `log(F(P)) / log(NumF)`.

use std::collections::BTreeMap;
use stm_core::diagnose::Quotas;
use stm_core::runner::{classify, FailureSpec, RunClass, Workload};
use stm_machine::events::Hardware;
use stm_machine::interp::{Machine, RunConfig};
use stm_machine::sched::SchedPolicy;

/// Per-predicate observation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    observed_f: usize,
    observed_s: usize,
    true_f: usize,
    true_s: usize,
}

/// A scored predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPredicate<P> {
    /// The predicate.
    pub predicate: P,
    /// The ranking key.
    pub importance: f64,
    /// `Failure(P) − Context(P)`.
    pub increase: f64,
    /// `Failure(P)`.
    pub failure_ratio: f64,
    /// `Context(P)`.
    pub context: f64,
    /// Failing runs where the predicate was true.
    pub true_in_failures: usize,
    /// Successful runs where the predicate was true.
    pub true_in_successes: usize,
}

/// Accumulates per-run predicate reports and ranks by Importance.
#[derive(Debug, Clone)]
pub(crate) struct CbiModel<P> {
    predicates: BTreeMap<P, Counts>,
    failing_runs: usize,
    successful_runs: usize,
}

impl<P: Ord + Clone> CbiModel<P> {
    /// Creates an empty model.
    pub fn new() -> Self {
        CbiModel {
            predicates: BTreeMap::new(),
            failing_runs: 0,
            successful_runs: 0,
        }
    }

    /// Adds one run's report: for each predicate observed in the run,
    /// whether it was true at least once.
    pub fn add_run(&mut self, is_failure: bool, observations: BTreeMap<P, bool>) {
        if is_failure {
            self.failing_runs += 1;
        } else {
            self.successful_runs += 1;
        }
        for (p, was_true) in observations {
            let c = self.predicates.entry(p).or_default();
            if is_failure {
                c.observed_f += 1;
                if was_true {
                    c.true_f += 1;
                }
            } else {
                c.observed_s += 1;
                if was_true {
                    c.true_s += 1;
                }
            }
        }
    }

    /// Number of failing runs reported.
    pub fn failing_runs(&self) -> usize {
        self.failing_runs
    }

    /// Number of successful runs reported.
    pub fn successful_runs(&self) -> usize {
        self.successful_runs
    }

    /// Ranks predicates with positive `Increase`, best first. Predicates
    /// that never survived sampling in a failing run are unrankable and
    /// absent — the sampling-miss failure mode of the CBI approach.
    pub fn rank(&self) -> Vec<ScoredPredicate<P>> {
        let num_f = self.failing_runs.max(1) as f64;
        let mut out: Vec<ScoredPredicate<P>> = self
            .predicates
            .iter()
            .filter_map(|(p, c)| {
                if c.true_f == 0 {
                    return None;
                }
                let failure = c.true_f as f64 / (c.true_f + c.true_s).max(1) as f64;
                let context = c.observed_f as f64 / (c.observed_f + c.observed_s).max(1) as f64;
                let increase = failure - context;
                if increase <= 0.0 {
                    return None;
                }
                // Liblit'05 keeps a predicate only when Increase is
                // statistically significant: under sparse sampling the
                // per-run truth of an uninformative predicate fluctuates,
                // and without this test noise survives the filter.
                let var_f = failure * (1.0 - failure) / (c.true_f + c.true_s).max(1) as f64;
                let var_c = context * (1.0 - context) / (c.observed_f + c.observed_s).max(1) as f64;
                let se = (var_f + var_c).sqrt();
                if increase <= 1.96 * se {
                    return None;
                }
                let log_recall = if num_f <= 1.0 {
                    1.0
                } else {
                    (c.true_f as f64).max(1.0).ln() / num_f.ln()
                };
                let importance = if increase + log_recall > 0.0 {
                    2.0 * increase * log_recall / (increase + log_recall)
                } else {
                    0.0
                };
                Some(ScoredPredicate {
                    predicate: p.clone(),
                    importance,
                    increase,
                    failure_ratio: failure,
                    context,
                    true_in_failures: c.true_f,
                    true_in_successes: c.true_s,
                })
            })
            .collect();
        out.sort_by(|a, b| {
            b.importance
                .total_cmp(&a.importance)
                .then_with(|| a.predicate.cmp(&b.predicate))
        });
        out
    }
}

/// The result of a CBI, CCI or PBI diagnosis.
#[derive(Debug, Clone)]
pub struct Diagnosis<P> {
    /// Ranked predicates, best first (only those with positive Increase).
    pub ranked: Vec<ScoredPredicate<P>>,
    /// Failing runs consumed.
    pub failing_runs: usize,
    /// Successful runs consumed.
    pub successful_runs: usize,
}

impl<P> Diagnosis<P> {
    /// The best predicate.
    pub fn top(&self) -> Option<&ScoredPredicate<P>> {
        self.ranked.first()
    }

    /// 1-based rank of the first predicate satisfying `pred`.
    pub fn rank_of(&self, mut pred: impl FnMut(&P) -> bool) -> Option<usize> {
        self.ranked
            .iter()
            .position(|r| pred(&r.predicate))
            .map(|i| i + 1)
    }
}

/// The collection loop of every baseline: a failing phase, then a passing
/// phase. Each phase cycles its workload list ([`Workload::lap`]) for at
/// most `quotas.max_runs` attempts and keeps runs of its class until the
/// quota is met. `run` executes one attempt, given the workload and the
/// attempt's 0-based index within its phase, and returns the run's class
/// with its `(predicate, held)` sightings; a kept run's sightings are
/// OR-ed into one report per predicate and scored by [`CbiModel`].
pub(crate) fn collect<P, S>(
    failing: &[Workload],
    passing: &[Workload],
    quotas: &Quotas,
    mut run: impl FnMut(&Workload, u64) -> (RunClass, S),
) -> Diagnosis<P>
where
    P: Ord + Clone,
    S: IntoIterator<Item = (P, bool)>,
{
    let mut model = CbiModel::new();
    let phases = [
        (failing, RunClass::TargetFailure, quotas.failure_profiles),
        (passing, RunClass::Success, quotas.success_profiles),
    ];
    for (workloads, want, quota) in phases {
        let mut kept = 0;
        let attempts = workloads.iter().cycle().take(quotas.max_runs);
        for (index, base) in attempts.enumerate() {
            if kept == quota {
                break;
            }
            let lap = (index / workloads.len()) as u64;
            let (class, sightings) = run(&base.lap(lap), index as u64);
            if class != want {
                continue;
            }
            let mut report = BTreeMap::new();
            for (p, held) in sightings {
                *report.entry(p).or_insert(false) |= held;
            }
            model.add_run(want == RunClass::TargetFailure, report);
            kept += 1;
        }
    }
    Diagnosis {
        ranked: model.rank(),
        failing_runs: model.failing_runs(),
        successful_runs: model.successful_runs(),
    }
}

/// Runs `w` once on the uninstrumented `machine` with `hw` attached,
/// under the workload's random schedule, and classifies the run — the run
/// step of the baselines that need no instrumentation (CCI and PBI).
pub(crate) fn run_uninstrumented(
    machine: &Machine,
    w: &Workload,
    spec: &FailureSpec,
    hw: &mut impl Hardware,
) -> RunClass {
    let config = RunConfig {
        scheduler: SchedPolicy::Random { seed: w.seed },
        ..RunConfig::default()
    };
    let report = machine.run(&w.inputs, &config, hw);
    classify(machine.program(), &report, w, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(items: &[(&str, bool)]) -> BTreeMap<String, bool> {
        items.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn deterministic_predictor_gets_top_importance() {
        let mut m = CbiModel::new();
        for _ in 0..100 {
            m.add_run(true, obs(&[("root", true), ("noise", true)]));
            m.add_run(false, obs(&[("root", false), ("noise", true)]));
        }
        let ranked = m.rank();
        assert_eq!(ranked[0].predicate, "root");
        assert!(ranked[0].increase > 0.4);
        // Noise predicts nothing: Increase = 0 → filtered out entirely.
        assert!(ranked.iter().all(|r| r.predicate != "noise"));
    }

    #[test]
    fn unsampled_predicate_is_unrankable() {
        // The root cause was never sampled in a failing run: CBI cannot
        // rank it — the diagnosis-latency problem of §7.2.
        let mut m = CbiModel::new();
        m.add_run(true, obs(&[("noise", true)]));
        m.add_run(false, obs(&[("root", true), ("noise", true)]));
        let ranked = m.rank();
        assert!(ranked.iter().all(|r| r.predicate != "root"));
    }

    #[test]
    fn increase_filters_universal_truths() {
        let mut m = CbiModel::new();
        for _ in 0..10 {
            m.add_run(true, obs(&[("always", true)]));
            m.add_run(false, obs(&[("always", true)]));
        }
        assert!(m.rank().is_empty());
    }

    #[test]
    fn partial_predictor_ranks_below_deterministic_one() {
        let mut m = CbiModel::new();
        for i in 0..100 {
            m.add_run(true, obs(&[("perfect", true), ("partial", i % 2 == 0)]));
            m.add_run(false, obs(&[("perfect", false), ("partial", false)]));
        }
        let ranked = m.rank();
        let pos = |name: &str| ranked.iter().position(|r| r.predicate == name);
        assert!(pos("perfect").unwrap() < pos("partial").unwrap());
    }

    #[test]
    fn run_counters_track() {
        let mut m: CbiModel<String> = CbiModel::new();
        m.add_run(true, BTreeMap::new());
        m.add_run(false, BTreeMap::new());
        m.add_run(false, BTreeMap::new());
        assert_eq!(m.failing_runs(), 1);
        assert_eq!(m.successful_runs(), 2);
    }
}
