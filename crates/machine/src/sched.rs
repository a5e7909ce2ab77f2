//! Thread scheduling policies.
//!
//! The interpreter asks the scheduler for the next thread to run before
//! every step, so interleavings are fine-grained. [`SchedPolicy::Random`]
//! with different seeds explores different interleavings — this is how the
//! concurrency-bug benchmarks find failing and passing schedules — while
//! staying fully deterministic for a fixed seed.

use crate::ids::ThreadId;
use crate::rng::SplitMix64;

/// A scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Pick a uniformly random runnable thread each step, seeded.
    Random {
        /// PRNG seed; same seed ⇒ same interleaving.
        seed: u64,
    },
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy::Random { seed: 0 }
    }
}

/// The runtime state of a scheduling policy.
#[derive(Debug, Clone)]
pub struct Scheduler {
    rng: SplitMix64,
}

impl Scheduler {
    /// Creates a scheduler for the given policy.
    pub fn new(policy: SchedPolicy) -> Self {
        let SchedPolicy::Random { seed } = policy;
        Scheduler {
            rng: SplitMix64::new(seed),
        }
    }

    /// Picks the next thread among the runnable ones.
    ///
    /// # Panics
    ///
    /// Panics if `runnable` is empty — the interpreter must detect
    /// deadlock/completion before asking.
    pub fn pick(&mut self, runnable: &[ThreadId]) -> ThreadId {
        assert!(
            !runnable.is_empty(),
            "scheduler invoked with no runnable threads"
        );
        if runnable.len() == 1 {
            return runnable[0];
        }
        runnable[self.rng.next_below(runnable.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tids(n: u32) -> Vec<ThreadId> {
        (0..n).map(ThreadId).collect()
    }

    #[test]
    fn single_runnable_thread_is_always_picked() {
        let mut s = Scheduler::new(SchedPolicy::Random { seed: 3 });
        for _ in 0..10 {
            assert_eq!(s.pick(&[ThreadId(5)]), ThreadId(5));
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let ts = tids(4);
        let run = |seed| {
            let mut s = Scheduler::new(SchedPolicy::Random { seed });
            (0..50).map(|_| s.pick(&ts)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn random_eventually_picks_everyone() {
        let ts = tids(3);
        let mut s = Scheduler::new(SchedPolicy::Random { seed: 1 });
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[s.pick(&ts).index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "no runnable threads")]
    fn empty_runnable_panics() {
        Scheduler::new(SchedPolicy::Random { seed: 0 }).pick(&[]);
    }
}
