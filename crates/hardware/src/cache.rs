//! The multi-core L1 data-cache system with MESI coherence.
//!
//! This is the substrate LCR records from: every retired load/store first
//! *observes* the MESI state its line currently has in the accessing core's
//! L1 (`Invalid` when absent), which is precisely the event family of the
//! paper's Table 2, and then the access updates the caches under MESI:
//!
//! * load hit — state unchanged;
//! * load miss — line installed `Shared` when any other core holds it
//!   (demoting their `Modified`/`Exclusive` copies to `Shared`), otherwise
//!   `Exclusive`;
//! * store hit — line promoted to `Modified`, all other copies invalidated;
//! * store miss — line installed `Modified`, all other copies invalidated.
//!
//! Sets use true-LRU replacement. Evictions are silent, so a later access
//! observes `Invalid` even without remote writes — the false-positive noise
//! source §5.3 of the paper calls out (and which the statistical ranking
//! filters).
//!
//! Geometry defaults to the paper's simulator (§6): 2-way associative,
//! 64-byte blocks, 64 KB per core.

use stm_machine::events::{AccessKind, CoherenceState};
use stm_machine::ids::CoreId;

/// Stable (non-Invalid) MESI states a held line can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeldState {
    /// Locally modified, dirty, sole copy.
    Modified,
    /// Clean, sole copy.
    Exclusive,
    /// Clean, possibly replicated.
    Shared,
}

impl From<HeldState> for CoherenceState {
    fn from(s: HeldState) -> CoherenceState {
        match s {
            HeldState::Modified => CoherenceState::Modified,
            HeldState::Exclusive => CoherenceState::Exclusive,
            HeldState::Shared => CoherenceState::Shared,
        }
    }
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Block (line) size in bytes.
    pub line_bytes: u64,
    /// Total capacity per core in bytes.
    pub total_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The configuration of the paper's LCR simulator (§6): 2-way, 64-byte
    /// blocks, 64 KB per core.
    pub const PAPER: CacheConfig = CacheConfig {
        line_bytes: 64,
        total_bytes: 64 * 1024,
        ways: 2,
    };

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        (self.total_bytes / self.line_bytes / self.ways as u64).max(1)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::PAPER
    }
}

#[derive(Debug, Clone, Copy)]
struct LineEntry {
    tag: u64,
    state: HeldState,
    lru: u64,
}

#[derive(Debug, Clone)]
struct CoreCache {
    sets: Vec<Vec<LineEntry>>,
}

/// The coherent multi-core L1 system.
#[derive(Debug, Clone)]
pub struct CacheSystem {
    cfg: CacheConfig,
    cores: Vec<CoreCache>,
    tick: u64,
    evictions: u64,
    invalidations: u64,
}

impl CacheSystem {
    /// Creates a cache system with `num_cores` cores.
    ///
    /// # Panics
    ///
    /// When `num_cores`, `cfg.ways` or `cfg.line_bytes` is zero.
    pub fn new(num_cores: u32, cfg: CacheConfig) -> Self {
        assert!(num_cores > 0, "a cache system needs a core");
        assert!(cfg.ways > 0, "cache ways must be positive");
        assert!(cfg.line_bytes > 0, "cache line_bytes must be positive");
        let sets = cfg.num_sets() as usize;
        CacheSystem {
            cfg,
            cores: (0..num_cores)
                .map(|_| CoreCache {
                    sets: vec![Vec::new(); sets],
                })
                .collect(),
            tick: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Restores the exactly-fresh state (every line invalid, statistics
    /// zeroed) while keeping all per-set allocations. A fresh cache system
    /// allocates one set table per core, and each set allocates again on
    /// its first fill, so a rebuilt system pays per run for every set the
    /// run touches; a reset one pays nothing.
    pub fn reset(&mut self) {
        for core in &mut self.cores {
            for set in &mut core.sets {
                set.clear();
            }
        }
        self.tick = 0;
        self.evictions = 0;
        self.invalidations = 0;
    }

    /// Number of cores.
    pub fn num_cores(&self) -> u32 {
        self.cores.len() as u32
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.cfg.num_sets()) as usize
    }

    /// Performs an access from `core` and returns the MESI state the
    /// access *observed* (prior to any state change), per Table 2.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: CoreId, addr: u64, kind: AccessKind) -> CoherenceState {
        self.tick += 1;
        let tick = self.tick;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let ci = core.index();
        assert!(ci < self.cores.len(), "core {core} out of range");

        let local = self.cores[ci].sets[set].iter().position(|e| e.tag == line);
        let observed = match local {
            Some(i) => CoherenceState::from(self.cores[ci].sets[set][i].state),
            None => CoherenceState::Invalid,
        };

        match kind {
            AccessKind::Load => match local {
                Some(i) => {
                    self.cores[ci].sets[set][i].lru = tick;
                }
                None => {
                    // Demote remote copies; shared if any existed.
                    let mut remote = false;
                    for (oi, other) in self.cores.iter_mut().enumerate() {
                        if oi == ci {
                            continue;
                        }
                        for e in other.sets[set].iter_mut() {
                            if e.tag == line {
                                remote = true;
                                e.state = HeldState::Shared;
                            }
                        }
                    }
                    let state = if remote {
                        HeldState::Shared
                    } else {
                        HeldState::Exclusive
                    };
                    self.install(ci, set, line, state, tick);
                }
            },
            AccessKind::Store => {
                // Invalidate every remote copy.
                for (oi, other) in self.cores.iter_mut().enumerate() {
                    if oi == ci {
                        continue;
                    }
                    let before = other.sets[set].len();
                    other.sets[set].retain(|e| e.tag != line);
                    self.invalidations += (before - other.sets[set].len()) as u64;
                }
                match local {
                    Some(i) => {
                        let e = &mut self.cores[ci].sets[set][i];
                        e.state = HeldState::Modified;
                        e.lru = tick;
                    }
                    None => {
                        self.install(ci, set, line, HeldState::Modified, tick);
                    }
                }
            }
        }
        observed
    }

    fn install(&mut self, core: usize, set: usize, tag: u64, state: HeldState, tick: u64) {
        let ways = self.cfg.ways;
        let entries = &mut self.cores[core].sets[set];
        if entries.len() >= ways {
            // Evict true-LRU (silently; dirty writeback is not modelled —
            // only coherence states matter to LCR).
            let (victim, _) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .expect("non-empty set");
            entries.swap_remove(victim);
            self.evictions += 1;
        }
        entries.push(LineEntry {
            tag,
            state,
            lru: tick,
        });
    }

    /// Total lines evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total remote invalidations so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Checks the MESI single-writer/multi-reader invariants for every
    /// line currently cached anywhere. Used by property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut holders: HashMap<u64, Vec<HeldState>> = HashMap::new();
        for core in &self.cores {
            for set in &core.sets {
                for e in set {
                    holders.entry(e.tag).or_default().push(e.state);
                }
            }
        }
        for (line, states) in holders {
            let m = states.iter().filter(|s| **s == HeldState::Modified).count();
            let e = states
                .iter()
                .filter(|s| **s == HeldState::Exclusive)
                .count();
            if m + e > 1 || ((m + e == 1) && states.len() > 1) {
                return Err(format!(
                    "line {line:#x}: M/E copy coexists with other copies: {states:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::events::AccessKind::{Load, Store};

    fn sys(cores: u32) -> CacheSystem {
        CacheSystem::new(cores, CacheConfig::PAPER)
    }

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    #[test]
    fn cold_load_observes_invalid_then_exclusive() {
        let mut s = sys(2);
        assert_eq!(s.access(C0, 0x1000, Load), CoherenceState::Invalid);
        assert_eq!(s.access(C0, 0x1000, Load), CoherenceState::Exclusive);
    }

    #[test]
    fn second_core_load_shares_the_line() {
        let mut s = sys(2);
        s.access(C0, 0x1000, Load);
        assert_eq!(s.access(C1, 0x1000, Load), CoherenceState::Invalid);
        // Both copies now shared.
        assert_eq!(s.access(C0, 0x1000, Load), CoherenceState::Shared);
        assert_eq!(s.access(C1, 0x1000, Load), CoherenceState::Shared);
    }

    #[test]
    fn store_invalidates_remote_copies() {
        let mut s = sys(2);
        s.access(C0, 0x1000, Load);
        s.access(C1, 0x1000, Load);
        s.access(C1, 0x1000, Store);
        // C0 lost its copy: the next load observes Invalid.
        assert_eq!(s.access(C0, 0x1000, Load), CoherenceState::Invalid);
        assert!(s.invalidations() >= 1);
    }

    #[test]
    fn store_hit_promotes_to_modified() {
        let mut s = sys(2);
        s.access(C0, 0x1000, Load); // E
        assert_eq!(s.access(C0, 0x1000, Store), CoherenceState::Exclusive);
        assert_eq!(s.access(C0, 0x1000, Load), CoherenceState::Modified);
    }

    #[test]
    fn remote_load_demotes_modified_to_shared() {
        let mut s = sys(2);
        s.access(C0, 0x1000, Store); // M in C0
        assert_eq!(s.access(C1, 0x1000, Load), CoherenceState::Invalid);
        assert_eq!(s.access(C0, 0x1000, Load), CoherenceState::Shared);
    }

    #[test]
    fn same_line_accesses_alias() {
        let mut s = sys(1);
        s.access(C0, 0x1000, Load);
        // Same 64-byte line.
        assert_eq!(s.access(C0, 0x103f, Load), CoherenceState::Exclusive);
        // Next line is cold.
        assert_eq!(s.access(C0, 0x1040, Load), CoherenceState::Invalid);
    }

    #[test]
    fn lru_eviction_in_a_2way_set() {
        let mut s = sys(1);
        let sets = CacheConfig::PAPER.num_sets();
        let stride = 64 * sets; // same set, different tags
        s.access(C0, 0, Load); // way 1
        s.access(C0, stride, Load); // way 2
        s.access(C0, 0, Load); // refresh line 0
        s.access(C0, 2 * stride, Load); // evicts `stride` (LRU)
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.access(C0, 0, Load), CoherenceState::Exclusive);
        // The evicted line is gone; probing it misses (and evicts again).
        assert_eq!(s.access(C0, stride, Load), CoherenceState::Invalid);
        assert_eq!(s.evictions(), 2);
    }

    #[test]
    fn false_sharing_surfaces_as_invalidation() {
        // Two "variables" in one line: a write to one invalidates the
        // other's copy — the false-sharing noise of §5.3.
        let mut s = sys(2);
        s.access(C0, 0x2000, Load);
        s.access(C1, 0x2008, Store); // same line, different word
        assert_eq!(s.access(C0, 0x2000, Load), CoherenceState::Invalid);
    }

    #[test]
    fn invariants_hold_through_a_random_workout() {
        use stm_machine::rng::SplitMix64;
        let mut s = sys(4);
        let mut rng = SplitMix64::new(42);
        for _ in 0..20_000 {
            let core = CoreId((rng.next_below(4)) as u32);
            let addr = rng.next_below(1 << 20);
            let kind = if rng.next_below(4) == 0 { Store } else { Load };
            s.access(core, addr, kind);
        }
        s.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "cache ways must be positive")]
    fn zero_ways_are_rejected_not_divided_by() {
        let _ = CacheSystem::new(
            1,
            CacheConfig {
                ways: 0,
                ..CacheConfig::PAPER
            },
        );
    }

    #[test]
    #[should_panic(expected = "cache line_bytes must be positive")]
    fn zero_line_bytes_are_rejected_not_divided_by() {
        let _ = CacheSystem::new(
            1,
            CacheConfig {
                line_bytes: 0,
                ..CacheConfig::PAPER
            },
        );
    }
}
