//! The Last Branch Record (LBR) facility.
//!
//! A circular ring of the last *N* taken branches, per core, with the
//! `LBR_SELECT`-style class/privilege filtering of the paper's Table 1.
//! Recording is enabled and disabled through the context's control
//! interface (the analogue of `IA32_DEBUGCTL`); once enabled, every retired
//! branch admitted by the filter evicts the oldest record.

use std::collections::VecDeque;
use stm_machine::events::{lbr_select, lbr_select_admits, BranchEvent, BranchRecord};

/// Number of LBR entries on the Nehalem microarchitecture the paper
/// evaluates on (§2.1; 4 on Pentium 4, 8 on Pentium M, 16 on Nehalem).
pub const NEHALEM_ENTRIES: usize = 16;

/// One core's LBR stack.
#[derive(Debug, Clone)]
pub struct Lbr {
    capacity: usize,
    ring: VecDeque<BranchRecord>,
    enabled: bool,
    select: u32,
}

impl Lbr {
    /// Creates a disabled LBR with the given number of entries and the
    /// diagnosis filter mask preloaded.
    ///
    /// # Panics
    ///
    /// Panics on a zero `capacity`: a branch ring with no entries is a
    /// configuration bug, not a degenerate ring. Validate configurations
    /// up front with [`HwConfig::validate`](crate::HwConfig::validate),
    /// which reports the error instead of panicking.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LBR capacity must be positive");
        Lbr {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            enabled: false,
            select: lbr_select::DIAGNOSIS,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The current `LBR_SELECT` mask.
    pub fn select(&self) -> u32 {
        self.select
    }

    /// Programs the `LBR_SELECT` filter mask (set bit = exclude class).
    pub fn config(&mut self, select: u32) {
        self.select = select;
    }

    /// Clears all records (`DRIVER_CLEAN_LBR`).
    pub fn clean(&mut self) {
        self.ring.clear();
    }

    /// Starts recording (`DRIVER_ENABLE_LBR`).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording (`DRIVER_DISABLE_LBR`).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Offers a retired branch to the ring; records it when enabled and
    /// admitted by the filter.
    pub fn record(&mut self, ev: BranchEvent) {
        if self.push(ev) {
            stm_telemetry::counter!("hw.lbr.pushes").incr();
        }
    }

    /// The telemetry-free push underneath [`Lbr::record`] — the batch
    /// ingest path counts admitted pushes itself and reports them in one
    /// counter add per batch. Returns whether the branch was recorded.
    pub fn push(&mut self, ev: BranchEvent) -> bool {
        if !self.enabled || !lbr_select_admits(self.select, &ev) {
            return false;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(ev.into());
        true
    }

    /// Reads the stack, most recent branch first. The driver's
    /// `DRIVER_PROFILE_LBR` read goes through the context's control path,
    /// which records the read's telemetry and defers this copy until the
    /// perturbation layer has decided the read is not lost.
    pub fn read(&self) -> Vec<BranchRecord> {
        self.ring.iter().rev().copied().collect()
    }

    /// Restores the exactly-fresh state (empty, disabled, diagnosis
    /// filter) while keeping the ring's allocation.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.enabled = false;
        self.select = lbr_select::DIAGNOSIS;
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no records are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl Default for Lbr {
    fn default() -> Self {
        Lbr::new(NEHALEM_ENTRIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::events::{BranchKind, Ring};

    fn cond(from: u64) -> BranchEvent {
        BranchEvent {
            from,
            to: from + 0x10,
            kind: BranchKind::CondJump,
            ring: Ring::User,
        }
    }

    #[test]
    fn disabled_lbr_records_nothing() {
        let mut lbr = Lbr::new(4);
        lbr.record(cond(1));
        assert!(lbr.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_snapshots_newest_first() {
        let mut lbr = Lbr::new(4);
        lbr.enable();
        for i in 0..6 {
            lbr.record(cond(i));
        }
        let snap = lbr.read();
        assert_eq!(snap.len(), 4);
        let froms: Vec<u64> = snap.iter().map(|r| r.from).collect();
        assert_eq!(froms, vec![5, 4, 3, 2]);
    }

    #[test]
    fn filter_excludes_kernel_branches() {
        let mut lbr = Lbr::new(4);
        lbr.enable();
        lbr.record(BranchEvent {
            ring: Ring::Kernel,
            ..cond(1)
        });
        assert!(lbr.is_empty());
        lbr.record(cond(2));
        assert_eq!(lbr.len(), 1);
    }

    #[test]
    fn filter_excludes_calls_and_returns_under_diagnosis_mask() {
        let mut lbr = Lbr::new(8);
        lbr.enable();
        for kind in [
            BranchKind::NearRelCall,
            BranchKind::NearIndCall,
            BranchKind::NearReturn,
            BranchKind::UncondIndirect,
            BranchKind::Far,
        ] {
            lbr.record(BranchEvent { kind, ..cond(9) });
        }
        assert!(lbr.is_empty());
        lbr.record(BranchEvent {
            kind: BranchKind::UncondRelative,
            ..cond(10)
        });
        assert_eq!(lbr.len(), 1);
    }

    #[test]
    fn open_mask_records_everything() {
        let mut lbr = Lbr::new(8);
        lbr.config(0);
        lbr.enable();
        lbr.record(BranchEvent {
            kind: BranchKind::NearRelCall,
            ring: Ring::Kernel,
            ..cond(3)
        });
        assert_eq!(lbr.len(), 1);
    }

    #[test]
    fn clean_resets_without_touching_enable_state() {
        let mut lbr = Lbr::new(4);
        lbr.enable();
        lbr.record(cond(1));
        lbr.clean();
        assert!(lbr.is_empty());
        assert!(lbr.is_enabled());
        lbr.record(cond(2));
        assert_eq!(lbr.len(), 1);
    }

    #[test]
    fn disable_freezes_contents() {
        let mut lbr = Lbr::new(4);
        lbr.enable();
        lbr.record(cond(1));
        lbr.disable();
        lbr.record(cond(2));
        assert_eq!(lbr.read()[0].from, 1);
    }

    #[test]
    fn default_is_nehalem_sized() {
        assert_eq!(Lbr::default().capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "LBR capacity must be positive")]
    fn zero_capacity_is_rejected_not_clamped() {
        let _ = Lbr::new(0);
    }

    #[test]
    fn one_entry_ring_is_legal_and_keeps_newest() {
        let mut lbr = Lbr::new(1);
        lbr.enable();
        lbr.record(cond(1));
        lbr.record(cond(2));
        assert_eq!(lbr.read()[0].from, 2);
    }
}
