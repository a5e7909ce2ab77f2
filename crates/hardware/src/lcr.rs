//! The Last Cache-coherence Record (LCR) — the paper's proposed hardware
//! extension (§4.2).
//!
//! Per-thread circular buffers of `(program counter, observed coherence
//! state)` pairs for retired L1-D accesses matching the configured event
//! selection ([`LcrConfig`]). Mirrors the paper's PIN-based simulator
//! (§4.3) including its pollution model:
//!
//! * the `ioctl` that **enables** LCR introduces two user-level exclusive
//!   reads;
//! * the `ioctl` that **disables** LCR introduces two user-level exclusive
//!   reads and one user-level shared read (observed while still enabled,
//!   before the disable takes effect).
//!
//! Memory addresses are never stored — only program counters and states.

use std::collections::VecDeque;
use stm_machine::events::{AccessKind, CoherenceRecord, CoherenceState, LcrConfig, Ring};
use stm_machine::ids::ThreadId;

/// Default number of LCR entries (K = 16, resembling Nehalem's LBR, §4.2.1).
pub const DEFAULT_ENTRIES: usize = 16;

/// Synthetic program counter attributed to the driver's pollution accesses.
pub const POLLUTION_PC: u64 = 0xDEAD_0000;

/// The per-thread LCR facility.
///
/// Thread ids are dense per run (spawn order), so the per-thread rings
/// live in a `Vec` indexed by thread — the record hot path is one bounds
/// check, not a hash.
#[derive(Debug, Clone)]
pub struct Lcr {
    capacity: usize,
    config: LcrConfig,
    enabled: bool,
    rings: Vec<VecDeque<CoherenceRecord>>,
}

impl Lcr {
    /// Creates a disabled LCR with the given per-thread capacity.
    ///
    /// # Panics
    ///
    /// Panics on a zero `capacity`: a coherence ring with no entries is a
    /// configuration bug, not a degenerate ring. Validate configurations
    /// up front with [`HwConfig::validate`](crate::HwConfig::validate),
    /// which reports the error instead of panicking.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LCR capacity must be positive");
        Lcr {
            capacity,
            config: LcrConfig::default(),
            enabled: false,
            rings: Vec::new(),
        }
    }

    /// Per-thread capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The active event selection.
    pub fn config(&self) -> LcrConfig {
        self.config
    }

    /// Programs the event selection.
    pub fn configure(&mut self, config: LcrConfig) {
        self.config = config;
    }

    /// Clears the calling thread's ring.
    pub fn clean(&mut self, thread: ThreadId) {
        if let Some(buf) = self.rings.get_mut(thread.index()) {
            buf.clear();
        }
    }

    /// Restores the exactly-fresh state (disabled, all rings empty) while
    /// keeping every ring's allocation. The event selection is the
    /// caller's to restore — it is configuration, not recording state.
    pub fn reset(&mut self) {
        self.enabled = false;
        for buf in &mut self.rings {
            buf.clear();
        }
    }

    /// Enables recording, then applies the enable-path pollution (two
    /// user-level exclusive reads by the calling thread).
    pub fn enable(&mut self, thread: ThreadId) {
        self.enabled = true;
        for i in 0..2 {
            self.record(
                thread,
                POLLUTION_PC + i,
                CoherenceState::Exclusive,
                AccessKind::Load,
                Ring::User,
            );
        }
    }

    /// Applies the disable-path pollution (two exclusive reads and one
    /// shared read, still recorded), then disables recording.
    pub fn disable(&mut self, thread: ThreadId) {
        for i in 0..2 {
            self.record(
                thread,
                POLLUTION_PC + 0x10 + i,
                CoherenceState::Exclusive,
                AccessKind::Load,
                Ring::User,
            );
        }
        self.record(
            thread,
            POLLUTION_PC + 0x20,
            CoherenceState::Shared,
            AccessKind::Load,
            Ring::User,
        );
        self.enabled = false;
    }

    /// Offers a retired access to the calling thread's ring; records it
    /// when enabled and admitted by the configuration.
    pub fn record(
        &mut self,
        thread: ThreadId,
        pc: u64,
        state: CoherenceState,
        access: AccessKind,
        ring: Ring,
    ) {
        if self.push(thread, pc, state, access, ring) {
            stm_telemetry::counter!("hw.lcr.pushes").incr();
        }
    }

    /// The telemetry-free push underneath [`Lcr::record`] — the batch
    /// ingest path counts admitted pushes itself. Returns whether the
    /// access was recorded.
    pub fn push(
        &mut self,
        thread: ThreadId,
        pc: u64,
        state: CoherenceState,
        access: AccessKind,
        ring: Ring,
    ) -> bool {
        if !self.enabled || !self.config.admits(access, state, ring) {
            return false;
        }
        let idx = thread.index();
        if idx >= self.rings.len() {
            self.rings.resize_with(idx + 1, VecDeque::new);
        }
        let buf = &mut self.rings[idx];
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(CoherenceRecord { pc, state, access });
        true
    }

    /// Reads the calling thread's ring, most recent access first. The
    /// driver's `DRIVER_PROFILE_LCR` read goes through the context's
    /// control path, which records the read's telemetry and defers this
    /// copy until the perturbation layer has decided the read is not lost.
    pub fn read(&self, thread: ThreadId) -> Vec<CoherenceRecord> {
        self.rings
            .get(thread.index())
            .map(|b| b.iter().rev().copied().collect())
            .unwrap_or_default()
    }

    /// Number of records currently held for `thread`.
    pub fn len(&self, thread: ThreadId) -> usize {
        self.rings.get(thread.index()).map_or(0, VecDeque::len)
    }
}

impl Default for Lcr {
    fn default() -> Self {
        Lcr::new(DEFAULT_ENTRIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn enabled_lcr(config: LcrConfig) -> Lcr {
        let mut lcr = Lcr::new(16);
        lcr.configure(config);
        lcr.enabled = true; // bypass enable() to skip pollution in tests
        lcr
    }

    #[test]
    fn disabled_lcr_records_nothing() {
        let mut lcr = Lcr::new(4);
        lcr.record(
            T0,
            0x100,
            CoherenceState::Invalid,
            AccessKind::Load,
            Ring::User,
        );
        assert!(lcr.read(T0).is_empty());
    }

    #[test]
    fn rings_are_per_thread() {
        let mut lcr = enabled_lcr(LcrConfig::SPACE_CONSUMING);
        lcr.record(T0, 1, CoherenceState::Invalid, AccessKind::Load, Ring::User);
        lcr.record(T1, 2, CoherenceState::Invalid, AccessKind::Load, Ring::User);
        assert_eq!(lcr.read(T0).len(), 1);
        assert_eq!(lcr.read(T0)[0].pc, 1);
        assert_eq!(lcr.read(T1)[0].pc, 2);
    }

    #[test]
    fn configuration_filters_states() {
        let mut lcr = enabled_lcr(LcrConfig::SPACE_CONSUMING);
        lcr.record(T0, 1, CoherenceState::Shared, AccessKind::Load, Ring::User);
        assert!(lcr.read(T0).is_empty());
        lcr.record(
            T0,
            2,
            CoherenceState::Exclusive,
            AccessKind::Load,
            Ring::User,
        );
        assert_eq!(lcr.read(T0).len(), 1);
    }

    #[test]
    fn kernel_accesses_are_filtered() {
        let mut lcr = enabled_lcr(LcrConfig::SPACE_CONSUMING);
        lcr.record(
            T0,
            1,
            CoherenceState::Invalid,
            AccessKind::Load,
            Ring::Kernel,
        );
        assert!(lcr.read(T0).is_empty());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut lcr = Lcr::new(3);
        lcr.configure(LcrConfig::SPACE_CONSUMING);
        lcr.enabled = true;
        for pc in 0..5 {
            lcr.record(
                T0,
                pc,
                CoherenceState::Invalid,
                AccessKind::Load,
                Ring::User,
            );
        }
        let pcs: Vec<u64> = lcr.read(T0).iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![4, 3, 2]);
    }

    #[test]
    fn enable_pollutes_with_two_exclusive_reads_under_conf2() {
        let mut lcr = Lcr::new(16);
        lcr.configure(LcrConfig::SPACE_CONSUMING);
        lcr.enable(T0);
        let snap = lcr.read(T0);
        assert_eq!(snap.len(), 2);
        assert!(snap
            .iter()
            .all(|r| r.state == CoherenceState::Exclusive && r.pc >= POLLUTION_PC));
    }

    #[test]
    fn enable_pollution_is_invisible_under_space_saving() {
        // Conf1 records shared (not exclusive) loads, so the two exclusive
        // enable reads do not pollute.
        let mut lcr = Lcr::new(16);
        lcr.configure(LcrConfig::SPACE_SAVING);
        lcr.enable(T0);
        assert!(lcr.read(T0).is_empty());
    }

    #[test]
    fn disable_pollutes_then_freezes() {
        let mut lcr = Lcr::new(16);
        lcr.configure(LcrConfig::SPACE_CONSUMING);
        lcr.enable(T0);
        lcr.disable(T0);
        // 2 (enable) + 2 (disable exclusive); the shared read is filtered
        // under Conf2.
        assert_eq!(lcr.read(T0).len(), 4);
        lcr.record(T0, 9, CoherenceState::Invalid, AccessKind::Load, Ring::User);
        assert_eq!(lcr.read(T0).len(), 4);
    }

    #[test]
    fn disable_shared_read_pollutes_under_space_saving() {
        let mut lcr = Lcr::new(16);
        lcr.configure(LcrConfig::SPACE_SAVING);
        lcr.enable(T0);
        lcr.disable(T0);
        let snap = lcr.read(T0);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, CoherenceState::Shared);
    }

    #[test]
    #[should_panic(expected = "LCR capacity must be positive")]
    fn zero_capacity_is_rejected_not_clamped() {
        let _ = Lcr::new(0);
    }

    #[test]
    fn clean_clears_only_the_given_thread() {
        let mut lcr = enabled_lcr(LcrConfig::SPACE_CONSUMING);
        lcr.record(T0, 1, CoherenceState::Invalid, AccessKind::Load, Ring::User);
        lcr.record(T1, 2, CoherenceState::Invalid, AccessKind::Load, Ring::User);
        lcr.clean(T0);
        assert!(lcr.read(T0).is_empty());
        assert_eq!(lcr.read(T1).len(), 1);
    }
}
