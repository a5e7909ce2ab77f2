//! The assembled performance-monitoring unit: per-core LBRs, the coherent
//! cache system feeding per-thread LCRs, performance counters, an optional
//! BTS and an optional PBI-style sampler — all behind the machine's
//! [`Hardware`] trait.

use crate::bts::Bts;
use crate::cache::{CacheConfig, CacheSystem};
use crate::counters::{CoherenceSampler, PerfCounters};
use crate::lbr::{Lbr, NEHALEM_ENTRIES};
use crate::lcr::{Lcr, DEFAULT_ENTRIES};
use crate::perturb::{PerturbConfig, PerturbLayer};
use std::fmt;
use stm_machine::events::{
    AccessEvent, BranchEvent, CtlResponse, Hardware, HwCtlOp, HwEvent, LcrConfig, Ring,
};
use stm_machine::ids::{CoreId, ThreadId};

/// A rejected hardware configuration, reported by [`HwConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwConfigError {
    /// `lbr_entries` was zero — a branch ring needs at least one entry.
    ZeroLbrEntries,
    /// `lcr_entries` was zero — a coherence ring needs at least one entry.
    ZeroLcrEntries,
    /// A perturbation asked to truncate a ring to zero records; model a
    /// total blackout with a drop or loss rate of 1.0 instead.
    ZeroTruncation {
        /// Which ring the truncation targeted (`"lbr"` or `"lcr"`).
        ring: &'static str,
    },
    /// A perturbation rate exceeded 1.0 (one million parts per million).
    RateOutOfRange {
        /// Which rate field was out of range.
        rate: &'static str,
        /// The offending parts-per-million value.
        ppm: u32,
    },
}

impl fmt::Display for HwConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwConfigError::ZeroLbrEntries => {
                write!(f, "lbr_entries must be positive (zero-entry ring)")
            }
            HwConfigError::ZeroLcrEntries => {
                write!(f, "lcr_entries must be positive (zero-entry ring)")
            }
            HwConfigError::ZeroTruncation { ring } => write!(
                f,
                "perturbation truncates the {ring} ring to zero records; \
                 use a drop or loss rate of 1.0 for a total blackout"
            ),
            HwConfigError::RateOutOfRange { rate, ppm } => write!(
                f,
                "perturbation rate {rate} = {ppm} ppm exceeds 1000000 (probability 1.0)"
            ),
        }
    }
}

impl std::error::Error for HwConfigError {}

/// Static configuration of the monitoring unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwConfig {
    /// Number of cores (and LBRs).
    pub num_cores: u32,
    /// LBR entries per core.
    pub lbr_entries: usize,
    /// LCR entries per thread.
    pub lcr_entries: usize,
    /// Initial LCR event selection.
    pub lcr_config: LcrConfig,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Attach a whole-execution BTS buffer.
    pub enable_bts: bool,
    /// Attach a PBI-style coherence sampler with this period.
    pub sampler_period: Option<u64>,
    /// Fault injection applied to snapshots as the driver reads them
    /// (default: none — the full signal).
    pub perturb: PerturbConfig,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            num_cores: 4,
            lbr_entries: NEHALEM_ENTRIES,
            lcr_entries: DEFAULT_ENTRIES,
            lcr_config: LcrConfig::default(),
            cache: CacheConfig::PAPER,
            enable_bts: false,
            sampler_period: None,
            perturb: PerturbConfig::NONE,
        }
    }
}

impl HwConfig {
    /// Checks the configuration for contradictions — zero-capacity rings
    /// and malformed perturbation settings — without building anything.
    /// [`HardwareCtx::new`] asserts on the same conditions; sessions call
    /// this first so a bad configuration surfaces as a typed error instead
    /// of a panic inside a worker.
    pub fn validate(&self) -> Result<(), HwConfigError> {
        if self.lbr_entries == 0 {
            return Err(HwConfigError::ZeroLbrEntries);
        }
        if self.lcr_entries == 0 {
            return Err(HwConfigError::ZeroLcrEntries);
        }
        self.perturb.validate()
    }
}

/// The full simulated performance-monitoring unit.
#[derive(Debug, Clone)]
pub struct HardwareCtx {
    config: HwConfig,
    lbrs: Vec<Lbr>,
    cache: CacheSystem,
    lcr: Lcr,
    counters: PerfCounters,
    bts: Option<Bts>,
    sampler: Option<CoherenceSampler>,
    perturb: Option<PerturbLayer>,
}

impl HardwareCtx {
    /// Creates a monitoring unit from a configuration.
    pub fn new(config: HwConfig) -> Self {
        let mut lcr = Lcr::new(config.lcr_entries);
        lcr.configure(config.lcr_config);
        HardwareCtx {
            config,
            lbrs: (0..config.num_cores.max(1))
                .map(|_| Lbr::new(config.lbr_entries))
                .collect(),
            cache: CacheSystem::new(config.num_cores, config.cache),
            lcr,
            counters: PerfCounters::new(),
            bts: if config.enable_bts {
                let mut b = Bts::new();
                b.enable();
                Some(b)
            } else {
                None
            },
            sampler: config.sampler_period.map(|p| {
                let mut s = CoherenceSampler::new(p);
                s.enable();
                s
            }),
            perturb: PerturbLayer::new(&config.perturb, 0),
        }
    }

    /// Restores the unit to the exact state a fresh
    /// [`HardwareCtx::new`] with the same configuration would produce,
    /// while keeping every internal allocation (rings, cache sets,
    /// sample buffers). Building a paper-default context makes 10
    /// allocations, and its cache sets then allocate as a run first fills
    /// each one; a runner that resets instead pays neither per run.
    ///
    /// Callers that inject perturbations must still call
    /// [`HardwareCtx::seed_perturbations`] per run, exactly as they must
    /// after `new`.
    pub fn reset(&mut self) {
        for lbr in &mut self.lbrs {
            lbr.reset();
        }
        self.cache.reset();
        self.lcr.reset();
        self.lcr.configure(self.config.lcr_config);
        self.counters.reset();
        if let Some(bts) = &mut self.bts {
            bts.clean();
            bts.enable();
        }
        if let Some(s) = &mut self.sampler {
            s.reset();
            s.enable();
        }
        if let Some(layer) = &mut self.perturb {
            layer.reseed(0);
        }
    }

    /// Re-seeds the fault-injection stream for a new run. The runner calls
    /// this with the workload's scheduler seed before execution starts, so
    /// injected faults are a pure function of (config, run) — independent
    /// of worker thread, collection order, or wall clock. A no-op when the
    /// configuration injects nothing.
    pub fn seed_perturbations(&mut self, run_seed: u64) {
        if let Some(layer) = &mut self.perturb {
            layer.reseed(run_seed);
        }
    }

    /// A unit with paper-default settings (4 cores, 16-entry LBR/LCR).
    pub fn with_defaults() -> Self {
        HardwareCtx::new(HwConfig::default())
    }

    /// Direct access to one core's LBR (tests and harnesses).
    pub fn lbr(&self, core: CoreId) -> &Lbr {
        &self.lbrs[core.index()]
    }

    /// Direct access to the LCR facility.
    pub fn lcr(&self) -> &Lcr {
        &self.lcr
    }

    /// Direct access to the cache system.
    pub fn cache(&self) -> &CacheSystem {
        &self.cache
    }

    /// The coherence-event counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// The BTS trace, when attached.
    pub fn bts(&self) -> Option<&Bts> {
        self.bts.as_ref()
    }

    /// The PBI sampler, when attached.
    pub fn sampler(&self) -> Option<&CoherenceSampler> {
        self.sampler.as_ref()
    }

    /// Mutable access to the PBI sampler, when attached.
    pub fn sampler_mut(&mut self) -> Option<&mut CoherenceSampler> {
        self.sampler.as_mut()
    }

    /// Drains the PBI sampler's latched records, running them through the
    /// perturbation layer (sampler-period thinning) when one is active.
    pub fn take_coherence_samples(&mut self) -> Vec<stm_machine::events::CoherenceRecord> {
        let samples = self
            .sampler
            .as_mut()
            .map(|s| s.take_samples())
            .unwrap_or_default();
        match &mut self.perturb {
            Some(layer) => layer.samples(samples),
            None => samples,
        }
    }
}

impl Default for HardwareCtx {
    fn default() -> Self {
        HardwareCtx::with_defaults()
    }
}

impl Hardware for HardwareCtx {
    fn on_branch(&mut self, core: CoreId, ev: BranchEvent) {
        self.lbrs[core.index()].record(ev);
        if let Some(bts) = &mut self.bts {
            bts.record(ev);
        }
    }

    fn on_access(&mut self, core: CoreId, thread: ThreadId, ev: AccessEvent) {
        let observed = self.cache.access(core, ev.addr, ev.kind);
        self.counters.observe(ev.kind, observed);
        self.lcr.record(thread, ev.pc, observed, ev.kind, ev.ring);
        if let Some(s) = &mut self.sampler {
            if ev.ring == Ring::User {
                s.observe(ev.pc, observed, ev.kind);
            }
        }
    }

    /// The batched ingest path: one virtual call per interpreter flush
    /// instead of one per retired event, with the per-event telemetry
    /// counters accumulated locally and published in one add per batch.
    /// State changes and counter totals are exactly those of replaying
    /// the batch through `on_branch`/`on_access` in order.
    fn on_batch(&mut self, events: &[HwEvent]) {
        let mut lbr_pushes = 0u64;
        let mut bts_pushes = 0u64;
        let mut lcr_pushes = 0u64;
        let mut accesses = 0u64;
        for ev in events {
            match *ev {
                HwEvent::Branch { core, ev } => {
                    if self.lbrs[core.index()].push(ev) {
                        lbr_pushes += 1;
                    }
                }
                HwEvent::Access { core, thread, ev } => {
                    let observed = self.cache.access(core, ev.addr, ev.kind);
                    self.counters.observe_quiet(ev.kind, observed);
                    accesses += 1;
                    if self.lcr.push(thread, ev.pc, observed, ev.kind, ev.ring) {
                        lcr_pushes += 1;
                    }
                    if let Some(s) = &mut self.sampler {
                        if ev.ring == Ring::User {
                            s.observe(ev.pc, observed, ev.kind);
                        }
                    }
                }
            }
        }
        // BTS enable/filter state only changes through `ctl`, and the
        // interpreter flushes before every ctl, so one bulk append over
        // the batch's branch events is equivalent to the per-event
        // interleaving above.
        if let Some(bts) = &mut self.bts {
            bts_pushes = bts.push_batch(events.iter().filter_map(|e| match *e {
                HwEvent::Branch { ev, .. } => Some(ev),
                HwEvent::Access { .. } => None,
            }));
        }
        // Guarded adds so a counter a batch never touched stays
        // unregistered, exactly as on the per-event path.
        if lbr_pushes > 0 {
            stm_telemetry::counter!("hw.lbr.pushes").add(lbr_pushes);
        }
        if bts_pushes > 0 {
            stm_telemetry::counter!("hw.bts.pushes").add(bts_pushes);
        }
        if lcr_pushes > 0 {
            stm_telemetry::counter!("hw.lcr.pushes").add(lcr_pushes);
        }
        if accesses > 0 {
            stm_telemetry::counter!("hw.counters.events").add(accesses);
        }
    }

    fn ctl(&mut self, core: CoreId, thread: ThreadId, op: HwCtlOp) -> CtlResponse {
        match op {
            // LBR control applies to every core (the kernel module writes
            // the MSRs on all cores); profiling reads only the calling
            // core's stack, matching the constraint of §4.2.1.
            HwCtlOp::CleanLbr => {
                for lbr in &mut self.lbrs {
                    lbr.clean();
                }
                CtlResponse::Done
            }
            HwCtlOp::ConfigLbr(mask) => {
                for lbr in &mut self.lbrs {
                    lbr.config(mask);
                }
                CtlResponse::Done
            }
            HwCtlOp::EnableLbr => {
                for lbr in &mut self.lbrs {
                    lbr.enable();
                }
                CtlResponse::Done
            }
            HwCtlOp::DisableLbr => {
                for lbr in &mut self.lbrs {
                    lbr.disable();
                }
                CtlResponse::Done
            }
            HwCtlOp::ProfileLbr => {
                // The ring copy is deferred: a read the perturbation layer
                // loses never materializes a snapshot. Telemetry counts
                // every read attempt, lost or not.
                let lbr = &self.lbrs[core.index()];
                stm_telemetry::counter!("hw.lbr.snapshots").incr();
                stm_telemetry::histogram!("hw.lbr.snapshot_records").record(lbr.len() as u64);
                stm_telemetry::instant("hw.lbr.snapshot", "hardware");
                match &mut self.perturb {
                    None => CtlResponse::Lbr(lbr.read()),
                    Some(layer) => match layer.lbr_snapshot(|| lbr.read()) {
                        Some(records) => CtlResponse::Lbr(records),
                        None => CtlResponse::Lost,
                    },
                }
            }
            HwCtlOp::CleanLcr => {
                self.lcr.clean(thread);
                CtlResponse::Done
            }
            HwCtlOp::ConfigLcr(cfg) => {
                self.lcr.configure(cfg);
                CtlResponse::Done
            }
            HwCtlOp::EnableLcr => {
                self.lcr.enable(thread);
                CtlResponse::Done
            }
            HwCtlOp::DisableLcr => {
                self.lcr.disable(thread);
                CtlResponse::Done
            }
            HwCtlOp::ProfileLcr => {
                let lcr = &self.lcr;
                stm_telemetry::counter!("hw.lcr.snapshots").incr();
                stm_telemetry::histogram!("hw.lcr.snapshot_records").record(lcr.len(thread) as u64);
                stm_telemetry::instant("hw.lcr.snapshot", "hardware");
                match &mut self.perturb {
                    None => CtlResponse::Lcr(lcr.read(thread)),
                    Some(layer) => match layer.lcr_snapshot(|| lcr.read(thread)) {
                        Some(records) => CtlResponse::Lcr(records),
                        None => CtlResponse::Lost,
                    },
                }
            }
        }
    }
}

// Send/Sync audit: each collection-engine worker builds and keeps its own
// `HardwareCtx` on whichever thread runs it, so the simulated hardware must
// be safe to build and move across threads. Compile-time check that no
// thread-bound state sneaks into the rings or cache model.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HardwareCtx>();
    assert_send_sync::<HwConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::events::{AccessKind, BranchKind, CoherenceState};

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn branch(from: u64) -> BranchEvent {
        BranchEvent {
            from,
            to: from + 4,
            kind: BranchKind::CondJump,
            ring: Ring::User,
        }
    }

    fn load(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            pc,
            addr,
            kind: AccessKind::Load,
            ring: Ring::User,
        }
    }

    #[test]
    fn lbrs_are_per_core() {
        let mut hw = HardwareCtx::with_defaults();
        hw.ctl(C0, T0, HwCtlOp::EnableLbr);
        hw.on_branch(C0, branch(0x100));
        hw.on_branch(C1, branch(0x200));
        match hw.ctl(C0, T0, HwCtlOp::ProfileLbr) {
            CtlResponse::Lbr(snap) => {
                assert_eq!(snap.len(), 1);
                assert_eq!(snap[0].from, 0x100);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn lcr_records_cache_observed_states() {
        let mut hw = HardwareCtx::with_defaults();
        hw.ctl(C0, T0, HwCtlOp::EnableLcr);
        hw.on_access(C0, T0, load(0x400100, 0x1000)); // cold: Invalid
        hw.on_access(C0, T0, load(0x400104, 0x1000)); // hit: Exclusive
        match hw.ctl(C0, T0, HwCtlOp::ProfileLcr) {
            CtlResponse::Lcr(snap) => {
                // Most recent first: exclusive hit, then the cold invalid,
                // then the two enable-pollution entries.
                assert_eq!(snap.len(), 4);
                assert_eq!(snap[0].pc, 0x400104);
                assert_eq!(snap[0].state, CoherenceState::Exclusive);
                assert_eq!(snap[1].pc, 0x400100);
                assert_eq!(snap[1].state, CoherenceState::Invalid);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn counters_see_all_coherence_events() {
        let mut hw = HardwareCtx::with_defaults();
        hw.on_access(C0, T0, load(1, 0x1000));
        hw.on_access(C0, T0, load(2, 0x1000));
        assert_eq!(
            hw.counters()
                .count(AccessKind::Load, CoherenceState::Invalid),
            1
        );
        assert_eq!(
            hw.counters()
                .count(AccessKind::Load, CoherenceState::Exclusive),
            1
        );
    }

    #[test]
    fn cross_thread_invalidation_reaches_lcr() {
        let mut hw = HardwareCtx::with_defaults();
        hw.ctl(C0, T0, HwCtlOp::EnableLcr);
        // T1 (core 1) writes the line, invalidating T0's copy.
        hw.on_access(C0, T0, load(0x10, 0x2000));
        hw.on_access(
            C1,
            T1,
            AccessEvent {
                pc: 0x20,
                addr: 0x2000,
                kind: AccessKind::Store,
                ring: Ring::User,
            },
        );
        hw.on_access(C0, T0, load(0x30, 0x2000)); // observes Invalid
        let snap = match hw.ctl(C0, T0, HwCtlOp::ProfileLcr) {
            CtlResponse::Lcr(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(snap[0].pc, 0x30);
        assert_eq!(snap[0].state, CoherenceState::Invalid);
    }

    #[test]
    fn bts_captures_whole_history() {
        let mut hw = HardwareCtx::new(HwConfig {
            enable_bts: true,
            ..HwConfig::default()
        });
        hw.ctl(C0, T0, HwCtlOp::EnableLbr);
        for i in 0..100 {
            hw.on_branch(C0, branch(i));
        }
        assert_eq!(hw.bts().unwrap().len(), 100);
        // LBR kept only the last 16.
        assert_eq!(hw.lbr(C0).len(), 16);
    }

    #[test]
    fn validate_rejects_zero_capacity_rings() {
        assert!(HwConfig::default().validate().is_ok());
        let no_lbr = HwConfig {
            lbr_entries: 0,
            ..HwConfig::default()
        };
        assert_eq!(no_lbr.validate(), Err(HwConfigError::ZeroLbrEntries));
        let no_lcr = HwConfig {
            lcr_entries: 0,
            ..HwConfig::default()
        };
        assert_eq!(no_lcr.validate(), Err(HwConfigError::ZeroLcrEntries));
    }

    #[test]
    fn perturbed_profile_truncates_at_read_time() {
        let mut hw = HardwareCtx::new(HwConfig {
            perturb: PerturbConfig::NONE.truncate_lbr(2),
            ..HwConfig::default()
        });
        hw.seed_perturbations(1);
        hw.ctl(C0, T0, HwCtlOp::EnableLbr);
        for i in 0..6 {
            hw.on_branch(C0, branch(0x100 + i * 0x10));
        }
        // The ring itself still holds all six records (the hardware is
        // untouched); only the read is degraded.
        assert_eq!(hw.lbr(C0).len(), 6);
        match hw.ctl(C0, T0, HwCtlOp::ProfileLbr) {
            CtlResponse::Lbr(snap) => {
                assert_eq!(snap.len(), 2);
                assert_eq!(snap[0].from, 0x150);
                assert_eq!(snap[1].from, 0x140);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn total_snapshot_loss_reports_lost() {
        let mut hw = HardwareCtx::new(HwConfig {
            perturb: PerturbConfig::NONE.loss_rate(1.0),
            ..HwConfig::default()
        });
        hw.seed_perturbations(1);
        hw.ctl(C0, T0, HwCtlOp::EnableLbr);
        hw.on_branch(C0, branch(0x100));
        assert_eq!(hw.ctl(C0, T0, HwCtlOp::ProfileLbr), CtlResponse::Lost);
        hw.ctl(C0, T0, HwCtlOp::EnableLcr);
        hw.on_access(C0, T0, load(0x200, 0x1000));
        assert_eq!(hw.ctl(C0, T0, HwCtlOp::ProfileLcr), CtlResponse::Lost);
    }

    /// A mixed event stream exercising rings, cache, counters, sampler
    /// and BTS across cores and threads.
    fn mixed_events() -> Vec<HwEvent> {
        let mut evs = Vec::new();
        for i in 0..200u64 {
            let core = CoreId((i % 3) as u32);
            let thread = ThreadId((i % 2) as u32);
            if i % 4 == 0 {
                evs.push(HwEvent::Branch {
                    core,
                    ev: branch(0x1000 + i * 0x10),
                });
            } else {
                evs.push(HwEvent::Access {
                    core,
                    thread,
                    ev: AccessEvent {
                        pc: 0x400000 + i * 4,
                        addr: 0x1000 + (i % 7) * 64,
                        kind: if i % 5 == 0 {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        },
                        ring: Ring::User,
                    },
                });
            }
        }
        evs
    }

    fn batch_config() -> HwConfig {
        HwConfig {
            enable_bts: true,
            sampler_period: Some(3),
            ..HwConfig::default()
        }
    }

    #[test]
    fn batch_ingest_matches_per_event_ingest() {
        let events = mixed_events();
        let mut per_event = HardwareCtx::new(batch_config());
        let mut batched = HardwareCtx::new(batch_config());
        for hw in [&mut per_event, &mut batched] {
            hw.ctl(C0, T0, HwCtlOp::EnableLbr);
            hw.ctl(C0, T0, HwCtlOp::EnableLcr);
        }
        for ev in &events {
            match *ev {
                HwEvent::Branch { core, ev } => per_event.on_branch(core, ev),
                HwEvent::Access { core, thread, ev } => per_event.on_access(core, thread, ev),
            }
        }
        // Deliver the same stream in uneven batch sizes.
        for chunk in events.chunks(17) {
            batched.on_batch(chunk);
        }
        for core in 0..3 {
            assert_eq!(
                per_event.lbr(CoreId(core)).read(),
                batched.lbr(CoreId(core)).read(),
                "core {core} LBR"
            );
        }
        for t in [T0, T1] {
            assert_eq!(per_event.lcr().read(t), batched.lcr().read(t));
        }
        for kind in [AccessKind::Load, AccessKind::Store] {
            for state in [
                CoherenceState::Modified,
                CoherenceState::Exclusive,
                CoherenceState::Shared,
                CoherenceState::Invalid,
            ] {
                assert_eq!(
                    per_event.counters().count(kind, state),
                    batched.counters().count(kind, state)
                );
            }
        }
        assert_eq!(
            per_event.bts().unwrap().trace(),
            batched.bts().unwrap().trace()
        );
        assert_eq!(
            per_event.sampler().unwrap().samples(),
            batched.sampler().unwrap().samples()
        );
        assert_eq!(per_event.cache().evictions(), batched.cache().evictions());
        assert_eq!(
            per_event.cache().invalidations(),
            batched.cache().invalidations()
        );
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let config = HwConfig {
            perturb: PerturbConfig::NONE.drop_rate(0.3),
            ..batch_config()
        };
        let mut reused = HardwareCtx::new(config);
        // Dirty everything: enable, record, reconfigure, profile.
        reused.seed_perturbations(42);
        reused.ctl(C0, T0, HwCtlOp::EnableLbr);
        reused.ctl(C0, T0, HwCtlOp::EnableLcr);
        reused.ctl(C0, T0, HwCtlOp::ConfigLbr(0));
        reused.ctl(C0, T0, HwCtlOp::ConfigLcr(LcrConfig::SPACE_SAVING));
        reused.on_batch(&mixed_events());
        let _ = reused.ctl(C0, T0, HwCtlOp::ProfileLbr);
        reused.reset();

        // After reset, an identical run must be indistinguishable from
        // one on a brand-new context.
        let mut fresh = HardwareCtx::new(config);
        for hw in [&mut reused, &mut fresh] {
            hw.seed_perturbations(7);
            hw.ctl(C0, T0, HwCtlOp::EnableLbr);
            hw.ctl(C1, T1, HwCtlOp::EnableLcr);
            hw.on_batch(&mixed_events());
        }
        assert_eq!(
            reused.ctl(C0, T0, HwCtlOp::ProfileLbr),
            fresh.ctl(C0, T0, HwCtlOp::ProfileLbr)
        );
        assert_eq!(
            reused.ctl(C1, T1, HwCtlOp::ProfileLcr),
            fresh.ctl(C1, T1, HwCtlOp::ProfileLcr)
        );
        assert_eq!(reused.counters().total(), fresh.counters().total());
        assert_eq!(reused.cache().evictions(), fresh.cache().evictions());
        assert_eq!(reused.bts().unwrap().trace(), fresh.bts().unwrap().trace());
        assert_eq!(
            reused.sampler().unwrap().samples(),
            fresh.sampler().unwrap().samples()
        );
    }

    #[test]
    fn sampler_latches_periodically() {
        let mut hw = HardwareCtx::new(HwConfig {
            sampler_period: Some(2),
            ..HwConfig::default()
        });
        for i in 0..6 {
            hw.on_access(C0, T0, load(i, 0x1000 + i * 64));
        }
        assert_eq!(hw.sampler().unwrap().samples().len(), 3);
        assert_eq!(hw.take_coherence_samples().len(), 3);
        assert_eq!(hw.take_coherence_samples().len(), 0);
    }
}
