//! Ring-perturbation / fault-injection layer (`stm-perturb`).
//!
//! A production deployment rarely sees the full Nehalem-sized signal the
//! paper's simulator assumes: older parts ship 4- or 8-entry LBRs (§2.1),
//! drivers lose snapshots under load, and sampled coherence feeds thin
//! out. This module models that *degraded-signal regime* at the
//! **hardware-snapshot boundary** — recording is never touched, so a
//! perturbed run executes (and classifies) exactly like an unperturbed
//! one; only what the driver *reads back* degrades.
//!
//! A [`PerturbConfig`] names the faults and a run's [`PerturbLayer`]
//! applies them in one fixed pass per read. An LBR or LCR read goes:
//!
//! 1. **loss** — the whole read is lost, surfacing as
//!    [`CtlResponse::Lost`](stm_machine::events::CtlResponse::Lost),
//!    before the ring is even copied;
//! 2. **truncation** — the read keeps its `N` newest records, reproducing
//!    the paper's 4/8/16-entry LBR sweep without rebuilding the machine;
//! 3. **drop** — each remaining record is lost independently (a lossy
//!    read path);
//! 4. **flip** (LCR only) — each record's observed MESI state is replaced
//!    by a random *other* state (stale or corrupted coherence metadata).
//!
//! A PBI sampler read sees only **thinning**: it keeps every `k`-th
//! sample, modelling a longer effective sampler period.
//!
//! Every random decision draws from a [`SplitMix64`] stream seeded from
//! the *run's* scheduler seed mixed with [`PerturbConfig::seed`]. Loss
//! draws once per read, drop once per record, and flip once per record
//! plus once per flipped record; truncation and thinning draw nothing,
//! and neither does a step whose rate is 0. Each run owns a private
//! [`PerturbLayer`] inside its `HardwareCtx`, so the draw sequence
//! depends only on that run's own event order — the collection engine's
//! `threads(N)` ≡ `threads(1)` guarantee survives perturbation bit for
//! bit.

use stm_machine::events::{BranchRecord, CoherenceRecord, CoherenceState};
use stm_machine::rng::SplitMix64;

/// One million — the denominator of all parts-per-million rates.
pub const PPM_SCALE: u32 = 1_000_000;

/// Converts a probability in `[0, 1]` to parts-per-million, clamping.
pub fn ppm(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * PPM_SCALE as f64).round() as u32
}

/// Draws `true` with probability `ppm / 1e6`, consuming exactly one RNG
/// value (so the draw count is independent of the rate).
fn chance(rng: &mut SplitMix64, ppm: u32) -> bool {
    rng.next_below(PPM_SCALE as u64) < ppm as u64
}

/// MESI states in a fixed order, for deterministic flip selection.
const MESI: [CoherenceState; 4] = [
    CoherenceState::Modified,
    CoherenceState::Exclusive,
    CoherenceState::Shared,
    CoherenceState::Invalid,
];

/// Plain-data description of the faults to inject, embeddable in
/// [`HwConfig`](crate::HwConfig) (and therefore in a session's
/// configuration). [`PerturbConfig::NONE`] — the default — injects
/// nothing and adds no per-snapshot cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PerturbConfig {
    /// Extra seed mixed with each run's scheduler seed; lets two sweeps
    /// over the same workloads draw independent fault streams.
    pub seed: u64,
    /// Truncate LBR snapshots to this many newest records.
    pub lbr_truncate: Option<usize>,
    /// Truncate LCR snapshots to this many newest records.
    pub lcr_truncate: Option<usize>,
    /// Per-record random drop rate, in parts per million.
    pub drop_ppm: u32,
    /// Per-record coherence-state flip rate, in parts per million.
    pub flip_ppm: u32,
    /// Whole-snapshot loss rate at log sites, in parts per million.
    pub loss_ppm: u32,
    /// Keep one PBI sample in this many (`0`/`1` = keep all).
    pub sampler_keep_every: u32,
}

/// The configuration injects no faults at all.
impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig::NONE
    }
}

impl PerturbConfig {
    /// No perturbation: the full, paper-default signal.
    pub const NONE: PerturbConfig = PerturbConfig {
        seed: 0,
        lbr_truncate: None,
        lcr_truncate: None,
        drop_ppm: 0,
        flip_ppm: 0,
        loss_ppm: 0,
        sampler_keep_every: 0,
    };

    /// `true` when no fault is enabled.
    pub fn is_noop(&self) -> bool {
        self.lbr_truncate.is_none()
            && self.lcr_truncate.is_none()
            && self.drop_ppm == 0
            && self.flip_ppm == 0
            && self.loss_ppm == 0
            && self.sampler_keep_every <= 1
    }

    /// Sets the extra fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Truncates LBR snapshots to `n` newest records.
    pub fn truncate_lbr(mut self, n: usize) -> Self {
        self.lbr_truncate = Some(n);
        self
    }

    /// Truncates LCR snapshots to `n` newest records.
    pub fn truncate_lcr(mut self, n: usize) -> Self {
        self.lcr_truncate = Some(n);
        self
    }

    /// Drops each snapshot record with probability `rate` (0..=1).
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_ppm = ppm(rate);
        self
    }

    /// Flips each LCR record's state with probability `rate` (0..=1).
    pub fn flip_rate(mut self, rate: f64) -> Self {
        self.flip_ppm = ppm(rate);
        self
    }

    /// Loses each whole snapshot with probability `rate` (0..=1).
    pub fn loss_rate(mut self, rate: f64) -> Self {
        self.loss_ppm = ppm(rate);
        self
    }

    /// Keeps one PBI sample in `k`.
    pub fn thin_sampler(mut self, k: u32) -> Self {
        self.sampler_keep_every = k;
        self
    }

    /// Validates the configuration. Zero-record truncation is rejected
    /// like a zero-capacity ring (use `drop_rate(1.0)` or `loss_rate` for
    /// a total blackout); ppm rates must not exceed [`PPM_SCALE`].
    pub fn validate(&self) -> Result<(), crate::context::HwConfigError> {
        use crate::context::HwConfigError;
        if self.lbr_truncate == Some(0) {
            return Err(HwConfigError::ZeroTruncation { ring: "lbr" });
        }
        if self.lcr_truncate == Some(0) {
            return Err(HwConfigError::ZeroTruncation { ring: "lcr" });
        }
        for (rate, ppm) in [
            ("drop_ppm", self.drop_ppm),
            ("flip_ppm", self.flip_ppm),
            ("loss_ppm", self.loss_ppm),
        ] {
            if ppm > PPM_SCALE {
                return Err(HwConfigError::RateOutOfRange { rate, ppm });
            }
        }
        Ok(())
    }
}

/// One run's fault injector: the configuration plus the run-private RNG
/// stream all its decisions draw from.
#[derive(Debug, Clone)]
pub struct PerturbLayer {
    config: PerturbConfig,
    rng: SplitMix64,
}

/// Mixes the configured fault-stream seed with the run's scheduler seed
/// into an independent SplitMix64 stream.
fn mix_seed(config_seed: u64, run_seed: u64) -> u64 {
    config_seed ^ run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5157_4D50_4552_5455
}

impl PerturbLayer {
    /// Builds the layer for one run, or `None` for a no-op configuration
    /// (the common case pays nothing per snapshot).
    pub fn new(config: &PerturbConfig, run_seed: u64) -> Option<Self> {
        if config.is_noop() {
            return None;
        }
        Some(PerturbLayer {
            config: *config,
            rng: SplitMix64::new(mix_seed(config.seed, run_seed)),
        })
    }

    /// Re-seeds the fault stream for a new run (the runner calls this
    /// with the workload's scheduler seed before execution starts).
    pub fn reseed(&mut self, run_seed: u64) {
        self.rng = SplitMix64::new(mix_seed(self.config.seed, run_seed));
    }

    /// Reads an LBR snapshot (records newest-first) through loss,
    /// truncation and drop; `None` = snapshot lost. `read` copies the
    /// ring and is called only once the read is known not to be lost.
    pub fn lbr_snapshot(
        &mut self,
        read: impl FnOnce() -> Vec<BranchRecord>,
    ) -> Option<Vec<BranchRecord>> {
        self.ring_read(read, self.config.lbr_truncate)
    }

    /// Reads an LCR snapshot (records newest-first) through loss,
    /// truncation, drop and flip; `None` = snapshot lost. `read` is
    /// called as in [`PerturbLayer::lbr_snapshot`].
    pub fn lcr_snapshot(
        &mut self,
        read: impl FnOnce() -> Vec<CoherenceRecord>,
    ) -> Option<Vec<CoherenceRecord>> {
        let mut records = self.ring_read(read, self.config.lcr_truncate)?;
        if self.config.flip_ppm > 0 {
            for rec in &mut records {
                if chance(&mut self.rng, self.config.flip_ppm) {
                    let pick = self.rng.next_below(MESI.len() as u64 - 1) as usize;
                    let state = rec.state;
                    rec.state = MESI
                        .into_iter()
                        .filter(|s| *s != state)
                        .nth(pick)
                        .expect("three other states");
                    stm_telemetry::counter!("perturb.states_flipped").incr();
                }
            }
        }
        Some(records)
    }

    /// The loss → truncation → drop steps both rings share.
    fn ring_read<T>(
        &mut self,
        read: impl FnOnce() -> Vec<T>,
        truncate: Option<usize>,
    ) -> Option<Vec<T>> {
        if self.config.loss_ppm > 0 && chance(&mut self.rng, self.config.loss_ppm) {
            stm_telemetry::counter!("perturb.snapshots_lost").incr();
            return None;
        }
        let mut records = read();
        if let Some(n) = truncate {
            if records.len() > n {
                stm_telemetry::counter!("perturb.records_truncated")
                    .add((records.len() - n) as u64);
                records.truncate(n);
            }
        }
        if self.config.drop_ppm > 0 {
            let before = records.len();
            records.retain(|_| !chance(&mut self.rng, self.config.drop_ppm));
            let dropped = before - records.len();
            if dropped > 0 {
                stm_telemetry::counter!("perturb.records_dropped").add(dropped as u64);
            }
        }
        Some(records)
    }

    /// Thins the PBI sampler's latched records (oldest-first) to every
    /// `sampler_keep_every`-th one.
    pub fn samples(&mut self, mut samples: Vec<CoherenceRecord>) -> Vec<CoherenceRecord> {
        let k = self.config.sampler_keep_every as usize;
        if k > 1 {
            let before = samples.len();
            let mut i = 0usize;
            samples.retain(|_| {
                let keep = i.is_multiple_of(k);
                i += 1;
                keep
            });
            stm_telemetry::counter!("perturb.samples_thinned").add((before - samples.len()) as u64);
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbr::Lbr;
    use stm_machine::events::{AccessKind, BranchEvent, BranchKind, Ring};

    fn cond(from: u64) -> BranchEvent {
        BranchEvent {
            from,
            to: from + 0x10,
            kind: BranchKind::CondJump,
            ring: Ring::User,
        }
    }

    fn coh(pc: u64, state: CoherenceState) -> CoherenceRecord {
        CoherenceRecord {
            pc,
            state,
            access: AccessKind::Load,
        }
    }

    #[test]
    fn noop_config_builds_no_layer() {
        assert!(PerturbConfig::NONE.is_noop());
        assert!(PerturbLayer::new(&PerturbConfig::NONE, 7).is_none());
        assert!(PerturbConfig::default().is_noop());
    }

    #[test]
    fn truncation_keeps_newest_prefix() {
        let mut layer =
            PerturbLayer::new(&PerturbConfig::NONE.truncate_lbr(2), 0).expect("layer built");
        let snap: Vec<BranchRecord> = (0..5).rev().map(|i| cond(i).into()).collect();
        let out = layer.lbr_snapshot(|| snap.clone()).expect("not lost");
        assert_eq!(out, snap[..2].to_vec());
    }

    /// Wrapped-ring + truncation interaction: perturbing a ring that has
    /// already wrapped must preserve newest-first order. Property-style
    /// over every ring size 1..=32 and every truncation 1..=capacity.
    #[test]
    fn wrapped_ring_truncation_preserves_newest_first_order() {
        for capacity in 1..=32usize {
            let mut lbr = Lbr::new(capacity);
            lbr.enable();
            // Overfill well past a full wrap (and a second partial one).
            let total = 2 * capacity + 3;
            for i in 0..total {
                lbr.record(cond(i as u64));
            }
            let full = lbr.read();
            assert_eq!(full.len(), capacity, "ring wraps to capacity");
            // Newest-first after wrapping: froms descend from total-1.
            let froms: Vec<u64> = full.iter().map(|r| r.from).collect();
            let expect: Vec<u64> = (0..capacity).map(|i| (total - 1 - i) as u64).collect();
            assert_eq!(froms, expect, "capacity {capacity}");
            for keep in 1..=capacity {
                let mut layer = PerturbLayer::new(&PerturbConfig::NONE.truncate_lbr(keep), 3)
                    .expect("layer built");
                let out = layer.lbr_snapshot(|| full.clone()).expect("not lost");
                assert_eq!(
                    out,
                    full[..keep].to_vec(),
                    "capacity {capacity}, truncate {keep}: newest-first prefix"
                );
            }
        }
    }

    #[test]
    fn drop_rate_one_empties_and_zero_keeps() {
        let snap: Vec<BranchRecord> = (0..8).map(|i| cond(i).into()).collect();
        let mut all = PerturbLayer::new(&PerturbConfig::NONE.drop_rate(1.0), 1).unwrap();
        assert_eq!(all.lbr_snapshot(|| snap.clone()).unwrap(), vec![]);
        // Rate 0 alone is a no-op config; combine with truncation to get
        // a live layer and check nothing is dropped.
        let cfg = PerturbConfig::NONE.truncate_lbr(8).drop_rate(0.0);
        let mut none = PerturbLayer::new(&cfg, 1).unwrap();
        assert_eq!(none.lbr_snapshot(|| snap.clone()).unwrap(), snap);
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let cfg = PerturbConfig::NONE.drop_rate(0.5);
        let snap: Vec<BranchRecord> = (0..32).map(|i| cond(i).into()).collect();
        let run = |run_seed: u64| {
            let mut layer = PerturbLayer::new(&cfg, run_seed).unwrap();
            layer.lbr_snapshot(|| snap.clone()).unwrap()
        };
        assert_eq!(run(9), run(9), "same run seed, same faults");
        assert_ne!(run(9), run(10), "different run seed, different faults");
    }

    #[test]
    fn flip_changes_state_to_a_different_mesi_state() {
        let cfg = PerturbConfig::NONE.flip_rate(1.0);
        let mut layer = PerturbLayer::new(&cfg, 5).unwrap();
        let recs: Vec<CoherenceRecord> = (0..16).map(|i| coh(i, MESI[i as usize % 4])).collect();
        let out = layer.lcr_snapshot(|| recs.clone()).unwrap();
        assert_eq!(out.len(), recs.len());
        for (a, b) in recs.iter().zip(&out) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.access, b.access);
            assert_ne!(a.state, b.state, "flip must pick a different state");
        }
    }

    #[test]
    fn loss_rate_one_loses_every_snapshot() {
        let cfg = PerturbConfig::NONE.loss_rate(1.0);
        let mut layer = PerturbLayer::new(&cfg, 2).unwrap();
        assert!(layer.lbr_snapshot(|| vec![cond(1).into()]).is_none());
        assert!(layer.lcr_snapshot(|| vec![coh(1, MESI[0])]).is_none());
    }

    #[test]
    fn sampler_thinning_keeps_every_kth() {
        let cfg = PerturbConfig::NONE.thin_sampler(3);
        let mut layer = PerturbLayer::new(&cfg, 0).unwrap();
        let samples: Vec<CoherenceRecord> =
            (0..9).map(|i| coh(i, CoherenceState::Shared)).collect();
        let out = layer.samples(samples);
        let pcs: Vec<u64> = out.iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![0, 3, 6]);
    }

    #[test]
    fn config_validation_rejects_zero_truncation_and_bad_rates() {
        assert!(PerturbConfig::NONE.validate().is_ok());
        assert!(PerturbConfig::NONE.truncate_lbr(0).validate().is_err());
        assert!(PerturbConfig::NONE.truncate_lcr(0).validate().is_err());
        let bad = PerturbConfig {
            drop_ppm: PPM_SCALE + 1,
            ..PerturbConfig::NONE
        };
        assert!(bad.validate().is_err());
        assert!(PerturbConfig::NONE.drop_rate(1.0).validate().is_ok());
    }

    #[test]
    fn reseed_replays_the_same_fault_stream() {
        let cfg = PerturbConfig::NONE.drop_rate(0.5).with_seed(77);
        let snap: Vec<BranchRecord> = (0..32).map(|i| cond(i).into()).collect();
        let mut layer = PerturbLayer::new(&cfg, 1).unwrap();
        let first = layer.lbr_snapshot(|| snap.clone()).unwrap();
        layer.reseed(1);
        assert_eq!(layer.lbr_snapshot(|| snap).unwrap(), first);
    }

    /// Pins the exact fault stream with every fault on: which reads are
    /// lost, which records survive truncation and drops, which states
    /// flip and which samples thinning keeps, across two run seeds.
    #[test]
    fn every_fault_on_pins_the_exact_stream() {
        let cfg = PerturbConfig::NONE
            .with_seed(7)
            .truncate_lbr(6)
            .truncate_lcr(5)
            .drop_rate(0.3)
            .flip_rate(0.5)
            .loss_rate(0.2)
            .thin_sampler(3);
        let lbr: Vec<BranchRecord> = (0..10).rev().map(|i| cond(i).into()).collect();
        let lcr: Vec<CoherenceRecord> =
            (0..8).rev().map(|i| coh(i, MESI[i as usize % 4])).collect();
        let samples: Vec<CoherenceRecord> =
            (0..10).map(|i| coh(i, CoherenceState::Shared)).collect();
        let render = |read: &str, kept: Option<Vec<String>>| {
            format!("{read} {}", kept.map_or("lost".into(), |k| k.join(" ")))
        };
        let mut layer = PerturbLayer::new(&cfg, 11).expect("layer built");
        let mut log = Vec::new();
        for run_seed in [11, 12] {
            layer.reseed(run_seed);
            for _ in 0..4 {
                let froms = layer
                    .lbr_snapshot(|| lbr.clone())
                    .map(|k| k.iter().map(|r| r.from.to_string()).collect());
                log.push(render("lbr", froms));
                let pairs = layer
                    .lcr_snapshot(|| lcr.clone())
                    .map(|k| k.iter().map(|r| format!("{}{}", r.pc, r.state)).collect());
                log.push(render("lcr", pairs));
                let pcs = layer.samples(samples.clone());
                log.push(render(
                    "pbi",
                    Some(pcs.iter().map(|r| r.pc.to_string()).collect()),
                ));
            }
        }
        #[rustfmt::skip]
        let expected = [
            // Run seed 11.
            "lbr 9 8 7 6 4", "lcr 7E 6M 4S 3M", "pbi 0 3 6 9",
            "lbr 9 8 7 6 5 4", "lcr 7I 6S 5E 4I 3S", "pbi 0 3 6 9",
            "lbr 9 8 6 5 4", "lcr 7E 6E 4E", "pbi 0 3 6 9",
            "lbr lost", "lcr 7I 5E 4M", "pbi 0 3 6 9",
            // Run seed 12.
            "lbr lost", "lcr lost", "pbi 0 3 6 9",
            "lbr 9 8 7 6 5", "lcr 7I 6I 5E 4S", "pbi 0 3 6 9",
            "lbr lost", "lcr 7I 6M 3E", "pbi 0 3 6 9",
            "lbr 6 5", "lcr 6I 5I", "pbi 0 3 6 9",
        ];
        assert_eq!(log, expected);
    }
}
