//! The health state machine: `healthy / degraded / failing` derived from
//! the live telemetry registry.
//!
//! The model follows the memory-ops runbook shape the ROADMAP's streaming
//! daemon commits to: a pipeline is **failing** once its consecutive
//! failure streak reaches the failing threshold (default 3), **degraded**
//! on any single failure, a saturated queue, or collapsed throughput
//! while work is queued, and **healthy** otherwise. Escalation is
//! immediate; de-escalation requires [`HealthThresholds::recovery_observations`]
//! consecutive calmer observations (hysteresis), so one clean poll never
//! masks a flapping pipeline.
//!
//! All thresholds are explicit, inspectable fields — no magic numbers
//! buried in match arms — and every transition records its reasons.

use stm_telemetry::json::Json;
use stm_telemetry::MetricsSnapshot;

/// Pipeline health, ordered by severity (`Healthy < Degraded < Failing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Quotas filling, queue bounded, no recent session failures.
    Healthy,
    /// Continuing, but an operator should look: a session failed or
    /// lost profiles, the queue is saturated, or throughput collapsed.
    Degraded,
    /// Consecutive session failures reached the failing threshold; stop
    /// feeding work and investigate (see RUNBOOK.md).
    Failing,
}

impl HealthState {
    /// The lowercase name used in the JSON snapshot.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failing => "failing",
        }
    }
}

/// Explicit transition thresholds. Every comparison the state machine
/// makes reads one of these fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthThresholds {
    /// `failure_streak >= degraded_streak` → at least [`HealthState::Degraded`].
    pub degraded_streak: i64,
    /// `failure_streak >= failing_streak` → [`HealthState::Failing`]
    /// (the runbook's "3 consecutive failed cycles" rule).
    pub failing_streak: i64,
    /// `queue_depth > max_queue_depth` → at least degraded: workers are
    /// not keeping up with dispatch.
    pub max_queue_depth: i64,
    /// With work queued, `runs_per_sec < min_runs_per_sec` → at least
    /// degraded: throughput collapsed while jobs wait.
    pub min_runs_per_sec: f64,
    /// Consecutive observations strictly calmer than the current state
    /// required before de-escalating (hysteresis).
    pub recovery_observations: u32,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            degraded_streak: 1,
            failing_streak: 3,
            max_queue_depth: 64,
            min_runs_per_sec: 1.0,
            recovery_observations: 2,
        }
    }
}

/// One poll of the pipeline: the gauge/counter-derived inputs the state
/// machine classifies. Plain data, so tests drive the machine without a
/// live registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// `engine.queue_depth` gauge: jobs dispatched but not yet consumed.
    pub queue_depth: i64,
    /// `engine.failure_streak` gauge: consecutive sessions that errored
    /// or lost profiles (`CtlResponse::Lost`), reset by a clean session.
    pub failure_streak: i64,
    /// Runs per second derived from the `engine.runs` counter delta
    /// between polls; `None` on the first poll.
    pub runs_per_sec: Option<f64>,
    /// `engine.workers_busy` gauge: workers currently executing a job.
    pub workers_busy: i64,
    /// `engine.workers` gauge: the running session's worker count (0
    /// outside a session; idle pool workers do not count).
    pub workers: i64,
}

impl Observation {
    /// Builds an observation from a registry snapshot plus the poll-rate
    /// context the snapshot alone cannot carry.
    pub fn from_snapshot(m: &MetricsSnapshot, runs_per_sec: Option<f64>) -> Observation {
        Observation {
            queue_depth: m.gauge("engine.queue_depth").unwrap_or(0),
            failure_streak: m.gauge("engine.failure_streak").unwrap_or(0),
            runs_per_sec,
            workers_busy: m.gauge("engine.workers_busy").unwrap_or(0),
            workers: m.gauge("engine.workers").unwrap_or(0),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("failure_streak", Json::Num(self.failure_streak as f64)),
            (
                "runs_per_sec",
                self.runs_per_sec.map_or(Json::Null, Json::Num),
            ),
            ("workers_busy", Json::Num(self.workers_busy as f64)),
            ("workers", Json::Num(self.workers as f64)),
        ])
    }
}

/// One recorded state change.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// 1-based observation number at which the change took effect.
    pub seq: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Why (the triggering observation's reasons; empty on recovery).
    pub reasons: Vec<String>,
}

impl Transition {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("from", Json::from(self.from.as_str())),
            ("to", Json::from(self.to.as_str())),
            (
                "reasons",
                Json::Arr(
                    self.reasons
                        .iter()
                        .map(|r| Json::from(r.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// How many recent transitions the JSON snapshot carries.
const SNAPSHOT_TRANSITIONS: usize = 8;

/// The result of one [`HealthEngine::observe`]: the machine's state plus
/// this observation's raw severity and reasons.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The state machine's state (hysteresis applied).
    pub state: HealthState,
    /// This observation's severity alone, before hysteresis.
    pub raw: HealthState,
    /// Why `raw` is above healthy; empty for a clean observation.
    pub reasons: Vec<String>,
    /// The classified inputs.
    pub observation: Observation,
    /// 1-based observation number.
    pub seq: u64,
    /// Most recent transitions, oldest first (at most 8).
    pub transitions: Vec<Transition>,
}

impl HealthReport {
    /// The `/health` endpoint's JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("state", Json::from(self.state.as_str())),
            ("raw", Json::from(self.raw.as_str())),
            (
                "reasons",
                Json::Arr(
                    self.reasons
                        .iter()
                        .map(|r| Json::from(r.as_str()))
                        .collect(),
                ),
            ),
            ("observed", self.observation.to_json()),
            (
                "last_cycle_failed",
                Json::Bool(self.observation.failure_streak > 0),
            ),
            ("seq", Json::from(self.seq)),
            (
                "transitions",
                Json::Arr(self.transitions.iter().map(Transition::to_json).collect()),
            ),
        ])
    }
}

/// The stateful health model: feed it [`Observation`]s, read the state.
#[derive(Debug)]
pub struct HealthEngine {
    thresholds: HealthThresholds,
    state: HealthState,
    /// Consecutive observations strictly calmer than `state`.
    calm: u32,
    seq: u64,
    transitions: Vec<Transition>,
}

impl Default for HealthEngine {
    fn default() -> Self {
        HealthEngine::new(HealthThresholds::default())
    }
}

impl HealthEngine {
    /// A fresh engine (state [`HealthState::Healthy`]) with the given
    /// thresholds.
    pub fn new(thresholds: HealthThresholds) -> HealthEngine {
        HealthEngine {
            thresholds,
            state: HealthState::Healthy,
            calm: 0,
            seq: 0,
            transitions: Vec::new(),
        }
    }

    /// The thresholds in force.
    pub fn thresholds(&self) -> &HealthThresholds {
        &self.thresholds
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Every transition recorded so far, oldest first.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Classifies one observation in isolation: its severity and the
    /// reasons. Pure — no state machine involved.
    pub fn classify(&self, obs: &Observation) -> (HealthState, Vec<String>) {
        let t = &self.thresholds;
        let mut state = HealthState::Healthy;
        let mut reasons = Vec::new();
        if obs.failure_streak >= t.failing_streak {
            state = HealthState::Failing;
            reasons.push(format!(
                "failure_streak {} reached failing threshold {}",
                obs.failure_streak, t.failing_streak
            ));
        } else if obs.failure_streak >= t.degraded_streak {
            state = HealthState::Degraded;
            reasons.push(format!(
                "failure_streak {} reached degraded threshold {}",
                obs.failure_streak, t.degraded_streak
            ));
        }
        if obs.queue_depth > t.max_queue_depth {
            state = state.max(HealthState::Degraded);
            reasons.push(format!(
                "queue_depth {} above limit {}",
                obs.queue_depth, t.max_queue_depth
            ));
        }
        if let Some(rps) = obs.runs_per_sec {
            if obs.queue_depth > 0 && rps < t.min_runs_per_sec {
                state = state.max(HealthState::Degraded);
                reasons.push(format!(
                    "runs_per_sec {rps:.2} below floor {} with {} jobs queued",
                    t.min_runs_per_sec, obs.queue_depth
                ));
            }
        }
        (state, reasons)
    }

    /// Feeds one observation through the state machine and reports.
    ///
    /// Escalation (raw severity above the current state) takes effect
    /// immediately. De-escalation waits for
    /// [`HealthThresholds::recovery_observations`] *consecutive* calmer
    /// observations, then drops straight to the latest raw severity.
    pub fn observe(&mut self, obs: Observation) -> HealthReport {
        self.seq += 1;
        let (raw, reasons) = self.classify(&obs);
        if raw > self.state {
            self.record(raw, reasons.clone());
        } else if raw < self.state {
            self.calm += 1;
            if self.calm >= self.thresholds.recovery_observations {
                self.record(raw, reasons.clone());
            }
        } else {
            self.calm = 0;
        }
        let tail = self.transitions.len().saturating_sub(SNAPSHOT_TRANSITIONS);
        HealthReport {
            state: self.state,
            raw,
            reasons,
            observation: obs,
            seq: self.seq,
            transitions: self.transitions[tail..].to_vec(),
        }
    }

    fn record(&mut self, to: HealthState, reasons: Vec<String>) {
        self.transitions.push(Transition {
            seq: self.seq,
            from: self.state,
            to,
            reasons,
        });
        self.state = to;
        self.calm = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(queue_depth: i64, failure_streak: i64, runs_per_sec: Option<f64>) -> Observation {
        Observation {
            queue_depth,
            failure_streak,
            runs_per_sec,
            workers_busy: 0,
            workers: 0,
        }
    }

    #[test]
    fn stays_healthy_on_clean_observations() {
        let mut e = HealthEngine::default();
        for _ in 0..5 {
            let r = e.observe(obs(3, 0, Some(120.0)));
            assert_eq!(r.state, HealthState::Healthy);
            assert!(r.reasons.is_empty());
        }
        assert!(e.transitions().is_empty());
    }

    #[test]
    fn failure_streak_walks_healthy_degraded_failing() {
        // The explicit threshold walk: streak 1 degrades (degraded_streak),
        // streak 3 fails (failing_streak) — each escalation immediate.
        let mut e = HealthEngine::default();
        assert_eq!(e.thresholds().degraded_streak, 1);
        assert_eq!(e.thresholds().failing_streak, 3);
        assert_eq!(e.observe(obs(0, 0, None)).state, HealthState::Healthy);
        let r = e.observe(obs(0, 1, None));
        assert_eq!(r.state, HealthState::Degraded);
        assert!(r.reasons[0].contains("failure_streak 1"), "{:?}", r.reasons);
        assert_eq!(e.observe(obs(0, 2, None)).state, HealthState::Degraded);
        let r = e.observe(obs(0, 3, None));
        assert_eq!(r.state, HealthState::Failing);
        assert!(
            r.reasons[0].contains("failing threshold 3"),
            "{:?}",
            r.reasons
        );
        let walk: Vec<_> = e.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            walk,
            vec![
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Failing),
            ]
        );
    }

    #[test]
    fn recovery_needs_consecutive_calm_observations() {
        let mut e = HealthEngine::default();
        e.observe(obs(0, 3, None));
        assert_eq!(e.state(), HealthState::Failing);
        // One clean poll is not recovery (recovery_observations = 2)...
        assert_eq!(e.observe(obs(0, 0, None)).state, HealthState::Failing);
        // ...and a relapse resets the calm count.
        assert_eq!(e.observe(obs(0, 3, None)).state, HealthState::Failing);
        assert_eq!(e.observe(obs(0, 0, None)).state, HealthState::Failing);
        // The second *consecutive* calm poll de-escalates to its raw state.
        let r = e.observe(obs(0, 0, None));
        assert_eq!(r.state, HealthState::Healthy);
        let last = e.transitions().last().unwrap();
        assert_eq!(
            (last.from, last.to),
            (HealthState::Failing, HealthState::Healthy)
        );
        assert!(last.reasons.is_empty(), "recovery carries no fault reasons");
    }

    #[test]
    fn saturated_queue_degrades_and_recovers() {
        let mut e = HealthEngine::default();
        let limit = e.thresholds().max_queue_depth;
        let r = e.observe(obs(limit + 1, 0, Some(50.0)));
        assert_eq!(r.state, HealthState::Degraded);
        assert!(r.reasons[0].contains("queue_depth"), "{:?}", r.reasons);
        e.observe(obs(limit, 0, Some(50.0)));
        let r = e.observe(obs(0, 0, Some(50.0)));
        assert_eq!(r.state, HealthState::Healthy);
    }

    #[test]
    fn collapsed_throughput_with_queued_work_degrades() {
        let mut e = HealthEngine::default();
        // Below the floor but the queue is empty: idle, not degraded.
        assert_eq!(e.observe(obs(0, 0, Some(0.0))).state, HealthState::Healthy);
        // Below the floor with work queued: degraded.
        let r = e.observe(obs(5, 0, Some(0.2)));
        assert_eq!(r.state, HealthState::Degraded);
        assert!(r.reasons[0].contains("runs_per_sec"), "{:?}", r.reasons);
        // Unknown rate (first poll) never trips the floor.
        let mut fresh = HealthEngine::default();
        assert_eq!(fresh.observe(obs(5, 0, None)).state, HealthState::Healthy);
    }

    #[test]
    fn raw_severity_and_hysteresis_are_both_reported() {
        let mut e = HealthEngine::default();
        e.observe(obs(0, 3, None));
        let r = e.observe(obs(0, 0, None));
        assert_eq!(r.state, HealthState::Failing, "hysteresis holds the state");
        assert_eq!(r.raw, HealthState::Healthy, "raw severity is this poll's");
    }

    #[test]
    fn health_report_serialises_the_runbook_shape() {
        let mut e = HealthEngine::default();
        e.observe(obs(0, 1, None));
        let r = e.observe(obs(2, 1, Some(42.0)));
        let j = r.to_json();
        assert_eq!(j.get("state").and_then(Json::as_str), Some("degraded"));
        assert_eq!(j.get("last_cycle_failed"), Some(&Json::Bool(true)));
        let observed = j.get("observed").expect("observed");
        assert_eq!(
            observed.get("queue_depth").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            observed.get("runs_per_sec").and_then(Json::as_f64),
            Some(42.0)
        );
        let transitions = j.get("transitions").and_then(Json::as_array).unwrap();
        assert_eq!(transitions.len(), 1);
        assert_eq!(
            transitions[0].get("to").and_then(Json::as_str),
            Some("degraded")
        );
        // The document round-trips through the strict parser.
        assert_eq!(Json::parse(&j.encode()).unwrap(), j);
    }

    #[test]
    fn observation_reads_the_live_registry_names() {
        let m = MetricsSnapshot {
            counters: vec![("engine.runs".to_string(), 400)],
            histograms: vec![],
            gauges: vec![
                ("engine.failure_streak".to_string(), 2),
                ("engine.queue_depth".to_string(), 9),
                ("engine.workers".to_string(), 8),
                ("engine.workers_busy".to_string(), 5),
            ],
        };
        let o = Observation::from_snapshot(&m, Some(10.0));
        assert_eq!(o.queue_depth, 9);
        assert_eq!(o.failure_streak, 2);
        assert_eq!(o.workers, 8);
        assert_eq!(o.workers_busy, 5);
        assert_eq!(o.runs_per_sec, Some(10.0));
    }
}
