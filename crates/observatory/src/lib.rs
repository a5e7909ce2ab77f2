//! # stm-observatory
//!
//! Live observability for the diagnosis pipeline: a health model over
//! the `stm-telemetry` registry, a std-only HTTP endpoint exposing it,
//! and the client pieces of the `stm_watch` status board.
//!
//! | module | provides |
//! |---|---|
//! | [`health`] | `healthy` / `degraded` / `failing` state machine with explicit thresholds and reasons |
//! | [`prom`] | Prometheus text exposition (0.0.4) for a [`stm_telemetry::MetricsSnapshot`] |
//! | [`server`] | [`MetricsServer`]: `TcpListener` serving `/metrics`, `/health`, `/events` |
//! | [`watch`] | HTTP GET, Prometheus parser, and board renderer for `stm_watch` |
//!
//! The crate reads the process-global telemetry registry; it never
//! writes metrics of its own, so enabling the endpoint cannot perturb
//! the measurements it reports (`telemetry_overhead` times a workload
//! while an endpoint serves scrapes).
//!
//! ```
//! use stm_observatory::{HealthEngine, HealthState, Observation};
//!
//! let mut engine = HealthEngine::default();
//! let report = engine.observe(Observation {
//!     queue_depth: 0,
//!     failure_streak: 0,
//!     runs_per_sec: Some(250.0),
//!     workers_busy: 0,
//!     workers: 4,
//! });
//! assert_eq!(report.state, HealthState::Healthy);
//! ```

#![warn(missing_docs)]

pub mod health;
pub mod prom;
pub mod server;
pub mod watch;

pub use health::{HealthEngine, HealthReport, HealthState, HealthThresholds, Observation};
pub use server::MetricsServer;
