//! # stm-baselines — the statistical-debugging systems the paper compares
//! against
//!
//! * [`cbi`](mod@crate::cbi) — Cooperative Bug Isolation: source-instrumented branch
//!   predicates under 1/100 sampling (Table 6's comparison column);
//! * [`pbi`](mod@crate::pbi) — hardware performance-counter sampling of coherence
//!   predicates (the ASPLOS'13 predecessor system, §7.3);
//! * [`cci`](mod@crate::cci) — software-sampled communication predicates (§7.3);
//! * [`scoring`] — the shared Liblit'05 `Importance` model, the one
//!   collection loop and the [`Diagnosis`] all three return.
//!
//! All three share the same collection loop and statistical core and
//! differ only in *how* a run's predicates are sampled — which is exactly
//! where the diagnosis-latency gap against LBRA/LCRA comes from: a sampled
//! predicate must fire in many failing runs before it becomes rankable,
//! while LBR/LCR capture it deterministically at the first failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cbi;
pub mod cci;
pub mod pbi;
pub mod scoring;

pub use cbi::{cbi, instrument_cbi, BranchPredicate};
pub use cci::{cci, PrevPredicate};
pub use pbi::{pbi, CoherencePredicate};
pub use scoring::{Diagnosis, ScoredPredicate};
