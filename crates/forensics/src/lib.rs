//! # stm-forensics — evidence trails for production-run diagnosis
//!
//! The diagnosis pipeline (`stm-core`) answers *what* predicts a failure;
//! this crate preserves *why* — the forensic artifacts a developer (or a
//! regression gate) needs to trust a rank number:
//!
//! * [`dossier`] — the **failure flight recorder**: a [`FailureDossier`]
//!   assembled at diagnosis time from one failed run's [`RunReport`],
//!   bundling the failing instruction, the decoded LBR/LCR ring contents
//!   (branch → source location, coherence event → MESI transition), the
//!   executed log calls and each thread's last-instruction context;
//! * [`report`] — the **explainable ranking report**: the top-K
//!   [`RankedEvent`]s of an LBRA/LCRA diagnosis rendered with their full
//!   evidence (precision/recall split, match counts, supporting run ids)
//!   as strict JSON and as markdown with a "why ranked here" section;
//! * [`chain`] — the **causal-chain reconstructor**: from the top-ranked
//!   predictor, a backward walk through the failing witnesses' decoded
//!   ring snapshots to an ordered root-cause → propagation → failure
//!   [`CausalChain`] whose every link carries typed evidence (witness
//!   positions, the branch edge or MESI transition it rides on, and a
//!   precision/recall support score against the passing population).
//!
//! Everything serializes through [`stm_telemetry::json`] — the build is
//! offline, so no serde.
//!
//! [`RunReport`]: stm_machine::report::RunReport
//! [`RankedEvent`]: stm_core::ranking::RankedEvent
//! [`FailureDossier`]: dossier::FailureDossier
//! [`CausalChain`]: chain::CausalChain

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod dossier;
pub mod report;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::chain::{CausalChain, ChainLink, LinkRole, WitnessMark};
    pub use crate::dossier::{mesi_transition, FailureDossier, MesiTransition};
    pub use crate::report::{EvidenceRow, ForensicReport, RankingReport};
}

pub use prelude::*;
