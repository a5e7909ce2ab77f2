//! # stm-core — LBR/LCR-based production-run failure diagnosis
//!
//! The primary contribution of the ASPLOS'14 paper, on top of
//! `stm-machine` (the execution substrate) and `stm-hardware` (the
//! monitoring unit):
//!
//! * [`transform`] — the §5.1 source-to-source instrumentation: toggling
//!   wrappers, enable-at-main, profile-before-failure-logging, fault
//!   handler registration, and the Fig. 8 success-site schemes
//!   (proactive/reactive);
//! * [`logging`] — **LBRLOG/LCRLOG**: enhanced failure logs carrying the
//!   decoded hardware short-term memory, plus the logging-latency cost
//!   model of §5.3;
//! * [`ranking`] — the §5.2 statistical model: harmonic mean of prediction
//!   precision and recall, with absence predictors;
//! * [`diagnose`] — **LBRA/LCRA**: automatic root-cause localization from
//!   10 failing + 10 passing runs;
//! * [`analysis`] — the Table 5 static useful-branch analysis;
//! * [`profile`] / [`runner`] — snapshot decoding and run orchestration.
//!
//! ## End-to-end example
//!
//! ```
//! use stm_core::prelude::*;
//! use stm_machine::builder::ProgramBuilder;
//! use stm_machine::ir::BinOp;
//!
//! // A program that logs an error whenever input 0 is negative.
//! let mut pb = ProgramBuilder::new("demo");
//! let main = pb.declare_function("main");
//! let mut f = pb.build_function(main, "demo.c");
//! let err = f.new_block();
//! let ok = f.new_block();
//! let x = f.read_input(0);
//! let neg = f.bin(BinOp::Lt, x, 0);
//! f.br(neg, err, ok);
//! f.set_block(err);
//! let site = f.log_error("negative input");
//! f.exit(1);
//! f.ret(None);
//! f.set_block(ok);
//! f.output(x);
//! f.ret(None);
//! f.finish();
//! let program = pb.finish(main);
//!
//! // Deploy with LBRA reactive instrumentation and diagnose. The
//! // session collects witness profiles (in parallel when `threads > 1`
//! // — results are bit-identical either way) and hands them to the
//! // ranker.
//! let diagnosis = DiagnosisSession::new(&program)
//!     .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
//!     .failure(FailureSpec::ErrorLogAt(site))
//!     .failing(vec![Workload::new(vec![-1])])
//!     .passing(vec![Workload::new(vec![1])])
//!     .collect()
//!     .expect("collection succeeds")
//!     .lbra();
//! let top = diagnosis.top().expect("a top predictor");
//! assert_eq!(top.score, 1.0); // the guard branch perfectly predicts failure
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod converge;
pub mod diagnose;
pub mod engine;
pub mod logging;
pub mod profile;
pub mod ranking;
pub mod runner;
pub mod transform;

/// Convenient re-exports for downstream users.
///
/// This is the blessed public surface: the [`DiagnosisSession`] engine,
/// the [`Quotas`] it and the fleet daemon share, and the whole
/// [`converge`] module (convergence tracking, stability policies, the
/// snapshot-level [`SnapshotIngest`] entry
/// point). The PR-3 era free functions (`lbra`, `lcra`,
/// `find_workloads`) are gone; every caller goes through a session or a
/// snapshot ingest.
pub mod prelude {
    pub use crate::analysis::{useful_branch_ratio, UsefulBranchReport};
    pub use crate::converge::*;
    pub use crate::diagnose::{Diagnosis, DiagnosisStats, LbraDiagnosis, LcraDiagnosis, Quotas};
    pub use crate::engine::{
        CollectedProfiles, CollectedRun, DiagnosisSession, ProfileKind, SessionError,
    };
    pub use crate::logging::{
        failure_log, render_failure_log, run_and_log, FailureLog, LogPayload,
    };
    pub use crate::profile::{BranchOutcome, CoherenceEvent};
    pub use crate::ranking::{Polarity, RankedEvent, RankingModel};
    pub use crate::runner::{classify, FailureSpec, RunClass, Runner, Workload};
    pub use crate::transform::{instrument, InstrumentOptions, SuccessSites};
}

pub use prelude::*;
