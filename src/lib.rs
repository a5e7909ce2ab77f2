//! # stm — short-term-memory failure diagnosis
//!
//! A complete Rust reproduction of *"Leveraging the Short-Term Memory of
//! Hardware to Diagnose Production-Run Software Failures"* (Arulraj, Jin,
//! Lu — ASPLOS 2014): the LBR/LCR hardware facilities, the LBRLOG/LCRLOG
//! log-enhancement and LBRA/LCRA automatic-diagnosis systems built on
//! them, the CBI/CCI/PBI baselines, and the 31-failure benchmark suite the
//! paper evaluates on.
//!
//! This crate is a facade: it re-exports the workspace members so
//! downstream users depend on one crate.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`machine`] | `stm-machine` | deterministic multithreaded IR machine |
//! | [`hardware`] | `stm-hardware` | LBR, BTS, MESI caches, LCR, counters |
//! | [`core`] | `stm-core` | instrumentation, LBRLOG/LCRLOG, LBRA/LCRA |
//! | [`baselines`] | `stm-baselines` | CBI, CCI, PBI |
//! | [`suite`] | `stm-suite` | the 31 Table 4 failures with ground truth |
//! | [`telemetry`] | `stm-telemetry` | tracing, metrics, trace export |
//! | [`forensics`] | `stm-forensics` | failure dossiers, explainable reports, causal chains |
//! | [`fleet`] | `stm-fleet` | long-lived sharded ingest daemon with explicit backpressure |
//! | [`profiler`] | `stm-profiler` | guest sampling profiles, pipeline critical-path attribution |
//! | [`observatory`] | `stm-observatory` | live health model, `/metrics` + `/health` endpoint, status board |
//!
//! ## Quickstart
//!
//! ```
//! use stm::core::prelude::*;
//! use stm::machine::builder::ProgramBuilder;
//! use stm::machine::ir::BinOp;
//!
//! // A buggy program: rejects timeout 0 with an error message.
//! let mut pb = ProgramBuilder::new("demo");
//! let main = pb.declare_function("main");
//! let mut f = pb.build_function(main, "demo.c");
//! let err = f.new_block();
//! let ok = f.new_block();
//! let t = f.read_input(0);
//! let bad = f.bin(BinOp::Le, t, 0); // root cause: should be `<`
//! f.br(bad, err, ok);
//! f.set_block(err);
//! let site = f.log_error("timeout must be positive");
//! f.exit(1);
//! f.ret(None);
//! f.set_block(ok);
//! f.output(t);
//! f.ret(None);
//! f.finish();
//! let program = pb.finish(main);
//!
//! // Deploy with LBRA instrumentation and diagnose from 10+10 runs.
//! // The session collects profiles (in parallel with `.threads(k)`;
//! // results are bit-identical to sequential) and hands them to the
//! // ranker.
//! let diagnosis = DiagnosisSession::new(&program)
//!     .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
//!     .failure(FailureSpec::ErrorLogAt(site))
//!     .failing(vec![Workload::new(vec![0])])
//!     .passing(vec![Workload::new(vec![5])])
//!     .collect()
//!     .expect("collection succeeds")
//!     .lbra();
//! assert_eq!(diagnosis.top().unwrap().score, 1.0);
//! ```

#![warn(missing_docs)]

pub use stm_baselines as baselines;
pub use stm_core as core;
pub use stm_fleet as fleet;
pub use stm_forensics as forensics;
pub use stm_hardware as hardware;
pub use stm_machine as machine;
pub use stm_observatory as observatory;
pub use stm_profiler as profiler;
pub use stm_suite as suite;
pub use stm_telemetry as telemetry;
