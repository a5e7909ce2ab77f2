//! # stm-hardware — the simulated performance-monitoring unit
//!
//! Implements the hardware short-term-memory facilities of the ASPLOS'14
//! paper behind the [`Hardware`](stm_machine::events::Hardware) trait of
//! `stm-machine`:
//!
//! * [`lbr`] — the existing **Last Branch Record** facility: per-core rings
//!   of the last 16 taken branches with `LBR_SELECT` filtering (Table 1);
//! * [`bts`] — the **Branch Trace Store**, the whole-execution alternative
//!   the paper rejects for its 20–100% overhead;
//! * [`cache`] — the coherent multi-core **MESI L1** system (2-way, 64 B
//!   lines, 64 KB/core, as in the paper's simulator);
//! * [`lcr`] — the proposed **Last Cache-coherence Record** extension:
//!   per-thread rings of `(pc, observed MESI state)` pairs, with the
//!   paper's driver-pollution model;
//! * [`counters`] — coherence-event **performance counters** and the
//!   interrupt-sampling mechanism the PBI baseline relies on;
//! * [`perturb`] — the **fault-injection layer** degrading snapshots at
//!   read time for sensitivity studies, in one fixed pass per read
//!   (whole-snapshot loss, ring truncation, entry drop, then
//!   coherence-state flips; sampler thinning for PBI reads);
//! * [`context`] — [`HardwareCtx`], the assembled unit the interpreter
//!   drives.
//!
//! ## Example
//!
//! ```
//! use stm_hardware::HardwareCtx;
//! use stm_machine::events::{Hardware, HwCtlOp, CtlResponse, BranchEvent, BranchKind, Ring};
//! use stm_machine::ids::{CoreId, ThreadId};
//!
//! let mut hw = HardwareCtx::with_defaults();
//! hw.ctl(CoreId(0), ThreadId::MAIN, HwCtlOp::EnableLbr);
//! hw.on_branch(CoreId(0), BranchEvent {
//!     from: 0x400000, to: 0x400010, kind: BranchKind::CondJump, ring: Ring::User,
//! });
//! let CtlResponse::Lbr(snapshot) = hw.ctl(CoreId(0), ThreadId::MAIN, HwCtlOp::ProfileLbr)
//! else { unreachable!() };
//! assert_eq!(snapshot.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bts;
pub mod cache;
pub mod context;
pub mod counters;
pub mod lbr;
pub mod lcr;
pub mod perturb;

pub use bts::Bts;
pub use cache::{CacheConfig, CacheSystem, HeldState};
pub use context::{HardwareCtx, HwConfig, HwConfigError};
pub use counters::{CoherenceSampler, PerfCounters};
pub use lbr::{Lbr, NEHALEM_ENTRIES};
pub use lcr::{Lcr, DEFAULT_ENTRIES};
pub use perturb::{PerturbConfig, PerturbLayer};
