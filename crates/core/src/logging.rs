//! LBRLOG / LCRLOG: the log-enhancement face of the system (§5.1), plus
//! the logging-latency cost model of §5.3.
//!
//! LBRLOG and LCRLOG attach the hardware short-term memory to every
//! failure log: this module turns a failed run's report into a
//! developer-facing [`FailureLog`] — decoded ring entries next to the
//! failure symptom — and answers Table 6/7's question "at which position
//! does the ring contain the root cause?".

use crate::profile::{
    decode_lbr, decode_lcr, render_lbr_log, render_lcr_log, DecodedLbrEntry, DecodedLcrEntry,
};
use crate::runner::{Runner, Workload};
use stm_machine::events::CoherenceState;
use stm_machine::ids::BranchId;
use stm_machine::ir::SourceLoc;
use stm_machine::report::{ProfileData, ProfileEvent, RunReport};

/// The enhanced failure log of one failed run.
#[derive(Debug, Clone, Default)]
pub struct FailureLog {
    /// Human-readable failure symptom.
    pub symptom: String,
    /// Decoded LBR entries, most recent first (when LBR was deployed).
    pub lbr: Vec<DecodedLbrEntry>,
    /// Decoded LCR entries, most recent first (when LCR was deployed).
    pub lcr: Vec<DecodedLcrEntry>,
}

impl FailureLog {
    /// Position (1 = most recent) of the first LBR entry proving an
    /// outcome of `branch` — the `n` of Table 6's `✓ n`.
    pub fn lbr_position_of_branch(&self, branch: BranchId) -> Option<usize> {
        self.lbr
            .iter()
            .find(|e| e.branch_outcome().map(|b| b.branch) == Some(branch))
            .map(|e| e.position)
    }

    /// Position (1 = most recent) of the first LCR entry matching a
    /// location and observed state — the `n` of Table 7's `✓ n`.
    pub fn lcr_position_of_event(&self, loc: SourceLoc, state: CoherenceState) -> Option<usize> {
        self.lcr
            .iter()
            .find(|e| e.event.loc == loc && e.event.state == state)
            .map(|e| e.position)
    }
}

/// Builds the enhanced failure log from a failed run's report.
///
/// Returns `None` when the run collected no failure-site profile (e.g. it
/// did not fail).
pub fn failure_log(runner: &Runner, report: &RunReport) -> Option<FailureLog> {
    failure_log_where(runner, report, |_| true)
}

/// Builds the enhanced failure log from the profile matching a specific
/// failure specification — use this when a run logs several errors and
/// only the target site's snapshot matters (the per-failure-site grouping
/// of §5.3).
pub fn failure_log_for(
    runner: &Runner,
    report: &RunReport,
    spec: &crate::runner::FailureSpec,
) -> Option<FailureLog> {
    // Decode strictly the spec's own site, so a run that also logged
    // *other* errors cannot leak their rings in.
    let target = crate::diagnose::failure_profile(report, spec)?.site;
    failure_log_where(runner, report, |p| p.site == target)
}

/// The failure log over the failure-site profiles `keep` selects, each
/// ring decoded once; a later profile of the same ring kind replaces an
/// earlier one. `None` when `keep` selects none.
fn failure_log_where(
    runner: &Runner,
    report: &RunReport,
    keep: impl Fn(&ProfileEvent) -> bool,
) -> Option<FailureLog> {
    let program = runner.machine().program();
    let layout = runner.machine().layout();
    let symptom = match &report.outcome {
        stm_machine::report::RunOutcome::Failed(f) => {
            format!(
                "{} in {} at {}",
                f.kind,
                program.function(f.func).name,
                program.render_loc(f.loc)
            )
        }
        stm_machine::report::RunOutcome::Completed { exit_code } => {
            format!("exited with code {exit_code}")
        }
    };
    let mut log = FailureLog {
        symptom,
        ..FailureLog::default()
    };
    let mut any = false;
    for p in report
        .profiles_with_role(stm_machine::ir::ProfileRole::FailureSite)
        .filter(|p| keep(p))
    {
        match &p.data {
            ProfileData::Lbr(records) => log.lbr = decode_lbr(layout, records),
            ProfileData::Lcr(records) => log.lcr = decode_lcr(layout, records),
        }
        any = true;
    }
    any.then_some(log)
}

/// Runs one failing workload and returns its enhanced failure log.
pub fn run_and_log(runner: &Runner, workload: &Workload) -> Option<FailureLog> {
    let report = runner.run(workload);
    failure_log(runner, &report)
}

/// Renders the full enhanced log as text (what the developer reads).
pub fn render_failure_log(runner: &Runner, log: &FailureLog) -> String {
    let program = runner.machine().program();
    let mut out = format!("FAILURE: {}\n", log.symptom);
    if !log.lbr.is_empty() {
        out.push_str("LBR (most recent first):\n");
        out.push_str(&render_lbr_log(program, &log.lbr));
    }
    if !log.lcr.is_empty() {
        out.push_str("LCR (most recent first):\n");
        out.push_str(&render_lcr_log(program, &log.lcr));
    }
    out
}

// ---------------------------------------------------------------------------
// Logging-latency cost model (§5.3: LBR/LCR < 20 µs, call stack ≈ 200 µs,
// coredump > 200 ms). The byte volumes below drive the `logging_latency`
// bench: what each scheme must serialize at the failure site.
// ---------------------------------------------------------------------------

/// What one logging scheme must persist at the failure site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogPayload {
    /// The 16-entry LBR/LCR ring: `entries` records of two words each.
    ShortTermMemory {
        /// Number of ring entries.
        entries: usize,
    },
    /// A call-stack walk of `frames` return addresses plus symbolization.
    CallStack {
        /// Stack depth.
        frames: usize,
    },
    /// A full coredump of the mapped image.
    Coredump {
        /// Mapped bytes to serialize.
        bytes: u64,
    },
}

impl LogPayload {
    /// Bytes this payload serializes at the failure site.
    pub fn byte_volume(&self) -> u64 {
        match self {
            LogPayload::ShortTermMemory { entries } => (*entries as u64) * 16,
            // Return address + symbol-table lookup record per frame.
            LogPayload::CallStack { frames } => (*frames as u64) * 64,
            LogPayload::Coredump { bytes } => *bytes,
        }
    }

    /// Materializes the payload (the work the failure handler performs);
    /// used by the latency bench to measure relative costs.
    pub fn materialize(&self) -> Vec<u8> {
        let n = self.byte_volume() as usize;
        let mut buf = vec![0u8; n];
        // Touch every byte, as serialization would.
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::InstrumentOptions;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    fn failing_runner() -> (Runner, BranchId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
            let x = f.read_input(0);
            let c = f.bin(BinOp::Lt, x, 0);
            f.at(9);
            f.br(c, err, ok);
            f.set_block(err);
            f.at(10);
            f.log_error("boom");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let root = p.branches[0].id;
        (Runner::instrumented(&p, &InstrumentOptions::lbrlog()), root)
    }

    #[test]
    fn failure_log_contains_root_branch() {
        let (runner, root) = failing_runner();
        let log = run_and_log(&runner, &Workload::new(vec![-3])).unwrap();
        let pos = log.lbr_position_of_branch(root).unwrap();
        assert_eq!(pos, 1, "the guard branch is the most recent record");
        let text = render_failure_log(&runner, &log);
        assert!(text.contains("LBR"), "{text}");
    }

    #[test]
    fn successful_run_produces_no_failure_log() {
        let (runner, _) = failing_runner();
        assert!(run_and_log(&runner, &Workload::new(vec![5])).is_none());
    }

    #[test]
    fn payload_volumes_are_ordered_like_the_paper() {
        let lbr = LogPayload::ShortTermMemory { entries: 16 };
        let stack = LogPayload::CallStack { frames: 40 };
        let core = LogPayload::Coredump {
            bytes: 64 * 1024 * 1024,
        };
        assert!(lbr.byte_volume() < stack.byte_volume());
        assert!(stack.byte_volume() < core.byte_volume());
        assert_eq!(lbr.materialize().len(), 256);
    }
}
