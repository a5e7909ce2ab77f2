//! Decoding raw LBR/LCR snapshots into source-level events.
//!
//! A raw LBR snapshot is a list of `(from, to)` address pairs; a raw LCR
//! snapshot is a list of `(pc, state, access)` records. The diagnosis
//! system reasons about *source-level events*: (conditional branch,
//! outcome) pairs for LBR and (source location, state, access kind) triples
//! for LCR. This module performs the mapping through the program's
//! [`Layout`].

use std::collections::BTreeSet;
use std::fmt;
use stm_machine::events::{AccessKind, BranchRecord, CoherenceRecord, CoherenceState};
use stm_machine::ids::BranchId;
use stm_machine::ir::{Program, SourceLoc};
use stm_machine::layout::{Decoded, Layout};

/// A source-level branch event: a conditional branch together with the
/// outcome an LBR record proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchOutcome {
    /// The source branch.
    pub branch: BranchId,
    /// `true` = the then-edge was taken.
    pub outcome: bool,
}

impl fmt::Display for BranchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={}",
            self.branch,
            if self.outcome { "true" } else { "false" }
        )
    }
}

/// A source-level coherence event: the location of an access plus the MESI
/// state it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoherenceEvent {
    /// Source location of the access (unknown for driver pollution).
    pub loc: SourceLoc,
    /// The observed MESI state.
    pub state: CoherenceState,
    /// Load or store.
    pub access: AccessKind,
}

impl fmt::Display for CoherenceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.access, self.loc, self.state)
    }
}

/// One decoded entry of an LBR snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedLbrEntry {
    /// Position in the snapshot: 1 = most recent.
    pub position: usize,
    /// The raw record.
    pub record: BranchRecord,
    /// What the record's `from` address decodes to, if anything.
    pub decoded: Option<Decoded>,
}

impl DecodedLbrEntry {
    /// The source branch outcome this entry proves, if it is one edge of a
    /// conditional.
    pub fn branch_outcome(&self) -> Option<BranchOutcome> {
        match self.decoded {
            Some(Decoded::SourceBranch {
                branch, outcome, ..
            }) => Some(BranchOutcome { branch, outcome }),
            _ => None,
        }
    }
}

/// Decodes an LBR snapshot (most recent first) against a layout.
pub fn decode_lbr(layout: &Layout, snapshot: &[BranchRecord]) -> Vec<DecodedLbrEntry> {
    stm_machine::ring::walk(snapshot)
        .map(|(position, r)| DecodedLbrEntry {
            position,
            record: *r,
            decoded: layout.decode_branch(r.from),
        })
        .collect()
}

/// Extracts the set of source branch outcomes present in an LBR snapshot.
pub fn lbr_events(layout: &Layout, snapshot: &[BranchRecord]) -> BTreeSet<BranchOutcome> {
    decode_lbr(layout, snapshot)
        .iter()
        .filter_map(DecodedLbrEntry::branch_outcome)
        .collect()
}

/// One decoded entry of an LCR snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedLcrEntry {
    /// Position in the snapshot: 1 = most recent.
    pub position: usize,
    /// The raw record.
    pub record: CoherenceRecord,
    /// The source-level event.
    pub event: CoherenceEvent,
}

/// Decodes an LCR snapshot (most recent first) against a layout.
pub fn decode_lcr(layout: &Layout, snapshot: &[CoherenceRecord]) -> Vec<DecodedLcrEntry> {
    stm_machine::ring::walk(snapshot)
        .map(|(position, r)| {
            let loc = layout
                .decode_stmt(r.pc)
                .map(|s| s.loc)
                .unwrap_or(SourceLoc::UNKNOWN);
            DecodedLcrEntry {
                position,
                record: *r,
                event: CoherenceEvent {
                    loc,
                    state: r.state,
                    access: r.access,
                },
            }
        })
        .collect()
}

/// Extracts the set of coherence events present in an LCR snapshot.
pub fn lcr_events(layout: &Layout, snapshot: &[CoherenceRecord]) -> BTreeSet<CoherenceEvent> {
    decode_lcr(layout, snapshot)
        .iter()
        .map(|e| e.event)
        .collect()
}

/// Describes what a decoded LBR record proves, for the LBRLOG listing and
/// the failure dossier: the branch and outcome, a plain jump, a call or a
/// return with its source location, or `<unmapped>`.
pub fn describe_lbr(program: &Program, decoded: Option<Decoded>) -> String {
    match decoded {
        Some(Decoded::SourceBranch {
            branch,
            outcome,
            loc,
            ..
        }) => format!(
            "branch {branch} at {} taken {}",
            program.render_loc(loc),
            if outcome { "TRUE" } else { "FALSE" }
        ),
        Some(Decoded::PlainJump { loc, .. }) => format!("jump at {}", program.render_loc(loc)),
        Some(Decoded::Call { loc, .. }) => format!("call at {}", program.render_loc(loc)),
        Some(Decoded::Return { loc, .. }) => format!("return at {}", program.render_loc(loc)),
        None => "<unmapped>".to_string(),
    }
}

/// Renders a decoded LBR snapshot as the human-readable listing LBRLOG
/// attaches to a failure log.
pub fn render_lbr_log(program: &Program, entries: &[DecodedLbrEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in entries {
        let _ = writeln!(
            out,
            "  [{:2}] {:#010x} -> {:#010x}  {}",
            e.position,
            e.record.from,
            e.record.to,
            describe_lbr(program, e.decoded)
        );
    }
    out
}

/// Renders a decoded LCR snapshot as the listing LCRLOG attaches.
pub fn render_lcr_log(program: &Program, entries: &[DecodedLcrEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in entries {
        let _ = writeln!(
            out,
            "  [{:2}] {:#010x}  {:5} observed {}  at {}",
            e.position,
            e.record.pc,
            e.event.access.to_string(),
            e.event.state,
            program.render_loc(e.event.loc)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_hardware::HardwareCtx;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::events::{BranchKind, CtlResponse, Hardware, HwCtlOp};
    use stm_machine::ids::{CoreId, ThreadId};
    use stm_machine::interp::{Machine, RunConfig};
    use stm_machine::ir::BinOp;

    /// Build a program with one conditional branch and run it with LBR
    /// enabled from the start (manually, without the transformer).
    fn run_with_lbr(input: i64) -> (Machine, Vec<BranchRecord>) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let t = f.new_block();
        let e = f.new_block();
        f.push(stm_machine::ir::Instr::HwCtl {
            op: HwCtlOp::EnableLbr,
            site: None,
            role: stm_machine::ir::ProfileRole::FailureSite,
        });
        let x = f.read_input(0);
        let c = f.bin(BinOp::Gt, x, 10);
        f.br(c, t, e);
        f.set_block(t);
        f.output(1);
        f.ret(None);
        f.set_block(e);
        f.output(2);
        f.ret(None);
        f.finish();
        let m = Machine::new(pb.finish(main));
        let mut hw = HardwareCtx::with_defaults();
        m.run(&[input], &RunConfig::default(), &mut hw);
        // Read core 0's LBR directly.
        let snap = match hw.ctl(CoreId(0), ThreadId::MAIN, HwCtlOp::ProfileLbr) {
            CtlResponse::Lbr(s) => s,
            _ => unreachable!(),
        };
        (m, snap)
    }

    #[test]
    fn decode_recovers_branch_and_outcome() {
        let (m, snap) = run_with_lbr(42);
        let events = lbr_events(m.layout(), &snap);
        assert!(events.contains(&BranchOutcome {
            branch: BranchId::new(0),
            outcome: true
        }));
        let (m, snap) = run_with_lbr(3);
        let events = lbr_events(m.layout(), &snap);
        assert!(events.contains(&BranchOutcome {
            branch: BranchId::new(0),
            outcome: false
        }));
    }

    #[test]
    fn positions_start_at_one_for_most_recent() {
        let (m, snap) = run_with_lbr(42);
        let decoded = decode_lbr(m.layout(), &snap);
        assert_eq!(decoded[0].position, 1);
        let log = crate::logging::FailureLog {
            lbr: decoded,
            ..Default::default()
        };
        assert!(log.lbr_position_of_branch(BranchId::new(0)).is_some());
    }

    #[test]
    fn render_lbr_log_mentions_outcomes() {
        let (m, snap) = run_with_lbr(42);
        let decoded = decode_lbr(m.layout(), &snap);
        let text = render_lbr_log(m.program(), &decoded);
        assert!(text.contains("taken TRUE"), "{text}");
    }

    #[test]
    fn non_conditional_records_do_not_become_events() {
        // A kernel-visible snapshot with only a call record decodes to no
        // branch-outcome events.
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.ret(None);
        f.finish();
        let m = Machine::new(pb.finish(main));
        let snap = vec![BranchRecord {
            from: 0xdead,
            to: 0xbeef,
            kind: BranchKind::NearRelCall,
        }];
        assert!(lbr_events(m.layout(), &snap).is_empty());
    }
}
