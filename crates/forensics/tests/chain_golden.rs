//! Golden-file coverage for [`CausalChain`]: committed JSON and markdown
//! renderings per [`FailureKind`] symptom, plus edge-case chains for
//! empty rings, wrapped rings and a single witness. The inputs are
//! hand-constructed (no session run), so the goldens pin the renderers
//! themselves, not the collection pipeline.
//!
//! Regenerate with `BLESS=1 cargo test -p stm-forensics --test
//! chain_golden` and review the diff like any other change.

use std::path::PathBuf;

use stm_core::profile::{BranchOutcome, CoherenceEvent, DecodedLbrEntry, DecodedLcrEntry};
use stm_core::ranking::{Polarity, RankedEvent};
use stm_forensics::{CausalChain, ChainKind};
use stm_machine::events::{AccessKind, BranchKind, BranchRecord, CoherenceRecord, CoherenceState};
use stm_machine::ids::{BranchId, FuncId};
use stm_machine::ir::SourceLoc;
use stm_machine::layout::Decoded;
use stm_machine::report::FailureKind;

fn bo(branch: u32, outcome: bool) -> BranchOutcome {
    BranchOutcome {
        branch: BranchId::new(branch),
        outcome,
    }
}

fn ranked_bo(
    branch: u32,
    outcome: bool,
    score: f64,
    f: usize,
    s: usize,
) -> RankedEvent<BranchOutcome> {
    RankedEvent {
        event: bo(branch, outcome),
        polarity: Polarity::Present,
        precision: score,
        recall: score,
        score,
        failure_matches: f,
        success_matches: s,
    }
}

fn lbr_entry(position: usize, branch: u32, outcome: bool) -> DecodedLbrEntry {
    DecodedLbrEntry {
        position,
        record: BranchRecord {
            from: 0x100 + 8 * branch as u64,
            to: 0x200 + 8 * branch as u64,
            kind: BranchKind::CondJump,
        },
        decoded: Some(Decoded::SourceBranch {
            branch: BranchId::new(branch),
            outcome,
            loc: SourceLoc::UNKNOWN,
            func: FuncId::new(0),
        }),
    }
}

fn lcr_event(line: u32, state: CoherenceState) -> CoherenceEvent {
    CoherenceEvent {
        loc: SourceLoc {
            file: stm_machine::ids::FileId::new(0),
            line,
        },
        state,
        access: AccessKind::Load,
    }
}

fn lcr_entry(position: usize, line: u32, state: CoherenceState) -> DecodedLcrEntry {
    let event = lcr_event(line, state);
    DecodedLcrEntry {
        position,
        record: CoherenceRecord {
            pc: 0x400 + 4 * line as u64,
            state,
            access: AccessKind::Load,
        },
        event,
    }
}

type LbrTraces = Vec<(String, Vec<DecodedLbrEntry>)>;

/// The shared LBR fixture: two witnesses, anchor `br0=true`, two
/// propagation candidates, one event outside the causal window.
fn lbr_fixture() -> (Vec<RankedEvent<BranchOutcome>>, LbrTraces) {
    let ranked = vec![
        ranked_bo(0, true, 1.0, 2, 0),
        ranked_bo(1, false, 0.8, 2, 1),
        ranked_bo(2, true, 0.5, 1, 1),
        ranked_bo(9, true, 0.1, 1, 2),
    ];
    let traces = vec![
        (
            "fail:w0:seed1".to_string(),
            vec![
                lbr_entry(1, 2, true),
                lbr_entry(2, 1, false),
                lbr_entry(3, 0, true),
                lbr_entry(4, 9, true),
            ],
        ),
        (
            "fail:w1:seed2".to_string(),
            vec![lbr_entry(1, 1, false), lbr_entry(2, 0, true)],
        ),
    ];
    (ranked, traces)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "chain rendering diverged from {}; re-bless if intentional",
        path.display()
    );
}

/// Builds the shared chain under one failure symptom and checks both
/// renderings against their goldens.
fn check_symptom_variant(name: &str, kind: FailureKind) {
    let (ranked, traces) = lbr_fixture();
    let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2)
        .expect("fixture chain reconstructs")
        .with_symptom(format!("{kind} in main at m.c:10"));
    check_golden(
        &format!("chain_{name}.json"),
        &(chain.to_json().encode() + "\n"),
    );
    check_golden(&format!("chain_{name}.md"), &chain.to_markdown());
}

#[test]
fn golden_segfault() {
    check_symptom_variant("segfault", FailureKind::Segfault { addr: 0x40_1000 });
}

#[test]
fn golden_invalid_free() {
    check_symptom_variant("invalid_free", FailureKind::InvalidFree { addr: 0x40_2040 });
}

#[test]
fn golden_assert_failed() {
    check_symptom_variant(
        "assert_failed",
        FailureKind::AssertFailed {
            message: "index < len".into(),
        },
    );
}

#[test]
fn golden_div_by_zero() {
    check_symptom_variant("div_by_zero", FailureKind::DivByZero);
}

#[test]
fn golden_deadlock() {
    check_symptom_variant("deadlock", FailureKind::Deadlock);
}

#[test]
fn golden_hang() {
    check_symptom_variant("hang", FailureKind::Hang);
}

#[test]
fn golden_stack_overflow() {
    check_symptom_variant("stack_overflow", FailureKind::StackOverflow);
}

#[test]
fn golden_lcr_chain() {
    // An LCR chain rides MESI transitions instead of branch edges.
    let mk = |line: u32, state, score, f, s| RankedEvent {
        event: lcr_event(line, state),
        polarity: Polarity::Present,
        precision: score,
        recall: score,
        score,
        failure_matches: f,
        success_matches: s,
    };
    let ranked = vec![
        mk(40, CoherenceState::Invalid, 1.0, 2, 0),
        mk(41, CoherenceState::Shared, 0.6, 2, 1),
    ];
    let traces = vec![
        (
            "fail:w0:seed1".to_string(),
            vec![
                lcr_entry(1, 41, CoherenceState::Shared),
                lcr_entry(2, 40, CoherenceState::Invalid),
            ],
        ),
        (
            "fail:w1:seed2".to_string(),
            vec![
                lcr_entry(1, 41, CoherenceState::Shared),
                lcr_entry(2, 40, CoherenceState::Invalid),
            ],
        ),
    ];
    let chain = CausalChain::from_lcra(None, &ranked, &traces, 2, 2)
        .expect("lcr chain reconstructs")
        .with_symptom("segmentation fault at 0x0 in worker at w.c:41");
    assert_eq!(chain.kind, ChainKind::Lcr);
    check_golden("chain_lcr.json", &(chain.to_json().encode() + "\n"));
    check_golden("chain_lcr.md", &chain.to_markdown());
}

#[test]
fn golden_empty_ring_witness_is_skipped() {
    // One witness captured an empty ring (reactive deployment raced the
    // failure): it is skipped, the chain forms from the other witness.
    let (ranked, mut traces) = lbr_fixture();
    traces[0].1.clear();
    let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2)
        .expect("non-empty witness still anchors the chain");
    assert_eq!(chain.witnesses_consulted, 1);
    check_golden("chain_empty_ring.json", &(chain.to_json().encode() + "\n"));
}

#[test]
fn all_empty_rings_yield_no_chain() {
    let (ranked, mut traces) = lbr_fixture();
    for (_, t) in &mut traces {
        t.clear();
    }
    assert!(CausalChain::from_lbra(None, &ranked, &traces, 2, 2).is_none());
}

#[test]
fn golden_wrapped_ring_uses_deepest_occurrence() {
    // A wrapped ring shows the same branch at several positions; the
    // walk anchors each event at its DEEPEST (earliest in time)
    // occurrence inside the causal window.
    let (ranked, _) = lbr_fixture();
    let traces = vec![(
        "fail:w0:seed1".to_string(),
        vec![
            lbr_entry(1, 2, true),
            lbr_entry(2, 1, false),
            lbr_entry(3, 2, true), // wrap: br2 again, deeper
            lbr_entry(4, 0, true),
            lbr_entry(5, 1, false), // deeper than the anchor: outside
        ],
    )];
    let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).expect("chain reconstructs");
    let root = &chain.links[0];
    assert_eq!(root.event, "br0=true");
    let br2 = chain
        .links
        .iter()
        .find(|l| l.event == "br2=true")
        .expect("wrapped event links");
    assert_eq!(br2.witnesses[0].position, 3, "deepest in-window occurrence");
    check_golden(
        "chain_wrapped_ring.json",
        &(chain.to_json().encode() + "\n"),
    );
}

#[test]
fn golden_single_witness() {
    let (ranked, mut traces) = lbr_fixture();
    traces.truncate(1);
    let chain = CausalChain::from_lbra(None, &ranked, &traces, 1, 2)
        .expect("single witness chain reconstructs")
        .with_symptom("assertion failed: single witness");
    assert_eq!(chain.witnesses_consulted, 1);
    check_golden(
        "chain_single_witness.json",
        &(chain.to_json().encode() + "\n"),
    );
    check_golden("chain_single_witness.md", &chain.to_markdown());
}

#[test]
fn fingerprint_is_stable_across_rebuilds() {
    let (ranked, traces) = lbr_fixture();
    let a = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
    let b = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.to_json().encode(), b.to_json().encode());
}
