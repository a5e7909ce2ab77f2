//! Cross-crate property-based tests: invariants that must hold for *any*
//! program, not just the benchmark suite.
//!
//! Cases are generated from a deterministic [`SplitMix64`] stream so the
//! tests are reproducible and dependency-free; each property runs 48
//! generated cases (the budget the proptest version used).

use stm::core::prelude::*;
use stm::hardware::{CacheConfig, CacheSystem, HardwareCtx, Lbr};
use stm::machine::builder::ProgramBuilder;
use stm::machine::events::{AccessKind, BranchEvent, BranchKind, Ring};
use stm::machine::ids::CoreId;
use stm::machine::interp::{Machine, RunConfig};
use stm::machine::ir::{BinOp, Program};
use stm::machine::rng::SplitMix64;

const CASES: u64 = 48;

/// Draws a value in `lo..hi` from the stream.
fn draw(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.next_below((hi - lo) as u64) as i64
}

/// Draws a random step recipe: 1..12 steps of (kind, constant).
fn draw_steps(rng: &mut SplitMix64, max_len: u64) -> Vec<(u8, i64)> {
    let len = 1 + rng.next_below(max_len - 1) as usize;
    (0..len)
        .map(|_| (rng.next_below(256) as u8, draw(rng, -50, 50)))
        .collect()
}

/// Builds a small but structurally varied program from a recipe: a chain
/// of guarded steps mixing arithmetic, branches, loops, heap traffic and
/// an error path, all driven by the inputs.
fn build_program(steps: &[(u8, i64)]) -> Program {
    let mut pb = ProgramBuilder::new("prop");
    let g = pb.global("acc", 1);
    let main = pb.declare_function("main");
    let mut f = pb.build_function(main, "prop.c");
    let x = f.read_input(0);
    let acc = f.var();
    f.assign(acc, 0);
    for (i, (kind, k)) in steps.iter().enumerate() {
        f.at(10 + i as u32);
        match kind % 5 {
            0 => {
                let v = f.bin(BinOp::Add, acc, *k);
                f.assign(acc, v);
            }
            1 => {
                // A data diamond.
                let then_b = f.new_block();
                let join = f.new_block();
                let c = f.bin(BinOp::Gt, x, *k % 16);
                f.br(c, then_b, join);
                f.set_block(then_b);
                f.assign_bin(acc, BinOp::Xor, acc, *k);
                f.jmp(join);
                f.set_block(join);
            }
            2 => {
                // A bounded loop.
                let header = f.new_block();
                let body = f.new_block();
                let done = f.new_block();
                let i_var = f.var();
                f.assign(i_var, 0);
                f.jmp(header);
                f.set_block(header);
                let c = f.bin(BinOp::Lt, i_var, (*k % 7).abs() + 1);
                f.br(c, body, done);
                f.set_block(body);
                f.assign_bin(acc, BinOp::Add, acc, 1);
                f.assign_bin(i_var, BinOp::Add, i_var, 1);
                f.jmp(header);
                f.set_block(done);
            }
            3 => {
                // Heap traffic.
                let buf = f.alloc(2);
                f.store(buf, 0, acc);
                let v = f.load(buf, 0);
                f.assign(acc, v);
            }
            _ => {
                // Global traffic.
                f.store(g as i64, 0, acc);
                let v = f.load(g as i64, 0);
                f.assign_bin(acc, BinOp::Add, v, 1);
            }
        }
    }
    f.output(acc);
    f.ret(None);
    f.finish();
    pb.finish(main)
}

/// Any program produces bit-identical reports when replayed with the
/// same inputs, seed and configuration.
#[test]
fn runs_are_deterministic() {
    let mut rng = SplitMix64::new(0xD1CE_0001);
    for case in 0..CASES {
        let steps = draw_steps(&mut rng, 12);
        let input = draw(&mut rng, -100, 100);
        let seed = rng.next_u64();
        let p = build_program(&steps);
        let m = Machine::new(p);
        let cfg = RunConfig::with_seed(seed);
        let a = m.run(&[input], &cfg, &mut stm::machine::events::NullHardware);
        let b = m.run(&[input], &cfg, &mut stm::machine::events::NullHardware);
        assert_eq!(a, b, "case {case}: {steps:?} input={input} seed={seed}");
    }
}

/// Instrumentation is observation-only: the instrumented program
/// computes exactly the same outputs and outcome.
#[test]
fn instrumentation_never_changes_semantics() {
    let mut rng = SplitMix64::new(0xD1CE_0002);
    for case in 0..CASES {
        let steps = draw_steps(&mut rng, 12);
        let input = draw(&mut rng, -100, 100);
        let p = build_program(&steps);
        let plain = Runner::new(Machine::new(p.clone()));
        for opts in [
            InstrumentOptions::lbrlog(),
            InstrumentOptions::lbrlog_without_toggling(),
            InstrumentOptions::lbra_proactive(),
            InstrumentOptions::full(),
        ] {
            let inst = Runner::instrumented(&p, &opts);
            let w = Workload::new(vec![input]);
            let a = plain.run(&w);
            let b = inst.run(&w);
            assert_eq!(a.outputs, b.outputs, "case {case}: {steps:?}");
            assert_eq!(a.outcome, b.outcome, "case {case}: {steps:?}");
            assert_eq!(a.logs.len(), b.logs.len(), "case {case}: {steps:?}");
        }
    }
}

/// The MESI caches uphold single-writer/multi-reader for any access
/// stream, and every observation is a legal MESI state transition
/// source.
#[test]
fn mesi_invariants_hold_for_random_streams() {
    let mut seeds = SplitMix64::new(0xD1CE_0003);
    for _ in 0..CASES {
        let seed = seeds.next_u64();
        let mut sys = CacheSystem::new(4, CacheConfig::PAPER);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..4000 {
            let core = CoreId(rng.next_below(4) as u32);
            let addr = rng.next_below(1 << 16);
            let kind = if rng.next_below(3) == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let _ = sys.access(core, addr, kind);
        }
        assert!(sys.check_invariants().is_ok(), "seed {seed}");
    }
}

/// The LBR ring holds at most `capacity` records, newest first, and is
/// exactly the suffix of the admitted event stream.
#[test]
fn lbr_is_the_suffix_of_admitted_branches() {
    let mut rng = SplitMix64::new(0xD1CE_0004);
    for case in 0..CASES {
        let capacity = 1 + rng.next_below(31) as usize;
        let n = rng.next_below(64) as usize;
        let froms: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        let mut lbr = Lbr::new(capacity);
        lbr.enable();
        for from in &froms {
            lbr.record(BranchEvent {
                from: *from as u64,
                to: *from as u64 + 4,
                kind: BranchKind::CondJump,
                ring: Ring::User,
            });
        }
        let snap = lbr.read();
        assert!(snap.len() <= capacity, "case {case}");
        let expected: Vec<u64> = froms
            .iter()
            .rev()
            .take(capacity)
            .map(|f| *f as u64)
            .collect();
        let got: Vec<u64> = snap.iter().map(|r| r.from).collect();
        assert_eq!(got, expected, "case {case}: capacity={capacity}");
    }
}

/// Hardware contexts never panic and never change program results:
/// running under full monitoring equals running under none.
#[test]
fn monitoring_is_invisible_to_the_program() {
    let mut rng = SplitMix64::new(0xD1CE_0005);
    for case in 0..CASES {
        let steps = draw_steps(&mut rng, 10);
        let input = draw(&mut rng, -100, 100);
        let p = build_program(&steps);
        let m = Machine::new(p);
        let cfg = RunConfig::default();
        let a = m.run(&[input], &cfg, &mut stm::machine::events::NullHardware);
        let mut hw = HardwareCtx::with_defaults();
        let b = m.run(&[input], &cfg, &mut hw);
        assert_eq!(a.outputs, b.outputs, "case {case}: {steps:?}");
        assert_eq!(a.outcome, b.outcome, "case {case}: {steps:?}");
        assert_eq!(a.steps, b.steps, "case {case}: {steps:?}");
    }
}
