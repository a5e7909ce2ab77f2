//! Pre-lowered flat instruction stream for the hot interpreter path.
//!
//! [`Machine::new`](crate::interp::Machine::new) lowers the block-structured
//! IR once into one contiguous [`Op`] vector per function, so the per-step
//! dispatch never walks `Program → Function → BasicBlock → Stmt` again:
//!
//! * every op carries its operands pre-decoded ([`Val`]), with const-const
//!   binary/unary rvalues folded at lowering time (a constant division by
//!   zero becomes the dedicated [`Op::ConstDivByZero`] superinstruction so
//!   the fault survives folding);
//! * control flow is pre-resolved: `Br`/`Jmp` ops carry the target block id,
//!   the target's flat instruction index and the target's machine address,
//!   and calls carry the callee's entry address, so taking an edge is a pair
//!   of stores instead of two map lookups;
//! * the parallel `pc`/`loc` side tables assign every op (statements *and*
//!   terminators) its machine address and source location, preserving the
//!   Fig. 2 layout contract byte-for-byte — a fall-through `Jmp` still owns
//!   the address [`Layout::term_addr`] reports even though it retires no
//!   branch.
//!
//! The flat stream is an internal execution detail: decoding recorded
//! addresses back to source stays the job of [`Layout`].

use crate::events::HwCtlOp;
use crate::ids::{LogSiteId, SampleId};
use crate::interp::eval_bin;
use crate::ir::{
    BinOp, Callee, Instr, LogKind, Operand, ProfileRole, Program, Rvalue, SourceLoc, Terminator,
    UnOp,
};
use crate::layout::Layout;

/// A pre-decoded operand: immediate constant or frame-relative register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    /// An immediate constant.
    C(i64),
    /// A local variable, as a raw frame-relative register index.
    V(u32),
}

impl Val {
    fn of(op: Operand) -> Val {
        match op {
            Operand::Const(c) => Val::C(c),
            Operand::Var(v) => Val::V(v.raw()),
        }
    }
}

/// One pre-lowered instruction of the flat stream.
///
/// Statements and terminators share one vector; a block's ops are laid out
/// contiguously (statements in order, then the terminator), so `ip + 1` is
/// always "the next thing this block executes".
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `dst = const` (also the folded form of const-const rvalues).
    AssignConst { dst: u32, value: i64 },
    /// `dst = src`.
    AssignVar { dst: u32, src: u32 },
    /// `dst = lhs <op> rhs`, both operands registers.
    BinVV {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `dst = lhs <op> const`.
    BinVC {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: i64,
    },
    /// `dst = const <op> rhs`.
    BinCV {
        op: BinOp,
        dst: u32,
        lhs: i64,
        rhs: u32,
    },
    /// `dst = <op> operand` (non-foldable: register operand).
    Unary { op: UnOp, dst: u32, operand: u32 },
    /// `dst = inputs[index]`.
    ReadInput { dst: u32, index: Val },
    /// A constant division/remainder by zero, pre-folded to its fault.
    ConstDivByZero,
    /// Memory load.
    Load { dst: u32, addr: Val, disp: i64 },
    /// Memory store.
    Store { addr: Val, disp: i64, value: Val },
    /// Stack-slot load.
    StackLoad { dst: u32, slot: u32 },
    /// Stack-slot store.
    StackStore { slot: u32, value: Val },
    /// Heap allocation.
    Alloc { dst: u32, words: Val },
    /// Heap free.
    Free { addr: Val },
    /// Direct call with pre-resolved callee entry address.
    CallDirect {
        dst: Option<u32>,
        target: u32,
        entry: u64,
        args: Box<[Val]>,
    },
    /// Indirect call; `targets` pairs each candidate with its entry address.
    CallIndirect {
        dst: Option<u32>,
        targets: Box<[(u32, u64)]>,
        selector: Val,
        args: Box<[Val]>,
    },
    /// Thread spawn.
    Spawn {
        dst: u32,
        func: u32,
        args: Box<[Val]>,
    },
    /// Thread join.
    Join { thread: Val },
    /// Mutex acquire.
    Lock { addr: Val },
    /// Mutex release.
    Unlock { addr: Val },
    /// Output append.
    Output { value: Val },
    /// Logging call (static message dropped: reports only carry site+kind).
    Log { site: LogSiteId, kind: LogKind },
    /// Hardware control operation.
    HwCtl {
        op: HwCtlOp,
        site: Option<LogSiteId>,
        role: ProfileRole,
    },
    /// Sampled instrumentation probe.
    Sample { id: SampleId, value: Val },
    /// Assertion.
    Assert { cond: Val, message: Box<str> },
    /// Program exit.
    Exit { code: Val },
    /// No-op (`Nop` and the scheduling-hint `Yield`).
    Nop,
    /// Conditional branch terminator with both edges pre-resolved.
    Br {
        cond: Val,
        /// Target block / flat ip / block address of the true edge.
        then_blk: u32,
        then_ip: u32,
        then_to: u64,
        /// Target block / flat ip / block address of the false edge.
        else_blk: u32,
        else_ip: u32,
        else_to: u64,
    },
    /// Unconditional jump terminator; `record` is false for the
    /// fall-through lowering (adjacent target, no retired branch).
    Jmp {
        target_blk: u32,
        target_ip: u32,
        to: u64,
        record: bool,
    },
    /// Return terminator.
    Ret { value: Option<Val> },
}

/// One function's flat code plus the per-op address/location side tables.
#[derive(Debug, Clone)]
pub(crate) struct FlatFunc {
    /// The flat instruction stream (statements and terminators).
    pub code: Vec<Op>,
    /// Machine address of each op (`pc[i]` is `code[i]`'s address).
    pub pc: Vec<u64>,
    /// Source location of each op.
    pub loc: Vec<SourceLoc>,
    /// Number of parameters.
    pub params: u32,
    /// Total number of local variables (registers) of a frame.
    pub num_vars: u32,
    /// Number of stack slots of a frame.
    pub frame_slots: u32,
}

/// The whole program, pre-lowered.
#[derive(Debug, Clone)]
pub(crate) struct FlatProgram {
    /// Per-function flat code, indexed by raw function id.
    pub funcs: Vec<FlatFunc>,
}

impl FlatProgram {
    /// Lowers a validated program over its layout.
    pub fn lower(program: &Program, layout: &Layout) -> FlatProgram {
        let mut funcs = Vec::with_capacity(program.functions.len());
        for (fi, func) in program.functions.iter().enumerate() {
            let fid = crate::ids::FuncId::new(fi as u32);
            // Pass 1: flat start index of every block (stmts + 1 term op).
            let mut starts = Vec::with_capacity(func.blocks.len());
            let mut cursor = 0u32;
            for block in &func.blocks {
                starts.push(cursor);
                cursor += block.stmts.len() as u32 + 1;
            }
            // Pass 2: emit ops with all targets resolved.
            let mut code = Vec::with_capacity(cursor as usize);
            let mut pc = Vec::with_capacity(cursor as usize);
            let mut loc = Vec::with_capacity(cursor as usize);
            for (bi, block) in func.blocks.iter().enumerate() {
                let bid = crate::ids::BlockId::new(bi as u32);
                for (si, stmt) in block.stmts.iter().enumerate() {
                    code.push(lower_instr(&stmt.instr, program, layout));
                    pc.push(layout.stmt_addr(fid, bid, si as u32));
                    loc.push(stmt.loc);
                }
                let resolve = |b: crate::ids::BlockId| {
                    (b.raw(), starts[b.index()], layout.block_addr(fid, b))
                };
                code.push(match block.term {
                    Terminator::Br {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        let (tb, ti, tt) = resolve(then_blk);
                        let (eb, ei, et) = resolve(else_blk);
                        Op::Br {
                            cond: Val::of(cond),
                            then_blk: tb,
                            then_ip: ti,
                            then_to: tt,
                            else_blk: eb,
                            else_ip: ei,
                            else_to: et,
                        }
                    }
                    Terminator::Jmp(target) => {
                        let (tb, ti, to) = resolve(target);
                        Op::Jmp {
                            target_blk: tb,
                            target_ip: ti,
                            to,
                            record: !layout.jmp_is_fallthrough(fid, bid),
                        }
                    }
                    Terminator::Ret(value) => Op::Ret {
                        value: value.map(Val::of),
                    },
                });
                pc.push(layout.term_addr(fid, bid));
                loc.push(block.term_loc);
            }
            funcs.push(FlatFunc {
                code,
                pc,
                loc,
                params: func.params,
                num_vars: func.num_vars,
                frame_slots: func.frame_slots,
            });
        }
        FlatProgram { funcs }
    }
}

fn lower_instr(instr: &Instr, _program: &Program, layout: &Layout) -> Op {
    match instr {
        Instr::Assign { dst, rv } => {
            let d = dst.raw();
            match *rv {
                Rvalue::Use(Operand::Const(c)) => Op::AssignConst { dst: d, value: c },
                Rvalue::Use(Operand::Var(v)) => Op::AssignVar {
                    dst: d,
                    src: v.raw(),
                },
                Rvalue::Binary { op, lhs, rhs } => match (lhs, rhs) {
                    (Operand::Var(l), Operand::Var(r)) => Op::BinVV {
                        op,
                        dst: d,
                        lhs: l.raw(),
                        rhs: r.raw(),
                    },
                    (Operand::Var(l), Operand::Const(r)) => Op::BinVC {
                        op,
                        dst: d,
                        lhs: l.raw(),
                        rhs: r,
                    },
                    (Operand::Const(l), Operand::Var(r)) => Op::BinCV {
                        op,
                        dst: d,
                        lhs: l,
                        rhs: r.raw(),
                    },
                    (Operand::Const(l), Operand::Const(r)) => match eval_bin(op, l, r) {
                        Some(v) => Op::AssignConst { dst: d, value: v },
                        None => Op::ConstDivByZero,
                    },
                },
                Rvalue::Unary { op, operand } => match operand {
                    Operand::Const(c) => Op::AssignConst {
                        dst: d,
                        value: match op {
                            UnOp::Neg => c.wrapping_neg(),
                            UnOp::Not => i64::from(c == 0),
                            UnOp::BitNot => !c,
                        },
                    },
                    Operand::Var(v) => Op::Unary {
                        op,
                        dst: d,
                        operand: v.raw(),
                    },
                },
                Rvalue::ReadInput { index } => Op::ReadInput {
                    dst: d,
                    index: Val::of(index),
                },
            }
        }
        Instr::Load { dst, addr, disp } => Op::Load {
            dst: dst.raw(),
            addr: Val::of(*addr),
            disp: *disp,
        },
        Instr::Store { addr, disp, value } => Op::Store {
            addr: Val::of(*addr),
            disp: *disp,
            value: Val::of(*value),
        },
        Instr::StackLoad { dst, slot } => Op::StackLoad {
            dst: dst.raw(),
            slot: *slot,
        },
        Instr::StackStore { slot, value } => Op::StackStore {
            slot: *slot,
            value: Val::of(*value),
        },
        Instr::Alloc { dst, words } => Op::Alloc {
            dst: dst.raw(),
            words: Val::of(*words),
        },
        Instr::Free { addr } => Op::Free {
            addr: Val::of(*addr),
        },
        Instr::Call { dst, callee, args } => {
            let d = dst.map(|v| v.raw());
            let a: Box<[Val]> = args.iter().map(|o| Val::of(*o)).collect();
            match callee {
                Callee::Direct(f) => Op::CallDirect {
                    dst: d,
                    target: f.raw(),
                    entry: layout.func_entry(*f),
                    args: a,
                },
                Callee::Indirect { targets, selector } => Op::CallIndirect {
                    dst: d,
                    targets: targets
                        .iter()
                        .map(|f| (f.raw(), layout.func_entry(*f)))
                        .collect(),
                    selector: Val::of(*selector),
                    args: a,
                },
            }
        }
        Instr::Spawn { dst, func, args } => Op::Spawn {
            dst: dst.raw(),
            func: func.raw(),
            args: args.iter().map(|o| Val::of(*o)).collect(),
        },
        Instr::Join { thread } => Op::Join {
            thread: Val::of(*thread),
        },
        Instr::Lock { addr } => Op::Lock {
            addr: Val::of(*addr),
        },
        Instr::Unlock { addr } => Op::Unlock {
            addr: Val::of(*addr),
        },
        Instr::Output { value } => Op::Output {
            value: Val::of(*value),
        },
        Instr::Log { site, kind, .. } => Op::Log {
            site: *site,
            kind: *kind,
        },
        Instr::HwCtl { op, site, role } => Op::HwCtl {
            op: *op,
            site: *site,
            role: *role,
        },
        Instr::Sample { id, value } => Op::Sample {
            id: *id,
            value: Val::of(*value),
        },
        Instr::Assert { cond, message } => Op::Assert {
            cond: Val::of(*cond),
            message: message.clone().into_boxed_str(),
        },
        Instr::Exit { code } => Op::Exit {
            code: Val::of(*code),
        },
        Instr::Yield | Instr::Nop => Op::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ids::{BlockId, FuncId};
    use crate::ir::BinOp;

    #[test]
    fn lowering_assigns_layout_addresses_to_every_op() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let x = f.read_input(0);
        let _ = f.bin(BinOp::Add, x, 1);
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let layout = Layout::build(&p);
        let flat = FlatProgram::lower(&p, &layout);
        let ff = &flat.funcs[main.index()];
        assert_eq!(ff.code.len(), ff.pc.len());
        assert_eq!(ff.code.len(), ff.loc.len());
        let b0 = BlockId::new(0);
        assert_eq!(ff.pc[0], layout.stmt_addr(main, b0, 0));
        assert_eq!(ff.pc[1], layout.stmt_addr(main, b0, 1));
        // The terminator op owns the layout's term address.
        assert_eq!(*ff.pc.last().unwrap(), layout.term_addr(main, b0));
        assert!(matches!(ff.code.last(), Some(Op::Ret { value: None })));
    }

    #[test]
    fn const_binaries_fold_and_const_div_by_zero_survives_as_fault_op() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let _folded = f.bin(BinOp::Mul, 6, 7);
        let _bad = f.bin(BinOp::Div, 1, 0);
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let layout = Layout::build(&p);
        let flat = FlatProgram::lower(&p, &layout);
        let code = &flat.funcs[0].code;
        assert!(matches!(code[0], Op::AssignConst { value: 42, .. }));
        assert!(matches!(code[1], Op::ConstDivByZero));
    }

    #[test]
    fn branch_targets_resolve_to_flat_indices_and_addresses() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let t = f.new_block();
        let e = f.new_block();
        let x = f.read_input(0);
        f.br(x, t, e);
        f.set_block(t);
        f.ret(None);
        f.set_block(e);
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let layout = Layout::build(&p);
        let flat = FlatProgram::lower(&p, &layout);
        let ff = &flat.funcs[0];
        let Op::Br {
            then_blk,
            then_ip,
            then_to,
            else_blk,
            else_ip,
            else_to,
            ..
        } = ff.code[1]
        else {
            panic!("expected Br, got {:?}", ff.code[1]);
        };
        let fid = FuncId::new(0);
        assert_eq!(then_blk, 1);
        assert_eq!(else_blk, 2);
        // Block 0 holds one stmt + the Br = 2 ops; block 1 holds one Ret.
        assert_eq!(then_ip, 2);
        assert_eq!(else_ip, 3);
        assert_eq!(then_to, layout.block_addr(fid, BlockId::new(1)));
        assert_eq!(else_to, layout.block_addr(fid, BlockId::new(2)));
        assert!(matches!(ff.code[then_ip as usize], Op::Ret { .. }));
    }

    #[test]
    fn adjacent_jmp_lowered_as_non_recording_fallthrough() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let next = f.new_block();
        f.jmp(next);
        f.set_block(next);
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let layout = Layout::build(&p);
        let flat = FlatProgram::lower(&p, &layout);
        assert!(matches!(
            flat.funcs[0].code[0],
            Op::Jmp { record: false, .. }
        ));
    }
}
