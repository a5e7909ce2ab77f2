//! Machine-address layout: assigns every statement and terminator a linear
//! code address and decodes LBR/LCR record addresses back to source.
//!
//! The lowering of control flow follows Fig. 2 of the paper:
//!
//! * A source conditional branch occupies two slots: a conditional jump at
//!   `A` whose *taken* direction is the **false** edge, followed by an
//!   unconditional relative jump at `A + 4` for the **true** (fall-through)
//!   edge. Whichever way the source branch goes, exactly one machine branch
//!   retires, and its `from` address identifies both the branch and the
//!   outcome.
//! * An unconditional `Jmp` to the next block in layout order is a pure
//!   fall-through and retires no branch; any other `Jmp` is a near relative
//!   jump.
//! * `Call` retires a near (relative or indirect) call; `Ret` a near return.

use crate::ids::{BlockId, BranchId, FuncId};
use crate::ir::{Instr, Program, SourceLoc, Terminator, CODE_BASE, FUNC_STRIDE};
use std::collections::HashMap;

/// Width of one instruction slot in the simulated encoding.
pub const SLOT: u64 = 4;

/// What a recorded branch `from` address decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// One edge of a source-level conditional branch.
    SourceBranch {
        /// The source branch.
        branch: BranchId,
        /// The outcome this record proves: `true` = then-edge taken.
        outcome: bool,
        /// Location of the branch in the source.
        loc: SourceLoc,
        /// Enclosing function.
        func: FuncId,
    },
    /// A plain unconditional jump (loop back-edge, join, `goto`).
    PlainJump {
        /// Enclosing function.
        func: FuncId,
        /// Location of the jump.
        loc: SourceLoc,
    },
    /// A call instruction.
    Call {
        /// Enclosing (calling) function.
        func: FuncId,
        /// Location of the call.
        loc: SourceLoc,
    },
    /// A return instruction.
    Return {
        /// The returning function.
        func: FuncId,
        /// Location of the return.
        loc: SourceLoc,
    },
}

/// Reference from a code address back to the statement that owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtRef {
    /// Enclosing function.
    pub func: FuncId,
    /// Enclosing block.
    pub block: BlockId,
    /// Statement index within the block.
    pub index: u32,
    /// Source location of the statement.
    pub loc: SourceLoc,
}

/// The address layout of a [`Program`].
#[derive(Debug, Clone)]
pub struct Layout {
    block_addr: Vec<Vec<u64>>,
    term_addr: Vec<Vec<u64>>,
    jmp_fallthrough: Vec<Vec<bool>>,
    branch_decode: HashMap<u64, Decoded>,
    stmt_decode: HashMap<u64, StmtRef>,
    func_entry: Vec<u64>,
}

impl Layout {
    /// Computes the layout of a program.
    pub fn build(program: &Program) -> Layout {
        let nf = program.functions.len();
        let mut block_addr = Vec::with_capacity(nf);
        let mut term_addr = Vec::with_capacity(nf);
        let mut jmp_fallthrough = Vec::with_capacity(nf);
        let mut branch_decode = HashMap::new();
        let mut stmt_decode = HashMap::new();
        let mut func_entry = Vec::with_capacity(nf);

        for (fi, func) in program.functions.iter().enumerate() {
            let base = CODE_BASE + fi as u64 * FUNC_STRIDE;
            func_entry.push(base);
            let nb = func.blocks.len();
            let mut baddrs = Vec::with_capacity(nb);
            let mut taddrs = Vec::with_capacity(nb);
            let mut falls = vec![false; nb];
            let mut cursor = base;
            // First pass: addresses.
            for (bi, block) in func.blocks.iter().enumerate() {
                baddrs.push(cursor);
                cursor += block.stmts.len() as u64 * SLOT;
                taddrs.push(cursor);
                cursor += match &block.term {
                    Terminator::Br { .. } => 2 * SLOT,
                    Terminator::Jmp(t) => {
                        if t.index() == bi + 1 {
                            falls[bi] = true;
                            0
                        } else {
                            SLOT
                        }
                    }
                    Terminator::Ret(_) => SLOT,
                };
            }
            debug_assert!(
                cursor - base < FUNC_STRIDE,
                "function `{}` overflows its code window",
                func.name
            );
            // Second pass: decode tables.
            let fid = FuncId::new(fi as u32);
            for (bi, block) in func.blocks.iter().enumerate() {
                for (si, stmt) in block.stmts.iter().enumerate() {
                    let addr = baddrs[bi] + si as u64 * SLOT;
                    stmt_decode.insert(
                        addr,
                        StmtRef {
                            func: fid,
                            block: BlockId::new(bi as u32),
                            index: si as u32,
                            loc: stmt.loc,
                        },
                    );
                    if let Instr::Call { callee, .. } = &stmt.instr {
                        let _ = callee; // kind recovered at runtime
                        branch_decode.insert(
                            addr,
                            Decoded::Call {
                                func: fid,
                                loc: stmt.loc,
                            },
                        );
                    }
                }
                let t = taddrs[bi];
                match &block.term {
                    Terminator::Br { .. } => {
                        let branch = block
                            .branch
                            .expect("finalize() must run before Layout::build");
                        branch_decode.insert(
                            t,
                            Decoded::SourceBranch {
                                branch,
                                outcome: false,
                                loc: block.term_loc,
                                func: fid,
                            },
                        );
                        branch_decode.insert(
                            t + SLOT,
                            Decoded::SourceBranch {
                                branch,
                                outcome: true,
                                loc: block.term_loc,
                                func: fid,
                            },
                        );
                    }
                    Terminator::Jmp(_) => {
                        if !falls[bi] {
                            branch_decode.insert(
                                t,
                                Decoded::PlainJump {
                                    func: fid,
                                    loc: block.term_loc,
                                },
                            );
                        }
                    }
                    Terminator::Ret(_) => {
                        branch_decode.insert(
                            t,
                            Decoded::Return {
                                func: fid,
                                loc: block.term_loc,
                            },
                        );
                    }
                }
            }
            block_addr.push(baddrs);
            term_addr.push(taddrs);
            jmp_fallthrough.push(falls);
        }

        Layout {
            block_addr,
            term_addr,
            jmp_fallthrough,
            branch_decode,
            stmt_decode,
            func_entry,
        }
    }

    /// Entry address of a function.
    pub fn func_entry(&self, func: FuncId) -> u64 {
        self.func_entry[func.index()]
    }

    /// Address of the first slot of a block.
    pub fn block_addr(&self, func: FuncId, block: BlockId) -> u64 {
        self.block_addr[func.index()][block.index()]
    }

    /// Address of a block's terminator.
    pub fn term_addr(&self, func: FuncId, block: BlockId) -> u64 {
        self.term_addr[func.index()][block.index()]
    }

    /// Address of statement `index` of a block.
    pub fn stmt_addr(&self, func: FuncId, block: BlockId, index: u32) -> u64 {
        self.block_addr(func, block) + index as u64 * SLOT
    }

    /// Whether the `Jmp` terminating this block lowers to a fall-through
    /// (no retired branch).
    pub fn jmp_is_fallthrough(&self, func: FuncId, block: BlockId) -> bool {
        self.jmp_fallthrough[func.index()][block.index()]
    }

    /// Decodes a recorded branch `from` address.
    pub fn decode_branch(&self, from: u64) -> Option<Decoded> {
        self.branch_decode.get(&from).copied()
    }

    /// Decodes a program counter back to its statement.
    pub fn decode_stmt(&self, pc: u64) -> Option<StmtRef> {
        self.stmt_decode.get(&pc).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::BinOp;

    fn sample_program() -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let then_b = f.new_block();
        let else_b = f.new_block();
        let join_b = f.new_block();
        let x = f.read_input(0);
        let c = f.bin(BinOp::Gt, x, 0);
        f.br(c, then_b, else_b);
        f.set_block(then_b);
        f.output(1);
        f.jmp(join_b); // non-adjacent? then_b=1, join=3 → real jmp
        f.set_block(else_b);
        f.output(2);
        f.jmp(join_b); // else_b=2, join=3 → fallthrough
        f.set_block(join_b);
        f.ret(None);
        f.finish();
        (pb.finish(main), main)
    }

    #[test]
    fn addresses_are_function_relative_and_monotonic() {
        let (p, main) = sample_program();
        let l = Layout::build(&p);
        assert_eq!(l.func_entry(main), CODE_BASE);
        let b0 = BlockId::new(0);
        assert_eq!(l.block_addr(main, b0), CODE_BASE);
        assert_eq!(l.stmt_addr(main, b0, 1), CODE_BASE + SLOT);
        assert_eq!(l.term_addr(main, b0), CODE_BASE + 2 * SLOT);
    }

    #[test]
    fn conditional_branch_gets_two_decode_entries() {
        let (p, main) = sample_program();
        let l = Layout::build(&p);
        let t = l.term_addr(main, BlockId::new(0));
        let fals = l.decode_branch(t).unwrap();
        let tru = l.decode_branch(t + SLOT).unwrap();
        match (fals, tru) {
            (
                Decoded::SourceBranch {
                    branch: b1,
                    outcome: o1,
                    ..
                },
                Decoded::SourceBranch {
                    branch: b2,
                    outcome: o2,
                    ..
                },
            ) => {
                assert_eq!(b1, b2);
                assert!(!o1);
                assert!(o2);
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn adjacent_jmp_is_fallthrough_distant_is_not() {
        let (p, main) = sample_program();
        let l = Layout::build(&p);
        assert!(!l.jmp_is_fallthrough(main, BlockId::new(1)));
        assert!(l.jmp_is_fallthrough(main, BlockId::new(2)));
        // The fall-through jmp has no decode entry; the real one does.
        let t1 = l.term_addr(main, BlockId::new(1));
        assert!(matches!(
            l.decode_branch(t1),
            Some(Decoded::PlainJump { .. })
        ));
        // The fall-through jmp occupies no slot: its "address" belongs to
        // whatever comes next in the layout, never to a PlainJump entry.
        let t2 = l.term_addr(main, BlockId::new(2));
        assert!(!matches!(
            l.decode_branch(t2),
            Some(Decoded::PlainJump { .. })
        ));
    }

    #[test]
    fn stmt_decode_round_trips() {
        let (p, main) = sample_program();
        let l = Layout::build(&p);
        let addr = l.stmt_addr(main, BlockId::new(1), 0);
        let sref = l.decode_stmt(addr).unwrap();
        assert_eq!(sref.func, main);
        assert_eq!(sref.block, BlockId::new(1));
        assert_eq!(sref.index, 0);
    }

    #[test]
    fn functions_do_not_overlap() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.declare_function("a");
        let b = pb.declare_function("b");
        for fid in [a, b] {
            let mut f = pb.build_function(fid, "m.c");
            f.nop();
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(a);
        let l = Layout::build(&p);
        assert_eq!(l.func_entry(b) - l.func_entry(a), FUNC_STRIDE);
    }
}
