//! Static useful-branch analysis (§7.1.1, Table 5).
//!
//! For a logging site `l`, a branch record in LBR is **useful** if the
//! taken-ness of that branch cannot be inferred, by static control-flow
//! analysis, from the mere fact that execution reached `l`. The analyzer
//! mirrors the paper's LLVM pass: starting from each logging site it
//! explores backwards along all possible intra-procedural paths until each
//! path holds `depth` (= LBR capacity) branch records, and checks which
//! records are useful:
//!
//! * an edge of a conditional branch is useful iff the *other* edge can
//!   also reach `l` — otherwise reaching `l` already proves the outcome;
//! * an unconditional jump record is never useful (its taken-ness is
//!   trivial), but it still occupies an LBR entry;
//! * fall-through jumps retire no branch and contribute no record.
//!
//! Paths are enumerated with a per-path revisit bound (loops contribute one
//! unrolling) and a global path budget per site, which keeps the analysis
//! linear in practice while covering every acyclic path shape.

use std::collections::HashSet;
use stm_machine::ids::{BlockId, FuncId, LogSiteId};
use stm_machine::ir::{Instr, LogKind, Program, Terminator};

/// Result of the analysis for one logging site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteRatio {
    /// The logging site.
    pub site: LogSiteId,
    /// Useful records / total records over all explored paths.
    pub ratio: f64,
    /// Total records inspected.
    pub records: usize,
    /// Paths explored.
    pub paths: usize,
}

/// Result of the analysis for a whole program (one Table 5 row).
#[derive(Debug, Clone, PartialEq)]
pub struct UsefulBranchReport {
    /// Per-site ratios.
    pub per_site: Vec<SiteRatio>,
    /// Average ratio across sites with at least one record.
    pub average: f64,
    /// Number of `Error` logging sites analyzed.
    pub sites: usize,
}

#[derive(Debug, Clone, Copy)]
enum PredEdge {
    /// `pred`'s conditional branch enters via one edge; `useful` was
    /// precomputed as "the other edge also reaches l".
    Branch { pred: BlockId, useful: bool },
    /// A recorded (non-fallthrough) unconditional jump.
    Jump { pred: BlockId },
    /// A fall-through: no record.
    Fallthrough { pred: BlockId },
}

/// Per-function predecessor edges, specialised for a reach-set.
fn pred_edges(program: &Program, func: FuncId, reaches: &HashSet<BlockId>) -> Vec<Vec<PredEdge>> {
    let f = program.function(func);
    let mut preds: Vec<Vec<PredEdge>> = vec![Vec::new(); f.blocks.len()];
    for (bi, block) in f.blocks.iter().enumerate() {
        let bid = BlockId::new(bi as u32);
        match block.term {
            Terminator::Br {
                then_blk, else_blk, ..
            } => {
                // Record on the then edge is useful iff the else edge also
                // reaches l, and vice versa.
                let then_reaches = reaches.contains(&then_blk);
                let else_reaches = reaches.contains(&else_blk);
                preds[then_blk.index()].push(PredEdge::Branch {
                    pred: bid,
                    useful: else_reaches && then_blk != else_blk,
                });
                if then_blk != else_blk {
                    preds[else_blk.index()].push(PredEdge::Branch {
                        pred: bid,
                        useful: then_reaches,
                    });
                }
            }
            Terminator::Jmp(t) => {
                if t.index() == bi + 1 {
                    preds[t.index()].push(PredEdge::Fallthrough { pred: bid });
                } else {
                    preds[t.index()].push(PredEdge::Jump { pred: bid });
                }
            }
            Terminator::Ret(_) => {}
        }
    }
    preds
}

/// Blocks from which `target` is reachable (including itself).
fn backward_reachable(program: &Program, func: FuncId, target: BlockId) -> HashSet<BlockId> {
    let f = program.function(func);
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for (bi, block) in f.blocks.iter().enumerate() {
        for s in block.term.successors() {
            preds[s.index()].push(BlockId::new(bi as u32));
        }
    }
    let mut seen = HashSet::new();
    let mut stack = vec![target];
    while let Some(b) = stack.pop() {
        if seen.insert(b) {
            stack.extend(preds[b.index()].iter().copied());
        }
    }
    seen
}

/// Bound on explored paths per site.
const PATH_BUDGET: usize = 2048;
/// How often a block may repeat on one path (loop unrolling bound).
const REVISIT_BOUND: usize = 2;

/// Bound on backward call-stack expansion (the paper's LLVM analyzer also
/// crosses function boundaries when the window is not yet full).
const CALLER_DEPTH_BOUND: usize = 3;

/// All blocks containing a direct call to each function.
fn call_sites(program: &Program) -> Vec<Vec<(FuncId, BlockId)>> {
    let mut sites = vec![Vec::new(); program.functions.len()];
    for (fi, func) in program.functions.iter().enumerate() {
        for (bi, block) in func.blocks.iter().enumerate() {
            for stmt in &block.stmts {
                if let Instr::Call {
                    callee: stm_machine::ir::Callee::Direct(t),
                    ..
                } = &stmt.instr
                {
                    sites[t.index()].push((FuncId::new(fi as u32), BlockId::new(bi as u32)));
                }
            }
        }
    }
    sites
}

fn analyze_site(
    program: &Program,
    func: FuncId,
    site_block: BlockId,
    depth: usize,
) -> (usize, usize, usize) {
    use std::collections::HashMap;
    let callers = call_sites(program);
    // Per-(function, anchor) predecessor tables, built lazily: usefulness
    // is relative to reaching the anchor (the log site's block, or the
    // call-site block when the window crosses into a caller).
    type Table = std::rc::Rc<Vec<Vec<PredEdge>>>;
    let mut tables: HashMap<(FuncId, BlockId), Table> = HashMap::new();
    let table = |f: FuncId, anchor: BlockId, tables: &mut HashMap<(FuncId, BlockId), Table>| {
        std::rc::Rc::clone(tables.entry((f, anchor)).or_insert_with(|| {
            let reaches = backward_reachable(program, f, anchor);
            std::rc::Rc::new(pred_edges(program, f, &reaches))
        }))
    };

    struct State {
        func: FuncId,
        anchor: BlockId,
        block: BlockId,
        records: Vec<bool>,
        visits: Vec<(FuncId, BlockId, usize)>,
        call_depth: usize,
    }
    let mut useful = 0usize;
    let mut total = 0usize;
    let mut paths = 0usize;
    let mut stack = vec![State {
        func,
        anchor: site_block,
        block: site_block,
        records: Vec::new(),
        visits: vec![(func, site_block, 1)],
        call_depth: 0,
    }];
    while let Some(state) = stack.pop() {
        if paths >= PATH_BUDGET {
            break;
        }
        if state.records.len() >= depth {
            paths += 1;
            total += state.records.len();
            useful += state.records.iter().filter(|u| **u).count();
            continue;
        }
        let preds = table(state.func, state.anchor, &mut tables);
        let edges = &preds[state.block.index()];
        if edges.is_empty() {
            // Function entry: continue into the callers while the window
            // has room, as the paper's analyzer does.
            let mut extended = false;
            if state.call_depth < CALLER_DEPTH_BOUND {
                for (cf, cb) in &callers[state.func.index()] {
                    let prior = state
                        .visits
                        .iter()
                        .find(|(f2, b2, _)| f2 == cf && b2 == cb)
                        .map(|(_, _, n)| *n)
                        .unwrap_or(0);
                    if prior >= REVISIT_BOUND {
                        continue;
                    }
                    let mut visits = state.visits.clone();
                    visits.push((*cf, *cb, prior + 1));
                    stack.push(State {
                        func: *cf,
                        anchor: *cb,
                        block: *cb,
                        records: state.records.clone(),
                        visits,
                        call_depth: state.call_depth + 1,
                    });
                    extended = true;
                }
            }
            if !extended {
                paths += 1;
                total += state.records.len();
                useful += state.records.iter().filter(|u| **u).count();
            }
            continue;
        }
        for edge in edges {
            let (pred, record) = match edge {
                PredEdge::Branch { pred, useful } => (*pred, Some(*useful)),
                PredEdge::Jump { pred } => (*pred, Some(false)),
                PredEdge::Fallthrough { pred } => (*pred, None),
            };
            let prior = state
                .visits
                .iter()
                .find(|(f2, b2, _)| *f2 == state.func && *b2 == pred)
                .map(|(_, _, n)| *n)
                .unwrap_or(0);
            if prior >= REVISIT_BOUND {
                continue;
            }
            let mut records = state.records.clone();
            if let Some(u) = record {
                records.push(u);
            }
            let mut visits = state.visits.clone();
            match visits
                .iter_mut()
                .find(|(f2, b2, _)| *f2 == state.func && *b2 == pred)
            {
                Some((_, _, n)) => *n += 1,
                None => visits.push((state.func, pred, 1)),
            }
            stack.push(State {
                func: state.func,
                anchor: state.anchor,
                block: pred,
                records,
                visits,
                call_depth: state.call_depth,
            });
        }
    }
    (useful, total, paths)
}

/// The branch outcomes that jump *directly into* `block` of `func` — the
/// guards of the failure site itself. LBRA excludes these from its
/// candidate predictors: the branch entering the failure-logging block is
/// definitionally part of the failure *site* (LBRLOG already reports it as
/// the location), not a candidate *cause*.
pub fn site_guard_outcomes(
    program: &Program,
    func: FuncId,
    block: BlockId,
) -> std::collections::BTreeSet<(stm_machine::ids::BranchId, bool)> {
    let mut guards = std::collections::BTreeSet::new();
    for b in &program.function(func).blocks {
        if let (
            Terminator::Br {
                then_blk, else_blk, ..
            },
            Some(id),
        ) = (&b.term, b.branch)
        {
            if *then_blk == block {
                guards.insert((id, true));
            }
            if *else_blk == block {
                guards.insert((id, false));
            }
        }
    }
    guards
}

/// Locates the block holding the failure site described by a
/// [`FailureSpec`](crate::runner::FailureSpec): the block of the target logging call, or the block of
/// the statement at the crash location.
pub fn failure_site_block(
    program: &Program,
    spec: &crate::runner::FailureSpec,
) -> Option<(FuncId, BlockId)> {
    match spec {
        crate::runner::FailureSpec::ErrorLogAt(site) => {
            let info = program.log_site_info(*site);
            let func = program.function(info.func);
            let holder = func.blocks.iter().position(|b| {
                b.stmts
                    .iter()
                    .any(|s| matches!(&s.instr, Instr::Log { site: s2, .. } if s2 == site))
            })?;
            Some((info.func, BlockId::new(holder as u32)))
        }
        crate::runner::FailureSpec::CrashAt { func, line } => {
            let fid = program.function_by_name(func)?;
            let f = program.function(fid);
            for (bi, b) in f.blocks.iter().enumerate() {
                if b.stmts.iter().any(|s| s.loc.line == *line) {
                    return Some((fid, BlockId::new(bi as u32)));
                }
            }
            None
        }
        _ => None,
    }
}

/// Runs the analysis over every `Error` logging site of the program's
/// application (non-library) functions, with an LBR of `depth` entries.
pub fn useful_branch_ratio(program: &Program, depth: usize) -> UsefulBranchReport {
    let mut per_site = Vec::new();
    for info in program
        .log_sites
        .iter()
        .filter(|s| s.kind == LogKind::Error)
    {
        let func = program.function(info.func);
        if func.is_library {
            continue;
        }
        let holder = func.blocks.iter().position(|b| {
            b.stmts
                .iter()
                .any(|s| matches!(&s.instr, Instr::Log { site, .. } if *site == info.site))
        });
        let Some(holder) = holder else { continue };
        let (useful, total, paths) =
            analyze_site(program, info.func, BlockId::new(holder as u32), depth);
        per_site.push(SiteRatio {
            site: info.site,
            ratio: if total > 0 {
                useful as f64 / total as f64
            } else {
                0.0
            },
            records: total,
            paths,
        });
    }
    let populated: Vec<&SiteRatio> = per_site.iter().filter(|s| s.records > 0).collect();
    let average = if populated.is_empty() {
        0.0
    } else {
        populated.iter().map(|s| s.ratio).sum::<f64>() / populated.len() as f64
    };
    UsefulBranchReport {
        sites: per_site.len(),
        per_site,
        average,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    /// if (a) { if (b) error(); }  — both branches guard the error, and
    /// reaching the error pins both outcomes ⇒ zero useful records.
    #[test]
    fn pure_guard_branches_are_not_useful() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "m.c");
            let inner = f.new_block();
            let err = f.new_block();
            let out = f.new_block();
            let a = f.read_input(0);
            f.br(a, inner, out);
            f.set_block(inner);
            let b = f.read_input(1);
            f.br(b, err, out);
            f.set_block(err);
            f.log_error("guarded");
            f.jmp(out);
            f.set_block(out);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let r = useful_branch_ratio(&p, 16);
        assert_eq!(r.sites, 1);
        assert_eq!(r.per_site[0].ratio, 0.0);
        assert!(r.per_site[0].records > 0);
    }

    /// A diamond *before* the error: both arms rejoin and then the error
    /// fires unconditionally ⇒ the diamond's branch outcome cannot be
    /// inferred ⇒ useful.
    #[test]
    fn pre_join_branches_are_useful() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "m.c");
            let left = f.new_block();
            let right = f.new_block();
            let join = f.new_block();
            let a = f.read_input(0);
            f.br(a, left, right);
            f.set_block(left);
            f.nop();
            f.jmp(join); // non-adjacent: recorded jump
            f.set_block(right);
            f.nop();
            f.jmp(join); // adjacent: fall-through, no record
            f.set_block(join);
            f.log_error("always");
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let r = useful_branch_ratio(&p, 16);
        assert_eq!(r.sites, 1);
        let site = r.per_site[0];
        // Two paths: [useful-branch, jump] (left) and [useful-branch]
        // (right, fall-through). 2 useful of 3 records.
        assert_eq!(site.records, 3);
        assert!((site.ratio - 2.0 / 3.0).abs() < 1e-9, "{}", site.ratio);
    }

    /// A loop before the error contributes useful records bounded by the
    /// unrolling limit rather than diverging.
    #[test]
    fn loops_terminate_and_contribute_records() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "m.c");
            let header = f.new_block();
            let body = f.new_block();
            let exit = f.new_block();
            let n = f.read_input(0);
            let i = f.var();
            f.assign(i, 0);
            f.jmp(header);
            f.set_block(header);
            let c = f.bin(BinOp::Lt, i, n);
            f.br(c, body, exit);
            f.set_block(body);
            f.assign_bin(i, BinOp::Add, i, 1);
            f.jmp(header);
            f.set_block(exit);
            f.log_error("after loop");
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let r = useful_branch_ratio(&p, 16);
        assert_eq!(r.sites, 1);
        assert!(r.per_site[0].records > 0);
        // The loop condition's exit edge is forced (reaching the error
        // proves it), but the body-vs-exit history further back is useful.
        assert!(r.per_site[0].ratio > 0.0);
    }

    #[test]
    fn library_sites_are_skipped() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let lib = pb.declare_function("libfn");
        {
            let mut f = pb.build_function(lib, "lib.c");
            f.set_library();
            f.log_error("library error");
            f.ret(None);
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "m.c");
            f.call_void(lib, &[]);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let r = useful_branch_ratio(&p, 16);
        assert_eq!(r.sites, 0);
    }

    #[test]
    fn depth_caps_record_count_per_path() {
        // A long chain of diamonds; with depth 4 each path holds exactly 4
        // records.
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "m.c");
            let mut cur_join = None;
            for d in 0..8 {
                let left = f.new_block();
                let right = f.new_block();
                let join = f.new_block();
                let a = f.read_input(d);
                f.br(a, left, right);
                f.set_block(left);
                f.nop();
                f.jmp(join);
                f.set_block(right);
                f.nop();
                f.jmp(join);
                f.set_block(join);
                cur_join = Some(join);
            }
            let _ = cur_join;
            f.log_error("end of chain");
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        let shallow = useful_branch_ratio(&p, 4);
        let deep = useful_branch_ratio(&p, 16);
        assert!(deep.per_site[0].records >= shallow.per_site[0].records);
        assert!(shallow.per_site[0].ratio > 0.5);
    }
}
