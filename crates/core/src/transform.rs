//! The source-to-source instrumentation transformer of §5.1.
//!
//! Given an uninstrumented program, [`instrument`] produces the deployable
//! variant:
//!
//! 1. **toggling wrappers** around library functions — each wrapper
//!    disables LBR/LCR on entry, calls the original, and re-enables on
//!    exit, so library branches and accesses do not pollute the precious
//!    short-term memory (§4.3);
//! 2. **enable-at-main** — configure, clean and enable the facilities at
//!    the entry of `main` (Fig. 7);
//! 3. **failure-site profiling** — right before every failure-logging call,
//!    disable, profile, re-enable;
//! 4. **fault handler** — register LBR/LCR profiling in the segmentation
//!    fault handler;
//! 5. **success-site profiling** (LBRA/LCRA only, Fig. 8) — profile right
//!    before the conditional branch that jumps into a failure-logging
//!    block, and (reactive scheme) right after instructions observed to
//!    fault.

use stm_machine::events::{lbr_select, HwCtlOp, LcrConfig};
use stm_machine::ids::{FuncId, LogSiteId, VarId};
use stm_machine::ir::{
    BasicBlock, Callee, FaultProfile, Function, Instr, LogKind, Operand, ProfileRole, Program,
    SourceLoc, Stmt, Terminator,
};

/// Which success-site profiling scheme to install (§5.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SuccessSites {
    /// No success-site profiling (LBRLOG/LCRLOG mode).
    #[default]
    None,
    /// The proactive scheme: instrument the success site of **every**
    /// failure-logging site before release. Cannot cover unexpected
    /// failure locations (segfaults).
    Proactive,
    /// The reactive scheme: instrument only the success sites matching
    /// failures already observed in the field.
    Reactive {
        /// Failure-logging sites whose success sites to instrument.
        log_sites: Vec<LogSiteId>,
        /// `(function, location)` pairs of instructions observed to fault;
        /// the statement *after* each is a success logging site.
        fault_locs: Vec<(FuncId, SourceLoc)>,
    },
}

/// Options controlling [`instrument`].
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentOptions {
    /// Deploy the LBR machinery.
    pub lbr: bool,
    /// Deploy the LCR machinery.
    pub lcr: bool,
    /// Generate toggling wrappers around library functions.
    pub toggle_libraries: bool,
    /// Success-site scheme.
    pub success_sites: SuccessSites,
    /// LCR event selection programmed at startup.
    pub lcr_config: LcrConfig,
}

impl InstrumentOptions {
    /// LBRLOG with toggling (the paper's default deployment).
    pub fn lbrlog() -> Self {
        InstrumentOptions {
            lbr: true,
            lcr: false,
            toggle_libraries: true,
            success_sites: SuccessSites::None,
            lcr_config: LcrConfig::default(),
        }
    }

    /// LBRLOG without toggling (the higher-performance, lower-capability
    /// ablation of Table 6).
    pub fn lbrlog_without_toggling() -> Self {
        InstrumentOptions {
            toggle_libraries: false,
            ..InstrumentOptions::lbrlog()
        }
    }

    /// LBRA in proactive mode.
    pub fn lbra_proactive() -> Self {
        InstrumentOptions {
            success_sites: SuccessSites::Proactive,
            ..InstrumentOptions::lbrlog()
        }
    }

    /// LBRA in reactive mode for the given observed failures.
    pub fn lbra_reactive(log_sites: Vec<LogSiteId>, fault_locs: Vec<(FuncId, SourceLoc)>) -> Self {
        InstrumentOptions {
            success_sites: SuccessSites::Reactive {
                log_sites,
                fault_locs,
            },
            ..InstrumentOptions::lbrlog()
        }
    }

    /// LCRLOG with the given LCR configuration.
    pub fn lcrlog(lcr_config: LcrConfig) -> Self {
        InstrumentOptions {
            lbr: false,
            lcr: true,
            toggle_libraries: true,
            success_sites: SuccessSites::None,
            lcr_config,
        }
    }

    /// LCRA in reactive mode.
    pub fn lcra_reactive(
        lcr_config: LcrConfig,
        log_sites: Vec<LogSiteId>,
        fault_locs: Vec<(FuncId, SourceLoc)>,
    ) -> Self {
        InstrumentOptions {
            success_sites: SuccessSites::Reactive {
                log_sites,
                fault_locs,
            },
            ..InstrumentOptions::lcrlog(lcr_config)
        }
    }

    /// Combined LBR+LCR deployment.
    pub fn full() -> Self {
        InstrumentOptions {
            lbr: true,
            lcr: true,
            ..InstrumentOptions::lbrlog()
        }
    }
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions::lbrlog()
    }
}

fn hwctl(op: HwCtlOp, loc: SourceLoc) -> Stmt {
    Stmt {
        instr: Instr::HwCtl {
            op,
            site: None,
            role: ProfileRole::FailureSite,
        },
        loc,
    }
}

fn profile_stmt(
    lbr: bool,
    site: Option<LogSiteId>,
    role: ProfileRole,
    loc: SourceLoc,
) -> Vec<Stmt> {
    let (dis, prof, en) = if lbr {
        (HwCtlOp::DisableLbr, HwCtlOp::ProfileLbr, HwCtlOp::EnableLbr)
    } else {
        (HwCtlOp::DisableLcr, HwCtlOp::ProfileLcr, HwCtlOp::EnableLcr)
    };
    vec![
        hwctl(dis, loc),
        Stmt {
            instr: Instr::HwCtl {
                op: prof,
                site,
                role,
            },
            loc,
        },
        hwctl(en, loc),
    ]
}

/// Instruments a program for deployment.
///
/// The result is a fresh [`Program`]: the input is not modified. Branch and
/// log-site identifiers are preserved (the pass only inserts straight-line
/// statements and appends wrapper functions), so ground-truth references
/// into the original program remain valid.
pub fn instrument(program: &Program, opts: &InstrumentOptions) -> Program {
    let mut p = program.clone();

    if opts.toggle_libraries {
        install_toggling_wrappers(&mut p, opts);
    }
    insert_success_profiles(&mut p, opts);
    insert_failure_profiles(&mut p, opts);
    insert_entry_enable(&mut p, opts);
    p.fault_profile = FaultProfile {
        lbr: opts.lbr,
        lcr: opts.lcr,
    };
    p.lcr_config = opts.lcr_config;
    p.finalize();
    debug_assert!(p.validate().is_ok(), "instrumentation broke the program");
    p
}

/// Creates `__toggle_*` wrappers for every library function and redirects
/// application call sites to them.
fn install_toggling_wrappers(p: &mut Program, opts: &InstrumentOptions) {
    let n = p.functions.len();
    let mut wrapper_of: Vec<Option<FuncId>> = vec![None; n];
    #[allow(clippy::needless_range_loop)] // `p.functions` is extended inside the loop
    for i in 0..n {
        if !p.functions[i].is_library {
            continue;
        }
        let lib = &p.functions[i];
        let params = lib.params;
        let file = lib.file;
        let name = format!("__toggle_{}", lib.name);
        let wid = FuncId::new(p.functions.len() as u32);
        let loc = SourceLoc::UNKNOWN;
        let mut stmts = Vec::new();
        if opts.lbr {
            stmts.push(hwctl(HwCtlOp::DisableLbr, loc));
        }
        if opts.lcr {
            stmts.push(hwctl(HwCtlOp::DisableLcr, loc));
        }
        let ret_var = VarId::new(params); // one extra var for the result
        stmts.push(Stmt {
            instr: Instr::Call {
                dst: Some(ret_var),
                callee: Callee::Direct(FuncId::new(i as u32)),
                args: (0..params).map(|v| Operand::Var(VarId::new(v))).collect(),
            },
            loc,
        });
        if opts.lbr {
            stmts.push(hwctl(HwCtlOp::EnableLbr, loc));
        }
        if opts.lcr {
            stmts.push(hwctl(HwCtlOp::EnableLcr, loc));
        }
        let block = BasicBlock {
            stmts,
            term: Terminator::Ret(Some(Operand::Var(ret_var))),
            term_loc: loc,
            branch: None,
        };
        p.functions.push(Function {
            name,
            file,
            params,
            num_vars: params + 1,
            frame_slots: 0,
            blocks: vec![block],
            is_library: true,
        });
        wrapper_of[i] = Some(wid);
    }
    // Redirect call sites in application (non-library) code. Wrappers are
    // marked library themselves, so they keep calling the original.
    for func in p.functions.iter_mut().take(n) {
        if func.is_library {
            continue;
        }
        for block in &mut func.blocks {
            for stmt in &mut block.stmts {
                if let Instr::Call { callee, .. } = &mut stmt.instr {
                    match callee {
                        Callee::Direct(t) => {
                            if let Some(w) = wrapper_of.get(t.index()).copied().flatten() {
                                *t = w;
                            }
                        }
                        Callee::Indirect { targets, .. } => {
                            for t in targets {
                                if let Some(w) = wrapper_of.get(t.index()).copied().flatten() {
                                    *t = w;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Inserts `disable; profile(FailureSite); enable` before every
/// failure-logging call in application code, matching Fig. 7.
fn insert_failure_profiles(p: &mut Program, opts: &InstrumentOptions) {
    for func in &mut p.functions {
        if func.is_library {
            continue;
        }
        for block in &mut func.blocks {
            // Walk backwards so earlier insertions do not shift later ones.
            let indices: Vec<usize> = block
                .stmts
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match &s.instr {
                    Instr::Log {
                        kind: LogKind::Error,
                        ..
                    } => Some(i),
                    _ => None,
                })
                .collect();
            for &i in indices.iter().rev() {
                let (site, loc) = match &block.stmts[i].instr {
                    Instr::Log { site, .. } => (*site, block.stmts[i].loc),
                    _ => unreachable!(),
                };
                let mut seq = Vec::new();
                if opts.lbr {
                    seq.extend(profile_stmt(
                        true,
                        Some(site),
                        ProfileRole::FailureSite,
                        loc,
                    ));
                }
                if opts.lcr {
                    seq.extend(profile_stmt(
                        false,
                        Some(site),
                        ProfileRole::FailureSite,
                        loc,
                    ));
                }
                block.stmts.splice(i..i, seq);
            }
        }
    }
}

/// Inserts success-site profiling per Fig. 8 and, in reactive mode, after
/// observed fault locations.
fn insert_success_profiles(p: &mut Program, opts: &InstrumentOptions) {
    let (log_sites, fault_locs): (Vec<LogSiteId>, Vec<(FuncId, SourceLoc)>) =
        match &opts.success_sites {
            SuccessSites::None => return,
            SuccessSites::Proactive => (
                p.log_sites
                    .iter()
                    .filter(|s| s.kind == LogKind::Error)
                    .map(|s| s.site)
                    .collect(),
                Vec::new(),
            ),
            SuccessSites::Reactive {
                log_sites,
                fault_locs,
            } => (log_sites.clone(), fault_locs.clone()),
        };

    // Success sites for logging failures: profile right before the branch
    // that jumps into the block holding the failure-logging call.
    for site in log_sites {
        let info = p.log_site_info(site).clone();
        let func = &mut p.functions[info.func.index()];
        // Which block holds the Log instruction?
        let holder = func.blocks.iter().position(|b| {
            b.stmts
                .iter()
                .any(|s| matches!(&s.instr, Instr::Log { site: s2, .. } if *s2 == site))
        });
        let Some(holder) = holder else { continue };
        for block in &mut func.blocks {
            if let Terminator::Br {
                then_blk, else_blk, ..
            } = block.term
            {
                if then_blk.index() == holder || else_blk.index() == holder {
                    let loc = block.term_loc;
                    let mut seq = Vec::new();
                    if opts.lbr {
                        seq.extend(profile_stmt(
                            true,
                            Some(site),
                            ProfileRole::SuccessSite,
                            loc,
                        ));
                    }
                    if opts.lcr {
                        seq.extend(profile_stmt(
                            false,
                            Some(site),
                            ProfileRole::SuccessSite,
                            loc,
                        ));
                    }
                    block.stmts.extend(seq);
                }
            }
        }
    }

    // Success sites for crash failures (reactive only): profile right
    // after every statement at the observed fault location.
    for (fid, loc) in fault_locs {
        let func = &mut p.functions[fid.index()];
        for block in &mut func.blocks {
            let indices: Vec<usize> = block
                .stmts
                .iter()
                .enumerate()
                .filter(|(_, s)| s.loc == loc && stmt_can_fault(&s.instr))
                .map(|(i, _)| i)
                .collect();
            for &i in indices.iter().rev() {
                let mut seq = Vec::new();
                if opts.lbr {
                    seq.extend(profile_stmt(true, None, ProfileRole::SuccessSite, loc));
                }
                if opts.lcr {
                    seq.extend(profile_stmt(false, None, ProfileRole::SuccessSite, loc));
                }
                block.stmts.splice(i + 1..i + 1, seq);
            }
        }
    }
}

fn stmt_can_fault(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. }
            | Instr::Free { .. }
            | Instr::Assert { .. }
            | Instr::Assign {
                rv: stm_machine::ir::Rvalue::Binary { .. },
                ..
            }
    )
}

/// Prepends configure/clean/enable to the entry function (Fig. 7).
fn insert_entry_enable(p: &mut Program, opts: &InstrumentOptions) {
    let entry = p.entry;
    let block = &mut p.functions[entry.index()].blocks[0];
    let loc = block
        .stmts
        .first()
        .map(|s| s.loc)
        .unwrap_or(SourceLoc::UNKNOWN);
    let mut seq = Vec::new();
    if opts.lbr {
        seq.push(hwctl(HwCtlOp::ConfigLbr(lbr_select::DIAGNOSIS), loc));
        seq.push(hwctl(HwCtlOp::CleanLbr, loc));
        seq.push(hwctl(HwCtlOp::EnableLbr, loc));
    }
    if opts.lcr {
        seq.push(hwctl(HwCtlOp::ConfigLcr(opts.lcr_config), loc));
        seq.push(hwctl(HwCtlOp::CleanLcr, loc));
        seq.push(hwctl(HwCtlOp::EnableLcr, loc));
    }
    block.stmts.splice(0..0, seq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::builder::ProgramBuilder;
    use stm_machine::ir::BinOp;

    /// A program with a library helper and one guarded error log.
    fn sample() -> (Program, LogSiteId, FuncId) {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let strlen = pb.declare_function("strlen");
        {
            let mut f = pb.build_function(strlen, "libc.c");
            f.set_library();
            let ps = f.params(1);
            let r = f.bin(BinOp::Add, ps[0], 1);
            f.ret(Some(r.into()));
            f.finish();
        }
        let site;
        {
            let mut f = pb.build_function(main, "m.c");
            let err = f.new_block();
            let ok = f.new_block();
            let x = f.read_input(0);
            let _ = f.call(strlen, &[x.into()]);
            let c = f.bin(BinOp::Lt, x, 0);
            f.br(c, err, ok);
            f.set_block(err);
            site = f.log_error("negative input");
            f.exit(1);
            f.ret(None);
            f.set_block(ok);
            f.output(x);
            f.ret(None);
            f.finish();
        }
        (pb.finish(main), site, main)
    }

    fn count_ops(p: &Program, pred: impl Fn(&Instr) -> bool) -> usize {
        p.functions
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.stmts)
            .filter(|s| pred(&s.instr))
            .count()
    }

    #[test]
    fn entry_gets_config_clean_enable() {
        let (p, _, main) = sample();
        let out = instrument(&p, &InstrumentOptions::lbrlog());
        let first_ops: Vec<_> = out.functions[main.index()].blocks[0]
            .stmts
            .iter()
            .take(3)
            .map(|s| s.instr.clone())
            .collect();
        assert!(matches!(
            first_ops[0],
            Instr::HwCtl {
                op: HwCtlOp::ConfigLbr(_),
                ..
            }
        ));
        assert!(matches!(
            first_ops[1],
            Instr::HwCtl {
                op: HwCtlOp::CleanLbr,
                ..
            }
        ));
        assert!(matches!(
            first_ops[2],
            Instr::HwCtl {
                op: HwCtlOp::EnableLbr,
                ..
            }
        ));
    }

    #[test]
    fn failure_log_gets_profile_sequence_before_it() {
        let (p, site, _) = sample();
        let out = instrument(&p, &InstrumentOptions::lbrlog());
        let profiles = count_ops(&out, |i| {
            matches!(
                i,
                Instr::HwCtl {
                    op: HwCtlOp::ProfileLbr,
                    site: Some(s),
                    role: ProfileRole::FailureSite,
                } if *s == site
            )
        });
        assert_eq!(profiles, 1);
    }

    #[test]
    fn toggling_creates_wrappers_and_redirects_calls() {
        let (p, _, _) = sample();
        let nf = p.functions.len();
        let out = instrument(&p, &InstrumentOptions::lbrlog());
        assert_eq!(out.functions.len(), nf + 1);
        let wrapper = out.function_by_name("__toggle_strlen").unwrap();
        // main's call goes to the wrapper now.
        let main_calls_wrapper = out.functions[1..nf] // skip library strlen? main is idx 0
            .iter()
            .chain(std::iter::once(&out.functions[0]))
            .filter(|f| !f.is_library)
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.stmts)
            .any(|s| {
                matches!(&s.instr, Instr::Call { callee: Callee::Direct(t), .. } if *t == wrapper)
            });
        assert!(main_calls_wrapper);
        // The wrapper itself calls the original and toggles around it.
        let w = out.function(wrapper);
        assert!(matches!(
            w.blocks[0].stmts[0].instr,
            Instr::HwCtl {
                op: HwCtlOp::DisableLbr,
                ..
            }
        ));
        assert!(matches!(
            w.blocks[0].stmts.last().unwrap().instr,
            Instr::HwCtl {
                op: HwCtlOp::EnableLbr,
                ..
            }
        ));
    }

    #[test]
    fn no_toggling_means_no_wrappers() {
        let (p, _, _) = sample();
        let nf = p.functions.len();
        let out = instrument(&p, &InstrumentOptions::lbrlog_without_toggling());
        assert_eq!(out.functions.len(), nf);
    }

    #[test]
    fn proactive_mode_inserts_success_profile_before_guard_branch() {
        let (p, site, main) = sample();
        let out = instrument(&p, &InstrumentOptions::lbra_proactive());
        // The guard block (entry block of main) ends with the Br into the
        // error block; its last stmts must include a SuccessSite profile.
        let entry = &out.functions[main.index()].blocks[0];
        let has_success = entry.stmts.iter().any(|s| {
            matches!(
                &s.instr,
                Instr::HwCtl {
                    op: HwCtlOp::ProfileLbr,
                    site: Some(s2),
                    role: ProfileRole::SuccessSite,
                } if *s2 == site
            )
        });
        assert!(has_success);
    }

    #[test]
    fn reactive_fault_mode_profiles_after_faulting_stmt() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.at(7);
        let x = f.read_input(0);
        let _v = f.load(x, 0); // may fault at m.c:7
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        let loc = SourceLoc::new(p.functions[0].file, 7);
        let out = instrument(
            &p,
            &InstrumentOptions::lbra_reactive(vec![], vec![(main, loc)]),
        );
        let block = &out.functions[main.index()].blocks[0];
        let load_at = block
            .stmts
            .iter()
            .position(|s| matches!(s.instr, Instr::Load { .. }))
            .unwrap();
        assert!(matches!(
            block.stmts[load_at + 2].instr,
            Instr::HwCtl {
                op: HwCtlOp::ProfileLbr,
                site: None,
                role: ProfileRole::SuccessSite,
            }
        ));
    }

    #[test]
    fn branch_ids_are_preserved() {
        let (p, _, _) = sample();
        let out = instrument(&p, &InstrumentOptions::lbra_proactive());
        assert_eq!(p.branches.len(), out.branches.len());
        for (a, b) in p.branches.iter().zip(&out.branches) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.loc, b.loc);
            assert_eq!(a.func, b.func);
        }
    }

    #[test]
    fn instrumented_program_validates() {
        let (p, _, _) = sample();
        for opts in [
            InstrumentOptions::lbrlog(),
            InstrumentOptions::lbrlog_without_toggling(),
            InstrumentOptions::lbra_proactive(),
            InstrumentOptions::lcrlog(LcrConfig::SPACE_CONSUMING),
            InstrumentOptions::full(),
        ] {
            let out = instrument(&p, &opts);
            out.validate().unwrap();
        }
    }

    #[test]
    fn lcr_options_insert_lcr_ops() {
        let (p, _, _) = sample();
        let out = instrument(&p, &InstrumentOptions::lcrlog(LcrConfig::SPACE_SAVING));
        assert!(
            count_ops(&out, |i| matches!(
                i,
                Instr::HwCtl {
                    op: HwCtlOp::ProfileLcr,
                    ..
                }
            )) >= 1
        );
        assert_eq!(out.lcr_config, LcrConfig::SPACE_SAVING);
        assert!(out.fault_profile.lcr);
        assert!(!out.fault_profile.lbr);
    }
}
