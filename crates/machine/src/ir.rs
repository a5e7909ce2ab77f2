//! The intermediate representation executed by the [`Machine`](crate::interp::Machine).
//!
//! Programs are compiler-style: a set of functions made of basic blocks,
//! each holding straight-line statements and one terminator. The IR is
//! deliberately close to the machine model the paper cares about:
//!
//! * conditional branches lower to a conditional jump plus a fall-through
//!   unconditional jump (Fig. 2), so LBR always records *some* branch for
//!   either outcome of a source-level conditional;
//! * loads and stores are explicit and flow through the simulated MESI L1
//!   caches, producing the coherence events LCR records;
//! * failure-logging calls ([`Instr::Log`]) and hardware control calls
//!   ([`Instr::HwCtl`]) are first-class, because the diagnosis transformer
//!   of `stm-core` rewrites programs in terms of them.
//!
//! Construct programs with [`ProgramBuilder`](crate::builder::ProgramBuilder)
//! rather than by hand; the builder assigns identifiers and keeps the
//! registries (branches, log sites) consistent.

use crate::events::HwCtlOp;
use crate::ids::{BlockId, BranchId, FileId, FuncId, LogSiteId, SampleId, VarId};
use std::fmt;

/// Base linear address of the code segment; function `f` is laid out at
/// `CODE_BASE + f * FUNC_STRIDE`.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Address stride between consecutive functions.
pub const FUNC_STRIDE: u64 = 0x0001_0000;
/// Base address of the global data segment.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x2000_0000;
/// Base address of the per-thread stacks.
pub const STACK_BASE: u64 = 0x7000_0000;
/// Address stride between consecutive thread stacks.
pub const STACK_STRIDE: u64 = 0x0010_0000;

/// A position in the (synthetic) source code of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceLoc {
    /// The source file.
    pub file: FileId,
    /// 1-based line number; 0 means "unknown".
    pub line: u32,
}

impl SourceLoc {
    /// A location in an unknown file/line.
    pub const UNKNOWN: SourceLoc = SourceLoc {
        file: FileId::new(u32::MAX),
        line: 0,
    };

    /// Creates a location.
    pub const fn new(file: FileId, line: u32) -> Self {
        SourceLoc { file, line }
    }

    /// Returns `true` when this is the unknown location.
    pub fn is_unknown(&self) -> bool {
        *self == SourceLoc::UNKNOWN
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unknown() {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.file, self.line)
        }
    }
}

/// An operand: either an immediate constant or a local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An immediate 64-bit constant. Addresses are plain integers.
    Const(i64),
    /// A local variable (virtual register) of the enclosing function.
    Var(VarId),
}

impl From<i64> for Operand {
    fn from(value: i64) -> Self {
        Operand::Const(value)
    }
}

impl From<VarId> for Operand {
    fn from(var: VarId) -> Self {
        Operand::Var(var)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Var(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operators. Comparisons yield `1` (true) or `0` (false).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; dividing by zero raises a machine fault.
    Div,
    /// Signed remainder; dividing by zero raises a machine fault.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (modulo 64).
    Shl,
    /// Arithmetic right shift (modulo 64).
    Shr,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not: `0 → 1`, non-zero `→ 0`.
    Not,
    /// Bitwise complement.
    BitNot,
}

/// The right-hand side of an assignment (three-address style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rvalue {
    /// Copies an operand.
    Use(Operand),
    /// Applies a binary operator.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Applies a unary operator.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Operand,
    },
    /// Reads the workload input at the given index.
    ///
    /// An index past the end of the input vector yields the documented
    /// zero sentinel (workloads are logically zero-padded); a *negative*
    /// index is a typed guest fault
    /// ([`FailureKind::NegativeInputIndex`](crate::report::FailureKind)).
    ReadInput {
        /// Index into the run's input vector.
        index: Operand,
    },
}

/// Severity of a logging call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogKind {
    /// A failure-logging call (`error()`, `ap_log_error()`...). These are
    /// the sites the diagnosis transformer instruments.
    Error,
    /// A warning.
    Warning,
    /// Informational output.
    Info,
}

/// Whether a profile instruction collects a failure-run or a success-run
/// profile (paper §5.2, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileRole {
    /// Collected at a failure logging site (or in the fault handler).
    FailureSite,
    /// Collected at the matching success logging site.
    SuccessSite,
}

/// Callee of a call instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A direct call; retires a near relative call branch.
    Direct(FuncId),
    /// An indirect call through a table; retires a near indirect call
    /// branch. The selector value indexes `targets` (modulo its length).
    Indirect {
        /// Candidate targets (the "function pointer table").
        targets: Vec<FuncId>,
        /// Runtime selector.
        selector: Operand,
    },
}

/// A straight-line instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = rvalue`.
    Assign {
        /// Destination variable.
        dst: VarId,
        /// Computed value.
        rv: Rvalue,
    },
    /// Loads the 8-byte word at `addr + disp` into `dst`; faults on
    /// unmapped addresses.
    Load {
        /// Destination variable.
        dst: VarId,
        /// Base address operand.
        addr: Operand,
        /// Constant byte displacement.
        disp: i64,
    },
    /// Stores `value` into the 8-byte word at `addr + disp`.
    Store {
        /// Base address operand.
        addr: Operand,
        /// Constant byte displacement.
        disp: i64,
        /// Value to store.
        value: Operand,
    },
    /// Loads stack slot `slot` of the current frame into `dst`. Stack
    /// accesses go through the cache like any other access (they are the
    /// dominant source of exclusive-load noise in LCR, §4.2.2).
    StackLoad {
        /// Destination variable.
        dst: VarId,
        /// Frame slot index.
        slot: u32,
    },
    /// Stores `value` into stack slot `slot` of the current frame.
    StackStore {
        /// Frame slot index.
        slot: u32,
        /// Value to store.
        value: Operand,
    },
    /// Allocates `words` 8-byte words on the heap; `dst` receives the base
    /// address.
    Alloc {
        /// Destination variable receiving the base address.
        dst: VarId,
        /// Number of 8-byte words to allocate.
        words: Operand,
    },
    /// Frees (unmaps) the allocation starting at `addr`; later accesses
    /// fault, modelling use-after-free.
    Free {
        /// Base address of a previous allocation.
        addr: Operand,
    },
    /// Calls a function; retires a call branch, and the callee's `ret`
    /// retires a return branch.
    Call {
        /// Destination for the return value, if used.
        dst: Option<VarId>,
        /// The callee.
        callee: Callee,
        /// Argument operands, bound to the callee's first variables.
        args: Vec<Operand>,
    },
    /// Spawns a thread running `func`; `dst` receives the thread id.
    Spawn {
        /// Destination variable receiving the spawned thread id.
        dst: VarId,
        /// Thread entry function.
        func: FuncId,
        /// Arguments to the entry function.
        args: Vec<Operand>,
    },
    /// Blocks until the thread named by `thread` exits.
    Join {
        /// A thread id produced by [`Instr::Spawn`].
        thread: Operand,
    },
    /// Acquires the mutex stored at address `addr` (blocking). The mutex
    /// word itself is written, producing a store coherence event; locking
    /// an unmapped address faults (modelling destroyed mutexes).
    Lock {
        /// Address of the mutex word.
        addr: Operand,
    },
    /// Releases the mutex at `addr`.
    Unlock {
        /// Address of the mutex word.
        addr: Operand,
    },
    /// Appends `value` to the run's output vector (the program's
    /// observable result; wrong-output failures are detected by comparing
    /// outputs against the workload's expectation).
    Output {
        /// Value emitted.
        value: Operand,
    },
    /// A logging call. `Error`-kind logs are the failure-logging sites the
    /// paper's transformer instruments; executing a log also performs a
    /// small amount of kernel work (ring-0 branches).
    Log {
        /// The program-wide identity of this logging site.
        site: LogSiteId,
        /// Severity.
        kind: LogKind,
        /// Static message template (no runtime values — privacy).
        message: String,
    },
    /// A hardware control operation (the `ioctl` interface of Fig. 7).
    /// Profile operations attach their snapshot to the run report.
    HwCtl {
        /// The control operation.
        op: HwCtlOp,
        /// For profile operations: the logging site this profile belongs to
        /// (`None` inside the fault handler).
        site: Option<LogSiteId>,
        /// For profile operations: failure- or success-site profile.
        role: ProfileRole,
    },
    /// A sampled instrumentation probe (CBI/CCI/PBI baselines): when the
    /// per-thread geometric countdown fires, records `(id, value)` in the
    /// run report. Costs work on every execution, which is exactly how the
    /// sampling overhead of the CBI approach arises.
    Sample {
        /// Probe identity.
        id: SampleId,
        /// Sampled value (e.g. a branch condition).
        value: Operand,
    },
    /// Asserts that `cond` is non-zero; a zero value raises an assertion
    /// failure (a fail-stop symptom).
    Assert {
        /// The condition.
        cond: Operand,
        /// Message reported on violation.
        message: String,
    },
    /// Terminates the whole program immediately with the given exit code.
    Exit {
        /// Process exit code.
        code: Operand,
    },
    /// A scheduling hint; semantically a no-op.
    Yield,
    /// Does nothing.
    Nop,
}

/// A statement: an instruction plus its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The instruction.
    pub instr: Instr,
    /// Source location, for patch-distance and report rendering.
    pub loc: SourceLoc,
}

/// A basic-block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// A source-level conditional branch (Fig. 2 lowering: taken
    /// conditional jump on the false edge, fall-through unconditional jump
    /// on the true edge).
    Br {
        /// Condition operand; non-zero takes the `then_blk` edge.
        cond: Operand,
        /// Successor on a true condition.
        then_blk: BlockId,
        /// Successor on a false condition.
        else_blk: BlockId,
    },
    /// An unconditional jump. Lowered to a fall-through (no branch record)
    /// when the target is the next block in layout order, otherwise to a
    /// near relative jump (recorded).
    Jmp(BlockId),
    /// Returns from the function; retires a near return branch.
    Ret(Option<Operand>),
}

impl Terminator {
    /// The successors of this terminator, in (then, else) order for `Br`.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br {
                then_blk, else_blk, ..
            } => vec![*then_blk, *else_blk],
            Terminator::Jmp(b) => vec![*b],
            Terminator::Ret(_) => vec![],
        }
    }
}

/// A basic block: straight-line statements plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// The statements, executed in order.
    pub stmts: Vec<Stmt>,
    /// The terminator.
    pub term: Terminator,
    /// Source location of the terminator.
    pub term_loc: SourceLoc,
    /// For `Br` terminators: the program-wide branch identity, assigned by
    /// [`Program::finalize`].
    pub branch: Option<BranchId>,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within a program).
    pub name: String,
    /// The file this function lives in.
    pub file: FileId,
    /// Number of parameters; bound to variables `v0..vparams`.
    pub params: u32,
    /// Total number of local variables (including parameters).
    pub num_vars: u32,
    /// Number of stack slots in the frame.
    pub frame_slots: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Library functions are candidates for LBR/LCR toggling wrappers and
    /// are skipped by the useful-branch analysis (they are not application
    /// logging sites).
    pub is_library: bool,
}

impl Function {
    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Name (unique within a program).
    pub name: String,
    /// Assigned base address (within the global segment).
    pub addr: u64,
    /// Size in 8-byte words.
    pub words: u64,
    /// Initial values; missing trailing words are zero.
    pub init: Vec<i64>,
}

/// Registry entry describing a source-level conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// The branch id.
    pub id: BranchId,
    /// Enclosing function.
    pub func: FuncId,
    /// Block whose terminator is the branch.
    pub block: BlockId,
    /// Source location.
    pub loc: SourceLoc,
}

/// Registry entry describing a logging site.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSiteInfo {
    /// The site id.
    pub site: LogSiteId,
    /// Enclosing function.
    pub func: FuncId,
    /// Source location of the logging call.
    pub loc: SourceLoc,
    /// Severity.
    pub kind: LogKind,
    /// Static message.
    pub message: String,
}

/// Configuration of the registered fault handler: which facilities it
/// profiles when the program crashes (transformer step 4 of §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultProfile {
    /// Profile the LBR in the fault handler.
    pub lbr: bool,
    /// Profile the LCR in the fault handler.
    pub lcr: bool,
}

/// A complete program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (for reports).
    pub name: String,
    /// Source file table.
    pub files: Vec<String>,
    /// Functions; indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// Globals; indexed by [`GlobalId`](crate::ids::GlobalId).
    pub globals: Vec<GlobalDef>,
    /// The entry function (run on the main thread).
    pub entry: FuncId,
    /// Registry of source-level conditional branches (after
    /// [`Program::finalize`]).
    pub branches: Vec<BranchInfo>,
    /// Registry of logging sites.
    pub log_sites: Vec<LogSiteInfo>,
    /// Fault-handler profiling configuration.
    pub fault_profile: FaultProfile,
}

/// Errors reported by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateProgramError {
    /// A block terminator targets a non-existent block.
    BadBlockTarget {
        /// Offending function.
        func: FuncId,
        /// Offending block.
        block: BlockId,
        /// The bad target.
        target: BlockId,
    },
    /// An instruction references a variable beyond `num_vars`.
    BadVar {
        /// Offending function.
        func: FuncId,
        /// The bad variable.
        var: VarId,
    },
    /// A call references a non-existent function.
    BadCallee {
        /// Offending function.
        func: FuncId,
        /// The bad callee.
        callee: FuncId,
    },
    /// The entry function does not exist.
    BadEntry(FuncId),
    /// A function has more parameters than variables.
    ParamsExceedVars(FuncId),
    /// A stack access references a slot beyond `frame_slots`.
    BadStackSlot {
        /// Offending function.
        func: FuncId,
        /// The bad slot.
        slot: u32,
    },
    /// Two globals overlap in the address space.
    OverlappingGlobals(String, String),
    /// The program was not finalized (branch registry missing).
    NotFinalized,
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateProgramError::BadBlockTarget {
                func,
                block,
                target,
            } => {
                write!(f, "{func} {block}: terminator targets missing {target}")
            }
            ValidateProgramError::BadVar { func, var } => {
                write!(f, "{func}: reference to undeclared variable {var}")
            }
            ValidateProgramError::BadCallee { func, callee } => {
                write!(f, "{func}: call to missing function {callee}")
            }
            ValidateProgramError::BadEntry(e) => write!(f, "entry function {e} does not exist"),
            ValidateProgramError::ParamsExceedVars(func) => {
                write!(f, "{func}: more parameters than variables")
            }
            ValidateProgramError::BadStackSlot { func, slot } => {
                write!(f, "{func}: stack slot {slot} out of range")
            }
            ValidateProgramError::OverlappingGlobals(a, b) => {
                write!(f, "globals `{a}` and `{b}` overlap")
            }
            ValidateProgramError::NotFinalized => {
                write!(f, "program was not finalized before use")
            }
        }
    }
}

impl std::error::Error for ValidateProgramError {}

impl Program {
    /// Returns the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId::new(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Returns the registry entry for a log site.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn log_site_info(&self, id: LogSiteId) -> &LogSiteInfo {
        &self.log_sites[id.index()]
    }

    /// The file name behind a [`FileId`], or `"<unknown>"`.
    pub fn file_name(&self, id: FileId) -> &str {
        self.files
            .get(id.index())
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Renders a [`SourceLoc`] with the real file name.
    pub fn render_loc(&self, loc: SourceLoc) -> String {
        if loc.is_unknown() {
            "<unknown>".to_string()
        } else {
            format!("{}:{}", self.file_name(loc.file), loc.line)
        }
    }

    /// (Re)builds the branch registry. Deterministic: branches are numbered
    /// in (function, block) order. Instrumentation passes that only append
    /// statements or whole functions keep existing ids stable.
    pub fn finalize(&mut self) {
        self.branches.clear();
        for (fi, func) in self.functions.iter_mut().enumerate() {
            for (bi, block) in func.blocks.iter_mut().enumerate() {
                if matches!(block.term, Terminator::Br { .. }) {
                    let id = BranchId::new(self.branches.len() as u32);
                    block.branch = Some(id);
                    self.branches.push(BranchInfo {
                        id,
                        func: FuncId::new(fi as u32),
                        block: BlockId::new(bi as u32),
                        loc: block.term_loc,
                    });
                } else {
                    block.branch = None;
                }
            }
        }
    }

    /// Validates structural invariants of the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateProgramError`] found.
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        if self.entry.index() >= self.functions.len() {
            return Err(ValidateProgramError::BadEntry(self.entry));
        }
        let mut sorted: Vec<&GlobalDef> = self.globals.iter().collect();
        sorted.sort_by_key(|g| g.addr);
        for pair in sorted.windows(2) {
            if pair[0].addr + pair[0].words * 8 > pair[1].addr {
                return Err(ValidateProgramError::OverlappingGlobals(
                    pair[0].name.clone(),
                    pair[1].name.clone(),
                ));
            }
        }
        for (fi, func) in self.functions.iter().enumerate() {
            let fid = FuncId::new(fi as u32);
            if func.params > func.num_vars {
                return Err(ValidateProgramError::ParamsExceedVars(fid));
            }
            let check_var = |v: VarId| -> Result<(), ValidateProgramError> {
                if v.raw() >= func.num_vars {
                    Err(ValidateProgramError::BadVar { func: fid, var: v })
                } else {
                    Ok(())
                }
            };
            let check_op = |o: &Operand| -> Result<(), ValidateProgramError> {
                match o {
                    Operand::Var(v) => check_var(*v),
                    Operand::Const(_) => Ok(()),
                }
            };
            let check_callee = |c: FuncId| -> Result<(), ValidateProgramError> {
                if c.index() >= self.functions.len() {
                    Err(ValidateProgramError::BadCallee {
                        func: fid,
                        callee: c,
                    })
                } else {
                    Ok(())
                }
            };
            for (bi, block) in func.blocks.iter().enumerate() {
                let bid = BlockId::new(bi as u32);
                for stmt in &block.stmts {
                    match &stmt.instr {
                        Instr::Assign { dst, rv } => {
                            check_var(*dst)?;
                            match rv {
                                Rvalue::Use(o) => check_op(o)?,
                                Rvalue::Binary { lhs, rhs, .. } => {
                                    check_op(lhs)?;
                                    check_op(rhs)?;
                                }
                                Rvalue::Unary { operand, .. } => check_op(operand)?,
                                Rvalue::ReadInput { index } => check_op(index)?,
                            }
                        }
                        Instr::Load { dst, addr, .. } => {
                            check_var(*dst)?;
                            check_op(addr)?;
                        }
                        Instr::Store { addr, value, .. } => {
                            check_op(addr)?;
                            check_op(value)?;
                        }
                        Instr::StackLoad { dst, slot } => {
                            check_var(*dst)?;
                            if *slot >= func.frame_slots {
                                return Err(ValidateProgramError::BadStackSlot {
                                    func: fid,
                                    slot: *slot,
                                });
                            }
                        }
                        Instr::StackStore { slot, value } => {
                            check_op(value)?;
                            if *slot >= func.frame_slots {
                                return Err(ValidateProgramError::BadStackSlot {
                                    func: fid,
                                    slot: *slot,
                                });
                            }
                        }
                        Instr::Alloc { dst, words } => {
                            check_var(*dst)?;
                            check_op(words)?;
                        }
                        Instr::Free { addr } => check_op(addr)?,
                        Instr::Call { dst, callee, args } => {
                            if let Some(d) = dst {
                                check_var(*d)?;
                            }
                            match callee {
                                Callee::Direct(c) => check_callee(*c)?,
                                Callee::Indirect { targets, selector } => {
                                    for t in targets {
                                        check_callee(*t)?;
                                    }
                                    check_op(selector)?;
                                }
                            }
                            for a in args {
                                check_op(a)?;
                            }
                        }
                        Instr::Spawn {
                            dst,
                            func: f2,
                            args,
                        } => {
                            check_var(*dst)?;
                            check_callee(*f2)?;
                            for a in args {
                                check_op(a)?;
                            }
                        }
                        Instr::Join { thread } => check_op(thread)?,
                        Instr::Lock { addr } | Instr::Unlock { addr } => check_op(addr)?,
                        Instr::Output { value } => check_op(value)?,
                        Instr::Sample { value, .. } => check_op(value)?,
                        Instr::Assert { cond, .. } => check_op(cond)?,
                        Instr::Exit { code } => check_op(code)?,
                        Instr::Log { .. } | Instr::HwCtl { .. } | Instr::Yield | Instr::Nop => {}
                    }
                }
                match &block.term {
                    Terminator::Br {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        check_op(cond)?;
                        for t in [then_blk, else_blk] {
                            if t.index() >= func.blocks.len() {
                                return Err(ValidateProgramError::BadBlockTarget {
                                    func: fid,
                                    block: bid,
                                    target: *t,
                                });
                            }
                        }
                        if block.branch.is_none() {
                            return Err(ValidateProgramError::NotFinalized);
                        }
                    }
                    Terminator::Jmp(t) => {
                        if t.index() >= func.blocks.len() {
                            return Err(ValidateProgramError::BadBlockTarget {
                                func: fid,
                                block: bid,
                                target: *t,
                            });
                        }
                    }
                    Terminator::Ret(Some(o)) => check_op(o)?,
                    Terminator::Ret(None) => {}
                }
            }
        }
        Ok(())
    }

    /// Counts statements across all functions (a rough "lines of code"
    /// figure for inventory tables).
    pub fn stmt_count(&self) -> usize {
        self.functions
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.stmts.len() + 1).sum::<usize>())
            .sum()
    }

    /// Iterates over all `Error`-kind logging sites.
    pub fn error_log_sites(&self) -> impl Iterator<Item = &LogSiteInfo> {
        self.log_sites.iter().filter(|s| s.kind == LogKind::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn source_loc_display() {
        assert_eq!(SourceLoc::UNKNOWN.to_string(), "<unknown>");
        assert_eq!(SourceLoc::new(FileId::new(1), 42).to_string(), "file1:42");
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(5i64), Operand::Const(5));
        assert_eq!(Operand::from(VarId::new(2)), Operand::Var(VarId::new(2)));
    }

    #[test]
    fn terminator_successors() {
        let br = Terminator::Br {
            cond: Operand::Const(1),
            then_blk: BlockId::new(1),
            else_blk: BlockId::new(2),
        };
        assert_eq!(br.successors(), vec![BlockId::new(1), BlockId::new(2)]);
        assert_eq!(
            Terminator::Jmp(BlockId::new(3)).successors(),
            vec![BlockId::new(3)]
        );
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn finalize_assigns_branch_ids_in_order() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "main.c");
            let b_then = f.new_block();
            let b_else = f.new_block();
            let v = f.read_input(0);
            f.br(v, b_then, b_else);
            f.set_block(b_then);
            f.ret(None);
            f.set_block(b_else);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        assert_eq!(p.branches.len(), 1);
        assert_eq!(p.branches[0].id, BranchId::new(0));
        assert_eq!(p.branches[0].func, main);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_block_target() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "main.c");
            f.ret(None);
            f.finish();
        }
        let mut p = pb.finish(main);
        p.functions[0].blocks[0].term = Terminator::Jmp(BlockId::new(9));
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::BadBlockTarget { .. })
        ));
    }

    #[test]
    fn validate_catches_unfinalized_branch() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        {
            let mut f = pb.build_function(main, "main.c");
            let a = f.new_block();
            let b = f.new_block();
            let v = f.read_input(0);
            f.br(v, a, b);
            f.set_block(a);
            f.ret(None);
            f.set_block(b);
            f.ret(None);
            f.finish();
        }
        let mut p = pb.finish(main);
        p.functions[0].blocks[0].branch = None;
        assert_eq!(p.validate(), Err(ValidateProgramError::NotFinalized));
    }

    #[test]
    fn validate_catches_overlapping_globals() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        pb.global("a", 4);
        pb.global("b", 4);
        {
            let mut f = pb.build_function(main, "main.c");
            f.ret(None);
            f.finish();
        }
        let mut p = pb.finish(main);
        p.globals[1].addr = p.globals[0].addr; // force overlap
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::OverlappingGlobals(_, _))
        ));
    }

    #[test]
    fn function_and_global_lookup_by_name() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let helper = pb.declare_function("helper");
        pb.global("counter", 1);
        for fid in [main, helper] {
            let mut f = pb.build_function(fid, "main.c");
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        assert_eq!(p.function_by_name("helper"), Some(helper));
        assert_eq!(p.function_by_name("nope"), None);
        assert!(p.global_by_name("counter").is_some());
        assert!(p.global_by_name("nope").is_none());
    }
}
