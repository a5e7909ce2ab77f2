//! Ergonomic construction of IR [`Program`]s.
//!
//! [`ProgramBuilder`] owns the program-wide registries (functions, globals,
//! files, log sites) and hands out [`FunctionBuilder`]s that append blocks
//! and statements with a cursor-style API:
//!
//! ```
//! use stm_machine::builder::ProgramBuilder;
//! use stm_machine::ir::BinOp;
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let main = pb.declare_function("main");
//! let mut f = pb.build_function(main, "demo.c");
//! let x = f.read_input(0);
//! let doubled = f.bin(BinOp::Mul, x, 2);
//! f.output(doubled);
//! f.ret(None);
//! f.finish();
//! let program = pb.finish(main);
//! assert_eq!(program.functions.len(), 1);
//! ```

use crate::ids::{BlockId, FileId, FuncId, LogSiteId, VarId};
use crate::ir::{
    BasicBlock, BinOp, Callee, FaultProfile, Function, GlobalDef, Instr, LogKind, LogSiteInfo,
    Operand, Program, Rvalue, SourceLoc, Stmt, Terminator, UnOp, GLOBAL_BASE,
};

/// Builds a [`Program`] incrementally.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    files: Vec<String>,
    functions: Vec<Option<Function>>,
    func_names: Vec<String>,
    globals: Vec<GlobalDef>,
    next_global_addr: u64,
    log_sites: Vec<LogSiteInfo>,
}

impl ProgramBuilder {
    /// Creates an empty builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            files: Vec::new(),
            functions: Vec::new(),
            func_names: Vec::new(),
            globals: Vec::new(),
            next_global_addr: GLOBAL_BASE,
            log_sites: Vec::new(),
        }
    }

    /// Declares a function, reserving its id; the body is supplied later
    /// via [`ProgramBuilder::build_function`]. Forward declarations allow
    /// mutual recursion.
    ///
    /// # Panics
    ///
    /// Panics if the name was already declared.
    pub fn declare_function(&mut self, name: impl Into<String>) -> FuncId {
        let name = name.into();
        assert!(
            !self.func_names.contains(&name),
            "function `{name}` declared twice"
        );
        let id = FuncId::new(self.functions.len() as u32);
        self.functions.push(None);
        self.func_names.push(name);
        id
    }

    /// Looks up a declared function by name.
    pub fn lookup(&self, name: &str) -> Option<FuncId> {
        self.func_names
            .iter()
            .position(|n| n == name)
            .map(|i| FuncId::new(i as u32))
    }

    /// Defines a zero-initialized global of `words` 8-byte words and
    /// returns its base address.
    pub fn global(&mut self, name: impl Into<String>, words: u64) -> u64 {
        self.global_init(name, words, Vec::new())
    }

    /// Defines a global with explicit initial values and returns its base
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if `init` is longer than `words`.
    pub fn global_init(&mut self, name: impl Into<String>, words: u64, init: Vec<i64>) -> u64 {
        assert!(init.len() as u64 <= words, "init longer than global");
        // Start every global on its own 64-byte cache line: cross-global
        // false sharing would otherwise make coherence-event positions
        // depend on allocation order (intra-global sharing remains, which
        // is the realistic kind the paper's §5.3 discusses).
        let addr = self.next_global_addr.next_multiple_of(64);
        self.next_global_addr = addr + words.max(1) * 8;
        self.globals.push(GlobalDef {
            name: name.into(),
            addr,
            words: words.max(1),
            init,
        });
        addr
    }

    /// Interns a file name.
    pub fn file(&mut self, name: &str) -> FileId {
        if let Some(i) = self.files.iter().position(|f| f == name) {
            FileId::new(i as u32)
        } else {
            self.files.push(name.to_string());
            FileId::new(self.files.len() as u32 - 1)
        }
    }

    /// Starts building the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if the function id is unknown or already built.
    pub fn build_function(&mut self, id: FuncId, file: &str) -> FunctionBuilder<'_> {
        assert!(id.index() < self.functions.len(), "unknown function id");
        assert!(
            self.functions[id.index()].is_none(),
            "function `{}` built twice",
            self.func_names[id.index()]
        );
        let file = self.file(file);
        FunctionBuilder::new(self, id, file)
    }

    /// Finishes the program with the given entry function: installs the
    /// branch registry and validates.
    ///
    /// # Panics
    ///
    /// Panics if any declared function lacks a body, a block lacks a
    /// terminator, or validation fails — all builder-misuse bugs.
    pub fn finish(self, entry: FuncId) -> Program {
        self.try_finish(entry).expect("program failed validation")
    }

    /// Non-panicking variant of [`ProgramBuilder::finish`].
    ///
    /// # Errors
    ///
    /// Returns the validation error message.
    pub fn try_finish(self, entry: FuncId) -> Result<Program, String> {
        let mut functions = Vec::with_capacity(self.functions.len());
        for (i, f) in self.functions.into_iter().enumerate() {
            match f {
                Some(f) => functions.push(f),
                None => {
                    return Err(format!(
                        "function `{}` declared but never built",
                        self.func_names[i]
                    ))
                }
            }
        }
        let mut program = Program {
            name: self.name,
            files: self.files,
            functions,
            globals: self.globals,
            entry,
            branches: Vec::new(),
            log_sites: self.log_sites,
            fault_profile: FaultProfile::default(),
        };
        program.finalize();
        program.validate().map_err(|e| e.to_string())?;
        Ok(program)
    }

    fn alloc_log_site(
        &mut self,
        func: FuncId,
        loc: SourceLoc,
        kind: LogKind,
        msg: &str,
    ) -> LogSiteId {
        let site = LogSiteId::new(self.log_sites.len() as u32);
        self.log_sites.push(LogSiteInfo {
            site,
            func,
            loc,
            kind,
            message: msg.to_string(),
        });
        site
    }
}

/// A partially built basic block.
#[derive(Debug, Default)]
struct PartialBlock {
    stmts: Vec<Stmt>,
    term: Option<(Terminator, SourceLoc)>,
}

/// Builds one function; obtained from [`ProgramBuilder::build_function`].
///
/// The builder keeps a *current block* cursor: statement-emitting methods
/// append to it, terminator methods close it. Create additional blocks with
/// [`FunctionBuilder::new_block`] and switch with
/// [`FunctionBuilder::set_block`]. Every block must be terminated before
/// [`FunctionBuilder::finish`].
#[derive(Debug)]
pub struct FunctionBuilder<'p> {
    program: &'p mut ProgramBuilder,
    id: FuncId,
    file: FileId,
    params: u32,
    num_vars: u32,
    frame_slots: u32,
    blocks: Vec<PartialBlock>,
    current: BlockId,
    line: u32,
    is_library: bool,
}

impl<'p> FunctionBuilder<'p> {
    fn new(program: &'p mut ProgramBuilder, id: FuncId, file: FileId) -> Self {
        FunctionBuilder {
            program,
            id,
            file,
            params: 0,
            num_vars: 0,
            frame_slots: 0,
            blocks: vec![PartialBlock::default()],
            current: BlockId::new(0),
            line: 1,
            is_library: false,
        }
    }

    /// The id of the function under construction.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Marks the function as a library function (eligible for toggling
    /// wrappers, excluded from application-level analyses).
    pub fn set_library(&mut self) -> &mut Self {
        self.is_library = true;
        self
    }

    /// Declares `n` parameters and returns their variables. Must be called
    /// before any other variable is created.
    ///
    /// # Panics
    ///
    /// Panics if variables already exist.
    pub fn params(&mut self, n: u32) -> Vec<VarId> {
        assert_eq!(self.num_vars, 0, "params must be declared first");
        self.params = n;
        self.num_vars = n;
        (0..n).map(VarId::new).collect()
    }

    /// Creates a fresh local variable.
    pub fn var(&mut self) -> VarId {
        let v = VarId::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Sets the source line for subsequently emitted statements.
    pub fn at(&mut self, line: u32) -> &mut Self {
        self.line = line;
        self
    }

    fn loc(&self) -> SourceLoc {
        SourceLoc::new(self.file, self.line)
    }

    /// Creates a new (empty, unterminated) block and returns its id; the
    /// cursor does not move.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PartialBlock::default());
        BlockId::new(self.blocks.len() as u32 - 1)
    }

    /// Moves the cursor to the given block.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn set_block(&mut self, block: BlockId) {
        assert!(
            self.blocks[block.index()].term.is_none(),
            "block {block} is already terminated"
        );
        self.current = block;
    }

    /// Appends a raw statement to the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn push(&mut self, instr: Instr) {
        let loc = self.loc();
        let blk = &mut self.blocks[self.current.index()];
        assert!(blk.term.is_none(), "current block is already terminated");
        blk.stmts.push(Stmt { instr, loc });
    }

    // ---- statement helpers -------------------------------------------------

    /// `dst = operand`.
    pub fn assign(&mut self, dst: VarId, value: impl Into<Operand>) {
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Use(value.into()),
        });
    }

    /// Emits `dst = lhs op rhs` into an existing variable.
    pub fn assign_bin(
        &mut self,
        dst: VarId,
        op: BinOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) {
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Binary {
                op,
                lhs: lhs.into(),
                rhs: rhs.into(),
            },
        });
    }

    /// Creates a fresh variable holding `lhs op rhs`.
    pub fn bin(&mut self, op: BinOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> VarId {
        let dst = self.var();
        self.assign_bin(dst, op, lhs, rhs);
        dst
    }

    /// Creates a fresh variable holding `op operand`.
    pub fn un(&mut self, op: UnOp, operand: impl Into<Operand>) -> VarId {
        let dst = self.var();
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Unary {
                op,
                operand: operand.into(),
            },
        });
        dst
    }

    /// Creates a fresh variable holding workload input `index`.
    pub fn read_input(&mut self, index: impl Into<Operand>) -> VarId {
        let dst = self.var();
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::ReadInput {
                index: index.into(),
            },
        });
        dst
    }

    /// Creates a fresh variable loaded from `addr + disp`.
    pub fn load(&mut self, addr: impl Into<Operand>, disp: i64) -> VarId {
        let dst = self.var();
        self.push(Instr::Load {
            dst,
            addr: addr.into(),
            disp,
        });
        dst
    }

    /// Stores `value` to `addr + disp`.
    pub fn store(&mut self, addr: impl Into<Operand>, disp: i64, value: impl Into<Operand>) {
        self.push(Instr::Store {
            addr: addr.into(),
            disp,
            value: value.into(),
        });
    }

    /// Creates a fresh variable loaded from stack slot `slot`, growing the
    /// frame as needed.
    pub fn stack_load(&mut self, slot: u32) -> VarId {
        self.frame_slots = self.frame_slots.max(slot + 1);
        let dst = self.var();
        self.push(Instr::StackLoad { dst, slot });
        dst
    }

    /// Stores `value` to stack slot `slot`, growing the frame as needed.
    pub fn stack_store(&mut self, slot: u32, value: impl Into<Operand>) {
        self.frame_slots = self.frame_slots.max(slot + 1);
        self.push(Instr::StackStore {
            slot,
            value: value.into(),
        });
    }

    /// Allocates `words` heap words; returns the variable holding the base
    /// address.
    pub fn alloc(&mut self, words: impl Into<Operand>) -> VarId {
        let dst = self.var();
        self.push(Instr::Alloc {
            dst,
            words: words.into(),
        });
        dst
    }

    /// Frees the allocation at `addr`.
    pub fn free(&mut self, addr: impl Into<Operand>) {
        self.push(Instr::Free { addr: addr.into() });
    }

    /// Calls `callee` discarding any return value.
    pub fn call_void(&mut self, callee: FuncId, args: &[Operand]) {
        self.push(Instr::Call {
            dst: None,
            callee: Callee::Direct(callee),
            args: args.to_vec(),
        });
    }

    /// Calls `callee`; returns the variable holding the return value.
    pub fn call(&mut self, callee: FuncId, args: &[Operand]) -> VarId {
        let dst = self.var();
        self.push(Instr::Call {
            dst: Some(dst),
            callee: Callee::Direct(callee),
            args: args.to_vec(),
        });
        dst
    }

    /// Calls indirectly through a table; returns the return-value variable.
    pub fn call_indirect(
        &mut self,
        targets: Vec<FuncId>,
        selector: impl Into<Operand>,
        args: &[Operand],
    ) -> VarId {
        let dst = self.var();
        self.push(Instr::Call {
            dst: Some(dst),
            callee: Callee::Indirect {
                targets,
                selector: selector.into(),
            },
            args: args.to_vec(),
        });
        dst
    }

    /// Spawns a thread; returns the variable holding the thread id.
    pub fn spawn(&mut self, func: FuncId, args: &[Operand]) -> VarId {
        let dst = self.var();
        self.push(Instr::Spawn {
            dst,
            func,
            args: args.to_vec(),
        });
        dst
    }

    /// Joins the thread named by `thread`.
    pub fn join(&mut self, thread: impl Into<Operand>) {
        self.push(Instr::Join {
            thread: thread.into(),
        });
    }

    /// Acquires the mutex at `addr`.
    pub fn lock(&mut self, addr: impl Into<Operand>) {
        self.push(Instr::Lock { addr: addr.into() });
    }

    /// Releases the mutex at `addr`.
    pub fn unlock(&mut self, addr: impl Into<Operand>) {
        self.push(Instr::Unlock { addr: addr.into() });
    }

    /// Emits `value` to the program output.
    pub fn output(&mut self, value: impl Into<Operand>) {
        self.push(Instr::Output {
            value: value.into(),
        });
    }

    /// Emits a failure-logging call and returns its site id.
    pub fn log_error(&mut self, message: &str) -> LogSiteId {
        self.log(LogKind::Error, message)
    }

    /// Emits a logging call of the given kind and returns its site id.
    pub fn log(&mut self, kind: LogKind, message: &str) -> LogSiteId {
        let loc = self.loc();
        let site = self.program.alloc_log_site(self.id, loc, kind, message);
        self.push(Instr::Log {
            site,
            kind,
            message: message.to_string(),
        });
        site
    }

    /// Emits an assertion on `cond`.
    pub fn assert(&mut self, cond: impl Into<Operand>, message: &str) {
        self.push(Instr::Assert {
            cond: cond.into(),
            message: message.to_string(),
        });
    }

    /// Terminates the whole program with `code`.
    pub fn exit(&mut self, code: impl Into<Operand>) {
        self.push(Instr::Exit { code: code.into() });
    }

    /// Emits a scheduling hint.
    pub fn yield_now(&mut self) {
        self.push(Instr::Yield);
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.push(Instr::Nop);
    }

    // ---- terminators -------------------------------------------------------

    fn terminate(&mut self, term: Terminator) {
        let loc = self.loc();
        let blk = &mut self.blocks[self.current.index()];
        assert!(blk.term.is_none(), "current block is already terminated");
        blk.term = Some((term, loc));
    }

    /// Terminates the current block with a conditional branch.
    pub fn br(&mut self, cond: impl Into<Operand>, then_blk: BlockId, else_blk: BlockId) {
        self.terminate(Terminator::Br {
            cond: cond.into(),
            then_blk,
            else_blk,
        });
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jmp(&mut self, target: BlockId) {
        self.terminate(Terminator::Jmp(target));
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.terminate(Terminator::Ret(value));
    }

    /// Convenience: creates a new block, jumps to it from the current one,
    /// and moves the cursor there. Handy for sequential program text.
    pub fn fallthrough(&mut self) -> BlockId {
        let next = self.new_block();
        self.jmp(next);
        self.set_block(next);
        next
    }

    /// Finishes the function and installs it into the program builder.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    pub fn finish(self) {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, blk) in self.blocks.into_iter().enumerate() {
            let (term, term_loc) = blk.term.unwrap_or_else(|| {
                panic!(
                    "function `{}`: block bb{} lacks a terminator",
                    self.program.func_names[self.id.index()],
                    i
                )
            });
            blocks.push(BasicBlock {
                stmts: blk.stmts,
                term,
                term_loc,
                branch: None,
            });
        }
        self.program.functions[self.id.index()] = Some(Function {
            name: self.program.func_names[self.id.index()].clone(),
            file: self.file,
            params: self.params,
            num_vars: self.num_vars,
            frame_slots: self.frame_slots,
            blocks,
            is_library: self.is_library,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;

    #[test]
    fn builds_a_two_function_program() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let helper = pb.declare_function("helper");
        {
            let mut f = pb.build_function(helper, "lib.c");
            let ps = f.params(1);
            let doubled = f.bin(BinOp::Mul, ps[0], 2);
            f.ret(Some(doubled.into()));
            f.finish();
        }
        {
            let mut f = pb.build_function(main, "main.c");
            let x = f.read_input(0);
            let y = f.call(helper, &[x.into()]);
            f.output(y);
            f.ret(None);
            f.finish();
        }
        let p = pb.finish(main);
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.function(helper).params, 1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn globals_are_disjoint_and_word_sized() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.global("a", 4);
        let b = pb.global("b", 2);
        // Each global starts on its own 64-byte line.
        assert_eq!(a % 64, 0);
        assert_eq!(b - a, 64);
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn log_sites_are_registered() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.at(10);
        let s1 = f.log_error("boom");
        f.at(20);
        let s2 = f.log(LogKind::Warning, "careful");
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        assert_eq!(p.log_sites.len(), 2);
        assert_eq!(p.log_site_info(s1).loc.line, 10);
        assert_eq!(p.log_site_info(s2).kind, LogKind::Warning);
        assert_eq!(p.error_log_sites().count(), 1);
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_panics() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.nop();
        f.finish();
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_function_panics() {
        let mut pb = ProgramBuilder::new("p");
        pb.declare_function("main");
        pb.declare_function("main");
    }

    #[test]
    fn fallthrough_chains_blocks() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.nop();
        f.fallthrough();
        f.nop();
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        assert_eq!(p.function(main).blocks.len(), 2);
    }

    #[test]
    fn stack_accesses_grow_frame() {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        f.stack_store(5, 3);
        let _ = f.stack_load(5);
        f.ret(None);
        f.finish();
        let p = pb.finish(main);
        assert_eq!(p.function(main).frame_slots, 6);
        let has_stack_load = p.function(main).blocks[0]
            .stmts
            .iter()
            .any(|s| matches!(s.instr, Instr::StackLoad { .. }));
        assert!(has_stack_load);
    }
}
