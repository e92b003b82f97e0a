//! Builders for assembling KIR programs in Rust.
//!
//! Module authors (the simulated kernel modules in `lxfi-modules`) use
//! [`ProgramBuilder`] / [`FunctionBuilder`] instead of writing raw
//! instruction vectors: labels are resolved to absolute indices at
//! `finish()` time, and common idioms (loops, calls) get helpers.

use std::collections::HashMap;

use crate::isa::{BinOp, Cond, Inst, Operand, Reg, Width};
use crate::program::{
    FuncId, Function, GlobalDef, GlobalId, Import, ImportKind, Program, SigAssignment, SigDecl,
    SigId, SymbolId,
};

/// A forward-referencable label inside a function under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builds a [`Program`]: declares functions, globals, imports, and
/// function-pointer types, then assembles function bodies.
#[derive(Default)]
pub struct ProgramBuilder {
    program: Program,
    func_names: HashMap<String, FuncId>,
}

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program::new(name),
            func_names: HashMap::new(),
        }
    }

    /// Declares an imported kernel function; returns its symbol id.
    /// Importing twice returns the original id.
    pub fn import_func(&mut self, name: &str) -> SymbolId {
        self.import(name, ImportKind::Func)
    }

    /// Declares an imported kernel data symbol; returns its symbol id.
    pub fn import_data(&mut self, name: &str) -> SymbolId {
        self.import(name, ImportKind::Data)
    }

    fn import(&mut self, name: &str, kind: ImportKind) -> SymbolId {
        if let Some(id) = self.program.import_by_name(name) {
            assert_eq!(
                self.program.imports[id.0 as usize].kind, kind,
                "import `{name}` redeclared with different kind"
            );
            return id;
        }
        self.program.imports.push(Import {
            name: name.into(),
            kind,
        });
        SymbolId(self.program.imports.len() as u32 - 1)
    }

    /// Declares a writable module global of `size` bytes.
    pub fn global(&mut self, name: &str, size: u64) -> GlobalId {
        self.global_full(name, size, true, None)
    }

    /// Declares a read-only module global (`.rodata`); the module gets no
    /// WRITE capability for it under LXFI.
    pub fn rodata(&mut self, name: &str, size: u64) -> GlobalId {
        self.global_full(name, size, false, None)
    }

    /// Declares a global with full control over writability and contents.
    pub fn global_full(
        &mut self,
        name: &str,
        size: u64,
        writable: bool,
        init: Option<Vec<u8>>,
    ) -> GlobalId {
        assert!(
            self.program.global_by_name(name).is_none(),
            "global `{name}` declared twice"
        );
        self.program.globals.push(GlobalDef {
            name: name.into(),
            size,
            writable,
            init,
        });
        GlobalId(self.program.globals.len() as u32 - 1)
    }

    /// Declares a function-pointer type; returns its signature id.
    /// Re-declaring the same name returns the original id.
    pub fn sig(&mut self, name: &str, params: u8) -> SigId {
        if let Some(id) = self.program.sig_by_name(name) {
            assert_eq!(
                self.program.sigs[id.0 as usize].params, params,
                "signature `{name}` redeclared with different arity"
            );
            return id;
        }
        self.program.sigs.push(SigDecl {
            name: name.into(),
            params,
        });
        SigId(self.program.sigs.len() as u32 - 1)
    }

    /// Pre-declares a function so it can be called before its body is
    /// defined (mutual recursion); the body must be supplied later via
    /// [`ProgramBuilder::define`].
    pub fn declare(&mut self, name: &str, params: u8) -> FuncId {
        if let Some(&id) = self.func_names.get(name) {
            return id;
        }
        let id = FuncId(self.program.funcs.len() as u32);
        self.program.funcs.push(Function {
            name: name.into(),
            params,
            frame_size: 0,
            insts: Vec::new(),
        });
        self.func_names.insert(name.into(), id);
        id
    }

    /// Defines a function body with a [`FunctionBuilder`] closure.
    pub fn define(
        &mut self,
        name: &str,
        params: u8,
        frame_size: u32,
        body: impl FnOnce(&mut FunctionBuilder),
    ) -> FuncId {
        let id = self.declare(name, params);
        let f = &mut self.program.funcs[id.0 as usize];
        assert!(f.insts.is_empty(), "function `{name}` defined twice");
        assert_eq!(f.params, params, "function `{name}` arity mismatch");
        f.frame_size = frame_size;
        let mut fb = FunctionBuilder::new();
        body(&mut fb);
        f.insts = fb.finish();
        id
    }

    /// Records a static-initializer relocation: at load time the address
    /// of `func` is written into `global` at `offset` (like a C ops-table
    /// initializer). Also usable for read-only globals.
    pub fn fn_reloc(&mut self, global: GlobalId, offset: u64, func: FuncId) {
        self.program.fn_relocs.push(crate::program::FnReloc {
            global,
            offset,
            func,
        });
    }

    /// Records that `func` is used as a value of function-pointer type
    /// `sig` (for annotation propagation, §4.2).
    pub fn assign_sig(&mut self, func: FuncId, sig: SigId) {
        let fact = SigAssignment { func, sig };
        if !self.program.sig_assignments.contains(&fact) {
            self.program.sig_assignments.push(fact);
        }
    }

    /// Finishes the program.
    ///
    /// # Panics
    ///
    /// Panics if any declared function was never defined.
    pub fn finish(self) -> Program {
        for f in &self.program.funcs {
            assert!(
                !f.insts.is_empty(),
                "function `{}` declared but never defined",
                f.name
            );
        }
        self.program
    }
}

/// Assembles one function body. Emission methods append instructions;
/// labels are patched when the function is finished.
pub struct FunctionBuilder {
    insts: Vec<Inst>,
    labels: Vec<Option<usize>>,
}

impl FunctionBuilder {
    fn new() -> Self {
        FunctionBuilder {
            insts: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next emitted instruction.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label bound twice at inst {}",
            self.insts.len()
        );
        self.labels[label.0] = Some(self.insts.len());
    }

    /// Emits `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.insts.push(Inst::Mov {
            dst,
            src: src.into(),
        });
    }

    /// Emits `dst = lhs op rhs`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.insts.push(Inst::Bin {
            op,
            dst,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
    }

    /// Emits `dst = lhs + rhs`.
    pub fn add(&mut self, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.bin(BinOp::Add, dst, lhs, rhs);
    }

    /// Emits `dst = lhs - rhs`.
    pub fn sub(&mut self, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.bin(BinOp::Sub, dst, lhs, rhs);
    }

    /// Emits `dst = lhs * rhs`.
    pub fn mul(&mut self, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.bin(BinOp::Mul, dst, lhs, rhs);
    }

    /// Emits a typed load `dst = mem[base + off]`.
    pub fn load(&mut self, dst: Reg, base: impl Into<Operand>, off: i64, width: Width) {
        self.insts.push(Inst::Load {
            dst,
            base: base.into(),
            off,
            width,
        });
    }

    /// Emits a 64-bit load `dst = mem[base + off]`.
    pub fn load8(&mut self, dst: Reg, base: impl Into<Operand>, off: i64) {
        self.load(dst, base, off, Width::B8);
    }

    /// Emits a typed store `mem[base + off] = src`.
    pub fn store(
        &mut self,
        src: impl Into<Operand>,
        base: impl Into<Operand>,
        off: i64,
        width: Width,
    ) {
        self.insts.push(Inst::Store {
            src: src.into(),
            base: base.into(),
            off,
            width,
        });
    }

    /// Emits a 64-bit store `mem[base + off] = src`.
    pub fn store8(&mut self, src: impl Into<Operand>, base: impl Into<Operand>, off: i64) {
        self.store(src, base, off, Width::B8);
    }

    /// Emits a frame-local load `dst = mem[sp + off]`.
    pub fn load_frame(&mut self, dst: Reg, off: u32, width: Width) {
        self.insts.push(Inst::LoadFrame { dst, off, width });
    }

    /// Emits a frame-local store `mem[sp + off] = src`.
    pub fn store_frame(&mut self, src: impl Into<Operand>, off: u32, width: Width) {
        self.insts.push(Inst::StoreFrame {
            src: src.into(),
            off,
            width,
        });
    }

    /// Emits `dst = sp + off` (address of a frame local).
    pub fn frame_addr(&mut self, dst: Reg, off: u32) {
        self.insts.push(Inst::FrameAddr { dst, off });
    }

    /// Emits `dst = &global`.
    pub fn global_addr(&mut self, dst: Reg, global: GlobalId) {
        self.insts.push(Inst::GlobalAddr { dst, global });
    }

    /// Emits `dst = &kernel_symbol`.
    pub fn sym_addr(&mut self, dst: Reg, sym: SymbolId) {
        self.insts.push(Inst::SymAddr { dst, sym });
    }

    /// Emits `dst = &local_function`.
    pub fn func_addr(&mut self, dst: Reg, func: FuncId) {
        self.insts.push(Inst::FuncAddr { dst, func });
    }

    /// Emits an unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) {
        self.insts.push(Inst::Jmp { target: label.0 });
    }

    /// Emits a conditional branch to `label`.
    pub fn br(
        &mut self,
        cond: Cond,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        label: Label,
    ) {
        self.insts.push(Inst::Br {
            cond,
            lhs: lhs.into(),
            rhs: rhs.into(),
            target: label.0,
        });
    }

    /// Emits a direct call to a module-local function.
    pub fn call_local(&mut self, func: FuncId, args: &[Operand], ret: Option<Reg>) {
        self.insts.push(Inst::CallLocal {
            func,
            args: args.to_vec(),
            ret,
        });
    }

    /// Emits a call to an imported kernel function.
    pub fn call_extern(&mut self, sym: SymbolId, args: &[Operand], ret: Option<Reg>) {
        self.insts.push(Inst::CallExtern {
            sym,
            args: args.to_vec(),
            ret,
        });
    }

    /// Emits an indirect call through a function pointer of type `sig`.
    pub fn call_ptr(
        &mut self,
        ptr: impl Into<Operand>,
        sig: SigId,
        args: &[Operand],
        ret: Option<Reg>,
    ) {
        self.insts.push(Inst::CallPtr {
            ptr: ptr.into(),
            sig,
            args: args.to_vec(),
            ret,
        });
    }

    /// Emits `return src`.
    pub fn ret(&mut self, val: impl Into<Operand>) {
        self.insts.push(Inst::Ret {
            val: Some(val.into()),
        });
    }

    /// Emits `return` with no value.
    pub fn ret_void(&mut self) {
        self.insts.push(Inst::Ret { val: None });
    }

    /// Emits `BUG(code)`.
    pub fn trap(&mut self, code: u64) {
        self.insts.push(Inst::Trap { code });
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.insts.push(Inst::Nop);
    }

    /// Emits an LXFI write guard (normally only the rewriter does this;
    /// exposed for tests and hand-instrumented code).
    pub fn guard_write(&mut self, base: impl Into<Operand>, off: i64, len: impl Into<Operand>) {
        self.insts.push(Inst::GuardWrite {
            base: base.into(),
            off,
            len: len.into(),
        });
    }

    /// Emits an LXFI kernel-side indirect-call guard.
    pub fn guard_indcall(&mut self, slot_base: impl Into<Operand>, slot_off: i64, sig: SigId) {
        self.insts.push(Inst::GuardIndCall {
            slot_base: slot_base.into(),
            slot_off,
            sig,
        });
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns true when no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    fn finish(mut self) -> Vec<Inst> {
        let labels = self.labels;
        for (idx, inst) in self.insts.iter_mut().enumerate() {
            if let Some(t) = inst.jump_target() {
                let bound = labels
                    .get(t)
                    .and_then(|b| *b)
                    .unwrap_or_else(|| panic!("unbound label L{t} used at inst {idx}"));
                inst.map_target(|_| bound);
            }
        }
        self.insts
    }
}

/// Shorthand constructors for registers `r0..r15`.
pub mod regs {
    use crate::isa::Reg;

    macro_rules! defreg {
        ($($name:ident = $n:expr),* $(,)?) => {
            $(
                #[doc = concat!("Register r", stringify!($n), ".")]
                pub const $name: Reg = Reg($n);
            )*
        };
    }

    defreg!(
        R0 = 0,
        R1 = 1,
        R2 = 2,
        R3 = 3,
        R4 = 4,
        R5 = 5,
        R6 = 6,
        R7 = 7,
        R8 = 8,
        R9 = 9,
        R10 = 10,
        R11 = 11,
        R12 = 12,
        R13 = 13,
        R14 = 14,
        R15 = 15,
    );
}

#[cfg(test)]
mod tests {
    use super::regs::*;
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut pb = ProgramBuilder::new("t");
        pb.define("loop", 1, 0, |f| {
            let top = f.label();
            let out = f.label();
            f.mov(R1, 0i64);
            f.bind(top);
            f.br(Cond::Eq, R0, 0i64, out);
            f.add(R1, R1, 1i64);
            f.sub(R0, R0, 1i64);
            f.jmp(top);
            f.bind(out);
            f.ret(R1);
        });
        let p = pb.finish();
        let f = p.func(FuncId(0));
        assert_eq!(f.insts[1].jump_target(), Some(5));
        assert_eq!(f.insts[4].jump_target(), Some(1));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new("t");
        pb.define("bad", 0, 0, |f| {
            let l = f.label();
            f.jmp(l);
        });
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_definition_panics() {
        let mut pb = ProgramBuilder::new("t");
        pb.define("f", 0, 0, |f| f.ret_void());
        pb.define("f", 0, 0, |f| f.ret_void());
    }

    #[test]
    fn imports_are_deduplicated() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.import_func("kmalloc");
        let b = pb.import_func("kmalloc");
        assert_eq!(a, b);
        let p = {
            pb.define("f", 0, 0, |f| f.ret_void());
            pb.finish()
        };
        assert_eq!(p.imports.len(), 1);
    }

    #[test]
    fn sig_assignment_recorded_once() {
        let mut pb = ProgramBuilder::new("t");
        let s = pb.sig("cb", 1);
        let f = pb.define("f", 1, 0, |f| f.ret_void());
        pb.assign_sig(f, s);
        pb.assign_sig(f, s);
        let p = pb.finish();
        assert_eq!(p.sig_assignments.len(), 1);
    }

    #[test]
    #[should_panic(expected = "never defined")]
    fn undefined_declaration_panics_on_finish() {
        let mut pb = ProgramBuilder::new("t");
        pb.declare("ghost", 0);
        pb.finish();
    }
}
