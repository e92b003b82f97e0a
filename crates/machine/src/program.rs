//! Program containers: functions, globals, imports, and function-pointer
//! type declarations.

use crate::isa::Inst;

/// Index of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a module global within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// Index into a program's import table (kernel symbols the module uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolId(pub u32);

/// Index into a program's function-pointer type table.
///
/// Every indirect call site and every function-pointer-typed field carries
/// a `SigId`; LXFI attaches interface annotations to these types and
/// compares annotation hashes across them (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigId(pub u32);

/// Kind of an imported kernel symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportKind {
    /// An exported kernel function; calls go through an LXFI wrapper.
    Func,
    /// An exported kernel data object; the module receives a WRITE
    /// capability for it at load time (§4.2).
    Data,
}

/// An entry in the module's symbol table of imports.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Kernel symbol name, e.g. `"kmalloc"`.
    pub name: String,
    /// Function or data import.
    pub kind: ImportKind,
}

/// A module global variable (lives in the module's `.data`/`.bss`/rodata).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Name, for diagnostics and disassembly.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// If false the global lands in the module's read-only section and the
    /// module gets no WRITE capability for it (this is what stops the RDS
    /// exploit from overwriting `rds_proto_ops.ioctl`, §8.1).
    pub writable: bool,
    /// Optional initial contents (zero-filled when absent or short).
    pub init: Option<Vec<u8>>,
}

/// A declared function-pointer type.
#[derive(Debug, Clone, PartialEq)]
pub struct SigDecl {
    /// Type name, e.g. `"ndo_start_xmit"`.
    pub name: String,
    /// Number of parameters functions of this type take.
    pub params: u8,
}

/// A KIR function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within the program).
    pub name: String,
    /// Number of parameters, passed in `r0..`.
    pub params: u8,
    /// Frame size in bytes for locals; carved from the kernel thread stack.
    pub frame_size: u32,
    /// Instruction stream; branch targets are absolute indices.
    pub insts: Vec<Inst>,
}

/// A fact recorded by the module author: local function `func` is used as a
/// value of function-pointer type `sig` (assigned into a struct field,
/// passed as a callback, ...). The rewriter's annotation-propagation pass
/// consumes these (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigAssignment {
    /// The module-local function.
    pub func: FuncId,
    /// The function-pointer type it is assigned to.
    pub sig: SigId,
}

/// A load-time function-pointer relocation: the loader writes the address
/// of `func` into `global` at byte `offset`. This is how C modules
/// initialize static ops tables (`struct proto_ops rds_proto_ops = {
/// .ioctl = rds_ioctl, ... }`) — including read-only ones the module
/// itself could never write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnReloc {
    /// Target global.
    pub global: GlobalId,
    /// Byte offset within the global.
    pub offset: u64,
    /// The module-local function whose address is written.
    pub func: FuncId,
}

/// A complete KIR program (one kernel module, or a core-kernel thunk set).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Program name (module name).
    pub name: String,
    /// All functions. `FuncId` indexes this vector.
    pub funcs: Vec<Function>,
    /// Module globals. `GlobalId` indexes this vector.
    pub globals: Vec<GlobalDef>,
    /// Imported kernel symbols. `SymbolId` indexes this vector.
    pub imports: Vec<Import>,
    /// Function-pointer types referenced by the program. `SigId` indexes
    /// this vector.
    pub sigs: Vec<SigDecl>,
    /// Function-to-signature assignment facts for annotation propagation.
    pub sig_assignments: Vec<SigAssignment>,
    /// Static-initializer function-pointer relocations.
    pub fn_relocs: Vec<FnReloc>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Returns the function for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Looks up an import by name.
    pub fn import_by_name(&self, name: &str) -> Option<SymbolId> {
        self.imports
            .iter()
            .position(|i| i.name == name)
            .map(|i| SymbolId(i as u32))
    }

    /// Looks up a signature by name.
    pub fn sig_by_name(&self, name: &str) -> Option<SigId> {
        self.sigs
            .iter()
            .position(|s| s.name == name)
            .map(|i| SigId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Total instruction count across all functions — the "code size"
    /// metric for Figure 11's Δ-code-size column.
    pub fn code_size(&self) -> usize {
        self.funcs.iter().map(|f| f.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program::new("m");
        p.funcs.push(Function {
            name: "f".into(),
            params: 1,
            frame_size: 16,
            insts: vec![Inst::Ret { val: None }],
        });
        p.imports.push(Import {
            name: "kmalloc".into(),
            kind: ImportKind::Func,
        });
        p.globals.push(GlobalDef {
            name: "state".into(),
            size: 64,
            writable: true,
            init: None,
        });
        p.sigs.push(SigDecl {
            name: "cb".into(),
            params: 2,
        });
        p
    }

    #[test]
    fn lookup_by_name() {
        let p = sample();
        assert_eq!(p.func_by_name("f"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("g"), None);
        assert_eq!(p.import_by_name("kmalloc"), Some(SymbolId(0)));
        assert_eq!(p.import_by_name("kfree"), None);
        assert_eq!(p.sig_by_name("cb"), Some(SigId(0)));
        assert_eq!(p.global_by_name("state"), Some(GlobalId(0)));
    }

    #[test]
    fn code_size_counts_all_functions() {
        let mut p = sample();
        p.funcs.push(Function {
            name: "g".into(),
            params: 0,
            frame_size: 0,
            insts: vec![Inst::Nop, Inst::Ret { val: None }],
        });
        assert_eq!(p.code_size(), 3);
    }
}
