//! Static verification of KIR programs.
//!
//! The only structural check: the kernel runs it on the exact program
//! each load installs, so malformed module code is rejected at load
//! time, not at run time. The checks matter for LXFI soundness:
//! frame-relative accesses must be statically in-bounds, because the
//! rewriter *skips* dynamic write guards for them (§8.3's elision
//! optimization is only sound given these checks). They are also the
//! compiled backend's memory-safety precondition:
//! [`crate::CompiledProgram::compile`] runs them first, and its unchecked
//! register and block indexing relies on every register an instruction
//! reads or writes being below [`NUM_REGS`], every function ending in a
//! terminator, and every jump target and local callee existing.

use crate::isa::{Inst, Operand, Reg, NUM_REGS};
use crate::program::Program;

/// A static verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function where the problem is (name).
    pub func: String,
    /// Instruction index, when applicable.
    pub inst: Option<usize>,
    /// Explanation.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inst {
            Some(i) => write!(f, "{}@{}: {}", self.func, i, self.msg),
            None => write!(f, "{}: {}", self.func, self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole program. Returns every problem found.
#[allow(clippy::collapsible_match)] // One arm per check reads clearer here.
pub fn verify_program(p: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    for f in &p.funcs {
        let fail = |inst, msg: String| VerifyError {
            func: f.name.clone(),
            inst,
            msg,
        };
        if f.insts.is_empty() {
            errs.push(fail(None, "empty function body".into()));
            continue;
        }
        if !f.insts.last().unwrap().is_terminator() {
            errs.push(fail(
                Some(f.insts.len() - 1),
                "function does not end in ret/jmp/trap".into(),
            ));
        }
        for (i, inst) in f.insts.iter().enumerate() {
            let mut check = |r: Reg| {
                if r.0 as usize >= NUM_REGS {
                    errs.push(fail(Some(i), format!("register {r} out of range")));
                }
            };
            if let Some(r) = inst.def_reg() {
                check(r);
            }
            inst.for_each_operand(|o| {
                if let Operand::Reg(r) = o {
                    check(r);
                }
            });
            if let Some(t) = inst.jump_target() {
                if t >= f.insts.len() {
                    errs.push(fail(Some(i), format!("jump target {t} out of range")));
                }
            }
            match inst {
                Inst::LoadFrame { off, width, .. } | Inst::StoreFrame { off, width, .. } => {
                    if u64::from(*off) + width.bytes() > u64::from(f.frame_size) {
                        errs.push(fail(
                            Some(i),
                            format!(
                                "frame access [sp+{off}] width {} exceeds frame size {}",
                                width.bytes(),
                                f.frame_size
                            ),
                        ));
                    }
                }
                Inst::FrameAddr { off, .. } => {
                    if u64::from(*off) > u64::from(f.frame_size) {
                        errs.push(fail(
                            Some(i),
                            format!("frame address sp+{off} exceeds frame size {}", f.frame_size),
                        ));
                    }
                }
                Inst::GlobalAddr { global, .. } => {
                    if global.0 as usize >= p.globals.len() {
                        errs.push(fail(Some(i), format!("unknown global {}", global.0)));
                    }
                }
                Inst::SymAddr { sym, .. } => {
                    if sym.0 as usize >= p.imports.len() {
                        errs.push(fail(Some(i), format!("unknown import {}", sym.0)));
                    }
                }
                Inst::FuncAddr { func, .. } | Inst::CallLocal { func, .. } => {
                    if func.0 as usize >= p.funcs.len() {
                        errs.push(fail(Some(i), format!("unknown function {}", func.0)));
                    }
                }
                Inst::CallExtern { sym, .. } => {
                    if sym.0 as usize >= p.imports.len() {
                        errs.push(fail(Some(i), format!("unknown import {}", sym.0)));
                    }
                }
                Inst::CallPtr { sig, .. } | Inst::GuardIndCall { sig, .. } => {
                    if sig.0 as usize >= p.sigs.len() {
                        errs.push(fail(Some(i), format!("unknown sig {}", sig.0)));
                    }
                }
                _ => {}
            }
        }
    }
    for r in &p.fn_relocs {
        let bad_ids = r.global.0 as usize >= p.globals.len() || r.func.0 as usize >= p.funcs.len();
        if bad_ids {
            errs.push(VerifyError {
                func: "<relocs>".into(),
                inst: None,
                msg: "fn reloc references unknown global or func".into(),
            });
        } else if r.offset + 8 > p.globals[r.global.0 as usize].size {
            errs.push(VerifyError {
                func: "<relocs>".into(),
                inst: None,
                msg: format!(
                    "fn reloc at offset {} exceeds global `{}` size {}",
                    r.offset,
                    p.globals[r.global.0 as usize].name,
                    p.globals[r.global.0 as usize].size
                ),
            });
        }
    }
    for a in &p.sig_assignments {
        if a.func.0 as usize >= p.funcs.len() || a.sig.0 as usize >= p.sigs.len() {
            errs.push(VerifyError {
                func: "<assignments>".into(),
                inst: None,
                msg: "sig assignment references unknown func or sig".into(),
            });
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::regs::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{BinOp, Cond, Width};
    use crate::program::{FuncId, Function, SigAssignment, SigId, SymbolId};

    #[test]
    fn accepts_well_formed_program() {
        let mut pb = ProgramBuilder::new("ok");
        pb.define("f", 1, 16, |f| {
            f.store_frame(1i64, 8, Width::B8);
            f.ret(R0);
        });
        let p = pb.finish();
        assert!(verify_program(&p).is_ok());
    }

    #[test]
    fn rejects_out_of_frame_access() {
        let mut pb = ProgramBuilder::new("bad");
        pb.define("f", 0, 8, |f| {
            f.store_frame(1i64, 4, Width::B8); // bytes 4..12 > frame 8
            f.ret_void();
        });
        let p = pb.finish();
        let errs = verify_program(&p).unwrap_err();
        assert!(errs[0].msg.contains("exceeds frame size"));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut p = crate::program::Program::new("bad");
        p.funcs.push(Function {
            name: "f".into(),
            params: 0,
            frame_size: 0,
            insts: vec![Inst::Nop],
        });
        let errs = verify_program(&p).unwrap_err();
        assert!(errs[0].msg.contains("does not end"));
    }

    #[test]
    fn rejects_out_of_range_register_in_every_operand_position() {
        let r = Operand::Reg;
        let imm = Operand::Imm(0);
        type Reads = fn(Operand) -> Inst;
        let table: [(&str, Reads); 17] = [
            ("Mov.src", |o| Inst::Mov { dst: R0, src: o }),
            ("Bin.lhs", |o| Inst::Bin {
                op: BinOp::Add,
                dst: R0,
                lhs: o,
                rhs: Operand::Imm(0),
            }),
            ("Bin.rhs", |o| Inst::Bin {
                op: BinOp::Add,
                dst: R0,
                lhs: Operand::Imm(0),
                rhs: o,
            }),
            ("Load.base", |o| Inst::Load {
                dst: R0,
                base: o,
                off: 0,
                width: Width::B8,
            }),
            ("Store.src", |o| Inst::Store {
                src: o,
                base: R1.into(),
                off: 0,
                width: Width::B8,
            }),
            ("Store.base", |o| Inst::Store {
                src: R1.into(),
                base: o,
                off: 0,
                width: Width::B8,
            }),
            ("StoreFrame.src", |o| Inst::StoreFrame {
                src: o,
                off: 0,
                width: Width::B8,
            }),
            ("Br.lhs", |o| Inst::Br {
                cond: Cond::Eq,
                lhs: o,
                rhs: Operand::Imm(0),
                target: 1,
            }),
            ("Br.rhs", |o| Inst::Br {
                cond: Cond::Eq,
                lhs: Operand::Imm(0),
                rhs: o,
                target: 1,
            }),
            ("CallLocal.args", |o| Inst::CallLocal {
                func: FuncId(0),
                args: vec![o],
                ret: None,
            }),
            ("CallExtern.args", |o| Inst::CallExtern {
                sym: SymbolId(0),
                args: vec![o],
                ret: None,
            }),
            ("CallPtr.ptr", |o| Inst::CallPtr {
                ptr: o,
                sig: SigId(0),
                args: vec![],
                ret: None,
            }),
            ("CallPtr.args", |o| Inst::CallPtr {
                ptr: R1.into(),
                sig: SigId(0),
                args: vec![o],
                ret: None,
            }),
            ("Ret.val", |o| Inst::Ret { val: Some(o) }),
            ("GuardWrite.base", |o| Inst::GuardWrite {
                base: o,
                off: 0,
                len: Operand::Imm(8),
            }),
            ("GuardWrite.len", |o| Inst::GuardWrite {
                base: R1.into(),
                off: 0,
                len: o,
            }),
            ("GuardIndCall.slot_base", |o| Inst::GuardIndCall {
                slot_base: o,
                slot_off: 0,
                sig: SigId(0),
            }),
        ];
        let program = |inst: Inst| {
            let mut pb = ProgramBuilder::new("regs");
            pb.import_func("ext");
            pb.sig("cb", 0);
            let mut p = pb.finish();
            p.funcs.push(Function {
                name: "f".into(),
                params: 0,
                frame_size: 8,
                insts: vec![inst, Inst::Ret { val: None }],
            });
            p
        };
        for (pos, make) in table {
            assert!(
                verify_program(&program(make(imm))).is_ok(),
                "{pos} immediate"
            );
            assert!(
                verify_program(&program(make(r(Reg(15))))).is_ok(),
                "{pos} r15"
            );
            let errs = verify_program(&program(make(r(Reg(200))))).unwrap_err();
            assert_eq!(errs.len(), 1, "{pos}: {errs:?}");
            assert_eq!(errs[0].inst, Some(0), "{pos}");
            assert_eq!(errs[0].msg, "register r200 out of range", "{pos}");
        }
        let def = program(Inst::Mov {
            dst: Reg(16),
            src: imm,
        });
        assert_eq!(
            verify_program(&def).unwrap_err()[0].msg,
            "register r16 out of range"
        );
    }

    #[test]
    fn rejects_wild_jump() {
        let mut p = crate::program::Program::new("bad");
        p.funcs.push(Function {
            name: "f".into(),
            params: 0,
            frame_size: 0,
            insts: vec![Inst::Jmp { target: 99 }],
        });
        let errs = verify_program(&p).unwrap_err();
        assert!(errs[0].msg.contains("out of range"));
    }

    #[test]
    fn rejects_dangling_sig_assignment() {
        let mut p = crate::program::Program::new("bad");
        p.funcs.push(Function {
            name: "f".into(),
            params: 0,
            frame_size: 0,
            insts: vec![Inst::Ret { val: None }],
        });
        p.sig_assignments.push(SigAssignment {
            func: FuncId(0),
            sig: SigId(7),
        });
        let errs = verify_program(&p).unwrap_err();
        assert!(errs[0].msg.contains("sig assignment"));
    }

    #[test]
    fn rejects_empty_function() {
        let mut p = crate::program::Program::new("bad");
        p.funcs.push(Function {
            name: "f".into(),
            params: 0,
            frame_size: 0,
            insts: vec![],
        });
        assert!(verify_program(&p).is_err());
    }
}
