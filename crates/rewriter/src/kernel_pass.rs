//! The kernel rewriter (§4.1, Figure 5).
//!
//! Core-kernel code that invokes function pointers a module may have
//! supplied must be preceded by `lxfi_check_indcall(pptr, ahash)`, where
//! `pptr` is the address of the *original memory slot* the pointer came
//! from — not the local copy. A simple intra-procedural analysis traces
//! the called register back to its defining load:
//!
//! ```text
//! handler = device->ops->handler;     // Load r2, [r1+8]
//! ...
//! lxfi_check_indcall(&device->ops->handler, ahash);   // inserted
//! handler(device);                     // CallPtr r2
//! ```
//!
//! Sites where the pointer's origin cannot be traced (value produced in
//! another function, base register clobbered, block boundary crossed) are
//! reported for manual inspection — the paper found 51 such cases among
//! 7,500 kernel indirect-call sites.

use lxfi_machine::isa::{Inst, Operand, Reg};
use lxfi_machine::program::Program;

use crate::edit::{block_leaders, insert_before};

/// Outcome of rewriting the kernel thunks.
#[derive(Debug)]
pub struct KernelRewriteReport {
    /// The instrumented program.
    pub program: Program,
    /// Number of indirect-call sites guarded.
    pub guarded: usize,
    /// Sites whose pointer origin the analysis could not trace:
    /// `(function name, instruction index)`.
    pub untraceable: Vec<(String, usize)>,
}

/// Runs the kernel pass over a program of core-kernel thunks.
pub fn rewrite_kernel_thunks(input: &Program) -> KernelRewriteReport {
    let mut program = input.clone();
    let mut guarded = 0;
    let mut untraceable = Vec::new();

    for f in &mut program.funcs {
        let leaders = block_leaders(&f.insts);
        let mut inserts: Vec<(usize, Inst)> = Vec::new();
        for (i, inst) in f.insts.iter().enumerate() {
            let Inst::CallPtr { ptr, sig, .. } = inst else {
                continue;
            };
            let Operand::Reg(preg) = ptr else {
                // A constant function-pointer operand has no memory slot;
                // treat as untraceable (requires manual inspection).
                untraceable.push((f.name.clone(), i));
                continue;
            };
            match trace_back(&f.insts, i, *preg, &leaders) {
                Some((base, off)) => {
                    inserts.push((
                        i,
                        Inst::GuardIndCall {
                            slot_base: base,
                            slot_off: off,
                            sig: *sig,
                        },
                    ));
                    guarded += 1;
                }
                None => untraceable.push((f.name.clone(), i)),
            }
        }
        f.insts = insert_before(&f.insts, inserts);
    }

    KernelRewriteReport {
        program,
        guarded,
        untraceable,
    }
}

/// Walks backwards from `site` looking for the load that defined `preg`,
/// then confirms the load's base register is not redefined between the
/// load and the call site. Conservatively aborts at block boundaries.
fn trace_back(body: &[Inst], site: usize, preg: Reg, leaders: &[bool]) -> Option<(Operand, i64)> {
    let mut def_idx = None;
    for j in (0..site).rev() {
        // Stop at block boundaries: another path may define preg.
        if leaders[j + 1] {
            break;
        }
        if body[j].def_reg() == Some(preg) {
            def_idx = Some(j);
            break;
        }
    }
    let j = def_idx?;
    let Inst::Load {
        base, off, width, ..
    } = &body[j]
    else {
        return None; // Defined by something other than a slot load.
    };
    if width.bytes() != 8 {
        return None; // Function pointers are full words.
    }
    // The slot address (base+off) must still be computable at the call
    // site: the base register must not be redefined in between.
    if let Operand::Reg(base_reg) = base {
        for inst in &body[j + 1..site] {
            if inst.def_reg() == Some(*base_reg) {
                return None;
            }
        }
    }
    Some((*base, *off))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_machine::builder::regs::*;
    use lxfi_machine::builder::ProgramBuilder;
    use lxfi_machine::isa::{Cond, Width};
    use lxfi_machine::verify_program;

    #[test]
    fn figure5_pattern_is_guarded() {
        // handler = device->ops->handler; handler(device)
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("handler_func_t", 1);
        pb.define("dispatch", 1, 0, |f| {
            f.load8(R1, R0, 16); // r1 = device->ops
            f.load8(R2, R1, 8); // r2 = ops->handler
            f.call_ptr(R2, sig, &[R0.into()], Some(R0));
            f.ret(R0);
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 1);
        assert!(rep.untraceable.is_empty());
        let insts = &rep.program.funcs[0].insts;
        match &insts[2] {
            Inst::GuardIndCall {
                slot_base,
                slot_off,
                ..
            } => {
                // Guard uses &ops->handler (r1+8), not the local copy r2.
                assert_eq!(*slot_base, Operand::Reg(R1));
                assert_eq!(*slot_off, 8);
            }
            other => panic!("expected guard, got {other:?}"),
        }
        verify_program(&rep.program).unwrap();
    }

    #[test]
    fn intervening_work_is_fine_if_base_live() {
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("cb", 0);
        pb.define("f", 1, 0, |f| {
            f.load8(R2, R0, 0);
            f.add(R3, R2, 1i64); // unrelated work
            f.mov(R4, 7i64);
            f.call_ptr(R2, sig, &[], None);
            f.ret_void();
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 1);
    }

    #[test]
    fn clobbered_base_is_untraceable() {
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("cb", 0);
        pb.define("f", 1, 0, |f| {
            f.load8(R2, R0, 0);
            f.mov(R0, 0i64); // clobber the base register
            f.call_ptr(R2, sig, &[], None);
            f.ret_void();
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 0);
        assert_eq!(rep.untraceable, vec![("f".to_string(), 2)]);
    }

    #[test]
    fn pointer_from_argument_is_untraceable() {
        // The pointer value originates in another function (§4.1's 51
        // manually-verified cases).
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("cb", 0);
        pb.define("f", 1, 0, |f| {
            f.call_ptr(R0, sig, &[], None);
            f.ret_void();
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 0);
        assert_eq!(rep.untraceable.len(), 1);
    }

    #[test]
    fn trace_does_not_cross_block_boundaries() {
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("cb", 0);
        pb.define("f", 2, 0, |f| {
            let join = f.label();
            f.load8(R2, R0, 0);
            f.br(Cond::Eq, R1, 0i64, join);
            f.load8(R2, R0, 8);
            f.bind(join);
            // r2 differs depending on path; conservative analysis bails.
            f.call_ptr(R2, sig, &[], None);
            f.ret_void();
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 0);
        assert_eq!(rep.untraceable.len(), 1);
    }

    #[test]
    fn narrow_load_is_not_a_function_pointer() {
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("cb", 0);
        pb.define("f", 1, 0, |f| {
            f.load(R2, R0, 0, Width::B4);
            f.call_ptr(R2, sig, &[], None);
            f.ret_void();
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 0);
        assert_eq!(rep.untraceable.len(), 1);
    }

    #[test]
    fn multiple_sites_all_processed() {
        let mut pb = ProgramBuilder::new("kernel");
        let sig = pb.sig("cb", 0);
        pb.define("f", 1, 0, |f| {
            f.load8(R2, R0, 0);
            f.call_ptr(R2, sig, &[], None);
            f.load8(R3, R0, 8);
            f.call_ptr(R3, sig, &[], None);
            f.ret_void();
        });
        let rep = rewrite_kernel_thunks(&pb.finish());
        assert_eq!(rep.guarded, 2);
        verify_program(&rep.program).unwrap();
    }
}
