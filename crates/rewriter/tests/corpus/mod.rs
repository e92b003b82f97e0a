//! Programs shared by the guard-soundness tests: the rewriter-output
//! mutation corpus and the generator of random source programs. Used
//! by `soundness_mutations.rs` here and by the machine crate's
//! differential oracle (`crates/machine/tests/soundness_oracle.rs`),
//! so both check the very same programs.

#![allow(dead_code)] // each includer uses a subset

use lxfi_machine::builder::regs::*;
use lxfi_machine::builder::ProgramBuilder;
use lxfi_machine::isa::{Cond, Inst, Operand, Reg, Width};
use lxfi_machine::Program;
use proptest::prelude::*;

// ------------------------------------------------------------- corpus

/// A program exercising every shape the module rewriter produces:
/// merged straight-line runs, a branch diamond, a guard-hoistable
/// loop, elided frame stores, and a fact-killing call. Every store
/// targets a distinct range so no guard is redundant.
pub fn corpus_program() -> Program {
    let mut pb = ProgramBuilder::new("corpus");
    let ext = pb.import_func("helper");
    pb.define("straight", 1, 16, |f| {
        f.store8(1i64, R0, 0); // merged run [0,24)
        f.mov(R2, 7i64);
        f.store8(R2, R0, 8);
        f.store8(3i64, R0, 16);
        f.store_frame(9i64, 0, Width::B8); // elided
        f.call_extern(ext, &[], None); // kills facts
        f.store8(4i64, R0, 24); // fresh guard after the call
        f.ret_void();
    });
    pb.define("diamond", 2, 0, |f| {
        let other = f.label();
        let join = f.label();
        f.br(Cond::Eq, R0, 0i64, other);
        f.store8(1i64, R1, 0);
        f.jmp(join);
        f.bind(other);
        f.store8(2i64, R1, 8);
        f.bind(join);
        f.store8(3i64, R1, 16);
        f.ret_void();
    });
    pb.define("loopy", 2, 0, |f| {
        // Bottom-tested copy loop with an invariant-base store: the
        // rewriter hoists this guard, so the corpus also mutates a
        // *hoisted* guard.
        let top = f.label();
        let done = f.label();
        f.mov(R2, 0i64);
        f.br(Cond::Eq, R0, 0i64, done);
        f.bind(top);
        f.store8(R2, R1, 32);
        f.add(R2, R2, 1i64);
        f.br(Cond::Lt, R2, R0, top);
        f.bind(done);
        f.ret_void();
    });
    pb.finish()
}

/// All (function, instruction) positions holding a `GuardWrite`.
pub fn guard_sites(p: &Program) -> Vec<(usize, usize)> {
    p.funcs
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.insts
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Inst::GuardWrite { .. }))
                .map(move |(idx, _)| (fi, idx))
        })
        .collect()
}

/// Deletes instruction `idx` of function `fi`, remapping jump targets
/// so the mutant is structurally valid and fails only for soundness.
pub fn delete_inst(p: &Program, fi: usize, idx: usize) -> Program {
    let mut m = p.clone();
    m.funcs[fi].insts.remove(idx);
    for inst in &mut m.funcs[fi].insts {
        inst.map_target(|t| if t > idx { t - 1 } else { t });
    }
    m
}

/// Swaps the guard with the following instruction (used where that is
/// the store it protects — the guard then runs too late).
pub fn move_after_next(p: &Program, fi: usize, idx: usize) -> Program {
    let mut m = p.clone();
    m.funcs[fi].insts.swap(idx, idx + 1);
    m
}

pub fn rebase(p: &Program, fi: usize, idx: usize) -> Program {
    let mut m = p.clone();
    if let Inst::GuardWrite { base, .. } = &mut m.funcs[fi].insts[idx] {
        *base = match base {
            Operand::Reg(r) => Operand::Reg(Reg((r.0 + 1) % 16)),
            Operand::Imm(v) => Operand::Imm(*v + 8),
        };
    }
    m
}

pub fn shorten(p: &Program, fi: usize, idx: usize) -> Program {
    let mut m = p.clone();
    if let Inst::GuardWrite { len, .. } = &mut m.funcs[fi].insts[idx] {
        *len = Operand::Imm(1);
    }
    m
}

pub fn shift_off(p: &Program, fi: usize, idx: usize) -> Program {
    let mut m = p.clone();
    if let Inst::GuardWrite { off, .. } = &mut m.funcs[fi].insts[idx] {
        *off += 4096;
    }
    m
}

/// Every single-guard mutant of `p` (rewriter output of
/// [`corpus_program`]), named: each guard stripped, rebased, shortened
/// and shifted, and where the guard directly precedes its store, moved
/// after it.
pub fn corpus_mutants(p: &Program) -> Vec<(String, Program)> {
    let mut cases = Vec::new();
    for (fi, idx) in guard_sites(p) {
        cases.push((format!("strip f{fi}@{idx}"), delete_inst(p, fi, idx)));
        cases.push((format!("rebase f{fi}@{idx}"), rebase(p, fi, idx)));
        cases.push((format!("shorten f{fi}@{idx}"), shorten(p, fi, idx)));
        cases.push((format!("shift f{fi}@{idx}"), shift_off(p, fi, idx)));
        // Move-after-store applies where the guard directly precedes
        // its store (every non-hoisted site).
        if matches!(p.funcs[fi].insts[idx + 1], Inst::Store { .. }) {
            cases.push((format!("move f{fi}@{idx}"), move_after_next(p, fi, idx)));
        }
    }
    cases
}

/// A branch diamond whose arms store to the same range the join store
/// writes, so the rewriter's two arm guards are mutually redundant for
/// the join: the classic partial-domination case.
pub fn diamond_program() -> Program {
    let mut pb = ProgramBuilder::new("m");
    pb.define("f", 2, 0, |f| {
        let other = f.label();
        let join = f.label();
        f.br(Cond::Eq, R0, 0i64, other);
        f.store8(1i64, R1, 0);
        f.jmp(join);
        f.bind(other);
        f.store8(2i64, R1, 0); // same range: guards are mutually redundant
        f.bind(join);
        f.store8(3i64, R1, 0); // relies on whichever arm ran
        f.ret_void();
    });
    pb.finish()
}

// ------------------------------------------------------- generated

/// One generated operation; fields are interpreted per `kind` to keep
/// the strategy flat and shrinkable (same trick as the backend oracle).
#[derive(Debug, Clone, Copy)]
pub struct GenOp {
    kind: u8,
    a: u8,
    b: u8,
    imm: i64,
}

pub fn arb_op() -> impl Strategy<Value = GenOp> {
    (0u8..8, 0u8..6, 0u8..6, -64i64..64).prop_map(|(kind, a, b, imm)| GenOp { kind, a, b, imm })
}

/// Builds a structurally valid program from the op list: stores through
/// arbitrary registers, frame stores, ALU, loads, forward branches,
/// calls, and (kind 7) a bottom-tested counted loop with an
/// invariant-base store — the hoisting pass's target shape.
pub fn build_program(ops: &[GenOp]) -> Program {
    let mut pb = ProgramBuilder::new("gen");
    let ext = pb.import_func("helper");
    pb.define("main", 2, 32, |f| {
        let mut pending: Vec<(usize, lxfi_machine::builder::Label)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let mut due = Vec::new();
            pending.retain(|(at, l)| {
                if *at <= i {
                    due.push(*l);
                    false
                } else {
                    true
                }
            });
            for l in due {
                f.bind(l);
            }
            let ra = Reg(op.a);
            let rb = Reg(op.b);
            let width = match op.imm & 3 {
                0 => Width::B1,
                1 => Width::B2,
                2 => Width::B4,
                _ => Width::B8,
            };
            match op.kind {
                0 => f.store(op.imm, ra, op.imm & 0xff, width),
                1 => f.store_frame(op.imm, (op.imm.unsigned_abs() % 24) as u32, Width::B8),
                2 => f.mov(ra, op.imm),
                3 => f.add(ra, rb, op.imm),
                4 => f.load(ra, rb, op.imm & 0xff, width),
                5 => {
                    let l = f.label();
                    f.br(Cond::Eq, ra, op.imm, l);
                    pending.push((i + 1 + (op.imm.unsigned_abs() as usize % 4), l));
                }
                6 => f.call_extern(ext, &[ra.into()], Some(rb)),
                _ => {
                    // Counted loop: store through rb (invariant), bump
                    // ra, backedge. Never executed — only verified.
                    let top = f.label();
                    f.mov(ra, 0i64);
                    f.bind(top);
                    f.store8(ra, rb, op.imm & 0xff);
                    f.add(ra, ra, 1i64);
                    f.br(Cond::Lt, ra, 4i64, top);
                }
            }
        }
        for (_, l) in pending {
            f.bind(l);
        }
        f.ret_void();
    });
    pb.finish()
}
