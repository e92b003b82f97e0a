//! The module rewriter (§4.2).
//!
//! For each module function, inserts a [`GuardWrite`] before every store
//! whose safety the verifier cannot prove. Frame-local stores
//! (`StoreFrame`) are statically bounds-checked by the KIR verifier and
//! fall inside the thread-stack WRITE capability, so they need no guard —
//! this is the constant-offset elision the paper credits for MD5's 2%
//! overhead (§8.3).
//!
//! The pass also performs a peephole optimization: consecutive stores
//! through the same (unmodified) base register are covered by one merged
//! guard spanning all of them, mirroring the paper's observation that a
//! compile-time approach "provides opportunities for compile-time
//! optimizations" that binary rewriters like XFI cannot exploit. Merge
//! runs are **gap-tolerant**: pure register-ALU instructions (moves,
//! arithmetic, address materialization) may sit between the stores as
//! long as they do not redefine the base register — they cannot change
//! where the stores land, touch memory, or transfer control, so the
//! merged guard's extent is unaffected. Real store sequences (struct
//! field fills computing each value just before storing it) merge whole
//! instead of breaking at every intervening `mov`.
//!
//! Finally it derives the module-initialization grant list from the
//! import table: a CALL capability for every imported function's wrapper
//! and a WRITE capability for every imported data symbol, granted to the
//! module's *shared* principal at load time.
//!
//! [`GuardWrite`]: lxfi_machine::isa::Inst::GuardWrite

use lxfi_machine::isa::{Inst, Operand, Reg};
use lxfi_machine::program::{ImportKind, Program};
use lxfi_machine::soundness::{verify_soundness, SoundnessPolicy};

use crate::edit::{block_leaders, insert_before};
use crate::hoist::hoist_function;

/// Options controlling the module pass.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Merge consecutive same-base store guards into one range guard.
    /// Merging is strictly *more* restrictive (the principal must own the
    /// whole spanned range), never less.
    pub merge_write_guards: bool,
    /// Hoist loop-invariant write guards to the loop header (see the
    /// crate's `hoist` pass), turning a per-iteration table probe into a
    /// per-entry one. The hoisted program must re-pass the soundness
    /// verifier or the whole hoist is reverted.
    pub hoist_loop_guards: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            merge_write_guards: true,
            hoist_loop_guards: true,
        }
    }
}

/// An initial capability grant derived from the import table (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitGrant {
    /// CALL capability for imported function `name` (resolved to the
    /// wrapper address at load).
    Call {
        /// Kernel symbol name.
        name: String,
    },
    /// WRITE capability over imported data symbol `name`.
    Write {
        /// Kernel symbol name.
        name: String,
    },
}

/// Counters for the store-guard merge peephole.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Guards saved by merging same-base stores into one range guard.
    pub guards_merged: usize,
    /// Pure register-ALU instructions tolerated *inside* merge runs.
    /// Each one sat between two stores that would otherwise have been
    /// guarded separately, so this counts the elisions the gap
    /// tolerance bought beyond strict-adjacency merging.
    pub gap_insts_tolerated: usize,
    /// Loop-invariant guards moved from a loop body to its header —
    /// each one turns a per-iteration guard execution into a per-entry
    /// one.
    pub guards_hoisted: usize,
    /// Hoists undone because the hoisted program failed the soundness
    /// verifier (always 0 in practice; the gate exists so the hoisting
    /// pass never needs to be trusted).
    pub hoists_reverted: usize,
}

/// Result of rewriting one module.
#[derive(Debug)]
pub struct ModuleRewrite {
    /// The instrumented program.
    pub program: Program,
    /// Initial grants for the shared principal.
    pub init_grants: Vec<InitGrant>,
    /// Number of store guards inserted.
    pub guards_inserted: usize,
    /// Stores proven safe statically (frame-local) — no guard.
    pub guards_elided: usize,
    /// Merge-peephole counters.
    pub merge: MergeStats,
}

/// Runs the module pass.
pub fn rewrite_module(input: &Program, opts: RewriteOptions) -> ModuleRewrite {
    let mut program = input.clone();
    let mut guards_inserted = 0;
    let mut guards_elided = 0;
    let mut merge = MergeStats::default();

    for f in &mut program.funcs {
        let leaders = block_leaders(&f.insts);
        let mut inserts: Vec<(usize, Inst)> = Vec::new();
        let mut i = 0;
        while i < f.insts.len() {
            match &f.insts[i] {
                Inst::StoreFrame { .. } => {
                    // Statically verified in-frame: covered by the
                    // thread-stack WRITE capability. No guard.
                    guards_elided += 1;
                    i += 1;
                }
                Inst::Store {
                    base, off, width, ..
                } => {
                    let (group_end, gap_insts) = if opts.merge_write_guards {
                        store_group_end(&f.insts, i, *base, &leaders)
                    } else {
                        (i + 1, 0)
                    };
                    if group_end > i + 1 {
                        // Merged guard spanning the whole group (the
                        // extent scans only the stores, so tolerated
                        // gap instructions cannot widen it).
                        let (lo, span) = group_extent(&f.insts[i..group_end]);
                        let stores = f.insts[i..group_end]
                            .iter()
                            .filter(|inst| matches!(inst, Inst::Store { .. }))
                            .count();
                        inserts.push((
                            i,
                            Inst::GuardWrite {
                                base: *base,
                                off: lo,
                                len: Operand::Imm(span as i64),
                            },
                        ));
                        guards_inserted += 1;
                        merge.guards_merged += stores - 1;
                        merge.gap_insts_tolerated += gap_insts;
                    } else {
                        inserts.push((
                            i,
                            Inst::GuardWrite {
                                base: *base,
                                off: *off,
                                len: Operand::Imm(width.bytes() as i64),
                            },
                        ));
                        guards_inserted += 1;
                    }
                    i = group_end;
                }
                _ => i += 1,
            }
        }
        f.insts = insert_before(&f.insts, inserts);
    }

    // Loop-invariant guard hoisting, gated on the soundness verifier:
    // if the hoisted program no longer proves every store
    // guard-dominated, throw the whole hoist away and ship the
    // straightforwardly-guarded version.
    if opts.hoist_loop_guards {
        let unhoisted = program.clone();
        let mut hoisted = 0;
        for f in &mut program.funcs {
            hoisted += hoist_function(f);
        }
        if hoisted > 0 {
            match verify_soundness(&program, SoundnessPolicy::module()) {
                Ok(_) => merge.guards_hoisted = hoisted,
                Err(_) => {
                    program = unhoisted;
                    merge.hoists_reverted = hoisted;
                }
            }
        }
    }

    let init_grants = input
        .imports
        .iter()
        .map(|imp| match imp.kind {
            ImportKind::Func => InitGrant::Call {
                name: imp.name.clone(),
            },
            ImportKind::Data => InitGrant::Write {
                name: imp.name.clone(),
            },
        })
        .collect();

    ModuleRewrite {
        program,
        init_grants,
        guards_inserted,
        guards_elided,
        merge,
    }
}

/// True for pure register-ALU instructions: no memory effect, no
/// capability-state effect, no control transfer. Such an instruction may
/// sit inside a merge run — it cannot move where the run's stores land
/// (unless it redefines the base register, which the caller checks).
fn is_pure_reg_alu(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Mov { .. }
            | Inst::Bin { .. }
            | Inst::FrameAddr { .. }
            | Inst::GlobalAddr { .. }
            | Inst::SymAddr { .. }
            | Inst::FuncAddr { .. }
    )
}

/// Returns the exclusive end of the run of `Store`s through `base`
/// starting at `start` (ending just past the last store), plus the
/// number of tolerated gap instructions inside the run. The run stops at
/// block boundaries, any redefinition of `base`, and any instruction
/// that could touch memory, change capability state (calls), or transfer
/// control; pure register-ALU instructions that leave `base` alone are
/// stepped over and counted.
fn store_group_end(body: &[Inst], start: usize, base: Operand, leaders: &[bool]) -> (usize, usize) {
    let base_reg = match base {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    };
    let redefines_base = |inst: &Inst| match (base_reg, inst.def_reg()) {
        (Some(r), Some(def)) => def == r,
        _ => false,
    };
    let mut end = start + 1; // exclusive end: one past the last store
    let mut cursor = start + 1;
    let mut gaps_pending = 0;
    let mut gap_insts = 0;
    while cursor < body.len() {
        if leaders[cursor] {
            break; // A branch may land here and skip the merged guard.
        }
        match &body[cursor] {
            Inst::Store { base: b, .. } if *b == base => {
                gap_insts += gaps_pending; // the gap sat between stores
                gaps_pending = 0;
                cursor += 1;
                end = cursor;
            }
            inst if is_pure_reg_alu(inst) && !redefines_base(inst) => {
                gaps_pending += 1;
                cursor += 1;
            }
            _ => break,
        }
    }
    let _ = base_reg.map(|r: Reg| r); // silence unused in non-debug builds
    (end, gap_insts)
}

/// `[lo, hi)` byte extent covered by a run of stores (same base).
fn group_extent(group: &[Inst]) -> (i64, u64) {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for inst in group {
        if let Inst::Store { off, width, .. } = inst {
            lo = lo.min(*off);
            hi = hi.max(*off + width.bytes() as i64);
        }
    }
    (lo, (hi - lo) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_machine::builder::regs::*;
    use lxfi_machine::builder::ProgramBuilder;
    use lxfi_machine::isa::{Cond, Width};
    use lxfi_machine::verify_program;

    #[test]
    fn guards_inserted_before_stores() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 1, 0, |f| {
            f.store8(1i64, R0, 0);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        let insts = &rw.program.funcs[0].insts;
        assert!(insts[0].is_guard());
        assert!(matches!(insts[1], Inst::Store { .. }));
        assert_eq!(rw.guards_inserted, 1);
        verify_program(&rw.program).unwrap();
    }

    #[test]
    fn frame_stores_are_elided() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 0, 32, |f| {
            f.store_frame(1i64, 0, Width::B8);
            f.store_frame(2i64, 8, Width::B8);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 0);
        assert_eq!(rw.guards_elided, 2);
        assert_eq!(rw.program.code_size(), 3, "no code growth");
    }

    #[test]
    fn consecutive_stores_same_base_merge() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("init_obj", 1, 0, |f| {
            f.store8(0i64, R0, 0);
            f.store8(0i64, R0, 8);
            f.store(0i64, R0, 16, Width::B4);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 1);
        assert_eq!(rw.merge.guards_merged, 2);
        assert_eq!(rw.merge.gap_insts_tolerated, 0);
        match &rw.program.funcs[0].insts[0] {
            Inst::GuardWrite { off, len, .. } => {
                assert_eq!(*off, 0);
                assert_eq!(*len, Operand::Imm(20));
            }
            other => panic!("expected merged guard, got {other:?}"),
        }
    }

    #[test]
    fn merge_disabled_guards_each_store() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 1, 0, |f| {
            f.store8(0i64, R0, 0);
            f.store8(0i64, R0, 8);
            f.ret_void();
        });
        let rw = rewrite_module(
            &pb.finish(),
            RewriteOptions {
                merge_write_guards: false,
                ..Default::default()
            },
        );
        assert_eq!(rw.guards_inserted, 2);
        assert_eq!(rw.merge, MergeStats::default());
    }

    #[test]
    fn pure_alu_gap_does_not_break_the_merge() {
        // A field fill computing each value just before storing it:
        //   store [r0+0]; mov r1, 7; add r2, r1, 1; store [r0+8]
        // The mov/add cannot move the store base, so one guard covers
        // both stores and the gap instructions are counted.
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 3, 0, |f| {
            f.store8(1i64, R0, 0);
            f.mov(R1, 7i64);
            f.add(R2, R1, 1i64);
            f.store8(R2, R0, 8);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 1);
        assert_eq!(rw.merge.guards_merged, 1);
        assert_eq!(rw.merge.gap_insts_tolerated, 2);
        match &rw.program.funcs[0].insts[0] {
            Inst::GuardWrite { off, len, .. } => {
                assert_eq!(*off, 0);
                assert_eq!(*len, Operand::Imm(16), "extent spans the stores only");
            }
            other => panic!("expected merged guard, got {other:?}"),
        }
        verify_program(&rw.program).unwrap();
    }

    #[test]
    fn trailing_alu_after_last_store_is_not_counted() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 2, 0, |f| {
            f.store8(1i64, R0, 0);
            f.store8(2i64, R0, 8);
            f.mov(R1, 7i64); // after the run: not a tolerated gap
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 1);
        assert_eq!(rw.merge.guards_merged, 1);
        assert_eq!(rw.merge.gap_insts_tolerated, 0);
    }

    #[test]
    fn gap_redefining_base_breaks_the_merge() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 2, 0, |f| {
            f.store8(1i64, R0, 0);
            f.add(R0, R0, 0x100i64); // redefines the base: run ends
            f.store8(2i64, R0, 8);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 2);
        assert_eq!(rw.merge, MergeStats::default());
        verify_program(&rw.program).unwrap();
    }

    #[test]
    fn memory_touching_gap_breaks_the_merge() {
        // A load is not a pure register-ALU instruction; stay
        // conservative and end the run.
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 3, 0, |f| {
            f.store8(1i64, R0, 0);
            f.load(R1, R2, 0, Width::B8);
            f.store8(R1, R0, 8);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 2);
        assert_eq!(rw.merge, MergeStats::default());
    }

    #[test]
    fn merge_stops_at_branch_targets() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 2, 0, |f| {
            let mid = f.label();
            f.br(Cond::Eq, R1, 0i64, mid);
            f.store8(0i64, R0, 0);
            f.bind(mid); // branch lands between the stores
            f.store8(0i64, R0, 8);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(
            rw.guards_inserted, 2,
            "a merged guard would be skippable via the branch"
        );
        verify_program(&rw.program).unwrap();
        // The branch must land on the second guard, not the second store.
        let insts = &rw.program.funcs[0].insts;
        let target = insts[0].jump_target().unwrap();
        assert!(insts[target].is_guard());
    }

    #[test]
    fn merge_stops_at_base_redefinition() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("f", 1, 0, |f| {
            f.store8(R0, R0, 0); // store also redefines nothing; base reused
            f.mov(R0, 0x9000i64); // redefines base
            f.store8(0i64, R0, 8);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(rw.guards_inserted, 2);
    }

    #[test]
    fn init_grants_from_import_table() {
        let mut pb = ProgramBuilder::new("m");
        pb.import_func("kmalloc");
        pb.import_func("netif_rx");
        pb.import_data("jiffies");
        pb.define("f", 0, 0, |f| f.ret_void());
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        assert_eq!(
            rw.init_grants,
            vec![
                InitGrant::Call {
                    name: "kmalloc".into()
                },
                InitGrant::Call {
                    name: "netif_rx".into()
                },
                InitGrant::Write {
                    name: "jiffies".into()
                },
            ]
        );
    }

    #[test]
    fn rewritten_program_always_verifies() {
        let mut pb = ProgramBuilder::new("m");
        pb.define("loopy", 2, 16, |f| {
            let top = f.label();
            let out = f.label();
            f.bind(top);
            f.br(Cond::Eq, R1, 0i64, out);
            f.store8(R1, R0, 0);
            f.store_frame(R1, 0, Width::B8);
            f.sub(R1, R1, 1i64);
            f.jmp(top);
            f.bind(out);
            f.ret_void();
        });
        let rw = rewrite_module(&pb.finish(), RewriteOptions::default());
        verify_program(&rw.program).unwrap();
        assert_eq!(rw.guards_inserted, 1);
        assert_eq!(rw.guards_elided, 1);
    }
}
