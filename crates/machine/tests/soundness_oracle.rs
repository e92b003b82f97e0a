//! Differential oracle for the guard-soundness proof.
//!
//! `reference` below is the proof as it stood before its fixpoint was
//! made allocation-light (in-place meet with change reporting, a
//! precomputed successor table, a masked `slot_of`, reused states),
//! copied verbatim apart from `SoundnessReport::absorb`, which is
//! private to the crate and restated as a free function. The abstract
//! domain, transfer functions and messages are the same by design, so
//! [`verify_soundness`] must return an identical `Result` — the same
//! `SoundnessReport`, or the same error list with function,
//! instruction and message — on every program here:
//!
//! - every shipped module, raw and rewritten under each option set;
//! - the kernel thunks, raw and rewritten;
//! - the mutation corpus and generated programs of
//!   `crates/rewriter/tests/soundness_mutations.rs`;
//! - generated control-flow graphs with forward and backward branches,
//!   write guards on several bases, stores, loads, calls and
//!   `GuardIndCall` + `CallPtr`, verified directly (not rewritten), so
//!   both verdicts occur.
//!
//! Each program is checked under all three policies.

#[path = "../../rewriter/tests/corpus/mod.rs"]
mod corpus;

use lxfi_machine::builder::{FunctionBuilder, Label, ProgramBuilder};
use lxfi_machine::isa::{Cond, Reg, Width};
use lxfi_machine::program::{FuncId, SigId, SymbolId};
use lxfi_machine::verify::VerifyError;
use lxfi_machine::{verify_soundness, Program, SoundnessPolicy, SoundnessReport};
use lxfi_rewriter::{rewrite_kernel_thunks, rewrite_module, RewriteOptions};
use proptest::prelude::*;

/// The earlier proof, kept only as a test reference.
mod reference {
    use lxfi_machine::isa::{Inst, Operand, Reg, Width, NUM_REGS};
    use lxfi_machine::program::{Function, Program, SigId};
    use lxfi_machine::verify::{verify_program, VerifyError};
    use lxfi_machine::{SoundnessPolicy, SoundnessReport};

    fn absorb(report: &mut SoundnessReport, o: &SoundnessReport) {
        report.funcs += o.funcs;
        report.blocks_checked += o.blocks_checked;
        report.unreachable_blocks += o.unreachable_blocks;
        report.stores_proven += o.stores_proven;
        report.frame_stores_proven += o.frame_stores_proven;
        report.indcalls_proven += o.indcalls_proven;
    }

    // ---------------------------------------------------- abstract domain

    /// A proven-writable interval `[base+lo, base+hi)`, established by a
    /// `GuardWrite` with an immediate length. Offsets are widened to `i128`
    /// so `off + len` can never wrap.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct WriteFact {
        base: Operand,
        lo: i128,
        hi: i128,
    }

    /// A function-pointer slot address, named symbolically as `base + off`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Slot {
        base: Operand,
        off: i64,
    }

    /// A slot whose writer set and annotation hash were validated by a
    /// `GuardIndCall` for signature `sig`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct CheckedSlot {
        slot: Slot,
        sig: SigId,
    }

    /// The per-program-point abstract state of the must-analysis. "No fact"
    /// is the safe bottom: the verifier then simply cannot prove anything.
    #[derive(Debug, Clone, PartialEq)]
    struct AbsState {
        /// Disjoint, coalesced proven-writable intervals, grouped by base.
        write_facts: Vec<WriteFact>,
        /// Per-register provenance: `slot_of[r] = Some(s)` means `r` still
        /// holds the 8-byte word loaded from slot `s`.
        slot_of: [Option<Slot>; NUM_REGS],
        /// Slots whose `GuardIndCall` check is still valid here.
        checked_slots: Vec<CheckedSlot>,
    }

    /// Total order on operands so fact lists can stay sorted/deduped.
    fn op_key(op: Operand) -> (u8, i64) {
        match op {
            Operand::Reg(r) => (0, i64::from(r.0)),
            Operand::Imm(v) => (1, v),
        }
    }

    impl AbsState {
        fn empty() -> Self {
            AbsState {
                write_facts: Vec::new(),
                slot_of: [None; NUM_REGS],
                checked_slots: Vec::new(),
            }
        }

        /// Adds `[base+lo, base+hi)` and coalesces overlapping or adjacent
        /// same-base intervals, so union coverage is simple containment.
        fn add_write_fact(&mut self, base: Operand, lo: i128, hi: i128) {
            let (mut lo, mut hi) = (lo, hi);
            self.write_facts.retain(|f| {
                if f.base == base && f.lo <= hi && lo <= f.hi {
                    lo = lo.min(f.lo);
                    hi = hi.max(f.hi);
                    false
                } else {
                    true
                }
            });
            self.write_facts.push(WriteFact { base, lo, hi });
            self.write_facts
                .sort_by_key(|f| (op_key(f.base), f.lo, f.hi));
        }

        /// Is `[base+lo, base+hi)` proven writable here?
        fn covers(&self, base: Operand, lo: i128, hi: i128) -> bool {
            self.write_facts
                .iter()
                .any(|f| f.base == base && f.lo <= lo && hi <= f.hi)
        }

        /// Forgets everything whose symbolic meaning depends on `r`'s
        /// current value: facts based on `r`, and the content fact for `r`
        /// itself. Required so symbolic equality keeps implying concrete
        /// equality after the register changes.
        fn kill_reg(&mut self, r: Reg) {
            let dead = Operand::Reg(r);
            self.write_facts.retain(|f| f.base != dead);
            self.slot_of[r.0 as usize] = None;
            for s in self.slot_of.iter_mut() {
                if matches!(s, Some(sl) if sl.base == dead) {
                    *s = None;
                }
            }
            self.checked_slots.retain(|c| c.slot.base != dead);
        }

        /// A store may overwrite any function-pointer slot, so all slot
        /// content and checked-slot facts die. Write capabilities are table
        /// state, not memory state — those facts survive.
        fn clobber_mem(&mut self) {
            self.slot_of = [None; NUM_REGS];
            self.checked_slots.clear();
        }

        /// A call can revoke write capabilities (the callee runs trusted
        /// kernel code), write memory, and clobber the return register:
        /// every fact dies.
        fn call_effect(&mut self) {
            self.write_facts.clear();
            self.clobber_mem();
        }

        /// Must-analysis meet: keep only facts valid on *both* paths.
        fn meet(&self, other: &AbsState) -> AbsState {
            let mut out = AbsState::empty();
            // Interval-list intersection per base (both lists are sorted
            // and coalesced, so a nested scan suffices at these sizes).
            for a in &self.write_facts {
                for b in &other.write_facts {
                    if a.base == b.base {
                        let lo = a.lo.max(b.lo);
                        let hi = a.hi.min(b.hi);
                        if lo < hi {
                            out.add_write_fact(a.base, lo, hi);
                        }
                    }
                }
            }
            for i in 0..NUM_REGS {
                if self.slot_of[i] == other.slot_of[i] {
                    out.slot_of[i] = self.slot_of[i];
                }
            }
            out.checked_slots = self
                .checked_slots
                .iter()
                .filter(|c| other.checked_slots.contains(c))
                .copied()
                .collect();
            out
        }

        /// Applies one instruction's transfer function.
        fn transfer(&mut self, inst: &Inst) {
            match inst {
                Inst::Load { dst, base, off, .. } => {
                    // Capture the slot fact *before* killing dst: a load
                    // whose base is its own destination redefines the base,
                    // so the symbolic slot name would dangle.
                    let slot = if matches!(
                        inst,
                        Inst::Load {
                            width: Width::B8,
                            ..
                        }
                    ) && *base != Operand::Reg(*dst)
                    {
                        Some(Slot {
                            base: *base,
                            off: *off,
                        })
                    } else {
                        None
                    };
                    self.kill_reg(*dst);
                    self.slot_of[dst.0 as usize] = slot;
                }
                Inst::Mov { dst, .. }
                | Inst::Bin { dst, .. }
                | Inst::LoadFrame { dst, .. }
                | Inst::FrameAddr { dst, .. }
                | Inst::GlobalAddr { dst, .. }
                | Inst::SymAddr { dst, .. }
                | Inst::FuncAddr { dst, .. } => self.kill_reg(*dst),
                Inst::Store { .. } | Inst::StoreFrame { .. } => self.clobber_mem(),
                Inst::GuardWrite { base, off, len } => {
                    if let Operand::Imm(l) = len {
                        if *l > 0 {
                            let lo = i128::from(*off);
                            self.add_write_fact(*base, lo, lo + i128::from(*l));
                        }
                    }
                }
                Inst::GuardIndCall {
                    slot_base,
                    slot_off,
                    sig,
                } => {
                    let fact = CheckedSlot {
                        slot: Slot {
                            base: *slot_base,
                            off: *slot_off,
                        },
                        sig: *sig,
                    };
                    if !self.checked_slots.contains(&fact) {
                        self.checked_slots.push(fact);
                    }
                }
                Inst::CallLocal { .. } | Inst::CallExtern { .. } | Inst::CallPtr { .. } => {
                    self.call_effect()
                }
                Inst::Jmp { .. }
                | Inst::Br { .. }
                | Inst::Ret { .. }
                | Inst::Trap { .. }
                | Inst::Nop => {}
            }
        }
    }

    // ------------------------------------------------------ CFG skeleton

    /// Basic-block partition of a flat instruction vector: sorted leader
    /// indices. A leader is index 0, any jump target, and any instruction
    /// following a `Jmp`/`Br`/`Ret`/`Trap`. Shared with the rewriter's
    /// hoisting pass so both sides agree on the CFG.
    pub fn block_starts(insts: &[Inst]) -> Vec<usize> {
        let mut leader = vec![false; insts.len()];
        if !insts.is_empty() {
            leader[0] = true;
        }
        for (i, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.jump_target() {
                leader[t] = true;
            }
            let splits = inst.jump_target().is_some() || inst.is_terminator();
            if splits && i + 1 < insts.len() {
                leader[i + 1] = true;
            }
        }
        (0..insts.len()).filter(|&i| leader[i]).collect()
    }

    /// Successor *block indices* of the block `b` in the partition
    /// `starts` (with `starts[b]..end` spanning the block).
    pub fn block_succs(insts: &[Inst], starts: &[usize], b: usize) -> Vec<usize> {
        let end = if b + 1 < starts.len() {
            starts[b + 1]
        } else {
            insts.len()
        };
        let last = &insts[end - 1];
        let block_of = |i: usize| starts.partition_point(|&s| s <= i) - 1;
        let mut out = Vec::new();
        if let Some(t) = last.jump_target() {
            out.push(block_of(t));
        }
        if !last.is_terminator() && end < insts.len() {
            out.push(block_of(end));
        }
        out
    }

    // ------------------------------------------------------- verification

    /// Proves the guard-soundness invariant for one function. `errs` grows
    /// by one entry per unprovable store / indirect call.
    fn verify_function(
        f: &Function,
        policy: SoundnessPolicy,
        errs: &mut Vec<VerifyError>,
    ) -> SoundnessReport {
        let mut report = SoundnessReport {
            funcs: 1,
            ..Default::default()
        };
        let fail = |inst, msg: String| VerifyError {
            func: f.name.clone(),
            inst: Some(inst),
            msg,
        };

        let starts = block_starts(&f.insts);
        let nblocks = starts.len();
        let block_end = |b: usize| {
            if b + 1 < nblocks {
                starts[b + 1]
            } else {
                f.insts.len()
            }
        };

        // Fixpoint: in-state per block; `None` = not yet reached (top).
        let mut in_state: Vec<Option<AbsState>> = vec![None; nblocks];
        if nblocks > 0 {
            in_state[0] = Some(AbsState::empty());
        }
        let mut work: Vec<usize> = if nblocks > 0 { vec![0] } else { vec![] };
        while let Some(b) = work.pop() {
            let mut st = in_state[b].clone().expect("queued block has a state");
            for inst in &f.insts[starts[b]..block_end(b)] {
                st.transfer(inst);
            }
            for s in block_succs(&f.insts, &starts, b) {
                let merged = match &in_state[s] {
                    None => st.clone(),
                    Some(old) => old.meet(&st),
                };
                if in_state[s].as_ref() != Some(&merged) {
                    in_state[s] = Some(merged);
                    work.push(s);
                }
            }
        }

        // Checking pass over reachable blocks with their fixpoint in-state.
        for b in 0..nblocks {
            let Some(mut st) = in_state[b].clone() else {
                report.unreachable_blocks += 1;
                continue;
            };
            report.blocks_checked += 1;
            for i in starts[b]..block_end(b) {
                let inst = &f.insts[i];
                match inst {
                    Inst::Store {
                        base, off, width, ..
                    } if policy.require_store_guards => {
                        let lo = i128::from(*off);
                        let hi = lo + i128::from(width.bytes());
                        if st.covers(*base, lo, hi) {
                            report.stores_proven += 1;
                        } else {
                            errs.push(fail(
                                i,
                                format!(
                                    "store [{base}+{off}] width {} not dominated by a \
                                     matching GuardWrite",
                                    width.bytes()
                                ),
                            ));
                        }
                    }
                    Inst::StoreFrame { off, width, .. } if policy.require_store_guards => {
                        // §8.3 elision: the static bounds check *is* the
                        // guard. verify_program enforces this too; proving
                        // it here keeps the soundness argument self-contained.
                        if u64::from(*off) + width.bytes() <= u64::from(f.frame_size) {
                            report.frame_stores_proven += 1;
                        } else {
                            errs.push(fail(
                                i,
                                format!(
                                    "unguarded frame store [sp+{off}] width {} exceeds \
                                     frame size {}",
                                    width.bytes(),
                                    f.frame_size
                                ),
                            ));
                        }
                    }
                    Inst::CallPtr { ptr, sig, .. } if policy.require_indcall_guards => {
                        let proven = match ptr {
                            Operand::Reg(p) => st.slot_of[p.0 as usize].is_some_and(|slot| {
                                st.checked_slots.contains(&CheckedSlot { slot, sig: *sig })
                            }),
                            Operand::Imm(_) => false,
                        };
                        if proven {
                            report.indcalls_proven += 1;
                        } else {
                            errs.push(fail(
                                i,
                                format!(
                                    "indirect call through {ptr} not dominated by a \
                                     GuardIndCall on its slot for sig {}",
                                    sig.0
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
                st.transfer(inst);
            }
        }
        report
    }

    /// Proves the guard-soundness invariant for a whole (rewritten)
    /// program under `policy`.
    ///
    /// Runs `verify_program`'s structural checks first — the dataflow
    /// pass assumes well-formed jump targets and register indices — then
    /// the per-function must-analysis. Returns every violation found.
    pub fn verify_soundness(
        p: &Program,
        policy: SoundnessPolicy,
    ) -> Result<SoundnessReport, Vec<VerifyError>> {
        verify_program(p)?;
        let mut report = SoundnessReport::default();
        let mut errs = Vec::new();
        for f in &p.funcs {
            absorb(&mut report, &verify_function(f, policy, &mut errs));
        }
        if errs.is_empty() {
            Ok(report)
        } else {
            Err(errs)
        }
    }
}

const POLICIES: [fn() -> SoundnessPolicy; 3] = [
    SoundnessPolicy::module,
    SoundnessPolicy::kernel_thunks,
    SoundnessPolicy::full,
];

type Verdict = Result<SoundnessReport, Vec<VerifyError>>;

/// Both proofs' verdicts on `p` under every policy.
fn verdicts(p: &Program) -> Vec<(Verdict, Verdict)> {
    POLICIES
        .iter()
        .map(|pol| {
            let pol = pol();
            (
                verify_soundness(p, pol),
                reference::verify_soundness(p, pol),
            )
        })
        .collect()
}

/// Asserts the two proofs agree on `p` under every policy; returns how
/// many of the three verdicts were rejections.
fn assert_agree(what: &str, p: &Program) -> usize {
    let mut rejected = 0;
    for (pol, (new, old)) in POLICIES.iter().zip(verdicts(p)) {
        assert_eq!(new, old, "{what} under {:?}", pol());
        rejected += usize::from(new.is_err());
    }
    rejected
}

const ALL_OPTIONS: [RewriteOptions; 4] = [
    RewriteOptions {
        merge_write_guards: false,
        hoist_loop_guards: false,
    },
    RewriteOptions {
        merge_write_guards: true,
        hoist_loop_guards: false,
    },
    RewriteOptions {
        merge_write_guards: false,
        hoist_loop_guards: true,
    },
    RewriteOptions {
        merge_write_guards: true,
        hoist_loop_guards: true,
    },
];

#[test]
fn shipped_module_rewrites_agree() {
    let specs = lxfi_modules::all_specs();
    assert_eq!(specs.len(), 10);
    for spec in &specs {
        assert_agree(&spec.name, &spec.program);
        for opts in ALL_OPTIONS {
            let rw = rewrite_module(&spec.program, opts);
            assert_agree(&format!("{} {opts:?}", spec.name), &rw.program);
            assert!(
                verify_soundness(&rw.program, SoundnessPolicy::module()).is_ok(),
                "{} rewrite proves",
                spec.name
            );
        }
    }
}

#[test]
fn kernel_thunks_agree() {
    let thunks = lxfi_kernel::net::kernel_thunks();
    let rep = rewrite_kernel_thunks(&thunks);
    assert_agree("kernel thunks", &thunks);
    assert_agree("rewritten kernel thunks", &rep.program);
    let r = verify_soundness(&rep.program, SoundnessPolicy::kernel_thunks()).unwrap();
    assert!(r.indcalls_proven > 0);
}

#[test]
fn mutation_corpus_agrees() {
    let mut rejected = 0;
    for (name, src) in [
        ("corpus", corpus::corpus_program()),
        ("diamond", corpus::diamond_program()),
    ] {
        for opts in ALL_OPTIONS {
            let rw = rewrite_module(&src, opts);
            assert_agree(name, &rw.program);
            for (what, mutant) in corpus::corpus_mutants(&rw.program) {
                rejected += assert_agree(&format!("{name} {opts:?} {what}"), &mutant);
            }
        }
    }
    assert!(rejected >= 40, "{rejected} rejected verdicts");
}

// --------------------------------------------------- generated CFGs

/// One generated instruction; fields are interpreted per `kind`.
#[derive(Debug, Clone, Copy)]
struct CfgOp {
    kind: u8,
    a: u8,
    b: u8,
    imm: i64,
}

fn arb_cfg_op() -> impl Strategy<Value = CfgOp> {
    (0u8..19, 0u8..4, 0u8..4, -40i64..40).prop_map(|(kind, a, b, imm)| CfgOp { kind, a, b, imm })
}

/// The program-wide pieces generated instructions refer to.
struct Ctx {
    ext: SymbolId,
    leaf: FuncId,
    sigs: [SigId; 2],
}

/// Emits one straight-line instruction (or checked pair) for `op`:
/// write guards (immediate and register length) and stores on a coarse
/// offset grid, so ranges overlap, touch and straddle; 8-byte loads,
/// `GuardIndCall` and `CallPtr` on two slots per base; frame stores;
/// local and extern calls.
fn emit_basic(f: &mut FunctionBuilder, cx: &Ctx, op: CfgOp) {
    let (ra, rb) = (Reg(op.a), Reg(op.b));
    let off = op.imm.rem_euclid(6) * 4 - 4;
    let slot = (op.imm & 1) * 8;
    let sig = cx.sigs[usize::from(op.a ^ op.b) % 2];
    let width = [Width::B4, Width::B8, Width::B8, Width::B1][op.b as usize % 4];
    match op.kind % 12 {
        0 => f.guard_write(ra, off, [4i64, 8, 12][op.b as usize % 3]),
        1 => f.guard_write(ra, off, rb),
        2 | 3 => f.store(op.imm, ra, off, width),
        4 => f.mov(ra, op.imm),
        5 => f.add(ra, rb, op.imm),
        6 => f.load8(ra, rb, slot),
        7 => f.guard_indcall(rb, slot, sig),
        8 => f.call_ptr(ra, sig, &[], None),
        9 => f.store_frame(op.imm, slot as u32, Width::B8),
        10 => {
            if op.imm % 2 == 0 {
                f.call_extern(cx.ext, &[], None);
            } else {
                f.call_local(cx.leaf, &[], Some(ra));
            }
        }
        _ => {
            f.guard_indcall(rb, slot, sig);
            f.call_ptr(ra, sig, &[], None);
        }
    }
}

/// Builds one function from `ops` over four registers: straight-line
/// instructions ([`emit_basic`]), a run of two abutting write guards in
/// either order, a diamond with one generated instruction per arm,
/// forward branches and jumps over the next few ops, and backward
/// branches to any earlier op (every op position carries a bound label).
fn build_cfg(ops: &[CfgOp]) -> Program {
    let mut pb = ProgramBuilder::new("cfg");
    let cx = Ctx {
        ext: pb.import_func("helper"),
        leaf: pb.define("leaf", 0, 0, |f| f.ret_void()),
        sigs: [pb.sig("a", 1), pb.sig("b", 1)],
    };
    pb.define("main", 2, 16, |f| {
        let mut at = Vec::new();
        let mut pending: Vec<(usize, Label)> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            pending.retain(|&(due, l)| {
                if due <= i {
                    f.bind(l);
                }
                due > i
            });
            let here = f.label();
            f.bind(here);
            at.push(here);
            let ra = Reg(op.a);
            // Two more instructions drawn from the op's fields, for the
            // arms of a diamond.
            let arm = |kind: i64, a, b| CfgOp {
                kind: kind.rem_euclid(12) as u8,
                a,
                b,
                imm: op.imm,
            };
            let (then_op, else_op) = (
                arm(op.imm, op.a, op.b),
                arm(i64::from(op.a * 4 + op.b) + op.imm / 12, op.b, op.a),
            );
            match op.kind {
                0..=11 => emit_basic(f, &cx, op),
                12 => {
                    let l = f.label();
                    if op.imm % 5 == 0 {
                        f.jmp(l);
                    } else {
                        f.br(Cond::Lt, ra, op.imm, l);
                    }
                    pending.push((i + 1 + op.imm.unsigned_abs() as usize % 4, l));
                }
                13 => f.br(
                    Cond::Ne,
                    ra,
                    Reg(op.b),
                    at[i - op.imm.unsigned_abs() as usize % (i + 1)],
                ),
                14 => {
                    let (lo, hi) = (op.imm.rem_euclid(4) * 4, op.imm.rem_euclid(4) * 4 + 4);
                    let (first, second) = if op.imm < 0 { (hi, lo) } else { (lo, hi) };
                    f.guard_write(ra, first, 4i64);
                    f.guard_write(ra, second, 4i64);
                }
                15 | 16 => {
                    let (other, join) = (f.label(), f.label());
                    f.br(Cond::Lt, ra, op.imm, other);
                    emit_basic(f, &cx, then_op);
                    f.jmp(join);
                    f.bind(other);
                    emit_basic(f, &cx, else_op);
                    f.bind(join);
                }
                // An indirect call through a loaded slot, its guard and
                // the load separated by one generated instruction; or a
                // diamond whose arms each guard the slot, reload the
                // register from the same or the other slot, or run a
                // generated instruction, with the guard optionally
                // repeated after the join.
                _ => {
                    let (rb, slot) = (Reg(op.b), (op.imm & 1) * 8);
                    let sig = cx.sigs[usize::from(op.a ^ op.b) % 2];
                    f.load8(ra, rb, slot);
                    if op.kind == 17 {
                        emit_basic(f, &cx, then_op);
                        f.guard_indcall(rb, slot, sig);
                    } else {
                        let arm = |f: &mut FunctionBuilder, choice: i64, alt| match choice {
                            0 => f.guard_indcall(rb, slot, sig),
                            1 => emit_basic(f, &cx, alt),
                            2 => f.load8(ra, rb, 8 - slot),
                            _ => f.load8(ra, rb, slot),
                        };
                        let (other, join) = (f.label(), f.label());
                        f.br(Cond::Lt, ra, op.imm, other);
                        arm(f, op.imm.rem_euclid(4), then_op);
                        f.jmp(join);
                        f.bind(other);
                        arm(f, (op.imm / 4).rem_euclid(4), else_op);
                        f.bind(join);
                        if (op.imm / 16) % 2 != 0 {
                            f.guard_indcall(rb, slot, sig);
                        }
                    }
                    f.call_ptr(ra, sig, &[], None);
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

#[test]
fn generated_cfgs_exercise_both_verdicts() {
    // A fixed sample of short and long programs, so a generator change
    // that stops producing either verdict is noticed.
    let mix = |x: u64| {
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let (mut ok, mut rejected) = (0, 0);
    for seed in 0..64u64 {
        let ops: Vec<CfgOp> = (0..2 + seed % 24)
            .map(|i| {
                let x = mix(seed << 8 | i);
                CfgOp {
                    kind: (x % 19) as u8,
                    a: (x >> 8) as u8 % 4,
                    b: (x >> 16) as u8 % 4,
                    imm: (x >> 24) as i64 % 80 - 40,
                }
            })
            .collect();
        let r = assert_agree(&format!("sample {seed}"), &build_cfg(&ops));
        rejected += r;
        ok += 3 - r;
    }
    assert!(ok >= 16 && rejected >= 16, "ok {ok}, rejected {rejected}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Generated CFGs verified directly: identical verdicts and reports.
    #[test]
    fn generated_cfgs_agree(ops in proptest::collection::vec(arb_cfg_op(), 1..48)) {
        let p = build_cfg(&ops);
        for (pol, (new, old)) in POLICIES.iter().zip(verdicts(&p)) {
            prop_assert_eq!(new, old, "{:?}", pol());
        }
    }

    /// The mutation test's generated programs, raw and rewritten.
    #[test]
    fn rewriter_generated_programs_agree(
        ops in proptest::collection::vec(corpus::arb_op(), 1..40),
        merge: bool,
        hoist: bool,
    ) {
        let p = corpus::build_program(&ops);
        let rw = rewrite_module(&p, RewriteOptions {
            merge_write_guards: merge,
            hoist_loop_guards: hoist,
        });
        for prog in [&p, &rw.program] {
            for (pol, (new, old)) in POLICIES.iter().zip(verdicts(prog)) {
                prop_assert_eq!(new, old, "{:?}", pol());
            }
        }
    }
}
