//! Guard-soundness verification: a dataflow proof that rewriter output
//! enforces the LXFI write/ind-call discipline, checked on the *output*
//! program rather than trusted to the rewriter.
//!
//! [`verify_soundness`] runs a forward *must* analysis over each
//! function's control-flow graph and proves, per [`SoundnessPolicy`]:
//!
//! - every reachable [`Inst::Store`] is dominated by an
//!   [`Inst::GuardWrite`] with the *same base operand* whose span covers
//!   the stored bytes, with no redefinition of the base register and no
//!   call (capability revocation point) in between;
//! - every reachable [`Inst::CallPtr`] is dominated by an
//!   [`Inst::GuardIndCall`] on the very slot the pointer was loaded
//!   from, with the call-site signature, and no intervening store, call,
//!   or slot-base redefinition;
//! - every frame-relative access is statically in bounds, re-validating
//!   the §8.3 guard-elision rule (frame stores carry no dynamic guard,
//!   so their bounds proof *is* their guard).
//!
//! What this deliberately does **not** prove: that the runtime WRITE /
//! CALL tables contain the right capabilities when a guard fires. Guards
//! are dynamic checks against tables maintained by the trusted kernel
//! API wrappers; this pass proves the checks cannot be bypassed, not
//! that the tables are correct. See `docs/soundness.md` for the full
//! argument.

use crate::isa::{Inst, Operand, Reg, Width, NUM_REGS};
use crate::program::{Function, Program, SigId};
use crate::verify::{verify_program, VerifyError};

// ------------------------------------------------------------- policy

/// Which guard obligations [`verify_soundness`] enforces.
///
/// The two halves of the dynamic-enforcement split need different
/// proofs: module code has every `CallPtr` checked *dynamically* by the
/// kernel's `call_ptr` environment hook (writer set + annotation hash),
/// so only stores need static guards; kernel thunks run trusted and
/// unchecked, so their inserted `GuardIndCall` is the only protection
/// for the function pointers they dereference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoundnessPolicy {
    /// Require every reachable `Store` to be guard-dominated.
    pub require_store_guards: bool,
    /// Require every reachable `CallPtr` to be guard-dominated.
    pub require_indcall_guards: bool,
}

impl SoundnessPolicy {
    /// Policy for rewritten module code: stores must be guarded;
    /// indirect calls are exempt because the kernel checks them
    /// dynamically on every `call_ptr` dispatch under LXFI.
    pub fn module() -> Self {
        SoundnessPolicy {
            require_store_guards: true,
            require_indcall_guards: false,
        }
    }

    /// Policy for rewritten kernel thunks: indirect calls must be
    /// guard-dominated (thunks run trusted, nothing checks them later);
    /// stores are exempt because kernel code writes with full authority.
    pub fn kernel_thunks() -> Self {
        SoundnessPolicy {
            require_store_guards: false,
            require_indcall_guards: true,
        }
    }

    /// Both obligations at once (useful for tests and tooling).
    pub fn full() -> Self {
        SoundnessPolicy {
            require_store_guards: true,
            require_indcall_guards: true,
        }
    }
}

// ------------------------------------------------------------- report

/// Statistics from a successful soundness proof.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoundnessReport {
    /// Functions analysed.
    pub funcs: usize,
    /// Basic blocks visited by the fixpoint (reachable blocks).
    pub blocks_checked: usize,
    /// Basic blocks never reached from any function entry (dead code —
    /// exempt from guard obligations, like the paper's verifier).
    pub unreachable_blocks: usize,
    /// `Store` instructions proven guard-dominated.
    pub stores_proven: u64,
    /// Frame-relative stores proven statically in bounds (§8.3 elision).
    pub frame_stores_proven: u64,
    /// `CallPtr` instructions proven guard-dominated.
    pub indcalls_proven: u64,
}

impl SoundnessReport {
    fn absorb(&mut self, o: &SoundnessReport) {
        self.funcs += o.funcs;
        self.blocks_checked += o.blocks_checked;
        self.unreachable_blocks += o.unreachable_blocks;
        self.stores_proven += o.stores_proven;
        self.frame_stores_proven += o.frame_stores_proven;
        self.indcalls_proven += o.indcalls_proven;
    }
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
#[derive(Debug)]
struct AbsState {
    /// Disjoint, coalesced proven-writable intervals, sorted by
    /// `(base, lo)`.
    write_facts: Vec<WriteFact>,
    /// Per-register provenance: where bit `r` of `slot_valid` is set,
    /// `r` still holds the 8-byte word loaded from slot `slot_of[r]`.
    slot_of: [Slot; NUM_REGS],
    slot_valid: u16,
    /// Slots whose `GuardIndCall` check is still valid here.
    checked_slots: Vec<CheckedSlot>,
}

const _: () = assert!(NUM_REGS <= 16, "slot_valid is a u16 mask");

/// Total order on operands so fact lists can stay sorted/deduped.
fn op_key(op: Operand) -> (u8, i64) {
    match op {
        Operand::Reg(r) => (0, i64::from(r.0)),
        Operand::Imm(v) => (1, v),
    }
}

/// The registers set in `mask`, lowest first.
fn regs_in(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let r = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (r < 16).then_some(r)
    })
}

impl Default for AbsState {
    fn default() -> Self {
        let nowhere = Slot {
            base: Operand::Imm(0),
            off: 0,
        };
        AbsState {
            write_facts: Vec::new(),
            slot_of: [nowhere; NUM_REGS],
            slot_valid: 0,
            checked_slots: Vec::new(),
        }
    }
}

impl AbsState {
    /// Makes `self` a copy of `src`, reusing `self`'s fact buffers.
    fn assign(&mut self, src: &AbsState) {
        self.write_facts.clone_from(&src.write_facts);
        self.slot_of = src.slot_of;
        self.slot_valid = src.slot_valid;
        self.checked_slots.clone_from(&src.checked_slots);
    }

    /// Adds `[base+lo, base+hi)` and coalesces overlapping or adjacent
    /// same-base intervals, so union coverage is simple containment.
    /// Same-base facts are disjoint and sorted, so the absorbed run
    /// starts at the first one reaching `lo`, and only its last fact can
    /// extend past `hi`; the merged fact replaces the run in place.
    fn add_write_fact(&mut self, base: Operand, lo: i128, hi: i128) {
        let facts = &mut self.write_facts;
        let start = facts.partition_point(|f| (op_key(f.base), f.hi) < (op_key(base), lo));
        let run = facts[start..]
            .iter()
            .take_while(|f| f.base == base && f.lo <= hi);
        let end = start + run.clone().count();
        let (lo, hi) = run.fold((lo, hi), |(l, h), f| (l.min(f.lo), h.max(f.hi)));
        facts.splice(start..end, [WriteFact { base, lo, hi }]);
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
        self.slot_valid &= !(1 << r.0);
        for i in regs_in(self.slot_valid) {
            if self.slot_of[i].base == dead {
                self.slot_valid &= !(1 << i);
            }
        }
        self.checked_slots.retain(|c| c.slot.base != dead);
    }

    /// A store may overwrite any function-pointer slot, so all slot
    /// content and checked-slot facts die. Write capabilities are table
    /// state, not memory state — those facts survive.
    fn clobber_mem(&mut self) {
        self.slot_valid = 0;
        self.checked_slots.clear();
    }

    /// A call can revoke write capabilities (the callee runs trusted
    /// kernel code), write memory, and clobber the return register:
    /// every fact dies.
    fn call_effect(&mut self) {
        self.write_facts.clear();
        self.clobber_mem();
    }

    /// Must-analysis meet, in place: keeps only facts valid on *both*
    /// paths and reports whether `self` lost any.
    fn meet(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        if self.write_facts != other.write_facts {
            // Intersect the two sorted, coalesced interval lists: the
            // pieces, appended after `self`'s own, come out sorted and
            // coalesced; then they replace them.
            let n = self.write_facts.len();
            let facts = &mut self.write_facts;
            let (mut i, mut j) = (0, 0);
            while i < n && j < other.write_facts.len() {
                let (x, y) = (facts[i], other.write_facts[j]);
                let (lo, hi) = (x.lo.max(y.lo), x.hi.min(y.hi));
                if x.base == y.base && lo < hi {
                    facts.push(WriteFact { lo, hi, ..x });
                }
                // Advance past whichever ends first in (base, hi) order.
                if (op_key(x.base), x.hi) < (op_key(y.base), y.hi) {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            changed = facts[n..] != facts[..n];
            facts.drain(..n);
        }
        let mut keep = self.slot_valid & other.slot_valid;
        for i in regs_in(keep) {
            if self.slot_of[i] != other.slot_of[i] {
                keep &= !(1 << i);
            }
        }
        changed |= keep != self.slot_valid;
        self.slot_valid = keep;
        let n = self.checked_slots.len();
        self.checked_slots
            .retain(|c| other.checked_slots.contains(c));
        changed | (self.checked_slots.len() != n)
    }

    /// Applies one instruction's transfer function.
    fn transfer(&mut self, inst: &Inst) {
        match inst {
            Inst::Load {
                dst,
                base,
                off,
                width,
            } => {
                self.kill_reg(*dst);
                // A load whose base is its own destination redefines
                // the base, so the symbolic slot name would dangle.
                if *width == Width::B8 && *base != Operand::Reg(*dst) {
                    self.slot_of[dst.0 as usize] = Slot {
                        base: *base,
                        off: *off,
                    };
                    self.slot_valid |= 1 << dst.0;
                }
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
    let mut starts = Vec::new();
    fill_block_starts(insts, &mut starts);
    starts
}

/// [`block_starts`] into a reused buffer.
fn fill_block_starts(insts: &[Inst], starts: &mut Vec<usize>) {
    starts.clear();
    if !insts.is_empty() {
        starts.push(0);
    }
    for (i, inst) in insts.iter().enumerate() {
        starts.extend(inst.jump_target());
        let splits = inst.jump_target().is_some() || inst.is_terminator();
        if splits && i + 1 < insts.len() {
            starts.push(i + 1);
        }
    }
    starts.sort_unstable();
    starts.dedup();
}

/// Successor *block indices* of the block `b` in the partition
/// `starts` (with `starts[b]..end` spanning the block).
pub fn block_succs(insts: &[Inst], starts: &[usize], b: usize) -> Vec<usize> {
    succ_pair(insts, starts, b).into_iter().flatten().collect()
}

/// [`block_succs`] without the allocation: the jump target's block,
/// then the fall-through block.
fn succ_pair(insts: &[Inst], starts: &[usize], b: usize) -> [Option<usize>; 2] {
    let end = starts.get(b + 1).copied().unwrap_or(insts.len());
    let last = &insts[end - 1];
    let block_of = |i: usize| starts.partition_point(|&s| s <= i) - 1;
    [
        last.jump_target().map(block_of),
        (!last.is_terminator() && end < insts.len()).then(|| block_of(end)),
    ]
}

// ------------------------------------------------------- verification

/// The proof's buffers: the current function's CFG skeleton and
/// fixpoint states. Each thread keeps one and reuses it across
/// functions and proofs, so a proof of a program of familiar size
/// allocates nothing.
#[derive(Default)]
struct Solver {
    starts: Vec<usize>,
    succs: Vec<[Option<usize>; 2]>,
    /// In-state per block; meaningful only where `reached` is set
    /// (an unreached block's state is top).
    in_state: Vec<AbsState>,
    reached: Vec<bool>,
    work: Vec<usize>,
    /// The state being pushed through a block.
    st: AbsState,
}

thread_local! {
    static SOLVER: std::cell::RefCell<Solver> = std::cell::RefCell::default();
}

/// Proves the guard-soundness invariant for one function. `errs` grows
/// by one entry per unprovable store / indirect call.
fn verify_function(
    f: &Function,
    policy: SoundnessPolicy,
    errs: &mut Vec<VerifyError>,
    sv: &mut Solver,
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

    fill_block_starts(&f.insts, &mut sv.starts);
    let starts = &sv.starts;
    let nblocks = starts.len();
    let block = |b: usize| {
        let end = starts.get(b + 1).copied().unwrap_or(f.insts.len());
        &f.insts[starts[b]..end]
    };
    sv.succs.clear();
    sv.succs
        .extend((0..nblocks).map(|b| succ_pair(&f.insts, starts, b)));

    // Fixpoint: a block is re-queued whenever its in-state shrinks.
    // `verify_program` rejected empty functions, so block 0 exists.
    if sv.in_state.len() < nblocks {
        sv.in_state.resize_with(nblocks, AbsState::default);
    }
    sv.reached.clear();
    sv.reached.resize(nblocks, false);
    sv.reached[0] = true;
    sv.in_state[0].call_effect();
    sv.work.clear();
    sv.work.push(0);
    while let Some(b) = sv.work.pop() {
        sv.st.assign(&sv.in_state[b]);
        for inst in block(b) {
            sv.st.transfer(inst);
        }
        for s in sv.succs[b].into_iter().flatten() {
            let changed = if sv.reached[s] {
                sv.in_state[s].meet(&sv.st)
            } else {
                sv.reached[s] = true;
                sv.in_state[s].assign(&sv.st);
                true
            };
            if changed && !sv.work.contains(&s) {
                sv.work.push(s);
            }
        }
    }

    // Checking pass over reachable blocks with their fixpoint in-state.
    for (b, &start) in starts.iter().enumerate() {
        if !sv.reached[b] {
            report.unreachable_blocks += 1;
            continue;
        }
        report.blocks_checked += 1;
        let st = &mut sv.st;
        st.assign(&sv.in_state[b]);
        for (i, inst) in (start..).zip(block(b)) {
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
                        Operand::Reg(p) => {
                            let slot = st.slot_of[p.0 as usize];
                            st.slot_valid & (1 << p.0) != 0
                                && st.checked_slots.contains(&CheckedSlot { slot, sig: *sig })
                        }
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
/// Runs [`verify_program`]'s structural checks first — the dataflow
/// pass assumes well-formed jump targets and register indices — then
/// the per-function must-analysis. Returns every violation found.
pub fn verify_soundness(
    p: &Program,
    policy: SoundnessPolicy,
) -> Result<SoundnessReport, Vec<VerifyError>> {
    verify_program(p)?;
    let mut report = SoundnessReport::default();
    let mut errs = Vec::new();
    SOLVER.with_borrow_mut(|sv| {
        for f in &p.funcs {
            report.absorb(&verify_function(f, policy, &mut errs, sv));
        }
    });
    if errs.is_empty() {
        Ok(report)
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::regs::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{BinOp, Cond};

    fn prog(build: impl FnOnce(&mut crate::builder::FunctionBuilder)) -> Program {
        let mut pb = ProgramBuilder::new("t");
        pb.define("f", 1, 16, build);
        pb.finish()
    }

    fn assert_rejects(p: &Program, policy: SoundnessPolicy, needle: &str) {
        let errs = verify_soundness(p, policy).unwrap_err();
        assert!(
            errs.iter().any(|e| e.msg.contains(needle)),
            "expected a `{needle}` error, got {errs:?}"
        );
    }

    #[test]
    fn accepts_guarded_store() {
        let p = prog(|f| {
            f.guard_write(R1, 0, 8i64);
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        let r = verify_soundness(&p, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.stores_proven, 1);
    }

    #[test]
    fn accepts_merged_guard_covering_a_run_of_stores() {
        let p = prog(|f| {
            f.guard_write(R1, 0, 16i64);
            f.store8(R0, R1, 0);
            f.store8(R0, R1, 8);
            f.ret_void();
        });
        let r = verify_soundness(&p, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.stores_proven, 2);
    }

    #[test]
    fn rejects_unguarded_store() {
        let p = prog(|f| {
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn rejects_guard_with_wrong_base() {
        let p = prog(|f| {
            f.guard_write(R2, 0, 8i64);
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn rejects_guard_with_short_span() {
        let p = prog(|f| {
            f.guard_write(R1, 0, 4i64); // covers [0,4) but the store writes [0,8)
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn rejects_guard_after_store() {
        let p = prog(|f| {
            f.store8(R0, R1, 0);
            f.guard_write(R1, 0, 8i64);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn rejects_base_redefined_between_guard_and_store() {
        let p = prog(|f| {
            f.guard_write(R1, 0, 8i64);
            f.add(R1, R1, 8i64);
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn rejects_guard_killed_by_intervening_call() {
        let mut pb = ProgramBuilder::new("t");
        let ext = pb.import_func("helper");
        pb.define("f", 1, 0, |f| {
            f.guard_write(R1, 0, 8i64);
            f.call_extern(ext, &[], None); // may revoke the WRITE capability
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&pb.finish(), SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn diamond_requires_guard_on_both_arms() {
        let one_arm = prog(|f| {
            let other = f.label();
            let join = f.label();
            f.br(Cond::Eq, R0, 0i64, other);
            f.guard_write(R1, 0, 8i64);
            f.jmp(join);
            f.bind(other);
            f.nop();
            f.bind(join);
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&one_arm, SoundnessPolicy::module(), "not dominated");

        let both_arms = prog(|f| {
            let other = f.label();
            let join = f.label();
            f.br(Cond::Eq, R0, 0i64, other);
            f.guard_write(R1, 0, 8i64);
            f.jmp(join);
            f.bind(other);
            f.guard_write(R1, 0, 16i64);
            f.bind(join);
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        let r = verify_soundness(&both_arms, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.stores_proven, 1);
    }

    #[test]
    fn accepts_loop_hoisted_guard() {
        // guard at the loop header's preheader position, store in the
        // body, base invariant: the shape the hoisting pass produces.
        let p = prog(|f| {
            let top = f.label();
            let done = f.label();
            f.mov(R2, 0i64);
            f.br(Cond::Eq, R0, 0i64, done);
            f.guard_write(R1, 0, 8i64);
            f.bind(top);
            f.store8(R2, R1, 0);
            f.add(R2, R2, 1i64);
            f.br(Cond::Lt, R2, R0, top);
            f.bind(done);
            f.ret_void();
        });
        let r = verify_soundness(&p, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.stores_proven, 1);
    }

    #[test]
    fn loop_guard_does_not_leak_to_unguarded_entry_path() {
        // The backedge carries the fact but the entry path does not:
        // the meet at the header must drop it.
        let p = prog(|f| {
            let top = f.label();
            f.mov(R2, 0i64);
            f.bind(top);
            f.store8(R2, R1, 0); // first iteration runs unguarded
            f.guard_write(R1, 0, 8i64);
            f.add(R2, R2, 1i64);
            f.br(Cond::Lt, R2, R0, top);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn dead_code_is_exempt() {
        let p = prog(|f| {
            f.ret_void();
            f.store8(R0, R1, 0); // unreachable
            f.ret_void();
        });
        let r = verify_soundness(&p, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.stores_proven, 0);
        assert!(r.unreachable_blocks > 0);
    }

    #[test]
    fn frame_store_elision_is_validated() {
        let ok = prog(|f| {
            f.store_frame(1i64, 8, Width::B8);
            f.ret_void();
        });
        let r = verify_soundness(&ok, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.frame_stores_proven, 1);

        // Out-of-bounds frame stores are caught by the structural pass
        // before the dataflow even runs.
        let bad = prog(|f| {
            f.store_frame(1i64, 12, Width::B8); // bytes 12..20 > frame 16
            f.ret_void();
        });
        assert_rejects(&bad, SoundnessPolicy::module(), "frame");
    }

    #[test]
    fn kernel_thunk_indcall_shape_verifies() {
        let mut pb = ProgramBuilder::new("t");
        let sig = pb.sig("ndo", 2);
        pb.define("thunk", 1, 0, |f| {
            f.load8(R2, R0, 16);
            f.load8(R3, R2, 8);
            f.guard_indcall(R2, 8, sig);
            f.call_ptr(R3, sig, &[R0.into()], None);
            f.ret_void();
        });
        let r = verify_soundness(&pb.finish(), SoundnessPolicy::kernel_thunks()).unwrap();
        assert_eq!(r.indcalls_proven, 1);
    }

    #[test]
    fn rejects_unguarded_indcall() {
        let mut pb = ProgramBuilder::new("t");
        let sig = pb.sig("ndo", 2);
        pb.define("thunk", 1, 0, |f| {
            f.load8(R3, R0, 8);
            f.call_ptr(R3, sig, &[], None);
            f.ret_void();
        });
        assert_rejects(
            &pb.finish(),
            SoundnessPolicy::kernel_thunks(),
            "indirect call",
        );
    }

    #[test]
    fn rejects_indcall_with_wrong_sig_guard() {
        let mut pb = ProgramBuilder::new("t");
        let sig_a = pb.sig("a", 1);
        let sig_b = pb.sig("b", 1);
        pb.define("thunk", 1, 0, |f| {
            f.load8(R3, R0, 8);
            f.guard_indcall(R0, 8, sig_a);
            f.call_ptr(R3, sig_b, &[], None);
            f.ret_void();
        });
        assert_rejects(
            &pb.finish(),
            SoundnessPolicy::kernel_thunks(),
            "indirect call",
        );
    }

    #[test]
    fn rejects_indcall_after_intervening_store() {
        // A store between the check and the call could swap the slot's
        // contents (TOCTOU); the loaded value then bypasses the check...
        // except the register still holds the *checked* word, so the
        // strict domain simply refuses to reason and rejects.
        let mut pb = ProgramBuilder::new("t");
        let sig = pb.sig("ndo", 2);
        pb.define("thunk", 1, 0, |f| {
            f.guard_indcall(R0, 8, sig);
            f.store8(R1, R0, 8); // clobbers the checked slot
            f.load8(R3, R0, 8);
            f.call_ptr(R3, sig, &[], None);
            f.ret_void();
        });
        assert_rejects(
            &pb.finish(),
            SoundnessPolicy::kernel_thunks(),
            "indirect call",
        );
    }

    #[test]
    fn policies_scope_their_obligations() {
        // Module policy ignores CallPtr (dynamically checked)...
        let mut pb = ProgramBuilder::new("t");
        let sig = pb.sig("cb", 1);
        pb.define("f", 1, 0, |f| {
            f.load8(R3, R0, 0);
            f.call_ptr(R3, sig, &[], None);
            f.ret_void();
        });
        assert!(verify_soundness(&pb.finish(), SoundnessPolicy::module()).is_ok());

        // ...and the thunk policy ignores stores (kernel authority).
        let p = prog(|f| {
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert!(verify_soundness(&p, SoundnessPolicy::kernel_thunks()).is_ok());
        // But the full policy enforces both.
        assert!(verify_soundness(&p, SoundnessPolicy::full()).is_err());
    }

    #[test]
    fn guard_with_register_length_proves_nothing() {
        let p = prog(|f| {
            f.guard_write(R1, 0, R2);
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }

    #[test]
    fn load_into_own_base_drops_slot_provenance() {
        let mut pb = ProgramBuilder::new("t");
        let sig = pb.sig("cb", 1);
        pb.define("thunk", 1, 0, |f| {
            f.guard_indcall(R2, 8, sig);
            f.mov(R2, R0);
            f.load8(R2, R2, 8); // r2 = mem[r2+8]: base dies with the load
            f.call_ptr(R2, sig, &[], None);
            f.ret_void();
        });
        assert_rejects(
            &pb.finish(),
            SoundnessPolicy::kernel_thunks(),
            "indirect call",
        );
    }

    #[test]
    fn interval_coalescing_covers_adjacent_guards() {
        let p = prog(|f| {
            f.guard_write(R1, 0, 8i64);
            f.guard_write(R1, 8, 8i64);
            f.store(R0, R1, 4, Width::B8); // [4,12) straddles both guards
            f.ret_void();
        });
        let r = verify_soundness(&p, SoundnessPolicy::module()).unwrap();
        assert_eq!(r.stores_proven, 1);
    }

    #[test]
    fn bin_op_redefining_base_kills_fact_even_as_self_add() {
        let p = prog(|f| {
            f.guard_write(R1, 0, 8i64);
            f.bin(BinOp::Add, R1, R1, 0i64); // same value, but the domain is syntactic
            f.store8(R0, R1, 0);
            f.ret_void();
        });
        assert_rejects(&p, SoundnessPolicy::module(), "not dominated");
    }
}
