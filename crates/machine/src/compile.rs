//! The compiled execution backend: direct-threaded basic blocks.
//!
//! The interpreter in [`crate::interp`] decodes operands and charges fuel
//! on every instruction. This module removes both at module load time:
//! [`CompiledProgram::compile`] splits every function into basic blocks
//! and lowers each block to a pre-resolved step list (`BlockBody`)
//! that [`run_compiled`] threads through directly —
//!
//! - operands are resolved to `Src` (register index or immediate, the
//!   `i64 → u64` cast and `off as u64` folded in),
//! - fuel is charged once per block from a precomputed block cost, with
//!   the unearned suffix refunded (`Env::refund`) whenever the block
//!   exits early, so fuel accounting is cycle-identical to the
//!   interpreter — including the fuel level an extern call observes,
//! - the rewriter's `GuardWrite`+`Store` and `GuardIndCall`+`CallPtr`
//!   pairs are fused into single steps,
//! - loads and stores go through a small set-associative software TLB
//!   of [`crate::mem::PageHandle`]s (2 sets × 2 ways, set chosen by the
//!   page number's low bit) instead of the 4-level radix walk, so a
//!   copy loop alternating between a source page and a device page hits
//!   on both.
//!
//! Blocks are plain data, not boxed closures, and every execution entry
//! point is generic over the environment (`E: Env + ?Sized`) exactly
//! like the interpreter: for a concrete kernel environment the whole
//! backend monomorphizes, so `consume`, the guards, and the memory miss
//! path all inline instead of going through vtable dispatch. An earlier
//! `Box<dyn Fn>`-per-block design lost more to that dispatch than block
//! compilation bought back.
//!
//! The interpreter stays the oracle: `tests/backend_oracle.rs` runs both
//! backends in lockstep on generated programs and asserts identical
//! results, traps, guard logs, memory, and fuel.
//!
//! [`CompiledProgram::compile`] runs [`verify_program`] first and
//! refuses a program that fails it, so every function it returns is
//! compiled: there is no interpreter fallback, and the unchecked
//! register and block indexing below relies on that check alone.

use std::sync::Arc;

use crate::costs;
use crate::interp::{binop, Env};
use crate::isa::{BinOp, Cond, Inst, Operand, Width, NUM_ARG_REGS, NUM_REGS};
use crate::mem::{PageHandle, PAGE_SIZE};
use crate::program::{FuncId, Function, GlobalId, Program, SigId, SymbolId};
use crate::verify::{verify_program, VerifyError};
use crate::{Trap, Word};

/// Which execution backend a module runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The per-instruction interpreter ([`crate::interp::run_function`]).
    #[default]
    Interp,
    /// Direct-threaded compiled basic blocks ([`run_compiled`]).
    Compiled,
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" => Ok(Backend::Interp),
            "compiled" => Ok(Backend::Compiled),
            other => Err(format!("unknown backend {other:?} (interp|compiled)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Interp => "interp",
            Backend::Compiled => "compiled",
        })
    }
}

/// Counters from one [`CompiledProgram::compile`] run, surfaced through
/// the kernel's statistics tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Functions lowered to block closures.
    pub funcs_compiled: u64,
    /// Basic blocks compiled across all functions.
    pub blocks_compiled: u64,
    /// Rewriter guard sites fused into their guarded operation
    /// (`GuardWrite`+`Store`, `GuardIndCall`+`CallPtr`).
    pub fused_guard_sites: u64,
    /// Always 0: a program that fails [`verify_program`] is refused
    /// whole, so no function falls back to the interpreter. Kept because
    /// benchmark reports still print it.
    pub fallback_funcs: u64,
}

/// A pre-resolved operand: register index or immediate (already cast to
/// the unsigned word the interpreter's `eval` would produce).
#[derive(Clone, Copy)]
enum Src {
    Reg(u8),
    Imm(u64),
}

impl Src {
    fn from_op(op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Reg(r.0),
            Operand::Imm(v) => Src::Imm(v as u64),
        }
    }

    #[inline(always)]
    fn get(self, regs: &[Word; NUM_REGS]) -> Word {
        match self {
            Src::Reg(r) => reg(regs, r),
            Src::Imm(v) => v,
        }
    }
}

#[inline(always)]
fn reg(regs: &[Word; NUM_REGS], i: u8) -> Word {
    debug_assert!((i as usize) < NUM_REGS);
    // SAFETY: `CompiledProgram::compile` only lowers programs that pass
    // `verify_program`, which rejects every register an instruction reads
    // or writes at index >= NUM_REGS, so every index reaching compiled
    // execution is in range.
    unsafe { *regs.get_unchecked(i as usize) }
}

#[inline(always)]
fn set_reg(regs: &mut [Word; NUM_REGS], i: u8, v: Word) {
    debug_assert!((i as usize) < NUM_REGS);
    // SAFETY: as in [`reg`].
    unsafe { *regs.get_unchecked_mut(i as usize) = v }
}

/// One straight-line step of a block. Control transfers live in
/// [`ExitOp`], never here.
enum Step {
    Mov {
        dst: u8,
        src: Src,
    },
    Bin {
        op: BinOp,
        dst: u8,
        lhs: Src,
        rhs: Src,
    },
    Load {
        dst: u8,
        base: Src,
        off: u64,
        width: Width,
    },
    Store {
        src: Src,
        base: Src,
        off: u64,
        width: Width,
    },
    LoadFrame {
        dst: u8,
        off: u64,
        width: Width,
    },
    StoreFrame {
        src: Src,
        off: u64,
        width: Width,
    },
    FrameAddr {
        dst: u8,
        off: u64,
    },
    GlobalAddr {
        dst: u8,
        global: GlobalId,
    },
    SymAddr {
        dst: u8,
        sym: SymbolId,
    },
    FuncAddr {
        dst: u8,
        func: FuncId,
    },
    Nop,
    GuardWrite {
        base: Src,
        off: u64,
        len: Src,
    },
    GuardIndCall {
        slot_base: Src,
        slot_off: u64,
        sig: SigId,
    },
    /// Fused `GuardWrite` + `Store`: the shape the rewriter emits at
    /// every guarded module store.
    GuardedStore {
        gbase: Src,
        goff: u64,
        glen: Src,
        src: Src,
        base: Src,
        off: u64,
        width: Width,
    },
    CallExtern {
        sym: SymbolId,
        args: Box<[Src]>,
        ret: Option<u8>,
    },
    /// Indirect call, optionally fused with the rewriter's preceding
    /// `GuardIndCall` (`guard` = slot base, slot offset, declared sig).
    CallPtr {
        ptr: Src,
        sig: SigId,
        args: Box<[Src]>,
        ret: Option<u8>,
        guard: Option<(Src, u64, SigId)>,
    },
}

/// How a block ends. `target`/`then_b`/`else_b`/`resume` are *block*
/// indices within the same function.
enum ExitOp {
    Jmp {
        target: u32,
    },
    Br {
        cond: Cond,
        lhs: Src,
        rhs: Src,
        then_b: u32,
        else_b: u32,
    },
    Ret {
        val: Option<Src>,
    },
    Trap {
        code: u64,
    },
    CallLocal {
        func: FuncId,
        ret: Option<u8>,
        resume: u32,
        args: Box<[Src]>,
    },
}

/// What the driver loop does after a block finishes.
enum BlockExit {
    /// Continue at this block of the current function.
    Goto(u32),
    /// Pop the current activation with this return value.
    Return(Word),
    /// Push an activation for `func` (arguments staged in
    /// `ExecCtx::scratch`), then resume the caller at block `resume`.
    Call {
        func: FuncId,
        ret: Option<u8>,
        resume: u32,
    },
}

/// Why [`exec_func`] handed control back to the driver: only activation
/// changes surface; `Goto` is threaded internally so intra-function
/// loops never leave the block loop.
enum FuncExit {
    Return(Word),
    Call {
        func: FuncId,
        ret: Option<u8>,
        resume: u32,
    },
}

struct BlockBody {
    steps: Box<[(Step, u64)]>,
    /// Total cost of the block (all step charges + `exit_cost`), consumed
    /// up front on the fast path.
    cost: u64,
    exit: ExitOp,
    exit_cost: u64,
}

struct CompiledFunc {
    blocks: Box<[BlockBody]>,
    frame_size: u32,
}

/// A program lowered for the compiled backend. Compile once at module
/// load; share (`Arc`) across every CPU that dispatches into the module.
pub struct CompiledProgram {
    funcs: Box<[CompiledFunc]>,
    stats: CompileStats,
}

impl CompiledProgram {
    /// Checks `program` with [`verify_program`] and lowers every function
    /// to basic blocks; a program that fails the check is refused with
    /// every problem found.
    pub fn compile(program: Arc<Program>) -> Result<CompiledProgram, Vec<VerifyError>> {
        verify_program(&program)?;
        let mut stats = CompileStats::default();
        let funcs = program
            .funcs
            .iter()
            .map(|f| compile_func(f, &mut stats))
            .collect();
        Ok(CompiledProgram { funcs, stats })
    }

    /// Compilation counters.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }
}

fn compile_func(f: &Function, stats: &mut CompileStats) -> CompiledFunc {
    let insts = &f.insts;
    let n = insts.len();

    // Leaders: entry, every jump target, and the instruction after any
    // control transfer (so `Br` fallthrough and `CallLocal` resume
    // points start blocks).
    let mut leader = vec![false; n];
    leader[0] = true;
    for (i, inst) in insts.iter().enumerate() {
        if let Some(t) = inst.jump_target() {
            leader[t] = true;
        }
        let transfers = matches!(
            inst,
            Inst::Jmp { .. }
                | Inst::Br { .. }
                | Inst::Ret { .. }
                | Inst::Trap { .. }
                | Inst::CallLocal { .. }
        );
        if transfers && i + 1 < n {
            leader[i + 1] = true;
        }
    }
    let mut block_of = vec![u32::MAX; n + 1];
    let mut nblocks = 0u32;
    for i in 0..n {
        if leader[i] {
            block_of[i] = nblocks;
            nblocks += 1;
        }
    }

    let mut blocks = Vec::with_capacity(nblocks as usize);
    let mut s = 0usize;
    while s < n {
        let mut e = s + 1;
        while e < n && !leader[e] {
            e += 1;
        }
        blocks.push(build_block(insts, s, e, &block_of, stats));
        s = e;
    }
    stats.funcs_compiled += 1;
    stats.blocks_compiled += nblocks as u64;
    CompiledFunc {
        blocks: blocks.into_boxed_slice(),
        frame_size: f.frame_size,
    }
}

fn convert_plain(inst: &Inst) -> Step {
    match inst {
        Inst::Mov { dst, src } => Step::Mov {
            dst: dst.0,
            src: Src::from_op(*src),
        },
        Inst::Bin { op, dst, lhs, rhs } => Step::Bin {
            op: *op,
            dst: dst.0,
            lhs: Src::from_op(*lhs),
            rhs: Src::from_op(*rhs),
        },
        Inst::Load {
            dst,
            base,
            off,
            width,
        } => Step::Load {
            dst: dst.0,
            base: Src::from_op(*base),
            off: *off as u64,
            width: *width,
        },
        Inst::Store {
            src,
            base,
            off,
            width,
        } => Step::Store {
            src: Src::from_op(*src),
            base: Src::from_op(*base),
            off: *off as u64,
            width: *width,
        },
        Inst::LoadFrame { dst, off, width } => Step::LoadFrame {
            dst: dst.0,
            off: *off as u64,
            width: *width,
        },
        Inst::StoreFrame { src, off, width } => Step::StoreFrame {
            src: Src::from_op(*src),
            off: *off as u64,
            width: *width,
        },
        Inst::FrameAddr { dst, off } => Step::FrameAddr {
            dst: dst.0,
            off: *off as u64,
        },
        Inst::GlobalAddr { dst, global } => Step::GlobalAddr {
            dst: dst.0,
            global: *global,
        },
        Inst::SymAddr { dst, sym } => Step::SymAddr {
            dst: dst.0,
            sym: *sym,
        },
        Inst::FuncAddr { dst, func } => Step::FuncAddr {
            dst: dst.0,
            func: *func,
        },
        Inst::CallExtern { sym, args, ret } => Step::CallExtern {
            sym: *sym,
            args: args.iter().map(|a| Src::from_op(*a)).collect(),
            ret: ret.map(|r| r.0),
        },
        Inst::CallPtr {
            ptr,
            sig,
            args,
            ret,
        } => Step::CallPtr {
            ptr: Src::from_op(*ptr),
            sig: *sig,
            args: args.iter().map(|a| Src::from_op(*a)).collect(),
            ret: ret.map(|r| r.0),
            guard: None,
        },
        Inst::Nop => Step::Nop,
        Inst::GuardWrite { base, off, len } => Step::GuardWrite {
            base: Src::from_op(*base),
            off: *off as u64,
            len: Src::from_op(*len),
        },
        Inst::GuardIndCall {
            slot_base,
            slot_off,
            sig,
        } => Step::GuardIndCall {
            slot_base: Src::from_op(*slot_base),
            slot_off: *slot_off as u64,
            sig: *sig,
        },
        Inst::Jmp { .. }
        | Inst::Br { .. }
        | Inst::CallLocal { .. }
        | Inst::Ret { .. }
        | Inst::Trap { .. } => unreachable!("control transfers are block exits"),
    }
}

fn build_block(
    insts: &[Inst],
    s: usize,
    e: usize,
    block_of: &[u32],
    stats: &mut CompileStats,
) -> BlockBody {
    let mut steps: Vec<(Step, u64)> = Vec::new();
    let mut exit: Option<(ExitOp, u64)> = None;
    let mut i = s;
    while i < e {
        match &insts[i] {
            Inst::Jmp { target } => {
                exit = Some((
                    ExitOp::Jmp {
                        target: block_of[*target],
                    },
                    costs::BRANCH,
                ));
                break;
            }
            Inst::Br {
                cond,
                lhs,
                rhs,
                target,
            } => {
                // `Br` is never the last instruction (the tail must be a
                // terminator), so `i + 1` exists and is a leader.
                exit = Some((
                    ExitOp::Br {
                        cond: *cond,
                        lhs: Src::from_op(*lhs),
                        rhs: Src::from_op(*rhs),
                        then_b: block_of[*target],
                        else_b: block_of[i + 1],
                    },
                    costs::BRANCH,
                ));
                break;
            }
            Inst::Ret { val } => {
                exit = Some((
                    ExitOp::Ret {
                        val: val.map(Src::from_op),
                    },
                    costs::RET,
                ));
                break;
            }
            Inst::Trap { code } => {
                exit = Some((ExitOp::Trap { code: *code }, costs::ALU));
                break;
            }
            Inst::CallLocal { func, args, ret } => {
                exit = Some((
                    ExitOp::CallLocal {
                        func: *func,
                        args: args.iter().map(|a| Src::from_op(*a)).collect(),
                        ret: ret.map(|r| r.0),
                        resume: block_of[i + 1],
                    },
                    costs::CALL,
                ));
                break;
            }
            Inst::GuardWrite { base, off, len } => {
                if i + 1 < e {
                    if let Inst::Store {
                        src,
                        base: sbase,
                        off: soff,
                        width,
                    } = &insts[i + 1]
                    {
                        steps.push((
                            Step::GuardedStore {
                                gbase: Src::from_op(*base),
                                goff: *off as u64,
                                glen: Src::from_op(*len),
                                src: Src::from_op(*src),
                                base: Src::from_op(*sbase),
                                off: *soff as u64,
                                width: *width,
                            },
                            costs::ALU + costs::MEM,
                        ));
                        stats.fused_guard_sites += 1;
                        i += 2;
                        continue;
                    }
                }
                steps.push((convert_plain(&insts[i]), costs::ALU));
                i += 1;
            }
            Inst::GuardIndCall {
                slot_base,
                slot_off,
                sig,
            } => {
                if i + 1 < e {
                    if let Inst::CallPtr {
                        ptr,
                        sig: csig,
                        args,
                        ret,
                    } = &insts[i + 1]
                    {
                        steps.push((
                            Step::CallPtr {
                                ptr: Src::from_op(*ptr),
                                sig: *csig,
                                args: args.iter().map(|a| Src::from_op(*a)).collect(),
                                ret: ret.map(|r| r.0),
                                guard: Some((Src::from_op(*slot_base), *slot_off as u64, *sig)),
                            },
                            costs::ALU + costs::CALL,
                        ));
                        stats.fused_guard_sites += 1;
                        i += 2;
                        continue;
                    }
                }
                steps.push((convert_plain(&insts[i]), costs::ALU));
                i += 1;
            }
            other => {
                steps.push((convert_plain(other), costs::cost(other)));
                i += 1;
            }
        }
    }
    // Ran to the next leader without a transfer: synthetic fallthrough
    // jump, costing nothing (there is no instruction behind it).
    let (exit, exit_cost) = exit.unwrap_or((
        ExitOp::Jmp {
            target: block_of[e],
        },
        0,
    ));
    let cost = steps.iter().map(|(_, c)| c).sum::<u64>() + exit_cost;
    BlockBody {
        steps: steps.into_boxed_slice(),
        cost,
        exit,
        exit_cost,
    }
}

/// Sets in the software TLB; a page's set is its page number modulo
/// this.
const TLB_SETS: usize = 2;
/// Ways per set. A fill goes to way 0 and demotes the older entries, so
/// the last-filled page of a set is probed first.
const TLB_WAYS: usize = 2;

/// The compiled backend's software TLB: `(page number, handle)` entries
/// in [`TLB_SETS`] sets of [`TLB_WAYS`] ways. Every entry is dropped at
/// each point the environment could unmap (after an extern or indirect
/// call), so the stale-but-valid window
/// documented on [`crate::mem::AddressSpace::page_handle`] is the same
/// as for a single cached page.
struct Tlb {
    sets: [[Option<(u64, PageHandle)>; TLB_WAYS]; TLB_SETS],
}

impl Tlb {
    const EMPTY: Tlb = Tlb {
        sets: [[None; TLB_WAYS]; TLB_SETS],
    };

    #[inline(always)]
    fn lookup(&self, page: u64) -> Option<PageHandle> {
        let set = &self.sets[page as usize % TLB_SETS];
        for &(p, h) in set.iter().flatten() {
            if p == page {
                return Some(h);
            }
        }
        None
    }

    fn fill(&mut self, page: u64, h: PageHandle) {
        let set = &mut self.sets[page as usize % TLB_SETS];
        set.copy_within(..TLB_WAYS - 1, 1);
        set[0] = Some((page, h));
    }

    fn flush(&mut self) {
        *self = Tlb::EMPTY;
    }
}

/// Per-run register/frame state plus the software TLB.
struct ExecCtx {
    regs: [Word; NUM_REGS],
    sp: Word,
    /// Call-argument staging buffer (the compiled twin of the
    /// interpreter's scratch vector — no per-call allocation).
    scratch: Vec<Word>,
    /// Recently touched pages; see [`Tlb`] for the flush discipline.
    tlb: Tlb,
}

impl ExecCtx {
    fn new() -> ExecCtx {
        ExecCtx {
            regs: [0; NUM_REGS],
            sp: 0,
            scratch: Vec::with_capacity(NUM_ARG_REGS),
            tlb: Tlb::EMPTY,
        }
    }

    fn stage(&mut self, args: &[Src]) {
        self.scratch.clear();
        for a in args {
            let v = a.get(&self.regs);
            self.scratch.push(v);
        }
    }
}

/// TLB-first memory read: the hit path touches no `Env` method at all
/// (`env.mem()` is a virtual call — deferring it to the miss path is
/// what lets in-page runs of loads execute without any dynamic
/// dispatch).
#[inline(always)]
fn mem_read<E: Env + ?Sized>(
    ctx: &mut ExecCtx,
    env: &mut E,
    addr: Word,
    width: Width,
) -> Result<Word, Trap> {
    let n = width.bytes() as usize;
    let off = (addr % PAGE_SIZE) as usize;
    if off % 8 + n <= 8 {
        if let Some(h) = ctx.tlb.lookup(addr / PAGE_SIZE) {
            // SAFETY: the handle came from this env's address space,
            // alive for the whole run; see `Tlb` for the flush
            // discipline.
            return Ok(unsafe { h.read_in_word(off, width) });
        }
        return mem_read_miss(ctx, env, addr, width);
    }
    env.mem().read(addr, width)
}

#[cold]
fn mem_read_miss<E: Env + ?Sized>(
    ctx: &mut ExecCtx,
    env: &mut E,
    addr: Word,
    width: Width,
) -> Result<Word, Trap> {
    let h = env.mem().page_handle(addr).ok_or(Trap::MemFault {
        addr,
        len: width.bytes(),
        write: false,
    })?;
    ctx.tlb.fill(addr / PAGE_SIZE, h);
    // SAFETY: freshly minted from a live address space.
    Ok(unsafe { h.read_in_word((addr % PAGE_SIZE) as usize, width) })
}

/// TLB-first memory write; see [`mem_read`].
#[inline(always)]
fn mem_write<E: Env + ?Sized>(
    ctx: &mut ExecCtx,
    env: &mut E,
    addr: Word,
    val: Word,
    width: Width,
) -> Result<(), Trap> {
    let n = width.bytes() as usize;
    let off = (addr % PAGE_SIZE) as usize;
    if off % 8 + n <= 8 {
        if let Some(h) = ctx.tlb.lookup(addr / PAGE_SIZE) {
            // SAFETY: see `mem_read`.
            unsafe { h.write_in_word(off, val, width) };
            return Ok(());
        }
        return mem_write_miss(ctx, env, addr, val, width);
    }
    env.mem().write(addr, val, width)
}

#[cold]
fn mem_write_miss<E: Env + ?Sized>(
    ctx: &mut ExecCtx,
    env: &mut E,
    addr: Word,
    val: Word,
    width: Width,
) -> Result<(), Trap> {
    let h = env.mem().page_handle(addr).ok_or(Trap::MemFault {
        addr,
        len: width.bytes(),
        write: true,
    })?;
    ctx.tlb.fill(addr / PAGE_SIZE, h);
    // SAFETY: see `mem_read_miss`.
    unsafe { h.write_in_word((addr % PAGE_SIZE) as usize, val, width) };
    Ok(())
}

/// Executes one non-reentrant step. Reentrant steps (extern/indirect
/// calls, fused guarded stores) are handled by the block loops, which
/// own the refund protocol around them.
#[inline]
fn exec_step<E: Env + ?Sized>(step: &Step, ctx: &mut ExecCtx, env: &mut E) -> Result<(), Trap> {
    match step {
        Step::Mov { dst, src } => {
            ctx.regs[*dst as usize] = src.get(&ctx.regs);
        }
        Step::Bin { op, dst, lhs, rhs } => {
            let l = lhs.get(&ctx.regs);
            let r = rhs.get(&ctx.regs);
            ctx.regs[*dst as usize] = binop(*op, l, r)?;
        }
        Step::Load {
            dst,
            base,
            off,
            width,
        } => {
            let addr = base.get(&ctx.regs).wrapping_add(*off);
            let v = mem_read(ctx, env, addr, *width)?;
            ctx.regs[*dst as usize] = v;
        }
        Step::Store {
            src,
            base,
            off,
            width,
        } => {
            let addr = base.get(&ctx.regs).wrapping_add(*off);
            let v = src.get(&ctx.regs);
            mem_write(ctx, env, addr, v, *width)?;
        }
        Step::LoadFrame { dst, off, width } => {
            let addr = ctx.sp + *off;
            let v = mem_read(ctx, env, addr, *width)?;
            ctx.regs[*dst as usize] = v;
        }
        Step::StoreFrame { src, off, width } => {
            let addr = ctx.sp + *off;
            let v = src.get(&ctx.regs);
            mem_write(ctx, env, addr, v, *width)?;
        }
        Step::FrameAddr { dst, off } => {
            ctx.regs[*dst as usize] = ctx.sp + *off;
        }
        Step::GlobalAddr { dst, global } => {
            let v = env.global_addr(*global)?;
            ctx.regs[*dst as usize] = v;
        }
        Step::SymAddr { dst, sym } => {
            let v = env.sym_addr(*sym)?;
            ctx.regs[*dst as usize] = v;
        }
        Step::FuncAddr { dst, func } => {
            let v = env.func_addr(*func)?;
            ctx.regs[*dst as usize] = v;
        }
        Step::Nop => {}
        Step::GuardWrite { base, off, len } => {
            let addr = base.get(&ctx.regs).wrapping_add(*off);
            let l = len.get(&ctx.regs);
            env.guard_write(addr, l)?;
        }
        Step::GuardIndCall {
            slot_base,
            slot_off,
            sig,
        } => {
            let slot = slot_base.get(&ctx.regs).wrapping_add(*slot_off);
            env.guard_indcall(slot, *sig)?;
        }
        Step::CallExtern { .. } | Step::CallPtr { .. } | Step::GuardedStore { .. } => {
            unreachable!("reentrant steps handled by the block loop")
        }
    }
    Ok(())
}

#[inline(always)]
fn exec_exit(b: &BlockBody, ctx: &mut ExecCtx) -> Result<BlockExit, Trap> {
    match &b.exit {
        ExitOp::Jmp { target } => Ok(BlockExit::Goto(*target)),
        ExitOp::Br {
            cond,
            lhs,
            rhs,
            then_b,
            else_b,
        } => {
            let l = lhs.get(&ctx.regs);
            let r = rhs.get(&ctx.regs);
            Ok(BlockExit::Goto(if cond.eval(l, r) {
                *then_b
            } else {
                *else_b
            }))
        }
        ExitOp::Ret { val } => Ok(BlockExit::Return(
            val.map(|v| v.get(&ctx.regs)).unwrap_or(0),
        )),
        ExitOp::Trap { code } => Err(Trap::Bug(*code)),
        ExitOp::CallLocal {
            func,
            args,
            ret,
            resume,
        } => {
            ctx.stage(args);
            Ok(BlockExit::Call {
                func: *func,
                ret: *ret,
                resume: *resume,
            })
        }
    }
}

/// Fast path: charge the whole block once, track the unearned remainder
/// in `rest`, and refund it at every early exit so the fuel trace is
/// cycle-identical to the interpreter's consume-per-instruction.
///
/// One flat match per step — the plain arms are duplicated from
/// [`exec_step`] rather than delegated so the common path dispatches
/// once, not twice, and touches no `Env` method (the interpreter this
/// backend must beat is monomorphized into its caller; every virtual
/// call here is a cost it does not pay).
#[inline(always)]
fn exec_block<E: Env + ?Sized>(
    b: &BlockBody,
    ctx: &mut ExecCtx,
    env: &mut E,
) -> Result<BlockExit, Trap> {
    if env.consume(b.cost).is_err() {
        // Not enough for the whole block: charge instruction by
        // instruction so the trap lands exactly where the interpreter's
        // would, with the same partial side effects.
        return exec_block_slow(b, ctx, env, 0);
    }
    let mut rest = b.cost;
    let mut i = 0usize;
    while i < b.steps.len() {
        // SAFETY: `i < b.steps.len()` by the loop condition.
        let (step, charge) = unsafe { b.steps.get_unchecked(i) };
        rest -= charge;
        // Every arm that can fail either diverges after doing its own
        // refund arithmetic (the fused/reentrant steps) or falls through
        // to the common `refund(rest)` at the bottom.
        let r: Result<(), Trap> = match step {
            Step::Mov { dst, src } => {
                let v = src.get(&ctx.regs);
                set_reg(&mut ctx.regs, *dst, v);
                Ok(())
            }
            Step::Bin { op, dst, lhs, rhs } => {
                let l = lhs.get(&ctx.regs);
                let r = rhs.get(&ctx.regs);
                match binop(*op, l, r) {
                    Ok(v) => {
                        set_reg(&mut ctx.regs, *dst, v);
                        Ok(())
                    }
                    Err(t) => Err(t),
                }
            }
            Step::Load {
                dst,
                base,
                off,
                width,
            } => {
                let addr = base.get(&ctx.regs).wrapping_add(*off);
                match mem_read(ctx, env, addr, *width) {
                    Ok(v) => {
                        set_reg(&mut ctx.regs, *dst, v);
                        Ok(())
                    }
                    Err(t) => Err(t),
                }
            }
            Step::Store {
                src,
                base,
                off,
                width,
            } => {
                let addr = base.get(&ctx.regs).wrapping_add(*off);
                let v = src.get(&ctx.regs);
                mem_write(ctx, env, addr, v, *width)
            }
            Step::LoadFrame { dst, off, width } => {
                let addr = ctx.sp + *off;
                match mem_read(ctx, env, addr, *width) {
                    Ok(v) => {
                        set_reg(&mut ctx.regs, *dst, v);
                        Ok(())
                    }
                    Err(t) => Err(t),
                }
            }
            Step::StoreFrame { src, off, width } => {
                let addr = ctx.sp + *off;
                let v = src.get(&ctx.regs);
                mem_write(ctx, env, addr, v, *width)
            }
            Step::FrameAddr { dst, off } => {
                set_reg(&mut ctx.regs, *dst, ctx.sp + *off);
                Ok(())
            }
            Step::GuardedStore {
                gbase,
                goff,
                glen,
                src,
                base,
                off,
                width,
            } => {
                let gaddr = gbase.get(&ctx.regs).wrapping_add(*goff);
                let glen_v = glen.get(&ctx.regs);
                if let Err(t) = env.guard_write(gaddr, glen_v) {
                    // Only the guard's ALU was earned; refund the store's
                    // MEM along with the suffix.
                    env.refund(rest + costs::MEM);
                    return Err(t);
                }
                let addr = base.get(&ctx.regs).wrapping_add(*off);
                let v = src.get(&ctx.regs);
                mem_write(ctx, env, addr, v, *width)
            }
            Step::GuardWrite { base, off, len } => {
                let addr = base.get(&ctx.regs).wrapping_add(*off);
                env.guard_write(addr, len.get(&ctx.regs))
            }
            Step::GuardIndCall {
                slot_base,
                slot_off,
                sig,
            } => {
                let slot = slot_base.get(&ctx.regs).wrapping_add(*slot_off);
                env.guard_indcall(slot, *sig)
            }
            Step::CallExtern { sym, args, ret } => {
                ctx.stage(args);
                // Hand back the unearned suffix so the callee observes the
                // same fuel level it would under the interpreter (the
                // callee may itself consume, trap, or re-enter a module).
                env.refund(rest);
                let v = env.call_extern(*sym, &ctx.scratch)?;
                ctx.tlb.flush();
                if let Some(r) = ret {
                    set_reg(&mut ctx.regs, *r, v);
                }
                if env.consume(rest).is_err() {
                    return exec_block_slow(b, ctx, env, i + 1);
                }
                Ok(())
            }
            Step::CallPtr {
                ptr,
                sig,
                args,
                ret,
                guard,
            } => {
                if let Some((gbase, goff, gsig)) = guard {
                    let slot = gbase.get(&ctx.regs).wrapping_add(*goff);
                    if let Err(t) = env.guard_indcall(slot, *gsig) {
                        // Only the guard's ALU was earned; the fused CALL
                        // charge goes back too.
                        env.refund(rest + costs::CALL);
                        return Err(t);
                    }
                }
                let target = ptr.get(&ctx.regs);
                ctx.stage(args);
                env.refund(rest);
                let v = env.call_ptr(target, *sig, &ctx.scratch)?;
                ctx.tlb.flush();
                if let Some(r) = ret {
                    set_reg(&mut ctx.regs, *r, v);
                }
                if env.consume(rest).is_err() {
                    return exec_block_slow(b, ctx, env, i + 1);
                }
                Ok(())
            }
            Step::GlobalAddr { dst, global } => match env.global_addr(*global) {
                Ok(v) => {
                    set_reg(&mut ctx.regs, *dst, v);
                    Ok(())
                }
                Err(t) => Err(t),
            },
            Step::SymAddr { dst, sym } => match env.sym_addr(*sym) {
                Ok(v) => {
                    set_reg(&mut ctx.regs, *dst, v);
                    Ok(())
                }
                Err(t) => Err(t),
            },
            Step::FuncAddr { dst, func } => match env.func_addr(*func) {
                Ok(v) => {
                    set_reg(&mut ctx.regs, *dst, v);
                    Ok(())
                }
                Err(t) => Err(t),
            },
            Step::Nop => Ok(()),
        };
        if let Err(t) = r {
            env.refund(rest);
            return Err(t);
        }
        i += 1;
    }
    debug_assert_eq!(rest, b.exit_cost);
    exec_exit(b, ctx)
}

/// Slow path: per-instruction fuel accounting from step `from` onward,
/// exactly reproducing the interpreter near fuel exhaustion (fused steps
/// split their charges the way the original instruction pair would).
fn exec_block_slow<E: Env + ?Sized>(
    b: &BlockBody,
    ctx: &mut ExecCtx,
    env: &mut E,
    from: usize,
) -> Result<BlockExit, Trap> {
    for i in from..b.steps.len() {
        let (step, charge) = &b.steps[i];
        match step {
            Step::CallExtern { sym, args, ret } => {
                env.consume(costs::CALL)?;
                ctx.stage(args);
                let v = env.call_extern(*sym, &ctx.scratch)?;
                ctx.tlb.flush();
                if let Some(r) = ret {
                    ctx.regs[*r as usize] = v;
                }
            }
            Step::CallPtr {
                ptr,
                sig,
                args,
                ret,
                guard,
            } => {
                if let Some((gbase, goff, gsig)) = guard {
                    env.consume(costs::ALU)?;
                    let slot = gbase.get(&ctx.regs).wrapping_add(*goff);
                    env.guard_indcall(slot, *gsig)?;
                }
                env.consume(costs::CALL)?;
                let target = ptr.get(&ctx.regs);
                ctx.stage(args);
                let v = env.call_ptr(target, *sig, &ctx.scratch)?;
                ctx.tlb.flush();
                if let Some(r) = ret {
                    ctx.regs[*r as usize] = v;
                }
            }
            Step::GuardedStore {
                gbase,
                goff,
                glen,
                src,
                base,
                off,
                width,
            } => {
                env.consume(costs::ALU)?;
                let gaddr = gbase.get(&ctx.regs).wrapping_add(*goff);
                env.guard_write(gaddr, glen.get(&ctx.regs))?;
                env.consume(costs::MEM)?;
                let addr = base.get(&ctx.regs).wrapping_add(*off);
                mem_write(ctx, env, addr, src.get(&ctx.regs), *width)?;
            }
            _ => {
                env.consume(*charge)?;
                exec_step(step, ctx, env)?;
            }
        }
    }
    env.consume(b.exit_cost)?;
    exec_exit(b, ctx)
}

/// Runs one activation's blocks from `entry` until it returns, calls, or
/// traps. `Goto` edges stay inside this loop, so a hot intra-function
/// loop costs one (inlined) block execution per iteration with no trip
/// through the driver's activation bookkeeping.
fn exec_func<E: Env + ?Sized>(
    blocks: &[BlockBody],
    entry: u32,
    ctx: &mut ExecCtx,
    env: &mut E,
) -> Result<FuncExit, Trap> {
    let mut block = entry;
    loop {
        debug_assert!((block as usize) < blocks.len());
        // SAFETY: every block index — function entry 0, jump/branch
        // targets, fallthroughs, and call resume points — comes from
        // `block_of` over targets `verify_program` checked in range, in
        // functions it checked end in a terminator.
        let b = unsafe { blocks.get_unchecked(block as usize) };
        match exec_block(b, ctx, env)? {
            BlockExit::Goto(n) => block = n,
            BlockExit::Return(v) => return Ok(FuncExit::Return(v)),
            BlockExit::Call { func, ret, resume } => {
                return Ok(FuncExit::Call { func, ret, resume })
            }
        }
    }
}

/// A suspended caller activation.
struct CFrame {
    func: u32,
    resume: u32,
    regs: [Word; NUM_REGS],
    sp: Word,
    frame_size: u32,
    /// Register in *this* (the caller's) frame receiving the callee's
    /// return value.
    ret_to: Option<u8>,
}

/// Executes `func` from `cp` with `args` under the compiled backend.
///
/// Drop-in replacement for [`crate::interp::run_function`]: identical
/// results, traps, environment interactions, and (given an
/// [`Env::refund`] implementation) identical fuel accounting.
pub fn run_compiled<E: Env + ?Sized>(
    env: &mut E,
    cp: &CompiledProgram,
    func: FuncId,
    args: &[Word],
) -> Result<Word, Trap> {
    let Some(entry) = cp.funcs.get(func.0 as usize) else {
        return Err(Trap::BadRef(format!("function id {}", func.0)));
    };
    let frame_size0 = entry.frame_size;

    let mut ctx = ExecCtx::new();
    ctx.sp = env.push_frame(frame_size0)?;
    let n = args.len().min(NUM_ARG_REGS);
    ctx.regs[..n].copy_from_slice(&args[..n]);

    let mut frames: Vec<CFrame> = Vec::new();
    let mut cur = func.0 as usize;
    let mut cur_frame_size = frame_size0;
    let mut block = 0u32;

    let result = loop {
        match exec_func(&cp.funcs[cur].blocks, block, &mut ctx, env) {
            Ok(FuncExit::Return(v)) => {
                env.pop_frame(cur_frame_size);
                match frames.pop() {
                    None => return Ok(v),
                    Some(fr) => {
                        cur = fr.func as usize;
                        cur_frame_size = fr.frame_size;
                        ctx.regs = fr.regs;
                        ctx.sp = fr.sp;
                        if let Some(r) = fr.ret_to {
                            ctx.regs[r as usize] = v;
                        }
                        block = fr.resume;
                    }
                }
            }
            Ok(FuncExit::Call {
                func: callee,
                ret,
                resume,
            }) => {
                // `verify_program` checked every local callee exists.
                let frame_size = cp.funcs[callee.0 as usize].frame_size;
                let sp = match env.push_frame(frame_size) {
                    Ok(sp) => sp,
                    Err(t) => break Err(t),
                };
                frames.push(CFrame {
                    func: cur as u32,
                    resume,
                    regs: ctx.regs,
                    sp: ctx.sp,
                    frame_size: cur_frame_size,
                    ret_to: ret,
                });
                cur = callee.0 as usize;
                cur_frame_size = frame_size;
                ctx.sp = sp;
                let mut regs = [0u64; NUM_REGS];
                let n = ctx.scratch.len().min(NUM_ARG_REGS);
                regs[..n].copy_from_slice(&ctx.scratch[..n]);
                ctx.regs = regs;
                block = 0;
            }
            Err(t) => break Err(t),
        }
    };
    // Unwind the simulated stack after a trap, exactly like the
    // interpreter's run_function, so the kernel can catch the trap with
    // a balanced stack pointer.
    env.pop_frame(cur_frame_size);
    for fr in frames.drain(..).rev() {
        env.pop_frame(fr.frame_size);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::regs::*;
    use crate::builder::ProgramBuilder;
    use crate::interp::run_function;
    use crate::mem::AddressSpace;

    /// Test env with exact refund and a guard log; memory lives behind an
    /// `Arc` so cached `PageHandle`s are backed by a stable allocation.
    struct CEnv {
        mem: Arc<AddressSpace>,
        fuel: u64,
        sp: Word,
        stack_base: Word,
        guard_log: Vec<(Word, Word)>,
        extern_ret: Word,
    }

    impl CEnv {
        fn new() -> Self {
            let mem = Arc::new(AddressSpace::new());
            let stack_top = 0xffff_9000_0001_0000u64;
            let stack_base = stack_top - 0x4000;
            mem.map_range(stack_base, 0x4000);
            CEnv {
                mem,
                fuel: 1_000_000,
                sp: stack_top,
                stack_base,
                guard_log: Vec::new(),
                extern_ret: 0,
            }
        }
    }

    impl Env for CEnv {
        fn mem(&self) -> &AddressSpace {
            &self.mem
        }
        fn consume(&mut self, cycles: u64) -> Result<(), Trap> {
            if self.fuel < cycles {
                return Err(Trap::OutOfFuel);
            }
            self.fuel -= cycles;
            Ok(())
        }
        fn refund(&mut self, cycles: u64) {
            self.fuel += cycles;
        }
        fn push_frame(&mut self, size: u32) -> Result<Word, Trap> {
            let size = (size as u64 + 15) & !15;
            if self.sp - size < self.stack_base {
                return Err(Trap::StackOverflow);
            }
            self.sp -= size;
            Ok(self.sp)
        }
        fn pop_frame(&mut self, size: u32) {
            self.sp += (size as u64 + 15) & !15;
        }
        fn guard_write(&mut self, addr: Word, len: Word) -> Result<(), Trap> {
            self.guard_log.push((addr, len));
            Ok(())
        }
        fn guard_indcall(&mut self, _slot: Word, _sig: SigId) -> Result<(), Trap> {
            Ok(())
        }
        fn call_extern(&mut self, _sym: SymbolId, args: &[Word]) -> Result<Word, Trap> {
            Ok(args.iter().sum::<Word>() + self.extern_ret)
        }
        fn call_ptr(&mut self, _t: Word, _s: SigId, a: &[Word]) -> Result<Word, Trap> {
            Ok(a.first().copied().unwrap_or(0).wrapping_mul(2))
        }
        fn global_addr(&self, _g: GlobalId) -> Result<Word, Trap> {
            Ok(0x30_0000)
        }
        fn sym_addr(&self, _s: SymbolId) -> Result<Word, Trap> {
            Ok(0x40_0000)
        }
        fn func_addr(&self, f: FuncId) -> Result<Word, Trap> {
            Ok(0xf000_0000 + f.0 as u64 * 16)
        }
    }

    /// Runs `func` under both backends on fresh envs (tweaked by `prep`)
    /// and asserts identical outcome, fuel, and guard log.
    fn both(
        p: &Program,
        func: FuncId,
        args: &[Word],
        prep: impl Fn(&mut CEnv),
    ) -> Result<Word, Trap> {
        let cp = CompiledProgram::compile(Arc::new(p.clone())).expect("verified");
        let mut ei = CEnv::new();
        let mut ec = CEnv::new();
        prep(&mut ei);
        prep(&mut ec);
        let ri = run_function(&mut ei, p, func, args);
        let rc = run_compiled(&mut ec, &cp, func, args);
        match (&ri, &rc) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "results diverge"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "traps diverge"),
            _ => panic!("outcome diverges: interp={ri:?} compiled={rc:?}"),
        }
        assert_eq!(ei.fuel, ec.fuel, "fuel diverges");
        assert_eq!(ei.guard_log, ec.guard_log, "guard logs diverge");
        assert_eq!(ei.sp, ec.sp, "stack pointer diverges");
        rc
    }

    #[test]
    fn arithmetic_and_branches() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.define("sum", 1, 0, |f| {
            let top = f.label();
            let out = f.label();
            f.mov(R1, 0i64);
            f.bind(top);
            f.br(Cond::Eq, R0, 0i64, out);
            f.add(R1, R1, R0);
            f.sub(R0, R0, 1i64);
            f.jmp(top);
            f.bind(out);
            f.ret(R1);
        });
        let p = pb.finish();
        assert_eq!(both(&p, f, &[10], |_| {}).unwrap(), 55);
        assert_eq!(both(&p, f, &[0], |_| {}).unwrap(), 0);
    }

    #[test]
    fn local_calls_and_recursion() {
        let mut pb = ProgramBuilder::new("t");
        let fib = pb.declare("fib", 1);
        pb.define("fib", 1, 0, |f| {
            let rec = f.label();
            f.br(Cond::Ult, 1i64, R0, rec);
            f.ret(R0);
            f.bind(rec);
            f.sub(R1, R0, 1i64);
            f.sub(R2, R0, 2i64);
            f.call_local(fib, &[R1.into()], Some(R3));
            f.call_local(fib, &[R2.into()], Some(R4));
            f.add(R0, R3, R4);
            f.ret(R0);
        });
        let p = pb.finish();
        assert_eq!(both(&p, fib, &[10], |_| {}).unwrap(), 55);
    }

    #[test]
    fn frame_locals_and_memory() {
        let mut pb = ProgramBuilder::new("t");
        let inner = pb.declare("inner", 0);
        pb.define("inner", 0, 16, |f| {
            f.store_frame(99i64, 0, Width::B8);
            f.ret_void();
        });
        let outer = pb.define("outer", 0, 16, |f| {
            f.store_frame(7i64, 0, Width::B8);
            f.call_local(inner, &[], None);
            f.load_frame(R0, 0, Width::B8);
            f.ret(R0);
        });
        let p = pb.finish();
        assert_eq!(both(&p, outer, &[], |_| {}).unwrap(), 7);
    }

    #[test]
    fn guarded_store_fuses_and_logs() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.define("g", 1, 0, |f| {
            f.guard_write(R0, 8, 16i64);
            f.store8(1i64, R0, 8);
            f.ret_void();
        });
        let p = pb.finish();
        let cp = CompiledProgram::compile(Arc::new(p.clone())).expect("verified");
        assert_eq!(cp.stats().fused_guard_sites, 1);
        both(&p, f, &[0x8000], |e| e.mem.map_range(0x8000, 64)).unwrap();
        let mut e = CEnv::new();
        e.mem.map_range(0x8000, 64);
        run_compiled(&mut e, &cp, f, &[0x8000]).unwrap();
        assert_eq!(e.guard_log, vec![(0x8008, 16)]);
        assert_eq!(e.mem.read_word(0x8008).unwrap(), 1);
    }

    #[test]
    fn extern_and_indirect_calls() {
        let mut pb = ProgramBuilder::new("t");
        let s = pb.import_func("ext");
        let sig = pb.sig("cb", 1);
        let f = pb.define("f", 2, 0, |f| {
            f.call_extern(s, &[R0.into(), R1.into()], Some(R2));
            f.call_ptr(R2, sig, &[R2.into()], Some(R0));
            f.ret(R0);
        });
        let p = pb.finish();
        assert_eq!(both(&p, f, &[3, 4], |_| {}).unwrap(), 14);
    }

    #[test]
    fn fuel_exhaustion_matches_interp_exactly() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.define("loopy", 0, 0, |f| {
            let top = f.label();
            f.bind(top);
            f.mov(R0, 1i64);
            f.add(R0, R0, R0);
            f.jmp(top);
        });
        let p = pb.finish();
        // Sweep fuel levels so the trap lands at every possible point in
        // the block, exercising the slow path's per-step accounting.
        for fuel in 0..40 {
            let err = both(&p, f, &[], |e| e.fuel = fuel);
            assert!(matches!(err, Err(Trap::OutOfFuel)), "fuel={fuel}");
        }
    }

    #[test]
    fn traps_and_unwind() {
        let mut pb = ProgramBuilder::new("t");
        let buggy = pb.declare("buggy", 0);
        pb.define("buggy", 0, 64, |f| f.trap(42));
        let outer = pb.define("outer", 0, 64, |f| {
            f.call_local(buggy, &[], None);
            f.ret_void();
        });
        let p = pb.finish();
        let err = both(&p, outer, &[], |_| {}).unwrap_err();
        assert!(matches!(err, Trap::Bug(42)));
    }

    #[test]
    fn div_by_zero_and_memfault() {
        let mut pb = ProgramBuilder::new("t");
        let d = pb.define("d", 2, 0, |f| {
            f.bin(BinOp::Div, R0, R0, R1);
            f.ret(R0);
        });
        let w = pb.define("wild", 1, 0, |f| {
            f.store8(0i64, R0, 0);
            f.ret_void();
        });
        let p = pb.finish();
        assert_eq!(both(&p, d, &[10, 2], |_| {}).unwrap(), 5);
        assert!(matches!(
            both(&p, d, &[10, 0], |_| {}),
            Err(Trap::DivByZero)
        ));
        assert!(matches!(
            both(&p, w, &[0xdead0000], |_| {}),
            Err(Trap::MemFault { write: true, .. })
        ));
    }

    #[test]
    fn stack_overflow_unwinds_balanced() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("spin", 0);
        pb.define("spin", 0, 1024, |f2| {
            f2.call_local(f, &[], None);
            f2.ret_void();
        });
        let p = pb.finish();
        let err = both(&p, f, &[], |_| {}).unwrap_err();
        assert!(matches!(err, Trap::StackOverflow));
    }

    #[test]
    fn bad_entry_function_id() {
        let mut pb = ProgramBuilder::new("t");
        pb.define("f", 0, 0, |f| f.ret(0i64));
        let p = pb.finish();
        let err = both(&p, FuncId(9), &[], |_| {}).unwrap_err();
        assert!(matches!(err, Trap::BadRef(ref s) if s == "function id 9"));
    }

    #[test]
    fn sub_word_and_unaligned_access() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.define("f", 1, 0, |f| {
            f.store(0xaabbi64, R0, 3, Width::B2);
            f.load(R1, R0, 3, Width::B2);
            f.load(R2, R0, 0, Width::B8);
            // Cross-word (offset 5, width 8) exercises the non-TLB path.
            f.store8(0x1122_3344_5566_7788i64, R0, 5);
            f.load8(R3, R0, 5);
            f.bin(BinOp::Xor, R0, R1, R3);
            f.ret(R0);
        });
        let p = pb.finish();
        let v = both(&p, f, &[0x9000], |e| e.mem.map_range(0x9000, 64)).unwrap();
        assert_eq!(v, 0xaabb ^ 0x1122_3344_5566_7788u64);
    }

    #[test]
    fn stats_count_blocks() {
        let mut pb = ProgramBuilder::new("t");
        pb.define("f", 1, 0, |f| {
            let out = f.label();
            f.br(Cond::Eq, R0, 0i64, out);
            f.add(R0, R0, 1i64);
            f.bind(out);
            f.ret(R0);
        });
        let p = pb.finish();
        let cp = CompiledProgram::compile(Arc::new(p)).expect("verified");
        let st = cp.stats();
        assert_eq!(st.funcs_compiled, 1);
        assert_eq!(st.fallback_funcs, 0);
        assert_eq!(st.blocks_compiled, 3, "entry, fallthrough, join");
    }

    /// A program `verify_program` refuses is refused whole: no function
    /// of it is compiled or left to the interpreter.
    #[test]
    fn empty_function_falls_back() {
        let mut pb = ProgramBuilder::new("t");
        pb.define("ok", 0, 0, |f| f.ret(0i64));
        let mut p = pb.finish();
        p.funcs.push(Function {
            name: "empty".into(),
            params: 0,
            frame_size: 0,
            insts: vec![],
        });
        let Err(errs) = CompiledProgram::compile(Arc::new(p)) else {
            panic!("an empty function must be refused");
        };
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].func, "empty");
    }

    #[test]
    fn backend_parses() {
        assert_eq!("interp".parse::<Backend>().unwrap(), Backend::Interp);
        assert_eq!("compiled".parse::<Backend>().unwrap(), Backend::Compiled);
        assert!("jit".parse::<Backend>().is_err());
        assert_eq!(Backend::Compiled.to_string(), "compiled");
    }
}
