//! Differential oracle: the interpreter and the compiled backend must be
//! observationally identical. Generated programs run on both backends in
//! lockstep against twin environments; every observable — result value,
//! trap, guard log, extern-call log, final memory, final fuel, stack
//! balance — must match exactly, across both plentiful and near-exhausted
//! fuel budgets (the latter drives the compiled backend's metered mode
//! and its prepaid mode's refund protocol).
//!
//! The data window spans more pages than the compiled backend's software
//! TLB holds, several of them sharing a TLB set, and the `remap` extern
//! unmaps and remaps one of those pages: a TLB entry kept across the
//! call would read or write the retired page, which the final-memory
//! comparison catches.

use std::sync::Arc;

use proptest::prelude::*;

use lxfi_machine::builder::regs::*;
use lxfi_machine::{
    run_compiled, run_function, AddressSpace, BinOp, CompiledProgram, Cond, Env, FuncId,
    FunctionBuilder, GlobalId, Operand, Program, ProgramBuilder, Reg, SigId, SymbolId, Trap, Width,
    Word, PAGE_SIZE,
};

/// Base of the mapped data window generated programs address.
const DATA: u64 = 0x10_0000;
/// Pages in that window: more than the software TLB's four entries, so
/// pages share sets and evict each other.
const DATA_PAGES: u64 = 6;
/// Size of that window (accesses are generated inside `[0, DATA_LEN)`,
/// but register-relative addressing can still fault — both backends must
/// then fault identically).
const DATA_LEN: u64 = DATA_PAGES * PAGE_SIZE;
/// The `remap` import (the second one `build_program` declares): its
/// first argument picks the window page to unmap and map again, zeroed.
const REMAP_SYM: u32 = 1;

/// One logged guard/extern event: `(kind, a, b)` per the field doc.
type LogEntry = (u8, u64, u64);

/// Everything the oracle compares: final fuel, stack pointer, event
/// log, and the words of the data window.
type Observation = (u64, Word, Vec<LogEntry>, Vec<Word>);

/// Environment with exact refund accounting and full observation logs.
/// Guards deterministically fail on a sliver of addresses so the
/// guard-trap refund paths get exercised.
struct OracleEnv {
    mem: Arc<AddressSpace>,
    fuel: u64,
    sp: Word,
    base: Word,
    /// (kind, a, b): 'w' = guard_write(addr, len), 'i' = guard_indcall
    /// (slot, sig), 'x' = call_extern(sym, arg-sum), 'p' = call_ptr
    /// (target, arg-sum).
    log: Vec<LogEntry>,
}

impl OracleEnv {
    fn new(fuel: u64) -> Self {
        let mem = Arc::new(AddressSpace::new());
        mem.map_range(DATA, DATA_LEN);
        let top = 0xffff_9000_0010_0000u64;
        let base = top - 0x8000;
        mem.map_range(base, 0x8000);
        OracleEnv {
            mem,
            fuel,
            sp: top,
            base,
            log: Vec::new(),
        }
    }

    /// Everything the oracle compares, in one comparable bundle.
    fn observe(&self) -> Observation {
        let words = (0..DATA_LEN / 8)
            .map(|i| self.mem.read(DATA + i * 8, Width::B8).unwrap())
            .collect();
        (self.fuel, self.sp, self.log.clone(), words)
    }
}

impl Env for OracleEnv {
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
        if self.sp - size < self.base {
            return Err(Trap::StackOverflow);
        }
        self.sp -= size;
        self.mem.zero_range(self.sp, size).unwrap();
        Ok(self.sp)
    }
    fn pop_frame(&mut self, size: u32) {
        self.sp += (size as u64 + 15) & !15;
    }
    fn guard_write(&mut self, addr: Word, len: Word) -> Result<(), Trap> {
        self.log.push((b'w', addr, len));
        if addr.is_multiple_of(97) {
            return Err(Trap::Bug(0x6a57));
        }
        Ok(())
    }
    fn guard_indcall(&mut self, slot: Word, sig: SigId) -> Result<(), Trap> {
        self.log.push((b'i', slot, sig.0 as u64));
        if slot.is_multiple_of(89) {
            return Err(Trap::Bug(0x6a58));
        }
        Ok(())
    }
    fn call_extern(&mut self, sym: SymbolId, args: &[Word]) -> Result<Word, Trap> {
        let sum = args.iter().fold(0u64, |a, &x| a.wrapping_add(x));
        self.log.push((b'x', sym.0 as u64, sum));
        // Externs burn fuel too, so the compiled backend's
        // refund-before-call / reconsume-after protocol is observable.
        self.consume(5)?;
        if sym.0 == REMAP_SYM {
            let page = DATA + args.first().map_or(0, |&a| a % DATA_PAGES) * PAGE_SIZE;
            self.mem.unmap_range(page, PAGE_SIZE);
            self.mem.map_range(page, PAGE_SIZE);
        }
        Ok(sum.wrapping_mul(3).wrapping_add(sym.0 as u64))
    }
    fn call_ptr(&mut self, target: Word, _sig: SigId, args: &[Word]) -> Result<Word, Trap> {
        let sum = args.iter().fold(0u64, |a, &x| a.wrapping_add(x));
        self.log.push((b'p', target, sum));
        self.consume(3)?;
        Ok(target ^ sum)
    }
    fn global_addr(&self, g: GlobalId) -> Result<Word, Trap> {
        Ok(DATA + 64 * (g.0 as u64 + 1))
    }
    fn sym_addr(&self, s: SymbolId) -> Result<Word, Trap> {
        Ok(DATA + 8 * (s.0 as u64 + 1))
    }
    fn func_addr(&self, f: FuncId) -> Result<Word, Trap> {
        Ok(0xf000_0000 + f.0 as u64)
    }
}

/// One generated operation. Fields are interpreted per `kind` — this
/// keeps the proptest strategy flat and shrinkable. `a`, `b` and `c`
/// name registers from the whole `R0..R15`; bit `n` of `imms` makes the
/// op's `n`th operand position an immediate instead of a register.
#[derive(Debug, Clone, Copy)]
struct GenOp {
    kind: u8,
    a: u8,
    b: u8,
    c: u8,
    imm: i64,
    imms: u8,
}

fn arb_op() -> impl Strategy<Value = GenOp> {
    (
        (0u8..17, 0u8..16, 0u8..16, 0u8..16),
        (-512i64..512, any::<u8>()),
    )
        .prop_map(|((kind, a, b, c), (imm, imms))| GenOp {
            kind,
            a,
            b,
            c,
            imm,
            imms,
        })
}

impl GenOp {
    /// Operand position `pos`: register `r`, or the immediate `imm` when
    /// bit `pos` of `imms` is set.
    fn opnd(&self, pos: u8, r: u8, imm: i64) -> Operand {
        if self.imms & (1 << pos) != 0 {
            Operand::Imm(imm)
        } else {
            Reg(r).into()
        }
    }

    /// Base operand of a window access (operand position 0): the
    /// absolute window address as an immediate, or register `r` loaded
    /// with it just before. With bits 6 and 7 of `imms` both set, `r` is
    /// used as it stands, so the access may fault — identically on both
    /// backends.
    fn window_base(&self, f: &mut FunctionBuilder, r: u8) -> Operand {
        if self.imms & 1 != 0 {
            return Operand::Imm(DATA as i64);
        }
        if self.imms & 0xc0 != 0xc0 {
            f.mov(Reg(r), DATA as i64);
        }
        Reg(r).into()
    }
}

/// Builds a two-function program (`main` + a guarded-store leaf) from the
/// generated op list. Window accesses pick their page from the op's `c`
/// field and address it from an immediate window base or a register just
/// loaded with it, so most memory traffic lands in the mapped window;
/// forward-only branches keep every program terminating. `main` returns
/// a register, an immediate or nothing, chosen by the last op.
fn build_program(ops: &[GenOp]) -> Program {
    let mut pb = ProgramBuilder::new("oracle");
    let helper_sym = pb.import_func("helper");
    let remap_sym = pb.import_func("remap");
    assert_eq!(remap_sym.0, REMAP_SYM);
    let sig = pb.sig("fnptr", 2);
    let leaf = pb.declare("leaf", 2);
    let gdata = pb.global("gdata", 64);

    // leaf(x, y): guarded store of y at DATA window offset (x & 0xff8),
    // then return x + y. Runs under both backends via CallLocal.
    pb.define("leaf", 2, 16, |f| {
        f.bin(BinOp::And, R2, R0, 0xff8i64);
        f.add(R2, R2, DATA as i64);
        f.guard_write(R2, 0, 8i64);
        f.store8(R1, R2, 0);
        f.store_frame(R0, 0, Width::B8);
        f.load_frame(R3, 0, Width::B8);
        f.add(R0, R3, R1);
        f.ret(R0);
    });

    pb.define("main", 2, 32, |f| {
        // Pending forward-branch labels: (bind_after_op_index, label).
        let mut pending: Vec<(usize, lxfi_machine::builder::Label)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let mut due: Vec<_> = Vec::new();
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
            let (a, b, c) = (op.a, op.b, op.c);
            let ra = Reg(a);
            let rc = Reg(c);
            let page = c as u64 % DATA_PAGES;
            let off = (page * PAGE_SIZE + op.imm.unsigned_abs() % 4000) as i64;
            let widths = [Width::B1, Width::B2, Width::B4, Width::B8];
            let width = widths[(a % 4) as usize];
            match op.kind {
                0 => f.mov(ra, op.opnd(0, b, op.imm)),
                1 => {
                    let bins = [
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Xor,
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Shl,
                        BinOp::Shr,
                        BinOp::Div,
                        BinOp::Rem,
                    ];
                    let bin = bins[(op.imm.unsigned_abs() % 10) as usize];
                    let lhs = op.opnd(0, b, op.imm);
                    let rhs = op.opnd(1, c, op.imm >> 4);
                    f.bin(bin, ra, lhs, rhs);
                }
                2 => {
                    let base = op.window_base(f, b);
                    f.load(ra, base, off, width);
                }
                3 => {
                    let base = op.window_base(f, b);
                    f.store(op.opnd(1, c, op.imm), base, off, width);
                }
                // Fused shape: guard + adjacent store, as the rewriter
                // emits it.
                4 => {
                    let base = op.window_base(f, a);
                    f.guard_write(base, off, op.opnd(1, c, 8));
                    f.store8(op.opnd(2, b, op.imm), base, off);
                }
                // Guard *not* followed by a store: must stay unfused.
                5 => {
                    let base = op.window_base(f, a);
                    f.guard_write(base, off, op.opnd(1, b, op.imm));
                }
                6 => f.store_frame(op.opnd(0, b, op.imm), (a as u32 % 3) * 8, Width::B8),
                7 => f.load_frame(ra, (a as u32 % 3) * 8, Width::B8),
                8 => f.frame_addr(ra, (b as u32 % 3) * 8),
                9 => f.global_addr(ra, gdata),
                10 => {
                    let args: Vec<Operand> = [a, b, c]
                        .iter()
                        .enumerate()
                        .take((a % 4) as usize)
                        .map(|(pos, &r)| op.opnd(pos as u8, r, op.imm + pos as i64))
                        .collect();
                    f.call_extern(helper_sym, &args, Some(rc));
                }
                // Fused shape: ind-call guard + adjacent CallPtr.
                11 => {
                    let slot = op.window_base(f, c);
                    f.guard_indcall(slot, off, sig);
                    let target = op.opnd(1, a, 0xf000_0000 + op.imm);
                    f.call_ptr(target, sig, &[op.opnd(2, b, op.imm)], Some(rc));
                }
                12 => {
                    let args = [op.opnd(0, a, op.imm), op.opnd(1, b, op.imm >> 2)];
                    f.call_local(leaf, &args, Some(rc));
                }
                13 => {
                    let conds = [Cond::Eq, Cond::Ne, Cond::Ult, Cond::Ule];
                    let skip = 1 + (op.imm.unsigned_abs() % 5) as usize;
                    let l = f.label();
                    let lhs = op.opnd(0, b, op.imm);
                    let rhs = op.opnd(1, c, op.imm >> 3);
                    f.br(conds[(a % 4) as usize], lhs, rhs, l);
                    pending.push((i + skip, l));
                }
                14 => f.nop(),
                15 => f.sym_addr(ra, helper_sym),
                _ => f.call_extern(remap_sym, &[(page as i64).into()], None),
            }
        }
        for (_, l) in pending {
            f.bind(l);
        }
        match ops.last() {
            Some(op) if op.imms & 0x40 != 0 => f.ret_void(),
            Some(op) => f.ret(op.opnd(0, op.a, op.imm)),
            None => f.ret(R0),
        }
    });
    pb.finish()
}

/// Runs one program on both backends with the same fuel and asserts
/// every observable matches.
fn check_equivalent(p: &Program, fuel: u64, a0: u64, a1: u64) {
    let prog = Arc::new(p.clone());
    let cp = CompiledProgram::compile(Arc::clone(&prog)).expect("generated programs must compile");

    let f = prog.func_by_name("main").unwrap();
    let mut ei = OracleEnv::new(fuel);
    let mut ec = OracleEnv::new(fuel);
    let ri = run_function(&mut ei, &prog, f, &[a0, a1]);
    let rc = run_compiled(&mut ec, &cp, f, &[a0, a1]);

    assert_eq!(
        format!("{ri:?}"),
        format!("{rc:?}"),
        "result/trap must match"
    );
    let (fuel_i, sp_i, log_i, mem_i) = ei.observe();
    let (fuel_c, sp_c, log_c, mem_c) = ec.observe();
    assert_eq!(fuel_i, fuel_c, "fuel accounting must be identical");
    assert_eq!(sp_i, sp_c, "stack must unwind identically");
    assert_eq!(log_i, log_c, "guard/extern logs must be identical");
    assert_eq!(mem_i, mem_c, "final memory must be identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Plentiful fuel: results, guard logs, memory, and fuel all match.
    #[test]
    fn backends_agree(ops in proptest::collection::vec(arb_op(), 1..40), a0: u64, a1: u64) {
        let p = build_program(&ops);
        check_equivalent(&p, 1_000_000, a0, a1);
    }

    /// Near-exhausted fuel: the trap must land on the same instruction
    /// with the same partial side effects — this exercises the compiled
    /// backend's metered mode and every refund site.
    #[test]
    fn backends_agree_under_fuel_pressure(
        ops in proptest::collection::vec(arb_op(), 1..40),
        fuel in 0u64..400,
        a0: u64,
        a1: u64,
    ) {
        let p = build_program(&ops);
        check_equivalent(&p, fuel, a0, a1);
    }
}

/// A page remapped by an extern call is never reached through a TLB
/// entry cached before the call: every window page is stored to (filling
/// and, pages sharing sets, evicting entries), one page is remapped, and
/// every page, the remapped one first, is read back and stored to again.
#[test]
fn remapped_pages_are_never_reached_through_a_stale_tlb_entry() {
    let mut pb = ProgramBuilder::new("remap");
    pb.import_func("helper");
    let remap = pb.import_func("remap");
    pb.define("main", 2, 0, |f| {
        f.mov(R6, DATA as i64);
        f.mov(R2, 0i64);
        for victim in [DATA_PAGES - 1, DATA_PAGES - 2, 0] {
            for page in 0..DATA_PAGES {
                f.store8(R0, R6, (page * PAGE_SIZE) as i64);
            }
            f.call_extern(remap, &[(victim as i64).into()], None);
            for i in 0..DATA_PAGES {
                let off = ((victim + i) % DATA_PAGES * PAGE_SIZE) as i64;
                f.load8(R1, R6, off);
                f.add(R2, R2, R1);
                f.store8(R2, R6, off + 8);
            }
        }
        f.ret(R2);
    });
    check_equivalent(&pb.finish(), 1_000_000, 7, 0);
}

/// The compiled backend reports meaningful counters for a program with
/// fused guard sites, and no function of it falls back to the
/// interpreter.
#[test]
fn compile_stats_and_fallback() {
    let ops: Vec<GenOp> = (0..20)
        .map(|i| GenOp {
            kind: (i % 15) as u8,
            a: (i % 6) as u8,
            b: ((i + 1) % 6) as u8,
            c: ((i + 2) % 6) as u8,
            imm: i as i64 * 37,
            imms: 0,
        })
        .collect();
    let p = build_program(&ops);
    let cp = CompiledProgram::compile(Arc::new(p)).expect("verified");
    let st = cp.stats();
    assert_eq!(st.funcs_compiled, 2);
    assert_eq!(st.fallback_funcs, 0);
    assert!(st.blocks_compiled >= 2);
    assert!(st.fused_guard_sites >= 2, "leaf + kind-4 sites: {st:?}");
}
