//! Instruction set of the KIR register machine.
//!
//! Programs are flat instruction vectors per function; jump targets are
//! absolute instruction indices resolved by the [`crate::builder`]. Guard
//! instructions (`GuardWrite`, `GuardIndCall`) are never written by module
//! authors — only the LXFI rewriter emits them.

use crate::program::{FuncId, GlobalId, SigId, SymbolId};

/// A general-purpose register. Valid indices are `0..NUM_REGS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;

/// Number of registers used to pass arguments (`r0..r5`), mirroring the
/// System-V convention the paper's x86-64 target uses.
pub const NUM_ARG_REGS: usize = 6;

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An instruction operand: either a register or a signed immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register value.
    Reg(Reg),
    /// A signed 64-bit immediate (sign-extended into the 64-bit register).
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }

    /// Truncates a word to this width.
    pub fn truncate(self, v: u64) -> u64 {
        match self {
            Width::B1 => v & 0xff,
            Width::B2 => v & 0xffff,
            Width::B4 => v & 0xffff_ffff,
            Width::B8 => v,
        }
    }
}

impl std::fmt::Display for Width {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Binary ALU operations. Shifts mask the count to 0..64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; traps on zero divisor.
    Div,
    /// Unsigned remainder; traps on zero divisor.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Rotate left.
    Rotl,
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Rotl => "rotl",
        };
        f.write_str(s)
    }
}

/// Branch conditions. `Lt`..`Ge` are signed; `Ult`/`Ule` unsigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
}

impl Cond {
    /// Evaluates the condition on two words.
    #[inline(always)]
    pub fn eval(self, l: u64, r: u64) -> bool {
        match self {
            Cond::Eq => l == r,
            Cond::Ne => l != r,
            Cond::Lt => (l as i64) < (r as i64),
            Cond::Le => (l as i64) <= (r as i64),
            Cond::Gt => (l as i64) > (r as i64),
            Cond::Ge => (l as i64) >= (r as i64),
            Cond::Ult => l < r,
            Cond::Ule => l <= r,
        }
    }
}

impl std::fmt::Display for Cond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::Ult => "ult",
            Cond::Ule => "ule",
        };
        f.write_str(s)
    }
}

/// A KIR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register or immediate.
        src: Operand,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Arithmetic/logic operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = zero_extend(mem[base + off], width)`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address.
        base: Operand,
        /// Constant byte offset added to `base`.
        off: i64,
        /// Access width.
        width: Width,
    },
    /// `mem[base + off] = truncate(src, width)`.
    Store {
        /// Value stored.
        src: Operand,
        /// Base address.
        base: Operand,
        /// Constant byte offset added to `base`.
        off: i64,
        /// Access width.
        width: Width,
    },
    /// `dst = mem[sp + off]` — frame-local load, statically bounds-checked.
    LoadFrame {
        /// Destination register.
        dst: Reg,
        /// Byte offset into the current frame.
        off: u32,
        /// Access width.
        width: Width,
    },
    /// `mem[sp + off] = src` — frame-local store, statically bounds-checked.
    StoreFrame {
        /// Value stored.
        src: Operand,
        /// Byte offset into the current frame.
        off: u32,
        /// Access width.
        width: Width,
    },
    /// `dst = sp + off` — materialize the address of a frame local.
    FrameAddr {
        /// Destination register.
        dst: Reg,
        /// Byte offset into the current frame.
        off: u32,
    },
    /// `dst = address of module global`.
    GlobalAddr {
        /// Destination register.
        dst: Reg,
        /// The global whose address is taken.
        global: GlobalId,
    },
    /// `dst = address of an imported kernel symbol` (data or function).
    SymAddr {
        /// Destination register.
        dst: Reg,
        /// The imported symbol whose address is taken.
        sym: SymbolId,
    },
    /// `dst = address of a module-local function`.
    FuncAddr {
        /// Destination register.
        dst: Reg,
        /// The function whose address is taken.
        func: FuncId,
    },
    /// Unconditional jump to an instruction index.
    Jmp {
        /// Absolute instruction index within the function.
        target: usize,
    },
    /// Conditional branch to an instruction index.
    Br {
        /// Branch condition.
        cond: Cond,
        /// Left comparison operand.
        lhs: Operand,
        /// Right comparison operand.
        rhs: Operand,
        /// Absolute instruction index taken when the condition holds.
        target: usize,
    },
    /// Direct call to a module-local function.
    CallLocal {
        /// Callee.
        func: FuncId,
        /// Argument values, one per callee parameter.
        args: Vec<Operand>,
        /// Register receiving the return value, if any.
        ret: Option<Reg>,
    },
    /// Call to an imported kernel symbol (through its LXFI wrapper when
    /// the module is isolated).
    CallExtern {
        /// Imported callee symbol.
        sym: SymbolId,
        /// Argument values, one per callee parameter.
        args: Vec<Operand>,
        /// Register receiving the return value, if any.
        ret: Option<Reg>,
    },
    /// Indirect call through a function pointer value, with the declared
    /// function-pointer type (`sig`) of the call site.
    CallPtr {
        /// The function-pointer value called through.
        ptr: Operand,
        /// Declared function-pointer type of the call site.
        sig: SigId,
        /// Argument values, one per callee parameter.
        args: Vec<Operand>,
        /// Register receiving the return value, if any.
        ret: Option<Reg>,
    },
    /// Return, optionally with a value.
    Ret {
        /// Returned value, if the function returns one.
        val: Option<Operand>,
    },
    /// `BUG()` — unconditional trap.
    Trap {
        /// Diagnostic code reported with the trap.
        code: u64,
    },
    /// No operation.
    Nop,
    /// LXFI guard: check the current principal may write
    /// `[base+off, base+off+len)`. Emitted only by the rewriter.
    GuardWrite {
        /// Base address of the checked range.
        base: Operand,
        /// Constant byte offset added to `base`.
        off: i64,
        /// Length in bytes of the checked range.
        len: Operand,
    },
    /// LXFI guard: before an indirect call through the function-pointer
    /// slot at `slot_base + slot_off`, validate the writer set and CALL
    /// capability. Emitted only by the kernel rewriter.
    GuardIndCall {
        /// Base address of the function-pointer slot.
        slot_base: Operand,
        /// Constant byte offset added to `slot_base`.
        slot_off: i64,
        /// Declared function-pointer type of the guarded call site.
        sig: SigId,
    },
}

impl Inst {
    /// Returns true for guard instructions, which only the rewriter emits.
    pub fn is_guard(&self) -> bool {
        matches!(self, Inst::GuardWrite { .. } | Inst::GuardIndCall { .. })
    }

    /// Returns the branch target if this instruction transfers control.
    pub fn jump_target(&self) -> Option<usize> {
        match self {
            Inst::Jmp { target } | Inst::Br { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Rewrites the branch target, if any, with `f`.
    pub fn map_target(&mut self, f: impl Fn(usize) -> usize) {
        match self {
            Inst::Jmp { target } | Inst::Br { target, .. } => *target = f(*target),
            _ => {}
        }
    }

    /// Returns true if control never falls through to the next instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Ret { .. } | Inst::Jmp { .. } | Inst::Trap { .. }
        )
    }

    /// The register written by this instruction, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::LoadFrame { dst, .. }
            | Inst::FrameAddr { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::SymAddr { dst, .. }
            | Inst::FuncAddr { dst, .. } => Some(*dst),
            Inst::CallLocal { ret, .. }
            | Inst::CallExtern { ret, .. }
            | Inst::CallPtr { ret, .. } => *ret,
            _ => None,
        }
    }

    /// Calls `f` on every operand this instruction reads, registers and
    /// immediates, in field order (call arguments after the fixed
    /// operands).
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match self {
            Inst::Mov { src: a, .. }
            | Inst::StoreFrame { src: a, .. }
            | Inst::Load { base: a, .. }
            | Inst::GuardIndCall { slot_base: a, .. }
            | Inst::Ret { val: Some(a) } => f(*a),
            Inst::Bin { lhs: a, rhs: b, .. }
            | Inst::Br { lhs: a, rhs: b, .. }
            | Inst::Store {
                src: a, base: b, ..
            }
            | Inst::GuardWrite {
                base: a, len: b, ..
            } => {
                f(*a);
                f(*b);
            }
            Inst::CallLocal { args, .. } | Inst::CallExtern { args, .. } => {
                args.iter().copied().for_each(f)
            }
            Inst::CallPtr { ptr, args, .. } => {
                f(*ptr);
                args.iter().copied().for_each(f);
            }
            // No wildcard: an instruction added later must say what it
            // reads, or `verify_program`'s register check would miss it.
            Inst::Ret { val: None }
            | Inst::LoadFrame { .. }
            | Inst::FrameAddr { .. }
            | Inst::GlobalAddr { .. }
            | Inst::SymAddr { .. }
            | Inst::FuncAddr { .. }
            | Inst::Jmp { .. }
            | Inst::Trap { .. }
            | Inst::Nop => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_truncation() {
        assert_eq!(Width::B1.truncate(0x1234), 0x34);
        assert_eq!(Width::B2.truncate(0xdead_beef), 0xbeef);
        assert_eq!(Width::B4.truncate(0x1_0000_0001), 1);
        assert_eq!(Width::B8.truncate(u64::MAX), u64::MAX);
    }

    #[test]
    fn cond_signedness() {
        let neg1 = (-1i64) as u64;
        assert!(Cond::Lt.eval(neg1, 0), "-1 < 0 signed");
        assert!(!Cond::Ult.eval(neg1, 0), "u64::MAX not < 0 unsigned");
        assert!(Cond::Ge.eval(0, neg1));
        assert!(Cond::Ule.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Gt.eval(5, 4));
    }

    #[test]
    fn def_reg_reporting() {
        let i = Inst::Mov {
            dst: Reg(3),
            src: Operand::Imm(1),
        };
        assert_eq!(i.def_reg(), Some(Reg(3)));
        let s = Inst::Store {
            src: Operand::Imm(0),
            base: Operand::Reg(Reg(1)),
            off: 0,
            width: Width::B8,
        };
        assert_eq!(s.def_reg(), None);
        let c = Inst::CallExtern {
            sym: SymbolId(0),
            args: vec![],
            ret: Some(Reg(0)),
        };
        assert_eq!(c.def_reg(), Some(Reg(0)));
    }

    #[test]
    fn operand_walk_covers_reads_in_field_order() {
        let ops = |i: &Inst| {
            let mut v = Vec::new();
            i.for_each_operand(|o| v.push(o));
            v
        };
        let s = Inst::Store {
            src: Operand::Imm(7),
            base: Operand::Reg(Reg(1)),
            off: 0,
            width: Width::B8,
        };
        assert_eq!(ops(&s), [Operand::Imm(7), Operand::Reg(Reg(1))]);
        let c = Inst::CallPtr {
            ptr: Operand::Reg(Reg(9)),
            sig: SigId(0),
            args: vec![Operand::Reg(Reg(2)), Operand::Imm(3)],
            ret: Some(Reg(0)),
        };
        assert_eq!(
            ops(&c),
            [Operand::Reg(Reg(9)), Operand::Reg(Reg(2)), Operand::Imm(3)]
        );
        assert!(ops(&Inst::Ret { val: None }).is_empty());
        assert!(ops(&Inst::LoadFrame {
            dst: Reg(0),
            off: 0,
            width: Width::B8
        })
        .is_empty());
    }

    #[test]
    fn guard_classification() {
        assert!(Inst::GuardWrite {
            base: Operand::Reg(Reg(0)),
            off: 0,
            len: Operand::Imm(8)
        }
        .is_guard());
        assert!(!Inst::Nop.is_guard());
    }

    #[test]
    fn target_mapping() {
        let mut j = Inst::Jmp { target: 4 };
        j.map_target(|t| t + 10);
        assert_eq!(j.jump_target(), Some(14));
        let mut n = Inst::Nop;
        n.map_target(|t| t + 10);
        assert_eq!(n.jump_target(), None);
    }
}
