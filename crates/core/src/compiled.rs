//! Compiled annotations: name-free enforcement IR.
//!
//! Parsed annotations ([`lxfi_annotations::FnAnnotations`]) reference
//! parameters, kernel constants, capability iterators, and REF types *by
//! string name*. Resolving those names at every wrapper crossing put
//! `String` hashing and comparison on the guard hot path. This module
//! compiles an annotation set once, at registration time, into an IR in
//! which every name is a dense index:
//!
//! - parameter idents → argument positions ([`CExpr::Param`]);
//! - kernel-constant idents → [`ConstId`] slots interned in the
//!   [`RuntimeCore`] (definable after compilation — a slot left undefined
//!   reproduces the unknown-identifier error at evaluation time);
//! - iterator names → [`IteratorId`] slots (same late-binding rule);
//! - `ref(type-name)` → [`RefTypeId`];
//! - a missing WRITE size → the pointee's `sizeof`, resolved against
//!   [`TypeLayouts`] at compile time.
//!
//! Enforcement (`crate::actions`) walks this IR only; the original AST is
//! kept solely for canonical printing and hashing.

use lxfi_annotations::{
    Action, BinExprOp, CapList, CapTypeExpr, Expr, FnAnnotations, PrincipalExpr,
};
use lxfi_machine::Word;

use crate::caps::RefTypeId;
use crate::iface::{Param, TypeLayouts};
use crate::runtime::{ConstId, IteratorId, RuntimeCore};
use crate::Violation;

/// A compiled expression: idents resolved to argument positions or
/// constant slots.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// The function's return value (`post` actions only).
    Return,
    /// The argument at this position.
    Param(u32),
    /// An interned kernel constant.
    Const(ConstId),
    /// Unary negation.
    Neg(Box<CExpr>),
    /// Logical not.
    Not(Box<CExpr>),
    /// Binary operation.
    Bin(BinExprOp, Box<CExpr>, Box<CExpr>),
}

/// The size of an inline WRITE caplist.
#[derive(Debug, Clone)]
pub enum CSize {
    /// An explicit size expression.
    Expr(CExpr),
    /// `sizeof(*ptr)`, resolved at compile time.
    Sizeof(u64),
    /// Unresolvable; enforcing the action reports this message (matches
    /// the pre-compilation behavior of failing at enforcement time).
    Unresolved(String),
}

/// The capability kind of an inline caplist.
#[derive(Debug, Clone, Copy)]
pub enum CCapKind {
    /// WRITE over a byte range.
    Write,
    /// CALL of a code address.
    Call,
    /// REF of an interned type.
    Ref(RefTypeId),
}

/// A compiled caplist.
#[derive(Debug, Clone)]
pub enum CCapList {
    /// One inline capability.
    Inline {
        /// Capability kind.
        kind: CCapKind,
        /// Address expression.
        ptr: CExpr,
        /// Size (WRITE only).
        size: CSize,
    },
    /// A capability iterator applied to an argument expression.
    Iter {
        /// Interned iterator.
        func: IteratorId,
        /// Iterator argument.
        arg: CExpr,
    },
}

/// A compiled action.
#[derive(Debug, Clone)]
pub enum CAction {
    /// Grant a copy to the destination (source keeps its copy).
    Copy(CCapList),
    /// Move to the destination, revoking every other copy (§3.3).
    Transfer(CCapList),
    /// Require the caller to own the capability.
    Check(CCapList),
    /// Run the inner action when the condition is non-zero.
    If(CExpr, Box<CAction>),
}

/// A compiled `principal(...)` clause.
#[derive(Debug, Clone)]
pub enum CPrincipal {
    /// The module's shared principal.
    Shared,
    /// The module's global principal.
    Global,
    /// The instance principal named by the argument at this position.
    Arg(u32),
    /// `principal(name)` where `name` is not a parameter: selecting a
    /// principal reports this error (matching pre-compilation behavior).
    UnknownArg(String),
}

/// A fully compiled annotation set.
#[derive(Debug, Clone, Default)]
pub struct CompiledAnn {
    /// Compiled `principal(...)` clause, if any.
    pub principal: Option<CPrincipal>,
    /// Compiled `pre` actions.
    pub pre: Vec<CAction>,
    /// Compiled `post` actions.
    pub post: Vec<CAction>,
}

fn compile_expr(e: &Expr, params: &[Param], rt: &RuntimeCore) -> CExpr {
    match e {
        Expr::Int(v) => CExpr::Int(*v),
        Expr::Return => CExpr::Return,
        Expr::Ident(name) => match params.iter().position(|p| &p.name == name) {
            Some(i) => CExpr::Param(i as u32),
            None => CExpr::Const(rt.const_id(name)),
        },
        Expr::Neg(inner) => CExpr::Neg(Box::new(compile_expr(inner, params, rt))),
        Expr::Not(inner) => CExpr::Not(Box::new(compile_expr(inner, params, rt))),
        Expr::Bin(op, l, r) => CExpr::Bin(
            *op,
            Box::new(compile_expr(l, params, rt)),
            Box::new(compile_expr(r, params, rt)),
        ),
    }
}

fn compile_default_size(ptr: &Expr, params: &[Param], layouts: &TypeLayouts) -> CSize {
    let Expr::Ident(name) = ptr else {
        return CSize::Unresolved(format!("cannot infer sizeof(*({ptr})): not a parameter"));
    };
    match crate::iface::param_pointee_size(params, name, layouts) {
        Some(s) => CSize::Sizeof(s),
        None => CSize::Unresolved(format!("no pointee type known for parameter `{name}`")),
    }
}

fn compile_caplist(
    caps: &CapList,
    params: &[Param],
    layouts: &TypeLayouts,
    rt: &RuntimeCore,
) -> CCapList {
    match caps {
        CapList::Inline { ctype, ptr, size } => {
            let kind = match ctype {
                CapTypeExpr::Write => CCapKind::Write,
                CapTypeExpr::Call => CCapKind::Call,
                CapTypeExpr::Ref(tname) => CCapKind::Ref(rt.ref_type(tname)),
            };
            let csize = match (ctype, size) {
                (CapTypeExpr::Write, Some(e)) => CSize::Expr(compile_expr(e, params, rt)),
                (CapTypeExpr::Write, None) => compile_default_size(ptr, params, layouts),
                // CALL and REF capabilities are sizeless.
                _ => CSize::Sizeof(0),
            };
            CCapList::Inline {
                kind,
                ptr: compile_expr(ptr, params, rt),
                size: csize,
            }
        }
        CapList::Iter { func, arg } => CCapList::Iter {
            func: rt.iterator_id(func),
            arg: compile_expr(arg, params, rt),
        },
    }
}

fn compile_action(
    a: &Action,
    params: &[Param],
    layouts: &TypeLayouts,
    rt: &RuntimeCore,
) -> CAction {
    match a {
        Action::Copy(c) => CAction::Copy(compile_caplist(c, params, layouts, rt)),
        Action::Transfer(c) => CAction::Transfer(compile_caplist(c, params, layouts, rt)),
        Action::Check(c) => CAction::Check(compile_caplist(c, params, layouts, rt)),
        Action::If(cond, inner) => CAction::If(
            compile_expr(cond, params, rt),
            Box::new(compile_action(inner, params, layouts, rt)),
        ),
    }
}

/// Compiles an annotation set against its declaration's parameters.
///
/// Idempotent and order-independent with respect to constant / iterator
/// registration: unknown names intern empty slots that later
/// `define_const` / `register_iterator` calls fill in.
pub fn compile_annotations(
    ann: &FnAnnotations,
    params: &[Param],
    layouts: &TypeLayouts,
    rt: &RuntimeCore,
) -> CompiledAnn {
    let principal = ann.principal.as_ref().map(|p| match p {
        PrincipalExpr::Shared => CPrincipal::Shared,
        PrincipalExpr::Global => CPrincipal::Global,
        PrincipalExpr::Arg(name) => match params.iter().position(|q| &q.name == name) {
            Some(i) => CPrincipal::Arg(i as u32),
            None => CPrincipal::UnknownArg(name.clone()),
        },
    });
    CompiledAnn {
        principal,
        pre: ann
            .pre
            .iter()
            .map(|a| compile_action(a, params, layouts, rt))
            .collect(),
        post: ann
            .post
            .iter()
            .map(|a| compile_action(a, params, layouts, rt))
            .collect(),
    }
}

/// The values a compiled expression reads at one call.
#[derive(Debug, Clone, Copy)]
pub struct CallValues<'a> {
    /// Argument values, by position.
    pub args: &'a [Word],
    /// Return value (`post` actions only).
    pub ret: Option<Word>,
}

/// Evaluates a compiled expression; booleans are 0/1. Semantics mirror
/// `lxfi_annotations::eval_expr` (wrapping signed arithmetic,
/// short-circuit `&&`/`||`, checked division).
pub fn eval_compiled(e: &CExpr, vals: CallValues<'_>, rt: &RuntimeCore) -> Result<i64, Violation> {
    Ok(match e {
        CExpr::Int(v) => *v,
        CExpr::Return => vals.ret.ok_or_else(|| Violation::BadExpression {
            why: "`return` referenced in a pre action".into(),
        })? as i64,
        CExpr::Param(i) => {
            vals.args
                .get(*i as usize)
                .copied()
                .ok_or_else(|| Violation::BadExpression {
                    why: format!("argument {i} not provided"),
                })? as i64
        }
        CExpr::Const(id) => rt
            .const_value(*id)
            .ok_or_else(|| Violation::BadExpression {
                why: format!("unknown identifier `{}` in annotation", rt.const_name(*id)),
            })?,
        CExpr::Neg(inner) => eval_compiled(inner, vals, rt)?.wrapping_neg(),
        CExpr::Not(inner) => i64::from(eval_compiled(inner, vals, rt)? == 0),
        CExpr::Bin(op, l, r) => {
            let lv = eval_compiled(l, vals, rt)?;
            match op {
                BinExprOp::And => {
                    return Ok(if lv != 0 {
                        i64::from(eval_compiled(r, vals, rt)? != 0)
                    } else {
                        0
                    })
                }
                BinExprOp::Or => {
                    return Ok(if lv != 0 {
                        1
                    } else {
                        i64::from(eval_compiled(r, vals, rt)? != 0)
                    })
                }
                _ => {}
            }
            let rv = eval_compiled(r, vals, rt)?;
            match op {
                BinExprOp::Add => lv.wrapping_add(rv),
                BinExprOp::Sub => lv.wrapping_sub(rv),
                BinExprOp::Mul => lv.wrapping_mul(rv),
                BinExprOp::Div => lv.checked_div(rv).ok_or(Violation::BadExpression {
                    why: "division by zero in annotation".into(),
                })?,
                BinExprOp::Eq => i64::from(lv == rv),
                BinExprOp::Ne => i64::from(lv != rv),
                BinExprOp::Lt => i64::from(lv < rv),
                BinExprOp::Le => i64::from(lv <= rv),
                BinExprOp::Gt => i64::from(lv > rv),
                BinExprOp::Ge => i64::from(lv >= rv),
                BinExprOp::And | BinExprOp::Or => unreachable!("handled above"),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_annotations::parse_fn_annotations;

    #[test]
    fn idents_resolve_params_before_consts() {
        let rt = RuntimeCore::new();
        rt.define_const("len", 999); // shadowed by the parameter below
        let ann = parse_fn_annotations("pre(if (len > 32) check(write, skb, len))").unwrap();
        let params = vec![Param::ptr("skb", "sk_buff"), Param::scalar("len")];
        let c = compile_annotations(&ann, &params, &TypeLayouts::new(), &rt);
        let CAction::If(cond, _) = &c.pre[0] else {
            panic!("expected if");
        };
        let vals = CallValues {
            args: &[0x1000, 64],
            ret: None,
        };
        assert_eq!(eval_compiled(cond, vals, &rt).unwrap(), 1);
    }

    #[test]
    fn consts_may_be_defined_after_compilation() {
        let rt = RuntimeCore::new();
        let ann = parse_fn_annotations("post(if (return == -NETDEV_BUSY) transfer(write, p, 8))")
            .unwrap();
        let params = vec![Param::ptr("p", "sk_buff")];
        let c = compile_annotations(&ann, &params, &TypeLayouts::new(), &rt);
        let CAction::If(cond, _) = &c.post[0] else {
            panic!("expected if");
        };
        let vals = CallValues {
            args: &[0],
            ret: Some((-16i64) as u64),
        };
        // Undefined constant: evaluation reports the unknown identifier.
        let err = eval_compiled(cond, vals, &rt).unwrap_err();
        assert!(matches!(err, Violation::BadExpression { .. }));
        // Late definition fills the interned slot.
        rt.define_const("NETDEV_BUSY", 16);
        assert_eq!(eval_compiled(cond, vals, &rt).unwrap(), 1);
    }

    #[test]
    fn sizeof_defaults_resolve_at_compile_time() {
        let rt = RuntimeCore::new();
        let mut layouts = TypeLayouts::new();
        layouts.define("spinlock_t", 8);
        let ann = parse_fn_annotations("pre(check(write, lock))").unwrap();
        let params = vec![Param::ptr("lock", "spinlock_t")];
        let c = compile_annotations(&ann, &params, &layouts, &rt);
        let CAction::Check(CCapList::Inline { size, .. }) = &c.pre[0] else {
            panic!("expected inline check");
        };
        assert!(matches!(size, CSize::Sizeof(8)));
    }

    #[test]
    fn return_in_pre_is_an_error() {
        let rt = RuntimeCore::new();
        let vals = CallValues {
            args: &[],
            ret: None,
        };
        let err = eval_compiled(&CExpr::Return, vals, &rt).unwrap_err();
        assert!(matches!(err, Violation::BadExpression { .. }));
    }
}
