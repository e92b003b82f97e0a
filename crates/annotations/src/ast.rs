//! AST of the annotation language, with a canonical printer.
//!
//! The canonical printed form defines annotation identity: two annotation
//! sets are "exactly the same" (the propagation rule of §4.2) iff their
//! canonical prints are equal, and the annotation hash (§4.1) is computed
//! over the canonical print.

use std::fmt;

/// Expression over a function's arguments and return value.
///
/// Expressions evaluate over signed 64-bit integers; kernel error-code
/// conventions (`return < 0`) work as expected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Reference to a named function parameter, or a named kernel constant
    /// (e.g. `NETDEV_BUSY`) resolved at evaluation time.
    Ident(String),
    /// The function's return value; only meaningful in `post` actions.
    Return,
    /// Unary negation.
    Neg(Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
    /// Binary operation.
    Bin(BinExprOp, Box<Expr>, Box<Expr>),
}

/// Binary operators available in annotation expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinExprOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinExprOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinExprOp::Add => "+",
            BinExprOp::Sub => "-",
            BinExprOp::Mul => "*",
            BinExprOp::Div => "/",
            BinExprOp::Eq => "==",
            BinExprOp::Ne => "!=",
            BinExprOp::Lt => "<",
            BinExprOp::Le => "<=",
            BinExprOp::Gt => ">",
            BinExprOp::Ge => ">=",
            BinExprOp::And => "&&",
            BinExprOp::Or => "||",
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Ident(s) => write!(f, "{s}"),
            Expr::Return => write!(f, "return"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
        }
    }
}

/// Capability type expression in a caplist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CapTypeExpr {
    /// `write` — WRITE capability over a byte range.
    Write,
    /// `call` — CALL capability for a code address.
    Call,
    /// `ref(type-name)` — REF capability of the named type (§3.2); the
    /// type need not be a C type (Guideline 3 uses synthetic types).
    Ref(String),
}

impl fmt::Display for CapTypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapTypeExpr::Write => write!(f, "write"),
            CapTypeExpr::Call => write!(f, "call"),
            CapTypeExpr::Ref(t) => write!(f, "ref({t})"),
        }
    }
}

/// The capabilities an action applies to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CapList {
    /// `(c, ptr [, size])` — one capability given inline. A missing size
    /// defaults to `sizeof(*ptr)`, resolved against the annotated
    /// parameter's declared type at enforcement time.
    Inline {
        /// Capability type.
        ctype: CapTypeExpr,
        /// Address (or, for `call`, target) expression.
        ptr: Expr,
        /// Optional size expression.
        size: Option<Expr>,
    },
    /// `iterator-func(c-expr)` — a programmer-supplied capability iterator
    /// (§3.3), e.g. `skb_caps(skb)`, which walks a data structure and
    /// emits each contained capability.
    Iter {
        /// Registered iterator name.
        func: String,
        /// Argument expression.
        arg: Expr,
    },
}

impl fmt::Display for CapList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapList::Inline {
                ctype,
                ptr,
                size: None,
            } => write!(f, "{ctype}, {ptr}"),
            CapList::Inline {
                ctype,
                ptr,
                size: Some(s),
            } => write!(f, "{ctype}, {ptr}, {s}"),
            CapList::Iter { func, arg } => write!(f, "{func}({arg})"),
        }
    }
}

/// A capability action performed before or after a call (§3.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Grant a copy of the capability across the boundary (caller→callee
    /// for `pre`, callee→caller for `post`); the grantor must own it.
    Copy(CapList),
    /// Move the capability across the boundary and revoke it from **all**
    /// principals, so no stale copies survive (§3.3).
    Transfer(CapList),
    /// Verify the caller owns the capability; always a `pre` action.
    Check(CapList),
    /// Conditionally perform an action, e.g.
    /// `if (return < 0) transfer(...)`.
    If(Expr, Box<Action>),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Copy(c) => write!(f, "copy({c})"),
            Action::Transfer(c) => write!(f, "transfer({c})"),
            Action::Check(c) => write!(f, "check({c})"),
            Action::If(e, a) => write!(f, "if ({e}) {a}"),
        }
    }
}

/// The callee principal named by a `principal(...)` annotation (§3.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrincipalExpr {
    /// A pointer-valued parameter naming the instance principal.
    Arg(String),
    /// The module's global principal (union of all instance privileges).
    Global,
    /// The module's shared principal (privileges common to all instances).
    Shared,
}

impl fmt::Display for PrincipalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrincipalExpr::Arg(a) => write!(f, "{a}"),
            PrincipalExpr::Global => write!(f, "global"),
            PrincipalExpr::Shared => write!(f, "shared"),
        }
    }
}

/// One annotation clause as parsed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Annotation {
    /// `pre(action)` — run before the call.
    Pre(Action),
    /// `post(action)` — run after the call returns.
    Post(Action),
    /// `principal(p)` — execute the callee as this principal.
    Principal(PrincipalExpr),
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Annotation::Pre(a) => write!(f, "pre({a})"),
            Annotation::Post(a) => write!(f, "post({a})"),
            Annotation::Principal(p) => write!(f, "principal({p})"),
        }
    }
}

/// The complete annotation set attached to one function or one
/// function-pointer type.
///
/// In the absence of a `principal` annotation, the module's *shared*
/// principal is used (Figure 3's last row).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FnAnnotations {
    /// Callee principal, if any.
    pub principal: Option<PrincipalExpr>,
    /// Actions run before the call, in source order.
    pub pre: Vec<Action>,
    /// Actions run after the call, in source order.
    pub post: Vec<Action>,
}

impl FnAnnotations {
    /// An empty annotation set (the safe default: a function with no
    /// annotations cannot be called by a module at all — that is enforced
    /// by the kernel's interface registry, not here).
    pub fn empty() -> Self {
        Self::default()
    }

    /// True if no clauses are present.
    pub fn is_empty(&self) -> bool {
        self.principal.is_none() && self.pre.is_empty() && self.post.is_empty()
    }

    /// Canonical textual form: `principal` first, then `pre` clauses in
    /// source order, then `post` clauses, separated by single spaces.
    /// Identity and hashing are defined over this string; it is the
    /// [`fmt::Display`] print, which [`crate::annotation_hash`] streams
    /// without building the string.
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// Iterates over all caplists mentioned anywhere in the annotation set
    /// (used by the annotation census for Figure 9).
    pub fn caplists(&self) -> Vec<&CapList> {
        fn collect<'a>(a: &'a Action, out: &mut Vec<&'a CapList>) {
            match a {
                Action::Copy(c) | Action::Transfer(c) | Action::Check(c) => out.push(c),
                Action::If(_, inner) => collect(inner, out),
            }
        }
        let mut out = Vec::new();
        for a in self.pre.iter().chain(self.post.iter()) {
            collect(a, &mut out);
        }
        out
    }

    /// Names of capability iterators referenced by this annotation set.
    pub fn iterator_names(&self) -> Vec<&str> {
        self.caplists()
            .into_iter()
            .filter_map(|c| match c {
                CapList::Iter { func, .. } => Some(func.as_str()),
                CapList::Inline { .. } => None,
            })
            .collect()
    }
}

impl fmt::Display for FnAnnotations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(p) = &self.principal {
            write!(f, "principal({p})")?;
            sep = " ";
        }
        for a in &self.pre {
            write!(f, "{sep}pre({a})")?;
            sep = " ";
        }
        for a in &self.post {
            write!(f, "{sep}post({a})")?;
            sep = " ";
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_ordering_is_stable() {
        let ann = FnAnnotations {
            principal: Some(PrincipalExpr::Arg("dev".into())),
            pre: vec![Action::Check(CapList::Inline {
                ctype: CapTypeExpr::Ref("struct pci_dev".into()),
                ptr: Expr::Ident("pcidev".into()),
                size: None,
            })],
            post: vec![Action::If(
                Expr::Bin(
                    BinExprOp::Lt,
                    Box::new(Expr::Return),
                    Box::new(Expr::Int(0)),
                ),
                Box::new(Action::Transfer(CapList::Iter {
                    func: "skb_caps".into(),
                    arg: Expr::Ident("skb".into()),
                })),
            )],
        };
        assert_eq!(
            ann.canonical(),
            "principal(dev) pre(check(ref(struct pci_dev), pcidev)) \
             post(if ((return < 0)) transfer(skb_caps(skb)))"
        );
    }

    #[test]
    fn caplist_collection_descends_into_if() {
        let ann = FnAnnotations {
            principal: None,
            pre: vec![],
            post: vec![Action::If(
                Expr::Int(1),
                Box::new(Action::Transfer(CapList::Iter {
                    func: "skb_caps".into(),
                    arg: Expr::Ident("skb".into()),
                })),
            )],
        };
        assert_eq!(ann.caplists().len(), 1);
        assert_eq!(ann.iterator_names(), vec!["skb_caps"]);
    }

    #[test]
    fn empty_annotations() {
        assert!(FnAnnotations::empty().is_empty());
        assert_eq!(FnAnnotations::empty().canonical(), "");
    }
}
