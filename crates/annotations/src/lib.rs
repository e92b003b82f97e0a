//! The LXFI annotation language (Figure 2 of the paper).
//!
//! Kernel developers describe *API integrity* contracts as lightweight
//! annotations on function prototypes and function-pointer types:
//!
//! ```text
//! annotation ::= pre(action) | post(action) | principal(p-expr)
//! action     ::= copy(caplist) | transfer(caplist) | check(caplist)
//!              | if (c-expr) action
//! caplist    ::= captype, ptr [, size] | iterator-func(c-expr)
//! captype    ::= write | call | ref(type-name)
//! ```
//!
//! Examples (from Figure 4):
//!
//! ```
//! use lxfi_annotations::parse_fn_annotations;
//!
//! let ann = parse_fn_annotations(
//!     "principal(pcidev) \
//!      pre(copy(ref(struct pci_dev), pcidev)) \
//!      post(if (return < 0) transfer(ref(struct pci_dev), pcidev))",
//! ).unwrap();
//! assert!(ann.principal.is_some());
//! assert_eq!(ann.pre.len(), 1);
//! assert_eq!(ann.post.len(), 1);
//! ```
//!
//! The crate provides:
//! - the AST ([`ast`]) with a canonical printer,
//! - a recursive-descent parser ([`parse`]),
//! - a stable 64-bit annotation hash ([`hash`]) — the `ahash` compared by
//!   `lxfi_check_indcall` to ensure a module cannot launder a function
//!   through a differently-annotated pointer type (§4.1).
//!
//! Expressions are evaluated by the runtime, not here: `lxfi-core`
//! compiles each annotation against its function's parameters once and
//! evaluates the compiled form at every call.

pub mod ast;
pub mod hash;
pub mod parse;

pub use ast::{
    Action, Annotation, BinExprOp, CapList, CapTypeExpr, Expr, FnAnnotations, PrincipalExpr,
};
pub use hash::annotation_hash;
pub use parse::{parse_annotation_list, parse_fn_annotations, ParseError};
