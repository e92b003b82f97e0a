//! Annotation propagation (§4.2).
//!
//! Annotations live on function-pointer *types* (e.g.
//! `net_device_ops.ndo_start_xmit`) and on kernel prototypes. A module
//! function like `myxmit` acquires its annotations from the type it is
//! assigned to — along initializations, assignments, and argument passing
//! (recorded as [`SigAssignment`] facts by the module builder). A function
//! reached from several sources must receive *exactly the same*
//! annotation set; a conflict is a compile-time error.
//!
//! [`SigAssignment`]: lxfi_machine::program::SigAssignment

use std::collections::HashMap;

use lxfi_core::iface::FnDecl;
use lxfi_machine::program::{FuncId, Program};

/// The annotated interface surface the module is compiled against.
#[derive(Debug, Default)]
pub struct InterfaceSpec {
    /// Function-pointer type name → annotated declaration.
    pub sig_decls: HashMap<String, FnDecl>,
    /// Explicit annotations on module functions (rare; most module
    /// functions get theirs by propagation).
    pub fn_decls: HashMap<String, FnDecl>,
}

impl InterfaceSpec {
    /// Creates an empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function-pointer type declaration.
    pub fn declare_sig(&mut self, decl: FnDecl) {
        self.sig_decls.insert(decl.name.clone(), decl);
    }

    /// Adds an explicit module-function declaration.
    pub fn declare_fn(&mut self, decl: FnDecl) {
        self.fn_decls.insert(decl.name.clone(), decl);
    }
}

/// Propagation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagateError {
    /// A function acquired two different annotation sets.
    Conflict {
        /// Module function name.
        func: String,
        /// First source and its canonical annotation.
        first: (String, String),
        /// Second source and its conflicting canonical annotation.
        second: (String, String),
    },
    /// A `SigAssignment` references a type the spec does not declare.
    UnknownSig {
        /// Module function name.
        func: String,
        /// Signature name.
        sig: String,
    },
}

impl std::fmt::Display for PropagateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropagateError::Conflict {
                func,
                first,
                second,
            } => write!(
                f,
                "function `{func}` has conflicting annotations: from {} `{}` vs from {} `{}`",
                first.0, first.1, second.0, second.1
            ),
            PropagateError::UnknownSig { func, sig } => {
                write!(f, "function `{func}` assigned to unannotated type `{sig}`")
            }
        }
    }
}

impl std::error::Error for PropagateError {}

/// Computes the final annotation set for every module function.
///
/// The result is order-independent: all sources are gathered first, then
/// checked pairwise for AST equality (§4.2: "LXFI verifies that these
/// annotations are exactly the same"). The canonical print only reports
/// a conflict: it is not injective (`Ident("return")` and `Return` print
/// alike but compile differently), so it never decides one. A source is
/// described in words only when it is reported.
pub fn propagate(
    program: &Program,
    spec: &InterfaceSpec,
) -> Result<HashMap<FuncId, FnDecl>, PropagateError> {
    let fname = |func: FuncId| &program.funcs[func.0 as usize].name;
    let sname = |sig: u32| &program.sigs[sig as usize].name;
    // (func, None) for an explicit declaration, (func, Some(sig)) per
    // pointer-type assignment; sorted, so the order is deterministic
    // regardless of recording order and explicit sources come first.
    let mut sources: Vec<(FuncId, Option<u32>)> = (0..program.funcs.len() as u32)
        .map(FuncId)
        .filter(|&f| spec.fn_decls.contains_key(fname(f)))
        .map(|f| (f, None))
        .chain(
            program
                .sig_assignments
                .iter()
                .map(|a| (a.func, Some(a.sig.0))),
        )
        .collect();
    sources.sort_unstable();
    let decls = sources
        .iter()
        .map(|&(func, sig)| match sig {
            None => Ok(&spec.fn_decls[fname(func)]),
            Some(sig) => spec
                .sig_decls
                .get(sname(sig))
                .ok_or_else(|| PropagateError::UnknownSig {
                    func: fname(func).clone(),
                    sig: sname(sig).clone(),
                }),
        })
        .collect::<Result<Vec<&FnDecl>, _>>()?;
    let describe = |func: FuncId, sig: Option<u32>| match sig {
        None => format!("explicit annotation on `{}`", fname(func)),
        Some(sig) => format!("pointer type `{}`", sname(sig)),
    };

    let mut out = HashMap::new();
    let mut i = 0;
    while i < sources.len() {
        let (func, first_src) = sources[i];
        let first = decls[i];
        let end = i + sources[i..].partition_point(|&(f, _)| f == func);
        for j in i + 1..end {
            let d = decls[j];
            if d.ann != first.ann {
                return Err(PropagateError::Conflict {
                    func: fname(func).clone(),
                    first: (describe(func, first_src), first.ann.canonical()),
                    second: (describe(func, sources[j].1), d.ann.canonical()),
                });
            }
        }
        // The function inherits the declaration with its own name; the
        // declaration is cloned once, here.
        let decl = FnDecl {
            name: fname(func).clone(),
            params: first.params.clone(),
            ann: first.ann.clone(),
            ahash: first.ahash,
            compiled: first.compiled.clone(),
        };
        out.insert(func, decl);
        i = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_annotations::{parse_fn_annotations, Action, CapList, Expr};
    use lxfi_core::iface::Param;
    use lxfi_machine::builder::ProgramBuilder;

    fn decl(name: &str, ann: &str) -> FnDecl {
        FnDecl::new(
            name,
            vec![
                Param::ptr("skb", "sk_buff"),
                Param::ptr("dev", "net_device"),
            ],
            parse_fn_annotations(ann).unwrap(),
        )
    }

    #[test]
    fn function_inherits_pointer_type_annotation() {
        let mut pb = ProgramBuilder::new("e1000");
        let sig = pb.sig("ndo_start_xmit", 2);
        let f = pb.define("myxmit", 2, 0, |f| f.ret_void());
        pb.assign_sig(f, sig);
        let p = pb.finish();

        let mut spec = InterfaceSpec::new();
        spec.declare_sig(decl(
            "ndo_start_xmit",
            "principal(dev) pre(transfer(skb_caps(skb)))",
        ));
        let map = propagate(&p, &spec).unwrap();
        let d = &map[&f];
        assert_eq!(d.name, "myxmit");
        assert!(d.ann.canonical().contains("skb_caps"));
    }

    #[test]
    fn matching_sources_are_accepted() {
        let mut pb = ProgramBuilder::new("m");
        let s1 = pb.sig("tx_a", 2);
        let s2 = pb.sig("tx_b", 2);
        let f = pb.define("myxmit", 2, 0, |f| f.ret_void());
        pb.assign_sig(f, s1);
        pb.assign_sig(f, s2);
        let p = pb.finish();
        let mut spec = InterfaceSpec::new();
        spec.declare_sig(decl("tx_a", "pre(transfer(skb_caps(skb)))"));
        spec.declare_sig(decl("tx_b", "pre(transfer(skb_caps(skb)))"));
        assert!(propagate(&p, &spec).is_ok());
    }

    #[test]
    fn conflicting_sources_are_rejected() {
        let mut pb = ProgramBuilder::new("m");
        let s1 = pb.sig("tx_a", 2);
        let s2 = pb.sig("tx_b", 2);
        let f = pb.define("myxmit", 2, 0, |f| f.ret_void());
        pb.assign_sig(f, s1);
        pb.assign_sig(f, s2);
        let p = pb.finish();
        let mut spec = InterfaceSpec::new();
        spec.declare_sig(decl("tx_a", "pre(transfer(skb_caps(skb)))"));
        spec.declare_sig(decl("tx_b", "pre(copy(skb_caps(skb)))"));
        let err = propagate(&p, &spec).unwrap_err();
        assert_eq!(
            err,
            PropagateError::Conflict {
                func: "myxmit".into(),
                first: (
                    "pointer type `tx_a`".into(),
                    "pre(transfer(skb_caps(skb)))".into()
                ),
                second: (
                    "pointer type `tx_b`".into(),
                    "pre(copy(skb_caps(skb)))".into()
                ),
            }
        );
        assert_eq!(
            err.to_string(),
            "function `myxmit` has conflicting annotations: from pointer type `tx_a` \
             `pre(transfer(skb_caps(skb)))` vs from pointer type `tx_b` \
             `pre(copy(skb_caps(skb)))`"
        );
    }

    #[test]
    fn explicit_and_propagated_must_match() {
        let mut pb = ProgramBuilder::new("m");
        let s1 = pb.sig("tx_a", 2);
        let f = pb.define("myxmit", 2, 0, |f| f.ret_void());
        pb.assign_sig(f, s1);
        let p = pb.finish();
        let mut spec = InterfaceSpec::new();
        spec.declare_sig(decl("tx_a", "pre(transfer(skb_caps(skb)))"));
        spec.declare_fn(decl("myxmit", "pre(check(write, skb, 8))"));
        let err = propagate(&p, &spec).unwrap_err();
        assert_eq!(
            err.to_string(),
            "function `myxmit` has conflicting annotations: from explicit annotation on \
             `myxmit` `pre(check(write, skb, 8))` vs from pointer type `tx_a` \
             `pre(transfer(skb_caps(skb)))`"
        );
    }

    #[test]
    fn sources_equal_only_in_canonical_form_are_a_conflict() {
        // `Ident("return")` and `Return` are different ASTs with one
        // print that compile differently; identity is the AST, so they
        // conflict.
        let mut pb = ProgramBuilder::new("m");
        let s1 = pb.sig("tx_a", 2);
        let s2 = pb.sig("tx_b", 2);
        let f = pb.define("myxmit", 2, 0, |f| f.ret_void());
        pb.assign_sig(f, s1);
        pb.assign_sig(f, s2);
        let p = pb.finish();
        let a = decl("tx_a", "pre(check(write, return, 8))");
        let mut b = a.clone();
        b.name = "tx_b".into();
        if let Action::Check(CapList::Inline { ptr, .. }) = &mut b.ann.pre[0] {
            *ptr = Expr::Ident("return".into());
        }
        assert_ne!(a.ann, b.ann);
        assert_eq!(a.ann.canonical(), b.ann.canonical());
        let mut spec = InterfaceSpec::new();
        spec.declare_sig(a);
        spec.declare_sig(b);
        assert!(matches!(
            propagate(&p, &spec),
            Err(PropagateError::Conflict { func, .. }) if func == "myxmit"
        ));
    }

    #[test]
    fn unknown_sig_is_an_error() {
        let mut pb = ProgramBuilder::new("m");
        let s1 = pb.sig("mystery_t", 2);
        let f = pb.define("g", 2, 0, |f| f.ret_void());
        pb.assign_sig(f, s1);
        let p = pb.finish();
        let err = propagate(&p, &InterfaceSpec::new()).unwrap_err();
        assert_eq!(
            err,
            PropagateError::UnknownSig {
                func: "g".into(),
                sig: "mystery_t".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "function `g` assigned to unannotated type `mystery_t`"
        );
    }

    #[test]
    fn result_is_order_independent() {
        // Record assignments in both orders; same outcome.
        let build = |swap: bool| {
            let mut pb = ProgramBuilder::new("m");
            let s1 = pb.sig("tx_a", 2);
            let s2 = pb.sig("tx_b", 2);
            let f = pb.define("myxmit", 2, 0, |f| f.ret_void());
            if swap {
                pb.assign_sig(f, s2);
                pb.assign_sig(f, s1);
            } else {
                pb.assign_sig(f, s1);
                pb.assign_sig(f, s2);
            }
            (pb.finish(), f)
        };
        let mut spec = InterfaceSpec::new();
        spec.declare_sig(decl("tx_a", "pre(transfer(skb_caps(skb)))"));
        spec.declare_sig(decl("tx_b", "pre(transfer(skb_caps(skb)))"));
        let (p1, f1) = build(false);
        let (p2, f2) = build(true);
        let m1 = propagate(&p1, &spec).unwrap();
        let m2 = propagate(&p2, &spec).unwrap();
        assert_eq!(m1[&f1].ann.canonical(), m2[&f2].ann.canonical());
    }

    #[test]
    fn unannotated_functions_get_nothing() {
        let mut pb = ProgramBuilder::new("m");
        let f = pb.define("internal_helper", 0, 0, |f| f.ret_void());
        let p = pb.finish();
        let map = propagate(&p, &InterfaceSpec::new()).unwrap();
        assert!(!map.contains_key(&f));
    }
}
