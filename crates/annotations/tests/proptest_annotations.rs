//! Property tests for the annotation language: canonical-form round
//! trips and hash identity over randomly generated annotation ASTs.

use proptest::prelude::*;

use lxfi_annotations::ast::{
    Action, BinExprOp, CapList, CapTypeExpr, Expr, FnAnnotations, PrincipalExpr,
};
use lxfi_annotations::hash::fnv1a;
use lxfi_annotations::{annotation_hash, parse_fn_annotations};

fn arb_ident() -> impl Strategy<Value = String> {
    // Avoid keywords of the grammar.
    "[a-z][a-z0-9_]{0,8}".prop_filter("keyword", |s| {
        !matches!(
            s.as_str(),
            "pre"
                | "post"
                | "principal"
                | "copy"
                | "transfer"
                | "check"
                | "if"
                | "write"
                | "call"
                | "ref"
                | "return"
                | "global"
                | "shared"
        )
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    // Non-negative literals only: the parser renders `-1` as Neg(Int(1)),
    // so negative Int nodes are outside the canonical image.
    let leaf = prop_oneof![
        (0i64..1000).prop_map(Expr::Int),
        arb_ident().prop_map(Expr::Ident),
        Just(Expr::Return),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (
                prop_oneof![
                    Just(BinExprOp::Add),
                    Just(BinExprOp::Sub),
                    Just(BinExprOp::Mul),
                    Just(BinExprOp::Eq),
                    Just(BinExprOp::Ne),
                    Just(BinExprOp::Lt),
                    Just(BinExprOp::Le),
                    Just(BinExprOp::Gt),
                    Just(BinExprOp::Ge),
                    Just(BinExprOp::And),
                    Just(BinExprOp::Or),
                ],
                inner.clone(),
                inner
            )
                .prop_map(|(op, l, r)| Expr::Bin(op, Box::new(l), Box::new(r))),
        ]
    })
}

fn arb_captype() -> impl Strategy<Value = CapTypeExpr> {
    prop_oneof![
        Just(CapTypeExpr::Write),
        Just(CapTypeExpr::Call),
        arb_ident().prop_map(CapTypeExpr::Ref),
        (arb_ident(), arb_ident()).prop_map(|(a, b)| CapTypeExpr::Ref(format!("{a} {b}"))),
    ]
}

fn arb_caplist() -> impl Strategy<Value = CapList> {
    prop_oneof![
        (arb_captype(), arb_expr(), proptest::option::of(arb_expr()))
            .prop_map(|(ctype, ptr, size)| CapList::Inline { ctype, ptr, size }),
        (arb_ident(), arb_expr()).prop_map(|(func, arg)| CapList::Iter { func, arg }),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    let base = prop_oneof![
        arb_caplist().prop_map(Action::Copy),
        arb_caplist().prop_map(Action::Transfer),
        arb_caplist().prop_map(Action::Check),
    ];
    base.prop_recursive(2, 8, 1, |inner| {
        (arb_expr(), inner).prop_map(|(c, a)| Action::If(c, Box::new(a)))
    })
}

fn strip_checks(a: &Action) -> bool {
    match a {
        Action::Check(_) => false,
        Action::If(_, inner) => strip_checks(inner),
        _ => true,
    }
}

fn arb_annotations() -> impl Strategy<Value = FnAnnotations> {
    (
        proptest::option::of(prop_oneof![
            Just(PrincipalExpr::Global),
            Just(PrincipalExpr::Shared),
            arb_ident().prop_map(PrincipalExpr::Arg),
        ]),
        proptest::collection::vec(arb_action(), 0..4),
        proptest::collection::vec(arb_action(), 0..4),
    )
        .prop_map(|(principal, pre, post)| FnAnnotations {
            principal,
            pre,
            // `check` is pre-only; drop it from post clauses.
            post: post.into_iter().filter(strip_checks).collect(),
        })
}

/// The canonical printer as it stood before the annotation hash began
/// streaming it: one string per clause, joined by single spaces.
fn reference_canonical(ann: &FnAnnotations) -> String {
    let mut parts = Vec::new();
    if let Some(p) = &ann.principal {
        parts.push(format!("principal({p})"));
    }
    for a in &ann.pre {
        parts.push(format!("pre({a})"));
    }
    for a in &ann.post {
        parts.push(format!("post({a})"));
    }
    parts.join(" ")
}

proptest! {
    /// The streamed hash is FNV-1a over the canonical print, and that
    /// print is byte for byte the one identity was defined over.
    #[test]
    fn hash_is_fnv_of_the_canonical_print(ann in arb_annotations()) {
        let text = ann.canonical();
        prop_assert_eq!(&text, &reference_canonical(&ann));
        prop_assert_eq!(annotation_hash(&ann), fnv1a(text.as_bytes()));
        prop_assert_eq!(ann.to_string(), text);
    }

    /// canonical → parse → canonical is a fixpoint for arbitrary ASTs.
    #[test]
    fn canonical_parse_roundtrip(ann in arb_annotations()) {
        let text = ann.canonical();
        let reparsed = parse_fn_annotations(&text)
            .unwrap_or_else(|e| panic!("reparse `{text}`: {e}"));
        prop_assert_eq!(reparsed.canonical(), text);
    }

    /// Hash equality coincides with canonical equality.
    #[test]
    fn hash_iff_canonical(a in arb_annotations(), b in arb_annotations()) {
        let ha = annotation_hash(&a);
        let hb = annotation_hash(&b);
        if a.canonical() == b.canonical() {
            prop_assert_eq!(ha, hb);
        } else {
            // FNV-1a collisions over short strings are astronomically
            // unlikely; treat one as a bug.
            prop_assert_ne!(ha, hb);
        }
    }

    /// The hash is stable under a parse round trip — the module-side and
    /// kernel-side hashes of the same source always match (§4.1).
    #[test]
    fn hash_stable_across_parse(ann in arb_annotations()) {
        let reparsed = parse_fn_annotations(&ann.canonical()).unwrap();
        prop_assert_eq!(annotation_hash(&ann), annotation_hash(&reparsed));
    }
}
