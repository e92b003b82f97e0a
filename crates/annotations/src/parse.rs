//! Recursive-descent parser for the annotation surface syntax.

use crate::ast::{
    Action, Annotation, BinExprOp, CapList, CapTypeExpr, Expr, FnAnnotations, PrincipalExpr,
};

/// Error from parsing annotation text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Explanation.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "annotation parse error at byte {}: {}",
            self.pos, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// A token; identifiers borrow from the parsed text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Op(&'static str),
}

/// Operators, two-character ones first so `<=` is not lexed as `<`.
const OPS: [&str; 13] = [
    "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "<", ">", "!",
];

fn lex(src: &str) -> Result<Vec<(usize, Tok<'_>)>, ParseError> {
    let mut toks = Vec::new();
    let mut pos = 0;
    while let Some(&c) = src.as_bytes().get(pos) {
        let rest = &src[pos..];
        let run = |ok: fn(u8) -> bool| rest.bytes().take_while(|&ch| ok(ch)).count();
        let (tok, len) = match c {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
                continue;
            }
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b',' => (Tok::Comma, 1),
            b'0'..=b'9' => {
                let n = run(|ch| ch.is_ascii_digit());
                let v = rest[..n].parse().map_err(|_| ParseError {
                    pos,
                    msg: "integer overflow".into(),
                })?;
                (Tok::Int(v), n)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let n = run(|ch| ch.is_ascii_alphanumeric() || ch == b'_');
                (Tok::Ident(&rest[..n]), n)
            }
            _ => match OPS.into_iter().find(|op| rest.starts_with(op)) {
                Some(op) => (Tok::Op(op), op.len()),
                None => {
                    return Err(ParseError {
                        pos,
                        msg: format!("unexpected character `{}`", c as char),
                    })
                }
            },
        };
        toks.push((pos, tok));
        pos += len;
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<(usize, Tok<'a>)>,
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.i).map(|(_, t)| t)
    }

    fn peek2(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.i + 1).map(|(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.i).map(|(p, _)| *p).unwrap_or(usize::MAX)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.i).map(|&(_, t)| t);
        self.i += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            pos: self.pos(),
            msg: msg.into(),
        })
    }

    fn expect(&mut self, want: &Tok<'_>, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    // ------------------------------------------------------- expressions

    /// Parses `next`-level operands joined by any of `ops`: a
    /// left-associative chain, or at most one operator unless `chain`.
    fn parse_level(
        &mut self,
        ops: &[BinExprOp],
        chain: bool,
        next: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let mut lhs = next(self)?;
        while let Some(&op) = ops
            .iter()
            .find(|op| self.peek() == Some(&Tok::Op(op.symbol())))
        {
            self.next();
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(next(self)?));
            if !chain {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_level(&[BinExprOp::Or], true, Self::parse_and)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        self.parse_level(&[BinExprOp::And], true, Self::parse_cmp)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        use BinExprOp::*;
        self.parse_level(&[Eq, Ne, Lt, Le, Gt, Ge], false, Self::parse_add)
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        self.parse_level(&[BinExprOp::Add, BinExprOp::Sub], true, Self::parse_mul)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        self.parse_level(&[BinExprOp::Mul, BinExprOp::Div], true, Self::parse_unary)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Tok::Op("-")) => {
                self.next();
                Ok(Expr::Neg(Box::new(self.parse_unary()?)))
            }
            Some(Tok::Op("!")) => {
                self.next();
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Ident("return")) => Ok(Expr::Return),
            Some(Tok::Ident(s)) => Ok(Expr::Ident(s.into())),
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            other => Err(ParseError {
                pos: self.pos(),
                msg: format!("expected expression, found {other:?}"),
            }),
        }
    }

    // ----------------------------------------------------------- actions

    /// Parses a type name inside `ref( ... )`: a sequence of identifiers
    /// joined by single spaces (e.g. `struct pci_dev`).
    fn parse_type_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.expect_ident()?.to_string();
        while let Some(Tok::Ident(_)) = self.peek() {
            name.push(' ');
            name.push_str(self.expect_ident()?);
        }
        Ok(name)
    }

    fn parse_caplist(&mut self) -> Result<CapList, ParseError> {
        match self.peek() {
            Some(&Tok::Ident(kw)) if kw == "write" || kw == "call" => {
                let ctype = if kw == "write" {
                    CapTypeExpr::Write
                } else {
                    CapTypeExpr::Call
                };
                self.next();
                self.expect(&Tok::Comma, ",")?;
                self.parse_caplist_tail(ctype)
            }
            Some(&Tok::Ident("ref")) => {
                self.next();
                self.expect(&Tok::LParen, "(")?;
                let t = self.parse_type_name()?;
                self.expect(&Tok::RParen, ")")?;
                self.expect(&Tok::Comma, ",")?;
                self.parse_caplist_tail(CapTypeExpr::Ref(t))
            }
            Some(Tok::Ident(_)) if self.peek2() == Some(&Tok::LParen) => {
                // Iterator function: `name(expr)`.
                let func = self.expect_ident()?.to_string();
                self.expect(&Tok::LParen, "(")?;
                let arg = self.parse_expr()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(CapList::Iter { func, arg })
            }
            _ => self.err("expected caplist (write/call/ref/iterator)"),
        }
    }

    fn parse_caplist_tail(&mut self, ctype: CapTypeExpr) -> Result<CapList, ParseError> {
        let ptr = self.parse_expr()?;
        let size = if self.peek() == Some(&Tok::Comma) {
            self.next();
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(CapList::Inline { ctype, ptr, size })
    }

    fn parse_action(&mut self) -> Result<Action, ParseError> {
        let kw = self.expect_ident()?;
        match kw {
            "copy" | "transfer" | "check" => {
                self.expect(&Tok::LParen, "(")?;
                let caps = self.parse_caplist()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(match kw {
                    "copy" => Action::Copy(caps),
                    "transfer" => Action::Transfer(caps),
                    _ => Action::Check(caps),
                })
            }
            "if" => {
                self.expect(&Tok::LParen, "(")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, ")")?;
                let inner = self.parse_action()?;
                Ok(Action::If(cond, Box::new(inner)))
            }
            other => self.err(format!("expected action keyword, found `{other}`")),
        }
    }

    fn parse_annotation(&mut self) -> Result<Annotation, ParseError> {
        let kw = self.expect_ident()?;
        match kw {
            "pre" | "post" => {
                self.expect(&Tok::LParen, "(")?;
                let a = self.parse_action()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(if kw == "pre" {
                    Annotation::Pre(a)
                } else {
                    Annotation::Post(a)
                })
            }
            "principal" => {
                self.expect(&Tok::LParen, "(")?;
                let name = self.expect_ident()?;
                let p = match name {
                    "global" => PrincipalExpr::Global,
                    "shared" => PrincipalExpr::Shared,
                    _ => PrincipalExpr::Arg(name.into()),
                };
                self.expect(&Tok::RParen, ")")?;
                Ok(Annotation::Principal(p))
            }
            other => self.err(format!("expected pre/post/principal, found `{other}`")),
        }
    }
}

/// Parses a whitespace-separated list of annotation clauses.
pub fn parse_annotation_list(src: &str) -> Result<Vec<Annotation>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, i: 0 };
    let mut anns = Vec::new();
    while p.peek().is_some() {
        anns.push(p.parse_annotation()?);
    }
    Ok(anns)
}

/// Parses a complete annotation set for one function or function-pointer
/// type. Rejects duplicate `principal` clauses and `check` in `post`
/// position (the grammar says all checks are `pre`, §3.3).
pub fn parse_fn_annotations(src: &str) -> Result<FnAnnotations, ParseError> {
    let anns = parse_annotation_list(src)?;
    let mut out = FnAnnotations::default();
    for a in anns {
        match a {
            Annotation::Principal(p) => {
                if out.principal.is_some() {
                    return Err(ParseError {
                        pos: 0,
                        msg: "duplicate principal(...) annotation".into(),
                    });
                }
                out.principal = Some(p);
            }
            Annotation::Pre(act) => out.pre.push(act),
            Annotation::Post(act) => {
                if contains_check(&act) {
                    return Err(ParseError {
                        pos: 0,
                        msg: "check(...) actions must be pre (all checks are pre, §3.3)".into(),
                    });
                }
                out.post.push(act);
            }
        }
    }
    Ok(out)
}

fn contains_check(a: &Action) -> bool {
    match a {
        Action::Check(_) => true,
        Action::If(_, inner) => contains_check(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure4_pci_probe() {
        let ann = parse_fn_annotations(
            "principal(pcidev) \
             pre(copy(ref(struct pci_dev), pcidev)) \
             post(if (return < 0) transfer(ref(struct pci_dev), pcidev))",
        )
        .unwrap();
        assert_eq!(ann.principal, Some(PrincipalExpr::Arg("pcidev".into())));
        assert_eq!(ann.pre.len(), 1);
        match &ann.pre[0] {
            Action::Copy(CapList::Inline { ctype, ptr, size }) => {
                assert_eq!(*ctype, CapTypeExpr::Ref("struct pci_dev".into()));
                assert_eq!(*ptr, Expr::Ident("pcidev".into()));
                assert!(size.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &ann.post[0] {
            Action::If(cond, inner) => {
                assert_eq!(
                    *cond,
                    Expr::Bin(
                        BinExprOp::Lt,
                        Box::new(Expr::Return),
                        Box::new(Expr::Int(0))
                    )
                );
                assert!(matches!(**inner, Action::Transfer(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_figure4_xmit_with_iterator() {
        let ann = parse_fn_annotations(
            "principal(dev) \
             pre(transfer(skb_caps(skb))) \
             post(if (return == -NETDEV_BUSY) transfer(skb_caps(skb)))",
        )
        .unwrap();
        assert_eq!(ann.principal, Some(PrincipalExpr::Arg("dev".into())));
        assert_eq!(ann.iterator_names(), vec!["skb_caps", "skb_caps"]);
    }

    #[test]
    fn parses_write_with_size() {
        let ann =
            parse_fn_annotations("post(if (return != 0) transfer(write, return, size))").unwrap();
        let caps = ann.caplists();
        assert!(matches!(
            caps[0],
            CapList::Inline {
                ctype: CapTypeExpr::Write,
                size: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_global_and_shared_principals() {
        assert_eq!(
            parse_fn_annotations("principal(global)").unwrap().principal,
            Some(PrincipalExpr::Global)
        );
        assert_eq!(
            parse_fn_annotations("principal(shared)").unwrap().principal,
            Some(PrincipalExpr::Shared)
        );
    }

    #[test]
    fn rejects_duplicate_principal() {
        assert!(parse_fn_annotations("principal(a) principal(b)").is_err());
    }

    #[test]
    fn rejects_post_check() {
        assert!(parse_fn_annotations("post(check(write, p, 8))").is_err());
        assert!(parse_fn_annotations("post(if (return != 0) check(write, p, 8))").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_fn_annotations("pre(frobnicate(write, p))").is_err());
        assert!(parse_fn_annotations("pre(copy(write p))").is_err());
        assert!(parse_fn_annotations("pre(copy(write, p)").is_err());
        assert!(parse_fn_annotations("wibble(x)").is_err());
    }

    #[test]
    fn rejects_non_ascii_text_with_an_error() {
        for src in ["€", "!€", "pre(é)", "principal(x) ∧"] {
            let err = parse_fn_annotations(src).unwrap_err();
            assert!(err.msg.starts_with("unexpected character"), "{src}: {err}");
        }
    }

    #[test]
    fn expression_precedence() {
        let ann =
            parse_fn_annotations("pre(if (a + b * 2 < c && c != 0) check(write, p, 8))").unwrap();
        let c = ann.canonical();
        assert!(c.contains("(((a + (b * 2)) < c) && (c != 0))"), "{c}");
    }

    #[test]
    fn parse_print_parse_fixpoint() {
        let srcs = [
            "principal(pcidev) pre(copy(ref(struct pci_dev), pcidev)) \
             post(if (return < 0) transfer(ref(struct pci_dev), pcidev))",
            "pre(transfer(skb_caps(skb)))",
            "pre(check(call, fn)) post(copy(write, buf, len))",
        ];
        for s in srcs {
            let a1 = parse_fn_annotations(s).unwrap();
            let printed = a1.canonical();
            let a2 = parse_fn_annotations(&printed).unwrap();
            assert_eq!(a1, a2, "fixpoint for {s}");
            assert_eq!(printed, a2.canonical());
        }
    }
}
