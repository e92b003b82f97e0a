//! Executing annotation actions at wrapper boundaries (§3.3, Figure 3).
//!
//! At each kernel/module crossing the wrapper runs the `pre` actions of
//! the callee's annotation before the call and the `post` actions after
//! it. Direction matters:
//!
//! | action            | pre                       | post                      |
//! |-------------------|---------------------------|---------------------------|
//! | `copy(c)`         | caller→callee (check own) | callee→caller (check own) |
//! | `transfer(c)`     | caller→callee, revoke all | callee→caller, revoke all |
//! | `check(c)`        | caller must own           | (rejected by the parser)  |
//! | `if (e) a`        | run `a` when `e` ≠ 0      | may reference `return`    |
//!
//! The trusted core kernel (`None` context) implicitly owns every
//! capability, so grants *to* the kernel are pure revocations and checks
//! *of* the kernel always pass.

use lxfi_machine::{AddressSpace, Word};

use crate::caps::RawCap;
use crate::compiled::{
    compile_annotations, eval_compiled, CAction, CCapKind, CCapList, CSize, CallValues, CompiledAnn,
};
use crate::handle::GuardHandle;
use crate::iface::{FnDecl, TypeLayouts};
use crate::runtime::{EmittedCap, RuntimeCore};
use crate::shadow::PrincipalCtx;
use crate::stats::GuardKind;
use crate::Violation;

/// Whether actions run before or after the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Before the call: source is the caller, destination the callee.
    Pre,
    /// After the call: source is the callee, destination the caller.
    Post,
}

/// One interposed call: declaration, arguments, and the two principal
/// contexts.
pub struct CallSite<'a> {
    /// The annotated declaration being enforced.
    pub decl: &'a FnDecl,
    /// Argument values.
    pub args: &'a [Word],
    /// Return value (available to `post` actions).
    pub ret: Option<Word>,
    /// Caller context (`None` = core kernel).
    pub caller: PrincipalCtx,
    /// Callee context (`None` = core kernel).
    pub callee: PrincipalCtx,
}

/// Applies the declaration's `pre` or `post` actions for one call.
///
/// Declarations registered through the kernel carry a pre-compiled,
/// name-free action IR (see [`crate::compiled`]); enforcement walks it
/// directly. A declaration that was never compiled (hand-built in a
/// test) is compiled on the fly — same semantics, registration-time
/// cost paid per call.
pub fn apply_actions(
    rt: &mut GuardHandle,
    mem: &AddressSpace,
    layouts: &TypeLayouts,
    site: &CallSite<'_>,
    dir: Dir,
) -> Result<(), Violation> {
    let owned;
    let compiled: &CompiledAnn = match &site.decl.compiled {
        Some(c) => c,
        None => {
            owned = compile_annotations(&site.decl.ann, &site.decl.params, layouts, rt);
            &owned
        }
    };
    let actions = match dir {
        Dir::Pre => &compiled.pre,
        Dir::Post => &compiled.post,
    };
    let vals = CallValues {
        args: site.args,
        ret: match dir {
            Dir::Pre => None,
            Dir::Post => site.ret,
        },
    };
    for a in actions {
        apply_one(rt, mem, site, dir, vals, a)?;
    }
    Ok(())
}

fn apply_one(
    rt: &mut GuardHandle,
    mem: &AddressSpace,
    site: &CallSite<'_>,
    dir: Dir,
    vals: CallValues<'_>,
    action: &CAction,
) -> Result<(), Violation> {
    match action {
        CAction::If(cond, inner) => {
            if eval_compiled(cond, vals, rt)? != 0 {
                apply_one(rt, mem, site, dir, vals, inner)?;
            }
            Ok(())
        }
        CAction::Copy(caps) => {
            let (src, dst) = endpoints(site, dir);
            for_each_cap(rt, mem, vals, caps, |rt, cap| {
                record_action(rt);
                require_owned(rt, src, cap)?;
                if let Some((_, p)) = dst {
                    rt.grant(p, cap);
                }
                Ok(())
            })
        }
        CAction::Transfer(caps) => {
            let (src, dst) = endpoints(site, dir);
            for_each_cap(rt, mem, vals, caps, |rt, cap| {
                record_action(rt);
                require_owned(rt, src, cap)?;
                // Transfer revokes the capability from ALL principals so no
                // copies survive (§3.3), then grants the destination. WRITE
                // caps with a single holder take the fast path.
                rt.transfer_cap(cap, dst.map(|(_, p)| p));
                Ok(())
            })
        }
        // All checks are pre: the caller must own the capability.
        CAction::Check(caps) => for_each_cap(rt, mem, vals, caps, |rt, cap| {
            record_action(rt);
            require_owned(rt, site.caller, cap)
        }),
    }
}

/// Resolves `caps` completely, then runs `f` on each capability in
/// order. The caplist resolves into the handle's reusable buffer, so
/// the handoff allocates nothing.
fn for_each_cap(
    rt: &mut GuardHandle,
    mem: &AddressSpace,
    vals: CallValues<'_>,
    caps: &CCapList,
    mut f: impl FnMut(&mut GuardHandle, RawCap) -> Result<(), Violation>,
) -> Result<(), Violation> {
    let mut resolved = std::mem::take(&mut rt.caps_scratch);
    resolved.clear();
    let r = resolve_caplist(rt, mem, vals, caps, &mut resolved)
        .and_then(|()| resolved.iter().try_for_each(|&cap| f(rt, cap.into())));
    rt.caps_scratch = resolved;
    r
}

fn record_action(rt: &mut GuardHandle) {
    let c = rt.costs.annotation_action;
    rt.stats.record(GuardKind::AnnotationAction, c);
}

/// `(source, destination)` of a grant for the given direction.
fn endpoints(site: &CallSite<'_>, dir: Dir) -> (PrincipalCtx, PrincipalCtx) {
    match dir {
        Dir::Pre => (site.caller, site.callee),
        Dir::Post => (site.callee, site.caller),
    }
}

fn require_owned(rt: &RuntimeCore, ctx: PrincipalCtx, cap: RawCap) -> Result<(), Violation> {
    if rt.ctx_owns(ctx, cap) {
        return Ok(());
    }
    let (_, p) = ctx.expect("kernel owns everything, so ctx is a module");
    Err(match cap.ctype {
        crate::caps::CapType::Write => Violation::MissingWrite {
            principal: p,
            addr: cap.addr,
            len: cap.size,
        },
        crate::caps::CapType::Call => Violation::MissingCall {
            principal: p,
            target: cap.addr,
        },
        crate::caps::CapType::Ref(t) => Violation::MissingRef {
            principal: p,
            rtype: rt.ref_type_name(t),
            value: cap.addr,
        },
    })
}

/// Resolves a compiled caplist to concrete capabilities, appended to
/// `out`: evaluates expressions and expands capability iterators. REF
/// types and iterator names were interned at compile time, so no string
/// work happens here.
fn resolve_caplist(
    rt: &RuntimeCore,
    mem: &AddressSpace,
    vals: CallValues<'_>,
    caps: &CCapList,
    out: &mut Vec<EmittedCap>,
) -> Result<(), Violation> {
    match caps {
        CCapList::Inline { kind, ptr, size } => {
            let addr = eval_compiled(ptr, vals, rt)? as u64;
            out.push(match kind {
                CCapKind::Write => {
                    let size = match size {
                        CSize::Expr(e) => eval_compiled(e, vals, rt)? as u64,
                        CSize::Sizeof(s) => *s,
                        CSize::Unresolved(why) => {
                            return Err(Violation::BadExpression { why: why.clone() })
                        }
                    };
                    EmittedCap::Write { addr, size }
                }
                CCapKind::Call => EmittedCap::Call { target: addr },
                CCapKind::Ref(t) => EmittedCap::Ref {
                    rtype: *t,
                    value: addr,
                },
            });
            Ok(())
        }
        CCapList::Iter { func, arg } => {
            let v = eval_compiled(arg, vals, rt)? as u64;
            rt.run_iterator_id(*func, mem, v, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::Param;
    use crate::principal::ModuleId;
    use lxfi_annotations::parse_fn_annotations;

    fn setup() -> (GuardHandle, AddressSpace, TypeLayouts, ModuleId) {
        let mut rt: GuardHandle = GuardHandle::new(Default::default());
        let m = rt.register_module("e1000");
        rt.set_kernel_stack(0xffff_9000_0000_0000, 0x4000);
        let mem = AddressSpace::new();
        mem.map_range(0x5000, 0x2000);
        let mut layouts = TypeLayouts::new();
        layouts.define("spinlock_t", 8);
        layouts.define("sk_buff", 232);
        (rt, mem, layouts, m)
    }

    #[test]
    fn kernel_to_module_pre_copy_grants_ref() {
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let ann = parse_fn_annotations("principal(pcidev) pre(copy(ref(struct pci_dev), pcidev))")
            .unwrap();
        let decl = FnDecl::new("probe", vec![Param::ptr("pcidev", "pci_dev")], ann);
        let site = CallSite {
            decl: &decl,
            args: &[0x5000],
            ret: None,
            caller: None, // kernel
            callee: Some((m, p)),
        };
        apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap();
        let t = rt.ref_type("struct pci_dev");
        assert!(rt.owns(p, RawCap::reference(t, 0x5000)));
    }

    #[test]
    fn module_to_kernel_check_requires_ownership() {
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let ann = parse_fn_annotations("pre(check(ref(struct pci_dev), pcidev))").unwrap();
        let decl = FnDecl::new(
            "pci_enable_device",
            vec![Param::ptr("pcidev", "pci_dev")],
            ann,
        );
        let site = CallSite {
            decl: &decl,
            args: &[0x5000],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        let err = apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap_err();
        assert!(matches!(err, Violation::MissingRef { .. }));
        let t = rt.ref_type("struct pci_dev");
        rt.grant(p, RawCap::reference(t, 0x5000));
        apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap();
    }

    #[test]
    fn post_transfer_grants_allocation_to_module() {
        // kmalloc: post(if (return != 0) transfer(write, return, size)).
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let ann =
            parse_fn_annotations("post(if (return != 0) transfer(write, return, size))").unwrap();
        let decl = FnDecl::new("kmalloc", vec![Param::scalar("size")], ann);
        let site = CallSite {
            decl: &decl,
            args: &[128],
            ret: Some(0x6000),
            caller: Some((m, p)),
            callee: None,
        };
        apply_actions(&mut rt, &mem, &layouts, &site, Dir::Post).unwrap();
        assert!(rt.owns(p, RawCap::write(0x6000, 128)));
        assert!(!rt.owns(p, RawCap::write(0x6000, 129)));

        // A failed allocation grants nothing.
        let site2 = CallSite {
            ret: Some(0),
            ..site
        };
        let before = rt.cap_count(p);
        apply_actions(&mut rt, &mem, &layouts, &site2, Dir::Post).unwrap();
        assert_eq!(rt.cap_count(p), before);
    }

    #[test]
    fn pre_transfer_strips_all_copies() {
        // netif_rx: pre(transfer(write, skb, len)) — after handing the
        // packet to the kernel the module must not touch it.
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let q = rt.principal_for_name(m, 0x5100);
        let cap = RawCap::write(0x6000, 64);
        rt.grant(p, cap);
        rt.grant(q, cap); // another principal got a copy
        let ann = parse_fn_annotations("pre(transfer(write, skb, 64))").unwrap();
        let decl = FnDecl::new("netif_rx", vec![Param::ptr("skb", "sk_buff")], ann);
        let site = CallSite {
            decl: &decl,
            args: &[0x6000],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap();
        assert!(!rt.owns(p, cap), "transferred away from caller");
        assert!(!rt.owns(q, cap), "revoked from every principal (§3.3)");
    }

    #[test]
    fn transfer_requires_source_ownership() {
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let ann = parse_fn_annotations("pre(transfer(write, skb, 64))").unwrap();
        let decl = FnDecl::new("netif_rx", vec![Param::ptr("skb", "sk_buff")], ann);
        let site = CallSite {
            decl: &decl,
            args: &[0x6000],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        let err = apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap_err();
        assert!(
            matches!(err, Violation::MissingWrite { .. }),
            "a module cannot transfer capabilities it does not own"
        );
    }

    #[test]
    fn default_size_uses_pointee_layout() {
        // spin_lock_init(lock): pre(copy(write, lock)) with implicit
        // sizeof(spinlock_t).
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let ann = parse_fn_annotations("pre(check(write, lock))").unwrap();
        let decl = FnDecl::new(
            "spin_lock_init",
            vec![Param::ptr("lock", "spinlock_t")],
            ann,
        );
        rt.grant(p, RawCap::write(0x7000, 8));
        let ok = CallSite {
            decl: &decl,
            args: &[0x7000],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        apply_actions(&mut rt, &mem, &layouts, &ok, Dir::Pre).unwrap();
        // The uid-field attack from §1: passing a pointer the module
        // cannot write is rejected.
        let attack = CallSite {
            decl: &decl,
            args: &[0x7100],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        let err = apply_actions(&mut rt, &mem, &layouts, &attack, Dir::Pre).unwrap_err();
        assert!(matches!(err, Violation::MissingWrite { .. }));
    }

    #[test]
    fn iterator_expansion() {
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        // A two-field "sk_buff": data pointer at +0, length at +8.
        mem.map_range(0x8000, 0x1000);
        mem.write_word(0x8000, 0x8800).unwrap(); // skb->data
        mem.write_word(0x8008, 96).unwrap(); // skb->len
        rt.register_iterator(
            "skb_caps",
            Box::new(|mem, skb, out| {
                out.push(EmittedCap::Write {
                    addr: skb,
                    size: 16,
                });
                let data = mem.read_word(skb).map_err(|e| e.to_string())?;
                let len = mem.read_word(skb + 8).map_err(|e| e.to_string())?;
                out.push(EmittedCap::Write {
                    addr: data,
                    size: len,
                });
                Ok(())
            }),
        );
        let ann = parse_fn_annotations("pre(transfer(skb_caps(skb)))").unwrap();
        let decl = FnDecl::new("ndo_start_xmit", vec![Param::ptr("skb", "sk_buff")], ann);
        rt.grant(p, RawCap::write(0x8000, 16));
        rt.grant(p, RawCap::write(0x8800, 96));
        let site = CallSite {
            decl: &decl,
            args: &[0x8000],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap();
        assert!(!rt.owns(p, RawCap::write(0x8000, 16)));
        assert!(!rt.owns(p, RawCap::write(0x8800, 96)));
        // Two caps → two annotation actions recorded.
        assert_eq!(rt.stats.count(GuardKind::AnnotationAction), 2);
    }

    #[test]
    fn unknown_iterator_is_a_violation() {
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let ann = parse_fn_annotations("pre(transfer(mystery_caps(skb)))").unwrap();
        let decl = FnDecl::new("f", vec![Param::ptr("skb", "sk_buff")], ann);
        let site = CallSite {
            decl: &decl,
            args: &[0x8000],
            ret: None,
            caller: Some((m, p)),
            callee: None,
        };
        let err = apply_actions(&mut rt, &mem, &layouts, &site, Dir::Pre).unwrap_err();
        assert!(matches!(err, Violation::UnknownIterator { .. }));
    }

    #[test]
    fn conditional_transfer_back_on_error_return() {
        // Figure 4's probe: post(if (return < 0) transfer(ref(...), pcidev))
        // gives the device back to the kernel when probing fails.
        let (mut rt, mem, layouts, m) = setup();
        let p = rt.principal_for_name(m, 0x5000);
        let t = rt.ref_type("struct pci_dev");
        rt.grant(p, RawCap::reference(t, 0x5000));
        let ann =
            parse_fn_annotations("post(if (return < 0) transfer(ref(struct pci_dev), pcidev))")
                .unwrap();
        let decl = FnDecl::new("probe", vec![Param::ptr("pcidev", "pci_dev")], ann);
        // Success: keeps the REF.
        let ok = CallSite {
            decl: &decl,
            args: &[0x5000],
            ret: Some(0),
            caller: None,
            callee: Some((m, p)),
        };
        apply_actions(&mut rt, &mem, &layouts, &ok, Dir::Post).unwrap();
        assert!(rt.owns(p, RawCap::reference(t, 0x5000)));
        // Failure: REF transferred back (revoked from the module).
        let fail = CallSite {
            ret: Some((-12i64) as u64),
            ..ok
        };
        apply_actions(&mut rt, &mem, &layouts, &fail, Dir::Post).unwrap();
        assert!(!rt.owns(p, RawCap::reference(t, 0x5000)));
    }
}
