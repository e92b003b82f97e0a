//! How the kernel resolves a call: the annotation hash a call through a
//! function-pointer type checks (§4.1), and the module function a code
//! address names.

use lxfi_annotations::{annotation_hash, parse_fn_annotations};
use lxfi_core::iface::{FnDecl, Param};
use lxfi_core::{RawCap, Violation};
use lxfi_kernel::{IsolationMode, Kernel, ModuleSpec};
use lxfi_machine::{Backend, Operand, Program, ProgramBuilder, Reg, Trap, Word};
use lxfi_rewriter::InterfaceSpec;

/// `cb`'s annotation, and `late_t`'s once declared. Its one action
/// never fires for the arguments used here.
const X: &str = "pre(if (p == 12345) check(write, p, 8))";

fn spec(program: Program, iface: InterfaceSpec) -> ModuleSpec {
    let name = program.name.clone();
    let (iterators, init_fn) = (Vec::new(), None);
    ModuleSpec {
        name,
        program,
        iface,
        iterators,
        init_fn,
    }
}

fn x_decl(name: &str) -> FnDecl {
    FnDecl::new(
        name,
        vec![Param::scalar("p")],
        parse_fn_annotations(X).unwrap(),
    )
}

fn mismatch(r: Result<Word, Trap>) -> Option<(u64, u64)> {
    match r.err()?.policy_as::<Violation>()? {
        &Violation::AnnotationMismatch { sig_hash, fn_hash } => Some((sig_hash, fn_hash)),
        _ => None,
    }
}

/// A module names `late_t` while it is undeclared; a later `define_sig`
/// or module interface declares it, and from then on both the module's
/// pointer call and the kernel's native indirect call check its hash.
#[test]
fn a_late_sig_declaration_governs_calls_through_the_type_at_once() {
    let (empty, x) = (annotation_hash(&Default::default()), x_decl("x").ahash);
    for backend in [Backend::Interp, Backend::Compiled] {
        for by_module in [false, true] {
            let cfg = format!("{backend:?}, declared by a module: {by_module}");
            let mut k = Kernel::boot_with_backend(IsolationMode::Lxfi, backend);
            // `go` calls `cb` through a `late_t` pointer.
            let mut pb = ProgramBuilder::new("late_user");
            let late = pb.sig("late_t", 1);
            let cb = pb.define("cb", 1, 0, |f| f.ret(7));
            pb.define("go", 0, 0, |f| {
                f.func_addr(Reg(1), cb);
                f.call_ptr(Reg(1), late, &[Operand::Imm(0)], Some(Reg(2)));
                f.ret(Reg(2));
            });
            let mut iface = InterfaceSpec::new();
            iface.declare_fn(x_decl("cb"));
            let id = k.load_module(spec(pb.finish(), iface)).unwrap();
            let go = k.module_fn_addr(id, "go").unwrap();
            // A kernel slot holding `cb` that the module may write: the
            // native call takes the slow path, which checks the hash.
            let slot = k.kstatic_alloc(8);
            k.mem
                .write_word(slot, k.module_fn_addr(id, "cb").unwrap())
                .unwrap();
            let shared = k.rt.shared_principal(k.runtime_module(id).unwrap());
            k.rt.grant(shared, RawCap::write(slot, 8));

            assert_eq!(mismatch(call(&mut k, go)), Some((empty, x)), "{cfg}");
            let r = k.indirect_call(slot, "late_t", &[0]);
            assert_eq!(mismatch(r), Some((empty, x)), "{cfg}");
            if by_module {
                let mut pb = ProgramBuilder::new("late_declarer");
                pb.define("nop", 0, 0, |f| f.ret_void());
                let mut iface = InterfaceSpec::new();
                iface.declare_sig(x_decl("late_t"));
                k.load_module(spec(pb.finish(), iface)).unwrap();
            } else {
                k.define_sig("late_t", vec![Param::scalar("p")], X);
            }
            assert_eq!(call(&mut k, go).unwrap(), 7, "{cfg}");
            assert_eq!(k.indirect_call(slot, "late_t", &[0]).unwrap(), 7, "{cfg}");
            // A type no one names or declares still checks the empty set.
            let r = k.indirect_call(slot, "other_t", &[0]);
            assert_eq!(mismatch(r), Some((empty, x)), "{cfg}");
        }
    }
}

/// A module of functions `f0..` returning `base + i`, and a global.
fn numbered(name: &str, n: i64, base: i64) -> ModuleSpec {
    let mut pb = ProgramBuilder::new(name);
    pb.global("g", 16);
    for i in 0..n {
        pb.define(&format!("f{i}"), 0, 0, |f| f.ret(base + i));
    }
    spec(pb.finish(), InterfaceSpec::new())
}

fn call(k: &mut Kernel, addr: Word) -> Result<Word, Trap> {
    k.invoke_module_function(addr, &[], None)
}

/// `invoke_module_function` runs exactly the live functions of loaded
/// modules and kernel exports; any other kernel address is a bad call
/// target, and a reused window slot runs its new tenant.
#[test]
fn function_addresses_resolve_to_live_module_functions_only() {
    let bad =
        |r: Result<Word, Trap>| matches!(r, Err(Trap::BadRef(s)) if s.starts_with("call target"));
    for mode in [IsolationMode::Lxfi, IsolationMode::Stock] {
        for backend in [Backend::Interp, Backend::Compiled] {
            let cfg = format!("{mode:?}, {backend:?}");
            let mut k = Kernel::boot_with_backend(mode, backend);
            let alpha = k.load_module(numbered("alpha", 3, 10)).unwrap();
            let beta = k.load_module(numbered("beta", 2, 20)).unwrap();
            let fns = |k: &Kernel, id, n| -> Vec<Word> {
                (0..n)
                    .map(|i| k.module_fn_addr(id, &format!("f{i}")).unwrap())
                    .collect()
            };
            for (id, n, base) in [(alpha, 3, 10), (beta, 2, 20)] {
                for (i, a) in fns(&k, id, n).into_iter().enumerate() {
                    assert_eq!(call(&mut k, a).unwrap(), base + i as Word, "{cfg}");
                    assert!(bad(call(&mut k, a + 8)), "{cfg}: misaligned");
                }
            }
            let dead = fns(&k, beta, 2);
            let past = fns(&k, alpha, 3)[2] + 16;
            assert!(bad(call(&mut k, past)), "{cfg}: past the last function");
            let g = k.module_global_addr(alpha, "g").unwrap();
            assert!(bad(call(&mut k, g)), "{cfg}: a global");
            // An export runs its native: `bug` traps with its own code.
            let bug = k.export_addr("bug").unwrap();
            assert!(
                matches!(call(&mut k, bug), Err(Trap::Bug(0))),
                "{cfg}: export"
            );

            k.unload_module(beta).unwrap();
            for &a in &dead {
                assert!(bad(call(&mut k, a)), "{cfg}: unloaded");
            }
            let gamma = k.load_module(numbered("gamma", 2, 30)).unwrap();
            assert_eq!((gamma, fns(&k, gamma, 2)), (beta, dead.clone()), "{cfg}");
            for (i, &a) in dead.iter().enumerate() {
                assert_eq!(
                    call(&mut k, a).unwrap(),
                    30 + i as Word,
                    "{cfg}: new tenant"
                );
            }
        }
    }
}
