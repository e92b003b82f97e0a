//! Edge-case tests: the qdisc dispatch thunk (Guideline 7), slab churn
//! under capability tracking, deep wrapper nesting, and runtime entry
//! points reached through a pointer.

use lxfi_core::Violation;
use lxfi_kernel::types::qdisc;
use lxfi_kernel::{Backend, IsolationMode, Kernel, KernelError, ModuleSpec};
use lxfi_machine::builder::regs::*;
use lxfi_machine::{ProgramBuilder, Trap};
use lxfi_rewriter::InterfaceSpec;

/// A module providing a qdisc enqueue callback (Guideline 7's packet
/// scheduler) plus nesting and allocation helpers.
fn sched_spec() -> ModuleSpec {
    let mut pb = ProgramBuilder::new("sched");
    let kmalloc = pb.import_func("kmalloc");
    let kfree = pb.import_func("kfree");

    let enqueue = pb.declare("sched_enqueue", 2);
    // sched_enqueue(skb, q): counts the packet on the qdisc.
    pb.define("sched_enqueue", 2, 0, |f| {
        f.load8(R2, R1, qdisc::QLEN);
        f.add(R2, R2, 1i64);
        f.store8(R2, R1, qdisc::QLEN);
        f.ret(0i64);
    });

    // A deeply nested local call chain ending in a kernel call.
    let leaf = pb.declare("leaf", 1);
    pb.define("leaf", 1, 0, |f| {
        f.call_extern(kmalloc, &[R0.into()], Some(R1));
        f.call_extern(kfree, &[R1.into()], None);
        f.ret(R1);
    });
    let mut prev = leaf;
    for i in 0..24 {
        let name = format!("nest{i}");
        let id = pb.declare(&name, 1);
        let inner = prev;
        pb.define(&name, 1, 16, move |f| {
            f.store_frame(R0, 0, lxfi_machine::Width::B8);
            f.call_local(inner, &[R0.into()], Some(R0));
            f.ret(R0);
        });
        prev = id;
    }
    let top = prev;
    pb.define("nest_top", 1, 0, move |f| {
        f.call_local(top, &[R0.into()], Some(R0));
        f.ret(R0);
    });

    // Allocation churn: n rounds of alloc/free at mixed sizes.
    pb.define("churn", 1, 0, |f| {
        let topl = f.label();
        let done = f.label();
        f.mov(R10, R0);
        f.bind(topl);
        f.br(lxfi_machine::Cond::Le, R10, 0i64, done);
        f.bin(lxfi_machine::BinOp::And, R2, R10, 0xffi64);
        f.add(R2, R2, 1i64);
        f.call_extern(kmalloc, &[R2.into()], Some(R3));
        f.store(0x7fi64, R3, 0, lxfi_machine::Width::B1);
        f.call_extern(kfree, &[R3.into()], None);
        f.sub(R10, R10, 1i64);
        f.jmp(topl);
        f.bind(done);
        f.ret(0i64);
    });

    let sig = pb.sig("qdisc_enqueue", 2);
    pb.assign_sig(enqueue, sig);
    let mut iface = InterfaceSpec::new();
    iface.declare_sig(lxfi_core::FnDecl::new(
        "qdisc_enqueue",
        vec![
            lxfi_core::Param::ptr("skb", "sk_buff"),
            lxfi_core::Param::ptr("q", "Qdisc"),
        ],
        lxfi_annotations::parse_fn_annotations("pre(check(write, skb, 1)) pre(copy(write, q, 64))")
            .unwrap(),
    ));

    ModuleSpec {
        name: "sched".into(),
        program: pb.finish(),
        iface,
        iterators: vec![],
        init_fn: None,
    }
}

/// Builds a kernel-side Qdisc whose enqueue slot points at the module's
/// callback, then runs the `qdisc_run` thunk.
fn run_qdisc(mode: IsolationMode) -> Result<u64, Trap> {
    let mut k = Kernel::boot(mode);
    let id = k.load_module(sched_spec()).unwrap();
    let enq = k.module_fn_addr(id, "sched_enqueue").unwrap();
    let q = k.kstatic_alloc(qdisc::SIZE);
    k.mem.write_word((q as i64 + qdisc::ENQUEUE) as u64, enq)?;
    // A kernel-owned skb (the kernel can pass any packet).
    let skb = lxfi_kernel::net::alloc_skb_raw(&mut k, 64).unwrap();
    // Under LXFI, the module must own WRITE(skb) to pass the sig's check
    // annotation; transfer it the way the stack would.
    if mode == IsolationMode::Lxfi {
        let mid = k.runtime_module(id).unwrap();
        let shared = k.rt.shared_principal(mid);
        k.rt.grant(shared, lxfi_core::RawCap::write(skb, 64));
    }
    k.run_kernel_thunk("qdisc_run", &[q, skb])?;
    k.mem.read_word((q as i64 + qdisc::QLEN) as u64)
}

#[test]
fn qdisc_dispatch_works_in_both_modes() {
    assert_eq!(run_qdisc(IsolationMode::Stock).unwrap(), 1);
    assert_eq!(run_qdisc(IsolationMode::Lxfi).unwrap(), 1);
}

#[test]
fn qdisc_slot_is_checked_under_lxfi() {
    // Pointing the enqueue slot at user space: the kernel pass's guard
    // on the thunk's load slot rejects the call... but only when a
    // module could have written the slot. Here the slot is kernel
    // memory written by us (the kernel), so simulate the corruption the
    // way a module would reach it: grant the module WRITE over the
    // qdisc (mirroring a driver-owned qdisc) and let it scribble.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(sched_spec()).unwrap();
    let mid = k.runtime_module(id).unwrap();
    let q = k.kstatic_alloc(qdisc::SIZE);
    let shared = k.rt.shared_principal(mid);
    k.rt.grant(shared, lxfi_core::RawCap::write(q, qdisc::SIZE));
    k.mem
        .write_word((q as i64 + qdisc::ENQUEUE) as u64, 0x4000)
        .unwrap();
    let skb = lxfi_kernel::net::alloc_skb_raw(&mut k, 64).unwrap();
    let err = k.run_kernel_thunk("qdisc_run", &[q, skb]).unwrap_err();
    let v = err.policy_as::<Violation>().unwrap();
    assert!(matches!(v, Violation::IndCallUnauthorized { .. }), "{v:?}");
}

#[test]
fn deep_local_nesting_with_kernel_calls() {
    for mode in [IsolationMode::Stock, IsolationMode::Lxfi] {
        let mut k = Kernel::boot(mode);
        let id = k.load_module(sched_spec()).unwrap();
        let addr = k.module_fn_addr(id, "nest_top").unwrap();
        let r = k
            .enter(|k| k.invoke_module_function(addr, &[128], None))
            .unwrap();
        assert_ne!(r, 0, "allocation succeeded through 25 frames");
        assert_eq!(k.slab().live_count(), 0, "freed on the way out");
    }
}

#[test]
fn allocation_churn_leaves_no_capabilities_or_leaks() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(sched_spec()).unwrap();
    let mid = k.runtime_module(id).unwrap();
    let shared = k.rt.shared_principal(mid);
    let caps_before = k.rt.cap_count(shared);
    let addr = k.module_fn_addr(id, "churn").unwrap();
    k.enter(|k| k.invoke_module_function(addr, &[200], None))
        .unwrap();
    assert_eq!(k.slab().live_count(), 0, "no leaked allocations");
    assert_eq!(
        k.rt.cap_count(shared),
        caps_before,
        "kfree's transfer stripped every granted WRITE capability"
    );
}

#[test]
fn rx_delivery_to_an_unbound_device_traps() {
    // Only `pci_probe_all` binds RX rings; delivering to any other
    // device is a bad reference, not a direct poll dispatch.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let dev = k.kstatic_alloc(64);
    let err = k.net_deliver_rx(dev, 1).unwrap_err();
    assert!(
        matches!(&err, Trap::BadRef(why) if why == "no RX ring bound"),
        "{err:?}"
    );
}

/// A module that calls the `lxfi_switch_global` runtime entry point
/// directly, and through a pointer to it taken with `sym_addr`.
fn switch_global_spec() -> ModuleSpec {
    let mut pb = ProgramBuilder::new("switcher");
    let switch = pb.import_func("lxfi_switch_global");
    let sig = pb.sig("runtime_entry", 0);
    pb.define("direct", 0, 0, move |f| {
        f.call_extern(switch, &[], None);
        f.ret(0i64);
    });
    pb.define("via_ptr", 0, 0, move |f| {
        f.sym_addr(R1, switch);
        f.call_ptr(R1, sig, &[], None);
        f.ret(0i64);
    });
    ModuleSpec {
        name: "switcher".into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

#[test]
fn runtime_entry_points_are_direct_call_only() {
    // §3.4: a module may switch to its global principal only through a
    // direct call, which pins the checks that must precede it. Reached
    // through a pointer, the entry point is denied and the module is
    // quarantined; the kernel keeps running.
    for backend in [Backend::Interp, Backend::Compiled] {
        let mut k = Kernel::boot_with_backend(IsolationMode::Lxfi, backend);
        let id = k.load_module(switch_global_spec()).unwrap();
        let direct = k.module_fn_addr(id, "direct").unwrap();
        let via_ptr = k.module_fn_addr(id, "via_ptr").unwrap();
        k.enter(|k| k.invoke_module_function(direct, &[], None))
            .unwrap_or_else(|e| panic!("{backend:?}: direct call failed: {e}"));
        let err = k
            .enter(|k| k.invoke_module_function(via_ptr, &[], None))
            .unwrap_err();
        let KernelError::ModuleFault(fault) = err else {
            panic!("{backend:?}: expected a contained fault, got {err:?}");
        };
        assert_eq!(fault.module, "switcher");
        assert!(
            matches!(&fault.violation, Some(Violation::PrincipalDenied { why })
                if why.contains("lxfi_switch_global")),
            "{backend:?}: {fault:?}"
        );
        assert_eq!(k.panic_reason(), None, "{backend:?}");
        assert!(!k.module_is_live(id), "{backend:?}: quarantined");
    }
}
