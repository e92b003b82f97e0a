//! Cross-crate integration tests: whole-system scenarios that span the
//! machine, runtime, rewriter, kernel, and modules.

use lxfi::prelude::*;
use lxfi_core::{RawCap, Violation};
use lxfi_kernel::ModuleSpec;
use lxfi_machine::builder::regs::*;
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_rewriter::InterfaceSpec;

fn boot_full(mode: IsolationMode) -> Kernel {
    let mut k = Kernel::boot(mode);
    k.pci_add_device(0x8086, 0x100e, 11);
    for spec in lxfi_modules::all_specs() {
        k.load_module(spec).unwrap();
    }
    k
}

#[test]
fn full_system_mixed_workload_stays_clean_under_lxfi() {
    let mut k = boot_full(IsolationMode::Lxfi);
    k.enter(|k| k.pci_probe_all()).unwrap();
    let dev = *k.net().devices.last().unwrap();
    let buf = k.user_alloc(64);
    k.mem.write_word(buf, 3).unwrap();

    // Interleave every subsystem's traffic.
    let esock = k.enter(|k| k.sys_socket(9)).unwrap();
    let csock = k.enter(|k| k.sys_socket(29)).unwrap();
    let ti = k.enter(|k| k.dm_create(1, 0x1234)).unwrap();
    for round in 0..10u64 {
        k.enter(|k| k.net_send_packet(dev, 64 + round * 10))
            .unwrap();
        k.enter(|k| k.sys_sendmsg(esock, buf, 8 + round)).unwrap();
        k.enter(|k| k.sys_sendmsg(csock, buf, 16)).unwrap();
        k.enter(|k| k.dm_submit(ti, round % 2 == 0, 64, round as u8))
            .unwrap();
        if round % 3 == 0 {
            k.enter(|k| k.net_deliver_rx(dev, 4)).unwrap();
            k.enter(|k| k.net_drain_rx()).unwrap();
        }
    }
    assert!(k.panic_reason().is_none());
    assert_eq!(k.net_tx_packets(dev), 10);
}

#[test]
fn interrupts_preserve_module_principal() {
    // An interrupt arriving while a module executes must save and
    // restore the module's principal (§3.1 / §5 shadow stack).
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let mut pb = ProgramBuilder::new("m");
    let km = pb.import_func("kmalloc");
    pb.define("work", 0, 0, |f| {
        f.call_extern(km, &[64i64.into()], Some(R0));
        f.store8(1i64, R0, 0); // guarded write after the interrupt point
        f.ret(R0);
    });
    let id = k
        .load_module(ModuleSpec {
            name: "m".into(),
            program: pb.finish(),
            iface: InterfaceSpec::new(),
            iterators: vec![],
            init_fn: None,
        })
        .unwrap();
    let addr = k.module_fn_addr(id, "work").unwrap();
    // Simulate: enter the wrapper manually, interrupt, then verify the
    // interrupt ran in kernel context and the module context returned.
    let mid = k.runtime_module(id).unwrap();
    let shared = k.rt.shared_principal(mid);
    let tok = k.rt.wrapper_enter(Some((mid, shared)));
    assert_eq!(k.rt.current(), Some((mid, shared)));
    let observed = k.interrupt(|k| k.rt.current());
    assert_eq!(observed, None, "interrupt handler runs as kernel");
    assert_eq!(k.rt.current(), Some((mid, shared)), "principal restored");
    k.rt.wrapper_exit(tok).unwrap();
    // And the real call path still works.
    k.enter(|k| k.invoke_module_function(addr, &[], None))
        .unwrap();
}

#[test]
fn wrong_annotation_admits_attack_limitation() {
    // §2.2: LXFI trusts annotations. An over-permissive annotation on a
    // kernel export (granting WRITE to caller-chosen memory) lets a
    // compromised module escalate — reproducing the paper's caveat that
    // a mistaken annotation enforces the mistaken policy.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.export(
        "backdoor_grant",
        vec![lxfi_core::Param::scalar("p"), lxfi_core::Param::scalar("n")],
        // The "mistake": grants WRITE over an arbitrary caller-chosen
        // range (a correct annotation would check ownership instead).
        Some("post(transfer(write, p, n))"),
        std::sync::Arc::new(|_k, _a| Ok(0)),
    );
    let mut pb = ProgramBuilder::new("evil");
    let bd = pb.import_func("backdoor_grant");
    pb.define("pwn", 1, 0, |f| {
        f.call_extern(bd, &[R0.into(), 8i64.into()], None);
        f.store8(0i64, R0, 0); // now "legitimately" writable
        f.ret(0i64);
    });
    let id = k
        .load_module(ModuleSpec {
            name: "evil".into(),
            program: pb.finish(),
            iface: InterfaceSpec::new(),
            iterators: vec![],
            init_fn: None,
        })
        .unwrap();
    let uid_addr = (k.procs().current_task() as i64 + lxfi_kernel::process::task::UID) as u64;
    let pwn = k.module_fn_addr(id, "pwn").unwrap();
    k.enter(|k| k.invoke_module_function(pwn, &[uid_addr], None))
        .unwrap();
    assert_eq!(
        k.procs().current_uid(&k.mem),
        0,
        "the mistaken annotation let the module zero the uid — LXFI \
         enforces the specified policy, not the intended one (§2.2)"
    );
}

#[test]
fn annotation_laundering_is_rejected() {
    // A module function annotated for one pointer type cannot be invoked
    // through a differently-annotated call site: hashes must match (§4.1).
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let mut pb = ProgramBuilder::new("m");
    let benign_sig = pb.sig("benign_cb", 1);
    let other_sig = pb.sig("other_cb", 1);
    let cb = pb.define("cb", 1, 0, |f| f.ret(R0));
    pb.assign_sig(cb, benign_sig);
    pb.define("call_via_other", 1, 0, |f| {
        // r0 = function pointer; call it through the *other* type.
        f.call_ptr(R0, other_sig, &[7i64.into()], Some(R0));
        f.ret(R0);
    });
    let mut iface = InterfaceSpec::new();
    iface.declare_sig(lxfi_core::FnDecl::new(
        "benign_cb",
        vec![lxfi_core::Param::scalar("x")],
        lxfi_annotations::parse_fn_annotations("pre(check(write, x, 8))").unwrap(),
    ));
    iface.declare_sig(lxfi_core::FnDecl::new(
        "other_cb",
        vec![lxfi_core::Param::scalar("x")],
        lxfi_annotations::parse_fn_annotations("").unwrap(),
    ));
    let id = k
        .load_module(ModuleSpec {
            name: "m".into(),
            program: pb.finish(),
            iface,
            iterators: vec![],
            init_fn: None,
        })
        .unwrap();
    let cb_addr = k.module_fn_addr(id, "cb").unwrap();
    let via = k.module_fn_addr(id, "call_via_other").unwrap();
    let r = k.enter(|k| k.invoke_module_function(via, &[cb_addr], None));
    assert!(r.is_err());
    assert!(matches!(
        k.last_violation(),
        Some(Violation::AnnotationMismatch { .. })
    ));
}

#[test]
fn figure4_alias_gives_one_principal_two_names() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.pci_add_device(0x8086, 0x100e, 11);
    k.load_module(lxfi_modules::e1000::spec()).unwrap();
    k.enter(|k| k.pci_probe_all()).unwrap();
    let pcidev = k.pci().devices[0];
    let ndev = *k.net().devices.last().unwrap();
    let mid = k.runtime_module(k.module_id("e1000").unwrap()).unwrap();
    let p_pci = k.rt.principal_for_name(mid, pcidev);
    let p_net = k.rt.principal_for_name(mid, ndev);
    assert_eq!(
        p_pci, p_net,
        "lxfi_princ_alias bound both names to one principal (Figure 4)"
    );
    // The single principal holds both the REF (from probe) and the
    // device WRITE (from alloc_etherdev).
    let t = k.rt.ref_type("struct pci_dev");
    assert!(k.rt.owns(p_pci, RawCap::reference(t, pcidev)));
    assert!(k.rt.owns(p_net, RawCap::write(ndev, 128)));
}

#[test]
fn two_nics_are_two_principals() {
    // Two e1000-managed NICs: compromising one device's principal gives
    // no access to the other's MMIO or net_device (§2.1's goal).
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.pci_add_device(0x8086, 0x100e, 11);
    k.pci_add_device(0x8086, 0x100e, 12);
    k.load_module(lxfi_modules::e1000::spec()).unwrap();
    assert_eq!(k.enter(|k| k.pci_probe_all()).unwrap(), 2);
    let mid = k.runtime_module(k.module_id("e1000").unwrap()).unwrap();
    let d0 = k.pci().devices[0];
    let d1 = k.pci().devices[1];
    let p0 = k.rt.principal_for_name(mid, d0);
    let p1 = k.rt.principal_for_name(mid, d1);
    assert_ne!(p0, p1);
    let rt_ty = k.rt.ref_type("struct pci_dev");
    assert!(k.rt.owns(p0, RawCap::reference(rt_ty, d0)));
    assert!(!k.rt.owns(p0, RawCap::reference(rt_ty, d1)));
    // Both devices still transmit independently.
    let devs = k.net().devices.clone();
    for dev in devs {
        k.enter(|k| k.net_send_packet(dev, 64)).unwrap();
        assert_eq!(k.net_tx_packets(dev), 1);
    }
}

#[test]
fn stock_and_lxfi_agree_on_benign_behaviour() {
    // Rewriting must be semantics-preserving for policy-abiding code:
    // the observable outputs of a mixed workload match across modes.
    let run = |mode: IsolationMode| -> (u64, u64, Vec<u8>) {
        let mut k = boot_full(mode);
        k.enter(|k| k.pci_probe_all()).unwrap();
        let dev = *k.net().devices.last().unwrap();
        for _ in 0..5 {
            k.enter(|k| k.net_send_packet(dev, 100)).unwrap();
        }
        let ti = k.enter(|k| k.dm_create(1, 0xfeed)).unwrap();
        let b = k.enter(|k| k.dm_submit(ti, true, 64, 0x33)).unwrap();
        let payload = k.bio_payload(b).unwrap();
        let rx = k.enter(|k| k.net_deliver_rx(dev, 6)).unwrap();
        (k.net_tx_packets(dev), rx, payload)
    };
    let a = run(IsolationMode::Stock);
    let b = run(IsolationMode::Lxfi);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "dm-crypt ciphertext identical across modes");
}

#[test]
fn kernel_pass_instrumented_the_thunks() {
    // The loaded kernel thunks under LXFI must contain indirect-call
    // guards; under stock they must not.
    let k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.module_id("<kernel-thunks>").unwrap();
    let prog = k.module_program(id);
    let guards = prog
        .funcs
        .iter()
        .flat_map(|f| &f.insts)
        .filter(|i| matches!(i, lxfi_machine::Inst::GuardIndCall { .. }))
        .count();
    assert!(guards >= 7, "every dispatch thunk guarded, got {guards}");

    let k = Kernel::boot(IsolationMode::Stock);
    let id = k.module_id("<kernel-thunks>").unwrap();
    let prog = k.module_program(id);
    assert!(prog
        .funcs
        .iter()
        .flat_map(|f| &f.insts)
        .all(|i| !i.is_guard()));
}

#[test]
fn violations_identify_the_offending_principal() {
    // The violation names the instance principal, which maps back to the
    // socket — useful forensics the multi-principal design enables.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.load_module(lxfi_modules::rds::spec()).unwrap();
    let sock = k.enter(|k| k.sys_socket(21)).unwrap();
    let buf = k.user_alloc(32);
    let victim: Word = 0xffff_8a00_dead_0000;
    k.mem.write_word(buf, victim).unwrap();
    k.mem.write_word(buf + 8, 1).unwrap();
    k.enter(|k| k.sys_sendmsg(sock, buf, 16)).unwrap();
    // Resolve the expected principal BEFORE the violation: the fault
    // quarantines the module, unpublishing its name and retiring its
    // principals.
    let rds = k.module_id("rds").unwrap();
    let mid = k.runtime_module(rds).unwrap();
    let expected = k.rt.principal_for_name(mid, sock);
    let _ = k.enter(|k| k.sys_recvmsg(sock, 0, 0));
    let Some(Violation::MissingWrite {
        principal, addr, ..
    }) = k.last_violation()
    else {
        panic!("expected MissingWrite");
    };
    assert_eq!(addr, victim);
    assert_eq!(expected, principal);
    // The structured fault record carries the same attribution — no
    // string-matching needed to learn who died.
    let fault = k.last_fault().unwrap();
    assert_eq!(fault.module, "rds");
    assert_eq!(fault.mid, Some(mid));
    assert_eq!(fault.principal, Some(principal));
    assert!(k.panic_reason().is_none(), "module fault, not kernel panic");
}

#[test]
fn dm_crypt_xor_is_an_involution() {
    // Submitting the same buffer twice through dm-crypt restores the
    // plaintext — end-to-end evidence the map path transforms data
    // deterministically under full enforcement.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.load_module(lxfi_modules::dm_crypt::spec()).unwrap();
    let ti = k.enter(|k| k.dm_create(1, 0xabcd)).unwrap();
    let b1 = k.enter(|k| k.dm_submit(ti, true, 64, 0x55)).unwrap();
    let once = k.bio_payload(b1).unwrap();
    assert!(once.iter().any(|&x| x != 0x55), "encrypted");
    // Feed the ciphertext back through: XOR with the same key schedule.
    let ops = k.dm().targets[0].1;
    k.enter(|k| k.indirect_call(ops + 8, "dm_map", &[ti, b1]))
        .unwrap();
    let twice = k.bio_payload(b1).unwrap();
    assert!(twice.iter().all(|&x| x == 0x55), "decrypted back");
}
