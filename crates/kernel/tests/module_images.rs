//! The load path's module-image table and its all-or-nothing checks:
//!
//! - an LXFI reload of a structurally equal program reuses the stored
//!   rewrite and compile (a hit), across unload and quarantine alike;
//! - any change to the program is a miss and is rewritten again;
//! - a hit still runs `propagate` and the sig check, so an interface
//!   that fails either is rejected;
//! - a rejected load leaves nothing behind: no image, no principal, no
//!   function registration, no sig declaration;
//! - a program that fails the structural check, such as one reading a
//!   register past `r15`, is refused at load under both modes and both
//!   backends instead of reaching either engine.

use std::sync::Arc;

use lxfi_annotations::parse_fn_annotations;
use lxfi_core::iface::{FnDecl, Param};
use lxfi_kernel::{
    Backend, FaultPlan, FaultSite, IsolationMode, Kernel, KernelError, LoadedModuleId, ModuleSpec,
    FN_SPACING, MODULE_BASE, MODULE_FN_OFFSET, MODULE_STRIDE,
};
use lxfi_machine::builder::regs::*;
use lxfi_machine::{Inst, Operand, ProgramBuilder, Reg, Word};
use lxfi_modules as mods;
use lxfi_rewriter::InterfaceSpec;

/// An LXFI kernel on the compiled backend with one e1000 NIC.
fn boot() -> (Kernel, Word) {
    let mut k = Kernel::boot_with_backend(IsolationMode::Lxfi, Backend::Compiled);
    let pcidev = k.pci_add_device(0x8086, 0x100e, 11);
    (k, pcidev)
}

/// Probes the NIC and returns the net device the driver registered.
fn probe(k: &mut Kernel) -> Word {
    k.enter(|k| k.pci_probe_all()).expect("probe");
    *k.net().devices.last().expect("probe registered a device")
}

/// Sends `n` packets on `dev` and checks the driver counted them.
fn transmits(k: &mut Kernel, dev: Word, n: u64) {
    for i in 0..n {
        let ret = k.enter(|k| k.net_send_packet(dev, 64 + i)).expect("xmit");
        assert_eq!(ret, 0, "NETDEV_TX_OK");
    }
    assert_eq!(k.net_tx_packets(dev), n, "driver counted TX packets");
}

/// Tears the dead driver's PCI binding and net device out, so the next
/// probe binds the freshly loaded driver.
fn remove_dead(k: &mut Kernel, pcidev: Word, dev: Word) {
    {
        let mut pci = k.pci();
        pci.bound.retain(|&(d, _)| d != pcidev);
        let fresh = pci.driver_slots.pop();
        pci.driver_slots.clear();
        pci.driver_slots.extend(fresh);
    }
    assert!(k.net_remove_dead_device(dev), "dead device was registered");
}

fn stats(k: &Kernel) -> (u64, u64) {
    k.kernel_core().module_image_stats()
}

fn fail_reason(r: Result<LoadedModuleId, KernelError>) -> String {
    match r {
        Err(KernelError::Fail(why)) => why,
        other => panic!("expected a rejected load, got {other:?}"),
    }
}

/// e1000's spec with the `napi_poll` declaration's annotation replaced.
fn e1000_with_poll_ann(ann: &str) -> ModuleSpec {
    let mut spec = mods::e1000::spec();
    let d = spec.iface.sig_decls.remove("napi_poll").expect("declared");
    spec.iface.declare_sig(FnDecl::new(
        "napi_poll",
        d.params,
        parse_fn_annotations(ann).expect("annotation parses"),
    ));
    spec
}

#[test]
fn reload_after_unload_reuses_the_image_and_still_transmits() {
    let (mut k, pcidev) = boot();
    let id = k.load_module(mods::e1000::spec()).expect("load");
    assert_eq!(stats(&k), (0, 1), "first load rewrites");
    let dev = probe(&mut k);
    transmits(&mut k, dev, 8);

    k.unload_module(id).expect("unload");
    remove_dead(&mut k, pcidev, dev);
    let again = k.load_module(mods::e1000::spec()).expect("reload");
    assert_eq!(again, id, "reload moves into the freed slot");
    assert_eq!(stats(&k), (1, 1), "identical reload is a hit");
    let dev = probe(&mut k);
    transmits(&mut k, dev, 8);
    assert!(k.panic_reason().is_none());
}

#[test]
fn reload_after_quarantine_reuses_the_image_and_still_transmits() {
    let (mut k, pcidev) = boot();
    k.load_module(mods::e1000::spec()).expect("load");
    let dev = probe(&mut k);
    transmits(&mut k, dev, 4);

    // Every NAPI poll faults: the next RX burst quarantines the driver.
    k.set_fault_plan(Arc::new(FaultPlan::single(
        7,
        "e1000",
        FaultSite::PollGuard,
        1,
    )));
    let r = k.enter(|k| {
        k.net_rx_wire(dev, 4)?;
        k.net_rx_flush(dev)
    });
    assert!(
        matches!(&r, Err(KernelError::ModuleFault(f)) if f.module == "e1000"),
        "poll fault quarantines e1000: {r:?}"
    );
    assert!(k.module_id("e1000").is_none(), "quarantined");
    k.clear_fault_plan();
    k.net().rx_queue.clear();

    remove_dead(&mut k, pcidev, dev);
    k.load_module(mods::e1000::spec()).expect("reload");
    assert_eq!(stats(&k), (1, 1), "identical reload is a hit");
    let dev = probe(&mut k);
    transmits(&mut k, dev, 4);
    assert!(k.panic_reason().is_none());
}

#[test]
fn a_changed_program_misses_and_replaces_the_image() {
    let (mut k, _) = boot();
    let id = k.load_module(mods::e1000::spec()).expect("load");
    k.unload_module(id).expect("unload");

    // One instruction changed: e1000_init returns 1 instead of 0.
    let mut changed = mods::e1000::spec();
    let init = changed
        .program
        .func_by_name("e1000_init")
        .expect("e1000_init");
    let insts = &mut changed.program.funcs[init.0 as usize].insts;
    let last = insts.last_mut().expect("non-empty");
    assert_eq!(
        *last,
        Inst::Ret {
            val: Some(Operand::Imm(0))
        }
    );
    *last = Inst::Ret {
        val: Some(Operand::Imm(1)),
    };
    let id = k.load_module(changed).expect("changed program loads");
    assert_eq!(stats(&k), (0, 2), "a changed program is rewritten");

    // One image per name: the changed program replaced the original.
    k.unload_module(id).expect("unload");
    k.load_module(mods::e1000::spec())
        .expect("original reloads");
    assert_eq!(stats(&k), (0, 3), "the original image was replaced");
}

#[test]
fn a_hit_still_runs_propagate() {
    let (mut k, _) = boot();
    let id = k.load_module(mods::e1000::spec()).expect("load");
    k.unload_module(id).expect("unload");

    // Same program, but `e1000_poll` is assigned to an undeclared type.
    let mut spec = mods::e1000::spec();
    spec.iface.sig_decls.remove("napi_poll");
    let why = fail_reason(k.load_module(spec));
    assert!(why.starts_with("propagate e1000"), "{why}");
    assert_eq!(stats(&k), (1, 1), "rejected on a hit");

    // The image survived the rejected load.
    k.load_module(mods::e1000::spec()).expect("reload");
    assert_eq!(stats(&k), (2, 1));
}

#[test]
fn a_hit_still_runs_the_sig_check() {
    let (mut k, _) = boot();
    let id = k.load_module(mods::e1000::spec()).expect("load");
    k.unload_module(id).expect("unload");
    let registered = k.sig_decl("napi_poll").expect("registered");

    let why = fail_reason(k.load_module(e1000_with_poll_ann("")));
    assert!(why.contains("sig `napi_poll` conflicts"), "{why}");
    assert_eq!(stats(&k), (1, 1), "rejected on a hit");
    assert_eq!(
        k.sig_decl("napi_poll").expect("registered").ann,
        registered.ann,
        "the registered declaration stands"
    );
    assert!(k.module_id("e1000").is_none());
}

#[test]
fn a_rejected_load_stores_no_image() {
    let (mut k, _) = boot();

    // Rejected by propagate on a miss.
    let mut spec = mods::e1000::spec();
    spec.iface.sig_decls.remove("napi_poll");
    fail_reason(k.load_module(spec));
    assert_eq!(stats(&k), (0, 1));

    // Rejected by the sig check on a miss.
    fail_reason(k.load_module(e1000_with_poll_ann("")));
    assert_eq!(stats(&k), (0, 2));

    // Neither left an image: the good load rewrites again.
    k.load_module(mods::e1000::spec()).expect("load");
    assert_eq!(stats(&k), (0, 3), "no image from a rejected load");
}

#[test]
fn stock_loads_bypass_the_table() {
    let mut k = Kernel::boot_with_backend(IsolationMode::Stock, Backend::Compiled);
    let id = k.load_module(mods::e1000::spec()).expect("load");
    k.unload_module(id).expect("unload");
    k.load_module(mods::e1000::spec()).expect("reload");
    assert_eq!(stats(&k), (0, 0));
}

/// A module with a writable global, three functions, a sig declaration
/// no other module makes, and `extra` as an additional import.
fn leaky_spec(extra: impl FnOnce(&mut ProgramBuilder)) -> ModuleSpec {
    let mut pb = ProgramBuilder::new("leaky");
    let kmalloc = pb.import_func("kmalloc");
    extra(&mut pb);
    pb.global("leaky_state", 64);
    let cb = pb.declare("leaky_cb", 1);
    pb.define("leaky_init", 0, 0, |f| {
        f.call_extern(kmalloc, &[64i64.into()], Some(R1));
        f.ret(0i64);
    });
    pb.define("leaky_cb", 1, 0, |f| f.ret(0i64));
    pb.define("leaky_other", 0, 0, |f| f.ret(1i64));
    let sig = pb.sig("leaky_callback", 1);
    pb.assign_sig(cb, sig);
    let mut iface = InterfaceSpec::new();
    iface.declare_sig(FnDecl::new(
        "leaky_callback",
        vec![Param::scalar("arg")],
        Default::default(),
    ));
    ModuleSpec {
        name: "leaky".into(),
        program: pb.finish(),
        iface,
        iterators: vec![],
        init_fn: Some("leaky_init".into()),
    }
}

#[test]
fn unresolved_imports_are_rejected_before_any_side_effect() {
    let (mut k, _) = boot();
    // The next fresh slot: right after a module loaded now.
    let first = k.load_module(mods::e1000::spec()).expect("load");
    let slot = first.0 + 1;
    let fn_addr =
        |i: u64| MODULE_BASE + slot as u64 * MODULE_STRIDE + MODULE_FN_OFFSET + i * FN_SPACING;

    let rtc = k.runtime_core();
    let gauges = |k: &Kernel| {
        (
            rtc.principal_gauges().0,
            k.rt.index_interval_count(),
            rtc.index_set_count(),
            (0..3)
                .map(|i| rtc.function_ahash(fn_addr(i)))
                .collect::<Vec<_>>(),
        )
    };
    let before = gauges(&k);
    assert_eq!(before.3, vec![None; 3], "slot {slot} is fresh");

    let why = fail_reason(k.load_module(leaky_spec(|pb| {
        pb.import_func("no_such_export");
    })));
    assert!(why.contains("unresolved import no_such_export"), "{why}");
    assert_eq!(gauges(&k), before, "unresolved function import leaked");

    let why = fail_reason(k.load_module(leaky_spec(|pb| {
        pb.import_data("no_such_data");
    })));
    assert!(why.contains("unresolved data import no_such_data"), "{why}");
    assert_eq!(gauges(&k), before, "unresolved data import leaked");

    assert!(k.sig_decl("leaky_callback").is_none(), "no sig registered");
    assert!(k.module_id("leaky").is_none());
    assert_eq!(stats(&k), (0, 1), "rejected before the image step");

    let id = k.load_module(leaky_spec(|_| {})).expect("good load");
    assert_eq!(id.0, slot, "the good load takes the same slot");
    assert!(k.sig_decl("leaky_callback").is_some());
    assert!(rtc.function_ahash(fn_addr(0)).is_some());
}

/// A module whose init function reads register `r`: as `Mov`'s source,
/// or with `call_ptr` as the target of an indirect call.
fn reads_register(r: Reg, call_ptr: bool) -> ModuleSpec {
    let mut pb = ProgramBuilder::new("wild");
    let sig = pb.sig("wild_cb", 0);
    pb.define("wild_init", 0, 0, |f| {
        if call_ptr {
            f.call_ptr(r, sig, &[], None);
        } else {
            f.mov(R0, r);
        }
        f.ret(0i64);
    });
    ModuleSpec {
        name: "wild".into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: Some("wild_init".into()),
    }
}

#[test]
fn out_of_range_register_reads_are_refused_at_load() {
    let fn_addr = |slot: usize| MODULE_BASE + slot as u64 * MODULE_STRIDE + MODULE_FN_OFFSET;
    for mode in [IsolationMode::Stock, IsolationMode::Lxfi] {
        for backend in [Backend::Interp, Backend::Compiled] {
            let cfg = format!("{mode:?}/{backend:?}");
            let mut k = Kernel::boot_with_backend(mode, backend);
            let rtc = k.runtime_core();
            let gauges = |k: &Kernel| {
                (
                    rtc.principal_gauges(),
                    stats(k),
                    k.compile_stats(),
                    (0..4)
                        .map(|slot| rtc.function_ahash(fn_addr(slot)))
                        .collect::<Vec<_>>(),
                )
            };
            let before = gauges(&k);
            for call_ptr in [false, true] {
                let why = fail_reason(k.load_module(reads_register(Reg(200), call_ptr)));
                assert!(
                    why.starts_with("verify wild: wild_init@0")
                        && why.contains("r200 out of range"),
                    "{cfg}: {why}"
                );
                assert_eq!(
                    gauges(&k),
                    before,
                    "{cfg}: a refused load left state behind"
                );
                assert!(k.module_id("wild").is_none(), "{cfg}");
            }
            assert!(k.panic_reason().is_none(), "{cfg}");

            // The same module reading `r15` loads and runs, into a slot
            // the gauges above watched.
            let id = k
                .load_module(reads_register(R15, false))
                .expect("r15 is in range");
            assert_eq!(before.3[id.0], None, "{cfg}: slot {} was fresh", id.0);
            assert!(rtc.function_ahash(fn_addr(id.0)).is_some(), "{cfg}");
            assert!(k.panic_reason().is_none(), "{cfg}");
        }
    }
}
