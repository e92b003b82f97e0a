//! Fault containment and supervised recovery: a trap raised while a
//! module executes quarantines ONLY that module — unpublish, grace
//! period, complete resource reclamation — while the kernel keeps
//! serving; the kernel-wide panic flag stays reserved for the kernel's
//! own invariants. The seeded fault injector drives every trap class
//! through the same classification a genuine module bug would take,
//! and the resource gauges assert that a hundred crash/recover cycles
//! leak nothing.

use std::sync::Arc;
use std::thread;

use lxfi_core::{RawCap, Violation};
use lxfi_kernel::{
    FaultPlan, FaultSite, IsolationMode, Kernel, KernelCpu, KernelError, ModuleSpec, RestartPolicy,
    SupervisedState, Supervisor, SupervisorEvent, STACK_BASE, STACK_SIZE, STACK_STRIDE,
};
use lxfi_machine::builder::regs::*;
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_rewriter::InterfaceSpec;

/// An address no principal ever holds WRITE over (user range).
const FORBIDDEN: i64 = 0x5000;

/// A module exercising every fault class on demand:
/// - `work(v)`: kmalloc(64), store, and LEAK the object (quarantine's
///   slab sweep must reclaim it);
/// - `tidy(v)`: kmalloc + store + kfree (benign churn);
/// - `touch(v)`: guarded store into its own global (healthy traffic,
///   and the vehicle for injected guard/fuel faults);
/// - `violate()`: store to an unowned address (policy violation);
/// - `badread()`: load from unmapped memory (machine fault);
/// - `plant(slot, val)`: store `val` through `slot` (fn-ptr planting;
///   needs an explicit WRITE grant over the slot);
/// - `spin(flag)`: set `state`, then loop until the word at `flag` is
///   non-zero (holds a CPU inside the module).
fn faulty_spec(name: &str) -> ModuleSpec {
    let mut pb = ProgramBuilder::new(name);
    let kmalloc = pb.import_func("kmalloc");
    let kfree = pb.import_func("kfree");
    let state = pb.global("state", 64);

    pb.define("work", 1, 0, |f| {
        f.call_extern(kmalloc, &[64i64.into()], Some(R1));
        f.store8(R0, R1, 0);
        f.ret(R1);
    });
    pb.define("tidy", 1, 0, |f| {
        f.call_extern(kmalloc, &[64i64.into()], Some(R1));
        f.store8(R0, R1, 0);
        f.call_extern(kfree, &[R1.into()], None);
        f.ret(0i64);
    });
    pb.define("touch", 1, 0, |f| {
        f.global_addr(R1, state);
        f.store8(R0, R1, 0);
        f.load8(R0, R1, 0);
        f.ret(R0);
    });
    pb.define("violate", 0, 0, |f| {
        f.mov(R1, FORBIDDEN);
        f.store8(1i64, R1, 0);
        f.ret(0i64);
    });
    pb.define("badread", 0, 0, |f| {
        f.mov(R1, FORBIDDEN);
        f.load8(R0, R1, 0);
        f.ret(R0);
    });
    pb.define("plant", 2, 0, |f| {
        f.store8(R1, R0, 0);
        f.ret(0i64);
    });
    pb.define("spin", 1, 0, |f| {
        let (top, done) = (f.label(), f.label());
        f.global_addr(R1, state);
        f.store8(1i64, R1, 0);
        f.bind(top);
        f.load8(R2, R0, 0);
        f.br(lxfi_machine::Cond::Ne, R2, 0i64, done);
        f.jmp(top);
        f.bind(done);
        f.ret(0i64);
    });

    ModuleSpec {
        name: name.into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

fn call(k: &mut KernelCpu, module: &str, func: &str, args: &[Word]) -> Result<Word, KernelError> {
    let id = k.module_id(module).expect("module published");
    let addr = k.module_fn_addr(id, func).expect("function exists");
    k.enter(|k| k.invoke_module_function(addr, args, None))
}

fn expect_fault(r: Result<Word, KernelError>) -> lxfi_kernel::ModuleFault {
    match r {
        Err(KernelError::ModuleFault(f)) => *f,
        other => panic!("expected a module fault, got {other:?}"),
    }
}

#[test]
fn fuel_exhaustion_quarantines_without_oops() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    k.set_fault_plan(Arc::new(FaultPlan::single(1, "m", FaultSite::Fuel, 1)));
    let fault = expect_fault(call(&mut k, "m", "touch", &[7]));
    assert_eq!(fault.id, Some(id));
    assert_eq!(fault.module, "m");
    assert!(
        !fault.oopsed,
        "fuel exhaustion is the module's bug, no oops"
    );
    assert!(fault.violation.is_none(), "not a policy violation");
    assert!(k.panic_reason().is_none());
    assert!(!k.module_is_live(id));
    // The kernel keeps serving: a fresh instance loads into the freed
    // slot (injection still targets "m", so disarm first).
    k.clear_fault_plan();
    let id2 = k.load_module(faulty_spec("m")).unwrap();
    assert_eq!(id2, id, "slot scrubbed and reused");
    assert_eq!(call(&mut k, "m", "touch", &[7]).unwrap(), 7);
}

#[test]
fn machine_fault_oopses_and_quarantines() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    let fault = expect_fault(call(&mut k, "m", "badread", &[]));
    assert_eq!(fault.id, Some(id));
    assert!(fault.oopsed, "a machine fault still runs the oops handler");
    assert!(k.panic_reason().is_none(), "oops is not a kernel panic");
    assert!(!k.module_is_live(id));
}

#[test]
fn guard_write_injection_raises_a_real_violation() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    let mid = k.runtime_module(id).unwrap();
    let principal = k.runtime_core().shared_principal(mid);
    k.set_fault_plan(Arc::new(FaultPlan::single(
        2,
        "m",
        FaultSite::GuardWrite,
        1,
    )));
    let fault = expect_fault(call(&mut k, "m", "touch", &[7]));
    assert_eq!(fault.module, "m");
    assert_eq!(fault.principal, Some(principal), "attributed by principal");
    assert!(
        matches!(fault.violation, Some(Violation::MissingWrite { principal: p, .. }) if p == principal),
        "synthesized violation names the real executing principal: {:?}",
        fault.violation
    );
    assert!(k.panic_reason().is_none());
}

#[test]
fn rogue_store_injection_is_attributed_and_contained() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    k.set_fault_plan(Arc::new(FaultPlan::single(
        3,
        "m",
        FaultSite::RogueStore,
        1,
    )));
    let fault = expect_fault(call(&mut k, "m", "touch", &[7]));
    assert_eq!(fault.id, Some(id));
    assert!(
        matches!(
            fault.violation,
            Some(Violation::MissingWrite { addr, .. }) if addr == lxfi_kernel::KDATA_BASE
        ),
        "the rogue store went through the REAL guard machinery: {:?}",
        fault.violation
    );
    assert!(k.panic_reason().is_none());
}

#[test]
fn alloc_injection_returns_null_without_faulting() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.load_module(faulty_spec("m")).unwrap();
    k.set_fault_plan(Arc::new(FaultPlan::single(4, "m", FaultSite::Alloc, 1)));
    // `tidy` stores through the NULL pointer, which IS a policy
    // violation — allocation-failure injection exercises the module's
    // (absent) error path and containment catches the consequence.
    let fault = expect_fault(call(&mut k, "m", "tidy", &[7]));
    assert!(
        matches!(
            fault.violation,
            Some(Violation::MissingWrite { addr: 0, .. })
        ),
        "store through injected NULL: {:?}",
        fault.violation
    );
    assert_eq!(k.slab().live_count(), 0, "no allocation was handed out");
    assert!(k.panic_reason().is_none());
}

#[test]
fn poisoned_fn_ptr_slot_stays_dead_forever() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    let mid = k.runtime_module(id).unwrap();
    let core = k.runtime_core();
    let slot = k.kstatic_alloc(8);
    core.grant(core.shared_principal(mid), RawCap::write(slot, 8));
    let target = k.module_fn_addr(id, "touch").unwrap();
    call(&mut k, "m", "plant", &[slot, target]).unwrap();
    assert_eq!(k.mem.read_word(slot).unwrap(), target, "pointer planted");

    // Crash the module. Its principals retire and keep their WRITE
    // coverage of the slot on record, but hold CALL to nothing.
    let fault = expect_fault(call(&mut k, "m", "violate", &[]));
    assert_eq!(fault.id, Some(id));

    // The kernel now trips over the planted pointer: refused, naming the
    // dead module's own retired principal, and the refusal is a fault
    // record blamed on dead code — not a panic, not a quarantine of
    // anyone alive. The same holds after a new tenant occupies the
    // slot's window: the kstatic slot was never zeroed, so it stays
    // poisoned.
    for reload in [false, true] {
        if reload {
            assert_eq!(k.load_module(faulty_spec("m")).unwrap(), id);
        }
        let r = k.enter(|k| k.indirect_call(slot, "poisoned_t", &[7]));
        let fault = expect_fault(r);
        assert_eq!(fault.id, None, "no live module to blame");
        let writer = match fault.violation {
            Some(Violation::IndCallUnauthorized {
                slot: s, writer, ..
            }) if s == slot => writer,
            v => panic!("{v:?}"),
        };
        assert!(core.is_retired(writer), "the writer on record is dead");
        assert_eq!(core.principal_module(writer), mid, "the dead module's own");
        assert_eq!(fault.module, "m");
        assert!(k.panic_reason().is_none());
    }
}

#[test]
fn violation_during_teardown_is_charged_to_the_dying_module() {
    // CPU B sits inside `m`; CPU A quarantines `m` and waits out B in
    // the grace period, so `m`'s entry is unpublished but its
    // principals are not yet retired. CPU C then makes a kernel-context
    // indirect call through a slot `m` holds WRITE over: the refusal
    // names a live principal of the dying module and must be charged to
    // it — a fault record, never a kernel panic.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    let mid = k.runtime_module(id).unwrap();
    let other = k.load_module(faulty_spec("other")).unwrap();
    let core = k.runtime_core();
    let writer = core.shared_principal(mid);
    let slot = k.kstatic_alloc(8);
    core.grant(writer, RawCap::write(slot, 8));
    let target = k.module_fn_addr(other, "touch").unwrap();
    k.mem.write_word(slot, target).unwrap();
    let release = k.kstatic_alloc(8);
    let entered = k.module_global_addr(id, "state").unwrap();
    let spin = k.module_fn_addr(id, "spin").unwrap();
    let violate = k.module_fn_addr(id, "violate").unwrap();

    let (mut cpu_a, mut cpu_b, mut cpu_c) = (k.new_cpu(), k.new_cpu(), k.new_cpu());
    let b =
        thread::spawn(move || cpu_b.enter(|k| k.invoke_module_function(spin, &[release], None)));
    while k.mem.read_word(entered).unwrap() == 0 {
        thread::yield_now();
    }
    let a = thread::spawn(move || cpu_a.enter(|k| k.invoke_module_function(violate, &[], None)));
    while k.module_is_live(id) {
        thread::yield_now();
    }
    let c = thread::spawn(move || cpu_c.enter(|k| k.indirect_call(slot, "poisoned_t", &[7])));
    while k.fault_count() < 2 && k.panic_reason().is_none() {
        thread::yield_now();
    }
    assert!(!core.is_retired(writer), "C's trap landed mid-teardown");
    k.mem.write_word(release, 1).unwrap();

    assert_eq!(b.join().unwrap().unwrap(), 0, "B drains normally");
    assert_eq!(expect_fault(a.join().unwrap()).id, Some(id));
    let fault = expect_fault(c.join().unwrap());
    assert_eq!(fault.id, Some(id), "charged to the dying module's entry");
    assert_eq!(fault.module, "m");
    assert!(matches!(
        fault.violation,
        Some(Violation::IndCallUnauthorized { writer: w, .. }) if w == writer
    ));
    assert!(k.panic_reason().is_none());
    assert!(core.is_retired(writer), "the teardown still completes");
}

#[test]
fn creating_a_cpu_does_not_wait_out_a_teardown_grace_period() {
    // CPU 1 sits inside `m`; CPU 2 quarantines `m` and waits out CPU 1
    // in the grace period. A third CPU created meanwhile must come up
    // while CPU 1 is still inside, and the dying module must not end up
    // holding the new CPU's stack.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let id = k.load_module(faulty_spec("m")).unwrap();
    let mid = k.runtime_module(id).unwrap();
    let core = k.runtime_core();
    let release = k.kstatic_alloc(8);
    let entered = k.module_global_addr(id, "state").unwrap();
    let spin = k.module_fn_addr(id, "spin").unwrap();
    let violate = k.module_fn_addr(id, "violate").unwrap();

    let (mut cpu1, mut cpu2) = (k.new_cpu(), k.new_cpu());
    let one =
        thread::spawn(move || cpu1.enter(|k| k.invoke_module_function(spin, &[release], None)));
    while k.mem.read_word(entered).unwrap() == 0 {
        thread::yield_now();
    }
    let two = thread::spawn(move || cpu2.enter(|k| k.invoke_module_function(violate, &[], None)));
    while k.module_is_live(id) {
        thread::yield_now();
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let kcore = Arc::clone(k.kernel_core());
    let three = thread::spawn(move || tx.send(KernelCpu::new(kcore)).is_ok());
    let created = rx.recv_timeout(std::time::Duration::from_secs(10));
    let one_still_inside = k.mem.read_word(release).unwrap() == 0;
    // Let CPU 1 leave either way, so a failure below does not hang.
    k.mem.write_word(release, 1).unwrap();
    assert!(
        created.is_ok() && one_still_inside,
        "the third CPU waited for CPU 1 to leave the dying module"
    );

    assert_eq!(one.join().unwrap().unwrap(), 0, "CPU 1 drains normally");
    assert_eq!(expect_fault(two.join().unwrap()).id, Some(id));
    three.join().unwrap();
    let victims = core.module_principals(mid);
    assert!(victims.iter().all(|&p| core.is_retired(p)));
    // The new CPU is kernel thread 3 (boot CPU, CPU 1, CPU 2 before it).
    let stack = STACK_BASE + 3 * STACK_STRIDE;
    assert!(k.mem.is_mapped(stack, STACK_SIZE));
    let mut writers = Vec::new();
    core.collect_writers(stack, STACK_SIZE, &mut writers);
    assert!(
        writers.iter().all(|p| !victims.contains(p)),
        "a dead module holds the new stack: {writers:?}"
    );
    core.check_index_invariants();
    assert!(k.panic_reason().is_none());
}

#[test]
fn unattributable_policy_violation_still_panics() {
    // `lxfi_princ_alias` from kernel context: a policy violation with no
    // module on the stack and no culprit principal — the kernel's OWN
    // invariant broke, so the kernel-wide panic flag is correct.
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let r = k.enter(|k| k.princ_alias_current(1, 2));
    assert!(matches!(r, Err(KernelError::Panic(_))), "{r:?}");
    assert!(k.panic_reason().is_some());
}

/// One load → traffic → crash cycle; returns nothing, asserts the fault
/// was contained.
fn crash_cycle(k: &mut Kernel) {
    let id = k.load_module(faulty_spec("m")).unwrap();
    call(k, "m", "tidy", &[3]).unwrap();
    let leaked = call(k, "m", "work", &[5]).unwrap();
    assert_ne!(leaked, 0);
    call(k, "m", "touch", &[9]).unwrap();
    let fault = expect_fault(call(k, "m", "violate", &[]));
    assert_eq!(fault.id, Some(id));
    assert!(k.panic_reason().is_none());
}

/// The resource levels the leak gate compares (all gauges, no
/// monotonic counters): live principals, live slab objects, principals
/// holding a writer-index record, and writer-index entries.
fn gauges(k: &Kernel) -> (u64, u64, usize, usize) {
    let core = k.runtime_core();
    let (live, _retired) = core.principal_gauges();
    (
        live,
        k.slab().live_count() as u64,
        core.index_set_count(),
        k.rt.index_interval_count(),
    )
}

#[test]
fn hundred_crash_recover_cycles_leak_nothing() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    // One cycle to reach steady state: the first crash leaves the
    // retired principals covering the dead window until the slot is
    // reused, and every later cycle ends in exactly that state.
    crash_cycle(&mut k);
    let steady = gauges(&k);
    let (_, retired_per_cycle) = k.runtime_core().principal_gauges();
    for cycle in 0..100 {
        crash_cycle(&mut k);
        assert_eq!(
            gauges(&k),
            steady,
            "resource gauges must return to steady state (cycle {cycle})"
        );
    }
    let (_, retired) = k.runtime_core().principal_gauges();
    assert_eq!(
        retired,
        retired_per_cycle * 101,
        "each crash retires exactly the module's own principals"
    );
    assert_eq!(k.fault_count(), 101, "one fault record per crash");
    k.rt.check_index_invariants();
}

#[test]
fn supervisor_restarts_after_backoff() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let mut sup = Supervisor::new(RestartPolicy {
        max_consecutive_failures: 3,
        base_backoff: 2,
        max_backoff: 8,
        probation: 4,
    });
    sup.supervise(
        &mut k,
        "m",
        IsolationMode::Lxfi,
        Box::new(|| faulty_spec("m")),
    )
    .unwrap();
    expect_fault(call(&mut k, "m", "violate", &[]));

    // Tick 1 sees the fault and schedules the restart 2 ticks out.
    let ev = sup.tick(&mut k);
    assert!(matches!(
        ev[0],
        SupervisorEvent::Faulted { consecutive: 1, .. }
    ));
    assert!(matches!(
        sup.state("m"),
        Some(SupervisedState::Backoff { .. })
    ));
    assert!(k.module_id("m").is_none(), "dead during backoff");

    // Not due yet.
    assert!(sup.tick(&mut k).is_empty());
    // Due: restarted from the pristine spec.
    let ev = sup.tick(&mut k);
    assert!(
        matches!(
            ev[0],
            SupervisorEvent::Restarted {
                after_backoff: 2,
                ..
            }
        ),
        "{ev:?}"
    );
    assert_eq!(sup.restarts("m"), 1);
    assert_eq!(call(&mut k, "m", "touch", &[11]).unwrap(), 11);
}

#[test]
fn crash_loop_detection_gives_up_and_kernel_degrades_gracefully() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let healthy = k.load_module(faulty_spec("healthy")).unwrap();
    let mut sup = Supervisor::new(RestartPolicy {
        max_consecutive_failures: 3,
        base_backoff: 1,
        max_backoff: 4,
        probation: 100, // never forgiven within this test
    });
    sup.supervise(
        &mut k,
        "m",
        IsolationMode::Lxfi,
        Box::new(|| faulty_spec("m")),
    )
    .unwrap();

    let mut crash_looping = false;
    for _ in 0..64 {
        if matches!(sup.state("m"), Some(SupervisedState::Running(_))) && k.module_id("m").is_some()
        {
            expect_fault(call(&mut k, "m", "violate", &[]));
        }
        for e in sup.tick(&mut k) {
            if matches!(e, SupervisorEvent::CrashLooping { .. }) {
                crash_looping = true;
            }
        }
        // Healthy traffic continues throughout the crash loop.
        assert_eq!(call(&mut k, "healthy", "touch", &[5]).unwrap(), 5);
    }
    assert!(crash_looping, "the crash loop was detected");
    assert_eq!(sup.state("m"), Some(SupervisedState::Dead));
    assert_eq!(sup.restarts("m"), 2, "restarted twice, then given up on");
    assert!(k.module_id("m").is_none(), "left dead");
    assert!(k.panic_reason().is_none());
    assert!(k.module_is_live(healthy));
}

#[test]
fn probation_resets_the_failure_streak() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let mut sup = Supervisor::new(RestartPolicy {
        max_consecutive_failures: 2,
        base_backoff: 1,
        max_backoff: 4,
        probation: 3,
    });
    sup.supervise(
        &mut k,
        "m",
        IsolationMode::Lxfi,
        Box::new(|| faulty_spec("m")),
    )
    .unwrap();
    // Crash once, recover, then stay healthy past probation: the streak
    // clears, so a LATER crash is "first offense" again, not the fatal
    // second strike.
    expect_fault(call(&mut k, "m", "violate", &[]));
    sup.tick(&mut k); // fault seen, backoff 1
    sup.tick(&mut k); // restarted
    assert!(matches!(sup.state("m"), Some(SupervisedState::Running(_))));
    for _ in 0..4 {
        call(&mut k, "m", "touch", &[1]).unwrap();
        sup.tick(&mut k);
    }
    expect_fault(call(&mut k, "m", "violate", &[]));
    sup.tick(&mut k);
    assert!(
        matches!(sup.state("m"), Some(SupervisedState::Backoff { .. })),
        "streak was reset by probation; module is restartable, not dead: {:?}",
        sup.state("m")
    );
}
