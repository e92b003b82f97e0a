//! Races of the multi-CPU kernel: syscall-style module invocations on
//! two worker `KernelCpu`s against module load/unload and capability
//! revocation — plus a post-quiescence oracle comparing the surviving
//! kernel state (slab, process table, reverse writer index) with a
//! single-threaded replay of the same work.
//!
//! These tests stress the redesign's commit points: the module-registry
//! write lock (load/unload) against concurrent dispatch, the shared
//! slab under concurrent kmalloc/kfree from interpreted module code,
//! and epoch-based revocation landing between another CPU's guarded
//! stores. A policy violation anywhere panics the shared kernel, so
//! "the run completes" is itself the isolation assertion.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use lxfi_core::{PrincipalId, RawCap, RuntimeCore};
use lxfi_kernel::{IsolationMode, Kernel, KernelCpu, ModuleSpec};
use lxfi_machine::builder::regs::*;
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_rewriter::InterfaceSpec;

/// The global principal walk: writers of the 8-byte slot at `addr`.
fn linear_walk(rt: &RuntimeCore, addr: Word) -> Vec<PrincipalId> {
    (0..rt.principal_count() as u32)
        .map(PrincipalId)
        .filter(|&p| rt.write_overlaps(p, addr, 8))
        .collect()
}

/// A worker module with a heap-churn loop and a global-fill loop:
/// - `churn_mem(n)`: n rounds of kmalloc(96) → store → kfree (slab +
///   capability transfer + kfree revocation sweep per round);
/// - `fill_global(n)`: n guarded 8-byte stores into its own .data.
fn worker_spec(name: &str) -> ModuleSpec {
    let mut pb = ProgramBuilder::new(name);
    let kmalloc = pb.import_func("kmalloc");
    let kfree = pb.import_func("kfree");
    let scratch = pb.global("scratch", 256);

    pb.define("churn_mem", 1, 0, |f| {
        let top = f.label();
        let done = f.label();
        f.mov(R5, R0);
        f.bind(top);
        f.br(lxfi_machine::Cond::Eq, R5, 0i64, done);
        f.call_extern(kmalloc, &[96i64.into()], Some(R1));
        f.store8(R5, R1, 0);
        f.store8(R5, R1, 88);
        f.call_extern(kfree, &[R1.into()], None);
        f.sub(R5, R5, 1i64);
        f.jmp(top);
        f.bind(done);
        f.ret(0i64);
    });

    pb.define("violate", 0, 0, |f| {
        // A store to an address nobody granted: the policy violation
        // that quarantines this module.
        f.mov(R1, 0x5000i64);
        f.store8(1i64, R1, 0);
        f.ret(0i64);
    });

    pb.define("fill_global", 1, 0, |f| {
        let top = f.label();
        let done = f.label();
        f.mov(R5, 0i64);
        f.global_addr(R1, scratch);
        f.bind(top);
        f.br(lxfi_machine::Cond::Eq, R5, R0, done);
        f.bin(lxfi_machine::BinOp::Rem, R2, R5, 32i64);
        f.bin(lxfi_machine::BinOp::Mul, R2, R2, 8i64);
        f.add(R2, R2, R1);
        f.store8(R5, R2, 0);
        f.add(R5, R5, 1i64);
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

/// A tiny module the loader thread loads, runs, and unloads.
fn churn_spec(seq: u64) -> ModuleSpec {
    let mut pb = ProgramBuilder::new("churn");
    let state = pb.global("state", 64);
    pb.define("touch", 1, 0, |f| {
        f.global_addr(R1, state);
        f.store8(R0, R1, 0);
        f.ret(0i64);
    });
    ModuleSpec {
        name: format!("churn-{seq}"),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

fn invoke(cpu: &mut KernelCpu, module: &str, func: &str, args: &[Word]) {
    let id = cpu.module_id(module).expect("module loaded");
    let addr = cpu.module_fn_addr(id, func).expect("function exists");
    cpu.enter(|k| k.invoke_module_function(addr, args, None))
        .unwrap_or_else(|e| panic!("{module}::{func} must not violate policy: {e}"));
}

/// Barrier-phased chaos: two worker CPUs invoking module code, a loader
/// CPU cycling load → invoke → unload, and a revoker stripping and
/// re-granting spare capabilities on the workers' principals — phase by
/// phase, so every phase really overlaps all four actors.
#[test]
fn barrier_phased_syscall_vs_load_vs_revoke() {
    const PHASES: usize = 8;
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let a = k.load_module(worker_spec("worker-a")).unwrap();
    let b = k.load_module(worker_spec("worker-b")).unwrap();
    let mid_a = k.runtime_module(a).unwrap();
    let mid_b = k.runtime_module(b).unwrap();
    let core = k.runtime_core();
    let spare_a = RawCap::write(0x7100_0000, 0x100);
    let spare_b = RawCap::write(0x7200_0000, 0x100);
    core.grant(core.shared_principal(mid_a), spare_a);
    core.grant(core.shared_principal(mid_b), spare_b);

    let barrier = Arc::new(Barrier::new(4));
    let stop = Arc::new(AtomicBool::new(false));

    let worker = |mut cpu: KernelCpu, name: &'static str| {
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            for _ in 0..PHASES {
                barrier.wait();
                invoke(&mut cpu, name, "churn_mem", &[8]);
                invoke(&mut cpu, name, "fill_global", &[64]);
            }
        })
    };
    let wa = worker(k.new_cpu(), "worker-a");
    let wb = worker(k.new_cpu(), "worker-b");

    let loader = {
        let mut cpu = k.new_cpu();
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            for phase in 0..PHASES {
                barrier.wait();
                let id = cpu.load_module(churn_spec(phase as u64)).unwrap();
                let addr = cpu.module_fn_addr(id, "touch").unwrap();
                cpu.enter(|k| k.invoke_module_function(addr, &[7], None))
                    .unwrap();
                cpu.unload_module(id).unwrap();
            }
        })
    };

    let revoker = {
        let core = Arc::clone(&core);
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let pa = core.shared_principal(mid_a);
            let pb = core.shared_principal(mid_b);
            for _ in 0..PHASES {
                barrier.wait();
                for _ in 0..64 {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    core.revoke(pa, spare_a);
                    core.grant(pa, spare_a);
                    core.revoke(pb, spare_b);
                    core.grant(pb, spare_b);
                }
            }
        })
    };

    wa.join().unwrap();
    wb.join().unwrap();
    loader.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    revoker.join().unwrap();

    assert!(k.panic_reason().is_none(), "{:?}", k.panic_reason());
    // Workers' globals hold the last fill values.
    let ga = k.module_global_addr(a, "scratch").unwrap();
    let gb = k.module_global_addr(b, "scratch").unwrap();
    assert_eq!(
        k.mem.read_word(ga + 8).unwrap(),
        33,
        "fill(64): last i%32==1 is 33"
    );
    assert_eq!(k.mem.read_word(gb + 8).unwrap(), 33);
    // No module-churn heap leaks; the writer index still agrees with
    // the capability tables.
    assert_eq!(k.slab().live_count(), 0, "all churned allocations freed");
    k.rt.check_index_invariants();
    assert_eq!(k.rt.writers_of(ga), linear_walk(&k.rt, ga));
    // The workers kept their spares (revoker always re-grants).
    assert!(core.owns(core.shared_principal(mid_a), spare_a));
}

/// Runs the canonical workload either concurrently (3 extra CPUs) or
/// single-threaded on the facade, and returns the post-quiescence
/// observables the oracle compares.
fn run_workload(concurrent: bool) -> (Vec<u64>, Vec<Vec<lxfi_core::PrincipalId>>) {
    const A_ROUNDS: u64 = 40;
    const B_ROUNDS: u64 = 60;
    const LOADS: u64 = 5;

    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let a = k.load_module(worker_spec("worker-a")).unwrap();
    let b = k.load_module(worker_spec("worker-b")).unwrap();

    if concurrent {
        let mut cpu_a = k.new_cpu();
        let mut cpu_b = k.new_cpu();
        let mut cpu_l = k.new_cpu();
        let barrier = Arc::new(Barrier::new(3));
        let ba = Arc::clone(&barrier);
        let bb = Arc::clone(&barrier);
        let bl = Arc::clone(&barrier);
        let ta = thread::spawn(move || {
            ba.wait();
            for _ in 0..A_ROUNDS {
                invoke(&mut cpu_a, "worker-a", "churn_mem", &[4]);
                invoke(&mut cpu_a, "worker-a", "fill_global", &[32]);
            }
        });
        let tb = thread::spawn(move || {
            bb.wait();
            for _ in 0..B_ROUNDS {
                invoke(&mut cpu_b, "worker-b", "churn_mem", &[4]);
                invoke(&mut cpu_b, "worker-b", "fill_global", &[32]);
            }
        });
        let tl = thread::spawn(move || {
            bl.wait();
            for i in 0..LOADS {
                let id = cpu_l.load_module(churn_spec(i)).unwrap();
                let addr = cpu_l.module_fn_addr(id, "touch").unwrap();
                cpu_l
                    .enter(|k| k.invoke_module_function(addr, &[i], None))
                    .unwrap();
                cpu_l.unload_module(id).unwrap();
            }
        });
        ta.join().unwrap();
        tb.join().unwrap();
        tl.join().unwrap();
    } else {
        // The replay allocates the same number of simulated threads so
        // per-thread stack grants (coverage every module receives)
        // match the concurrent world's.
        let _c1 = k.new_cpu();
        let _c2 = k.new_cpu();
        let _c3 = k.new_cpu();
        for _ in 0..A_ROUNDS {
            invoke(&mut k, "worker-a", "churn_mem", &[4]);
            invoke(&mut k, "worker-a", "fill_global", &[32]);
        }
        for _ in 0..B_ROUNDS {
            invoke(&mut k, "worker-b", "churn_mem", &[4]);
            invoke(&mut k, "worker-b", "fill_global", &[32]);
        }
        for i in 0..LOADS {
            let id = k.load_module(churn_spec(i)).unwrap();
            let addr = k.module_fn_addr(id, "touch").unwrap();
            k.enter(|k| k.invoke_module_function(addr, &[i], None))
                .unwrap();
            k.unload_module(id).unwrap();
        }
    }

    assert!(k.panic_reason().is_none(), "{:?}", k.panic_reason());
    k.rt.check_index_invariants();

    let ga = k.module_global_addr(a, "scratch").unwrap();
    let gb = k.module_global_addr(b, "scratch").unwrap();
    let heap_probe = lxfi_kernel::HEAP_BASE;
    let stack_probe = lxfi_kernel::STACK_BASE;
    // Index and linear walk must agree post-quiescence at every probe.
    for addr in [ga, gb, heap_probe, stack_probe] {
        assert_eq!(
            k.rt.writers_of(addr),
            linear_walk(&k.rt, addr),
            "index/table agreement at {addr:#x}"
        );
    }
    // Each accessor locks; take them one statement at a time (a guard
    // temporary lives to the end of its whole statement).
    let (live, allocated) = {
        let slab = k.slab();
        (slab.live_count() as u64, slab.allocated())
    };
    let pids = k.procs().visible_pids().len() as u64;
    let scalars = vec![
        live,
        allocated,
        pids,
        k.rt.index_interval_count() as u64,
        {
            let mut heap_writers = Vec::new();
            k.rt.collect_writers(lxfi_kernel::HEAP_BASE, 0x10_0000, &mut heap_writers);
            u64::from(!heap_writers.is_empty())
        },
        k.mem.read_word(ga + 8).unwrap(),
        k.mem.read_word(gb + 16).unwrap(),
    ];
    let writers = vec![
        k.rt.writers_of(ga),
        k.rt.writers_of(gb),
        k.rt.writers_of(stack_probe),
        k.rt.writers_of(heap_probe),
    ];
    (scalars, writers)
}

/// The post-quiescence oracle: after the concurrent run settles, the
/// kernel's surviving state — slab occupancy, process table, writer
/// index coverage, module globals — must equal a single-threaded replay
/// of the same work (the workload is designed interleaving-independent:
/// per-CPU work touches per-module objects, and every transient grant
/// is released before quiescence).
#[test]
fn post_quiescence_state_agrees_with_single_threaded_replay() {
    let (concurrent_scalars, concurrent_writers) = run_workload(true);
    let (replay_scalars, replay_writers) = run_workload(false);
    assert_eq!(
        concurrent_scalars, replay_scalars,
        "slab/procs/index scalars must match the replay"
    );
    assert_eq!(
        concurrent_writers, replay_writers,
        "writer sets must match the replay"
    );
}

/// The redesign's type-level acceptance bar: the shared kernel half is
/// `Send + Sync`, and an execution context can move to another thread.
#[test]
fn kernel_core_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<lxfi_kernel::KernelCore>();
    assert_send::<KernelCpu>();
}

/// Unloading a module another CPU is executing must wait out the
/// in-flight execution (the RCU-style grace period) instead of
/// revoking its capabilities mid-run: every racing invocation either
/// completes in full or is rejected cleanly at dispatch (the function
/// address no longer resolves) — never killed mid-run by a spurious
/// MissingWrite panic.
#[test]
fn unload_waits_for_in_flight_execution() {
    for _ in 0..8 {
        let mut k = Kernel::boot(IsolationMode::Lxfi);
        let id = k.load_module(worker_spec("worker-a")).unwrap();
        let addr = k.module_fn_addr(id, "churn_mem").unwrap();
        let mut cpu = k.new_cpu();
        let barrier = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let runner = thread::spawn(move || {
            b2.wait();
            let mut completed = 0u64;
            loop {
                // Heap churn + guarded stores: the racing unload lands
                // somewhere inside one of these.
                match cpu.enter(|k| k.invoke_module_function(addr, &[16], None)) {
                    Ok(_) => completed += 1,
                    // Dispatch rejected: the module is unpublished. A
                    // machine-fault classification (oops) is the
                    // expected shape for a dangling call target.
                    Err(lxfi_kernel::KernelError::Oops(_)) => break completed,
                    Err(e) => panic!("in-flight execution killed mid-run: {e}"),
                }
            }
        });
        barrier.wait();
        k.unload_module(id).unwrap();
        let completed = runner.join().expect("runner must not panic");
        let _ = completed; // 0 is legal: unload may win before the first dispatch
        assert!(k.panic_reason().is_none(), "{:?}", k.panic_reason());
        assert_eq!(k.slab().live_count(), 0);
    }
}

/// A CPU cannot unload the module it is itself executing ("module
/// busy" — waiting on itself would deadlock).
#[test]
fn self_unload_is_refused() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    // A native that tries to unload while the caller module executes.
    k.export(
        "try_self_unload",
        vec![],
        Some(""),
        std::sync::Arc::new(|k, _args| {
            let id = k.module_id("worker-a").expect("loaded");
            match k.unload_module(id) {
                Err(lxfi_kernel::KernelError::Fail(msg)) => {
                    assert!(msg.contains("executing"), "unexpected error: {msg}");
                    Ok(0)
                }
                other => panic!("self-unload must be refused, got {other:?}"),
            }
        }),
    );
    let mut pb = ProgramBuilder::new("worker-a");
    let unload = pb.import_func("try_self_unload");
    pb.define("call_unload", 0, 0, |f| {
        f.call_extern(unload, &[], Some(R0));
        f.ret(R0);
    });
    let spec = ModuleSpec {
        name: "worker-a".into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    };
    let id = k.load_module(spec).unwrap();
    let addr = k.module_fn_addr(id, "call_unload").unwrap();
    k.enter(|k| k.invoke_module_function(addr, &[], None))
        .unwrap();
}

/// A module crashing on one CPU must not kill another CPU's in-flight
/// call into the SAME module: quarantine unpublishes the name, then
/// waits out the grace period before reclaiming capabilities, so every
/// racing invocation either completes in full or is rejected cleanly at
/// dispatch — and only the faulting module dies, never the kernel.
#[test]
fn crash_on_one_cpu_spares_in_flight_call_on_another() {
    for round in 0..8 {
        let mut k = Kernel::boot(IsolationMode::Lxfi);
        let id = k.load_module(worker_spec("worker-a")).unwrap();
        let addr = k.module_fn_addr(id, "churn_mem").unwrap();
        let mut cpu = k.new_cpu();
        let barrier = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let runner = thread::spawn(move || {
            b2.wait();
            let mut completed = 0u64;
            loop {
                match cpu.enter(|k| k.invoke_module_function(addr, &[16], None)) {
                    Ok(_) => completed += 1,
                    // Dispatch rejected: the module is gone (dangling
                    // target in kernel context → oops, as for unload).
                    Err(lxfi_kernel::KernelError::Oops(_)) => break completed,
                    Err(e) => panic!("in-flight call killed by the crash: {e}"),
                }
            }
        });
        barrier.wait();
        // Crash the module from the main CPU while the runner is (very
        // likely) mid-call.
        let vaddr = k.module_fn_addr(id, "violate").unwrap();
        match k.enter(|k| k.invoke_module_function(vaddr, &[], None)) {
            Err(lxfi_kernel::KernelError::ModuleFault(f)) => {
                assert_eq!(f.module, "worker-a");
                assert_eq!(f.id, Some(id), "fault attributed by id, round {round}");
            }
            other => panic!("expected a module fault, got {other:?}"),
        }
        runner.join().expect("runner must not panic");
        assert!(k.panic_reason().is_none(), "{:?}", k.panic_reason());
        assert!(!k.module_is_live(id));
        assert_eq!(k.slab().live_count(), 0, "churned allocations reclaimed");
        k.rt.check_index_invariants();
    }
}

/// Crash-recovery workload for the replay oracle: a healthy module
/// serves traffic on its own CPU while the main CPU repeatedly loads,
/// crashes, and reloads a faulty sibling. Observables are taken after
/// quiescence.
fn run_crash_workload(concurrent: bool) -> (Vec<u64>, Vec<Vec<lxfi_core::PrincipalId>>) {
    const ROUNDS: u64 = 24;
    const CRASHES: u64 = 12;

    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let a = k.load_module(worker_spec("worker-a")).unwrap();

    let crash_once = |k: &mut KernelCpu| {
        let id = k.load_module(worker_spec("faulty")).unwrap();
        invoke(k, "faulty", "churn_mem", &[2]);
        invoke(k, "faulty", "fill_global", &[8]);
        let vaddr = k.module_fn_addr(id, "violate").unwrap();
        match k.enter(|kk| kk.invoke_module_function(vaddr, &[], None)) {
            Err(lxfi_kernel::KernelError::ModuleFault(_)) => {}
            other => panic!("expected a module fault, got {other:?}"),
        }
    };

    if concurrent {
        let mut cpu_a = k.new_cpu();
        let mut cpu_c = k.new_cpu();
        let barrier = Arc::new(Barrier::new(2));
        let ba = Arc::clone(&barrier);
        let bc = Arc::clone(&barrier);
        let ta = thread::spawn(move || {
            ba.wait();
            for _ in 0..ROUNDS {
                invoke(&mut cpu_a, "worker-a", "churn_mem", &[4]);
                invoke(&mut cpu_a, "worker-a", "fill_global", &[32]);
            }
        });
        let tc = thread::spawn(move || {
            bc.wait();
            for _ in 0..CRASHES {
                crash_once(&mut cpu_c);
            }
        });
        ta.join().unwrap();
        tc.join().unwrap();
    } else {
        let _c1 = k.new_cpu();
        let _c2 = k.new_cpu();
        for _ in 0..ROUNDS {
            invoke(&mut k, "worker-a", "churn_mem", &[4]);
            invoke(&mut k, "worker-a", "fill_global", &[32]);
        }
        for _ in 0..CRASHES {
            crash_once(&mut k);
        }
    }

    assert!(k.panic_reason().is_none(), "{:?}", k.panic_reason());
    assert_eq!(k.fault_count(), CRASHES as usize);
    k.rt.check_index_invariants();

    let ga = k.module_global_addr(a, "scratch").unwrap();
    let core = k.runtime_core();
    let (principals_live, principals_retired) = core.principal_gauges();
    let (live, allocated) = {
        let slab = k.slab();
        (slab.live_count() as u64, slab.allocated())
    };
    let scalars = vec![
        live,
        allocated,
        principals_live,
        principals_retired,
        core.index_set_count() as u64,
        k.rt.index_interval_count() as u64,
        k.mem.read_word(ga + 8).unwrap(),
    ];
    let writers = vec![
        k.rt.writers_of(ga),
        k.rt.writers_of(lxfi_kernel::STACK_BASE),
        k.rt.writers_of(lxfi_kernel::HEAP_BASE),
    ];
    (scalars, writers)
}

/// The post-recovery oracle: after concurrent crash/recover churn
/// settles, the surviving kernel state — slab occupancy, principal
/// gauges, writer-index coverage, the healthy module's globals — must
/// equal a fresh single-threaded replay of the same work.
#[test]
fn post_crash_recovery_state_agrees_with_single_threaded_replay() {
    let (concurrent_scalars, concurrent_writers) = run_crash_workload(true);
    let (replay_scalars, replay_writers) = run_crash_workload(false);
    assert_eq!(
        concurrent_scalars, replay_scalars,
        "gauges match the replay"
    );
    assert_eq!(concurrent_writers, replay_writers, "writer sets match");
}
