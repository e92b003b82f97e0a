//! Fault containment (`docs/fault-model.md`). A trap raised while an
//! **isolated module** executes (or a policy violation whose culprit
//! principal belongs to one) **quarantines that module only** — name
//! and function addresses unpublished, in-flight executions drained
//! through the RCU grace period, resources reclaimed, principals retired
//! with their WRITE grants kept as past-writer records — and the kernel
//! keeps serving every other module. A policy violation that cannot be
//! attributed to any module is a violation of the kernel's *own*
//! invariants and still escalates to a **kernel panic** shared by every
//! CPU. A machine fault (NULL dereference) goes down the **oops** path,
//! which runs `do_exit` — including its CVE-2010-4258 bug of zeroing the
//! user-controlled `clear_child_tid` pointer; module machine faults oops
//! *and* quarantine (the interrupted process dies either way).
//!
//! Also here: the module-execution bracket, whose active counts the
//! teardown's grace period waits out and whose unwind names the module
//! a trap is charged to; simulated interrupts; the fault log.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use lxfi_core::{PrincipalId, RawCap, Violation};
use lxfi_machine::{run_compiled, run_function, FuncId, Trap, Word};

use super::{KernelCpu, KernelError, LoadedModule, LoadedModuleId, ModuleFault};
use crate::layout::STACK_SIZE;

impl KernelCpu {
    // ----------------------------------------------------- panic plumbing

    /// The recorded panic reason, if the kernel's *own* invariants were
    /// violated. Panics are kernel-wide: any CPU's panic halts every
    /// CPU's `enter`. Contained module faults do **not** set this —
    /// they are recorded in the fault log (see [`KernelCpu::last_fault`]).
    pub fn panic_reason(&self) -> Option<String> {
        self.core
            .panic
            .lock()
            .expect("panic lock")
            .as_ref()
            .map(|(s, _)| s.clone())
    }

    /// The violation behind the most recent containment event: the
    /// kernel panic if one is recorded, else the latest module fault
    /// (for precise assertions).
    pub fn last_violation(&self) -> Option<Violation> {
        if let Some((_, v)) = &*self.core.panic.lock().expect("panic lock") {
            return v.clone();
        }
        self.core
            .faults
            .lock()
            .expect("faults lock")
            .last()
            .and_then(|f| f.violation.clone())
    }

    /// Clears panic state (tests that probe multiple violations).
    pub fn clear_panic(&mut self) {
        *self.core.panic.lock().expect("panic lock") = None;
        self.core.panicked.store(false, Ordering::Release);
    }

    // ------------------------------------------------------ fault domain

    /// The most recent contained module fault, if any.
    pub fn last_fault(&self) -> Option<ModuleFault> {
        self.core
            .faults
            .lock()
            .expect("faults lock")
            .last()
            .cloned()
    }

    /// Number of contained module faults so far (cheap; the supervisor
    /// polls this between ticks).
    pub fn fault_count(&self) -> usize {
        self.core.faults.lock().expect("faults lock").len()
    }

    /// The contained module faults recorded at index `from` onward
    /// (oldest first) — incremental consumption for the supervisor.
    pub fn faults_since(&self, from: usize) -> Vec<ModuleFault> {
        let log = self.core.faults.lock().expect("faults lock");
        log.get(from..).unwrap_or(&[]).to_vec()
    }

    /// Whether a module registry slot currently holds a live (not torn
    /// down) module.
    pub fn module_is_live(&self, id: LoadedModuleId) -> bool {
        self.module_at(id)
            .is_some_and(|m| !m.unloaded.load(Ordering::Acquire))
    }

    /// Runs a kernel entry point (syscall), classifying escaped traps by
    /// fault domain (`docs/fault-model.md`):
    ///
    /// - a trap raised while an **isolated module** executes — or a
    ///   policy violation whose culprit principal belongs to one —
    ///   quarantines that module only ([`KernelError::ModuleFault`]);
    ///   the kernel keeps running;
    /// - machine faults in kernel (or stock-module) context go down the
    ///   oops path, which runs `do_exit` (§8.1 Econet); module machine
    ///   faults oops *and* quarantine — the interrupted process dies
    ///   either way;
    /// - policy violations attributable to no module are violations of
    ///   the kernel's own invariants and panic the kernel.
    pub fn enter<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<R, Trap>,
    ) -> Result<R, KernelError> {
        // One atomic load while the kernel runs; the reason is read under
        // the lock only once a panic is recorded.
        if self.core.panicked.load(Ordering::Acquire) {
            if let Some((p, _)) = &*self.core.panic.lock().expect("panic lock") {
                return Err(KernelError::Panic(p.clone()));
            }
        }
        self.pending_fault = None;
        match f(self) {
            Ok(r) => {
                // A trap may have been raised and swallowed mid-entry;
                // stale attribution must not outlive the entry.
                self.pending_fault = None;
                // Quiescent point on the way out: dispatch bottom halves
                // bound to this CPU (the softirq-on-syscall-exit
                // analogue). A bottom-half fault is contained inside the
                // drain — it never turns this entry's success into an
                // error, exactly as a real softirq crash does not fail
                // the syscall it interrupted. The lock-free pending probe
                // keeps bottom-half-free entries at one atomic load.
                if self.core.deferred_pending.load(Ordering::Acquire) != 0 {
                    self.deferred_drain();
                }
                Ok(r)
            }
            Err(trap) => {
                let executing = self.pending_fault.take();
                Err(self.contain_trap(trap, executing))
            }
        }
    }

    /// Classifies an escaped trap (see [`KernelCpu::enter`]) into a
    /// contained module fault, an oops, or a kernel panic.
    pub(super) fn contain_trap(
        &mut self,
        trap: Trap,
        executing: Option<Arc<LoadedModule>>,
    ) -> KernelError {
        let violation = match &trap {
            Trap::Policy(e) => e.downcast_ref::<Violation>().cloned(),
            _ => None,
        };
        let is_policy = matches!(trap, Trap::Policy(_));
        let msg = trap.to_string();
        let culprit = violation.as_ref().and_then(|v| v.culprit());

        // Attribution 1: the innermost isolated module executing when
        // the trap was raised. Attribution 2: a policy violation raised
        // in *kernel* context can still name a module principal — e.g.
        // an indirect call through a slot a module planted (§4.1); the
        // module that put the kernel in this position is the culprit.
        // A retired culprit is skipped here: its module is already dead
        // and reclaimed, and the retired-principal branch below records
        // it. A culprit whose module is mid-teardown (entry unloaded,
        // principals not yet retired) still goes to its entry, where the
        // teardown is idempotent.
        let attributed = executing.filter(|m| m.mid.is_some()).or_else(|| {
            let p = culprit?;
            if self.rt.is_retired(p) {
                return None;
            }
            self.loaded_module_of(self.rt.principal_module(p))
        });

        if let Some(m) = attributed {
            let principal = culprit.or_else(|| m.mid.map(|mid| self.rt.shared_principal(mid)));
            // A machine fault still kills the interrupted process: the
            // oops path (and its CVE-2010-4258 zero-write) runs exactly
            // as it would have without LXFI. Policy violations and fuel
            // exhaustion are LXFI's own verdicts — no process dies.
            let oopsed = !is_policy && !matches!(trap, Trap::OutOfFuel);
            if oopsed {
                self.oops();
            }
            // Quarantine: record the fault, then run the shared teardown
            // (unpublish → grace period → reclaim → retire). Idempotent —
            // a second fault attributed to an already-dead module only
            // appends its fault record.
            let err = self.record_fault(ModuleFault {
                id: Some(LoadedModuleId(m.slot)),
                module: m.name.clone(),
                mid: m.mid,
                principal,
                violation,
                reason: msg,
                oopsed,
            });
            self.teardown_module(&m);
            return err;
        }

        // A violation naming a retired principal is planted state from a
        // module that is already dead and reclaimed: record the fault,
        // keep the kernel running.
        if let Some(p) = culprit {
            let rtc = self.core.runtime_core();
            if rtc.is_retired(p) {
                let mid = rtc.principal_module(p);
                return self.record_fault(ModuleFault {
                    id: None,
                    module: rtc.module_name(mid),
                    mid: Some(mid),
                    principal: Some(p),
                    violation,
                    reason: msg,
                    oopsed: false,
                });
            }
        }

        // No module to blame: the kernel's own invariants are at stake.
        if is_policy {
            *self.core.panic.lock().expect("panic lock") = Some((msg.clone(), violation));
            self.core.panicked.store(true, Ordering::Release);
            KernelError::Panic(msg)
        } else {
            self.oops();
            KernelError::Oops(msg)
        }
    }

    /// The registry entry backed by runtime module `mid`, if any.
    fn loaded_module_of(&self, mid: lxfi_core::ModuleId) -> Option<Arc<LoadedModule>> {
        let tab = self.core.modules.read().expect("modules lock");
        tab.modules.iter().find(|m| m.mid == Some(mid)).cloned()
    }

    /// Appends a contained fault to the kernel-wide log.
    fn record_fault(&self, fault: ModuleFault) -> KernelError {
        let mut log = self.core.faults.lock().expect("faults lock");
        log.push(fault.clone());
        KernelError::ModuleFault(Box::new(fault))
    }

    /// The shared teardown quarantine and [`KernelCpu::unload_module`]
    /// both run: unpublish the module's name and function addresses (by
    /// marking its entry unloaded),
    /// wait out the RCU grace period, then reclaim every resource the
    /// module pinned — CALL capabilities to its functions, the
    /// kernel-stack WRITE grants of §3.2, slab objects only its
    /// principals could still free — and retire its principals, whose
    /// remaining WRITE grants stay on record so slots the module wrote
    /// stay poisoned (the window itself is scrubbed at slot *reuse*, not
    /// here). Returns `false` if the module was already torn down (or
    /// another CPU is tearing it down).
    ///
    /// Only the reclamation holds the load lock. The grace period waits
    /// without it, so a CPU created while another CPU is still inside
    /// the dying module does not wait for that CPU to leave. A thread
    /// allocated in the window either saw the module unloaded (no stack
    /// grant) or granted before reclamation, which then revokes it with
    /// the other stacks — and the slot joins `free_slots` only after
    /// reclamation, so no load reuses it early.
    pub(super) fn teardown_module(&mut self, m: &Arc<LoadedModule>) -> bool {
        let core = Arc::clone(&self.core);
        {
            let mut tab = self.core.modules.write().expect("modules lock");
            if m.unloaded.swap(true, Ordering::AcqRel) {
                return false; // already torn down
            }
            if tab.by_name.get(&m.name) == Some(&m.slot) {
                tab.by_name.remove(&m.name);
            }
        }
        // Grace period: the entry is marked unloaded under the write
        // lock, so no function address resolves to it any more and no
        // NEW execution can enter; wait for in-flight executions on
        // other CPUs to drain before revoking the capabilities they are
        // actively using — otherwise a benign racing invocation would
        // die MissingWrite through no fault of its own. References held
        // by THIS CPU are already unwound on the normal quarantine path
        // (the exec stack pops before `enter` classifies); a nested
        // entry tolerates its own — waiting on ourselves would deadlock.
        let own = self.exec_stack.iter().filter(|e| Arc::ptr_eq(e, m)).count();
        while m.active.load(Ordering::Acquire) > own {
            std::thread::yield_now();
        }
        let _load = core.load_lock.lock().expect("load lock");
        self.reclaim_module(m);
        self.core
            .modules
            .write()
            .expect("modules lock")
            .free_slots
            .push(m.slot);
        true
    }

    /// Teardown's reclamation half, run under the load lock after the
    /// grace period (see [`Self::teardown_module`]).
    fn reclaim_module(&mut self, m: &LoadedModule) {
        let Some(mid) = m.mid else {
            return; // stock module: no principals, nothing to reclaim
        };
        // CALL capabilities to the dead functions die everywhere (§3.3
        // transfer semantics applied to the whole module), in one walk
        // of the live principals.
        let calls: Vec<RawCap> = m.funcs().map(|f| RawCap::call(m.fn_addr(f))).collect();
        self.rt.revoke_everywhere(&calls);
        // Kernel-stack grants (§3.2 initial capability (2)) are
        // *returned*, not kept on record: stacks outlive the module and
        // are legitimately rewritten by every later tenant.
        let rtc = self.core.runtime_core();
        let victims = rtc.module_principals(mid);
        let stacks: Vec<Word> = self.core.threads.lock().expect("threads lock").clone();
        for &p in &victims {
            for &base in &stacks {
                self.rt.revoke_write_overlapping(p, base, STACK_SIZE);
            }
        }
        // Slab objects only this module's principals cover are leaks the
        // module can no longer free itself (kfree demands WRITE on the
        // pointer): sweep them. Jointly-covered objects stay — the
        // surviving owner still frees them through the normal path.
        self.sweep_module_slab(&victims);
        // Everything left (window globals, kernel slots it was granted)
        // stays on record as the retired principals' WRITE grants.
        self.rt.retire_module(mid);
    }

    /// Frees live slab objects whose WRITE coverage belongs only to the
    /// dying module's principals: the `kfree` prologue, then the slot
    /// goes back to its shard rather than this CPU's magazine. The
    /// writer index names each object's holders in one query.
    fn sweep_module_slab(&mut self, victims: &[PrincipalId]) {
        let rtc = self.core.runtime_core();
        let objects = self.slab().live_objects();
        let mut holders = Vec::new();
        for (addr, _size, class) in objects {
            holders.clear();
            rtc.collect_writers(addr, class, &mut holders);
            let dead_holds = holders.iter().any(|p| victims.contains(p));
            let live_holds = holders
                .iter()
                .any(|&p| !victims.contains(&p) && !rtc.is_retired(p));
            if !dead_holds || live_holds {
                continue;
            }
            if let Ok(Some(class)) = self.free_prologue(addr) {
                self.slab().finish_free(addr, class);
            }
        }
    }

    /// The oops path: kill the current process via `do_exit`. Faithfully
    /// reproduces CVE-2010-4258: `do_exit` writes a zero through the
    /// user-supplied `clear_child_tid` pointer without resetting the
    /// "user access ok" context — an arbitrary kernel-memory zero-write.
    pub fn oops(&mut self) {
        let task = self.procs().current_task();
        let tid_ptr = self
            .mem
            .read_word((task as i64 + crate::process::task::CLEAR_CHILD_TID) as u64)
            .unwrap_or(0);
        if tid_ptr != 0 {
            // The kernel bug: a 4-byte zero store to an unchecked address,
            // performed in kernel context (no LXFI guard applies — this is
            // core-kernel code, which LXFI trusts).
            let _ = self.mem.write(tid_ptr, 0, lxfi_machine::Width::B4);
        }
        let _ = self
            .mem
            .write_word((task as i64 + crate::process::task::EXITED) as u64, 1);
    }

    /// Runs `handler` as a simulated interrupt: the interrupted module
    /// principal is saved on the shadow stack and restored afterwards
    /// (§3.1).
    pub fn interrupt<R>(&mut self, handler: impl FnOnce(&mut Self) -> R) -> R {
        let tok = self.rt.shadow().interrupt_enter();
        let r = handler(self);
        self.rt
            .shadow()
            .interrupt_exit(tok)
            .expect("interrupt tokens are runtime-managed");
        r
    }

    // ------------------------------------------------ module executions

    /// Runs a module function through whichever backend the module was
    /// loaded for, inside the bracket every dispatch site needs: the
    /// module's active-execution count (the unload grace period waits on
    /// it) and the interpreter's execution stack. The compiled form is
    /// per-module state set at load, so a kernel booted with
    /// [`lxfi_machine::Backend::Interp`] pays nothing.
    pub(super) fn exec_module(
        &mut self,
        m: &Arc<LoadedModule>,
        fid: FuncId,
        args: &[Word],
    ) -> Result<Word, Trap> {
        m.active.fetch_add(1, Ordering::AcqRel);
        self.exec_stack.push(Arc::clone(m));
        let r = match &m.compiled {
            Some(cp) => run_compiled(self, cp, fid, args),
            None => run_function(self, &m.program, fid, args),
        };
        let m = self.exec_stack.pop().expect("balanced exec stack");
        m.active.fetch_sub(1, Ordering::AcqRel);
        if r.is_err() && self.pending_fault.is_none() {
            // Fault attribution: the first frame to observe the trap
            // during unwind is the innermost one — the module that was
            // executing when the trap was raised. `enter` consumes this
            // after the exec stack has fully popped.
            self.pending_fault = Some(m);
        }
        r
    }
}
