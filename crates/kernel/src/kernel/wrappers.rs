//! The kernel's wrappers: control-transfer interposition (§5, Figure 6)
//! and the guards rewritten module code calls. This is the part of
//! [`KernelCpu`] the "Trusted base" row of `table_components` counts.
//! Every crossing runs `KernelCpu::wrapped`, the one annotation
//! wrapper: `pre` actions, the call, `post` actions, bracketed by the
//! shadow-stack entry and return-token check when it switches context.
//!
//! - **module → kernel** (`call_extern` and `call_ptr` of the [`Env`]
//!   impl): CALL-capability check (plus, for pointers, the annotation
//!   match), then `call_export`: unannotated exports are uncallable,
//!   runtime entry points (§3.4) run in the caller's context and only
//!   through direct calls, every other export runs in kernel context.
//! - **kernel → module** ([`KernelCpu::invoke_module_function`]): principal
//!   selection from the `principal(...)` annotation, then the wrapper
//!   around the module function.
//! - **kernel indirect calls** ([`KernelCpu::indirect_call`] for native
//!   code, `GuardIndCall` for rewritten kernel thunks): the reverse writer
//!   index resolves the slot's writer principals (sublinear in
//!   principals, §5); with none the call is kernel-authored, otherwise
//!   each must hold CALL for the target, plus the annotation-hash match
//!   — then dispatch.

use std::sync::Arc;

use lxfi_core::actions::{apply_actions, CallSite, Dir};
use lxfi_core::iface::FnDecl;
use lxfi_core::shadow::PrincipalCtx;
use lxfi_core::{PrincipalId, Violation};
use lxfi_machine::program::ImportKind;
use lxfi_machine::{AddressSpace, Env, FuncId, GlobalId, SigId, SymbolId, Trap, Word};

use super::{IsolationMode, KernelCpu, ModuleRef};
use crate::exports::Export;
use crate::layout::{is_user_addr, KDATA_BASE, STACK_SIZE};

impl KernelCpu {
    /// Runs a kernel thunk function (trusted KIR, e.g. the netif dispatch
    /// path) by name.
    pub fn run_kernel_thunk(&mut self, func: &str, args: &[Word]) -> Result<Word, Trap> {
        // Thunk dispatch is per-packet on the netperf path; the cache set
        // at boot replaces a registry read lock plus a linear name scan
        // with one hash lookup.
        let thunks = self.core.thunks.get().expect("thunks loaded at boot");
        let fid = *thunks
            .by_name
            .get(func)
            .ok_or_else(|| Trap::BadRef(format!("thunk {func}")))?;
        self.run_thunk(fid, args)
    }

    /// Runs the kernel thunk `fid` (resolved at boot, no name lookup).
    pub(crate) fn run_thunk(&mut self, fid: FuncId, args: &[Word]) -> Result<Word, Trap> {
        let m = Arc::clone(
            &self
                .core
                .thunks
                .get()
                .expect("thunks loaded at boot")
                .module,
        );
        self.exec_module(&m, fid, args)
    }

    /// Invokes a function address on behalf of the kernel (or, when
    /// `caller` is given, of another module): full wrapper semantics for
    /// isolated modules. This is the path used after an indirect-call
    /// check passes, and for direct kernel→module calls.
    pub fn invoke_module_function(
        &mut self,
        target: Word,
        args: &[Word],
        caller: Option<PrincipalCtx>,
    ) -> Result<Word, Trap> {
        let resolved = self.core.module_of_fn(target);
        self.invoke_resolved(resolved, target, args, caller)
    }

    /// [`Self::invoke_module_function`] with the module lookup already
    /// done — call sites that had to probe the registry anyway (e.g.
    /// `call_ptr`) pass their result through so the hot path takes the
    /// registry read lock once, not twice.
    fn invoke_resolved(
        &mut self,
        resolved: Option<(ModuleRef, FuncId)>,
        target: Word,
        args: &[Word],
        caller: Option<PrincipalCtx>,
    ) -> Result<Word, Trap> {
        // `mref` stays alive for the whole invocation, holding the
        // module's active count up (the unload grace period); the
        // declaration and the code are borrowed from it.
        let Some((mref, fid)) = resolved else {
            // Not module code: kernel export or user address.
            if let Some(export) = self.core.export_at(target) {
                return (export.imp)(self, args);
            }
            if is_user_addr(target) {
                return self.run_user_code(target);
            }
            return Err(Trap::BadRef(format!("call target {target:#x}")));
        };
        let Some(mid) = mref.mid else {
            return self.exec_module(&mref, fid, args);
        };
        // Unannotated module functions (e.g. module_init) run as the
        // shared principal with no capability actions, via the
        // boot-compiled shared empty declaration.
        let unannotated;
        let decl: &FnDecl = match mref.decls.get(&fid) {
            Some(d) => d,
            None => {
                unannotated = Arc::clone(&self.core.unannotated_decl);
                &unannotated
            }
        };
        let callee = Some((mid, self.select_principal(mid, decl, args)?));
        self.wrapped(decl, args, caller.flatten(), Some(callee), |k| {
            k.exec_module(&mref, fid, args)
        })
    }

    /// The annotation wrapper (§5): `decl`'s `pre` actions, `body`, then
    /// its `post` actions. With `frame = Some(ctx)` the call runs in
    /// `ctx` (`None` = kernel context), entered through the shadow stack
    /// and left through its return-token check; with `frame = None` it
    /// stays in the caller's context, as runtime entry points do (§3.4).
    fn wrapped(
        &mut self,
        decl: &FnDecl,
        args: &[Word],
        caller: PrincipalCtx,
        frame: Option<PrincipalCtx>,
        body: impl FnOnce(&mut Self) -> Result<Word, Trap>,
    ) -> Result<Word, Trap> {
        let token = frame.map(|ctx| self.rt.wrapper_enter(ctx));
        let mut site = CallSite {
            decl,
            args,
            ret: None,
            caller,
            callee: frame.flatten(),
        };
        let result = (|| {
            apply_actions(&mut self.rt, &self.mem, &self.core.layouts, &site, Dir::Pre)?;
            let ret = body(self)?;
            site.ret = Some(ret);
            apply_actions(
                &mut self.rt,
                &self.mem,
                &self.core.layouts,
                &site,
                Dir::Post,
            )?;
            Ok(ret)
        })();
        // Always rebalance the shadow stack; on the success path this
        // validates the return token (control-flow integrity on returns,
        // §5).
        let Some(token) = token else {
            return result;
        };
        let exit = self.rt.wrapper_exit(token);
        let ret = result?;
        exit?;
        Ok(ret)
    }

    /// Calls a kernel export for isolated module code whose CALL
    /// capability was already checked. An unannotated export is not
    /// callable (§2.2). A runtime entry point runs in the caller's
    /// principal context and only through a `direct` call: reached
    /// through a pointer it would let a module skip the checks that
    /// must precede it (§3.4). Every other export runs in kernel
    /// context.
    fn call_export(&mut self, export: &Export, args: &[Word], direct: bool) -> Result<Word, Trap> {
        // Success path is allocation-free: the export name is only
        // cloned on error.
        let decl = export.decl.as_deref().ok_or_else(|| {
            Trap::from(Violation::UnannotatedFunction {
                name: export.name.clone(),
            })
        })?;
        let frame = match (export.runtime_call, direct) {
            (false, _) => Some(None),
            (true, true) => None,
            (true, false) => {
                return Err(Trap::from(Violation::PrincipalDenied {
                    why: format!(
                        "{} is a runtime entry point: direct calls only",
                        export.name
                    ),
                }))
            }
        };
        let caller = self.rt.current();
        self.wrapped(decl, args, caller, frame, |k| (export.imp)(k, args))
    }

    fn select_principal(
        &mut self,
        mid: lxfi_core::ModuleId,
        decl: &FnDecl,
        args: &[Word],
    ) -> Result<PrincipalId, Trap> {
        // Compiled declarations resolved the principal parameter to an
        // argument position at registration; no name comparison per call.
        use lxfi_core::compiled::CPrincipal;
        let c = decl
            .compiled
            .as_ref()
            .expect("module declarations are compiled at load, the unannotated one at boot");
        Ok(match &c.principal {
            None | Some(CPrincipal::Shared) => self.rt.shared_principal(mid),
            Some(CPrincipal::Global) => self.rt.global_principal(mid),
            Some(CPrincipal::Arg(i)) => {
                let ptr = args.get(*i as usize).copied().unwrap_or(0);
                self.rt.principal_named(mid, ptr)
            }
            Some(CPrincipal::UnknownArg(name)) => {
                return Err(Trap::from(Violation::BadExpression {
                    why: format!("principal({name}) is not a parameter of {}", decl.name),
                }))
            }
        })
    }

    /// A kernel indirect call through a module-reachable function-pointer
    /// slot (native-code equivalent of the rewritten thunks' guards): load
    /// the target, run `lxfi_check_indcall`, dispatch. The slot's
    /// annotation needs no separate enforcement at dispatch: for module
    /// targets the ahash check guaranteed the function's own annotation
    /// equals the slot's, so the function's declaration is used.
    pub fn indirect_call(
        &mut self,
        slot: Word,
        sig_name: &str,
        args: &[Word],
    ) -> Result<Word, Trap> {
        let target = self.mem.read_word(slot)?;
        if target == 0 {
            return Err(Trap::MemFault {
                addr: 0,
                len: 8,
                write: false,
            });
        }
        if self.mode == IsolationMode::Lxfi {
            let ahash = {
                let sigs = self.core.sig_decls.read().expect("sig lock");
                self.core.ahash(sigs.get(sig_name).and_then(|e| e.get()))
            };
            self.rt.check_indcall(slot, target, ahash)?;
        }
        self.invoke_module_function(target, args, None)
    }
}

impl Env for KernelCpu {
    fn mem(&self) -> &AddressSpace {
        &self.mem
    }

    #[inline]
    fn consume(&mut self, cycles: u64) -> Result<(), Trap> {
        if self.fault_inject.is_some() {
            use crate::fault_inject::FaultSite;
            if self.fault_fires(FaultSite::Fuel) {
                return Err(Trap::OutOfFuel);
            }
            // A runaway *bottom half*: fires only while this CPU is
            // dispatching a deferred call, so the chaos harness can
            // exhaust a poll loop specifically.
            if self.in_deferred && self.fault_fires(FaultSite::DeferredFuel) {
                return Err(Trap::OutOfFuel);
            }
        }
        if self.fuel < cycles {
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= cycles;
        self.cycles += cycles;
        Ok(())
    }

    fn refund(&mut self, cycles: u64) {
        // Only the compiled backend refunds, and never more than it
        // consumed for the current block, so neither counter can wrap.
        self.fuel += cycles;
        self.cycles -= cycles;
    }

    fn push_frame(&mut self, size: u32) -> Result<Word, Trap> {
        let size = (u64::from(size) + 15) & !15;
        if self.sp < self.stack_base + size {
            return Err(Trap::StackOverflow);
        }
        self.sp -= size;
        let sp = self.sp;
        self.mem.zero_range(sp, size)?;
        Ok(sp)
    }

    fn pop_frame(&mut self, size: u32) {
        self.sp += (u64::from(size) + 15) & !15;
        debug_assert!(self.sp <= self.stack_base + STACK_SIZE);
    }

    #[inline]
    fn guard_write(&mut self, addr: Word, len: Word) -> Result<(), Trap> {
        if self.fault_inject.is_some() {
            use crate::fault_inject::FaultSite;
            if self.fault_fires(FaultSite::RogueStore) {
                // Aim the store at protected kernel data instead: the
                // *real* guard machinery raises (and attributes) the
                // violation, exactly as for a genuine rogue store.
                self.rt.check_write(KDATA_BASE, 8)?;
            }
            if self.fault_fires(FaultSite::GuardWrite) {
                // Synthesize a guard failure for the real access.
                if let Some((_, p)) = self.rt.current() {
                    return Err(Trap::from(Violation::MissingWrite {
                        principal: p,
                        addr,
                        len,
                    }));
                }
            }
        }
        self.rt.check_write(addr, len)?;
        Ok(())
    }

    fn guard_indcall(&mut self, slot: Word, sig: SigId) -> Result<(), Trap> {
        // Hot path: the module holds the sig's registry entry by
        // `SigId`; no sig name is hashed per call.
        let m = self.exec_stack.last().expect("executing");
        let ahash = self.core.ahash(m.sigs[sig.0 as usize].get());
        let target = self.mem.read_word(slot)?;
        self.rt.check_indcall(slot, target, ahash)?;
        Ok(())
    }

    fn call_extern(&mut self, sym: SymbolId, args: &[Word]) -> Result<Word, Trap> {
        let m = self.exec_stack.last().expect("executing");
        let import = &m.program.imports[sym.0 as usize];
        if import.kind != ImportKind::Func {
            return Err(Trap::BadRef(format!("calling data import {}", import.name)));
        }
        let (target, stock) = (m.import_addrs[sym.0 as usize], m.mid.is_none());
        let Some(export) = self.core.export_at(target) else {
            return Err(Trap::BadRef(format!("extern {}", import.name)));
        };
        if stock {
            return (export.imp)(self, args);
        }
        // CALL capability for the export's wrapper (granted at module
        // init from the symbol table, §4.2).
        self.rt.check_call(target)?;
        self.call_export(&export, args, true)
    }

    fn call_ptr(&mut self, target: Word, sig: SigId, args: &[Word]) -> Result<Word, Trap> {
        let m = self.exec_stack.last().expect("executing");
        if m.mid.is_none() {
            return self.invoke_module_function(target, args, None);
        }
        // The module may only call targets it holds CALL for.
        self.rt.check_call(target)?;
        // Annotation match between the call site's pointer type and the
        // invoked function (§4.1, module side), through the module's
        // entry for the site's type: the sig *name* plays no role at
        // call time.
        let site_hash = self.core.ahash(m.sigs[sig.0 as usize].get());
        let fn_hash = self
            .rt
            .function_ahash(target)
            .ok_or(Violation::NotAFunction { target })?;
        if fn_hash != site_hash {
            return Err(Trap::from(Violation::AnnotationMismatch {
                sig_hash: site_hash,
                fn_hash,
            }));
        }
        let resolved = self.core.module_of_fn(target);
        if resolved.is_some() {
            let caller = self.rt.current();
            self.invoke_resolved(resolved, target, args, Some(caller))
        } else if let Some(export) = self.core.export_at(target) {
            self.call_export(&export, args, false)
        } else {
            Err(Trap::from(Violation::NotAFunction { target }))
        }
    }

    fn global_addr(&self, global: GlobalId) -> Result<Word, Trap> {
        self.exec_stack
            .last()
            .expect("executing")
            .global_addrs
            .get(global.0 as usize)
            .copied()
            .ok_or_else(|| Trap::BadRef(format!("global {}", global.0)))
    }

    fn sym_addr(&self, sym: SymbolId) -> Result<Word, Trap> {
        self.exec_stack
            .last()
            .expect("executing")
            .import_addrs
            .get(sym.0 as usize)
            .copied()
            .ok_or_else(|| Trap::BadRef(format!("import {}", sym.0)))
    }

    fn func_addr(&self, func: FuncId) -> Result<Word, Trap> {
        Ok(self.exec_stack.last().expect("executing").fn_addr(func))
    }
}
