//! Module load and unload: the proof every load runs, the per-kernel
//! module-image table, the sig registry a load extends, the one commit
//! point that publishes a module (the core kernel's dispatch thunks
//! load through it too), window scrubbing at slot reuse, and the
//! loaded-module accessors.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lxfi_annotations::parse_fn_annotations;
use lxfi_core::iface::{FnDecl, Param};
use lxfi_core::inthash::IntMap;
use lxfi_core::RawCap;
use lxfi_machine::program::ImportKind;
use lxfi_machine::verify::VerifyError;
use lxfi_machine::{
    verify_program, verify_soundness, Backend, CompiledProgram, FuncId, Program, SoundnessPolicy,
    Word,
};
use lxfi_rewriter::{propagate, rewrite_kernel_thunks, rewrite_module, InitGrant, InterfaceSpec};

use super::{
    IsolationMode, KernelCore, KernelCpu, KernelError, LoadedModule, LoadedModuleId, ModuleSpec,
    SigEntry, Thunks,
};
use crate::layout::{MODULE_BASE, MODULE_STRIDE, STACK_SIZE};

/// The load's rejection for a program that fails [`verify_program`].
fn verify_failed(name: &str, errs: &[VerifyError]) -> KernelError {
    KernelError::Fail(format!("verify {name}: {}", errs[0]))
}

/// The load-time checks LXFI runs on a rewritten program before either
/// backend may execute it: the structural check, then a proof that every
/// reachable store and kernel indirect call is guard-dominated (both in
/// `verify_soundness`), then propagation of the interface annotations
/// (which enforces the same-annotation rule). Returns the propagated
/// declarations.
fn prove_module(
    name: &str,
    program: &Program,
    iface: &InterfaceSpec,
) -> Result<HashMap<FuncId, FnDecl>, KernelError> {
    verify_soundness(program, SoundnessPolicy::module())
        .map_err(|e| KernelError::Fail(format!("soundness {name}: {}", e[0])))?;
    propagate(program, iface).map_err(|e| KernelError::Fail(format!("propagate {name}: {e}")))
}

/// One module image: a source program, the rewriter's output for it and
/// that output's compiled form. The rewriter is untrusted, so reusing an
/// image skips only the rewrite and the compile; every load still runs
/// the structural check and the soundness proof (one `verify_soundness`
/// call), `propagate` and the sig check on the exact program it
/// installs.
struct ModuleImage {
    source: Program,
    program: Arc<Program>,
    init_grants: Vec<InitGrant>,
    /// `None` under [`Backend::Interp`].
    compiled: Option<Arc<CompiledProgram>>,
}

/// The per-kernel module-image table: one image per module name, kept
/// across unload and quarantine, so a supervisor restart of an unchanged
/// module rewrites and compiles nothing. An LXFI load reuses the image
/// only when its program is structurally equal to the stored source
/// (the cached init grants come from that source's import table), and
/// stores an image only once it passed the proof, `propagate` and the
/// sig check.
#[derive(Default)]
pub(super) struct ModuleImages {
    by_name: HashMap<String, ModuleImage>,
    hits: u64,
    misses: u64,
}

impl KernelCore {
    /// Module-image table counters `(hits, misses)`: LXFI loads that
    /// reused a stored rewrite and compile, and loads that ran them.
    pub fn module_image_stats(&self) -> (u64, u64) {
        let images = self.load_lock.lock().expect("load lock");
        (images.hits, images.misses)
    }

    /// The program lowered for this kernel's backend: `None` under
    /// [`Backend::Interp`]. Lowering runs [`verify_program`] first, so a
    /// program that fails it is refused here.
    fn compile(
        &self,
        name: &str,
        program: &Arc<Program>,
    ) -> Result<Option<Arc<CompiledProgram>>, KernelError> {
        if self.backend == Backend::Interp {
            return Ok(None);
        }
        CompiledProgram::compile(Arc::clone(program))
            .map(|cp| Some(Arc::new(cp)))
            .map_err(|e| verify_failed(name, &e))
    }

    /// The interface declarations a loading module or
    /// [`KernelCpu::define_sig`] adds to the sig registry, checked
    /// exact-match on collision (§4.2): a conflict rejects the whole
    /// load. The one decision of sig identity: a declaration whose AST
    /// equals the registered one is skipped, any other collision is a
    /// conflict (the canonical print is not injective, so it decides
    /// nothing).
    fn new_sig_decls<'a>(
        &self,
        decls: &'a HashMap<String, FnDecl>,
    ) -> Result<Vec<(&'a String, &'a FnDecl)>, KernelError> {
        let sig_decls = self.sig_decls.read().expect("sig lock");
        let mut new = Vec::new();
        for (name, d) in decls {
            match sig_decls.get(name).and_then(|e| e.get()) {
                None => new.push((name, d)),
                Some(prev) if prev.ann == d.ann => {}
                Some(_) => {
                    return Err(KernelError::Fail(format!(
                        "sig `{name}` conflicts with an existing declaration"
                    )))
                }
            }
        }
        Ok(new)
    }

    /// Compiles the declarations [`Self::new_sig_decls`] admitted and
    /// sets their entries, which every module naming the type shares.
    /// Callers hold the load lock, so each entry is still unset here.
    fn insert_sig_decls(&self, decls: Vec<(&String, &FnDecl)>) {
        if decls.is_empty() {
            return;
        }
        let mut sig_decls = self.sig_decls.write().expect("sig lock");
        for (name, d) in decls {
            let mut compiled = d.clone();
            compiled.compile(&self.rtc, &self.layouts);
            let entry = sig_decls.entry(name.clone()).or_default();
            assert!(
                entry.set(Arc::new(compiled)).is_ok(),
                "sig {name} set twice"
            );
        }
    }

    /// The registry entries of `program`'s sig table, by `SigId`; a type
    /// nobody has declared yet gets an empty entry a later declaration
    /// sets.
    fn sig_entries(&self, program: &Program) -> Box<[SigEntry]> {
        let mut sig_decls = self.sig_decls.write().expect("sig lock");
        let mut entry = |name: &String| Arc::clone(sig_decls.entry(name.clone()).or_default());
        program.sigs.iter().map(|s| entry(&s.name)).collect()
    }

    /// The load's commit point: module vector and name index change
    /// together under one write lock, so a concurrent dispatch either
    /// resolves the whole module or none of it. A `reused` slot leaves
    /// the free list here.
    fn publish(&self, m: &Arc<LoadedModule>, reused: bool) {
        let mut tab = self.modules.write().expect("modules lock");
        tab.by_name.insert(m.name.clone(), m.slot);
        if reused {
            tab.free_slots.retain(|&s| s != m.slot);
            tab.modules[m.slot] = Arc::clone(m);
        } else {
            debug_assert_eq!(tab.modules.len(), m.slot, "loads are serialized");
            tab.modules.push(Arc::clone(m));
        }
    }
}

impl KernelCpu {
    /// Declares an annotated function-pointer type (interface annotation
    /// on a struct field, e.g. `net_device_ops.ndo_start_xmit`).
    pub fn define_sig(&mut self, name: &str, params: Vec<Param>, ann: &str) {
        let decl = FnDecl::new(
            name,
            params,
            parse_fn_annotations(ann).unwrap_or_else(|e| panic!("bad annotation on {name}: {e}")),
        );
        let decls = HashMap::from([(name.to_string(), decl)]);
        // Decide under the load lock: a concurrent define_sig or module
        // load must never let a conflicting declaration silently replace
        // an existing one (§4.2 exact-match-on-collision), and a load
        // relies on the registry not changing between its check and its
        // insert.
        let _load = self.core.load_lock.lock().expect("load lock");
        let new = self
            .core
            .new_sig_decls(&decls)
            .unwrap_or_else(|e| panic!("conflicting sig declaration for {name}: {e}"));
        self.core.insert_sig_decls(new);
    }

    /// Loads a module in the kernel's global mode.
    pub fn load_module(&mut self, spec: ModuleSpec) -> Result<LoadedModuleId, KernelError> {
        self.load_module_with_mode(spec, self.mode)
    }

    /// Loads a module with an explicit mode. Whole loads are serialized
    /// by the core's load lock; dispatch on other CPUs proceeds
    /// concurrently against the registries' read locks and observes the
    /// module only after its commit point (module vector and name index
    /// updated together).
    ///
    /// Every check that can reject the load runs before its first side
    /// effect, so a rejected load leaves no principal, function
    /// registration, sig declaration or module image behind. An LXFI
    /// load rewrites and compiles only when the kernel holds no image of
    /// a structurally equal program under this name; the soundness
    /// proof, `propagate` and the sig check run on every load.
    ///
    /// [`verify_program`], the one structural check, runs on every
    /// program a load installs: on the source unless an image is reused
    /// (the rewriter's input, or under Stock the installed program),
    /// inside `verify_soundness` on every rewritten program, and inside
    /// [`CompiledProgram::compile`] on whatever it lowers. An image-hit
    /// load therefore makes exactly one pass, on the stored rewrite.
    pub fn load_module_with_mode(
        &mut self,
        spec: ModuleSpec,
        mode: IsolationMode,
    ) -> Result<LoadedModuleId, KernelError> {
        let core = Arc::clone(&self.core);
        let mut images = core.load_lock.lock().expect("load lock");
        let ModuleSpec {
            name,
            program: source,
            iface,
            iterators,
            init_fn,
        } = spec;

        let hit = mode == IsolationMode::Lxfi
            && images
                .by_name
                .get(&name)
                .is_some_and(|img| img.source == source);
        if !hit {
            verify_program(&source).map_err(|e| verify_failed(&name, &e))?;
        }
        let import_addrs = self.resolve_imports(&name, &source)?;

        let (program, compiled, decls, fresh) = match mode {
            IsolationMode::Lxfi if hit => {
                images.hits += 1;
                let img = &images.by_name[&name];
                let decls = prove_module(&name, &img.program, &iface)?;
                (Arc::clone(&img.program), img.compiled.clone(), decls, None)
            }
            IsolationMode::Lxfi => {
                images.misses += 1;
                let rw = rewrite_module(&source, core.rewrite_opts);
                let program = Arc::new(rw.program);
                let decls = prove_module(&name, &program, &iface)?;
                let compiled = core.compile(&name, &program)?;
                let img = ModuleImage {
                    source,
                    program: Arc::clone(&program),
                    init_grants: rw.init_grants,
                    compiled: compiled.clone(),
                };
                (program, compiled, decls, Some(img))
            }
            IsolationMode::Stock => {
                let program = Arc::new(source);
                let compiled = core.compile(&name, &program)?;
                (program, compiled, HashMap::new(), None)
            }
        };
        let new_sigs = core.new_sig_decls(&iface.sig_decls)?;

        // Every check passed; side effects start here. Loads and
        // define_sig are serialized by the load lock, so the sig check
        // above still holds at the insert.
        if let Some(img) = fresh {
            images.by_name.insert(name.clone(), img);
        }
        core.insert_sig_decls(new_sigs);
        let sigs = core.sig_entries(&program);
        // Compile the module declarations' enforcement IR once, at load.
        // A declaration equal to the registered declaration of a type
        // its function is assigned to (same annotations and parameters)
        // shares that declaration's IR: both compile against the same
        // runtime and immutable layouts, so the IR would be the same.
        let decls: IntMap<FuncId, Arc<FnDecl>> = decls
            .into_iter()
            .map(|(fid, mut d)| {
                let same = program
                    .sig_assignments
                    .iter()
                    .filter(|a| a.func == fid)
                    .filter_map(|a| sigs[a.sig.0 as usize].get())
                    .find(|r| r.ann == d.ann && r.params == d.params);
                match same.and_then(|r| r.compiled.clone()) {
                    Some(ir) => d.compiled = Some(ir),
                    None => d.compile(&self.rt, &core.layouts),
                }
                (fid, Arc::new(d))
            })
            .collect();

        // Reuse the lowest torn-down slot if one is free (loads are
        // serialized by the load lock, so peeking without popping is
        // safe; the slot leaves the free list only at the commit point).
        let (slot, reused) = {
            let tab = core.modules.read().expect("modules lock");
            match tab.free_slots.iter().copied().min() {
                Some(s) => (s, true),
                None => (tab.modules.len(), false),
            }
        };
        let window = MODULE_BASE + slot as u64 * MODULE_STRIDE;
        if reused {
            self.scrub_window(slot, window);
        }
        let mid = match mode {
            IsolationMode::Lxfi => Some(self.rt.register_module(&name)),
            IsolationMode::Stock => None,
        };

        // Lay out globals in the module window; write init images.
        let mut global_addrs = Vec::new();
        let mut cursor = window;
        for g in &program.globals {
            cursor = (cursor + 63) & !63;
            self.mem.map_range(cursor, g.size);
            if let Some(init) = &g.init {
                let n = init.len().min(g.size as usize);
                self.mem
                    .write_bytes(cursor, &init[..n])
                    .expect("mapped above");
            }
            global_addrs.push(cursor);
            cursor += g.size;
        }

        // The module is built here but dispatchable only from `publish`
        // below.
        let m = Arc::new(LoadedModule {
            name,
            slot,
            mid,
            program,
            compiled,
            global_addrs,
            decls,
            import_addrs,
            sigs,
            active: AtomicUsize::new(0),
            unloaded: AtomicBool::new(false),
        });

        // Apply static-initializer relocations (C ops-table initializers):
        // performed by the trusted loader, so they work for read-only
        // globals like `rds_proto_ops` too.
        for r in &m.program.fn_relocs {
            let addr = m.global_addrs[r.global.0 as usize] + r.offset;
            self.mem
                .write_word(addr, m.fn_addr(r.func))
                .expect("reloc target mapped");
        }
        for f in m.funcs() {
            self.rt
                .register_function(m.fn_addr(f), core.ahash(m.decls.get(&f)));
        }

        // Initial capability grants to the shared principal (§3.2, §4.2).
        if let Some(mid) = mid {
            let shared = self.rt.shared_principal(mid);
            // A module may call (and hand out pointers to) its own
            // functions: "the module should be able to provide only
            // pointers to functions that the module itself can invoke"
            // (§2.2) — so it holds CALL capabilities for them.
            for f in m.funcs() {
                self.rt.grant(shared, RawCap::call(m.fn_addr(f)));
            }
            // Initial capability (2) of §3.2: WRITE to the kernel stacks,
            // so modules can pass addresses of stack locals to kernel
            // routines that fill them in.
            let stacks: Vec<Word> = core.threads.lock().expect("threads lock").clone();
            for base in stacks {
                self.rt.grant(shared, RawCap::write(base, STACK_SIZE));
            }
            // The LXFI branch above stored or reused this name's image.
            for g in &images.by_name[&m.name].init_grants {
                match g {
                    InitGrant::Call { name } => {
                        let addr = self.export_addr(name).expect("resolved above");
                        self.rt.grant(shared, RawCap::call(addr));
                    }
                    InitGrant::Write { name } => {
                        let (addr, size) = core.kdata.read().expect("kdata lock")[name];
                        self.rt.grant(shared, RawCap::write(addr, size));
                    }
                }
            }
            // WRITE to .data/.bss only. Read-only sections get no grant
            // and stay unwritable — this alone stops the stock RDS
            // exploit (§8.1).
            for (g, &addr) in m.program.globals.iter().zip(&m.global_addrs) {
                if g.writable {
                    self.rt.grant(shared, RawCap::write(addr, g.size));
                }
            }
        }

        for (iter_name, f) in iterators {
            self.rt.register_iterator(&iter_name, f);
        }

        core.publish(&m, reused);

        drop(images);
        if let Some(init) = &init_fn {
            let fid = m
                .program
                .func_by_name(init)
                .ok_or_else(|| KernelError::Fail(format!("no init function {init}")))?;
            let addr = m.fn_addr(fid);
            self.enter(|k| k.invoke_module_function(addr, &[], None))?;
        }
        Ok(LoadedModuleId(slot))
    }

    /// Resolves a module's imports to export and kernel-data addresses,
    /// failing on the first unresolved one.
    fn resolve_imports(&self, module: &str, program: &Program) -> Result<Vec<Word>, KernelError> {
        let kdata = self.core.kdata.read().expect("kdata lock");
        program
            .imports
            .iter()
            .map(|imp| {
                let (addr, what) = match imp.kind {
                    ImportKind::Func => (self.export_addr(&imp.name), "import"),
                    ImportKind::Data => (kdata.get(&imp.name).map(|&(a, _)| a), "data import"),
                };
                addr.ok_or_else(|| {
                    KernelError::Fail(format!("{module}: unresolved {what} {}", imp.name))
                })
            })
            .collect()
    }

    /// Unloads a module: its name is freed, its function addresses stop
    /// resolving, its resources are reclaimed, and its principals retire
    /// — their remaining WRITE grants stay on record so slots the module
    /// wrote stay poisoned (the quarantine teardown, minus
    /// the fault record). Executions already in flight on other CPUs
    /// finish on their cloned `Arc` (like a real kernel waiting out an
    /// RCU grace period); the slot is scrubbed and reused by a later
    /// load.
    pub fn unload_module(&mut self, id: LoadedModuleId) -> Result<(), KernelError> {
        let m = self
            .module_at(id)
            .ok_or_else(|| KernelError::Fail(format!("no module #{}", id.0)))?;
        // Refuse a self-unload: this CPU waiting out its own execution
        // would deadlock (the real kernel's "module busy").
        if self.exec_stack.iter().any(|e| Arc::ptr_eq(e, &m)) {
            return Err(KernelError::Fail(format!(
                "{} is executing on this CPU",
                m.name
            )));
        }
        if !self.teardown_module(&m) {
            return Err(KernelError::Fail(format!("{} already unloaded", m.name)));
        }
        Ok(())
    }

    /// Scrubs a dead module's window before a new tenant moves in: the
    /// retired principals' (and anyone's) residual WRITE coverage over
    /// the window is dropped — safe only now, because the new tenant
    /// re-initializes every byte it will expose — the old globals are
    /// zeroed, and the old function registrations removed. This is the
    /// deferred half of teardown: a dead module's WRITE records must
    /// poison its slots exactly until the memory is legitimately reused.
    fn scrub_window(&mut self, slot: usize, window: Word) {
        let old = Arc::clone(&self.core.modules.read().expect("modules lock").modules[slot]);
        debug_assert!(
            old.unloaded.load(Ordering::Acquire),
            "scrubbing a live slot"
        );
        self.rt
            .revoke_write_overlapping_everywhere(window, MODULE_STRIDE);
        for (g, &addr) in old.program.globals.iter().zip(&old.global_addrs) {
            let _ = self.mem.zero_range(addr, g.size);
        }
        let rtc = self.core.runtime_core();
        for f in old.funcs() {
            rtc.unregister_function(old.fn_addr(f));
        }
    }

    /// Loads the core kernel's KIR dispatch thunks, instrumented by the
    /// kernel rewriter when LXFI is on (§4.1). Kernel code is trusted,
    /// so the thunks load as a stock module through the ordinary load
    /// path.
    pub(super) fn load_kernel_thunks(&mut self) {
        let thunks = crate::net::kernel_thunks();
        let program = match self.mode {
            IsolationMode::Lxfi => {
                let rep = rewrite_kernel_thunks(&thunks);
                assert!(
                    rep.untraceable.is_empty(),
                    "kernel thunks must be fully traceable: {:?}",
                    rep.untraceable
                );
                // Thunks run trusted (Stock mode), so the inserted
                // GuardIndCall is the only protection for the pointers
                // they dereference: prove each call is guard-dominated.
                verify_soundness(&rep.program, SoundnessPolicy::kernel_thunks())
                    .expect("kernel thunks must be guard-sound");
                rep.program
            }
            IsolationMode::Stock => thunks,
        };
        let spec = ModuleSpec {
            name: "<kernel-thunks>".into(),
            program,
            iface: InterfaceSpec::new(),
            iterators: Vec::new(),
            init_fn: None,
        };
        let id = self
            .load_module_with_mode(spec, IsolationMode::Stock)
            .expect("kernel thunks load");
        // Pre-resolve the per-packet thunk dispatch path: cache the
        // module handle and its name → id map so run_kernel_thunk never
        // takes the registry lock or scans names again.
        let module = self.module_arc(id);
        let by_name: HashMap<String, FuncId> = module
            .funcs()
            .map(|f| (module.program.funcs[f.0 as usize].name.clone(), f))
            .collect();
        let dev_queue_xmit = by_name["dev_queue_xmit"];
        let _ = self.core.thunks.set(Thunks {
            module,
            by_name,
            dev_queue_xmit,
        });
    }

    /// Loaded-module lookup by name.
    pub fn module_id(&self, name: &str) -> Option<LoadedModuleId> {
        self.core
            .modules
            .read()
            .expect("modules lock")
            .by_name
            .get(name)
            .copied()
            .map(LoadedModuleId)
    }

    /// The registry entry in slot `id`, live or torn down.
    pub(super) fn module_at(&self, id: LoadedModuleId) -> Option<Arc<LoadedModule>> {
        let tab = self.core.modules.read().expect("modules lock");
        tab.modules.get(id.0).cloned()
    }

    fn module_arc(&self, id: LoadedModuleId) -> Arc<LoadedModule> {
        self.module_at(id).expect("module id in range")
    }

    /// The runtime module id (principal namespace) of a loaded module.
    pub fn runtime_module(&self, id: LoadedModuleId) -> Option<lxfi_core::ModuleId> {
        self.module_arc(id).mid
    }

    /// Address of a module function by name.
    pub fn module_fn_addr(&self, id: LoadedModuleId, func: &str) -> Option<Word> {
        let m = self.module_arc(id);
        m.program.func_by_name(func).map(|f| m.fn_addr(f))
    }

    /// Address of a module global by name.
    pub fn module_global_addr(&self, id: LoadedModuleId, global: &str) -> Option<Word> {
        let m = self.module_arc(id);
        m.program
            .global_by_name(global)
            .map(|g| m.global_addrs[g.0 as usize])
    }

    /// The name a module was loaded under.
    pub fn module_name(&self, id: LoadedModuleId) -> String {
        self.module_arc(id).name.clone()
    }

    /// The program a module was loaded with (post-rewrite for LXFI).
    pub fn module_program(&self, id: LoadedModuleId) -> Arc<Program> {
        Arc::clone(&self.module_arc(id).program)
    }
}
