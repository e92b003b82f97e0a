//! The kernel world: module loading, wrapper execution, indirect-call
//! interposition, and the syscall surface exploits drive.
//!
//! # Execution model (multi-CPU)
//!
//! Since the SMP redesign the kernel is split in two, mirroring the
//! `RuntimeCore`/`GuardHandle` split one layer down:
//!
//! - [`KernelCore`] is the **shared machine**: the interior-mutable
//!   [`AddressSpace`], the shared `lxfi_core::RuntimeCore`, and every
//!   registry (exports, sig declarations, loaded modules, kernel data
//!   symbols, user shellcode) behind `RwLock`s, plus the slab,
//!   process table and subsystem states (net/pci/socket/sound/dm)
//!   behind `Mutex`es. It is `Send + Sync` and lives in an `Arc`.
//! - [`KernelCpu`] is **one simulated CPU**: it owns what is genuinely
//!   per-CPU — its [`GuardHandle`] (shadow stack, kernel-stack window,
//!   private epoch cache, stats), its stack pointer, the interpreter's
//!   module execution stack, and the fuel/cycle accounting. It
//!   implements [`Env`], so real rewritten module code interprets
//!   concurrently on N OS threads, one `KernelCpu` each (see
//!   `Kernel::new_cpu`).
//! - [`Kernel`] is the thin single-threaded facade the existing tests,
//!   examples, and exploit scenarios drive: CPU 0 plus the shared core,
//!   `Deref`ing to [`KernelCpu`] so the historical API is unchanged.
//!
//! **Locking rules.** The guarded-store hot path takes no locks at all
//! (private epoch cache + one atomic epoch load + atomic page-radix
//! walk). Call dispatch takes short registry *read* locks; only module
//! load/unload (serialized by one load mutex) takes write locks.
//! Subsystem mutex guards are never held across a dispatch into module
//! code — natives lock, mutate, and release within one statement.
//! A module's `Arc<LoadedModule>` is cloned onto the CPU's execution
//! stack before interpretation, so unloading races safely: in-flight
//! CPUs keep the program alive, new dispatches no longer resolve it.
//!
//! Control-transfer interposition (§5, Figure 6):
//!
//! - **module → kernel** ([`KernelCpu::call_extern`] via the interpreter):
//!   CALL-capability check, wrapper entry (shadow stack, switch to kernel
//!   context), `pre` actions, native call, `post` actions, wrapper exit.
//! - **kernel → module** ([`KernelCpu::invoke_module_function`]): principal
//!   selection from the `principal(...)` annotation, wrapper entry,
//!   `pre` actions, interpretation of the module function, `post`
//!   actions, wrapper exit.
//! - **kernel indirect calls** ([`KernelCpu::indirect_call`] for native
//!   code, `GuardIndCall` for rewritten kernel thunks): writer-set bitmap
//!   check, then — on the slow path — the reverse writer index resolves
//!   the slot's writer principals (sublinear in principals, §5), each of
//!   which must hold CALL for the target, plus the annotation-hash match
//!   — then dispatch.
//!
//! Trap classification (fault containment — see `docs/fault-model.md`):
//! a trap raised while an **isolated module** executes (or a policy
//! violation whose culprit principal belongs to one) **quarantines that
//! module only** — name and function addresses unpublished, in-flight
//! executions drained through the RCU grace period, resources reclaimed,
//! principals retired with their WRITE coverage moved to the tombstone —
//! and the kernel keeps serving every other module. A policy violation
//! that cannot be attributed to any module is a violation of the
//! kernel's *own* invariants and still escalates to a **kernel panic**
//! shared by every CPU. A machine fault (NULL dereference) goes down the
//! **oops** path, which runs `do_exit` — including its CVE-2010-4258 bug
//! of zeroing the user-controlled `clear_child_tid` pointer; module
//! machine faults oops *and* quarantine (the interrupted process dies
//! either way).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use lxfi_annotations::parse_fn_annotations;
use lxfi_core::actions::{apply_actions, CallSite, Dir};
use lxfi_core::iface::{FnDecl, Param, TypeLayouts};
use lxfi_core::runtime::FnMeta;
use lxfi_core::shadow::PrincipalCtx;
use lxfi_core::{GuardHandle, PrincipalId, RawCap, RuntimeCore, Violation};
use lxfi_machine::program::ImportKind;
use lxfi_machine::{
    run_compiled, run_function, verify_soundness, AddressSpace, Backend, CompileStats,
    CompiledProgram, Env, FuncId, GlobalId, Program, SigId, SoundnessPolicy, SymbolId, Trap, Word,
};
use lxfi_rewriter::{
    propagate, rewrite_kernel_thunks, rewrite_module, InitGrant, InterfaceSpec, RewriteOptions,
};

use crate::exports::{Export, NativeFn};
use crate::layout::*;
use crate::magazine::{Magazines, ShardedSlab};
use crate::process::ProcessTable;
use crate::types;

/// Whether a module is loaded with LXFI enforcement or bare (stock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// No rewriting, no runtime checks — the baseline and the exploit
    /// victim configuration.
    Stock,
    /// Rewritten and enforced.
    Lxfi,
}

/// Index of a loaded module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedModuleId(pub usize);

/// Identifies a simulated kernel thread: its stack slot. Each
/// [`KernelCpu`] is pinned to one thread for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u32);

/// A module ready to load: program, interface annotations, capability
/// iterators, and an optional init function.
pub struct ModuleSpec {
    /// Module name.
    pub name: String,
    /// The module's KIR program.
    pub program: Program,
    /// Annotations for the module's function-pointer types and functions.
    pub iface: InterfaceSpec,
    /// Capability iterators this module's annotations reference.
    pub iterators: Vec<(String, lxfi_core::IteratorFn)>,
    /// Function run right after loading (the `module_init`).
    pub init_fn: Option<String>,
}

/// User-space "shellcode": runs with full kernel access if the kernel is
/// ever tricked into calling a user address (the payload of every exploit
/// here typically sets `uid = 0`).
pub type UserFn = Arc<dyn Fn(&mut KernelCpu) + Send + Sync>;

/// One loaded module: immutable after load except the per-`SigId`
/// annotation-hash array (refreshed when the sig registry grows) and the
/// unload flag. Shared as an `Arc` so executing CPUs never hold a
/// registry lock while interpreting.
pub(crate) struct LoadedModule {
    name: String,
    mode: IsolationMode,
    /// Index of this module in the registry vector (its window slot).
    /// Quarantine needs it to unpublish without a reverse scan, and
    /// teardown pushes it onto the free-slot list for window reuse.
    slot: usize,
    /// `None` for the core-kernel thunk pseudo-module.
    mid: Option<lxfi_core::ModuleId>,
    program: Arc<Program>,
    /// The program lowered for the compiled backend — populated once at
    /// load when the kernel booted with [`Backend::Compiled`], `None`
    /// under the interpreter. Dispatch picks the backend per call from
    /// this field, so a kernel never pays compilation it won't use.
    compiled: Option<Arc<CompiledProgram>>,
    global_addrs: Vec<Word>,
    fn_base: Word,
    decls: HashMap<FuncId, Arc<FnDecl>>,
    import_addrs: Vec<Word>,
    /// Annotation hash per program `SigId`, resolved against the sig
    /// registry whenever it changes — so the indirect-call guard indexes
    /// an array instead of hashing a sig name per call.
    sig_ahash: RwLock<Vec<u64>>,
    /// CPUs currently executing this module (exec-stack occurrences).
    /// `unload_module` waits for this to drain after unpublishing the
    /// function addresses — the RCU-style grace period that keeps a
    /// racing unload from revoking a running execution's capabilities
    /// out from under it.
    active: std::sync::atomic::AtomicUsize,
    /// Set by `unload_module`; in-flight executions finish on their
    /// cloned `Arc`, new dispatches no longer resolve the module.
    unloaded: AtomicBool,
}

/// An execution reference on a loaded module (the moral equivalent of
/// `try_module_get`): holds the module's `active` count up for as long
/// as the reference lives, which is what `unload_module`'s grace period
/// waits on. Acquired under the module-registry read lock so it can
/// never race the unload's unpublish.
pub(crate) struct ModuleRef(Arc<LoadedModule>);

impl ModuleRef {
    fn acquire(m: &Arc<LoadedModule>) -> ModuleRef {
        m.active.fetch_add(1, Ordering::AcqRel);
        ModuleRef(Arc::clone(m))
    }
}

impl std::ops::Deref for ModuleRef {
    type Target = Arc<LoadedModule>;
    fn deref(&self) -> &Arc<LoadedModule> {
        &self.0
    }
}

impl Drop for ModuleRef {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Resolves a program's per-`SigId` annotation hashes against the sig
/// registry — the one definition shared by module load, thunk load, and
/// the registry-growth refresh, so the load-time snapshot can never
/// diverge from the refresh path.
fn resolve_sig_hashes(
    sig_decls: &HashMap<String, Arc<FnDecl>>,
    program: &Program,
    empty_ahash: u64,
) -> Vec<u64> {
    program
        .sigs
        .iter()
        .map(|s| {
            sig_decls
                .get(&s.name)
                .map(|d| d.ahash)
                .unwrap_or(empty_ahash)
        })
        .collect()
}

/// A fault attributed to one module and contained there: the structured
/// record the supervisor and tests consume instead of string-matching a
/// panic message. Appended to the kernel-wide fault log (see
/// [`KernelCpu::last_fault`]) by the quarantine path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleFault {
    /// Registry slot of the quarantined module — `None` when the fault
    /// was attributed to state planted by a module that is already dead
    /// and reclaimed (its slot may have been reused).
    pub id: Option<LoadedModuleId>,
    /// Module name at fault time.
    pub module: String,
    /// The module's runtime principal namespace.
    pub mid: Option<lxfi_core::ModuleId>,
    /// The culprit principal, when the violation (or execution context)
    /// named one.
    pub principal: Option<PrincipalId>,
    /// The policy violation, when the trap was one.
    pub violation: Option<Violation>,
    /// Human-readable trap description.
    pub reason: String,
    /// Whether the trap was a machine fault, so the oops path (and its
    /// CVE-2010-4258 zero-write) also ran.
    pub oopsed: bool,
}

/// Outcome classification for public kernel entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// LXFI detected a violation of the kernel's own invariants and
    /// panicked the kernel.
    Panic(String),
    /// A machine fault (oops) killed the current process.
    Oops(String),
    /// A trap was attributed to one isolated module, which has been
    /// quarantined; the kernel keeps running. (Boxed: the fault record
    /// carries strings and must not fatten every `Result` in the API.)
    ModuleFault(Box<ModuleFault>),
    /// Plain failure (bad arguments etc.).
    Fail(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Panic(s) => write!(f, "kernel panic: {s}"),
            KernelError::Oops(s) => write!(f, "kernel oops: {s}"),
            KernelError::ModuleFault(m) => {
                write!(f, "module fault: {} quarantined: {}", m.module, m.reason)
            }
            KernelError::Fail(s) => write!(f, "error: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The exported-symbol registry (behind one `RwLock` in the core).
#[derive(Default)]
struct ExportTable {
    exports: Vec<Arc<Export>>,
    by_name: HashMap<String, usize>,
}

/// The loaded-module registry: the module vector, the name index, and
/// the function-address map, mutated together under one write lock so a
/// resolved `fn_addrs` entry always points at a present module.
#[derive(Default)]
struct ModuleTable {
    modules: Vec<Arc<LoadedModule>>,
    by_name: HashMap<String, usize>,
    fn_addrs: HashMap<Word, (usize, FuncId)>,
    /// Slots of torn-down modules, reusable by the next load (lowest
    /// first). The dead `Arc` stays in `modules` until then so indices
    /// remain stable; the window is scrubbed at reuse, not teardown —
    /// tombstone coverage must poison dead slots *until* the memory is
    /// re-initialized by a new tenant.
    free_slots: Vec<usize>,
}

/// The shared, `Send + Sync` half of the simulated kernel. See the
/// module docs for the state split and locking rules. Construct via
/// [`Kernel::boot`]; hand out execution contexts with
/// [`Kernel::new_cpu`].
pub struct KernelCore {
    /// Simulated physical memory (interior-mutable; see
    /// [`AddressSpace`]'s concurrency model).
    pub mem: Arc<AddressSpace>,
    rtc: Arc<RuntimeCore>,
    /// Global isolation mode (modules default to it).
    pub mode: IsolationMode,
    /// Execution backend every module (and the kernel thunks) is loaded
    /// for. Fixed at boot; `load_module` compiles once, every
    /// [`KernelCpu`] dispatches through the compiled form.
    pub backend: Backend,
    /// Rewriter options every LXFI `load_module` uses. Fixed at boot so
    /// benchmarks can compare rewrite strategies (e.g. guard hoisting
    /// on/off) across otherwise identical kernels.
    pub rewrite_opts: RewriteOptions,
    layouts: TypeLayouts,
    /// Hash of the empty annotation set (the default for unannotated
    /// functions and unknown sigs), computed once at boot.
    empty_ahash: u64,
    /// Shared declaration for unannotated module functions invoked
    /// directly by the kernel (e.g. `module_init`): empty annotations,
    /// compiled once at boot so the per-call fallback is an Arc clone.
    unannotated_decl: Arc<FnDecl>,

    exports: RwLock<ExportTable>,
    kdata: RwLock<HashMap<String, (Word, u64)>>,
    sig_decls: RwLock<HashMap<String, Arc<FnDecl>>>,
    modules: RwLock<ModuleTable>,
    /// Set once by `load_kernel_thunks`: the thunk pseudo-module and its
    /// name → function-id map, so per-packet thunk dispatch costs one
    /// `Arc` clone and one hash lookup instead of a registry read lock
    /// plus a linear name scan.
    thunks: std::sync::OnceLock<(Arc<LoadedModule>, HashMap<String, FuncId>)>,
    /// Serializes whole module load/unload transactions (loads are rare;
    /// dispatch only takes the registries' read locks).
    load_lock: Mutex<()>,

    slab: ShardedSlab,
    procs: Mutex<ProcessTable>,
    panic: Mutex<Option<(String, Option<Violation>)>>,
    /// Contained module faults, oldest first (the supervisor's and the
    /// tests' event source). Kernel-wide: any CPU's quarantine appends.
    faults: Mutex<Vec<ModuleFault>>,
    user_fns: RwLock<HashMap<Word, UserFn>>,

    kdata_next: AtomicU64,
    user_next: AtomicU64,
    kstatic_next: AtomicU64,
    /// Stack base per simulated kernel thread; index = `ThreadId`.
    threads: Mutex<Vec<Word>>,

    net: Mutex<crate::net::NetState>,
    pci: Mutex<crate::pci::PciState>,
    sock: Mutex<crate::socket::SocketState>,
    snd: Mutex<crate::snd::SndState>,
    dm: Mutex<crate::dm::DmState>,

    /// The deferred-call table (bottom halves; see [`crate::deferred`]).
    deferred: Mutex<crate::deferred::DeferredState>,
    /// Kernel-wide count of pending deferred calls — the lock-free probe
    /// every `enter` epilogue takes before deciding whether to drain, so
    /// entries with no bottom-half work never touch the deferred mutex.
    deferred_pending: AtomicUsize,
}

impl KernelCore {
    /// The shared runtime core backing this kernel's guards.
    pub fn runtime_core(&self) -> Arc<RuntimeCore> {
        Arc::clone(&self.rtc)
    }

    /// Struct layouts for `sizeof(*ptr)` defaults (immutable after boot).
    pub fn layouts(&self) -> &TypeLayouts {
        &self.layouts
    }

    /// The sharded slab allocator (each call locks only the shard it
    /// touches).
    pub fn slab(&self) -> &ShardedSlab {
        &self.slab
    }

    /// Locks the process table.
    pub fn procs(&self) -> MutexGuard<'_, ProcessTable> {
        self.procs.lock().expect("procs lock")
    }

    /// Locks the networking state.
    pub fn net(&self) -> MutexGuard<'_, crate::net::NetState> {
        self.net.lock().expect("net lock")
    }

    /// Locks the PCI state.
    pub fn pci(&self) -> MutexGuard<'_, crate::pci::PciState> {
        self.pci.lock().expect("pci lock")
    }

    /// Locks the socket-layer state.
    pub fn sock(&self) -> MutexGuard<'_, crate::socket::SocketState> {
        self.sock.lock().expect("sock lock")
    }

    /// Locks the sound state.
    pub fn snd(&self) -> MutexGuard<'_, crate::snd::SndState> {
        self.snd.lock().expect("snd lock")
    }

    /// Locks the device-mapper state.
    pub fn dm(&self) -> MutexGuard<'_, crate::dm::DmState> {
        self.dm.lock().expect("dm lock")
    }

    /// Locks the deferred-call table.
    pub fn deferred(&self) -> MutexGuard<'_, crate::deferred::DeferredState> {
        self.deferred.lock().expect("deferred lock")
    }

    /// Aggregated compiled-backend statistics across every loaded
    /// module (including the kernel-thunk pseudo-module): blocks
    /// compiled, fused guard sites, functions that fell back to the
    /// interpreter. All-zero under [`Backend::Interp`].
    pub fn compile_stats(&self) -> CompileStats {
        let mods = self.modules.read().expect("modules lock");
        let mut total = CompileStats::default();
        for m in &mods.modules {
            if let Some(cp) = &m.compiled {
                let s = cp.stats();
                total.funcs_compiled += s.funcs_compiled;
                total.blocks_compiled += s.blocks_compiled;
                total.fused_guard_sites += s.fused_guard_sites;
                total.fallback_funcs += s.fallback_funcs;
            }
        }
        total
    }

    /// Allocates a simulated kernel thread: maps its stack, grants
    /// already-loaded isolated modules WRITE to it (initial capability
    /// (2) of §3.2), returns `(id, stack base)`. Serialized with module
    /// loads (the load lock) so a concurrently loading module cannot
    /// miss the new stack: the load either committed before this (the
    /// module snapshot below includes it) or starts after (its
    /// thread-stack snapshot includes the new base) — exactly one side
    /// performs the grant.
    fn alloc_thread(&self) -> (ThreadId, Word) {
        let _load = self.load_lock.lock().expect("load lock");
        let base = {
            let mut th = self.threads.lock().expect("threads lock");
            let idx = th.len();
            if idx > 0 {
                // Going SMP: the single-threaded kfree-hint debug
                // cross-check is no longer race-free (see RuntimeCore).
                self.rtc.disable_kfree_cross_check();
            }
            let base = STACK_BASE + idx as u64 * STACK_STRIDE;
            th.push(base);
            base
        };
        self.mem.map_range(base, STACK_SIZE);
        let mids: Vec<_> = {
            let mods = self.modules.read().expect("modules lock");
            mods.modules
                .iter()
                // An unloaded module's principals must not regain
                // authority: no stack grant for dead modules.
                .filter(|m| !m.unloaded.load(Ordering::Acquire))
                .filter_map(|m| m.mid)
                .collect()
        };
        for mid in mids {
            let shared = self.rtc.shared_principal(mid);
            self.rtc.grant(shared, RawCap::write(base, STACK_SIZE));
        }
        let idx = ((base - STACK_BASE) / STACK_STRIDE) as u32;
        (ThreadId(idx), base)
    }

    /// Re-resolves every loaded module's per-`SigId` annotation hashes
    /// against the sig registry. Called whenever the registry gains an
    /// entry, so the indirect-call guards stay array-indexed.
    fn refresh_sig_hashes(&self) {
        let sig_decls = self.sig_decls.read().expect("sig lock");
        let mods = self.modules.read().expect("modules lock");
        for m in &mods.modules {
            *m.sig_ahash.write().expect("sig_ahash lock") =
                resolve_sig_hashes(&sig_decls, &m.program, self.empty_ahash);
        }
    }

    /// The export registered at `addr`, if any.
    fn export_at(&self, addr: Word) -> Option<Arc<Export>> {
        if addr < EXPORT_BASE {
            return None;
        }
        let idx = ((addr - EXPORT_BASE) / FN_SPACING) as usize;
        if addr != EXPORT_BASE + idx as u64 * FN_SPACING {
            return None;
        }
        let tab = self.exports.read().expect("exports lock");
        tab.exports.get(idx).cloned()
    }

    /// Resolves a function address to its module, taking an execution
    /// reference (module "get") **under the registry read lock** — so
    /// `unload_module`'s unpublish (under the write lock) strictly
    /// orders with every resolution: after unpublish, every live
    /// dispatcher is already counted in `active` and the grace period
    /// waits it out.
    fn module_of_fn(&self, addr: Word) -> Option<(ModuleRef, FuncId)> {
        let tab = self.modules.read().expect("modules lock");
        let &(midx, fid) = tab.fn_addrs.get(&addr)?;
        Some((ModuleRef::acquire(&tab.modules[midx]), fid))
    }
}

/// One simulated CPU: an [`Env`] implementation over the shared
/// [`KernelCore`]. Owns the per-CPU state (its [`GuardHandle`], stack
/// pointer, module execution stack, fuel and cycle accounting);
/// everything else delegates to the core.
/// `Send`, so workloads move CPUs onto OS threads.
pub struct KernelCpu {
    core: Arc<KernelCore>,
    /// Simulated physical memory (shared with every other CPU).
    pub mem: Arc<AddressSpace>,
    /// This CPU's guard handle over the shared `RuntimeCore`: the shadow
    /// stack and kernel-stack window of the one thread this CPU runs, a
    /// private epoch cache, and this CPU's guard stats and costs.
    /// `Deref`s to the core for grants, ownership tests and diagnostics.
    pub rt: GuardHandle,
    /// Global isolation mode (modules default to it).
    pub mode: IsolationMode,

    /// This CPU's private slab magazines (per-size-class caches refilled
    /// from the CPU's preferred heap shard). Public so benches and tests
    /// read the hit/miss counters.
    pub mags: Magazines,

    thread: ThreadId,
    stack_base: Word,
    sp: Word,
    exec_stack: Vec<Arc<LoadedModule>>,
    /// The innermost module executing when the trap now unwinding was
    /// raised — captured by the first `exec_module` frame to observe the
    /// `Err` (the exec stack has fully popped by the time `enter`
    /// classifies), consumed by fault classification.
    pending_fault: Option<Arc<LoadedModule>>,
    /// Deterministic seeded fault injection (`None` = off; see
    /// [`crate::fault_inject`]).
    fault_inject: Option<crate::fault_inject::FaultInjector>,
    /// True while this CPU dispatches a deferred call (a bottom half) —
    /// the context gate for [`crate::fault_inject::FaultSite::DeferredFuel`].
    in_deferred: bool,

    fuel: u64,
    /// Cycles consumed by interpreted instructions (monotonic).
    pub cycles: u64,
}

/// The simulated kernel: the single-threaded facade over the shared
/// [`KernelCore`] — CPU 0 plus the boot surface. `Deref`s to
/// [`KernelCpu`], so the historical `&mut Kernel` API (tests, examples,
/// exploit scenarios) is unchanged; multi-threaded workloads peel off
/// additional CPUs with [`Kernel::new_cpu`].
pub struct Kernel {
    cpu: KernelCpu,
}

impl std::ops::Deref for Kernel {
    type Target = KernelCpu;
    fn deref(&self) -> &KernelCpu {
        &self.cpu
    }
}

impl std::ops::DerefMut for Kernel {
    fn deref_mut(&mut self) -> &mut KernelCpu {
        &mut self.cpu
    }
}

impl Kernel {
    /// Boots a kernel in the given isolation mode: registers struct
    /// layouts, core exports, subsystems, kernel dispatch thunks, the
    /// process table, and CPU 0 on thread 0. Runs module code through
    /// the interpreter; use [`Kernel::boot_with_backend`] to pick the
    /// compiled backend.
    pub fn boot(mode: IsolationMode) -> Self {
        Self::boot_with_backend(mode, Backend::Interp)
    }

    /// [`Kernel::boot`] with an explicit execution backend. Under
    /// [`Backend::Compiled`] every `load_module` (and the kernel thunk
    /// pseudo-module) is translated once into direct-threaded block
    /// closures, and all CPUs dispatch through the compiled form; the
    /// interpreter remains available as the differential-testing oracle
    /// via [`Backend::Interp`].
    pub fn boot_with_backend(mode: IsolationMode, backend: Backend) -> Self {
        Self::boot_with_options(mode, backend, RewriteOptions::default())
    }

    /// [`Kernel::boot_with_backend`] with explicit rewriter options,
    /// used by benchmarks to measure a rewrite strategy (e.g. guard
    /// hoisting off) against the default.
    pub fn boot_with_options(
        mode: IsolationMode,
        backend: Backend,
        rewrite_opts: RewriteOptions,
    ) -> Self {
        let mut layouts = TypeLayouts::new();
        types::register_layouts(&mut layouts);

        let mem = Arc::new(AddressSpace::new());
        // The shared runtime core is born sharded along the address-space
        // regions (and the first module windows) before any capability
        // traffic, so grant/revoke splices stay bounded by the region
        // they touch — and so are the per-shard locks.
        let rtc = Arc::new(RuntimeCore::with_shard_boundaries(shard_boundaries()));
        // The tombstone principal exists from boot, so principal
        // numbering is deterministic whether or not a module ever
        // faults (quarantine would otherwise create it lazily).
        rtc.ensure_tombstone();
        let procs = ProcessTable::new(&mem, KSTATIC_BASE);

        let unannotated_decl = {
            let mut d = FnDecl::new("<unannotated>", Vec::new(), Default::default());
            d.compile(&rtc, &layouts);
            Arc::new(d)
        };

        let core = Arc::new(KernelCore {
            mem: Arc::clone(&mem),
            rtc,
            mode,
            backend,
            layouts,
            empty_ahash: lxfi_annotations::annotation_hash(&Default::default()),
            unannotated_decl,
            exports: RwLock::new(ExportTable::default()),
            kdata: RwLock::new(HashMap::new()),
            sig_decls: RwLock::new(HashMap::new()),
            rewrite_opts,
            modules: RwLock::new(ModuleTable::default()),
            thunks: std::sync::OnceLock::new(),
            load_lock: Mutex::new(()),
            slab: ShardedSlab::new(),
            procs: Mutex::new(procs),
            panic: Mutex::new(None),
            faults: Mutex::new(Vec::new()),
            user_fns: RwLock::new(HashMap::new()),
            kdata_next: AtomicU64::new(KDATA_BASE),
            user_next: AtomicU64::new(0x0000_1000_0000),
            kstatic_next: AtomicU64::new(KSTATIC_BASE + 0x10_0000),
            threads: Mutex::new(Vec::new()),
            net: Mutex::new(Default::default()),
            pci: Mutex::new(Default::default()),
            sock: Mutex::new(Default::default()),
            snd: Mutex::new(Default::default()),
            dm: Mutex::new(Default::default()),
            deferred: Mutex::new(Default::default()),
            deferred_pending: AtomicUsize::new(0),
        });

        let cpu = KernelCpu::new(Arc::clone(&core));
        let mut k = Kernel { cpu };
        crate::exports_base::register(&mut k);
        crate::pci::register(&mut k);
        crate::net::register(&mut k);
        crate::socket::register(&mut k);
        crate::snd::register(&mut k);
        crate::dm::register(&mut k);
        k.load_kernel_thunks();
        k
    }

    /// The shared kernel core.
    pub fn core(&self) -> Arc<KernelCore> {
        Arc::clone(&self.cpu.core)
    }

    /// Creates an additional simulated CPU over this kernel's shared
    /// core, pinned to a fresh kernel thread with its own stack, guard
    /// lane, and fuel budget. Move it to another OS thread to execute
    /// module code concurrently with this kernel.
    pub fn new_cpu(&self) -> KernelCpu {
        KernelCpu::new(Arc::clone(&self.cpu.core))
    }
}

impl KernelCpu {
    /// Creates a CPU over a shared core, allocating its kernel thread.
    pub fn new(core: Arc<KernelCore>) -> Self {
        let (thread, stack_base) = core.alloc_thread();
        let mut rt = GuardHandle::new(core.runtime_core());
        rt.set_kernel_stack(stack_base, STACK_SIZE);
        KernelCpu {
            mem: Arc::clone(&core.mem),
            rt,
            mode: core.mode,
            mags: Magazines::new(thread.0 as usize),
            thread,
            stack_base,
            sp: stack_base + STACK_SIZE,
            exec_stack: Vec::new(),
            pending_fault: None,
            fault_inject: None,
            in_deferred: false,
            fuel: u64::MAX,
            cycles: 0,
            core,
        }
    }

    /// The shared kernel core.
    pub fn kernel_core(&self) -> &Arc<KernelCore> {
        &self.core
    }

    // ------------------------------------------------------------ threads

    /// The shared runtime core backing this kernel's guards. Worker
    /// threads outside the simulated kernel (benchmarks, stress tests)
    /// guard against the same capability world through handles from
    /// [`KernelCpu::guard_handle`].
    pub fn runtime_core(&self) -> Arc<RuntimeCore> {
        Arc::clone(self.rt.core())
    }

    /// Hands out a fresh per-thread guard handle over this kernel's
    /// shared core: its own shadow stack, private epoch cache, and
    /// stats, suitable for moving to another OS thread. Full kernel
    /// execution contexts (interpreting module code) come from
    /// [`Kernel::new_cpu`] instead.
    pub fn guard_handle(&self) -> GuardHandle {
        GuardHandle::new(self.runtime_core())
    }

    /// `set_tid_address(2)`: records the user pointer `do_exit` will zero
    /// on process death — the CVE-2010-4258 primitive the Econet exploit
    /// aims.
    pub fn sys_set_tid_address(&mut self, tidptr: Word) {
        let task = self.procs().current_task();
        self.mem
            .write_word(
                (task as i64 + crate::process::task::CLEAR_CHILD_TID) as u64,
                tidptr,
            )
            .expect("task mapped");
    }

    /// The current thread id (the thread this CPU is pinned to).
    pub fn current_thread(&self) -> ThreadId {
        self.thread
    }

    // ----------------------------------------------- shared-state access

    /// Struct layouts for `sizeof(*ptr)` defaults.
    pub fn layouts(&self) -> &TypeLayouts {
        &self.core.layouts
    }

    /// The sharded slab allocator backing `kmalloc` (per-shard locking).
    pub fn slab(&self) -> &ShardedSlab {
        self.core.slab()
    }

    /// Per-packet `kmalloc`: serves from this CPU's magazine, refilling
    /// from the CPU's preferred heap shard on a miss. Falls back to the
    /// same `None` contract as the direct allocator for bad sizes.
    pub fn kmalloc_cpu(&mut self, size: u64) -> Option<Word> {
        self.mags.kmalloc(&self.core.slab, &self.mem, size)
    }

    /// Per-packet `kfree` epilogue: accepts a slot whose two-phase free
    /// prologue (`begin_free`, capability sweep, zeroing, `note_zeroed`)
    /// already ran, caching it in this CPU's magazine instead of
    /// returning it to the shard free list.
    pub fn kfree_cpu(&mut self, addr: Word, class: u64) {
        self.mags.release(&self.core.slab, addr, class);
    }

    /// Locks the process table (processes, credentials, pid hash).
    pub fn procs(&self) -> MutexGuard<'_, ProcessTable> {
        self.core.procs()
    }

    /// Locks the networking subsystem state.
    pub fn net(&self) -> MutexGuard<'_, crate::net::NetState> {
        self.core.net()
    }

    /// Locks the PCI subsystem state.
    pub fn pci(&self) -> MutexGuard<'_, crate::pci::PciState> {
        self.core.pci()
    }

    /// Locks the socket layer state.
    pub fn sock(&self) -> MutexGuard<'_, crate::socket::SocketState> {
        self.core.sock()
    }

    /// Locks the sound subsystem state.
    pub fn snd(&self) -> MutexGuard<'_, crate::snd::SndState> {
        self.core.snd()
    }

    /// Locks the device-mapper state.
    pub fn dm(&self) -> MutexGuard<'_, crate::dm::DmState> {
        self.core.dm()
    }

    /// Locks the deferred-call table (see [`crate::deferred`]).
    pub fn deferred(&self) -> MutexGuard<'_, crate::deferred::DeferredState> {
        self.core.deferred()
    }

    // ----------------------------------------------------------- exports

    /// Registers an exported kernel function. `ann` is annotation source
    /// text (`None` = unannotated: uncallable from isolated modules).
    pub fn export(&mut self, name: &str, params: Vec<Param>, ann: Option<&str>, imp: NativeFn) {
        self.export_full(name, params, ann, imp, false);
    }

    /// Registers an LXFI runtime entry point: callable like an export, but
    /// executed in the caller's principal context (§3.4).
    pub fn export_runtime(&mut self, name: &str, params: Vec<Param>, ann: &str, imp: NativeFn) {
        self.export_full(name, params, Some(ann), imp, true);
    }

    fn export_full(
        &mut self,
        name: &str,
        params: Vec<Param>,
        ann: Option<&str>,
        imp: NativeFn,
        runtime_call: bool,
    ) {
        let decl = ann.map(|src| {
            let mut d = FnDecl::new(
                name,
                params.clone(),
                parse_fn_annotations(src)
                    .unwrap_or_else(|e| panic!("bad annotation on {name}: {e}")),
            );
            d.compile(&self.rt, &self.core.layouts);
            Arc::new(d)
        });
        let ahash = decl
            .as_ref()
            .map(|d| d.ahash)
            .unwrap_or(self.core.empty_ahash);
        let addr = {
            let mut tab = self.core.exports.write().expect("exports lock");
            let idx = tab.exports.len();
            assert!(
                tab.by_name.insert(name.to_string(), idx).is_none(),
                "duplicate export {name}"
            );
            tab.exports.push(Arc::new(Export {
                name: name.to_string(),
                decl,
                imp,
                runtime_call,
            }));
            EXPORT_BASE + idx as u64 * FN_SPACING
        };
        self.rt.register_function(
            addr,
            FnMeta {
                name: name.to_string(),
                ahash,
                module: None,
            },
        );
    }

    /// Declares an annotated function-pointer type (interface annotation
    /// on a struct field, e.g. `net_device_ops.ndo_start_xmit`).
    pub fn define_sig(&mut self, name: &str, params: Vec<Param>, ann: &str) {
        let mut decl = FnDecl::new(
            name,
            params,
            parse_fn_annotations(ann).unwrap_or_else(|e| panic!("bad annotation on {name}: {e}")),
        );
        decl.compile(&self.rt, &self.core.layouts);
        // Decide under the write lock: a concurrent define_sig (or a
        // loading module merging the same name) must never let a
        // conflicting declaration silently replace an existing one
        // (§4.2 exact-match-on-collision).
        {
            let mut sig_decls = self.core.sig_decls.write().expect("sig lock");
            if let Some(prev) = sig_decls.get(name) {
                assert_eq!(
                    prev.ann.canonical(),
                    decl.ann.canonical(),
                    "conflicting sig declaration for {name}"
                );
                return;
            }
            sig_decls.insert(name.to_string(), Arc::new(decl));
        }
        self.core.refresh_sig_hashes();
    }

    /// The annotated declaration of a function-pointer type.
    pub fn sig_decl(&self, name: &str) -> Option<Arc<FnDecl>> {
        self.core
            .sig_decls
            .read()
            .expect("sig lock")
            .get(name)
            .cloned()
    }

    /// Exports a kernel data symbol of `size` bytes; returns its address.
    pub fn export_data(&mut self, name: &str, size: u64) -> Word {
        let addr = self
            .core
            .kdata_next
            .fetch_add((size + 0xfff) & !0xfff, Ordering::Relaxed);
        self.mem.map_range(addr, size);
        self.core
            .kdata
            .write()
            .expect("kdata lock")
            .insert(name.to_string(), (addr, size));
        addr
    }

    /// Address of an exported kernel function.
    pub fn export_addr(&self, name: &str) -> Option<Word> {
        self.core
            .exports
            .read()
            .expect("exports lock")
            .by_name
            .get(name)
            .map(|&i| EXPORT_BASE + i as u64 * FN_SPACING)
    }

    /// Allocates zeroed kernel-static memory (ops tables, device structs).
    pub fn kstatic_alloc(&mut self, size: u64) -> Word {
        let addr = self
            .core
            .kstatic_next
            .fetch_add((size + 63) & !63, Ordering::Relaxed);
        self.mem.map_range(addr, size);
        addr
    }

    // --------------------------------------------------------- user space

    /// Maps user memory at a caller-chosen address (`mmap`-with-MAP_FIXED;
    /// exploits use it to place payloads at crafted addresses).
    pub fn user_map(&mut self, addr: Word, len: u64) -> Result<(), KernelError> {
        if !is_user_addr(addr) || !is_user_addr(addr + len) {
            return Err(KernelError::Fail("user_map outside user space".into()));
        }
        self.mem.map_range(addr, len);
        Ok(())
    }

    /// Allocates fresh user memory.
    pub fn user_alloc(&mut self, len: u64) -> Word {
        let addr = self
            .core
            .user_next
            .fetch_add((len + 0xfff) & !0xfff, Ordering::Relaxed);
        self.mem.map_range(addr, len);
        addr
    }

    /// Registers user "code" at a user address.
    pub fn register_user_fn(&mut self, addr: Word, f: UserFn) {
        assert!(is_user_addr(addr));
        self.core
            .user_fns
            .write()
            .expect("user_fns lock")
            .insert(addr, f);
    }

    /// The kernel jumping to a user address: if shellcode is registered
    /// there it runs **with kernel privilege** (the exploit payoff);
    /// otherwise the machine faults.
    fn run_user_code(&mut self, addr: Word) -> Result<Word, Trap> {
        let f = self
            .core
            .user_fns
            .read()
            .expect("user_fns lock")
            .get(&addr)
            .cloned();
        match f {
            Some(f) => {
                f(self);
                Ok(0)
            }
            None => Err(Trap::MemFault {
                addr,
                len: 1,
                write: false,
            }),
        }
    }

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

    /// Clears the fault log (tests probing multiple fault sequences).
    pub fn clear_faults(&mut self) {
        self.core.faults.lock().expect("faults lock").clear();
    }

    /// Whether a module registry slot currently holds a live (not torn
    /// down) module.
    pub fn module_is_live(&self, id: LoadedModuleId) -> bool {
        self.core
            .modules
            .read()
            .expect("modules lock")
            .modules
            .get(id.0)
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
        if let Some((p, _)) = &*self.core.panic.lock().expect("panic lock") {
            return Err(KernelError::Panic(p.clone()));
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
    fn contain_trap(&mut self, trap: Trap, executing: Option<Arc<LoadedModule>>) -> KernelError {
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
        let attributed = executing
            .filter(|m| m.mode == IsolationMode::Lxfi && m.mid.is_some())
            .or_else(|| {
                let mid = self.rt.principal_module(culprit?);
                self.loaded_module_of(mid)
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
            return KernelError::ModuleFault(Box::new(
                self.quarantine(&m, principal, violation, msg, oopsed),
            ));
        }

        // A violation naming a retired principal (or the tombstone) is
        // planted state from a module that is already dead and
        // reclaimed: record the fault, keep the kernel running.
        if let Some(p) = culprit {
            let rtc = self.core.runtime_core();
            if rtc.is_retired(p) || rtc.tombstone() == Some(p) {
                let mid = rtc.principal_module(p);
                let fault = ModuleFault {
                    id: None,
                    module: rtc.module_name(mid),
                    mid: Some(mid),
                    principal: Some(p),
                    violation,
                    reason: msg,
                    oopsed: false,
                };
                self.core
                    .faults
                    .lock()
                    .expect("faults lock")
                    .push(fault.clone());
                return KernelError::ModuleFault(Box::new(fault));
            }
        }

        // No module to blame: the kernel's own invariants are at stake.
        if is_policy {
            *self.core.panic.lock().expect("panic lock") = Some((msg.clone(), violation));
            KernelError::Panic(msg)
        } else {
            self.oops();
            KernelError::Oops(msg)
        }
    }

    /// The live registry entry backed by runtime module `mid`, if any.
    /// (After slot reuse a dead module's principals resolve to no entry;
    /// the retired-principal branch of [`KernelCpu::contain_trap`]
    /// handles them.)
    fn loaded_module_of(&self, mid: lxfi_core::ModuleId) -> Option<Arc<LoadedModule>> {
        let tab = self.core.modules.read().expect("modules lock");
        tab.modules.iter().find(|m| m.mid == Some(mid)).cloned()
    }

    /// Quarantines a faulted module: records the structured fault, then
    /// runs the shared teardown (unpublish → grace period → reclaim →
    /// retire). Idempotent — a second fault attributed to an
    /// already-dead module only appends its fault record.
    fn quarantine(
        &mut self,
        m: &Arc<LoadedModule>,
        principal: Option<PrincipalId>,
        violation: Option<Violation>,
        reason: String,
        oopsed: bool,
    ) -> ModuleFault {
        let fault = ModuleFault {
            id: Some(LoadedModuleId(m.slot)),
            module: m.name.clone(),
            mid: m.mid,
            principal,
            violation,
            reason,
            oopsed,
        };
        self.core
            .faults
            .lock()
            .expect("faults lock")
            .push(fault.clone());
        self.teardown_module(m);
        fault
    }

    /// The shared teardown quarantine and [`KernelCpu::unload_module`]
    /// both run: unpublish the module's name and function addresses,
    /// wait out the RCU grace period, then reclaim every resource the
    /// module pinned — CALL capabilities to its functions, the
    /// kernel-stack WRITE grants of §3.2, slab objects only its
    /// principals could still free — and retire its principals, moving
    /// their remaining WRITE coverage to the tombstone so slots the
    /// module wrote stay poisoned (the window itself is scrubbed at
    /// slot *reuse*, not here). Returns `false` if the module was
    /// already torn down.
    fn teardown_module(&mut self, m: &Arc<LoadedModule>) -> bool {
        let core = Arc::clone(&self.core);
        let _load = core.load_lock.lock().expect("load lock");
        {
            let mut tab = self.core.modules.write().expect("modules lock");
            if m.unloaded.swap(true, Ordering::AcqRel) {
                return false; // already torn down
            }
            if tab.by_name.get(&m.name) == Some(&m.slot) {
                tab.by_name.remove(&m.name);
            }
            for i in 0..m.program.funcs.len() {
                tab.fn_addrs.remove(&(m.fn_base + i as u64 * FN_SPACING));
            }
            tab.free_slots.push(m.slot);
        }
        // Grace period: the function addresses are unpublished, so no
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
        let Some(mid) = m.mid else {
            return true; // stock module: no principals, nothing to reclaim
        };
        // CALL capabilities to the dead functions die everywhere (§3.3
        // transfer semantics applied to the whole module).
        for i in 0..m.program.funcs.len() {
            self.rt
                .revoke_everywhere(RawCap::call(m.fn_base + i as u64 * FN_SPACING));
        }
        // Kernel-stack grants (§3.2 initial capability (2)) are
        // *returned*, not tombstoned: stacks outlive the module and are
        // legitimately rewritten by every later tenant.
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
        // moves to the tombstone; the principals retire.
        self.rt.retire_module(mid);
        true
    }

    /// Frees live slab objects whose WRITE coverage belongs only to the
    /// dying module's principals (two-phase, mirroring the `kfree`
    /// native).
    fn sweep_module_slab(&mut self, victims: &[PrincipalId]) {
        let rtc = self.core.runtime_core();
        let ts = rtc.tombstone();
        let objects = self.slab().live_objects();
        for (addr, _size, class) in objects {
            let holders: Vec<PrincipalId> = rtc
                .present_over(addr, class)
                .into_iter()
                .filter(|&p| rtc.write_overlaps(p, addr, class))
                .collect();
            let dead_holds = holders.iter().any(|p| victims.contains(p));
            let live_holds = holders
                .iter()
                .any(|&p| !victims.contains(&p) && Some(p) != ts && !rtc.is_retired(p));
            if !dead_holds || live_holds {
                continue;
            }
            if self.slab().begin_free(addr).is_some() {
                self.rt.revoke_write_overlapping_everywhere(addr, class);
                let _ = self.mem.zero_range(addr, class);
                self.rt.note_zeroed(addr, class);
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

    // ------------------------------------------------- deferred dispatch

    /// Registers the single deferred-call slot for `(owner, kind)`
    /// (idempotent; see [`crate::deferred::DeferredState::register`]).
    pub fn deferred_register(
        &mut self,
        owner: Word,
        kind: crate::deferred::DeferredKind,
    ) -> crate::deferred::DeferredId {
        self.core.deferred().register(owner, kind)
    }

    /// Schedules a deferred call (top-half side: e.g. the interrupt
    /// assertion in `net_rx_wire`). Returns `false` if the owner's ring
    /// was full and the call was dropped. Binds the slot to this CPU
    /// when its ring was empty — the determinism contract's anchor.
    pub fn deferred_schedule(&mut self, id: crate::deferred::DeferredId, arg: Word) -> bool {
        let ok = self.core.deferred().schedule(id, arg, self.thread.0);
        if ok {
            self.core.deferred_pending.fetch_add(1, Ordering::AcqRel);
        }
        ok
    }

    /// Dispatches one pending deferred call from `id`'s ring: pops it,
    /// runs the target callback as a simulated interrupt (saving and
    /// restoring the interrupted principal context, §3.1) with
    /// `in_deferred` set so [`crate::fault_inject::FaultSite::DeferredFuel`]
    /// can fire, and applies NAPI's softirq re-arm rule — a poll that
    /// consumed its whole budget is re-scheduled, one that returned
    /// early is expected to have called `napi_complete`.
    ///
    /// Returns `Ok(None)` when the ring was already empty, `Ok(Some(ret))`
    /// with the callback's return value otherwise. A trap propagates to
    /// the caller for ordinary classification — the popped call is
    /// consumed (its frames stay on the device ring for a post-recovery
    /// poll to replay; `docs/io-plane.md`).
    pub fn deferred_dispatch_one(
        &mut self,
        id: crate::deferred::DeferredId,
    ) -> Result<Option<Word>, Trap> {
        use crate::deferred::DeferredKind;
        let Some((owner, kind, arg)) = self.core.deferred().pop(id) else {
            return Ok(None);
        };
        self.core.deferred_pending.fetch_sub(1, Ordering::AcqRel);
        let ret = match kind {
            DeferredKind::NapiPoll => {
                // The device's registered poll slot; gone means the
                // owning module was unloaded between assert and dispatch
                // — the call evaporates (its frames stay on the ring).
                let slot = self.net().poll_slot(owner);
                let Some(slot) = slot else {
                    self.core.deferred().dispatched += 1;
                    return Ok(Some(0));
                };
                self.in_deferred = true;
                let r = self.interrupt(|k| k.indirect_call(slot, "napi_poll", &[owner, arg]));
                self.in_deferred = false;
                let polled = match r {
                    Ok(p) => p,
                    // The owning module was unloaded between the slot
                    // read and the dispatch (no attributed fault, just
                    // a dangling published pointer): the device
                    // vanished. Swallow the call — its frames stay on
                    // the ring for a post-recovery poll to replay.
                    Err(Trap::BadRef(_)) if self.pending_fault.is_none() => {
                        self.core.deferred().dispatched += 1;
                        return Ok(Some(0));
                    }
                    Err(t) => return Err(t),
                };
                if arg > 0 && polled >= arg {
                    // Budget exhausted: more frames may remain; re-arm
                    // (the interrupt stays masked until `napi_complete`).
                    self.deferred_schedule(id, arg);
                }
                polled
            }
            DeferredKind::SndCapture => {
                let ops = self.snd().ops_of(owner);
                let Some(ops) = ops else {
                    self.core.deferred().dispatched += 1;
                    return Ok(Some(0));
                };
                self.in_deferred = true;
                let r = self.interrupt(|k| {
                    k.indirect_call(
                        ops + crate::types::snd_pcm_ops::CAPTURE as u64,
                        "pcm_capture",
                        &[owner, arg],
                    )
                });
                self.in_deferred = false;
                r?
            }
        };
        self.core.deferred().dispatched += 1;
        Ok(Some(ret))
    }

    /// Drains this CPU's pending deferred calls — the quiescent point.
    /// Runs the zero-note flush first (the same family of deferred work
    /// this layer extends), then dispatches every pending call whose
    /// slot is bound to this CPU. A faulting bottom half is classified
    /// and contained right here (`KernelCpu::contain_trap`) and the
    /// drain continues with the next call; only a kernel panic stops it.
    /// Returns the number of calls dispatched.
    pub fn deferred_drain(&mut self) -> usize {
        self.rt.flush_zero_notes();
        let mut n = 0usize;
        // Hard bound: a misbehaving poll callback that re-arms forever
        // must not livelock the quiescent point; leftover work stays
        // pending for the next one.
        while n < 1024 {
            let next = self.core.deferred().next_for(self.thread.0);
            let Some(id) = next else { break };
            match self.deferred_dispatch_one(id) {
                Ok(Some(_)) => n += 1,
                Ok(None) => continue, // raced empty; re-probe
                Err(trap) => {
                    n += 1;
                    let executing = self.pending_fault.take();
                    if let KernelError::Panic(_) = self.contain_trap(trap, executing) {
                        break;
                    }
                }
            }
        }
        n
    }

    /// Deferred-dispatch counters `(dispatched, dropped, pending)` —
    /// the bench/table surface.
    pub fn deferred_stats(&self) -> (u64, u64, usize) {
        let d = self.core.deferred();
        (d.dispatched, d.dropped, d.pending_total())
    }

    // ------------------------------------------------------ module loading

    /// Loads a module in the kernel's global mode.
    pub fn load_module(&mut self, spec: ModuleSpec) -> Result<LoadedModuleId, KernelError> {
        self.load_module_with_mode(spec, self.mode)
    }

    /// Loads a module with an explicit mode. Whole loads are serialized
    /// by the core's load lock; dispatch on other CPUs proceeds
    /// concurrently against the registries' read locks and observes the
    /// module only after its commit point (name + function addresses
    /// inserted together).
    pub fn load_module_with_mode(
        &mut self,
        spec: ModuleSpec,
        mode: IsolationMode,
    ) -> Result<LoadedModuleId, KernelError> {
        let core = Arc::clone(&self.core);
        let load_guard = core.load_lock.lock().expect("load lock");

        lxfi_machine::verify_program(&spec.program)
            .map_err(|e| KernelError::Fail(format!("verify {}: {}", spec.name, e[0])))?;

        // Merge the module's interface declarations into the kernel's sig
        // registry (exact-match on collision, §4.2). The compile happens
        // optimistically outside the lock; the collision decision and the
        // insert happen together under the write lock so a concurrent
        // define_sig cannot interleave between check and insert.
        for (name, d) in &spec.iface.sig_decls {
            let mut compiled = d.clone();
            compiled.compile(&self.rt, &self.core.layouts);
            let mut sig_decls = self.core.sig_decls.write().expect("sig lock");
            if let Some(prev) = sig_decls.get(name) {
                if prev.ann.canonical() != d.ann.canonical() {
                    return Err(KernelError::Fail(format!(
                        "sig `{name}` conflicts with an existing declaration"
                    )));
                }
            } else {
                sig_decls.insert(name.clone(), Arc::new(compiled));
            }
        }

        let (program, decls, init_grants) = match mode {
            IsolationMode::Lxfi => {
                let rw = rewrite_module(&spec.program, self.core.rewrite_opts);
                // Don't trust the rewriter: prove on the *output* that
                // every reachable store is guard-dominated before the
                // program can reach either execution backend.
                verify_soundness(&rw.program, SoundnessPolicy::module())
                    .map_err(|e| KernelError::Fail(format!("soundness {}: {}", spec.name, e[0])))?;
                let decls = propagate(&rw.program, &spec.iface)
                    .map_err(|e| KernelError::Fail(format!("propagate {}: {e}", spec.name)))?;
                (rw.program, decls, rw.init_grants)
            }
            IsolationMode::Stock => (spec.program.clone(), HashMap::new(), Vec::new()),
        };
        // Compile the module declarations' enforcement IR once, at load.
        let decls: HashMap<FuncId, Arc<FnDecl>> = decls
            .into_iter()
            .map(|(fid, mut d)| {
                d.compile(&self.rt, &self.core.layouts);
                (fid, Arc::new(d))
            })
            .collect();

        // Reuse the lowest torn-down slot if one is free (loads are
        // serialized by the load lock, so peeking without popping is
        // safe; the slot leaves the free list only at the commit point).
        let (midx, reused) = {
            let tab = self.core.modules.read().expect("modules lock");
            match tab.free_slots.iter().copied().min() {
                Some(s) => (s, true),
                None => (tab.modules.len(), false),
            }
        };
        let window = MODULE_BASE + midx as u64 * MODULE_STRIDE;
        if reused {
            self.scrub_window(midx, window);
        }
        let mid = match mode {
            IsolationMode::Lxfi => Some(self.rt.register_module(&spec.name)),
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

        // Register function addresses.
        let fn_base = window + MODULE_FN_OFFSET;
        // Apply static-initializer relocations (C ops-table initializers):
        // performed by the trusted loader, so they work for read-only
        // globals like `rds_proto_ops` too.
        for r in &program.fn_relocs {
            let addr = global_addrs[r.global.0 as usize] + r.offset;
            self.mem
                .write_word(addr, fn_base + u64::from(r.func.0) * FN_SPACING)
                .expect("reloc target mapped");
        }
        for (i, _f) in program.funcs.iter().enumerate() {
            let fid = FuncId(i as u32);
            let addr = fn_base + i as u64 * FN_SPACING;
            self.rt.register_function(
                addr,
                FnMeta {
                    name: format!("{}::{}", spec.name, program.funcs[i].name),
                    ahash: decls
                        .get(&fid)
                        .map(|d| d.ahash)
                        .unwrap_or(self.core.empty_ahash),
                    module: mid,
                },
            );
        }

        // Resolve imports.
        let mut import_addrs = Vec::new();
        for imp in &program.imports {
            let addr = match imp.kind {
                ImportKind::Func => self.export_addr(&imp.name).ok_or_else(|| {
                    KernelError::Fail(format!("{}: unresolved import {}", spec.name, imp.name))
                })?,
                ImportKind::Data => {
                    self.core
                        .kdata
                        .read()
                        .expect("kdata lock")
                        .get(&imp.name)
                        .ok_or_else(|| {
                            KernelError::Fail(format!(
                                "{}: unresolved data import {}",
                                spec.name, imp.name
                            ))
                        })?
                        .0
                }
            };
            import_addrs.push(addr);
        }

        // Initial capability grants to the shared principal (§3.2, §4.2).
        if let Some(mid) = mid {
            let shared = self.rt.shared_principal(mid);
            // A module may call (and hand out pointers to) its own
            // functions: "the module should be able to provide only
            // pointers to functions that the module itself can invoke"
            // (§2.2) — so it holds CALL capabilities for them.
            for i in 0..program.funcs.len() {
                self.rt
                    .grant(shared, RawCap::call(fn_base + i as u64 * FN_SPACING));
            }
            // Initial capability (2) of §3.2: WRITE to the kernel stacks,
            // so modules can pass addresses of stack locals to kernel
            // routines that fill them in.
            let stacks: Vec<Word> = self.core.threads.lock().expect("threads lock").clone();
            for base in stacks {
                self.rt.grant(shared, RawCap::write(base, STACK_SIZE));
            }
            for g in &init_grants {
                match g {
                    InitGrant::Call { name } => {
                        let addr = self.export_addr(name).expect("resolved above");
                        self.rt.grant(shared, RawCap::call(addr));
                    }
                    InitGrant::Write { name } => {
                        let (addr, size) = self.core.kdata.read().expect("kdata lock")[name];
                        self.rt.grant(shared, RawCap::write(addr, size));
                    }
                }
            }
            for (gi, g) in program.globals.iter().enumerate() {
                if g.writable {
                    // WRITE to .data/.bss; grant() also marks the
                    // writer-set map for these sections (§5).
                    self.rt
                        .grant(shared, RawCap::write(global_addrs[gi], g.size));
                } else {
                    // Read-only sections stay unwritable — this alone
                    // stops the stock RDS exploit (§8.1).
                    self.rt.mark_written(global_addrs[gi], g.size);
                }
            }
        }

        for (name, f) in spec.iterators {
            self.rt.register_iterator(&name, f);
        }

        // Resolve the module's per-SigId annotation hashes BEFORE the
        // commit: the module becomes dispatchable the moment the write
        // lock below is released, and a concurrent indirect call must
        // find the array populated.
        let sig_ahash = resolve_sig_hashes(
            &self.core.sig_decls.read().expect("sig lock"),
            &program,
            self.core.empty_ahash,
        );
        // Commit point: module vector, name index, and function-address
        // map change together under one write lock, so a concurrent
        // dispatch either sees the whole module or none of it.
        {
            let mut tab = self.core.modules.write().expect("modules lock");
            if reused {
                tab.free_slots.retain(|&s| s != midx);
            } else {
                debug_assert_eq!(tab.modules.len(), midx, "loads are serialized");
            }
            for (i, _f) in program.funcs.iter().enumerate() {
                tab.fn_addrs
                    .insert(fn_base + i as u64 * FN_SPACING, (midx, FuncId(i as u32)));
            }
            let program = Arc::new(program);
            let compiled = (self.core.backend == Backend::Compiled)
                .then(|| Arc::new(CompiledProgram::compile(Arc::clone(&program))));
            let module = Arc::new(LoadedModule {
                name: spec.name.clone(),
                mode,
                slot: midx,
                mid,
                program,
                compiled,
                global_addrs,
                fn_base,
                decls,
                import_addrs,
                sig_ahash: RwLock::new(sig_ahash),
                active: std::sync::atomic::AtomicUsize::new(0),
                unloaded: AtomicBool::new(false),
            });
            if reused {
                tab.modules[midx] = module;
            } else {
                tab.modules.push(module);
            }
            tab.by_name.insert(spec.name.clone(), midx);
        }
        // The merged sig declarations may concern earlier modules' call
        // sites too; refresh every module's per-SigId hash array (before
        // module_init runs and can take indirect calls).
        self.core.refresh_sig_hashes();

        drop(load_guard);
        if let Some(init) = &spec.init_fn {
            let m = self.core.modules.read().expect("modules lock").modules[midx].clone();
            let fid = m
                .program
                .func_by_name(init)
                .ok_or_else(|| KernelError::Fail(format!("no init function {init}")))?;
            let addr = m.fn_base + fid.0 as u64 * FN_SPACING;
            self.enter(|k| k.invoke_module_function(addr, &[], None))?;
        }
        Ok(LoadedModuleId(midx))
    }

    /// Unloads a module: its name is freed, its function addresses stop
    /// resolving, its resources are reclaimed, and its principals retire
    /// — their remaining WRITE coverage moves to the tombstone so slots
    /// the module wrote stay poisoned (the quarantine teardown, minus
    /// the fault record). Executions already in flight on other CPUs
    /// finish on their cloned `Arc` (like a real kernel waiting out an
    /// RCU grace period); the slot is scrubbed and reused by a later
    /// load.
    pub fn unload_module(&mut self, id: LoadedModuleId) -> Result<(), KernelError> {
        let m = self
            .core
            .modules
            .read()
            .expect("modules lock")
            .modules
            .get(id.0)
            .cloned()
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
    /// tombstone's (and anyone's) residual WRITE coverage over the
    /// window is dropped — safe only now, because the new tenant
    /// re-initializes every byte it will expose — the old globals are
    /// zeroed, their writer-map marks cleared, and the old function
    /// registrations removed. This is the deferred half of teardown:
    /// tombstone coverage must poison a dead module's slots exactly
    /// until the memory is legitimately reused.
    fn scrub_window(&mut self, slot: usize, window: Word) {
        let old = Arc::clone(&self.core.modules.read().expect("modules lock").modules[slot]);
        debug_assert!(
            old.unloaded.load(Ordering::Acquire),
            "scrubbing a live slot"
        );
        self.rt
            .revoke_write_overlapping_everywhere(window, MODULE_STRIDE);
        for (gi, g) in old.program.globals.iter().enumerate() {
            let addr = old.global_addrs[gi];
            let _ = self.mem.zero_range(addr, g.size);
            self.rt.note_zeroed(addr, g.size);
        }
        let rtc = self.core.runtime_core();
        for i in 0..old.program.funcs.len() {
            rtc.unregister_function(old.fn_base + i as u64 * FN_SPACING);
        }
    }

    /// Loads the core kernel's KIR dispatch thunks, instrumented by the
    /// kernel rewriter when LXFI is on (§4.1).
    fn load_kernel_thunks(&mut self) {
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
        lxfi_machine::verify_program(&program).expect("kernel thunks verify");
        let _load = self.core.load_lock.lock().expect("load lock");
        let midx = self
            .core
            .modules
            .read()
            .expect("modules lock")
            .modules
            .len();
        let window = MODULE_BASE + midx as u64 * MODULE_STRIDE;
        let fn_base = window + MODULE_FN_OFFSET;
        let mut import_addrs = Vec::new();
        for imp in &program.imports {
            import_addrs.push(self.export_addr(&imp.name).expect("thunk import"));
        }
        // As in load_module_with_mode: publish with the hash array
        // already resolved (sigs declared so far; refresh below and on
        // later define_sig calls keep it current).
        let sig_ahash = resolve_sig_hashes(
            &self.core.sig_decls.read().expect("sig lock"),
            &program,
            self.core.empty_ahash,
        );
        {
            let mut tab = self.core.modules.write().expect("modules lock");
            for (i, _) in program.funcs.iter().enumerate() {
                tab.fn_addrs
                    .insert(fn_base + i as u64 * FN_SPACING, (midx, FuncId(i as u32)));
            }
            let program = Arc::new(program);
            let compiled = (self.core.backend == Backend::Compiled)
                .then(|| Arc::new(CompiledProgram::compile(Arc::clone(&program))));
            tab.modules.push(Arc::new(LoadedModule {
                name: "<kernel-thunks>".into(),
                mode: IsolationMode::Stock, // kernel code is trusted
                slot: midx,
                mid: None,
                program,
                compiled,
                global_addrs: Vec::new(),
                fn_base,
                decls: HashMap::new(),
                import_addrs,
                sig_ahash: RwLock::new(sig_ahash),
                active: std::sync::atomic::AtomicUsize::new(0),
                unloaded: AtomicBool::new(false),
            }));
            tab.by_name.insert("<kernel-thunks>".into(), midx);
            // Pre-resolve the per-packet thunk dispatch path: cache the
            // module handle and its name → id map so run_kernel_thunk
            // never takes the registry lock or scans names again.
            let m = tab.modules[midx].clone();
            let by_name: HashMap<String, FuncId> = m
                .program
                .funcs
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
                .collect();
            let _ = self.core.thunks.set((m, by_name));
        }
        self.core.refresh_sig_hashes();
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

    fn module_arc(&self, id: LoadedModuleId) -> Arc<LoadedModule> {
        Arc::clone(&self.core.modules.read().expect("modules lock").modules[id.0])
    }

    /// The runtime module id (principal namespace) of a loaded module.
    pub fn runtime_module(&self, id: LoadedModuleId) -> Option<lxfi_core::ModuleId> {
        self.module_arc(id).mid
    }

    /// Address of a module function by name.
    pub fn module_fn_addr(&self, id: LoadedModuleId, func: &str) -> Option<Word> {
        let m = self.module_arc(id);
        m.program
            .func_by_name(func)
            .map(|f| m.fn_base + f.0 as u64 * FN_SPACING)
    }

    /// Address of a module global by name.
    pub fn module_global_addr(&self, id: LoadedModuleId, global: &str) -> Option<Word> {
        let m = self.module_arc(id);
        m.program
            .global_by_name(global)
            .map(|g| m.global_addrs[g.0 as usize])
    }

    /// The isolation mode a module was loaded with.
    pub fn module_mode(&self, id: LoadedModuleId) -> IsolationMode {
        self.module_arc(id).mode
    }

    /// The name a module was loaded under.
    pub fn module_name(&self, id: LoadedModuleId) -> String {
        self.module_arc(id).name.clone()
    }

    /// The program a module was loaded with (post-rewrite for LXFI).
    pub fn module_program(&self, id: LoadedModuleId) -> Arc<Program> {
        Arc::clone(&self.module_arc(id).program)
    }

    // ------------------------------------------- kernel→module invocation

    /// Enters a module execution: bumps the module's active-execution
    /// count (the unload grace period waits on it) and pushes it on the
    /// interpreter's execution stack. Always pair with [`Self::exec_exit`].
    fn exec_enter(&mut self, m: Arc<LoadedModule>) {
        m.active.fetch_add(1, Ordering::AcqRel);
        self.exec_stack.push(m);
    }

    /// Leaves the innermost module execution.
    fn exec_exit(&mut self) {
        let m = self.exec_stack.pop().expect("balanced exec stack");
        m.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Runs a module function through whichever backend the module was
    /// loaded for, with the exec-stack/active-count bracket every
    /// dispatch site needs. The compiled form is per-module state set at
    /// load, so a kernel booted with [`Backend::Interp`] pays nothing.
    fn exec_module(
        &mut self,
        m: Arc<LoadedModule>,
        fid: FuncId,
        args: &[Word],
    ) -> Result<Word, Trap> {
        let compiled = m.compiled.clone();
        let prog = Arc::clone(&m.program);
        self.exec_enter(m);
        let r = match &compiled {
            Some(cp) => run_compiled(self, cp, fid, args),
            None => run_function(self, &prog, fid, args),
        };
        if r.is_err() && self.pending_fault.is_none() {
            // Fault attribution: the first frame to observe the trap
            // during unwind is the innermost one — the module that was
            // executing when the trap was raised. `enter` consumes this
            // after the exec stack has fully popped.
            let m = self.exec_stack.last().expect("balanced exec stack");
            self.pending_fault = Some(Arc::clone(m));
        }
        self.exec_exit();
        r
    }

    /// Runs a kernel thunk function (trusted KIR, e.g. the netif dispatch
    /// path) by name.
    pub fn run_kernel_thunk(&mut self, func: &str, args: &[Word]) -> Result<Word, Trap> {
        // Thunk dispatch is per-packet on the netperf path; the cache set
        // at boot replaces a registry read lock plus a linear name scan
        // with one Arc clone and one hash lookup.
        let (m, fid) = {
            let (m, by_name) = self.core.thunks.get().expect("thunks loaded at boot");
            let fid = *by_name
                .get(func)
                .ok_or_else(|| Trap::BadRef(format!("thunk {func}")))?;
            (Arc::clone(m), fid)
        };
        self.exec_module(m, fid, args)
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
        let caller_ctx = caller.unwrap_or(None);
        // `mref` stays alive for the whole invocation, holding the
        // module's active count up (the unload grace period).
        let Some((mref, fid)) = resolved else {
            // Not module code: kernel export or user address.
            if let Some(export) = self.core.export_at(target) {
                let imp = Arc::clone(&export.imp);
                return imp(self, args);
            }
            if is_user_addr(target) {
                return self.run_user_code(target);
            }
            return Err(Trap::BadRef(format!("call target {target:#x}")));
        };
        let m: Arc<LoadedModule> = Arc::clone(&mref);
        match m.mode {
            IsolationMode::Stock => self.exec_module(m, fid, args),
            IsolationMode::Lxfi => {
                let mid = m.mid.expect("isolated module has runtime id");
                // Unannotated module functions (e.g. module_init) run as
                // the shared principal with no capability actions, via
                // the boot-compiled shared empty declaration.
                let decl = m
                    .decls
                    .get(&fid)
                    .cloned()
                    .unwrap_or_else(|| Arc::clone(&self.core.unannotated_decl));
                let callee_p = self.select_principal(mid, &decl, args)?;
                let token = self.rt.wrapper_enter(Some((mid, callee_p)));
                let result = (|| -> Result<Word, Trap> {
                    let site = CallSite {
                        decl: &decl,
                        args,
                        ret: None,
                        caller: caller_ctx,
                        callee: Some((mid, callee_p)),
                    };
                    apply_actions(&mut self.rt, &self.mem, &self.core.layouts, &site, Dir::Pre)?;
                    let ret = self.exec_module(m, fid, args)?;
                    let site = CallSite {
                        decl: &decl,
                        args,
                        ret: Some(ret),
                        caller: caller_ctx,
                        callee: Some((mid, callee_p)),
                    };
                    apply_actions(
                        &mut self.rt,
                        &self.mem,
                        &self.core.layouts,
                        &site,
                        Dir::Post,
                    )?;
                    Ok(ret)
                })();
                // Always rebalance the shadow stack; on the success path
                // this validates the return token (control-flow integrity
                // on returns, §5).
                let exit = self.rt.wrapper_exit(token);
                match result {
                    Ok(v) => {
                        exit?;
                        Ok(v)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    fn select_principal(
        &mut self,
        mid: lxfi_core::ModuleId,
        decl: &FnDecl,
        args: &[Word],
    ) -> Result<PrincipalId, Trap> {
        // Compiled declarations resolved the principal parameter to an
        // argument position at registration; no name comparison per call.
        if let Some(c) = &decl.compiled {
            use lxfi_core::compiled::CPrincipal;
            return Ok(match &c.principal {
                None | Some(CPrincipal::Shared) => self.rt.shared_principal(mid),
                Some(CPrincipal::Global) => self.rt.global_principal(mid),
                Some(CPrincipal::Arg(i)) => {
                    let ptr = args.get(*i as usize).copied().unwrap_or(0);
                    self.rt.principal_for_name(mid, ptr)
                }
                Some(CPrincipal::UnknownArg(name)) => {
                    return Err(Trap::from(Violation::BadExpression {
                        why: format!("principal({name}) is not a parameter of {}", decl.name),
                    }))
                }
            });
        }
        use lxfi_annotations::PrincipalExpr;
        Ok(match &decl.ann.principal {
            None | Some(PrincipalExpr::Shared) => self.rt.shared_principal(mid),
            Some(PrincipalExpr::Global) => self.rt.global_principal(mid),
            Some(PrincipalExpr::Arg(name)) => {
                let idx = decl
                    .params
                    .iter()
                    .position(|p| &p.name == name)
                    .ok_or_else(|| {
                        Trap::from(Violation::BadExpression {
                            why: format!("principal({name}) is not a parameter of {}", decl.name),
                        })
                    })?;
                let ptr = args.get(idx).copied().unwrap_or(0);
                self.rt.principal_for_name(mid, ptr)
            }
        })
    }

    /// A kernel indirect call through a module-reachable function-pointer
    /// slot (native-code equivalent of the rewritten thunks' guards): load
    /// the target, run `lxfi_check_indcall`, dispatch.
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
            let ahash = self
                .core
                .sig_decls
                .read()
                .expect("sig lock")
                .get(sig_name)
                .map(|d| d.ahash)
                .unwrap_or(self.core.empty_ahash);
            self.rt.check_indcall(slot, target, ahash)?;
        }
        self.dispatch_checked_pointer(target, args)
    }

    /// Dispatches a function pointer that already passed (or was exempted
    /// from) the indirect-call check. The slot's annotation needs no
    /// separate enforcement here: for module targets the ahash check
    /// guaranteed the function's own annotation equals the slot's, so the
    /// function's declaration is used. `invoke_module_function`'s own
    /// fallback handles exports and user addresses identically, so this
    /// is one registry lookup, not two.
    fn dispatch_checked_pointer(&mut self, target: Word, args: &[Word]) -> Result<Word, Trap> {
        self.invoke_module_function(target, args, None)
    }

    /// `lxfi_princ_alias` entry point for module code (§3.4): only callable
    /// while a module executes; the current principal must already hold a
    /// REF or WRITE capability naming check responsibility rests with the
    /// preceding `lxfi_check` in module code.
    pub fn princ_alias_current(&mut self, existing: Word, new_name: Word) -> Result<(), Trap> {
        let Some((mid, _p)) = self.rt.current() else {
            if self.executing_stock_module() {
                // Stock builds compile LXFI runtime calls out; treat the
                // call as the no-op it would be.
                return Ok(());
            }
            return Err(Trap::from(Violation::PrincipalDenied {
                why: "lxfi_princ_alias outside module context".into(),
            }));
        };
        self.rt.princ_alias(mid, existing, new_name)?;
        Ok(())
    }

    /// True when the innermost executing program is a stock-mode module.
    pub fn executing_stock_module(&self) -> bool {
        self.exec_stack
            .last()
            .is_some_and(|m| m.mode == IsolationMode::Stock && m.mid.is_none())
    }

    // ----------------------------------------------------- fault injection

    /// Arms deterministic seeded fault injection on **this CPU** (see
    /// [`crate::fault_inject`]): rules fire while the named modules
    /// execute, at the configured sites and rates, from a per-CPU
    /// xorshift stream seeded by `plan.seed` and this CPU's thread id.
    pub fn set_fault_plan(&mut self, plan: Arc<crate::fault_inject::FaultPlan>) {
        self.fault_inject = Some(crate::fault_inject::FaultInjector::new(
            plan,
            self.thread.0 as u64,
        ));
    }

    /// Disarms fault injection on this CPU.
    pub fn clear_fault_plan(&mut self) {
        self.fault_inject = None;
    }

    /// True when an injection rule fires at `site` for the innermost
    /// executing isolated module. Allocation-free, and a single `None`
    /// check when no plan is armed.
    pub(crate) fn fault_fires(&mut self, site: crate::fault_inject::FaultSite) -> bool {
        let Some(inj) = self.fault_inject.as_mut() else {
            return false;
        };
        let Some(m) = self.exec_stack.last() else {
            return false;
        };
        if m.mode != IsolationMode::Lxfi || m.mid.is_none() {
            return false;
        }
        inj.fires(&m.name, site)
    }

    /// RX-path injection for [`crate::fault_inject::FaultSite::PollGuard`]:
    /// a synthetic policy violation against the skb the poll loop is
    /// handing to `netif_rx`. The native runs in kernel wrapper context,
    /// so the culprit is named explicitly: the innermost executing
    /// isolated module's shared principal — which is exactly who a real
    /// guard failure on the poll path would blame.
    pub(crate) fn inject_poll_guard(&mut self, skb: Word) -> Result<(), Trap> {
        if !self.fault_fires(crate::fault_inject::FaultSite::PollGuard) {
            return Ok(());
        }
        let m = self
            .exec_stack
            .last()
            .expect("fault_fires implies executing");
        let mid = m.mid.expect("fault_fires implies isolated");
        let p = self.rt.shared_principal(mid);
        Err(Trap::from(Violation::MissingWrite {
            principal: p,
            addr: skb,
            len: 1,
        }))
    }

    // -------------------------------------------------------------- fuel

    /// Caps interpreted-instruction budget (tests against runaway loops).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Total deterministic cost so far on **this CPU**: interpreted
    /// cycles plus this CPU's guard cycles (the quantity the netperf
    /// cost model consumes).
    pub fn total_cycles(&self) -> u64 {
        self.cycles + self.rt.stats.total_cycles()
    }
}

// ------------------------------------------------------------------ Env

impl Env for KernelCpu {
    fn mem(&self) -> &AddressSpace {
        &self.mem
    }

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
        // Hot path: the sig's annotation hash was resolved at load time
        // (refresh_sig_hashes); one array index under the module's
        // hash-array read lock replaces any name hashing.
        let m = self.exec_stack.last().expect("executing");
        let ahash = m.sig_ahash.read().expect("sig_ahash lock")[sig.0 as usize];
        let target = self.mem.read_word(slot)?;
        self.rt.check_indcall(slot, target, ahash)?;
        Ok(())
    }

    fn call_extern(&mut self, sym: SymbolId, args: &[Word]) -> Result<Word, Trap> {
        let m = Arc::clone(self.exec_stack.last().expect("executing"));
        let import = &m.program.imports[sym.0 as usize];
        if import.kind != ImportKind::Func {
            return Err(Trap::BadRef(format!("calling data import {}", import.name)));
        }
        let target = m.import_addrs[sym.0 as usize];
        let export = self
            .core
            .export_at(target)
            .ok_or_else(|| Trap::BadRef(format!("extern {}", import.name)))?;

        match m.mode {
            IsolationMode::Stock => {
                let imp = Arc::clone(&export.imp);
                imp(self, args)
            }
            IsolationMode::Lxfi => {
                // CALL capability for the export's wrapper (granted at
                // module init from the symbol table, §4.2).
                self.rt.check_call(target)?;
                // Success path is allocation-free: the declaration is an
                // Arc clone; the export name is only cloned on error.
                let decl = export.decl.clone().ok_or_else(|| {
                    Trap::from(Violation::UnannotatedFunction {
                        name: export.name.clone(),
                    })
                })?;
                let caller = self.rt.current();
                let imp = Arc::clone(&export.imp);
                if export.runtime_call {
                    // Runtime entry point: stays in the caller's principal
                    // context; still enforces the pre/post actions.
                    let site = CallSite {
                        decl: &decl,
                        args,
                        ret: None,
                        caller,
                        callee: None,
                    };
                    apply_actions(&mut self.rt, &self.mem, &self.core.layouts, &site, Dir::Pre)?;
                    let ret = imp(self, args)?;
                    let site = CallSite {
                        decl: &decl,
                        args,
                        ret: Some(ret),
                        caller,
                        callee: None,
                    };
                    apply_actions(
                        &mut self.rt,
                        &self.mem,
                        &self.core.layouts,
                        &site,
                        Dir::Post,
                    )?;
                    return Ok(ret);
                }
                let token = self.rt.wrapper_enter(None); // kernel context
                let result = (|| -> Result<Word, Trap> {
                    let site = CallSite {
                        decl: &decl,
                        args,
                        ret: None,
                        caller,
                        callee: None,
                    };
                    apply_actions(&mut self.rt, &self.mem, &self.core.layouts, &site, Dir::Pre)?;
                    let ret = imp(self, args)?;
                    let site = CallSite {
                        decl: &decl,
                        args,
                        ret: Some(ret),
                        caller,
                        callee: None,
                    };
                    apply_actions(
                        &mut self.rt,
                        &self.mem,
                        &self.core.layouts,
                        &site,
                        Dir::Post,
                    )?;
                    Ok(ret)
                })();
                let exit = self.rt.wrapper_exit(token);
                match result {
                    Ok(v) => {
                        exit?;
                        Ok(v)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    fn call_ptr(&mut self, target: Word, sig: SigId, args: &[Word]) -> Result<Word, Trap> {
        let m = Arc::clone(self.exec_stack.last().expect("executing"));
        // Load-time-resolved hash; the sig *name* plays no role at call
        // time (dispatch ignores it — the ahash check already pinned the
        // callee's annotations to the slot's).
        let site_hash = m.sig_ahash.read().expect("sig_ahash lock")[sig.0 as usize];
        match m.mode {
            IsolationMode::Stock => self.dispatch_checked_pointer(target, args),
            IsolationMode::Lxfi => {
                // The module may only call targets it holds CALL for.
                self.rt.check_call(target)?;
                // Annotation match between the call site's pointer type
                // and the invoked function (§4.1, module side). Hash-only
                // lookup: no FnMeta clone on the call hot path.
                let fn_hash = self
                    .rt
                    .function_ahash(target)
                    .ok_or(Violation::NotAFunction { target })
                    .map_err(Trap::from)?;
                if fn_hash != site_hash {
                    return Err(Trap::from(Violation::AnnotationMismatch {
                        sig_hash: site_hash,
                        fn_hash,
                    }));
                }
                let caller = self.rt.current();
                let resolved = self.core.module_of_fn(target);
                if resolved.is_some() {
                    self.invoke_resolved(resolved, target, args, Some(caller))
                } else if let Some(export) = self.core.export_at(target) {
                    // Same wrapper path as a direct extern call.
                    let decl = export.decl.clone().ok_or_else(|| {
                        Trap::from(Violation::UnannotatedFunction {
                            name: export.name.clone(),
                        })
                    })?;
                    let imp = Arc::clone(&export.imp);
                    let token = self.rt.wrapper_enter(None);
                    let result = (|| -> Result<Word, Trap> {
                        let site = CallSite {
                            decl: &decl,
                            args,
                            ret: None,
                            caller,
                            callee: None,
                        };
                        apply_actions(
                            &mut self.rt,
                            &self.mem,
                            &self.core.layouts,
                            &site,
                            Dir::Pre,
                        )?;
                        let ret = imp(self, args)?;
                        let site = CallSite {
                            decl: &decl,
                            args,
                            ret: Some(ret),
                            caller,
                            callee: None,
                        };
                        apply_actions(
                            &mut self.rt,
                            &self.mem,
                            &self.core.layouts,
                            &site,
                            Dir::Post,
                        )?;
                        Ok(ret)
                    })();
                    let exit = self.rt.wrapper_exit(token);
                    match result {
                        Ok(v) => {
                            exit?;
                            Ok(v)
                        }
                        Err(e) => Err(e),
                    }
                } else {
                    Err(Trap::from(Violation::NotAFunction { target }))
                }
            }
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
        Ok(self.exec_stack.last().expect("executing").fn_base + u64::from(func.0) * FN_SPACING)
    }
}
