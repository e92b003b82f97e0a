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
//!   implements [`Env`](lxfi_machine::Env), so real rewritten module
//!   code interprets concurrently on N OS threads, one `KernelCpu` each
//!   (see `Kernel::new_cpu`).
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
//! **One record per fact on the call path.** A module function address
//! resolves to its module by layout arithmetic over the module vector
//! (`layout::module_fn_slot`), live only while the entry is not marked
//! unloaded. A function-pointer type's declaration lives in one
//! write-once sig entry that the registry and every module naming the
//! type share, so a declaration made after a module loaded governs its
//! call sites at once. The runtime's function registry holds each
//! function's annotation hash and nothing else.
//!
//! **Where each concern lives.** This file holds the types, the shared
//! core, boot, export and user-space registration, and fault-injection
//! hooks; `KernelCpu`'s methods are split by concern into child modules:
//!
//! - `kernel/wrappers.rs` — the wrappers at every kernel/module crossing
//!   and the [`Env`](lxfi_machine::Env) impl the guards run in: the
//!   trusted code `table_components` counts;
//! - `kernel/contain.rs` — trap classification, quarantine, teardown and
//!   the module-execution bracket;
//! - `kernel/load.rs` — module load (one commit point), unload, window
//!   scrubbing and the module-image table;
//! - `kernel/dispatch.rs` — deferred dispatch of bottom halves.

mod contain;
mod dispatch;
mod load;
mod wrappers;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

use lxfi_annotations::parse_fn_annotations;
use lxfi_core::chunked::ChunkedTable;
use lxfi_core::iface::{FnDecl, Param, TypeLayouts};
use lxfi_core::inthash::IntMap;
use lxfi_core::{GuardHandle, PrincipalId, RawCap, RuntimeCore, Violation};
use lxfi_machine::{
    AddressSpace, Backend, CompileStats, CompiledProgram, FuncId, Program, Trap, Word,
};
use lxfi_rewriter::{InterfaceSpec, RewriteOptions};

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

/// The sig registry's record of one function-pointer type: empty until
/// the type is declared, then set once (under the load lock) by the
/// first declaration, from a module load or [`KernelCpu::define_sig`].
/// Shared by the registry and every module whose program names the
/// type, so a late declaration reaches their call sites at once.
type SigEntry = Arc<OnceLock<Arc<FnDecl>>>;

/// One loaded module: immutable after load except the unload flag and
/// the active count (its sig entries are shared with the registry).
/// Shared as an `Arc` so executing CPUs never hold a registry lock while
/// interpreting.
pub(crate) struct LoadedModule {
    name: String,
    /// Index of this module in the registry vector (its window slot).
    /// Quarantine needs it to unpublish without a reverse scan, and
    /// teardown pushes it onto the free-slot list for window reuse.
    slot: usize,
    /// The runtime principal namespace of an isolated module. `None` for
    /// a stock module and for the core-kernel thunk pseudo-module: no
    /// principals, no wrappers, no guards.
    mid: Option<lxfi_core::ModuleId>,
    program: Arc<Program>,
    /// The program lowered for the compiled backend — populated once at
    /// load when the kernel booted with [`Backend::Compiled`], `None`
    /// under the interpreter. Dispatch picks the backend per call from
    /// this field, so a kernel never pays compilation it won't use.
    compiled: Option<Arc<CompiledProgram>>,
    global_addrs: Vec<Word>,
    decls: IntMap<FuncId, Arc<FnDecl>>,
    import_addrs: Vec<Word>,
    /// The sig registry entry of each program `SigId`, so an
    /// indirect-call check indexes by `SigId` instead of hashing a sig
    /// name per call.
    sigs: Box<[SigEntry]>,
    /// CPUs currently executing this module (exec-stack occurrences).
    /// `unload_module` waits for this to drain after setting `unloaded`
    /// — the RCU-style grace period that keeps a racing unload from
    /// revoking a running execution's capabilities out from under it.
    active: std::sync::atomic::AtomicUsize,
    /// Set by `unload_module`; in-flight executions finish on their
    /// cloned `Arc`, new dispatches no longer resolve the module.
    unloaded: AtomicBool,
}

impl LoadedModule {
    /// The module's function ids, in program order.
    fn funcs(&self) -> impl Iterator<Item = FuncId> {
        (0..self.program.funcs.len() as u32).map(FuncId)
    }

    /// The address of one of the module's functions.
    fn fn_addr(&self, f: FuncId) -> Word {
        module_fn_addr(self.slot, f.0)
    }
}

/// The address of the export registered at index `idx`.
fn export_fn_addr(idx: usize) -> Word {
    EXPORT_BASE + idx as u64 * FN_SPACING
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
    /// quarantined — or, when the module was already dead (`id: None`),
    /// only recorded; the kernel keeps running. (Boxed: the fault record
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
                let outcome = match m.id {
                    Some(_) => "quarantined",
                    None => "already dead, fault only recorded",
                };
                write!(f, "module fault: {} {outcome}: {}", m.module, m.reason)
            }
            KernelError::Fail(s) => write!(f, "error: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The kernel-thunk pseudo-module, resolved once at boot so thunk
/// dispatch takes no registry lock and scans no names: the module
/// handle, its name → function-id map, and the function ids of the
/// thunks every packet runs, which need no name lookup at all.
struct Thunks {
    module: Arc<LoadedModule>,
    by_name: HashMap<String, FuncId>,
    /// `dev_queue_xmit`, the TX entry of every sent packet.
    dev_queue_xmit: FuncId,
}

/// Export slots per table chunk, and the cap on exports.
const EXPORT_CHUNK: usize = 64;
const MAX_EXPORTS: usize = 1 << 12;

/// The exported-symbol registry. Exports are never removed, so each
/// one's slot is written once at registration and read without a lock
/// from then on: a [`ChunkedTable`] in registration order, which an
/// export's address names by arithmetic. Registration and name lookups
/// take the `by_name` lock.
struct ExportTable {
    slots: ChunkedTable<OnceLock<Arc<Export>>, EXPORT_CHUNK>,
    by_name: Mutex<HashMap<String, usize>>,
}

impl ExportTable {
    fn new() -> Self {
        ExportTable {
            slots: ChunkedTable::new(MAX_EXPORTS),
            by_name: Mutex::default(),
        }
    }

    /// The export registered at index `idx` (lock-free).
    fn get(&self, idx: usize) -> Option<&Arc<Export>> {
        self.slots.get(idx)?.get()
    }

    /// Registers `export`; returns its index.
    fn push(&self, export: Export) -> usize {
        let mut names = self.by_name.lock().expect("export names lock");
        let idx = names.len();
        assert!(
            names.insert(export.name.clone(), idx).is_none(),
            "duplicate export {}",
            export.name
        );
        assert!(self.slots.slot(idx).set(Arc::new(export)).is_ok());
        idx
    }

    /// The index of the export registered under `name`.
    fn index_of(&self, name: &str) -> Option<usize> {
        let names = self.by_name.lock().expect("export names lock");
        names.get(name).copied()
    }
}

/// The loaded-module registry: the module vector (indexed by window
/// slot, so a function address names its entry by arithmetic) and the
/// name index, mutated together under one write lock.
#[derive(Default)]
struct ModuleTable {
    modules: Vec<Arc<LoadedModule>>,
    by_name: HashMap<String, usize>,
    /// Slots of torn-down modules, reusable by the next load (lowest
    /// first). The dead `Arc` stays in `modules` until then so indices
    /// remain stable; the window is scrubbed at reuse, not teardown —
    /// the retired principals' WRITE records must poison dead slots
    /// *until* the memory is re-initialized by a new tenant.
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
    /// Shared declaration for unannotated module functions invoked
    /// directly by the kernel (e.g. `module_init`): empty annotations,
    /// compiled once at boot so the per-call fallback is an Arc clone.
    /// Its `ahash` is the empty set's (see [`Self::ahash`]).
    unannotated_decl: Arc<FnDecl>,

    exports: ExportTable,
    kdata: RwLock<HashMap<String, (Word, u64)>>,
    /// The sig registry: one entry per type name a declaration or a
    /// loaded program named.
    sig_decls: RwLock<HashMap<String, SigEntry>>,
    modules: RwLock<ModuleTable>,
    /// Set once by `load_kernel_thunks` (see [`Thunks`]).
    thunks: OnceLock<Thunks>,
    /// Serializes whole module load/unload transactions (loads are rare;
    /// dispatch only takes the registries' read locks), and guards the
    /// module-image table the loads share.
    load_lock: Mutex<load::ModuleImages>,

    slab: ShardedSlab,
    procs: Mutex<ProcessTable>,
    panic: Mutex<Option<(String, Option<Violation>)>>,
    /// Whether `panic` holds a reason: the lock-free probe every `enter`
    /// takes before it would lock `panic`.
    panicked: AtomicBool,
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
    /// module (including the kernel-thunk pseudo-module): functions and
    /// blocks compiled and fused guard sites. `fallback_funcs` is always
    /// 0, since a load whose program fails the structural check is
    /// refused. All-zero under [`Backend::Interp`].
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

    /// The export registered at `addr`, if any (lock-free; the `Arc`
    /// lets the caller hold it across a `&mut` call).
    fn export_at(&self, addr: Word) -> Option<Arc<Export>> {
        if addr < EXPORT_BASE {
            return None;
        }
        let idx = ((addr - EXPORT_BASE) / FN_SPACING) as usize;
        if addr != export_fn_addr(idx) {
            return None;
        }
        self.exports.get(idx).cloned()
    }

    /// Resolves a function address to its live module by inverting
    /// `LoadedModule::fn_addr`, taking an execution reference (module
    /// "get") **under the registry read lock** — so teardown's unpublish
    /// (setting `unloaded` under the write lock) strictly orders with
    /// every resolution: after unpublish, every live dispatcher is
    /// already counted in `active` and the grace period waits it out.
    fn module_of_fn(&self, addr: Word) -> Option<(ModuleRef, FuncId)> {
        let (slot, f) = module_fn_slot(addr)?;
        let tab = self.modules.read().expect("modules lock");
        let m = tab.modules.get(slot)?;
        if m.unloaded.load(Ordering::Acquire) || f as usize >= m.program.funcs.len() {
            return None;
        }
        Some((ModuleRef::acquire(m), FuncId(f)))
    }

    /// The kernel thunk every transmitted packet runs (`dev_queue_xmit`).
    pub(crate) fn xmit_thunk(&self) -> FuncId {
        self.thunks
            .get()
            .expect("thunks loaded at boot")
            .dev_queue_xmit
    }

    /// The annotation hash of an optional declaration: an export's, a
    /// module function's, or a sig entry's (what an indirect call
    /// through the type must match). Without one it is the empty set's.
    fn ahash(&self, decl: Option<&Arc<FnDecl>>) -> u64 {
        decl.map_or(self.unannotated_decl.ahash, |d| d.ahash)
    }
}

/// One simulated CPU: an [`Env`](lxfi_machine::Env) implementation
/// over the shared [`KernelCore`]. Owns the per-CPU state (its
/// [`GuardHandle`], stack pointer, module execution stack, fuel and
/// cycle accounting); `Deref`s to the core for everything shared
/// (`k.net()`, `k.slab()`, `k.runtime_core()`, ...).
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

impl std::ops::Deref for KernelCpu {
    type Target = KernelCore;
    fn deref(&self) -> &KernelCore {
        &self.core
    }
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
        // traffic, so grant/revoke index updates stay bounded by the region
        // they touch — and so are the per-shard locks.
        let rtc = Arc::new(RuntimeCore::with_shard_boundaries(shard_boundaries()));
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
            unannotated_decl,
            exports: ExportTable::new(),
            kdata: RwLock::new(HashMap::new()),
            sig_decls: RwLock::new(HashMap::new()),
            rewrite_opts,
            modules: RwLock::new(ModuleTable::default()),
            thunks: OnceLock::new(),
            load_lock: Mutex::new(Default::default()),
            slab: ShardedSlab::new(),
            procs: Mutex::new(procs),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
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

    // ----------------------------------------------- shared-state access

    /// Per-packet `kmalloc`: serves from this CPU's magazine, refilling
    /// from the CPU's preferred heap shard on a miss. Falls back to the
    /// same `None` contract as the direct allocator for bad sizes.
    pub fn kmalloc_cpu(&mut self, size: u64) -> Option<Word> {
        self.mags.kmalloc(&self.core.slab, &self.mem, size)
    }

    /// Per-packet `kfree` epilogue: accepts a slot whose `free_prologue`
    /// already ran, caching it in this CPU's magazine instead of
    /// returning it to the shard free list.
    pub fn kfree_cpu(&mut self, addr: Word, class: u64) {
        self.mags.release(&self.core.slab, addr, class);
    }

    /// The two-phase free prologue every free runs: claims the slot
    /// (`begin_free`), strips WRITE coverage of it from every principal
    /// (no capability may outlive the allocation, §3.3) — which also
    /// returns the slot to the indirect-call fast path — and zeroes it.
    /// Returns the size class, or `None` if `addr` is not a live
    /// allocation. The
    /// slot stays unallocatable until the caller releases it, so a
    /// concurrent `kmalloc` on another CPU cannot be granted the
    /// recycled address and then have its fresh grant swept away.
    pub(crate) fn free_prologue(&mut self, addr: Word) -> Result<Option<u64>, Trap> {
        let Some((_size, class)) = self.slab().begin_free(addr) else {
            return Ok(None);
        };
        self.rt.revoke_write_overlapping_everywhere(addr, class);
        self.mem.zero_range(addr, class)?;
        Ok(Some(class))
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
        let ahash = self.core.ahash(decl.as_ref());
        let addr = export_fn_addr(self.core.exports.push(Export {
            name: name.to_string(),
            decl,
            imp,
            runtime_call,
        }));
        self.rt.register_function(addr, ahash);
    }

    /// The annotated declaration of a function-pointer type.
    pub fn sig_decl(&self, name: &str) -> Option<Arc<FnDecl>> {
        let sigs = self.core.sig_decls.read().expect("sig lock");
        sigs.get(name)?.get().cloned()
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
        self.core.exports.index_of(name).map(export_fn_addr)
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

    // ---------------------------------------------- runtime entry points

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
        self.exec_stack.last().is_some_and(|m| m.mid.is_none())
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
        match self.exec_stack.last() {
            Some(m) if m.mid.is_some() => inj.fires(&m.name, site),
            _ => false,
        }
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

    // ------------------------------------------------------------ cycles

    /// Total deterministic cost so far on **this CPU**: interpreted
    /// cycles plus this CPU's guard cycles (the quantity the netperf
    /// cost model consumes).
    pub fn total_cycles(&self) -> u64 {
        self.cycles + self.rt.stats.total_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_fault_display_says_whether_the_module_was_quarantined() {
        let fault = |id| {
            KernelError::ModuleFault(Box::new(ModuleFault {
                id,
                module: "econet".into(),
                mid: None,
                principal: None,
                violation: None,
                reason: "bad call".into(),
                oopsed: false,
            }))
        };
        assert_eq!(
            fault(Some(LoadedModuleId(3))).to_string(),
            "module fault: econet quarantined: bad call"
        );
        assert_eq!(
            fault(None).to_string(),
            "module fault: econet already dead, fault only recorded: bad call"
        );
    }

    /// Annotation identity on every kernel export and boot-time sig
    /// declaration: the cached hash is FNV-1a over the canonical print,
    /// and the print parses back to the same annotation set.
    #[test]
    fn kernel_declarations_hash_their_canonical_print() {
        use lxfi_annotations::annotation_hash;
        use lxfi_annotations::hash::fnv1a;
        let k = Kernel::boot(IsolationMode::Lxfi);
        let sigs = k.core.sig_decls.read().expect("sig lock");
        let decls: Vec<Arc<FnDecl>> = (0..MAX_EXPORTS)
            .map_while(|i| k.core.exports.get(i))
            .filter_map(|e| e.decl.clone())
            .chain(sigs.values().filter_map(|e| e.get().cloned()))
            .collect();
        assert!(decls.len() >= 40, "{} declarations", decls.len());
        for d in decls {
            let text = d.ann.canonical();
            assert_eq!(d.ahash, annotation_hash(&d.ann), "{}", d.name);
            assert_eq!(d.ahash, fnv1a(text.as_bytes()), "{}", d.name);
            let reparsed = parse_fn_annotations(&text).expect("canonical print parses");
            assert_eq!(reparsed, d.ann, "{}", d.name);
            assert_eq!(reparsed.canonical(), text, "{}", d.name);
        }
    }

    #[test]
    fn module_decl_equal_to_its_sig_decl_shares_the_compiled_ir() {
        let mut k = Kernel::boot_with_backend(IsolationMode::Lxfi, Backend::Compiled);
        let ann = || parse_fn_annotations("pre(check(write, p, 8))").unwrap();
        let mut pb = lxfi_machine::ProgramBuilder::new("m");
        let sig = pb.sig("cb_t", 1);
        let same = pb.define("same", 1, 0, |f| f.ret_void());
        let other = pb.define("other", 1, 0, |f| f.ret_void());
        pb.assign_sig(same, sig);
        pb.assign_sig(other, sig);
        let mut iface = InterfaceSpec::new();
        iface.declare_sig(FnDecl::new("cb_t", vec![Param::scalar("p")], ann()));
        // Same annotations, other parameters: compiled on its own.
        iface.declare_fn(FnDecl::new(
            "other",
            vec![Param::ptr("p", "sk_buff")],
            ann(),
        ));
        let spec = ModuleSpec {
            name: "m".into(),
            program: pb.finish(),
            iface,
            iterators: Vec::new(),
            init_fn: None,
        };
        let id = k.load_module(spec).expect("loads");
        let m = k.module_at(id).expect("loaded");
        let registered = k.sig_decl("cb_t").expect("registered");
        let ir = |f: FuncId| m.decls[&f].compiled.clone().expect("compiled at load");
        let reg_ir = registered
            .compiled
            .clone()
            .expect("compiled at registration");
        assert!(Arc::ptr_eq(&ir(same), &reg_ir));
        assert!(!Arc::ptr_eq(&ir(other), &reg_ir));
        assert_eq!(m.decls[&other].params, vec![Param::ptr("p", "sk_buff")]);
    }

    #[test]
    #[should_panic(expected = "conflicting sig declaration for cb_t")]
    fn define_sig_refuses_a_decl_equal_only_in_canonical_form() {
        let mut k = Kernel::boot(IsolationMode::Lxfi);
        let text = "post(if (return != 0) copy(write, p, 8))";
        // A module registers `cb_t` first, with `return` as a name: the
        // same print as `text`, a different AST.
        let mut ann = parse_fn_annotations(text).unwrap();
        let lxfi_annotations::Action::If(lxfi_annotations::Expr::Bin(_, lhs, _), _) =
            &mut ann.post[0]
        else {
            unreachable!("an `if` on a comparison")
        };
        **lhs = lxfi_annotations::Expr::Ident("return".into());
        let mut pb = lxfi_machine::ProgramBuilder::new("m");
        let sig = pb.sig("cb_t", 1);
        let f = pb.define("f", 1, 0, |f| f.ret_void());
        pb.assign_sig(f, sig);
        let mut iface = InterfaceSpec::new();
        iface.declare_sig(FnDecl::new("cb_t", vec![Param::scalar("p")], ann));
        k.load_module(ModuleSpec {
            name: "m".into(),
            program: pb.finish(),
            iface,
            iterators: Vec::new(),
            init_fn: None,
        })
        .expect("loads");
        k.define_sig("cb_t", vec![Param::scalar("p")], text);
    }
}
