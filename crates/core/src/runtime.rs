//! The LXFI runtime (§5): principals, capability operations,
//! control-transfer interposition, writer-set-accelerated indirect-call
//! checks, and guard accounting.
//!
//! # Concurrency architecture
//!
//! The runtime is split in two:
//!
//! - [`RuntimeCore`] is the **shared world**: principal/module metadata
//!   behind an `RwLock`, per-principal capability tables each behind
//!   their own mutex (lock-free to *index* via a chunked slot table),
//!   per-principal write epochs as atomics, the reverse writer index as
//!   an array of per-shard locks keyed by the address-region shard
//!   boundaries, the writer-set bitmap behind an `RwLock`, and the
//!   interned-ID tables (REF types, iterators, constants, the function
//!   registry) behind an `RwLock`. Everything takes `&self`; the type is
//!   `Send + Sync` and meant to live in an `Arc`.
//! - [`crate::GuardHandle`] is the **per-thread view**, and the only one:
//!   each simulated kernel CPU and each benchmark worker owns one. It
//!   holds its own shadow stack, kernel-stack window, epoch-validated
//!   write-guard cache, and `GuardStats`, so concurrent guarded stores
//!   from different threads hit their private caches without any shared
//!   write. It `Deref`s to the core, so shared operations need no
//!   forwarding; only grant/revoke traffic takes locks (the affected
//!   principal's table mutex plus the affected shards).
//!
//! # Locking and soundness discipline
//!
//! Lock order (outer → inner): `meta` → per-principal `caps` mutex →
//! `sharding` (read) → per-shard mutex → interner mutex. The interner is
//! a strict leaf: shard splices are phase-split (see
//! [`crate::writer_index`]), taking the interner only for the
//! id/refcount phase while the memmove runs under the shard lock alone,
//! and nothing acquires a shard while holding the interner. The
//! writer-set bitmap is **striped** by address region
//! ([`crate::writer_set::StripedWriterMap`]): each stripe has its own
//! lock plus a lock-free marked-granule counter, so `maybe_written` /
//! `note_zeroed` on a provably-clean stripe touch no lock, and dirty
//! probes lock only their stripe. A stripe lock nests *inside*
//! `sharding` (an immediate `note_zeroed` holds the sharding read lock
//! while clearing; a grant's `mark` takes the stripe lock alone and
//! releases it before touching the index) — never the other way around.
//! No path takes two `caps` mutexes at once; fallback probes (instance →
//! shared, global → union) lock one table at a time.
//!
//! The write-guard soundness invariant under races — *after a revoke
//! returns, no stale cached grant can authorize a write* — follows from
//! three ordering rules, each enforced here:
//!
//! 1. a revoke removes coverage from the capability table **before**
//!    bumping the affected epochs (so a guard that re-probes can never
//!    re-cache the dying interval under the new epoch);
//! 2. a guard reads the principal's epoch **before** probing the tables
//!    and stamps the cache with that pre-probe value (so the stamp is
//!    never newer than a revocation that raced the probe);
//! 3. epoch bumps traverse the §3.1 hierarchy under the `meta` read
//!    lock, and principal creation takes the `meta` write lock (so an
//!    instance born before a shared-revoke's bump sweep is always
//!    included in it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use lxfi_machine::{AddressSpace, Word};

use crate::caps::{CapSet, CapType, RawCap, RefTypeId, WriteTable};
use crate::principal::{ModuleId, ModuleInfo, PrincipalId, PrincipalKind};
use crate::shadow::PrincipalCtx;
use crate::stats::GuardStats;
use crate::writer_index::{
    for_each_segment, normalize_boundaries, shard_hi, shard_lo, IndexShard, SetInterner,
};
use crate::writer_set::{StripedWriterMap, ZeroNoteToken};
use crate::Violation;

/// Identifies a registered capability iterator. Interned at registration
/// so the enforcement path never hashes iterator names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IteratorId(pub u32);

/// Identifies a named kernel constant usable in annotation expressions.
/// Interned when an annotation referencing the name is compiled or when
/// the constant is defined, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstId(pub u32);

/// A capability emitted by a programmer-supplied capability iterator
/// (§3.3). REF types are pre-interned via [`RuntimeCore::ref_type`], so
/// emitting capabilities involves no string work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmittedCap {
    /// WRITE over a range.
    Write {
        /// Range start.
        addr: Word,
        /// Range length.
        size: u64,
    },
    /// CALL of a target.
    Call {
        /// Call target.
        target: Word,
    },
    /// REF of an interned type.
    Ref {
        /// Interned type.
        rtype: RefTypeId,
        /// Referred value.
        value: Word,
    },
}

impl From<EmittedCap> for RawCap {
    fn from(e: EmittedCap) -> Self {
        match e {
            EmittedCap::Write { addr, size } => RawCap::write(addr, size),
            EmittedCap::Call { target } => RawCap::call(target),
            EmittedCap::Ref { rtype, value } => RawCap::reference(rtype, value),
        }
    }
}

/// A capability iterator: walks a data structure in simulated memory and
/// emits the capabilities it contains (e.g. `skb_caps` emits the sk_buff
/// header and its payload buffer).
pub type IteratorFn =
    Box<dyn Fn(&AddressSpace, Word, &mut Vec<EmittedCap>) -> Result<(), String> + Send + Sync>;

/// Metadata for a registered function address.
#[derive(Debug, Clone)]
pub struct FnMeta {
    /// Symbol name.
    pub name: String,
    /// Annotation hash (`ahash`).
    pub ahash: u64,
    /// Owning module (`None` = core kernel).
    pub module: Option<ModuleId>,
}

/// Immutable per-principal metadata (the mutable parts — capability
/// table and epoch — live in the principal's [`PrincipalSlot`]).
#[derive(Debug, Clone, Copy)]
struct PrincipalMeta {
    module: ModuleId,
    kind: PrincipalKind,
    /// Retired principals (their module was quarantined or unloaded)
    /// hold no capabilities, are skipped by global revocation walks, and
    /// are never current again. Ids are stable — slots are not reused —
    /// so a retired id in an old writer set stays meaningful.
    retired: bool,
}

/// Registry state behind the `meta` lock: who the principals and
/// modules are, and the pointer-name maps.
#[derive(Debug, Default)]
struct Meta {
    principals: Vec<PrincipalMeta>,
    modules: Vec<ModuleInfo>,
    /// The quarantine tombstone (see [`RuntimeCore::ensure_tombstone`]),
    /// created lazily so runtimes that never retire anything keep their
    /// principal numbering.
    tombstone: Option<PrincipalId>,
}

/// Interned-name tables behind the `names` lock.
#[derive(Default)]
struct Names {
    ref_types: Vec<String>,
    ref_type_ids: HashMap<String, RefTypeId>,
    iterators: Vec<Option<Arc<IteratorFn>>>,
    iterator_ids: HashMap<String, IteratorId>,
    iterator_names: Vec<String>,
    const_values: Vec<Option<i64>>,
    const_ids: HashMap<String, ConstId>,
    const_names: Vec<String>,
}

/// One principal's mutable state: the write epoch (atomic, read
/// lock-free by every guard) and the capability tables (mutex, taken by
/// grant/revoke and by guard cache misses).
#[derive(Debug)]
struct PrincipalSlot {
    epoch: AtomicU64,
    caps: Mutex<CapSet>,
}

impl Default for PrincipalSlot {
    fn default() -> Self {
        PrincipalSlot {
            epoch: AtomicU64::new(0),
            caps: Mutex::new(CapSet::new()),
        }
    }
}

/// Principals per slot chunk.
const SLOT_CHUNK: usize = 64;
/// Hard cap on principals (chunks are preallocated `OnceLock`s so slot
/// lookup never takes a lock).
const MAX_PRINCIPALS: usize = 1 << 16;

/// A chunked, append-only principal-slot table: indexing is two atomic
/// loads (`OnceLock::get`), so the guard hot path reaches a principal's
/// epoch without any lock while registration (under the `meta` write
/// lock) initializes chunks on demand.
struct SlotTable {
    chunks: Box<[OnceLock<Box<[PrincipalSlot; SLOT_CHUNK]>>]>,
}

impl SlotTable {
    fn new() -> Self {
        SlotTable {
            chunks: (0..MAX_PRINCIPALS / SLOT_CHUNK)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Makes sure the chunk holding principal `i` exists.
    fn ensure(&self, i: usize) {
        assert!(i < MAX_PRINCIPALS, "principal limit ({MAX_PRINCIPALS})");
        self.chunks[i / SLOT_CHUNK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| PrincipalSlot::default())));
    }

    /// The slot of a registered principal (lock-free).
    fn get(&self, i: usize) -> &PrincipalSlot {
        &self.chunks[i / SLOT_CHUNK]
            .get()
            .expect("principal registered")[i % SLOT_CHUNK]
    }
}

/// The sharded reverse writer index: split points plus one
/// independently locked [`IndexShard`] per region, over one shared
/// (mutexed) set interner. Grant/revoke splices and indirect-call
/// lookups lock only the shards their address range touches, one at a
/// time. Splices are **phase-split**: the interner mutex is taken only
/// for the id/refcount phase of each splice, then released before the
/// interval memmove runs under the shard lock alone — so mutations in
/// different shards overlap except for their brief interner sections,
/// and the lock order is strictly shard → interner (the interner is a
/// leaf). Atomicity per shard comes from the shard lock, which the
/// caller holds across a whole remove-and-reinstate
/// ([`Sharding::replace`]) or holder substitution
/// ([`Sharding::substitute`]); the interner-free queries (`overlaps`,
/// the presence hint) only contend on the shards they touch, and the
/// guard-store hot path touches none of this.
struct Sharding {
    boundaries: Vec<Word>,
    shards: Vec<Mutex<IndexShard>>,
    interner: Mutex<SetInterner>,
    /// Allocation count carried from retired predecessors so the
    /// `sets_ever` gauge stays monotonic across rebuilds.
    ever_carried: u64,
}

impl Sharding {
    fn new(boundaries: Vec<Word>, ever_carried: u64) -> Self {
        let boundaries = normalize_boundaries(boundaries);
        let shards = (0..=boundaries.len())
            .map(|_| Mutex::new(IndexShard::new()))
            .collect();
        Sharding {
            boundaries,
            shards,
            interner: Mutex::new(SetInterner::new()),
            ever_carried,
        }
    }

    /// Runs `f` on every shard segment of `[addr, addr+size)` (clamped),
    /// locking one shard at a time. The clipping walk itself is shared
    /// with the single-threaded index ([`for_each_segment`]).
    fn for_segments(&self, addr: Word, size: u64, mut f: impl FnMut(&mut IndexShard, Word, Word)) {
        for_each_segment(&self.boundaries, addr, size, |s, lo, hi| {
            f(&mut self.shards[s].lock().expect("shard lock"), lo, hi)
        });
    }

    fn add(&self, p: PrincipalId, addr: Word, size: u64) {
        self.for_segments(addr, size, |sh, lo, hi| {
            sh.add_split(&self.interner, p, lo, hi)
        });
    }

    /// Replaces `p`'s index coverage over `[addr, addr+size)` with the
    /// coverage `p`'s post-revocation WRITE table `survivors` still has
    /// there. Each shard's remove-and-restore runs under a **single**
    /// hold of that shard's lock, so a concurrent indirect-call lookup
    /// can never observe the transient no-coverage state between the
    /// removal and the reinstatement — the index may transiently
    /// over-approximate a writer (conservative), never under-approximate
    /// one.
    fn replace(&self, p: PrincipalId, addr: Word, size: u64, survivors: &WriteTable) {
        self.for_segments(addr, size, |sh, lo, hi| {
            sh.remove_split(&self.interner, p, lo, hi);
            self.reinstate(sh, p, lo, hi, survivors);
        });
    }

    /// The single-holder transfer splice: swaps `src`'s coverage of
    /// `[addr, addr+size)` for `dst`'s, reinstating what `src`'s
    /// post-revocation table `survivors` still covers, with each shard's
    /// whole substitution under **one** hold of that shard's lock. A
    /// racing lookup sees either the old holder or the new one (plus
    /// survivors) — never a transiently uncovered range.
    fn substitute(
        &self,
        src: PrincipalId,
        dst: Option<PrincipalId>,
        addr: Word,
        size: u64,
        survivors: &WriteTable,
    ) {
        self.for_segments(addr, size, |sh, lo, hi| {
            sh.remove_split(&self.interner, src, lo, hi);
            self.reinstate(sh, src, lo, hi, survivors);
            if let Some(d) = dst {
                sh.add_split(&self.interner, d, lo, hi);
            }
        });
    }

    /// Re-adds, within the shard segment `[lo, hi)`, the coverage of
    /// `p`'s grants in `survivors` (the index stores merged coverage, so
    /// revoking one of two overlapping grants must not erase the other).
    /// Walks the table in place: a revocation rarely overlaps many grants.
    fn reinstate(
        &self,
        sh: &mut IndexShard,
        p: PrincipalId,
        lo: Word,
        hi: Word,
        survivors: &WriteTable,
    ) {
        for (a, s) in survivors.iter_overlapping(lo, hi - lo) {
            let clo = a.max(lo);
            let chi = a.saturating_add(s).min(hi);
            if clo < chi {
                sh.add_split(&self.interner, p, clo, chi);
            }
        }
    }

    fn overlaps(&self, addr: Word, len: u64) -> bool {
        let mut hit = false;
        self.for_segments(addr, len, |sh, lo, hi| hit |= sh.overlaps(lo, hi));
        hit
    }

    fn collect_writers(&self, addr: Word, len: u64, out: &mut Vec<PrincipalId>) {
        self.for_segments(addr, len, |sh, lo, hi| {
            // Shard lock first, interner second (leaf) — the splice order.
            let interner = self.interner.lock().expect("interner lock");
            for w in sh.writers(&interner, lo, hi) {
                if !out.contains(&w) {
                    out.push(w);
                }
            }
        });
    }

    /// Who holds WRITE coverage of `[addr, addr+len)`, when at most one
    /// principal does (the transfer fast-path test, without collecting).
    fn holders(&self, addr: Word, len: u64) -> Holders {
        let mut found = Holders::None;
        self.for_segments(addr, len, |sh, lo, hi| {
            let interner = self.interner.lock().expect("interner lock");
            for w in sh.writers(&interner, lo, hi) {
                found = match found {
                    Holders::None => Holders::One(w),
                    Holders::One(h) if h == w => Holders::One(h),
                    _ => Holders::Many,
                };
            }
        });
        found
    }

    /// The lowest-numbered principal at or above `from` present in the
    /// shards overlapping `[addr, addr+len)` — one step of the kfree
    /// hint (a superset of the range's actual writers).
    fn next_present(&self, addr: Word, len: u64, from: usize) -> Option<PrincipalId> {
        let mut next: Option<PrincipalId> = None;
        self.for_segments(addr, len, |sh, _lo, _hi| {
            if let Some(p) = sh.next_present(from) {
                next = Some(next.map_or(p, |q| q.min(p)));
            }
        });
        next
    }
}

/// The WRITE holders of a range, up to the first two distinct ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holders {
    None,
    One(PrincipalId),
    Many,
}

/// Result of a `kfree`-style sweep
/// ([`RuntimeCore::revoke_write_overlapping_everywhere`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct KfreeSweep {
    /// Per-principal epoch bumps the sweep caused.
    pub epoch_bumps: u64,
    /// Principals visited (present in the freed region's shards).
    pub visited: u64,
    /// Principals the presence hint let the sweep skip.
    pub skipped: u64,
}

/// Result of a module-retirement pass ([`RuntimeCore::retire_module`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RetireSweep {
    /// Principals marked retired by this pass.
    pub principals_retired: u64,
    /// WRITE grants moved to the tombstone.
    pub write_caps_moved: u64,
    /// CALL capabilities discarded.
    pub call_caps_dropped: u64,
    /// REF capabilities discarded.
    pub ref_caps_dropped: u64,
    /// Per-principal epoch bumps the transfer caused.
    pub epoch_bumps: u64,
}

/// The shared, thread-safe half of the runtime. See the module docs for
/// the state split and the locking discipline. All methods take
/// `&self`; wrap it in an [`Arc`] and hand [`crate::GuardHandle`]s to
/// worker threads.
pub struct RuntimeCore {
    meta: RwLock<Meta>,
    slots: SlotTable,
    sharding: RwLock<Sharding>,
    /// Striped by the same region boundaries as the writer index (fixed
    /// at construction: a later `set_shard_boundaries` re-shards the
    /// index only — stripe layout is a perf detail, not semantics).
    pub(crate) writer_map: StripedWriterMap,
    names: RwLock<Names>,
    fns: RwLock<HashMap<Word, FnMeta>>,
    /// Merged per-thread handle stats (handles flush here on drop or via
    /// [`crate::GuardHandle::flush_stats`]).
    stats: Mutex<GuardStats>,
    /// Whether debug builds cross-check the kfree presence hint with a
    /// full principal walk after each sweep. Only sound while one
    /// thread mutates capabilities: a concurrent grant landing between
    /// the sweep and the walk (e.g. another CPU transfer-granting a
    /// freshly reallocated slab object at the same address) is
    /// indistinguishable from a hint miss. The multi-CPU kernel turns
    /// this off when its second CPU comes up.
    kfree_cross_check: std::sync::atomic::AtomicBool,
}

impl Default for RuntimeCore {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeCore {
    /// Creates an empty, single-shard core.
    pub fn new() -> Self {
        Self::with_shard_boundaries(Vec::new())
    }

    /// Creates an empty core with the given writer-index shard split
    /// points (the unit of both splice locality and lock granularity).
    pub fn with_shard_boundaries(boundaries: Vec<Word>) -> Self {
        RuntimeCore {
            meta: RwLock::new(Meta::default()),
            slots: SlotTable::new(),
            writer_map: StripedWriterMap::with_boundaries(&boundaries),
            sharding: RwLock::new(Sharding::new(boundaries, 0)),
            names: RwLock::new(Names::default()),
            fns: RwLock::new(HashMap::new()),
            stats: Mutex::new(GuardStats::new()),
            kfree_cross_check: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Disables the debug-build kfree-hint cross-check (see the field
    /// docs): call before concurrent capability mutators start.
    pub fn disable_kfree_cross_check(&self) {
        self.kfree_cross_check.store(false, Ordering::Release);
    }

    /// Whether the debug-build kfree-hint cross-check is active.
    pub fn kfree_cross_check_enabled(&self) -> bool {
        self.kfree_cross_check.load(Ordering::Acquire)
    }

    fn slot(&self, p: PrincipalId) -> &PrincipalSlot {
        self.slots.get(p.0 as usize)
    }

    /// The current write-guard epoch of a principal. Guards read this
    /// lock-free before consulting their private caches.
    #[inline]
    pub fn write_epoch(&self, p: PrincipalId) -> u64 {
        self.slot(p).epoch.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------ modules

    /// Registers a module, creating its shared and global principals.
    pub fn register_module(&self, name: &str) -> ModuleId {
        let mut meta = self.meta.write().expect("meta lock");
        let mid = ModuleId(meta.modules.len() as u32);
        let shared = self.new_principal_locked(&mut meta, mid, PrincipalKind::Shared);
        let global = self.new_principal_locked(&mut meta, mid, PrincipalKind::Global);
        meta.modules
            .push(ModuleInfo::new(name.to_string(), shared, global));
        mid
    }

    fn new_principal_locked(
        &self,
        meta: &mut Meta,
        module: ModuleId,
        kind: PrincipalKind,
    ) -> PrincipalId {
        let id = PrincipalId(meta.principals.len() as u32);
        self.slots.ensure(id.0 as usize);
        meta.principals.push(PrincipalMeta {
            module,
            kind,
            retired: false,
        });
        id
    }

    /// Number of registered modules.
    pub fn module_count(&self) -> usize {
        self.meta.read().expect("meta lock").modules.len()
    }

    /// Number of registered principals.
    pub fn principal_count(&self) -> usize {
        self.meta.read().expect("meta lock").principals.len()
    }

    /// The name a module was registered under.
    pub fn module_name(&self, id: ModuleId) -> String {
        self.meta.read().expect("meta lock").modules[id.0 as usize]
            .name
            .clone()
    }

    /// The module's shared principal.
    pub fn shared_principal(&self, id: ModuleId) -> PrincipalId {
        self.meta.read().expect("meta lock").modules[id.0 as usize].shared
    }

    /// The module's global principal.
    pub fn global_principal(&self, id: ModuleId) -> PrincipalId {
        self.meta.read().expect("meta lock").modules[id.0 as usize].global
    }

    /// The kind of a principal.
    pub fn principal_kind(&self, p: PrincipalId) -> PrincipalKind {
        self.meta.read().expect("meta lock").principals[p.0 as usize].kind
    }

    /// Every non-retired principal of a module: shared and global first,
    /// then the live instances (module-teardown enumeration).
    pub fn module_principals(&self, mid: ModuleId) -> Vec<PrincipalId> {
        let meta = self.meta.read().expect("meta lock");
        meta.modules[mid.0 as usize]
            .all_principals()
            .filter(|&p| !meta.principals[p.0 as usize].retired)
            .collect()
    }

    /// The module a principal belongs to.
    pub fn principal_module(&self, p: PrincipalId) -> ModuleId {
        self.meta.read().expect("meta lock").principals[p.0 as usize].module
    }

    // --------------------------------------------------- principal naming

    /// Resolves the principal named by pointer `name`, creating a fresh
    /// instance principal on first use (a module invocation with a
    /// `principal(ptr)` annotation is the instance's birth).
    pub fn principal_for_name(&self, module: ModuleId, name: Word) -> PrincipalId {
        let mut meta = self.meta.write().expect("meta lock");
        if let Some(p) = meta.modules[module.0 as usize].lookup_name(name) {
            return p;
        }
        let p = self.new_principal_locked(&mut meta, module, PrincipalKind::Instance);
        let m = &mut meta.modules[module.0 as usize];
        m.instances.push(p);
        m.names.insert(name, p);
        p
    }

    /// `lxfi_princ_alias(existing, new)` (§3.3): binds `new_name` to the
    /// principal already named `existing_name`. The module code must have
    /// performed an adequate check before calling this (§3.4); the runtime
    /// additionally refuses to alias names the module has never seen.
    pub fn princ_alias(
        &self,
        module: ModuleId,
        existing_name: Word,
        new_name: Word,
    ) -> Result<(), Violation> {
        let mut meta = self.meta.write().expect("meta lock");
        let m = &meta.modules[module.0 as usize];
        let p = m
            .lookup_name(existing_name)
            .ok_or_else(|| Violation::PrincipalDenied {
                why: format!("no principal named {existing_name:#x} in module {}", m.name),
            })?;
        let m = &mut meta.modules[module.0 as usize];
        if let Some(prev) = m.names.get(&new_name) {
            if *prev != p {
                return Err(Violation::PrincipalDenied {
                    why: format!("name {new_name:#x} already bound to a different principal"),
                });
            }
            return Ok(());
        }
        m.names.insert(new_name, p);
        Ok(())
    }

    // ---------------------------------------------------------- retirement

    /// The quarantine tombstone principal, created on first use: a
    /// permanent principal that never executes and is never granted a
    /// CALL capability. Retirement *transfers* a dead module's WRITE
    /// coverage here instead of dropping it, so a function-pointer slot
    /// the dead module poisoned keeps a writer on record — the
    /// indirect-call check then fails `IndCallUnauthorized` forever
    /// (tombstone holds no CALLs) instead of falling through the
    /// empty-writer-set fast exit and dispatching the planted pointer
    /// with kernel privilege. Tombstone coverage drains through the same
    /// legitimate channels as any writer's: `kfree` sweeps, zeroing
    /// (`note_zeroed`), and transfer-grants over reused memory.
    ///
    /// Lazy creation keeps principal numbering untouched for runtimes
    /// that never retire anything; callers that need deterministic ids
    /// across runs (the kernel) call this once at boot.
    pub fn ensure_tombstone(&self) -> PrincipalId {
        if let Some(t) = self.meta.read().expect("meta lock").tombstone {
            return t;
        }
        let mut meta = self.meta.write().expect("meta lock");
        if let Some(t) = meta.tombstone {
            return t;
        }
        let mid = ModuleId(meta.modules.len() as u32);
        let shared = self.new_principal_locked(&mut meta, mid, PrincipalKind::Shared);
        let global = self.new_principal_locked(&mut meta, mid, PrincipalKind::Global);
        meta.modules
            .push(ModuleInfo::new("<tombstone>".to_string(), shared, global));
        meta.tombstone = Some(shared);
        shared
    }

    /// The tombstone principal, if one has been created.
    pub fn tombstone(&self) -> Option<PrincipalId> {
        self.meta.read().expect("meta lock").tombstone
    }

    /// Whether a principal has been retired.
    pub fn is_retired(&self, p: PrincipalId) -> bool {
        self.meta.read().expect("meta lock").principals[p.0 as usize].retired
    }

    /// `(live, retired)` principal counts — the leak gauges module churn
    /// is regression-tested against.
    pub fn principal_gauges(&self) -> (u64, u64) {
        let meta = self.meta.read().expect("meta lock");
        let retired = meta.principals.iter().filter(|p| p.retired).count() as u64;
        (meta.principals.len() as u64 - retired, retired)
    }

    /// Retires every principal of a module: WRITE coverage is moved to
    /// the tombstone (never dropped — see [`RuntimeCore::ensure_tombstone`]
    /// for why dropping would reopen the indirect-call hole), CALL and
    /// REF capabilities are discarded, the module's instance registry and
    /// pointer names are cleared, and each principal is marked retired.
    /// Epochs bump per the §3.1 hierarchy as each range is revoked, so
    /// no stale cached grant of a dead principal survives.
    ///
    /// The caller must guarantee no code runs under these principals any
    /// more (the kernel's quarantine path drains in-flight executions
    /// through its RCU grace period first). A `kfree` sweep racing the
    /// transfer can at worst leave the tombstone holding coverage over a
    /// freed range — a conservative deny that the next sweep, zeroing,
    /// or transfer-grant over that range clears.
    pub fn retire_module(&self, mid: ModuleId) -> RetireSweep {
        let ts = self.ensure_tombstone();
        let mut sweep = RetireSweep::default();
        let victims: Vec<PrincipalId> = {
            let meta = self.meta.read().expect("meta lock");
            if meta.tombstone == Some(ts) && meta.principals[ts.0 as usize].module == mid {
                return sweep; // the tombstone module itself is immortal
            }
            meta.modules[mid.0 as usize]
                .all_principals()
                .filter(|&p| !meta.principals[p.0 as usize].retired)
                .collect()
        };
        for &p in &victims {
            let writes: Vec<(Word, u64)> = {
                let mut caps = self.slot(p).caps.lock().expect("caps lock");
                sweep.call_caps_dropped += caps.call.len() as u64;
                sweep.ref_caps_dropped += caps.refs.len() as u64;
                caps.call.clear();
                caps.refs.clear();
                caps.write.iter().collect()
            };
            for (addr, size) in writes {
                // Grant to the tombstone *before* revoking from the dead
                // principal: a racing indirect-call lookup may see both
                // writers (conservative) but never an uncovered window.
                self.grant(ts, RawCap::write(addr, size));
                let (moved, bumps) = self.revoke(p, RawCap::write(addr, size));
                sweep.epoch_bumps += bumps;
                if moved {
                    sweep.write_caps_moved += 1;
                }
            }
            debug_assert_eq!(
                self.cap_count(p),
                0,
                "retired principal {p:?} still holds capabilities"
            );
        }
        let mut meta = self.meta.write().expect("meta lock");
        for &p in &victims {
            meta.principals[p.0 as usize].retired = true;
            sweep.principals_retired += 1;
        }
        let m = &mut meta.modules[mid.0 as usize];
        m.instances.clear();
        m.names.clear();
        sweep
    }

    // ------------------------------------------------------- capabilities

    /// Grants a capability to a principal. WRITE grants mark the
    /// writer-set map and enter the reverse writer index (§5) under the
    /// principal's table mutex, so the index never lags the table once
    /// the call returns. Grants never bump write epochs: added authority
    /// cannot invalidate a cached positive guard decision.
    pub fn grant(&self, p: PrincipalId, cap: RawCap) {
        if cap.ctype == CapType::Write {
            self.writer_map.mark(cap.addr, cap.size);
            let mut caps = self.slot(p).caps.lock().expect("caps lock");
            // Index before table: an indirect call racing this grant may
            // see the writer early (conservative), never late.
            self.sharding
                .read()
                .expect("sharding lock")
                .add(p, cap.addr, cap.size);
            caps.grant(cap);
        } else {
            self.slot(p).caps.lock().expect("caps lock").grant(cap);
        }
    }

    /// Revokes a capability from one principal; returns whether it was
    /// held and how many write epochs were bumped. A successful WRITE
    /// revocation removes table coverage (and fixes the writer index)
    /// **before** bumping the epochs of exactly the principals whose
    /// observable coverage shrank; every other principal's guard cache
    /// survives untouched.
    pub fn revoke(&self, p: PrincipalId, cap: RawCap) -> (bool, u64) {
        let removed = {
            let mut caps = self.slot(p).caps.lock().expect("caps lock");
            let removed = caps.revoke(cap);
            if removed && cap.ctype == CapType::Write {
                self.unindex_write_locked(p, cap.addr, cap.size, &caps);
            }
            removed
        };
        let bumps = if removed && cap.ctype == CapType::Write {
            self.bump_write_epochs(p)
        } else {
            0
        };
        (removed, bumps)
    }

    /// Bumps the write epoch of `p` and of every principal whose
    /// write-guard coverage can *observe* `p`'s WRITE table through the
    /// §3.1 hierarchy fallbacks:
    ///
    /// - revoking from an **instance** also invalidates the module's
    ///   global principal (it unions every instance);
    /// - revoking from the **shared** principal invalidates every
    ///   instance (they fall back to shared) and the global principal;
    /// - revoking from the **global** principal invalidates only itself
    ///   (nobody falls back to global).
    ///
    /// Runs under the `meta` read lock so instances created concurrently
    /// (under the write lock) are either fully born and swept, or born
    /// after the sweep — in which case their tables were probed only
    /// after this revocation's table update.
    fn bump_write_epochs(&self, p: PrincipalId) -> u64 {
        let meta = self.meta.read().expect("meta lock");
        let pm = meta.principals[p.0 as usize];
        let mut bumps = 0u64;
        let mut bump = |q: PrincipalId| {
            self.slot(q).epoch.fetch_add(1, Ordering::AcqRel);
            bumps += 1;
        };
        bump(p);
        match pm.kind {
            PrincipalKind::Global => {}
            PrincipalKind::Instance => {
                bump(meta.modules[pm.module.0 as usize].global);
            }
            PrincipalKind::Shared => {
                let m = &meta.modules[pm.module.0 as usize];
                bump(m.global);
                for &q in &m.instances {
                    bump(q);
                }
            }
        }
        bumps
    }

    /// Drops `p` from the writer index over `[addr, addr+size)` while
    /// reinstating whatever coverage `p`'s *remaining* grants still have
    /// there (the index stores merged coverage, so revoking one of two
    /// overlapping grants must not erase the survivor). The caller holds
    /// `p`'s caps mutex — `caps` is the post-removal table — which keeps
    /// the index in lockstep with the table for each principal; the
    /// removal and the reinstatement are applied per shard under one
    /// hold of the shard's lock ([`Sharding::replace`]), so a racing
    /// indirect-call lookup can never see the survivor's coverage
    /// transiently absent.
    fn unindex_write_locked(&self, p: PrincipalId, addr: Word, size: u64, caps: &CapSet) {
        // Invalidate deferred zero-notes overlapping the removed window
        // *before* the splice: a drain that observes the post-splice
        // index must also observe this bump (see `StripedWriterMap`).
        self.writer_map.note_revoked(addr, size);
        self.sharding
            .read()
            .expect("sharding lock")
            .replace(p, addr, size, &caps.write);
    }

    /// Revokes a capability from **every** principal in the system —
    /// `transfer` semantics (§3.3): no stale copies survive. Retired
    /// principals hold nothing and are skipped; the tombstone is *not*
    /// retired and is visited like any writer (this is one of the
    /// channels that drains stale tombstone coverage). Returns the total
    /// epoch bumps.
    pub fn revoke_everywhere(&self, cap: RawCap) -> u64 {
        let live: Vec<PrincipalId> = {
            let meta = self.meta.read().expect("meta lock");
            (0..meta.principals.len() as u32)
                .map(PrincipalId)
                .filter(|p| !meta.principals[p.0 as usize].retired)
                .collect()
        };
        let mut bumps = 0;
        for p in live {
            bumps += self.revoke(p, cap).1;
        }
        bumps
    }

    /// `transfer` semantics for a WRITE capability: revoke `cap` from
    /// everyone, then grant it to `dst` (if any). When the reverse
    /// writer index shows **at most one** holder over the range — the
    /// per-packet skb case — the grant moves principal-to-principal
    /// with one shard substitution splice and one epoch-bump set,
    /// instead of walking every live principal's table
    /// ([`RuntimeCore::revoke_everywhere`]). Returns
    /// `(fast_path_taken, epoch_bumps)`.
    ///
    /// Equivalence with the sweep: holding the exact grant implies
    /// overlapping index coverage, so a principal the index does not
    /// list over the range cannot hold `cap` — revoking from the one
    /// indexed holder revokes everything the full walk would have. A
    /// grant racing in after the holder scan survives either path (the
    /// sweep visits principals one at a time and can equally miss it);
    /// the substitution itself runs under the source's caps mutex with
    /// each shard's remove-and-reinstate atomic per shard, and the
    /// destination enters the index *before* its table grant (the same
    /// conservative index-before-table order as [`RuntimeCore::grant`]).
    pub fn transfer_write(&self, cap: RawCap, dst: Option<PrincipalId>) -> (bool, u64) {
        debug_assert_eq!(cap.ctype, CapType::Write);
        // Bound first so the sharding read guard drops here: the slow
        // path below re-takes it and takes caps mutexes, which must not
        // nest inside it (caps → sharding is the documented order).
        let holders = self
            .sharding
            .read()
            .expect("sharding lock")
            .holders(cap.addr, cap.size);
        let holder = match holders {
            Holders::Many => {
                let bumps = self.revoke_everywhere(cap);
                if let Some(d) = dst {
                    self.grant(d, cap);
                }
                return (false, bumps);
            }
            Holders::One(h) => Some(h),
            Holders::None => None,
        };
        let mut bumps = 0;
        let mut dst_indexed = false;
        if let Some(h) = holder {
            let removed = {
                let mut caps = self.slot(h).caps.lock().expect("caps lock");
                let removed = caps.revoke(cap);
                if removed {
                    // One splice: src out (residuals back), dst in. The
                    // range's granules stay marked throughout — the
                    // original grant marked them and `clear_zeroed`
                    // keeps covered granules — so no re-mark is needed.
                    self.writer_map.note_revoked(cap.addr, cap.size);
                    self.sharding.read().expect("sharding lock").substitute(
                        h,
                        dst,
                        cap.addr,
                        cap.size,
                        &caps.write,
                    );
                    dst_indexed = true;
                }
                removed
            };
            if removed {
                bumps = self.bump_write_epochs(h);
            }
        }
        if let Some(d) = dst {
            if dst_indexed {
                // Already indexed (and marked) by the substitution: only
                // the table grant remains. Index-before-table holds.
                self.slot(d).caps.lock().expect("caps lock").grant(cap);
            } else {
                self.grant(d, cap);
            }
        }
        (true, bumps)
    }

    /// Revokes all WRITE capabilities overlapping `[addr, addr+size)` from
    /// every principal that holds any (used by `kfree`: freed memory must
    /// have no outstanding capabilities). The per-shard principal-presence
    /// hint bounds the sweep to the freed region's writers instead of
    /// walking every principal's table; callers in debug builds assert
    /// the hint against the full walk (see
    /// [`crate::GuardHandle::revoke_write_overlapping_everywhere`]).
    pub fn revoke_write_overlapping_everywhere(&self, addr: Word, size: u64) -> KfreeSweep {
        let total = self.principal_count() as u64;
        let mut sweep = KfreeSweep::default();
        // Walk the hint in principal order, one step at a time: visiting
        // `p` only changes `p`'s own presence, so the walk sees exactly
        // the principals a snapshot taken up front would have held.
        let mut from = 0;
        while let Some(p) = self.next_present(addr, size, from) {
            from = p.0 as usize + 1;
            sweep.visited += 1;
            let span = {
                let mut caps = self.slot(p).caps.lock().expect("caps lock");
                let (_, span) = caps.write.revoke_overlapping_span(addr, size);
                // A partially intersected grant is revoked whole, so the
                // lost coverage can reach beyond [addr, addr+size):
                // un-index the actual extent of what was removed.
                if let Some((lo, hi)) = span {
                    self.unindex_write_locked(p, lo, hi - lo, &caps);
                }
                span
            };
            if span.is_some() {
                sweep.epoch_bumps += self.bump_write_epochs(p);
            }
        }
        sweep.skipped = total.saturating_sub(sweep.visited);
        sweep
    }

    /// One step of the kfree presence hint (see [`Sharding::next_present`]).
    fn next_present(&self, addr: Word, len: u64, from: usize) -> Option<PrincipalId> {
        self.sharding
            .read()
            .expect("sharding lock")
            .next_present(addr, len, from)
    }

    /// Revokes all of **one** principal's WRITE coverage overlapping
    /// `[addr, addr+size)`, partially intersected grants whole (the
    /// [`RuntimeCore::revoke_write_overlapping_everywhere`] semantics
    /// applied to a single table). Module teardown uses this to return
    /// the kernel-stack grants of §3.2 before retirement moves the rest
    /// of a dead module's coverage to the tombstone: stacks outlive the
    /// module and must not stay poisoned. Returns the epoch bumps.
    pub fn revoke_write_overlapping(&self, p: PrincipalId, addr: Word, size: u64) -> u64 {
        let span = {
            let mut caps = self.slot(p).caps.lock().expect("caps lock");
            let (_, span) = caps.write.revoke_overlapping_span(addr, size);
            if let Some((lo, hi)) = span {
                self.unindex_write_locked(p, lo, hi - lo, &caps);
            }
            span
        };
        if span.is_some() {
            self.bump_write_epochs(p)
        } else {
            0
        }
    }

    /// Ownership test with the principal-hierarchy semantics of §3.1:
    /// an instance principal falls back to the module's shared principal;
    /// the global principal owns anything any principal of its module
    /// owns. Locks one capability table at a time.
    pub fn owns(&self, p: PrincipalId, cap: RawCap) -> bool {
        let meta = self.meta.read().expect("meta lock");
        let pm = meta.principals[p.0 as usize];
        let probe = |q: PrincipalId| self.slot(q).caps.lock().expect("caps lock").owns(cap);
        match pm.kind {
            PrincipalKind::Shared => probe(p),
            PrincipalKind::Instance => probe(p) || probe(meta.modules[pm.module.0 as usize].shared),
            PrincipalKind::Global => meta.modules[pm.module.0 as usize]
                .all_principals()
                .any(probe),
        }
    }

    /// Ownership test for an optional principal context (`None` = the
    /// trusted core kernel, which owns everything).
    pub fn ctx_owns(&self, ctx: PrincipalCtx, cap: RawCap) -> bool {
        match ctx {
            None => true,
            Some((_, p)) => self.owns(p, cap),
        }
    }

    /// The covering interval behind a successful WRITE ownership test,
    /// with the principal-hierarchy fallbacks of [`RuntimeCore::owns`].
    pub(crate) fn write_covering(
        &self,
        p: PrincipalId,
        addr: Word,
        len: u64,
    ) -> Option<(Word, Word)> {
        let meta = self.meta.read().expect("meta lock");
        let pm = meta.principals[p.0 as usize];
        let probe = |q: PrincipalId| {
            self.slot(q)
                .caps
                .lock()
                .expect("caps lock")
                .write
                .covering(addr, len)
        };
        match pm.kind {
            PrincipalKind::Shared => probe(p),
            PrincipalKind::Instance => {
                probe(p).or_else(|| probe(meta.modules[pm.module.0 as usize].shared))
            }
            PrincipalKind::Global => meta.modules[pm.module.0 as usize]
                .all_principals()
                .find_map(probe),
        }
    }

    /// True if `p`'s own table has a grant overlapping the range (debug
    /// hook for the kfree hint assertion).
    pub fn write_overlaps(&self, p: PrincipalId, addr: Word, len: u64) -> bool {
        self.slot(p)
            .caps
            .lock()
            .expect("caps lock")
            .write
            .overlaps(addr, len)
    }

    /// Number of capabilities a principal holds directly (diagnostics).
    pub fn cap_count(&self, p: PrincipalId) -> usize {
        self.slot(p).caps.lock().expect("caps lock").len()
    }

    // ---------------------------------------------------------- functions

    /// Registers a function address with its annotation hash.
    pub fn register_function(&self, addr: Word, meta: FnMeta) {
        self.fns.write().expect("fns lock").insert(addr, meta);
    }

    /// Unregisters a function address (module-window reuse: the dead
    /// tenant's annotation hashes must not answer for the new one's
    /// addresses).
    pub fn unregister_function(&self, addr: Word) {
        self.fns.write().expect("fns lock").remove(&addr);
    }

    /// Looks up a registered function (cloned out of the registry).
    pub fn function_at(&self, addr: Word) -> Option<FnMeta> {
        self.fns.read().expect("fns lock").get(&addr).cloned()
    }

    /// The annotation hash of a registered function (the indirect-call
    /// hot path: no clone).
    pub fn function_ahash(&self, addr: Word) -> Option<u64> {
        self.fns
            .read()
            .expect("fns lock")
            .get(&addr)
            .map(|m| m.ahash)
    }

    /// Principals (from any module) holding WRITE coverage of any byte of
    /// the 8-byte slot at `addr` — the indirect-call slow path, answered
    /// by the reverse writer index in O(log intervals + writers) instead
    /// of the paper's global principal-list traversal (§5). Appends the
    /// deduplicated writers to `out`.
    pub fn collect_writers(&self, addr: Word, len: u64, out: &mut Vec<PrincipalId>) {
        self.sharding
            .read()
            .expect("sharding lock")
            .collect_writers(addr, len, out);
    }

    /// True if any writer interval overlaps `[addr, addr+len)`.
    pub fn index_overlaps(&self, addr: Word, len: u64) -> bool {
        self.sharding
            .read()
            .expect("sharding lock")
            .overlaps(addr, len)
    }

    /// Principals (from any module) holding WRITE coverage of any byte of
    /// the 8-byte slot at `addr`, sorted (diagnostics; the enforcement
    /// path reuses a scratch buffer instead).
    pub fn writers_of(&self, addr: Word) -> Vec<PrincipalId> {
        let mut v = Vec::new();
        self.collect_writers(addr, 8, &mut v);
        v.sort_unstable();
        v
    }

    /// The retired global traversal: every principal's WRITE table probed
    /// for overlap with the slot. Kept as the in-tree reference the
    /// reverse index is property-tested and benchmarked against.
    pub fn writers_of_linear(&self, addr: Word) -> Vec<PrincipalId> {
        (0..self.principal_count())
            .map(|i| PrincipalId(i as u32))
            .filter(|&p| self.write_overlaps(p, addr, 8))
            .collect()
    }

    /// The kfree presence hint for a range (diagnostics/tests).
    pub fn present_over(&self, addr: Word, len: u64) -> Vec<PrincipalId> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(p) = self.next_present(addr, len, from) {
            from = p.0 as usize + 1;
            out.push(p);
        }
        out
    }

    // ------------------------------------------------------ writer tracking

    /// Notes that `[addr, addr+len)` was zeroed (allocator or kernel
    /// `memset`): writer-set bits clear unless a principal still holds
    /// WRITE coverage. Returns `false` when the lock-free maybe-marked
    /// pre-check proved every touched stripe clean and the call did no
    /// locked work at all (the all-clean fast skip).
    pub fn note_zeroed(&self, addr: Word, len: u64) -> bool {
        if !self.writer_map.maybe_marked_over(addr, len) {
            return false;
        }
        // A granule stays marked while any principal holds WRITE coverage
        // of any byte in it (clearing would be a false negative). The
        // reverse index answers this in one window search instead of a
        // per-granule walk of every principal.
        let sharding = self.sharding.read().expect("sharding lock");
        self.writer_map
            .clear_zeroed(addr, len, |granule| sharding.overlaps(granule, 64));
        true
    }

    /// Samples a deferral token for a zero-note over the range, if it
    /// fits in one writer-map stripe (see
    /// [`StripedWriterMap::defer_token`]). Lock-free.
    pub(crate) fn zero_note_token(&self, addr: Word, len: u64) -> Option<ZeroNoteToken> {
        self.writer_map.defer_token(addr, len)
    }

    /// Applies a deferred zero-note; `None` means it was dropped as
    /// stale (bits conservatively stay set).
    pub(crate) fn drain_zero_note(
        &self,
        addr: Word,
        len: u64,
        token: ZeroNoteToken,
    ) -> Option<u64> {
        let sharding = self.sharding.read().expect("sharding lock");
        self.writer_map
            .try_drain_note(addr, len, token, |granule| sharding.overlaps(granule, 64))
    }

    /// Direct writer-map marking (used when a module is loaded: its
    /// writable sections may contain function pointers the kernel will
    /// invoke, §5).
    pub fn mark_written(&self, addr: Word, len: u64) {
        self.writer_map.mark(addr, len);
    }

    /// True if the writer-set fast path would skip checks for `addr`.
    pub fn writer_clean(&self, addr: Word) -> bool {
        !self.writer_map.maybe_written(addr)
    }

    /// Gauge: total marked writer-map granules (lock-free stripe census).
    pub fn marked_granules(&self) -> u64 {
        self.writer_map.marked_granules()
    }

    // ---------------------------------------------------------- iterators

    /// Interns a REF type name.
    pub fn ref_type(&self, name: &str) -> RefTypeId {
        let mut names = self.names.write().expect("names lock");
        if let Some(&id) = names.ref_type_ids.get(name) {
            return id;
        }
        let id = RefTypeId(names.ref_types.len() as u32);
        names.ref_types.push(name.to_string());
        names.ref_type_ids.insert(name.to_string(), id);
        id
    }

    /// The name of an interned REF type.
    pub fn ref_type_name(&self, id: RefTypeId) -> String {
        self.names.read().expect("names lock").ref_types[id.0 as usize].clone()
    }

    /// Interns an iterator name, reserving an empty slot if the iterator
    /// has not been registered yet (annotations may be compiled before
    /// the module supplying the iterator loads).
    pub fn iterator_id(&self, name: &str) -> IteratorId {
        let mut names = self.names.write().expect("names lock");
        if let Some(&id) = names.iterator_ids.get(name) {
            return id;
        }
        let id = IteratorId(names.iterators.len() as u32);
        names.iterators.push(None);
        names.iterator_names.push(name.to_string());
        names.iterator_ids.insert(name.to_string(), id);
        id
    }

    /// The name an iterator id was interned under (diagnostics).
    pub fn iterator_name(&self, id: IteratorId) -> String {
        self.names.read().expect("names lock").iterator_names[id.0 as usize].clone()
    }

    /// Registers a capability iterator under `name`; returns the interned
    /// id compiled annotations reference it by.
    pub fn register_iterator(&self, name: &str, f: IteratorFn) -> IteratorId {
        let id = self.iterator_id(name);
        self.names.write().expect("names lock").iterators[id.0 as usize] = Some(Arc::new(f));
        id
    }

    /// Runs a registered iterator by interned id (the enforcement path —
    /// no name lookup), appending what it emits to `out` (the caller's
    /// reusable buffer). The iterator function is cloned out of the
    /// registry (an `Arc` bump) so no lock is held while it walks memory.
    pub fn run_iterator_id(
        &self,
        id: IteratorId,
        mem: &AddressSpace,
        arg: Word,
        out: &mut Vec<EmittedCap>,
    ) -> Result<(), Violation> {
        let f = self.names.read().expect("names lock").iterators[id.0 as usize]
            .clone()
            .ok_or_else(|| Violation::UnknownIterator {
                name: self.iterator_name(id),
            })?;
        f(mem, arg, out).map_err(|why| Violation::IteratorFailed {
            name: self.iterator_name(id),
            why,
        })
    }

    /// Runs a registered iterator by name (registration-time / test API;
    /// enforcement goes through [`RuntimeCore::run_iterator_id`]).
    pub fn run_iterator(
        &self,
        name: &str,
        mem: &AddressSpace,
        arg: Word,
    ) -> Result<Vec<EmittedCap>, Violation> {
        let id = self
            .names
            .read()
            .expect("names lock")
            .iterator_ids
            .get(name)
            .copied()
            .ok_or_else(|| Violation::UnknownIterator {
                name: name.to_string(),
            })?;
        let mut out = Vec::new();
        self.run_iterator_id(id, mem, arg, &mut out)?;
        Ok(out)
    }

    /// Number of registered iterators (annotation census, §8.2).
    /// Interned-but-unregistered slots do not count.
    pub fn iterator_count(&self) -> usize {
        self.names
            .read()
            .expect("names lock")
            .iterators
            .iter()
            .filter(|f| f.is_some())
            .count()
    }

    // ------------------------------------------------------------- consts

    /// Interns a constant name, reserving an undefined slot if the
    /// constant has not been defined yet (evaluating an undefined slot
    /// reports an unknown identifier, matching by-name lookup).
    pub fn const_id(&self, name: &str) -> ConstId {
        let mut names = self.names.write().expect("names lock");
        if let Some(&id) = names.const_ids.get(name) {
            return id;
        }
        let id = ConstId(names.const_values.len() as u32);
        names.const_values.push(None);
        names.const_names.push(name.to_string());
        names.const_ids.insert(name.to_string(), id);
        id
    }

    /// The value of an interned constant, if defined.
    pub fn const_value(&self, id: ConstId) -> Option<i64> {
        self.names.read().expect("names lock").const_values[id.0 as usize]
    }

    /// The name a constant id was interned under (diagnostics).
    pub fn const_name(&self, id: ConstId) -> String {
        self.names.read().expect("names lock").const_names[id.0 as usize].clone()
    }

    /// Defines a named kernel constant usable in annotation expressions.
    pub fn define_const(&self, name: &str, value: i64) {
        let id = self.const_id(name);
        self.names.write().expect("names lock").const_values[id.0 as usize] = Some(value);
    }

    // ----------------------------------------------------- sharding admin

    /// Reconfigures the reverse writer index's shard boundaries (address
    /// split points — typically the kernel layout's region bases and
    /// module windows) and rebuilds the index from every principal's
    /// live WRITE grants. **Not** safe to run concurrently with
    /// capability traffic; the simulated kernel does it once at boot,
    /// before any module loads.
    pub fn set_shard_boundaries(&self, boundaries: Vec<Word>) {
        // Snapshot every principal's grants first: taking the sharding
        // write lock while holding a caps mutex would invert the
        // caps → sharding order the mutation paths use.
        let n = self.principal_count();
        let mut grants: Vec<(PrincipalId, Vec<(Word, u64)>)> = Vec::with_capacity(n);
        for i in 0..n {
            let p = PrincipalId(i as u32);
            let caps = self.slot(p).caps.lock().expect("caps lock");
            grants.push((p, caps.write.iter().collect()));
        }
        // The allocation gauge is documented monotonic; fold the retired
        // index's count in so a rebuild never steps it backwards.
        let prior = self.index_sets_ever_interned();
        let fresh = Sharding::new(boundaries, prior);
        for (p, gs) in grants {
            for (a, s) in gs {
                fresh.add(p, a, s);
            }
        }
        *self.sharding.write().expect("sharding lock") = fresh;
    }

    /// Number of writer-index shards.
    pub fn index_shard_count(&self) -> usize {
        self.sharding.read().expect("sharding lock").shards.len()
    }

    /// The configured shard split points.
    pub fn index_boundaries(&self) -> Vec<Word> {
        self.sharding
            .read()
            .expect("sharding lock")
            .boundaries
            .clone()
    }

    /// Live intervals across all shards (diagnostics).
    pub fn index_interval_count(&self) -> usize {
        let sharding = self.sharding.read().expect("sharding lock");
        sharding
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock").interval_count())
            .sum()
    }

    /// Snapshot of every live interval as `(start, end, writers)` in
    /// address order (diagnostics; pairs with
    /// [`index_interval_count`](Self::index_interval_count) when a leak
    /// gauge drifts and the offending range needs naming).
    pub fn index_intervals_snapshot(&self) -> Vec<(Word, Word, Vec<PrincipalId>)> {
        let sharding = self.sharding.read().expect("sharding lock");
        let interner = sharding.interner.lock().expect("interner lock");
        let mut out = Vec::new();
        for s in &sharding.shards {
            let s = s.lock().expect("shard lock");
            for (a, b, w) in s.intervals(&interner) {
                out.push((a, b, w.to_vec()));
            }
        }
        out
    }

    /// Live interned writer sets, including the pinned empty set.
    pub fn index_set_count(&self) -> usize {
        let sharding = self.sharding.read().expect("sharding lock");
        let live = sharding.interner.lock().expect("interner lock").live();
        live
    }

    /// Writer-set slot allocations ever performed (monotonic across
    /// rebuilds).
    pub fn index_sets_ever_interned(&self) -> u64 {
        let sharding = self.sharding.read().expect("sharding lock");
        let ever = sharding.interner.lock().expect("interner lock").ever();
        sharding.ever_carried + ever
    }

    /// Interner slot capacity (high-water mark of simultaneously live
    /// sets).
    pub fn index_set_slot_capacity(&self) -> usize {
        let sharding = self.sharding.read().expect("sharding lock");
        let cap = sharding.interner.lock().expect("interner lock").capacity();
        cap
    }

    /// Currently recycled (free) interner slots.
    pub fn index_free_set_slots(&self) -> usize {
        let sharding = self.sharding.read().expect("sharding lock");
        let free = sharding
            .interner
            .lock()
            .expect("interner lock")
            .free_slots();
        free
    }

    /// Panics unless every shard's structural invariants hold and the
    /// shared interner's refcounts match the interval references
    /// (test/proptest hook).
    #[doc(hidden)]
    pub fn check_index_invariants(&self) {
        let sharding = self.sharding.read().expect("sharding lock");
        // Shards before interner, matching the splice lock order (the
        // interner is a leaf — taking it first could deadlock against a
        // concurrent phase-split mutation holding a shard).
        let shards: Vec<_> = sharding
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        let interner = sharding.interner.lock().expect("interner lock");
        let mut refs = vec![0u32; interner.capacity()];
        for (si, sh) in shards.iter().enumerate() {
            sh.check_invariants(
                &interner,
                &mut refs,
                shard_lo(&sharding.boundaries, si),
                shard_hi(&sharding.boundaries, si),
            );
        }
        interner.check_consistency(&refs);
    }

    /// Runs `f` on the writer index's shared interner (the interner
    /// equivalence test drains its call log here).
    #[cfg(test)]
    pub(crate) fn with_interner<R>(&self, f: impl FnOnce(&mut SetInterner) -> R) -> R {
        let sharding = self.sharding.read().expect("sharding lock");
        let mut interner = sharding.interner.lock().expect("interner lock");
        f(&mut interner)
    }

    // -------------------------------------------------------------- stats

    /// Folds a handle's (or any) stats into the core's global stats.
    pub fn merge_stats(&self, s: &GuardStats) {
        self.stats.lock().expect("stats lock").merge(s);
    }

    /// A snapshot of the core's merged global stats.
    pub fn global_stats(&self) -> GuardStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// Zeroes the core's merged global stats (benchmark phases).
    pub fn reset_global_stats(&self) {
        self.stats.lock().expect("stats lock").reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GuardKind;
    use crate::GuardHandle;

    fn rt_with_module() -> (GuardHandle, ModuleId) {
        let mut rt: GuardHandle = GuardHandle::new(Arc::default());
        let m = rt.register_module("econet");
        rt.set_kernel_stack(0xffff_9000_0000_0000, 0x4000);
        (rt, m)
    }

    #[test]
    fn shared_caps_visible_to_instances() {
        let (rt, m) = rt_with_module();
        let shared = rt.shared_principal(m);
        rt.grant(shared, RawCap::call(0xf000));
        let inst = rt.principal_for_name(m, 0x9000);
        assert!(rt.owns(inst, RawCap::call(0xf000)));
        assert!(rt.owns(shared, RawCap::call(0xf000)));
    }

    #[test]
    fn instance_caps_isolated_from_each_other() {
        let (rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let b = rt.principal_for_name(m, 0xa000);
        rt.grant(a, RawCap::write(0x5000, 64));
        assert!(rt.owns(a, RawCap::write(0x5000, 64)));
        assert!(
            !rt.owns(b, RawCap::write(0x5000, 64)),
            "instance B must not see instance A's capabilities (§3.1)"
        );
    }

    #[test]
    fn global_principal_unions_all_instances() {
        let (rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        rt.grant(a, RawCap::write(0x5000, 64));
        let g = rt.global_principal(m);
        assert!(rt.owns(g, RawCap::write(0x5000, 64)));
        assert!(!rt.owns(g, RawCap::write(0x6000, 64)));
    }

    #[test]
    fn global_of_other_module_sees_nothing() {
        let (rt, m) = rt_with_module();
        let m2 = rt.register_module("rds");
        let a = rt.principal_for_name(m, 0x9000);
        rt.grant(a, RawCap::write(0x5000, 64));
        let g2 = rt.global_principal(m2);
        assert!(!rt.owns(g2, RawCap::write(0x5000, 64)));
    }

    #[test]
    fn names_are_stable_and_aliasable() {
        let (rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let a2 = rt.principal_for_name(m, 0x9000);
        assert_eq!(a, a2);
        rt.princ_alias(m, 0x9000, 0xb000).unwrap();
        assert_eq!(rt.principal_for_name(m, 0xb000), a);
        // Aliasing an unknown name is denied.
        let err = rt.princ_alias(m, 0xdead, 0xc000).unwrap_err();
        assert!(matches!(err, Violation::PrincipalDenied { .. }));
        // Rebinding an existing name to a different principal is denied.
        let _b = rt.principal_for_name(m, 0xcafe);
        let err = rt.princ_alias(m, 0xcafe, 0x9000).unwrap_err();
        assert!(matches!(err, Violation::PrincipalDenied { .. }));
    }

    #[test]
    fn retirement_moves_write_coverage_to_tombstone() {
        let (mut rt, m) = rt_with_module();
        let slot = 0x5000u64;
        let inst = rt.principal_for_name(m, 0x9000);
        rt.grant(inst, RawCap::write(slot, 8));
        rt.grant(inst, RawCap::call(0xf000));
        assert_eq!(rt.writers_of(slot), vec![inst]);

        let sweep = rt.retire_module(m);
        assert_eq!(sweep.principals_retired, 3, "shared + global + instance");
        assert_eq!(sweep.write_caps_moved, 1);
        assert_eq!(sweep.call_caps_dropped, 1);

        // The slot the dead module wrote keeps a writer on record: the
        // tombstone, which holds no CALL capability, so the indirect
        // call is refused instead of falling through the empty-writer
        // fast exit (the unsound outcome naive revocation would give).
        let ts = rt.tombstone().expect("tombstone created");
        assert_eq!(rt.writers_of(slot), vec![ts]);
        let err = rt.check_indcall(slot, 0xf000, 0).unwrap_err();
        assert_eq!(
            err,
            Violation::IndCallUnauthorized {
                slot,
                target: 0xf000,
                writer: ts,
            }
        );
        assert_eq!(err.culprit(), Some(ts));

        // Retired principals hold nothing and read as retired.
        for p in [inst, rt.shared_principal(m), rt.global_principal(m)] {
            assert!(rt.is_retired(p));
            assert_eq!(rt.cap_count(p), 0);
        }
        assert!(!rt.is_retired(ts), "the tombstone is immortal");
        let (live, retired) = rt.principal_gauges();
        assert_eq!(retired, 3);
        assert_eq!(live as usize, rt.principal_count() - 3);

        // Retiring again is a no-op (idempotent quarantine).
        let again = rt.retire_module(m);
        assert_eq!(again.principals_retired, 0);
        assert_eq!(again.write_caps_moved, 0);
    }

    #[test]
    fn tombstone_coverage_drains_through_legitimate_channels() {
        let (mut rt, m) = rt_with_module();
        let slot = 0x5000u64;
        let inst = rt.principal_for_name(m, 0x9000);
        rt.grant(inst, RawCap::write(slot, 8));
        rt.retire_module(m);
        let ts = rt.tombstone().unwrap();
        assert_eq!(rt.writers_of(slot), vec![ts]);

        // Freeing the memory (kfree sweep) removes the tombstone's
        // coverage like any writer's — the slot is clean again, which is
        // sound because the poisoned value is gone with the memory.
        rt.revoke_write_overlapping_everywhere(slot, 8);
        assert!(rt.writers_of(slot).is_empty());
        assert!(rt.check_indcall(slot, 0xf000, 0).is_ok());
    }

    #[test]
    fn transfer_revokes_from_every_principal() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let b = rt.principal_for_name(m, 0xa000);
        let cap = RawCap::write(0x5000, 64);
        rt.grant(a, cap);
        rt.grant(b, cap);
        rt.revoke_everywhere(cap);
        assert!(!rt.owns(a, cap));
        assert!(!rt.owns(b, cap));
    }

    #[test]
    fn check_write_in_kernel_context_is_free() {
        let (mut rt, _m) = rt_with_module();
        rt.check_write(0x1234, 8).unwrap();
    }

    #[test]
    fn check_write_module_requires_capability() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.set_current(Some((m, p)));
        let err = rt.check_write(0x5000, 8).unwrap_err();
        assert!(matches!(err, Violation::MissingWrite { .. }));
        rt.grant(p, RawCap::write(0x5000, 64));
        rt.check_write(0x5000, 8).unwrap();
        rt.check_write(0x5038, 8).unwrap();
        assert!(rt.check_write(0x5040, 8).is_err());
    }

    #[test]
    fn unrelated_revoke_does_not_evict_guard_cache() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let b = rt.principal_for_name(m, 0xa000);
        rt.grant(a, RawCap::write(0x5000, 64));
        rt.grant(b, RawCap::write(0x6000, 64));
        rt.set_current(Some((m, a)));
        rt.check_write(0x5000, 8).unwrap(); // prime a's cache
        rt.stats.reset();
        // Revoking b's (unrelated) capability must not bump a's epoch…
        let epoch_before = rt.write_epoch(a);
        rt.revoke(b, RawCap::write(0x6000, 64));
        assert_eq!(rt.write_epoch(a), epoch_before);
        // …so a's next store still hits the cache.
        rt.check_write(0x5008, 8).unwrap();
        assert_eq!(rt.stats.write_cache_hits, 1);
        assert_eq!(rt.stats.write_cache_misses, 0);
    }

    #[test]
    fn own_revoke_invalidates_guard_cache() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        rt.set_current(Some((m, a)));
        rt.grant(a, RawCap::write(0x5000, 64));
        rt.check_write(0x5000, 8).unwrap();
        rt.revoke(a, RawCap::write(0x5000, 64));
        // The cached interval is stale; the epoch bump must force the
        // table probe, which now denies.
        assert!(rt.check_write(0x5000, 8).is_err());
    }

    #[test]
    fn shared_revoke_invalidates_instance_cache() {
        // The instance's cached interval came from the SHARED table via
        // the §3.1 fallback: revoking from shared must invalidate it.
        let (mut rt, m) = rt_with_module();
        let shared = rt.shared_principal(m);
        let a = rt.principal_for_name(m, 0x9000);
        rt.grant(shared, RawCap::write(0x5000, 64));
        rt.set_current(Some((m, a)));
        rt.check_write(0x5000, 8).unwrap(); // cached under a, via shared
        rt.revoke(shared, RawCap::write(0x5000, 64));
        assert!(
            rt.check_write(0x5000, 8).is_err(),
            "stale shared-derived interval must not survive the revoke"
        );
    }

    #[test]
    fn transfer_invalidates_every_holder_cache() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let cap = RawCap::write(0x5000, 64);
        rt.grant(a, cap);
        rt.set_current(Some((m, a)));
        rt.check_write(0x5000, 8).unwrap();
        rt.revoke_everywhere(cap);
        assert!(rt.check_write(0x5000, 8).is_err());
    }

    #[test]
    fn call_revoke_does_not_bump_write_epoch() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        rt.grant(a, RawCap::call(0xf000));
        let before = rt.write_epoch(a);
        rt.revoke(a, RawCap::call(0xf000));
        assert_eq!(
            rt.write_epoch(a),
            before,
            "CALL revokes leave the write cache alone"
        );
    }

    #[test]
    fn failed_revoke_bumps_nothing() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let before = rt.write_epoch(a);
        assert!(!rt.revoke(a, RawCap::write(0x5000, 64)));
        assert_eq!(rt.write_epoch(a), before);
        assert_eq!(rt.stats.epoch_bumps, 0);
    }

    #[test]
    fn disabled_cache_still_decides_identically() {
        let (mut rt, m) = rt_with_module();
        rt.guard_cache_enabled = false;
        let a = rt.principal_for_name(m, 0x9000);
        rt.set_current(Some((m, a)));
        rt.grant(a, RawCap::write(0x5000, 64));
        rt.check_write(0x5000, 8).unwrap();
        rt.check_write(0x5000, 8).unwrap();
        assert_eq!(rt.stats.write_cache_hits, 0, "cache bypassed");
        assert_eq!(rt.stats.write_cache_misses, 0);
        assert!(rt.check_write(0x6000, 8).is_err());
    }

    #[test]
    fn sharded_runtime_answers_match_unsharded() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let b = rt.principal_for_name(m, 0xa000);
        rt.grant(a, RawCap::write(0x5000, 0x100));
        rt.grant(b, RawCap::write(0x5080, 0x100));
        let before_a = rt.writers_of(0x5080);
        // Re-sharding rebuilds the index from live grants; answers and
        // invariants must be unchanged.
        rt.set_shard_boundaries(vec![0x5080, 0x5100]);
        rt.check_index_invariants();
        assert_eq!(rt.index_shard_count(), 3);
        assert_eq!(rt.writers_of(0x5080), before_a);
        assert_eq!(rt.writers_of(0x5080), rt.writers_of_linear(0x5080));
        rt.revoke(b, RawCap::write(0x5080, 0x100));
        assert_eq!(rt.writers_of(0x5080), vec![a]);
    }

    #[test]
    fn kfree_hint_bounds_the_sweep_to_present_principals() {
        // Three principals in three different shards; freeing a region
        // in shard 1 must visit only the principal present there, and
        // the debug assertion cross-checks the full walk.
        let core = RuntimeCore::with_shard_boundaries(vec![0x2000, 0x4000]);
        let mut rt: GuardHandle = GuardHandle::new(Arc::new(core));
        let m = rt.register_module("kfree");
        let a = rt.principal_for_name(m, 0x9000); // shard 0
        let b = rt.principal_for_name(m, 0xa000); // shard 1
        let c = rt.principal_for_name(m, 0xb000); // shard 2
        rt.grant(a, RawCap::write(0x1000, 0x100));
        rt.grant(b, RawCap::write(0x3000, 0x100));
        rt.grant(c, RawCap::write(0x5000, 0x100));
        rt.stats.reset();
        rt.revoke_write_overlapping_everywhere(0x3000, 0x80);
        assert!(!rt.owns(b, RawCap::write(0x3000, 8)), "b's grant revoked");
        assert!(rt.owns(a, RawCap::write(0x1000, 8)), "a untouched");
        assert!(rt.owns(c, RawCap::write(0x5000, 8)), "c untouched");
        assert_eq!(rt.stats.kfree_hint_visited, 1, "only b visited");
        // a, c, and the module's shared+global principals were skipped.
        assert_eq!(rt.stats.kfree_hint_skipped, 4);
        rt.check_index_invariants();
    }

    #[test]
    fn kernel_stack_writes_always_allowed() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.set_current(Some((m, p)));
        rt.check_write(0xffff_9000_0000_0100, 16).unwrap();
        assert!(rt.check_write(0xffff_9000_0000_4000, 8).is_err());
    }

    #[test]
    fn indcall_fast_path_when_slot_clean() {
        let (mut rt, _m) = rt_with_module();
        rt.check_indcall(0x7000, 0xdead_beef, 42).unwrap();
        assert_eq!(rt.stats.count(GuardKind::KernelIndCall), 1);
    }

    #[test]
    fn indcall_rejects_user_space_target() {
        // The RDS exploit: the slot is module-writable and points into
        // user space; the writer has no CALL capability for that address.
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.grant(p, RawCap::write(0x7000, 8));
        let err = rt.check_indcall(0x7000, 0x0000_1000, 42).unwrap_err();
        assert!(matches!(err, Violation::IndCallUnauthorized { .. }));
    }

    #[test]
    fn indcall_rejects_unregistered_target_even_with_call_cap() {
        // Defense in depth: a CALL capability for a non-function address
        // still fails the registry lookup.
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.grant(p, RawCap::write(0x7000, 8));
        rt.grant(p, RawCap::call(0x0000_1000));
        let err = rt.check_indcall(0x7000, 0x0000_1000, 42).unwrap_err();
        assert!(matches!(err, Violation::NotAFunction { .. }));
    }

    #[test]
    fn indcall_rejects_annotation_mismatch() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.grant(p, RawCap::write(0x7000, 8));
        rt.grant(p, RawCap::call(0xf000));
        rt.register_function(
            0xf000,
            FnMeta {
                name: "my_xmit".into(),
                ahash: 7,
                module: Some(m),
            },
        );
        let err = rt.check_indcall(0x7000, 0xf000, 8).unwrap_err();
        assert!(matches!(err, Violation::AnnotationMismatch { .. }));
        rt.check_indcall(0x7000, 0xf000, 7).unwrap();
    }

    #[test]
    fn indcall_rejects_writer_without_call_cap() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.grant(p, RawCap::write(0x7000, 8));
        rt.register_function(
            0xf000,
            FnMeta {
                name: "detach_pid".into(),
                ahash: 7,
                module: None,
            },
        );
        let err = rt.check_indcall(0x7000, 0xf000, 7).unwrap_err();
        assert!(matches!(err, Violation::IndCallUnauthorized { .. }));
    }

    #[test]
    fn note_zeroed_restores_fast_path() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        let cap = RawCap::write(0x7000, 64);
        rt.grant(p, cap);
        assert!(!rt.writer_clean(0x7000));
        // While the capability is held, zeroing must NOT clean the slot.
        rt.note_zeroed(0x7000, 64);
        assert!(!rt.writer_clean(0x7000));
        rt.revoke(p, cap);
        rt.note_zeroed(0x7000, 64);
        assert!(rt.writer_clean(0x7000));
        rt.check_indcall(0x7000, 0x1, 0).unwrap();
    }

    #[test]
    fn wrapper_tokens_validate() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        let tok = rt.wrapper_enter(Some((m, p)));
        assert_eq!(rt.current(), Some((m, p)));
        rt.wrapper_exit(tok).unwrap();
        assert_eq!(rt.current(), None);
        assert_eq!(rt.stats.count(GuardKind::FunctionEntry), 1);
        assert_eq!(rt.stats.count(GuardKind::FunctionExit), 1);
    }

    #[test]
    fn ref_types_intern_stably() {
        let rt = RuntimeCore::new();
        let a = rt.ref_type("struct pci_dev");
        let b = rt.ref_type("struct pci_dev");
        let c = rt.ref_type("io_port");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(rt.ref_type_name(a), "struct pci_dev");
    }
}
