//! The LXFI runtime (§5): principals, capability operations,
//! control-transfer interposition, indirect-call checks answered by the
//! reverse writer index, and guard accounting.
//!
//! # Concurrency architecture
//!
//! The runtime is split in two:
//!
//! - [`RuntimeCore`] is the **shared world**: the module registry
//!   (instance lists, pointer names, retirement) behind the `meta`
//!   `RwLock`; a chunked principal slot table, lock-free to index, whose
//!   slots hold each principal's immutable kind, module and shared and
//!   global principals, its write epoch (an atomic) and its CALL/REF
//!   table (behind its own `caps` mutex); the reverse writer index
//!   ([`WriterIndex`]: per-shard locks keyed by address-region
//!   boundaries fixed at construction), which is the only WRITE
//!   capability table; and the interned-ID tables (REF types,
//!   iterators, constants, the function registry) behind `RwLock`s.
//!   Everything takes `&self`; the type is `Send + Sync` and meant to
//!   live in an `Arc`.
//! - [`crate::GuardHandle`] is the **per-thread view**, and the only one:
//!   each simulated kernel CPU and each benchmark worker owns one. It
//!   holds its own shadow stack, kernel-stack window, epoch-validated
//!   write-guard cache, and `GuardStats`, so concurrent guarded stores
//!   from different threads hit their private caches without any shared
//!   write. It `Deref`s to the core, so shared operations need no
//!   forwarding; only grant/revoke traffic and guard misses take locks
//!   (a WRITE grant or revoke takes only the affected shards).
//!
//! # Locking and soundness discipline
//!
//! Lock order (outer → inner): `meta` → per-principal `caps` mutex, and
//! separately the index's `straddle` mutex → per-shard mutex. The two
//! chains never nest: WRITE capabilities take no `caps` mutex, and no
//! path holds a shard lock while it takes `meta` or `caps`. A shard lock
//! is a leaf: the writer index holds one at a time and calls out of
//! none but its own holder predicates, which read only the lock-free
//! slot fields (see [`crate::writer_index`]). No path takes two `caps`
//! mutexes at once; CALL/REF fallback probes (instance → shared,
//! global → union) lock one table at a time.
//!
//! The write-guard soundness invariant under races — *after a revoke
//! returns, no stale cached grant can authorize a write* — follows from
//! three ordering rules, each enforced here:
//!
//! 1. a revoke removes coverage from the writer index **before**
//!    bumping the affected epochs (so a guard that re-probes can never
//!    re-cache the dying interval under the new epoch);
//! 2. a guard reads the principal's epoch **before** probing the index
//!    and stamps the cache with that pre-probe value (so the stamp is
//!    never newer than a revocation that raced the probe);
//! 3. a shared principal's epoch bump traverses the module's instances
//!    under the `meta` read lock, and principal creation takes the
//!    `meta` write lock (so an instance born before a shared-revoke's
//!    bump sweep is always included in it). An instance's or global
//!    principal's bump reaches only principals fixed at its creation,
//!    read from its slot without a lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use lxfi_machine::{AddressSpace, Word};

use crate::caps::{CapSet, CapType, RawCap, RefTypeId};
use crate::principal::{ModuleId, ModuleInfo, PrincipalId, PrincipalKind};
use crate::shadow::PrincipalCtx;
use crate::stats::GuardStats;
use crate::writer_index::WriterIndex;
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

/// A principal's place in the §3.1 hierarchy, fixed at registration
/// and read from its slot without a lock.
#[derive(Debug, Clone, Copy)]
struct PrincipalInfo {
    module: ModuleId,
    kind: PrincipalKind,
    /// The module's shared principal. Its global principal is always
    /// the next id: [`RuntimeCore::register_module`] creates the two
    /// together.
    shared: PrincipalId,
}

/// Registry state behind the `meta` lock: the modules with their
/// instance lists and pointer-name maps, and which principals are
/// retired.
#[derive(Debug, Default)]
struct Meta {
    /// One flag per principal. Retired principals (their module was
    /// quarantined or unloaded) hold no CALL or REF capabilities, are
    /// skipped by CALL/REF revocation walks, and are never current
    /// again. Their WRITE grants stay as past-writer records (see
    /// [`RuntimeCore::retire_module`]). Ids are stable — slots are not
    /// reused — so a retired id in a writer-index entry stays meaningful.
    retired: Vec<bool>,
    modules: Vec<ModuleInfo>,
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

/// One principal's state: its hierarchy place (set once at
/// registration), the write epoch (atomic, read lock-free by every
/// guard) and the CALL/REF table (mutex, taken by CALL/REF grants,
/// revokes and checks).
#[derive(Debug, Default)]
struct PrincipalSlot {
    info: OnceLock<PrincipalInfo>,
    epoch: AtomicU64,
    caps: Mutex<CapSet>,
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
    #[inline]
    fn get(&self, i: usize) -> &PrincipalSlot {
        &self.chunks[i / SLOT_CHUNK]
            .get()
            .expect("principal registered")[i % SLOT_CHUNK]
    }
}

/// Result of a `kfree`-style sweep
/// ([`RuntimeCore::revoke_write_overlapping_everywhere`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct KfreeSweep {
    /// Per-principal epoch bumps the sweep caused.
    pub epoch_bumps: u64,
    /// Principals visited: the freed range's WRITE holders.
    pub visited: u64,
}

/// The shared, thread-safe half of the runtime. See the module docs for
/// the state split and the locking discipline. All methods take
/// `&self`; wrap it in an [`Arc`] and hand [`crate::GuardHandle`]s to
/// worker threads.
pub struct RuntimeCore {
    meta: RwLock<Meta>,
    slots: SlotTable,
    /// The reverse writer index (§5), sharded once at construction.
    pub(crate) index: WriterIndex,
    names: RwLock<Names>,
    /// Annotation hash (`ahash`) per registered function address.
    fns: RwLock<HashMap<Word, u64>>,
    /// Merged per-thread handle stats (handles flush here on drop or via
    /// [`crate::GuardHandle::flush_stats`]).
    stats: Mutex<GuardStats>,
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
    /// points (the unit of both update locality and lock granularity),
    /// fixed for the core's lifetime.
    pub fn with_shard_boundaries(boundaries: Vec<Word>) -> Self {
        RuntimeCore {
            meta: RwLock::new(Meta::default()),
            slots: SlotTable::new(),
            index: WriterIndex::with_boundaries(boundaries),
            names: RwLock::new(Names::default()),
            fns: RwLock::new(HashMap::new()),
            stats: Mutex::new(GuardStats::new()),
        }
    }

    #[inline]
    fn slot(&self, p: PrincipalId) -> &PrincipalSlot {
        self.slots.get(p.0 as usize)
    }

    /// A registered principal's hierarchy place (lock-free).
    #[inline]
    fn info(&self, p: PrincipalId) -> PrincipalInfo {
        *self.slot(p).info.get().expect("principal registered")
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
        let module = ModuleId(meta.modules.len() as u32);
        let shared = PrincipalId(meta.retired.len() as u32);
        let global = PrincipalId(shared.0 + 1);
        for kind in [PrincipalKind::Shared, PrincipalKind::Global] {
            let info = PrincipalInfo {
                module,
                kind,
                shared,
            };
            self.new_principal_locked(&mut meta, info);
        }
        meta.modules
            .push(ModuleInfo::new(name.to_string(), shared, global));
        module
    }

    fn new_principal_locked(&self, meta: &mut Meta, info: PrincipalInfo) -> PrincipalId {
        let id = PrincipalId(meta.retired.len() as u32);
        self.slots.ensure(id.0 as usize);
        self.slot(id).info.set(info).expect("fresh slot");
        meta.retired.push(false);
        id
    }

    /// Number of registered principals.
    pub fn principal_count(&self) -> usize {
        self.meta.read().expect("meta lock").retired.len()
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

    /// Every non-retired principal of a module: shared and global first,
    /// then the live instances (module-teardown enumeration).
    pub fn module_principals(&self, mid: ModuleId) -> Vec<PrincipalId> {
        let meta = self.meta.read().expect("meta lock");
        meta.modules[mid.0 as usize]
            .all_principals()
            .filter(|&p| !meta.retired[p.0 as usize])
            .collect()
    }

    /// The module a principal belongs to (lock-free).
    pub fn principal_module(&self, p: PrincipalId) -> ModuleId {
        self.info(p).module
    }

    // --------------------------------------------------- principal naming

    /// Resolves the principal named by pointer `name`, creating a fresh
    /// instance principal on first use (a module invocation with a
    /// `principal(ptr)` annotation is the instance's birth). A known
    /// name resolves under the `meta` read lock; only a birth takes the
    /// write lock.
    pub fn principal_for_name(&self, module: ModuleId, name: Word) -> PrincipalId {
        let known = |meta: &Meta| meta.modules[module.0 as usize].lookup_name(name);
        if let Some(p) = known(&self.meta.read().expect("meta lock")) {
            return p;
        }
        let mut meta = self.meta.write().expect("meta lock");
        if let Some(p) = known(&meta) {
            return p; // born while this thread waited for the lock
        }
        let info = PrincipalInfo {
            module,
            kind: PrincipalKind::Instance,
            shared: meta.modules[module.0 as usize].shared,
        };
        let p = self.new_principal_locked(&mut meta, info);
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

    /// Whether a principal has been retired.
    pub fn is_retired(&self, p: PrincipalId) -> bool {
        self.meta.read().expect("meta lock").retired[p.0 as usize]
    }

    /// `(live, retired)` principal counts — the leak gauges module churn
    /// is regression-tested against.
    pub fn principal_gauges(&self) -> (u64, u64) {
        let meta = self.meta.read().expect("meta lock");
        let retired = meta.retired.iter().filter(|&&r| r).count() as u64;
        (meta.retired.len() as u64 - retired, retired)
    }

    /// Retires every principal of a module: CALL and REF capabilities
    /// are discarded, each principal's write epoch is bumped once (so no
    /// cached positive guard decision survives), the module's instance
    /// registry and pointer names are cleared, and each principal is
    /// marked retired. Returns the epoch bumps.
    ///
    /// WRITE grants stay in the reverse writer index: they record that
    /// the dead module may have written those bytes since they were last
    /// zeroed (§5). A function-pointer slot it poisoned therefore keeps
    /// a writer that holds no CALL capability, and the indirect-call
    /// check refuses the slot (`IndCallUnauthorized` naming the retired
    /// principal) instead of taking the no-holder fast exit and
    /// dispatching the planted pointer with kernel privilege. The records drain through the
    /// channels that drain any writer's, all of which ask the index for
    /// the range's holders: `kfree` sweeps, window scrubs at slot reuse,
    /// and WRITE transfers or revocations over reused memory.
    ///
    /// The caller must guarantee no code runs under these principals any
    /// more (the kernel's quarantine path drains in-flight executions
    /// through its RCU grace period first).
    pub fn retire_module(&self, mid: ModuleId) -> u64 {
        let mut meta = self.meta.write().expect("meta lock");
        let victims: Vec<PrincipalId> = meta.modules[mid.0 as usize]
            .all_principals()
            .filter(|&p| !meta.retired[p.0 as usize])
            .collect();
        for &p in &victims {
            let slot = self.slot(p);
            {
                let mut caps = slot.caps.lock().expect("caps lock");
                caps.call.clear();
                caps.refs.clear();
            }
            slot.epoch.fetch_add(1, Ordering::AcqRel);
            meta.retired[p.0 as usize] = true;
        }
        let m = &mut meta.modules[mid.0 as usize];
        m.instances.clear();
        m.names.clear();
        victims.len() as u64
    }

    // ------------------------------------------------------- capabilities

    /// Grants a capability to a principal. A WRITE grant is an entry in
    /// the reverse writer index (§5), the only WRITE table, so the
    /// indirect-call check sees the writer before the holder's guard can
    /// authorize a store. Grants never bump write epochs: added
    /// authority cannot invalidate a cached positive guard decision.
    pub fn grant(&self, p: PrincipalId, cap: RawCap) {
        if cap.ctype == CapType::Write {
            self.index.add(p, cap.addr, cap.size);
        } else {
            self.slot(p).caps.lock().expect("caps lock").grant(cap);
        }
    }

    /// Revokes a capability from one principal; returns whether it was
    /// held and how many write epochs were bumped. A successful WRITE
    /// revocation removes the grant's index entry **before** bumping
    /// the epochs of exactly the principals whose observable coverage
    /// shrank; every other principal's guard cache survives untouched.
    pub fn revoke(&self, p: PrincipalId, cap: RawCap) -> (bool, u64) {
        if cap.ctype != CapType::Write {
            return (self.slot(p).caps.lock().expect("caps lock").revoke(cap), 0);
        }
        if !self.index.remove(p, cap.addr, cap.size) {
            return (false, 0);
        }
        (true, self.bump_write_epochs(p))
    }

    /// Bumps the write epoch of `p` and of every principal whose
    /// write-guard coverage can *observe* `p`'s WRITE grants through the
    /// §3.1 hierarchy fallbacks:
    ///
    /// - revoking from an **instance** also invalidates the module's
    ///   global principal (it unions every instance);
    /// - revoking from the **shared** principal invalidates every
    ///   instance (they fall back to shared) and the global principal;
    /// - revoking from the **global** principal invalidates only itself
    ///   (nobody falls back to global).
    ///
    /// A shared principal's sweep of the instances runs under the `meta`
    /// read lock, so instances created concurrently (under the write
    /// lock) are either fully born and swept, or born after the sweep —
    /// in which case their coverage was probed only after this
    /// revocation's index update. The other two cases read the slot
    /// without a lock.
    fn bump_write_epochs(&self, p: PrincipalId) -> u64 {
        let info = self.info(p);
        let global = PrincipalId(info.shared.0 + 1);
        let bump = |q: PrincipalId| {
            self.slot(q).epoch.fetch_add(1, Ordering::AcqRel);
        };
        bump(p);
        match info.kind {
            PrincipalKind::Global => 1,
            PrincipalKind::Instance => {
                bump(global);
                2
            }
            PrincipalKind::Shared => {
                bump(global);
                let meta = self.meta.read().expect("meta lock");
                let instances = &meta.modules[info.module.0 as usize].instances;
                instances.iter().for_each(|&q| bump(q));
                2 + instances.len() as u64
            }
        }
    }

    /// Revokes each of `caps` — CALL or REF capabilities — from **every**
    /// principal in the system, in one walk of the live principals:
    /// `transfer` semantics (§3.3), no stale copies survive. Retired
    /// principals hold neither kind and are skipped. Neither kind feeds
    /// a write guard, so no epoch moves. A WRITE capability is revoked
    /// from everyone by [`RuntimeCore::transfer_write`] with no
    /// destination, which asks the reverse writer index for its holders.
    pub fn revoke_everywhere(&self, caps: &[RawCap]) {
        debug_assert!(
            caps.iter().all(|c| c.ctype != CapType::Write),
            "WRITE caps go through transfer_write"
        );
        let meta = self.meta.read().expect("meta lock");
        for (i, &retired) in meta.retired.iter().enumerate() {
            if retired {
                continue;
            }
            let slot = self.slot(PrincipalId(i as u32));
            let mut table = slot.caps.lock().expect("caps lock");
            for &cap in caps {
                table.revoke(cap);
            }
        }
    }

    /// `transfer` semantics for a WRITE capability: revoke `cap` from
    /// everyone, then grant it to `dst` (if any), in one pass over the
    /// shards the range touches ([`WriterIndex::transfer`]). The index
    /// names the range's writers into `holders` (a caller-owned buffer),
    /// so only they are visited — never the whole principal list. The
    /// fast path is the per-packet skb case of **at most one** writer;
    /// several writers take the slow path through the same pass.
    /// Returns `(fast_path_taken, epoch_bumps)`.
    ///
    /// Each shard gains `dst`'s entry under the same lock as it loses
    /// the old holders', so a racing indirect-call lookup sees the old
    /// or the new holder, never neither. The holders that lost the grant
    /// have their epochs bumped after the whole pass (rule 1). A holder
    /// that is `dst` itself keeps its grant and its epochs: its
    /// authority does not shrink. Bystanders with other grants over the
    /// range keep theirs.
    pub fn transfer_write(
        &self,
        cap: RawCap,
        dst: Option<PrincipalId>,
        holders: &mut Vec<PrincipalId>,
    ) -> (bool, u64) {
        debug_assert_eq!(cap.ctype, CapType::Write);
        let moved = self.index.transfer(cap.addr, cap.size, dst, holders);
        let bumps = holders[..moved]
            .iter()
            .map(|&h| self.bump_write_epochs(h))
            .sum();
        (holders.len() <= 1, bumps)
    }

    /// Revokes all WRITE capabilities overlapping `[addr, addr+size)` from
    /// every principal that holds any (used by `kfree`: freed memory must
    /// have no outstanding capabilities), in one pass over the shards
    /// the range and the removed grants touch. The removed grants'
    /// holders are named into `holders` (a caller-owned buffer, cleared
    /// first) and their epochs bumped after the pass.
    pub fn revoke_write_overlapping_everywhere(
        &self,
        addr: Word,
        size: u64,
        holders: &mut Vec<PrincipalId>,
    ) -> KfreeSweep {
        holders.clear();
        self.index.remove_overlapping(addr, size, |p| {
            if !holders.contains(&p) {
                holders.push(p);
            }
            true
        });
        KfreeSweep {
            epoch_bumps: holders.iter().map(|&p| self.bump_write_epochs(p)).sum(),
            visited: holders.len() as u64,
        }
    }

    /// Revokes all of **one** principal's WRITE coverage overlapping
    /// `[addr, addr+size)`, partially intersected grants whole (the
    /// [`RuntimeCore::revoke_write_overlapping_everywhere`] semantics
    /// applied to a single holder). Module teardown uses this to return
    /// the kernel-stack grants of §3.2 before retirement keeps the rest
    /// of a dead module's coverage as past-writer records: stacks outlive
    /// the module and must not stay poisoned. Returns the epoch bumps.
    pub fn revoke_write_overlapping(&self, p: PrincipalId, addr: Word, size: u64) -> u64 {
        let mut removed = false;
        self.index.remove_overlapping(addr, size, |h| {
            removed |= h == p;
            h == p
        });
        if !removed {
            return 0;
        }
        self.bump_write_epochs(p)
    }

    /// Ownership test with the principal-hierarchy semantics of §3.1:
    /// an instance principal falls back to the module's shared principal;
    /// the global principal owns anything any principal of its module
    /// owns. WRITE is *coverage* ([`RuntimeCore::write_covering`]): one
    /// grant must contain the whole range, so a capability for a whole
    /// slab object satisfies a check on an interior field. CALL and REF
    /// probes lock one table at a time; an instance's CALL probe tries
    /// the shared table first, where a module's imports are granted at
    /// load.
    pub fn owns(&self, p: PrincipalId, cap: RawCap) -> bool {
        if cap.ctype == CapType::Write {
            return cap.size == 0 || self.write_covering(p, cap.addr, cap.size).is_some();
        }
        let info = self.info(p);
        let probe = |q: PrincipalId| self.slot(q).caps.lock().expect("caps lock").owns(cap);
        match info.kind {
            PrincipalKind::Shared => probe(p),
            PrincipalKind::Instance if cap.ctype == CapType::Call => probe(info.shared) || probe(p),
            PrincipalKind::Instance => probe(p) || probe(info.shared),
            PrincipalKind::Global => self.meta.read().expect("meta lock").modules
                [info.module.0 as usize]
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

    /// The covering interval behind a successful WRITE ownership test:
    /// one covering query in the shard holding `addr`, whose holder
    /// predicate is the §3.1 hierarchy — an instance matches itself or
    /// its shared principal, a shared principal matches itself, and a
    /// global principal matches any principal of its module.
    pub fn write_covering(&self, p: PrincipalId, addr: Word, len: u64) -> Option<(Word, Word)> {
        let info = self.info(p);
        self.index.covering(addr, len, |h| match info.kind {
            PrincipalKind::Shared => h == p,
            PrincipalKind::Instance => h == p || h == info.shared,
            PrincipalKind::Global => self.info(h).module == info.module,
        })
    }

    /// True if one of `p`'s own grants overlaps the range (diagnostics).
    pub fn write_overlaps(&self, p: PrincipalId, addr: Word, len: u64) -> bool {
        let mut writers = Vec::new();
        self.collect_writers(addr, len, &mut writers);
        writers.contains(&p)
    }

    /// Number of capabilities a principal holds directly (diagnostics).
    pub fn cap_count(&self, p: PrincipalId) -> usize {
        self.slot(p).caps.lock().expect("caps lock").len() + self.index.holder_entry_count(p)
    }

    // ---------------------------------------------------------- functions

    /// Registers a function address with its annotation hash.
    pub fn register_function(&self, addr: Word, ahash: u64) {
        self.fns.write().expect("fns lock").insert(addr, ahash);
    }

    /// Unregisters a function address (module-window reuse: the dead
    /// tenant's annotation hashes must not answer for the new one's
    /// addresses).
    pub fn unregister_function(&self, addr: Word) {
        self.fns.write().expect("fns lock").remove(&addr);
    }

    /// The annotation hash of a registered function.
    pub fn function_ahash(&self, addr: Word) -> Option<u64> {
        self.fns.read().expect("fns lock").get(&addr).copied()
    }

    /// Principals (from any module) holding WRITE coverage of any byte of
    /// `[addr, addr+len)` — the indirect-call check's one query, answered
    /// by the reverse writer index in O(log entries + overlapping
    /// entries) instead of the paper's global principal-list traversal
    /// (§5). Appends the deduplicated writers to `out`.
    pub fn collect_writers(&self, addr: Word, len: u64, out: &mut Vec<PrincipalId>) {
        self.index.collect_writers(addr, len, out);
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

    // ------------------------------------------------ index diagnostics

    /// Writer-index entries across all shards (diagnostics): one per
    /// WRITE grant and shard it touches.
    pub fn index_interval_count(&self) -> usize {
        self.index.entry_count()
    }

    /// Distinct principals holding a WRITE record in the writer index,
    /// retired ones included (diagnostics; the leak gauges read it).
    pub fn index_set_count(&self) -> usize {
        self.index.writer_count()
    }

    /// Panics unless the writer index is well-formed: every shard in
    /// order with exact prefix maxima, and every grant stored in each
    /// shard it touches and no other (test/proptest hook; call it while
    /// no thread mutates capabilities).
    #[doc(hidden)]
    pub fn check_index_invariants(&self) {
        self.index.check_invariants();
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

    /// A retired principal's WRITE records stay in its table and in the
    /// writer index after retirement.
    #[test]
    fn retirement_moves_write_coverage_to_tombstone() {
        let (mut rt, m) = rt_with_module();
        let slot = 0x5000u64;
        let inst = rt.principal_for_name(m, 0x9000);
        rt.grant(inst, RawCap::write(slot, 8));
        rt.grant(inst, RawCap::call(0xf000));
        let dead = [inst, rt.shared_principal(m), rt.global_principal(m)];
        let epochs = dead.map(|p| rt.write_epoch(p));

        rt.retire_module(m);
        // The record stays: the dead instance is still the slot's
        // writer, in its table and in the index. Only the CALL is gone,
        // and every principal of the module bumped its epoch once.
        assert_eq!(rt.writers_of(slot), vec![inst]);
        assert_eq!(rt.cap_count(inst), 1);
        for (p, e) in dead.into_iter().zip(epochs) {
            assert!(rt.is_retired(p));
            assert_eq!(rt.write_epoch(p), e + 1);
        }
        let (live, retired) = rt.principal_gauges();
        assert_eq!(retired, 3, "shared + global + instance");
        assert_eq!(live as usize, rt.principal_count() - 3);

        // A pointer the dead module planted is refused, naming the dead
        // instance, instead of falling through the no-writer fast exit.
        let err = rt.check_indcall(slot, 0xf000, 0).unwrap_err();
        assert_eq!(
            err,
            Violation::IndCallUnauthorized {
                slot,
                target: 0xf000,
                writer: inst,
            }
        );
        assert_eq!(err.culprit(), Some(inst));

        // Retiring again is a no-op (idempotent quarantine).
        rt.retire_module(m);
        assert_eq!(rt.write_epoch(inst), epochs[0] + 1);
        assert_eq!(rt.writers_of(slot), vec![inst]);
        rt.check_index_invariants();
    }

    /// The WRITE records a retired principal keeps drain like any
    /// writer's: a kfree sweep, a transfer to a new owner, and a
    /// transfer to nobody each find the retired holder through the index.
    #[test]
    fn tombstone_coverage_drains_through_legitimate_channels() {
        let (mut rt, m) = rt_with_module();
        let slots = [0x5000u64, 0x6000, 0x7000];
        let inst = rt.principal_for_name(m, 0x9000);
        for slot in slots {
            rt.grant(inst, RawCap::write(slot, 8));
        }
        rt.retire_module(m);
        for slot in slots {
            assert_eq!(rt.writers_of(slot), vec![inst]);
        }

        let heir = rt.shared_principal(rt.register_module("heir"));
        rt.revoke_write_overlapping_everywhere(slots[0], 8);
        rt.transfer_cap(RawCap::write(slots[1], 8), Some(heir));
        rt.transfer_cap(RawCap::write(slots[2], 8), None);
        assert!(rt.writers_of(slots[0]).is_empty());
        assert_eq!(rt.writers_of(slots[1]), vec![heir]);
        assert!(rt.writers_of(slots[2]).is_empty());
        // Freeing the memory leaves the slot clean again, which is sound
        // because the poisoned value is gone with the memory.
        assert!(rt.check_indcall(slots[0], 0xf000, 0).is_ok());
        assert!(rt.check_indcall(slots[2], 0xf000, 0).is_ok());
        assert_eq!(rt.cap_count(inst), 0);
        rt.check_index_invariants();
    }

    #[test]
    fn transfer_revokes_from_every_principal() {
        let (mut rt, m) = rt_with_module();
        let a = rt.principal_for_name(m, 0x9000);
        let b = rt.principal_for_name(m, 0xa000);
        let cap = RawCap::write(0x5000, 64);
        rt.grant(a, cap);
        rt.grant(b, cap);
        rt.transfer_cap(cap, None);
        assert!(!rt.owns(a, cap));
        assert!(!rt.owns(b, cap));

        // A transfer with several holders revokes `cap` from each one
        // the index names; a bystander with a different, overlapping
        // grant keeps it (and its cached guards).
        let c = rt.principal_for_name(m, 0xb000);
        let d = rt.principal_for_name(m, 0xc000);
        let other = RawCap::write(0x4ff0, 0x20);
        rt.grant(a, cap);
        rt.grant(b, cap);
        rt.grant(c, other);
        let c_epoch = rt.write_epoch(c);
        rt.stats.reset();
        rt.transfer_cap(cap, Some(d));
        assert!(!rt.owns(a, cap));
        assert!(!rt.owns(b, cap));
        assert!(rt.owns(c, other), "bystander keeps its own grant");
        assert_eq!(rt.write_epoch(c), c_epoch, "bystander's epoch unmoved");
        assert!(rt.owns(d, cap));
        assert_eq!(rt.stats.transfer_slow, 1);
        assert_eq!(rt.writers_of(0x5000), vec![c, d]);
        rt.check_index_invariants();
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
        rt.transfer_cap(cap, None);
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
    fn sharded_runtime_answers_match_unsharded() {
        // The same grants on a flat core and on one sharded at the
        // grants' split points: answers and invariants must agree.
        let flat = RuntimeCore::new();
        let sharded = RuntimeCore::with_shard_boundaries(vec![0x5080, 0x5100]);
        assert_eq!(sharded.index.shard_count(), 3);
        let mut ids = Vec::new();
        for rt in [&flat, &sharded] {
            let m = rt.register_module("econet");
            let a = rt.principal_for_name(m, 0x9000);
            let b = rt.principal_for_name(m, 0xa000);
            rt.grant(a, RawCap::write(0x5000, 0x100));
            rt.grant(b, RawCap::write(0x5080, 0x100));
            rt.check_index_invariants();
            ids.push((a, b));
        }
        let (a, b) = ids[0];
        assert_eq!(ids[1], (a, b), "identical principal numbering");
        for probe in [
            0x4ff8, 0x5000, 0x507c, 0x5080, 0x50fc, 0x5100, 0x517c, 0x5180,
        ] {
            assert_eq!(
                sharded.writers_of(probe),
                flat.writers_of(probe),
                "{probe:#x}"
            );
        }
        let walk: Vec<_> = (0..sharded.principal_count() as u32)
            .map(PrincipalId)
            .filter(|&p| sharded.write_overlaps(p, 0x5080, 8))
            .collect();
        assert_eq!(sharded.writers_of(0x5080), walk);
        for rt in [&flat, &sharded] {
            rt.revoke(b, RawCap::write(0x5080, 0x100));
            rt.check_index_invariants();
            assert_eq!(rt.writers_of(0x5080), vec![a]);
        }
    }

    #[test]
    fn kfree_hint_bounds_the_sweep_to_present_principals() {
        // Three principals in three different shards, plus a bystander
        // in b's shard whose grant misses the freed range: the sweep
        // must visit only the range's holder, and the debug assertion
        // cross-checks the full walk.
        let core = RuntimeCore::with_shard_boundaries(vec![0x2000, 0x4000]);
        let mut rt: GuardHandle = GuardHandle::new(Arc::new(core));
        let m = rt.register_module("kfree");
        let a = rt.principal_for_name(m, 0x9000); // shard 0
        let b = rt.principal_for_name(m, 0xa000); // shard 1
        let c = rt.principal_for_name(m, 0xb000); // shard 2
        let d = rt.principal_for_name(m, 0xc000); // shard 1, bystander
        rt.grant(a, RawCap::write(0x1000, 0x100));
        rt.grant(b, RawCap::write(0x3000, 0x100));
        rt.grant(c, RawCap::write(0x5000, 0x100));
        rt.grant(d, RawCap::write(0x3800, 0x100));
        let d_epoch = rt.write_epoch(d);
        rt.stats.reset();
        rt.revoke_write_overlapping_everywhere(0x3000, 0x80);
        assert!(!rt.owns(b, RawCap::write(0x3000, 8)), "b's grant revoked");
        assert!(rt.owns(a, RawCap::write(0x1000, 8)), "a untouched");
        assert!(rt.owns(c, RawCap::write(0x5000, 8)), "c untouched");
        assert!(rt.owns(d, RawCap::write(0x3800, 8)), "d untouched");
        assert_eq!(rt.write_epoch(d), d_epoch, "d's epoch unmoved");
        assert_eq!(rt.stats.kfree_hint_visited, 1, "only b visited");
        rt.check_index_invariants();
    }

    /// One principal's two grants over the same bytes past a shard
    /// boundary are two index entries: revoking either leaves the other
    /// naming the principal as the slot's writer.
    #[test]
    fn overlapping_grants_across_a_shard_boundary_keep_the_slot_refused() {
        const B: u64 = 0x8000;
        let grants = [RawCap::write(B - 8, 16), RawCap::write(B - 16, 24)];
        for first in 0..2 {
            let core = RuntimeCore::with_shard_boundaries(vec![B]);
            let mut rt: GuardHandle = GuardHandle::new(Arc::new(core));
            let p = rt.principal_for_name(rt.register_module("m"), 0x9000);
            for cap in grants {
                rt.grant(p, cap);
            }
            rt.revoke(p, grants[first]);
            rt.check_index_invariants();
            for slot in [B, B + 4] {
                assert_eq!(
                    rt.check_indcall(slot, 0xf000, 0),
                    Err(Violation::IndCallUnauthorized {
                        slot,
                        target: 0xf000,
                        writer: p,
                    }),
                    "grant {} still covers {slot:#x}",
                    1 - first
                );
            }
            rt.revoke(p, grants[1 - first]);
            rt.check_indcall(B, 0xf000, 0).unwrap();
        }
    }

    /// A transfer to the range's sole holder leaves it holding the grant
    /// and indexed, so a pointer it planted stays refused.
    #[test]
    fn transfer_to_the_sole_holder_keeps_it_indexed() {
        let (mut rt, m) = rt_with_module();
        let h = rt.principal_for_name(m, 0x9000);
        let cap = RawCap::write(0x7000, 8);
        rt.grant(h, cap);
        let epoch = rt.write_epoch(h);
        rt.transfer_cap(cap, Some(h));
        assert!(rt.owns(h, cap));
        assert_eq!(rt.writers_of(0x7000), vec![h]);
        assert_eq!(rt.stats.transfer_fast, 1);
        assert_eq!(rt.write_epoch(h), epoch, "its authority did not shrink");
        rt.check_index_invariants();
        assert!(matches!(
            rt.check_indcall(0x7000, 0xf000, 0),
            Err(Violation::IndCallUnauthorized { writer, .. }) if writer == h
        ));
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
        rt.register_function(0xf000, 7);
        let err = rt.check_indcall(0x7000, 0xf000, 8).unwrap_err();
        assert!(matches!(err, Violation::AnnotationMismatch { .. }));
        rt.check_indcall(0x7000, 0xf000, 7).unwrap();
    }

    #[test]
    fn indcall_rejects_writer_without_call_cap() {
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        rt.grant(p, RawCap::write(0x7000, 8));
        rt.register_function(0xf000, 7);
        let err = rt.check_indcall(0x7000, 0xf000, 7).unwrap_err();
        assert!(matches!(err, Violation::IndCallUnauthorized { .. }));
    }

    #[test]
    fn revoke_restores_fast_path() {
        // The fast path means "no holder on record": a revoke returns the
        // slot to it at once, with no zeroing in between.
        let (mut rt, m) = rt_with_module();
        let p = rt.principal_for_name(m, 0x9000);
        let cap = RawCap::write(0x7000, 64);
        rt.grant(p, cap);
        assert!(matches!(
            rt.check_indcall(0x7000, 0x1, 0),
            Err(Violation::IndCallUnauthorized { .. })
        ));
        rt.revoke(p, cap);
        rt.stats.reset();
        rt.check_indcall(0x7000, 0x1, 0).unwrap();
        assert_eq!(rt.stats.count(GuardKind::KernelIndCall), 1);
        assert_eq!(
            rt.stats.cycles(GuardKind::KernelIndCall),
            rt.costs.ind_call_fast
        );
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
