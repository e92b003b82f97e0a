//! The per-thread guard executor over the shared [`RuntimeCore`].
//!
//! A [`GuardHandle`] is the one per-thread guard type: each simulated
//! kernel CPU owns one, and so does every benchmark or stress worker.
//! It holds what the paper's runtime (§5) keeps per kernel thread — the
//! shadow stack with the current principal and the kernel-stack window —
//! plus a private `WAYS`-way epoch-validated write-guard cache, its own
//! [`GuardStats`], and the reusable buffers the guards and annotation
//! actions work in. Everything shared is reached through
//! `Deref<Target = RuntimeCore>`, so `h.grant(..)`, `h.owns(..)` or
//! `h.principal_for_name(..)` call the core directly.
//!
//! The write-guard **hit path is completely lock-free**: current
//! principal (the handle's own shadow stack), one atomic epoch load from
//! the core, and a few compares in the private cache. Only a miss (or
//! grant/revoke traffic, which lives on the core) takes a lock — the
//! writer-index shard holding the written address.
//!
//! The soundness contract with revocation is the epoch protocol (see
//! [`crate::runtime`] module docs): the handle reads the principal's
//! atomic epoch *before* probing the index and stamps its cache with
//! that pre-probe value, so a revoke that bumps the epoch after
//! removing coverage always invalidates whatever the probe could have
//! seen. The concurrent-revocation stress tests in
//! `tests/concurrent_revocation.rs` race exactly this path.
//!
//! CALL checks, naming a known principal and the ind-call check's
//! annotation-hash lookup also answer from small per-thread caches of
//! answers the core only withdraws by bumping its *recall epoch* (a CALL
//! removal, a module's retirement, a function's (un)registration), so
//! the steady state takes neither a `caps` mutex nor a registry read
//! lock for them.
//!
//! The handle also meters the capability mutations its thread performs
//! (`revoke`, `transfer_cap`, the `kfree` sweep, module retirement):
//! each wraps the core operation of the same name and charges the epoch
//! bumps and transfer/sweep counters to this handle's stats. Handle
//! stats merge into the core's global stats on
//! [`GuardHandle::flush_stats`] or drop.

use std::ops::Deref;
use std::sync::Arc;

use lxfi_machine::Word;

use crate::caps::{CapType, RawCap};
use crate::epoch_cache::{EpochCache, DEFAULT_WAYS};
use crate::principal::{ModuleId, PrincipalId};
use crate::runtime::{EmittedCap, RuntimeCore};
use crate::shadow::{PrincipalCtx, ShadowStack};
use crate::stats::{GuardCosts, GuardKind, GuardStats};
use crate::Violation;

/// A handle's small cache of answers the core can only withdraw by
/// bumping its recall epoch (see [`RuntimeCore::recall_epoch`]): up to
/// `N` `key → value` pairs, all valid while the epoch still reads
/// `epoch`. A full cache replaces round-robin.
#[derive(Debug)]
struct RecallCache<K, V, const N: usize> {
    epoch: u64,
    len: usize,
    next: usize,
    entries: [(K, V); N],
}

impl<K: Copy + Default + Eq, V: Copy + Default, const N: usize> Default for RecallCache<K, V, N> {
    fn default() -> Self {
        RecallCache {
            epoch: 0,
            len: 0,
            next: 0,
            entries: [Default::default(); N],
        }
    }
}

impl<K: Copy + Default + Eq, V: Copy + Default, const N: usize> RecallCache<K, V, N> {
    fn get(&self, epoch: u64, key: K) -> Option<V> {
        if self.epoch != epoch {
            return None;
        }
        self.entries[..self.len]
            .iter()
            .find(|e| e.0 == key)
            .map(|e| e.1)
    }

    fn insert(&mut self, epoch: u64, key: K, value: V) {
        if self.epoch != epoch {
            (self.epoch, self.len, self.next) = (epoch, 0, 0);
        }
        let i = if self.len < N {
            self.len += 1;
            self.len - 1
        } else {
            self.next = (self.next + 1) % N;
            self.next
        };
        self.entries[i] = (key, value);
    }
}

/// Positive CALL decisions a handle remembers: `(principal, target)`.
const CALL_CACHE_WAYS: usize = 16;
/// Pointer names a handle remembers: `(module, name) → principal`.
const NAME_CACHE_WAYS: usize = 8;
/// Annotation hashes a handle remembers: `function address → ahash`.
const FN_CACHE_WAYS: usize = 8;

/// A per-thread guard executor over a shared [`RuntimeCore`]. See the
/// module docs; construct one per thread with [`GuardHandle::new`].
pub struct GuardHandle<const W: usize = DEFAULT_WAYS> {
    core: Arc<RuntimeCore>,
    shadow: ShadowStack,
    kstack: Option<(Word, u64)>,
    cache: EpochCache<W>,
    /// Recall-epoch caches: CALL decisions, principal names, function
    /// annotation hashes.
    calls: RecallCache<(u32, Word), (), CALL_CACHE_WAYS>,
    names: RecallCache<(u32, Word), u32, NAME_CACHE_WAYS>,
    fn_hashes: RecallCache<Word, u64, FN_CACHE_WAYS>,
    /// Reusable writer buffer for the indirect-call slow path, the
    /// kfree sweep and WRITE transfers.
    scratch: Vec<PrincipalId>,
    /// Reusable buffer annotation actions resolve a caplist into, so a
    /// capability handoff allocates nothing.
    pub(crate) caps_scratch: Vec<EmittedCap>,
    /// This thread's guard counters (merged into the core's global
    /// stats on [`GuardHandle::flush_stats`] or drop).
    pub stats: GuardStats,
    /// Deterministic guard costs (copied from the default at creation).
    pub costs: GuardCosts,
}

impl<const W: usize> Deref for GuardHandle<W> {
    type Target = RuntimeCore;
    fn deref(&self) -> &RuntimeCore {
        &self.core
    }
}

impl<const W: usize> GuardHandle<W> {
    /// A fresh handle: kernel context, no stack window, cold private
    /// cache, zero stats.
    pub fn new(core: Arc<RuntimeCore>) -> Self {
        GuardHandle {
            core,
            shadow: ShadowStack::new(),
            kstack: None,
            cache: EpochCache::new(),
            calls: RecallCache::default(),
            names: RecallCache::default(),
            fn_hashes: RecallCache::default(),
            scratch: Vec::new(),
            caps_scratch: Vec::new(),
            stats: GuardStats::new(),
            costs: GuardCosts::default(),
        }
    }

    /// The shared core this handle guards against (clone the `Arc` to
    /// hand the same capability world to another thread's handle).
    pub fn core(&self) -> &Arc<RuntimeCore> {
        &self.core
    }

    /// Sets this thread's kernel-stack window (always-writable, §3.2).
    pub fn set_kernel_stack(&mut self, base: Word, len: u64) {
        self.kstack = Some((base, len));
    }

    /// This thread's shadow stack.
    pub fn shadow(&mut self) -> &mut ShadowStack {
        &mut self.shadow
    }

    /// Sets the current principal context directly (test/bench entry;
    /// kernel threads use the wrapper protocol).
    pub fn set_current(&mut self, ctx: PrincipalCtx) {
        self.shadow.set_current(ctx);
    }

    /// The current principal context.
    #[inline]
    pub fn current(&self) -> PrincipalCtx {
        self.shadow.current()
    }

    /// Wrapper entry: records the FunctionEntry guard, saves context on
    /// the shadow stack, switches to `new`.
    pub fn wrapper_enter(&mut self, new: PrincipalCtx) -> Word {
        let c = self.costs.function_entry;
        self.stats.record(GuardKind::FunctionEntry, c);
        self.shadow.push(new)
    }

    /// Wrapper exit: records the FunctionExit guard, validates the return
    /// token, restores the saved context.
    pub fn wrapper_exit(&mut self, token: Word) -> Result<(), Violation> {
        let c = self.costs.function_exit;
        self.stats.record(GuardKind::FunctionExit, c);
        self.shadow.pop(token)
    }

    // ------------------------------------------------------------- guards

    /// Memory-write guard (§4.2): the current principal must hold WRITE
    /// coverage of `[addr, addr+len)`, or the write must fall inside this
    /// thread's kernel stack.
    ///
    /// This is the implementation behind `Env::guard_write`, executed for
    /// every un-elided module store. The private epoch-validated cache is
    /// consulted before the table walk: module code overwhelmingly issues
    /// runs of stores into the same few objects (packet payloads, private
    /// structs), so a recently established covering interval usually
    /// answers the next check in a few compares — and because validity
    /// is an epoch compare against the core's atomic counter, a
    /// revocation affecting *other* principals does not evict it. On a
    /// miss the epoch is read **before** the table probe (rule 2 of the
    /// soundness discipline).
    ///
    /// The hit path is `#[inline]` so it folds into the compiled
    /// backend's block loop; the table probe is out of line (a cold
    /// function).
    #[inline]
    pub fn check_write(&mut self, addr: Word, len: u64) -> Result<(), Violation> {
        self.stats.record(GuardKind::MemWrite, self.costs.mem_write);
        let Some((_m, p)) = self.shadow.current() else {
            return Ok(()); // Kernel context: trusted.
        };
        if len == 0 {
            return Ok(()); // Zero-length writes are vacuously permitted.
        }
        let end = addr.checked_add(len);
        if let Some((base, slen)) = self.kstack {
            if addr >= base && end.is_some_and(|e| e <= base + slen) {
                return Ok(());
            }
        }
        // An overflowing end never consults the cache (the probe below
        // denies it), so it counts as neither hit nor miss.
        if let Some(e) = end {
            let epoch = self.core.write_epoch(p);
            if self.cache.lookup(p, epoch, addr, e) {
                self.stats.write_cache_hits += 1;
                return Ok(());
            }
            self.stats.write_cache_misses += 1;
        }
        self.check_write_miss(p, addr, len)
    }

    /// [`Self::check_write`]'s cache miss: probe `p`'s WRITE coverage and
    /// cache the covering interval.
    #[cold]
    #[inline(never)]
    fn check_write_miss(&mut self, p: PrincipalId, addr: Word, len: u64) -> Result<(), Violation> {
        // Epoch read BEFORE the table probe: a concurrent revoke removes
        // coverage first and bumps after, so a stamp taken here is never
        // newer than a bump that invalidates what the probe returns.
        let epoch = self.core.write_epoch(p);
        if let Some(interval) = self.core.write_covering(p, addr, len) {
            self.cache.insert(p, epoch, interval);
            Ok(())
        } else {
            Err(Violation::MissingWrite {
                principal: p,
                addr,
                len,
            })
        }
    }

    /// Module-level CALL guard: the current principal must hold a CALL
    /// capability for `target`. Repeated checks are answered from this
    /// thread's cached positive decisions until a CALL capability is
    /// removed anywhere (see the private `owns_call`).
    pub fn check_call(&mut self, target: Word) -> Result<(), Violation> {
        let Some((_m, p)) = self.shadow.current() else {
            return Ok(());
        };
        if self.owns_call(p, target) {
            Ok(())
        } else {
            Err(Violation::MissingCall {
                principal: p,
                target,
            })
        }
    }

    /// Whether `p` holds CALL for `target` (the §3.1 hierarchy
    /// included), answered from this thread's cached positive decisions
    /// while the core's recall epoch has not moved. The epoch is read
    /// **before** the `caps` probe and stamps what the probe finds, so a
    /// CALL removal racing the probe, which bumps the epoch after
    /// removing, invalidates the entry (rules 1 and 2 of the runtime's
    /// soundness discipline, applied to CALL).
    fn owns_call(&mut self, p: PrincipalId, target: Word) -> bool {
        let epoch = self.core.recall_epoch();
        if self.calls.get(epoch, (p.0, target)).is_some() {
            return true;
        }
        let owned = self.core.owns(p, RawCap::call(target));
        if owned {
            self.calls.insert(epoch, (p.0, target), ());
        }
        owned
    }

    /// [`RuntimeCore::principal_for_name`] through this thread's cache:
    /// a name's principal changes only when its module retires, which
    /// bumps the recall epoch, so a cached answer stamped with the
    /// epoch read before the lookup stays right until then.
    pub fn principal_named(&mut self, module: ModuleId, name: Word) -> PrincipalId {
        let epoch = self.core.recall_epoch();
        if let Some(p) = self.names.get(epoch, (module.0, name)) {
            return PrincipalId(p);
        }
        let p = self.core.principal_for_name(module, name);
        self.names.insert(epoch, (module.0, name), p.0);
        p
    }

    /// [`RuntimeCore::function_ahash`] through this thread's cache: a
    /// registered hash changes only when its address is unregistered or
    /// re-registered, which bumps the recall epoch.
    fn fn_hash(&mut self, target: Word) -> Option<u64> {
        let epoch = self.core.recall_epoch();
        if let Some(h) = self.fn_hashes.get(epoch, target) {
            return Some(h);
        }
        let h = self.core.function_ahash(target)?;
        self.fn_hashes.insert(epoch, target, h);
        Some(h)
    }

    /// `lxfi_check_indcall(pptr, ahash)` (§4.1): validates a kernel
    /// indirect call through the function-pointer slot at `slot` whose
    /// declared pointer type hashes to `sig_hash`. `target` is the value
    /// currently stored in the slot.
    ///
    /// One writer-index query names the principals holding WRITE over
    /// any byte of the 8-byte slot. Fast path: with none, the slot's
    /// value is kernel-authored and the call needs no capability check
    /// (charged `ind_call_fast`). Otherwise every holder is checked
    /// (charged `ind_call_slow`).
    ///
    /// Soundness of the fast path: the writer index is the only WRITE
    /// table, so a module's store to the slot passes its guard only
    /// while the index lists the module's principal as a holder, and a
    /// revoke drops the holder from the same record that stops its
    /// guard. A "no holder" answer is therefore never a false negative.
    /// A retired module's principals keep their WRITE grants on record
    /// ([`RuntimeCore::retire_module`]) and hold no CALL capability, so
    /// a slot a dead module wrote stays refused.
    pub fn check_indcall(
        &mut self,
        slot: Word,
        target: Word,
        sig_hash: u64,
    ) -> Result<(), Violation> {
        self.scratch.clear();
        self.core.collect_writers(slot, 8, &mut self.scratch);
        if self.scratch.is_empty() {
            let c = self.costs.ind_call_fast;
            self.stats.record(GuardKind::KernelIndCall, c);
            return Ok(());
        }
        let c = self.costs.ind_call_slow;
        self.stats.record(GuardKind::KernelIndCall, c);
        // First check (§4.1): every writer principal must hold a CALL
        // capability for the target. This is what rejects user-space
        // targets and un-imported kernel functions like `detach_pid`.
        for i in 0..self.scratch.len() {
            let w = self.scratch[i];
            let module = self.core.principal_module(w);
            self.stats.record_indcall_module(module, c);
            if !self.owns_call(w, target) {
                return Err(Violation::IndCallUnauthorized {
                    slot,
                    target,
                    writer: w,
                });
            }
        }
        // Second check (§4.1): the annotations of the stored function and
        // of the function-pointer type must match, so a module cannot
        // launder a function through a differently-annotated slot.
        let fn_hash = self
            .fn_hash(target)
            .ok_or(Violation::NotAFunction { target })?;
        if fn_hash != sig_hash {
            return Err(Violation::AnnotationMismatch { sig_hash, fn_hash });
        }
        Ok(())
    }

    // ------------------------------------------------- metered mutations

    /// See [`RuntimeCore::revoke`]; epoch bumps are accounted into this
    /// handle's [`GuardStats`].
    pub fn revoke(&mut self, p: PrincipalId, cap: RawCap) -> bool {
        let (removed, bumps) = self.core.revoke(p, cap);
        self.stats.epoch_bumps += bumps;
        removed
    }

    /// See [`RuntimeCore::retire_module`]; epoch bumps are accounted into
    /// this handle's [`GuardStats`].
    pub fn retire_module(&mut self, mid: ModuleId) {
        self.stats.epoch_bumps += self.core.retire_module(mid);
    }

    /// Moves `cap` from `src` and whoever else holds it to `dst`
    /// (annotation `transfer` semantics: `src` must own `cap`, then it is
    /// revoked everywhere and granted to the destination). `src = None`
    /// is the core kernel, which owns everything. A source lacking `cap`
    /// gets the matching `Missing*` violation and nothing moves.
    ///
    /// WRITE capabilities take [`RuntimeCore::transfer_write`], which
    /// checks the source's coverage and moves the grant in one locked
    /// pass over the range's shards. At most one holder is the common
    /// per-packet case (counted in [`GuardStats::transfer_fast`]). The
    /// multi-holder case and every non-WRITE cap, which takes the full
    /// revoke-then-grant walk, count in [`GuardStats::transfer_slow`].
    pub fn transfer_cap(
        &mut self,
        cap: RawCap,
        src: Option<PrincipalId>,
        dst: Option<PrincipalId>,
    ) -> Result<(), Violation> {
        if cap.ctype == CapType::Write {
            let (fast, bumps) = self.core.transfer_write(cap, src, dst, &mut self.scratch)?;
            self.stats.epoch_bumps += bumps;
            if fast {
                self.stats.transfer_fast += 1;
            } else {
                self.stats.transfer_slow += 1;
            }
        } else {
            self.core.require_owned(src, cap)?;
            self.stats.transfer_slow += 1;
            self.core.revoke_everywhere(&[cap]);
            if let Some(d) = dst {
                self.core.grant(d, cap);
            }
        }
        Ok(())
    }

    /// See [`RuntimeCore::revoke_write_overlapping_everywhere`].
    pub fn revoke_write_overlapping_everywhere(&mut self, addr: Word, size: u64) {
        let sweep = self
            .core
            .revoke_write_overlapping_everywhere(addr, size, &mut self.scratch);
        self.stats.epoch_bumps += sweep.epoch_bumps;
        self.stats.kfree_hint_visited += sweep.visited;
    }

    /// See [`RuntimeCore::revoke_write_overlapping`].
    pub fn revoke_write_overlapping(&mut self, p: PrincipalId, addr: Word, size: u64) {
        self.stats.epoch_bumps += self.core.revoke_write_overlapping(p, addr, size);
    }

    /// Merges this thread's stats into the core's global stats and
    /// zeroes the local counters.
    pub fn flush_stats(&mut self) {
        self.core.merge_stats(&self.stats);
        self.stats.reset();
    }
}

impl<const W: usize> Drop for GuardHandle<W> {
    fn drop(&mut self) {
        self.core.merge_stats(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Arc<RuntimeCore>, ModuleId) {
        let core = Arc::new(RuntimeCore::new());
        let m = core.register_module("mt");
        (core, m)
    }

    #[test]
    fn handle_guards_against_shared_grants() {
        let (core, m) = world();
        let p = core.principal_for_name(m, 0x9000);
        core.grant(p, RawCap::write(0x5000, 64));
        let mut h: GuardHandle = GuardHandle::new(core);
        h.set_current(Some((m, p)));
        h.check_write(0x5000, 8).unwrap(); // miss: fills the cache
        h.check_write(0x5038, 8).unwrap(); // hit: same covering interval
        assert!(h.check_write(0x5040, 8).is_err());
        assert_eq!(h.stats.write_cache_hits, 1);
        h.check_write(0x5000, 8).unwrap();
        assert_eq!(h.stats.write_cache_hits, 2);
    }

    /// Every way a CALL capability leaves a principal — a revoke, a
    /// revoke-everywhere walk (a CALL transfer), its module's retirement
    /// — denies the next check of a handle whose cached decision was
    /// hot, on that handle and on another one.
    #[test]
    fn call_removals_deny_cached_call_decisions() {
        type Remove = fn(&RuntimeCore, ModuleId, PrincipalId, Word);
        let removals: [(&str, Remove); 3] = [
            ("revoke", |c, _, p, t| {
                assert!(c.revoke(p, RawCap::call(t)).0)
            }),
            ("everywhere", |c, _, _, t| {
                c.revoke_everywhere(&[RawCap::call(t)])
            }),
            ("retire", |c, m, _, _| _ = c.retire_module(m)),
        ];
        for (how, remove) in removals {
            let (core, m) = world();
            let p = core.principal_for_name(m, 0x9000);
            let (t, other) = (0xffff_ffff_8000_0010, 0xffff_ffff_8000_0020);
            core.grant(p, RawCap::call(t));
            core.grant(p, RawCap::call(other));
            let mut hs: [GuardHandle; 2] = [0, 1].map(|_| GuardHandle::new(Arc::clone(&core)));
            for h in &mut hs {
                h.set_current(Some((m, p)));
                h.check_call(t).unwrap();
                h.check_call(t).unwrap(); // from the cache
            }
            remove(&core, m, p, t);
            for h in &mut hs {
                assert_eq!(
                    h.check_call(t),
                    Err(Violation::MissingCall {
                        principal: p,
                        target: t,
                    }),
                    "{how}"
                );
            }
            // The bump dropped the other cached decision too; it still
            // holds unless the module retired.
            assert_eq!(hs[0].check_call(other).is_ok(), how != "retire", "{how}");
        }
    }

    /// A retired module's names resolve to fresh principals, through a
    /// handle that cached them, and an unregistered function's hash is
    /// gone for it.
    #[test]
    fn retirement_and_unregistering_recall_cached_answers() {
        let (core, m) = world();
        let mut h: GuardHandle = GuardHandle::new(Arc::clone(&core));
        let p = h.principal_named(m, 0x9000);
        assert_eq!(h.principal_named(m, 0x9000), p);
        assert_eq!(core.principal_for_name(m, 0x9000), p);
        core.retire_module(m);
        let q = h.principal_named(m, 0x9000);
        assert_ne!(q, p, "a retired module's name binds a new principal");
        assert_eq!(core.principal_for_name(m, 0x9000), q);

        core.register_function(0xf000, 7);
        assert_eq!(h.fn_hash(0xf000), Some(7));
        core.unregister_function(0xf000);
        assert_eq!(h.fn_hash(0xf000), None);
        core.register_function(0xf000, 8);
        assert_eq!(h.fn_hash(0xf000), Some(8));
        core.register_function(0xf000, 9);
        assert_eq!(h.fn_hash(0xf000), Some(9), "re-registering recalls too");
    }

    #[test]
    fn call_cache_replaces_round_robin_when_full() {
        let (core, m) = world();
        let p = core.principal_for_name(m, 0x9000);
        let targets: Vec<Word> = (0..CALL_CACHE_WAYS as u64 + 3)
            .map(|i| 0xffff_ffff_8000_0000 + i * 16)
            .collect();
        for &t in &targets {
            core.grant(p, RawCap::call(t));
        }
        let mut h: GuardHandle = GuardHandle::new(Arc::clone(&core));
        h.set_current(Some((m, p)));
        for &t in targets.iter().chain(&targets) {
            h.check_call(t).unwrap();
        }
        assert_eq!(h.calls.len, CALL_CACHE_WAYS);
        let epoch = core.recall_epoch();
        let cached = targets
            .iter()
            .filter(|&&t| h.calls.get(epoch, (p.0, t)).is_some())
            .count();
        assert_eq!(cached, CALL_CACHE_WAYS);
        // Never a decision for a target the principal lacks.
        assert!(h.check_call(0xffff_ffff_8000_1000).is_err());
    }

    #[test]
    fn facade_revoke_invalidates_handle_cache() {
        // A revoke metered by one handle kills the cached interval of
        // another handle on the same core.
        let (core, m) = world();
        let p = core.principal_for_name(m, 0x9000);
        let cap = RawCap::write(0x5000, 64);
        core.grant(p, cap);
        let mut other: GuardHandle = GuardHandle::new(Arc::clone(&core));
        let mut h: GuardHandle = GuardHandle::new(core);
        h.set_current(Some((m, p)));
        h.check_write(0x5000, 8).unwrap(); // primes h's private cache
        assert!(other.revoke(p, cap));
        assert!(
            h.check_write(0x5000, 8).is_err(),
            "epoch bump must kill the stale cached interval"
        );
    }

    #[test]
    fn unrelated_revoke_leaves_handle_cache_hot() {
        let (core, m) = world();
        let a = core.principal_for_name(m, 0x9000);
        let b = core.principal_for_name(m, 0xa000);
        core.grant(a, RawCap::write(0x5000, 64));
        core.grant(b, RawCap::write(0x6000, 64));
        let mut h: GuardHandle = GuardHandle::new(Arc::clone(&core));
        h.set_current(Some((m, a)));
        h.check_write(0x5000, 8).unwrap();
        h.stats.reset();
        core.revoke(b, RawCap::write(0x6000, 64));
        h.check_write(0x5008, 8).unwrap();
        assert_eq!(h.stats.write_cache_hits, 1);
        assert_eq!(h.stats.write_cache_misses, 0);
    }

    #[test]
    fn shared_revoke_invalidates_instance_caches_on_every_handle() {
        let (core, m) = world();
        let shared = core.shared_principal(m);
        let a = core.principal_for_name(m, 0x9000);
        core.grant(shared, RawCap::write(0x5000, 64));
        let mut h1: GuardHandle = GuardHandle::new(Arc::clone(&core));
        let mut h2: GuardHandle = GuardHandle::new(Arc::clone(&core));
        h1.set_current(Some((m, a)));
        h2.set_current(Some((m, a)));
        h1.check_write(0x5000, 8).unwrap(); // both caches hold the
        h2.check_write(0x5000, 8).unwrap(); // shared-derived interval
        core.revoke(shared, RawCap::write(0x5000, 64));
        assert!(h1.check_write(0x5000, 8).is_err());
        assert!(h2.check_write(0x5000, 8).is_err());
    }

    #[test]
    fn handle_stats_flush_into_core() {
        let (core, m) = world();
        let p = core.principal_for_name(m, 0x9000);
        core.grant(p, RawCap::write(0x5000, 64));
        {
            let mut h: GuardHandle = GuardHandle::new(core.clone());
            h.set_current(Some((m, p)));
            h.check_write(0x5000, 8).unwrap();
            h.check_write(0x5000, 8).unwrap();
            h.flush_stats();
            assert_eq!(h.stats.count(GuardKind::MemWrite), 0, "local reset");
            h.check_write(0x5000, 8).unwrap();
            // The third check merges on drop.
        }
        let g = core.global_stats();
        assert_eq!(g.count(GuardKind::MemWrite), 3);
        assert_eq!(g.write_cache_hits, 2);
    }

    #[test]
    fn kernel_stack_window_is_per_handle() {
        let (core, m) = world();
        let p = core.principal_for_name(m, 0x9000);
        let mut h: GuardHandle = GuardHandle::new(core);
        h.set_current(Some((m, p)));
        assert!(h.check_write(0xffff_9000_0000_0100, 8).is_err());
        h.set_kernel_stack(0xffff_9000_0000_0000, 0x2000);
        h.check_write(0xffff_9000_0000_0100, 8).unwrap();
        assert!(h.check_write(0xffff_9000_0000_2000, 8).is_err());
    }

    #[test]
    fn wrapper_protocol_works_on_handles() {
        let (core, m) = world();
        let p = core.principal_for_name(m, 0x9000);
        let mut h: GuardHandle = GuardHandle::new(core);
        let tok = h.wrapper_enter(Some((m, p)));
        assert_eq!(h.current(), Some((m, p)));
        h.wrapper_exit(tok).unwrap();
        assert_eq!(h.current(), None);
        assert_eq!(h.stats.count(GuardKind::FunctionEntry), 1);
        assert_eq!(h.stats.count(GuardKind::FunctionExit), 1);
    }
}
