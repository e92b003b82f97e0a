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
//! grant/revoke traffic, which lives on the core) takes locks — the
//! probed principal's table mutex, one at a time.
//!
//! The soundness contract with revocation is the epoch protocol (see
//! [`crate::runtime`] module docs): the handle reads the principal's
//! atomic epoch *before* probing the tables and stamps its cache with
//! that pre-probe value, so a revoke that bumps the epoch after
//! removing coverage always invalidates whatever the probe could have
//! seen. The concurrent-revocation stress tests in
//! `tests/concurrent_revocation.rs` race exactly this path.
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

/// A per-thread guard executor over a shared [`RuntimeCore`]. See the
/// module docs; construct one per thread with [`GuardHandle::new`].
pub struct GuardHandle<const W: usize = DEFAULT_WAYS> {
    core: Arc<RuntimeCore>,
    shadow: ShadowStack,
    kstack: Option<(Word, u64)>,
    cache: EpochCache<W>,
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
    /// capability for `target`.
    pub fn check_call(&mut self, target: Word) -> Result<(), Violation> {
        let Some((_m, p)) = self.shadow.current() else {
            return Ok(());
        };
        if self.core.owns(p, RawCap::call(target)) {
            Ok(())
        } else {
            Err(Violation::MissingCall {
                principal: p,
                target,
            })
        }
    }

    /// `lxfi_check_indcall(pptr, ahash)` (§4.1): validates a kernel
    /// indirect call through the function-pointer slot at `slot` whose
    /// declared pointer type hashes to `sig_hash`. `target` is the value
    /// currently stored in the slot.
    ///
    /// Fast path: if the reverse writer index shows no principal holding
    /// WRITE over any byte of the 8-byte slot, the slot's value is
    /// kernel-authored and the call needs no capability check (charged
    /// `ind_call_fast`). Otherwise every holder is checked (charged
    /// `ind_call_slow`).
    ///
    /// Soundness of the fast path: [`RuntimeCore::grant`] indexes a WRITE
    /// capability *before* inserting it into the principal's table, so a
    /// module can never store to the slot before the index lists it as a
    /// holder; a revoke unindexes under the principal's caps mutex, after
    /// the table removal, so the index never drops a holder that can
    /// still store. A "no holder" answer is therefore never a false
    /// negative — the same ordering the holder collection below relies
    /// on. A retired module's principals keep their WRITE grants on
    /// record ([`RuntimeCore::retire_module`]) and hold no CALL
    /// capability, so a slot a dead module wrote stays refused.
    pub fn check_indcall(
        &mut self,
        slot: Word,
        target: Word,
        sig_hash: u64,
    ) -> Result<(), Violation> {
        if !self.core.index_overlaps(slot, 8) {
            let c = self.costs.ind_call_fast;
            self.stats.record(GuardKind::KernelIndCall, c);
            return Ok(());
        }
        let c = self.costs.ind_call_slow;
        self.stats.record(GuardKind::KernelIndCall, c);
        // First check (§4.1): every writer principal must hold a CALL
        // capability for the target. This is what rejects user-space
        // targets and un-imported kernel functions like `detach_pid`.
        self.scratch.clear();
        self.core.collect_writers(slot, 8, &mut self.scratch);
        for &w in &self.scratch {
            let module = self.core.principal_module(w);
            self.stats.record_indcall_module(module, c);
            if !self.core.owns(w, RawCap::call(target)) {
                return Err(Violation::IndCallUnauthorized {
                    slot,
                    target,
                    writer: w,
                });
            }
        }
        if self.scratch.is_empty() {
            return Ok(());
        }
        // Second check (§4.1): the annotations of the stored function and
        // of the function-pointer type must match, so a module cannot
        // launder a function through a differently-annotated slot.
        let fn_hash = self
            .core
            .function_ahash(target)
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

    /// Moves `cap` from whoever holds it to `dst` (annotation `transfer`
    /// semantics: revoke everywhere, then grant to the destination).
    ///
    /// WRITE capabilities take [`RuntimeCore::transfer_write`], which
    /// asks the reverse index for the range's holders and grants the
    /// destination before revoking `cap` from each of them. At most one
    /// holder is the common per-packet case (counted in
    /// [`GuardStats::transfer_fast`]). The multi-holder case and every
    /// non-WRITE cap, which takes the full revoke-then-grant walk, count
    /// in [`GuardStats::transfer_slow`].
    pub fn transfer_cap(&mut self, cap: RawCap, dst: Option<PrincipalId>) {
        if cap.ctype == CapType::Write {
            let (fast, bumps) = self.core.transfer_write(cap, dst, &mut self.scratch);
            self.stats.epoch_bumps += bumps;
            if fast {
                self.stats.transfer_fast += 1;
            } else {
                self.stats.transfer_slow += 1;
            }
        } else {
            self.stats.transfer_slow += 1;
            self.core.revoke_everywhere(&[cap]);
            if let Some(d) = dst {
                self.core.grant(d, cap);
            }
        }
    }

    /// See [`RuntimeCore::revoke_write_overlapping_everywhere`]. In debug
    /// builds the holder collection is asserted against the full walk:
    /// after the sweep no principal — collected or not — may retain an
    /// overlapping grant.
    pub fn revoke_write_overlapping_everywhere(&mut self, addr: Word, size: u64) {
        let sweep = self
            .core
            .revoke_write_overlapping_everywhere(addr, size, &mut self.scratch);
        self.stats.epoch_bumps += sweep.epoch_bumps;
        self.stats.kfree_hint_visited += sweep.visited;
        #[cfg(debug_assertions)]
        if size > 0 && self.core.kfree_cross_check_enabled() {
            for i in 0..self.core.principal_count() {
                debug_assert!(
                    !self.core.write_overlaps(PrincipalId(i as u32), addr, size),
                    "kfree sweep missed principal {i}: a grant overlapping \
                     [{addr:#x}, +{size}) survived the sweep"
                );
            }
        }
    }

    /// See [`RuntimeCore::revoke_write_overlapping`].
    pub fn revoke_write_overlapping(&mut self, p: PrincipalId, addr: Word, size: u64) {
        let bumps = self.core.revoke_write_overlapping(p, addr, size);
        self.stats.epoch_bumps += bumps;
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
