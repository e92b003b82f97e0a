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
use crate::runtime::{EmittedCap, RetireSweep, RuntimeCore};
use crate::shadow::{PrincipalCtx, ShadowStack};
use crate::stats::{GuardCosts, GuardKind, GuardStats};
use crate::writer_set::ZeroNoteToken;
use crate::Violation;

/// Deferred zero-notes per handle before a forced drain.
const ZERO_NOTE_BUFFER: usize = 32;

/// A per-thread guard executor over a shared [`RuntimeCore`]. See the
/// module docs; construct one per thread with [`GuardHandle::new`].
pub struct GuardHandle<const W: usize = DEFAULT_WAYS> {
    core: Arc<RuntimeCore>,
    shadow: ShadowStack,
    kstack: Option<(Word, u64)>,
    cache: EpochCache<W>,
    /// Reusable writer buffer for the indirect-call slow path.
    scratch: Vec<PrincipalId>,
    /// Reusable buffer annotation actions resolve a caplist into, so a
    /// capability handoff allocates nothing.
    pub(crate) caps_scratch: Vec<EmittedCap>,
    /// Deferred zero-notes: ranges the caller has zeroed whose bitmap
    /// clear is postponed until a quiescent point
    /// ([`GuardHandle::writer_clean`], [`GuardHandle::mark_written`],
    /// buffer overflow, or an explicit [`GuardHandle::flush_zero_notes`]).
    /// Each entry carries the generation token that proves the clear is
    /// still equivalent to an immediate [`RuntimeCore::note_zeroed`];
    /// stale tokens are dropped, never applied. Entries are deduplicated
    /// by exact `(addr, len)` so the steady-state allocator pattern (same
    /// buffer freed and reused) keeps one fresh token per range.
    zero_notes: Vec<(Word, u64, ZeroNoteToken)>,
    /// This thread's guard counters (merged into the core's global
    /// stats on [`GuardHandle::flush_stats`] or drop).
    pub stats: GuardStats,
    /// Deterministic guard costs (copied from the default at creation).
    pub costs: GuardCosts,
    /// Ablation/test switch: when false, [`GuardHandle::check_write`]
    /// skips the epoch-validated guard cache entirely and always probes
    /// the interval tables. The epoch-cache property test drives a
    /// cached and an uncached handle through identical traffic and
    /// asserts identical decisions; benches use it to price the uncached
    /// probe.
    pub guard_cache_enabled: bool,
    /// Ablation switch: when false, every kernel indirect call takes the
    /// full capability-check slow path even when the writer-set bitmap
    /// proves the slot clean. Used to quantify how much the writer-set
    /// optimization (§5) saves; always true in normal operation.
    pub writer_fastpath: bool,
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
            zero_notes: Vec::new(),
            stats: GuardStats::new(),
            costs: GuardCosts::default(),
            guard_cache_enabled: true,
            writer_fastpath: true,
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

    /// Switches the private write-guard cache's replacement policy
    /// (the rotation-vs-policy ablation sweeps both).
    pub fn set_cache_policy(&mut self, policy: crate::epoch_cache::Replacement) {
        self.cache.set_policy(policy);
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
        if self.guard_cache_enabled {
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
        }
        // Epoch read BEFORE the table probe: a concurrent revoke removes
        // coverage first and bumps after, so a stamp taken here is never
        // newer than a bump that invalidates what the probe returns.
        let epoch = self.core.write_epoch(p);
        if let Some(interval) = self.core.write_covering(p, addr, len) {
            if self.guard_cache_enabled {
                self.cache.insert(p, epoch, interval);
            }
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
    /// Fast path: if the writer-set bitmap proves no module was ever
    /// granted WRITE over the slot, the call is kernel-authored and needs
    /// no capability check.
    pub fn check_indcall(
        &mut self,
        slot: Word,
        target: Word,
        sig_hash: u64,
    ) -> Result<(), Violation> {
        if self.writer_fastpath && !self.core.writer_map.maybe_written(slot) {
            let c = self.costs.ind_call_fast;
            self.stats.record(GuardKind::KernelIndCall, c);
            return Ok(());
        }
        // Past the bitmap: the reverse-index lookup runs, so the
        // slow-path cost applies even when it finds no writers (a benign
        // bitmap false positive, §5).
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
    pub fn retire_module(&mut self, mid: ModuleId) -> RetireSweep {
        let sweep = self.core.retire_module(mid);
        self.stats.epoch_bumps += sweep.epoch_bumps;
        sweep
    }

    /// See [`RuntimeCore::revoke_everywhere`].
    pub fn revoke_everywhere(&mut self, cap: RawCap) {
        let bumps = self.core.revoke_everywhere(cap);
        self.stats.epoch_bumps += bumps;
    }

    /// Moves `cap` from whoever holds it to `dst` (annotation `transfer`
    /// semantics: revoke everywhere, then grant to the destination).
    ///
    /// WRITE capabilities take [`RuntimeCore::transfer_write`], which
    /// splices the single holder's index coverage to the destination in
    /// one shard pass when the reverse index shows at most one holder —
    /// the common per-packet case (counted in
    /// [`GuardStats::transfer_fast`]). Multi-holder WRITE caps and every
    /// non-WRITE cap fall back to the full revoke-then-grant sweep
    /// (counted in [`GuardStats::transfer_slow`]).
    pub fn transfer_cap(&mut self, cap: RawCap, dst: Option<PrincipalId>) {
        if cap.ctype == CapType::Write {
            let (fast, bumps) = self.core.transfer_write(cap, dst);
            self.stats.epoch_bumps += bumps;
            if fast {
                self.stats.transfer_fast += 1;
            } else {
                self.stats.transfer_slow += 1;
            }
        } else {
            self.stats.transfer_slow += 1;
            let bumps = self.core.revoke_everywhere(cap);
            self.stats.epoch_bumps += bumps;
            if let Some(d) = dst {
                self.core.grant(d, cap);
            }
        }
    }

    /// See [`RuntimeCore::revoke_write_overlapping_everywhere`]. In debug
    /// builds the per-shard presence hint is asserted against the full
    /// walk: after the sweep no principal — hinted or not — may retain
    /// an overlapping grant.
    pub fn revoke_write_overlapping_everywhere(&mut self, addr: Word, size: u64) {
        let sweep = self.core.revoke_write_overlapping_everywhere(addr, size);
        self.stats.epoch_bumps += sweep.epoch_bumps;
        self.stats.kfree_hint_visited += sweep.visited;
        self.stats.kfree_hint_skipped += sweep.skipped;
        #[cfg(debug_assertions)]
        if size > 0 && self.core.kfree_cross_check_enabled() {
            for i in 0..self.core.principal_count() {
                debug_assert!(
                    !self.core.write_overlaps(PrincipalId(i as u32), addr, size),
                    "kfree hint missed principal {i}: a grant overlapping \
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

    // ------------------------------------------------------ writer tracking

    /// Records that `[addr, addr+len)` was zeroed, clearing writer-set
    /// bits where no live WRITE grant still covers them.
    ///
    /// Hot-path shape: if the range's stripes hold no marked granules at
    /// all the call returns after two atomic loads and touches no lock
    /// (counted in [`GuardStats::note_zeroed_fast_skips`]). Otherwise a
    /// generation token for the range is captured and the actual bitmap
    /// clear is *deferred* into this handle's small buffer, drained at
    /// quiescent points — so a free-heavy burst pays one stripe write
    /// lock per drained range instead of one per free. Ranges spanning
    /// a stripe boundary take the immediate path.
    pub fn note_zeroed(&mut self, addr: Word, len: u64) {
        if !self.core.writer_map.maybe_marked_over(addr, len) {
            self.stats.note_zeroed_fast_skips += 1;
            return;
        }
        match self.core.zero_note_token(addr, len) {
            Some(token) => {
                self.stats.zero_notes_deferred += 1;
                if let Some(slot) = self
                    .zero_notes
                    .iter_mut()
                    .find(|(a, l, _)| *a == addr && *l == len)
                {
                    // Same range re-zeroed: keep only the freshest token.
                    slot.2 = token;
                } else {
                    self.zero_notes.push((addr, len, token));
                    if self.zero_notes.len() >= ZERO_NOTE_BUFFER {
                        self.flush_zero_notes();
                    }
                }
            }
            None => {
                self.core.note_zeroed(addr, len);
            }
        }
    }

    /// Drains the deferred zero-note buffer now (quiescent point): every
    /// buffered note whose generation token is still valid is applied;
    /// stale tokens (a mark or revoke touched the stripe since enqueue)
    /// are discarded and counted, never applied. The kernel calls this
    /// at natural batch boundaries; tests call it before asserting on
    /// bitmap state.
    pub fn flush_zero_notes(&mut self) {
        for (addr, len, token) in self.zero_notes.drain(..) {
            if self.core.drain_zero_note(addr, len, token).is_none() {
                self.stats.zero_notes_stale += 1;
            }
        }
    }

    /// See [`RuntimeCore::mark_written`]. Pending zero-notes are drained
    /// first so a deferred clear can never race ahead of this mark.
    pub fn mark_written(&mut self, addr: Word, len: u64) {
        self.flush_zero_notes();
        self.core.mark_written(addr, len);
    }

    /// True if the writer-set fast path would skip checks for `addr`.
    /// Drains pending zero-notes first so the answer reflects every
    /// zeroing the caller has already reported.
    pub fn writer_clean(&mut self, addr: Word) -> bool {
        self.flush_zero_notes();
        self.core.writer_clean(addr)
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
