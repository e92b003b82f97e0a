//! Deferred dispatch: the bottom halves (NAPI polls, capture periods)
//! that top halves schedule and each CPU drains at its quiescent points
//! (see [`crate::deferred`]).

use std::sync::atomic::Ordering;

use lxfi_machine::{Trap, Word};

use super::{KernelCpu, KernelError};

impl KernelCpu {
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
        let napi = kind == DeferredKind::NapiPoll;
        // The owner's registered callback slot; gone means the owning
        // module was unloaded between assert and dispatch — the call
        // evaporates (its frames stay on the ring).
        let target = match kind {
            DeferredKind::NapiPoll => self.net().poll_slot(owner).map(|s| (s, "napi_poll")),
            DeferredKind::SndCapture => self.snd().ops_of(owner).map(|ops| {
                let slot = ops + crate::types::snd_pcm_ops::CAPTURE as u64;
                (slot, "pcm_capture")
            }),
        };
        let mut ret = 0;
        if let Some((slot, sig)) = target {
            self.in_deferred = true;
            let r = self.interrupt(|k| k.indirect_call(slot, sig, &[owner, arg]));
            self.in_deferred = false;
            ret = match r {
                Ok(v) => v,
                // The owning module was unloaded between the slot read
                // and the dispatch (no attributed fault, just a dangling
                // published pointer): the device vanished. Swallow the
                // call — its frames stay on the ring for a post-recovery
                // poll to replay.
                Err(Trap::BadRef(_)) if napi && self.pending_fault.is_none() => 0,
                Err(t) => return Err(t),
            };
            if napi && arg > 0 && ret >= arg {
                // Budget exhausted: more frames may remain; re-arm (the
                // interrupt stays masked until `napi_complete`).
                self.deferred_schedule(id, arg);
            }
        }
        self.core.deferred().dispatched += 1;
        Ok(Some(ret))
    }

    /// Drains this CPU's pending deferred calls — the quiescent point:
    /// dispatches every pending call whose slot is bound to this CPU. A
    /// faulting bottom half is classified and contained right here
    /// (`KernelCpu::contain_trap`) and the drain continues with the next
    /// call; only a kernel panic stops it. Returns the number of calls
    /// dispatched.
    pub fn deferred_drain(&mut self) -> usize {
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
}
