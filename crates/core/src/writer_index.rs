//! Reverse writer index (§5 scaling): address range → writer principals.
//!
//! The indirect-call slow path asks "which principals hold WRITE coverage
//! of this function-pointer slot?". The paper answers by walking the
//! global principal list — linear in the number of principals, and the
//! list grows with every module instance. This module inverts the
//! question: a sorted map of **disjoint address intervals**, each carrying
//! an **interned set** of the principals granted WRITE over it, is
//! maintained incrementally on every WRITE grant and revocation, so the
//! lookup is a binary search plus a walk of the (small) writer set —
//! O(log intervals + |writers|) instead of O(principals).
//!
//! # Sharding
//!
//! The interval map is **sharded by address region**: the caller hands
//! [`WriterIndex::with_boundaries`] a sorted list of split points
//! (module windows, slab zones — see the simulated kernel's
//! `layout::shard_boundaries`), and every interval lives in the shard
//! its addresses fall in. Queries resolve the shard with one small
//! binary search over the boundary list (effectively O(1) for the ≤ a
//! few dozen regions a kernel layout defines) before the O(log
//! intervals-in-shard) window search, and — the actual point — the Vec
//! splice a grant or revoke performs moves only the *shard's* tail, not
//! the whole system's interval population.
//!
//! Since the thread-safe runtime landed, the shard is also the unit of
//! **lock granularity**: the shared `RuntimeCore` wraps every shard
//! (its intervals plus its principal-presence map) in its own lock.
//! Mutations are **phase-split** (`IndexShard::add_split` /
//! `IndexShard::remove_split`): the shard lock is held for the whole
//! operation (which keeps a revocation's remove-and-reinstate atomic
//! per shard — see `Sharding::replace`), while the shared-interner
//! mutex is taken only for the id/refcount phase (interning the new
//! sets, moving refcounts, applying presence deltas); the interval
//! memmove then runs under the shard lock alone. Splices in different
//! shards therefore overlap except for their brief interner sections,
//! and the lock order is strictly shard → interner (the interner is a
//! leaf — nothing acquires a shard while holding it). Each shard owns
//! the replacement buffer its splices plan into, and the interner
//! looks candidate sets up by slice, so a splice that produces no new
//! writer set allocates nothing. A default-constructed index has a
//! single shard covering the whole address space (the pre-sharding
//! behavior).
//!
//! Intervals never span a shard boundary: a grant crossing one is split
//! at the boundary, so two touching same-set intervals can exist across
//! a boundary (they coalesce freely *within* a shard).
//!
//! # Writer-set interning, GC, and presence
//!
//! Writer sets are interned like the runtime's REF-type names: a sorted,
//! deduplicated `Vec<PrincipalId>` maps to a dense [`WriterSetId`], so
//! the many intervals produced by overlapping grants from the same
//! principals share one set allocation, and set identity is a `u32`
//! compare (which is also what lets adjacent intervals coalesce). The
//! interner is **shared across shards** (the concurrent core guards it
//! with its own mutex, held for the duration of a splice): sharing is
//! what keeps a set resident when its references repeat across shards,
//! so churn in one shard never re-allocates another's combinations. Interned sets are refcounted by the interval entries
//! referencing them (across all shards): when the last referencing
//! interval is spliced away, the set is freed and its slot recycled, so
//! a long-running grant/revoke churn interns new combinations forever
//! without growing memory. [`set_count`](WriterIndex::set_count) gauges
//! live sets; [`sets_ever_interned`](WriterIndex::sets_ever_interned)
//! counts allocations (including slot reuses) — `ever` growing while
//! `live` stays flat is the GC working.
//!
//! Each shard additionally maintains a **principal-presence map**: for
//! every principal, the number of the shard's intervals whose writer set
//! contains it. `kfree`-style sweeps (`revoke_write_overlapping_
//! everywhere`) use it to visit only the principals actually holding
//! grants in the freed region's shards instead of walking every
//! principal's table; debug builds assert the hint against the full
//! walk.
//!
//! The paper's traversal — per-principal [`WriteTable`]s probed one by
//! one — is the measured baseline in `lxfi-bench`'s `baselines` module,
//! outside the trusted runtime.
//!
//! # Semantics
//!
//! A principal is a *writer of `[addr, addr+len)`* when one of its grants
//! **overlaps any byte** of the range. (The pre-index slow path required
//! a single grant to *cover* the whole slot; overlap is strictly more
//! conservative — a principal that can corrupt even one byte of a
//! function pointer is a writer — and is what both the index and the
//! baseline walk implement.)
//!
//! # Overflow discipline
//!
//! Identical to [`WriteTable`]: grant ends saturate at `Word::MAX`
//! (exclusive), zero-length ranges grant/match nothing, and query ends
//! saturate rather than wrap.
//!
//! [`WriteTable`]: crate::caps::WriteTable

use std::collections::HashMap;
use std::sync::Mutex as StdMutex;

use lxfi_machine::Word;

use crate::principal::PrincipalId;

/// Interned id of a sorted, deduplicated set of writer principals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriterSetId(pub u32);

/// The interned empty set (id 0 by construction; pinned, never freed).
pub const EMPTY_WRITERS: WriterSetId = WriterSetId(0);

/// Interns writer sets: identical sets share one id, so interval
/// entries are a `u32` and set equality is an integer compare. Live
/// sets are refcounted by the interval entries referencing them
/// (across all shards — sharing the interner is what lets a set whose
/// intervals span shards, or repeat across them, stay resident under
/// churn); slots whose refcount drops to zero are recycled.
#[derive(Debug)]
pub(crate) struct SetInterner {
    sets: Vec<Vec<PrincipalId>>,
    /// Number of interval entries (across all shards) holding each id.
    refs: Vec<u32>,
    ids: HashMap<Vec<PrincipalId>, WriterSetId>,
    /// Recycled slots (freed sets) available for reuse. A freed slot
    /// keeps its (cleared) buffer, so reusing it copies in place.
    free: Vec<u32>,
    /// Monotonic count of slot allocations (including reuses).
    ever: u64,
    /// Candidate buffer [`with`](SetInterner::with) and
    /// [`without`](SetInterner::without) build the next set in, so a
    /// lookup that finds an existing set allocates nothing.
    cand: Vec<PrincipalId>,
    /// Every set operation and its answer, replayed by the equivalence
    /// test against an allocating reference interner.
    #[cfg(test)]
    log: Vec<InternCall>,
}

/// One recorded interner call (test builds only).
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum InternCall {
    /// `singleton(p) = id`.
    Singleton(PrincipalId, WriterSetId),
    /// `with(sid, p) = id`.
    With(WriterSetId, PrincipalId, WriterSetId),
    /// `without(sid, p) = id`.
    Without(WriterSetId, PrincipalId, WriterSetId),
    /// `acquire(id)`.
    Acquire(WriterSetId),
    /// `release(id)`.
    Release(WriterSetId),
}

impl SetInterner {
    pub(crate) fn new() -> Self {
        let mut it = SetInterner {
            sets: Vec::new(),
            refs: Vec::new(),
            ids: HashMap::new(),
            free: Vec::new(),
            ever: 0,
            cand: Vec::new(),
            #[cfg(test)]
            log: Vec::new(),
        };
        it.intern(&[]); // id 0 = the empty set
        it
    }

    /// Interns a sorted, deduplicated principal set, looked up by slice:
    /// only a set not already live allocates (its id-map key). A newly
    /// allocated slot starts at refcount 0; the caller must [`acquire`]
    /// it when an interval entry takes the id (splice does this).
    ///
    /// [`acquire`]: SetInterner::acquire
    fn intern(&mut self, set: &[PrincipalId]) -> WriterSetId {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted + dedup'd");
        if let Some(&id) = self.ids.get(set) {
            return id;
        }
        self.ever += 1;
        let id = if let Some(slot) = self.free.pop() {
            debug_assert_eq!(self.refs[slot as usize], 0, "recycled slot is dead");
            self.sets[slot as usize].extend_from_slice(set);
            WriterSetId(slot)
        } else {
            self.sets.push(set.to_vec());
            self.refs.push(0);
            WriterSetId((self.sets.len() - 1) as u32)
        };
        self.ids.insert(set.to_vec(), id);
        id
    }

    /// Interns the set in the candidate buffer.
    fn intern_cand(&mut self) -> WriterSetId {
        let cand = std::mem::take(&mut self.cand);
        let id = self.intern(&cand);
        self.cand = cand;
        id
    }

    pub(crate) fn get(&self, id: WriterSetId) -> &[PrincipalId] {
        &self.sets[id.0 as usize]
    }

    /// One more interval entry references `id`.
    fn acquire(&mut self, id: WriterSetId) {
        #[cfg(test)]
        self.log.push(InternCall::Acquire(id));
        if id != EMPTY_WRITERS {
            self.refs[id.0 as usize] += 1;
        }
    }

    /// One interval entry dropped `id`; frees the set when unreferenced.
    fn release(&mut self, id: WriterSetId) {
        #[cfg(test)]
        self.log.push(InternCall::Release(id));
        if id == EMPTY_WRITERS {
            return;
        }
        let i = id.0 as usize;
        self.refs[i] -= 1;
        if self.refs[i] == 0 {
            self.ids.remove(self.sets[i].as_slice());
            self.sets[i].clear();
            self.free.push(id.0);
        }
    }

    /// The set `sid ∪ {p}`.
    fn with(&mut self, sid: WriterSetId, p: PrincipalId) -> WriterSetId {
        let cur = &self.sets[sid.0 as usize];
        let id = match cur.binary_search(&p) {
            Ok(_) => sid,
            Err(pos) => {
                self.cand.clear();
                self.cand.extend_from_slice(&cur[..pos]);
                self.cand.push(p);
                self.cand.extend_from_slice(&cur[pos..]);
                self.intern_cand()
            }
        };
        #[cfg(test)]
        self.log.push(InternCall::With(sid, p, id));
        id
    }

    /// The set `sid ∖ {p}`.
    fn without(&mut self, sid: WriterSetId, p: PrincipalId) -> WriterSetId {
        let cur = &self.sets[sid.0 as usize];
        let id = match cur.binary_search(&p) {
            Err(_) => sid,
            Ok(_) if cur.len() == 1 => EMPTY_WRITERS,
            Ok(pos) => {
                self.cand.clear();
                self.cand.extend_from_slice(&cur[..pos]);
                self.cand.extend_from_slice(&cur[pos + 1..]);
                self.intern_cand()
            }
        };
        #[cfg(test)]
        self.log.push(InternCall::Without(sid, p, id));
        id
    }

    fn singleton(&mut self, p: PrincipalId) -> WriterSetId {
        let id = self.intern(&[p]);
        #[cfg(test)]
        self.log.push(InternCall::Singleton(p, id));
        id
    }

    /// Live distinct sets (including the pinned empty set).
    pub(crate) fn live(&self) -> usize {
        self.ids.len()
    }

    /// Monotonic slot-allocation count (including reuses).
    pub(crate) fn ever(&self) -> u64 {
        self.ever
    }

    /// Slot capacity (high-water mark of simultaneously live sets).
    pub(crate) fn capacity(&self) -> usize {
        self.sets.len()
    }

    /// Currently recycled (free) slots.
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Panics unless the interner agrees with `refs` — the per-set
    /// interval reference counts an index walk accumulated — and its
    /// free-list/id-map bookkeeping is self-consistent.
    pub(crate) fn check_consistency(&self, refs: &[u32]) {
        assert_eq!(refs.len(), self.sets.len());
        for (i, &rc) in refs.iter().enumerate() {
            assert_eq!(
                self.refs[i], rc,
                "set {i} refcount matches its interval references"
            );
            if rc > 0 {
                let set = &self.sets[i];
                assert_eq!(
                    self.ids.get(set),
                    Some(&WriterSetId(i as u32)),
                    "live set {i} resolvable through the id map"
                );
            }
        }
        for &slot in &self.free {
            assert_eq!(self.refs[slot as usize], 0, "free slot is dead");
            assert!(self.sets[slot as usize].is_empty(), "free slot taken");
        }
        assert_eq!(
            self.live() + self.free.len(),
            self.sets.len(),
            "every slot is live or free"
        );
    }
}

/// Clamps a range so its exclusive end saturates at `Word::MAX`
/// (the same discipline as `WriteTable`).
#[inline]
fn clamp_size(addr: Word, size: u64) -> u64 {
    size.min(Word::MAX - addr)
}

/// One address-region shard: disjoint, sorted `[start, end)` intervals,
/// each mapped to a non-empty interned writer set, plus a
/// principal-presence map (interval refcount per principal — the kfree
/// hint). Touching intervals with the same set are coalesced on every
/// mutation.
///
/// The set interner is shared across shards and passed in by the owner
/// (the single-threaded [`WriterIndex`] owns one directly; the
/// concurrent runtime core guards one with its own mutex while each
/// shard gets its own lock — the splice memmove, the expensive part, is
/// what the per-shard locking bounds).
#[derive(Debug, Default)]
pub(crate) struct IndexShard {
    starts: Vec<Word>,
    /// Exclusive ends, parallel to `starts`. Disjointness makes this
    /// vector sorted too, which the window search relies on.
    ends: Vec<Word>,
    sets: Vec<WriterSetId>,
    /// For each principal id, the number of this shard's intervals whose
    /// writer set contains it (the kfree presence hint). Dense so the
    /// per-splice maintenance is two array ops per set member; the slots
    /// of principals never seen in this shard simply stay zero.
    present: Vec<u32>,
    /// The coalesced replacement segments of the splice in progress,
    /// reused across splices under the shard lock (sets already interned
    /// by the plan phase).
    repl: Vec<(Word, Word, WriterSetId)>,
}

impl IndexShard {
    /// Creates an empty shard.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn present_inc(&mut self, p: PrincipalId) {
        let i = p.0 as usize;
        if i >= self.present.len() {
            self.present.resize(i + 1, 0);
        }
        self.present[i] += 1;
    }

    #[inline]
    fn present_dec(&mut self, p: PrincipalId) {
        self.present[p.0 as usize] -= 1;
    }

    /// Indices of the entries overlapping `[a, e)`: `lo..hi`.
    #[inline]
    fn window(&self, a: Word, e: Word) -> (usize, usize) {
        let lo = self.ends.partition_point(|&x| x <= a);
        let hi = self.starts.partition_point(|&s| s < e);
        (lo, hi.max(lo))
    }

    /// Appends a segment to the replacement buffer, coalescing it into
    /// the previous one when they touch and share a set.
    fn push_seg(&mut self, seg: (Word, Word, WriterSetId)) {
        debug_assert!(seg.0 < seg.1, "non-empty segment");
        if let Some(last) = self.repl.last_mut() {
            if last.1 == seg.0 && last.2 == seg.2 {
                last.1 = seg.1;
                return;
            }
        }
        self.repl.push(seg);
    }

    /// Completes the id/refcount phase of a splice replacing entries
    /// `lo..hi` with the planned `repl`: acquires the new segments' sets,
    /// releases the replaced entries' sets (new acquired before old
    /// release, so a set that survives the splice is never transiently
    /// freed), and applies the presence-map deltas. Everything that
    /// needs the interner happens here; [`IndexShard::apply_splice`]
    /// then runs with no interner access at all.
    fn plan_splice(&mut self, interner: &mut SetInterner, lo: usize, hi: usize) {
        for i in 0..self.repl.len() {
            let sid = self.repl[i].2;
            interner.acquire(sid);
            for &w in interner.get(sid) {
                self.present_inc(w);
            }
        }
        for j in lo..hi {
            // Presence decrements read the set before releasing it (a
            // release can free the slot).
            let sid = self.sets[j];
            for &w in interner.get(sid) {
                self.present_dec(w);
            }
            interner.release(sid);
        }
    }

    /// Applies a planned splice: the interval memmove. Pure shard-local
    /// state — runs under the shard lock alone, never the interner's.
    fn apply_splice(&mut self, lo: usize, hi: usize) {
        let repl = &self.repl;
        self.starts.splice(lo..hi, repl.iter().map(|s| s.0));
        self.ends.splice(lo..hi, repl.iter().map(|s| s.1));
        self.sets.splice(lo..hi, repl.iter().map(|s| s.2));
    }

    /// Plans the replacement for unioning `p` into `[addr, e)`
    /// (pre-clipped) into `repl`: the id phase of [`IndexShard::add`],
    /// reading shard state and interning the new sets but mutating no
    /// intervals. Returns the replaced entry range.
    fn plan_add(
        &mut self,
        interner: &mut SetInterner,
        p: PrincipalId,
        addr: Word,
        e: Word,
    ) -> (usize, usize) {
        let (wlo, whi) = self.window(addr, e);
        let mut lo = wlo;
        let mut hi = whi;
        self.repl.clear();
        // Pull a touching left neighbor into the splice so a coalescible
        // boundary merges instead of fragmenting.
        if wlo > 0 && self.ends[wlo - 1] == addr {
            lo = wlo - 1;
            self.push_seg((self.starts[lo], self.ends[lo], self.sets[lo]));
        }
        let mut cursor = addr;
        for j in wlo..whi {
            let (s, en, sid) = (self.starts[j], self.ends[j], self.sets[j]);
            let ov_lo = s.max(addr);
            let ov_hi = en.min(e);
            if s < ov_lo {
                self.push_seg((s, ov_lo, sid));
            }
            if cursor < ov_lo {
                let single = interner.singleton(p);
                self.push_seg((cursor, ov_lo, single));
            }
            let merged = interner.with(sid, p);
            self.push_seg((ov_lo, ov_hi, merged));
            if en > ov_hi {
                self.push_seg((ov_hi, en, sid));
            }
            cursor = ov_hi;
        }
        if cursor < e {
            let single = interner.singleton(p);
            self.push_seg((cursor, e, single));
        }
        if whi < self.starts.len() && self.starts[whi] == e {
            self.push_seg((self.starts[whi], self.ends[whi], self.sets[whi]));
            hi = whi + 1;
        }
        (lo, hi)
    }

    /// Unions `p` into `[addr, e)` within this shard (the caller has
    /// already clipped the range to the shard's bounds). Idempotent.
    pub(crate) fn add(&mut self, interner: &mut SetInterner, p: PrincipalId, addr: Word, e: Word) {
        let (lo, hi) = self.plan_add(interner, p, addr, e);
        self.plan_splice(interner, lo, hi);
        self.apply_splice(lo, hi);
    }

    /// Concurrent-path `add`: the shard lock is held by the caller for
    /// the whole call; the shared interner mutex is taken only for the
    /// id/refcount phase, and the memmove runs under the shard lock
    /// alone. Lock order is shard → interner (the interner is a leaf).
    pub(crate) fn add_split(
        &mut self,
        interner: &StdMutex<SetInterner>,
        p: PrincipalId,
        addr: Word,
        e: Word,
    ) {
        let (lo, hi) = {
            let mut it = interner.lock().expect("interner lock");
            let (lo, hi) = self.plan_add(&mut it, p, addr, e);
            self.plan_splice(&mut it, lo, hi);
            (lo, hi)
        };
        self.apply_splice(lo, hi);
    }

    /// Plans the replacement for removing `p` from `[addr, e)`
    /// (pre-clipped) into `repl`: the id phase of [`IndexShard::remove`].
    fn plan_remove(
        &mut self,
        interner: &mut SetInterner,
        p: PrincipalId,
        addr: Word,
        e: Word,
    ) -> (usize, usize) {
        let (wlo, whi) = self.window(addr, e);
        let mut lo = wlo;
        let mut hi = whi;
        self.repl.clear();
        if wlo > 0 && self.ends[wlo - 1] == addr {
            lo = wlo - 1;
            self.push_seg((self.starts[lo], self.ends[lo], self.sets[lo]));
        }
        for j in wlo..whi {
            let (s, en, sid) = (self.starts[j], self.ends[j], self.sets[j]);
            let ov_lo = s.max(addr);
            let ov_hi = en.min(e);
            if s < ov_lo {
                self.push_seg((s, ov_lo, sid));
            }
            let shrunk = interner.without(sid, p);
            if shrunk != EMPTY_WRITERS {
                self.push_seg((ov_lo, ov_hi, shrunk));
            }
            if en > ov_hi {
                self.push_seg((ov_hi, en, sid));
            }
        }
        if whi < self.starts.len() && self.starts[whi] == e {
            self.push_seg((self.starts[whi], self.ends[whi], self.sets[whi]));
            hi = whi + 1;
        }
        (lo, hi)
    }

    /// Removes `p` from the writer sets of `[addr, e)` within this shard
    /// (pre-clipped); intervals whose set empties are dropped. A no-op
    /// where `p` is not a writer.
    pub(crate) fn remove(
        &mut self,
        interner: &mut SetInterner,
        p: PrincipalId,
        addr: Word,
        e: Word,
    ) {
        let (lo, hi) = self.plan_remove(interner, p, addr, e);
        self.plan_splice(interner, lo, hi);
        self.apply_splice(lo, hi);
    }

    /// Concurrent-path `remove`: same locking discipline as
    /// [`IndexShard::add_split`].
    pub(crate) fn remove_split(
        &mut self,
        interner: &StdMutex<SetInterner>,
        p: PrincipalId,
        addr: Word,
        e: Word,
    ) {
        let (lo, hi) = {
            let mut it = interner.lock().expect("interner lock");
            let (lo, hi) = self.plan_remove(&mut it, p, addr, e);
            self.plan_splice(&mut it, lo, hi);
            (lo, hi)
        };
        self.apply_splice(lo, hi);
    }

    /// True if any writer interval overlaps `[a, e)` (pre-clipped).
    pub(crate) fn overlaps(&self, a: Word, e: Word) -> bool {
        let (lo, hi) = self.window(a, e);
        lo < hi
    }

    /// The writers of `[a, e)` (pre-clipped), interval by interval: a
    /// principal in several overlapping intervals repeats.
    pub(crate) fn writers<'a>(
        &'a self,
        interner: &'a SetInterner,
        a: Word,
        e: Word,
    ) -> impl Iterator<Item = PrincipalId> + 'a {
        let (lo, hi) = self.window(a, e);
        self.sets[lo..hi]
            .iter()
            .flat_map(move |&sid| interner.get(sid).iter().copied())
    }

    /// Principals with at least one interval in this shard — the kfree
    /// presence hint.
    pub(crate) fn present_principals(&self) -> impl Iterator<Item = PrincipalId> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| PrincipalId(i as u32))
    }

    /// The lowest-numbered principal at or above `from` with at least
    /// one interval in this shard: the kfree sweep walks the presence
    /// hint with this instead of collecting it.
    pub(crate) fn next_present(&self, from: usize) -> Option<PrincipalId> {
        let rest = self.present.get(from..)?;
        let i = rest.iter().position(|&c| c > 0)?;
        Some(PrincipalId((from + i) as u32))
    }

    /// Live intervals in this shard.
    pub(crate) fn interval_count(&self) -> usize {
        self.starts.len()
    }

    /// Iterates `(start, end, writers)` in address order.
    pub(crate) fn intervals<'a>(
        &'a self,
        interner: &'a SetInterner,
    ) -> impl Iterator<Item = (Word, Word, &'a [PrincipalId])> + 'a {
        (0..self.starts.len())
            .map(move |i| (self.starts[i], self.ends[i], interner.get(self.sets[i])))
    }

    /// Panics unless the shard's structural invariants hold within the
    /// bounds `[slo, shi)`, accumulating this shard's per-set interval
    /// references into `refs` (the owner validates the total against
    /// the shared interner); see [`WriterIndex::check_invariants`].
    pub(crate) fn check_invariants(
        &self,
        interner: &SetInterner,
        refs: &mut Vec<u32>,
        slo: Word,
        shi: Word,
    ) {
        assert_eq!(self.starts.len(), self.ends.len());
        assert_eq!(self.starts.len(), self.sets.len());
        refs.resize(interner.capacity(), 0);
        let mut present: HashMap<PrincipalId, u32> = HashMap::new();
        for i in 0..self.starts.len() {
            assert!(self.starts[i] < self.ends[i], "interval {i} non-empty");
            assert!(
                self.starts[i] >= slo && self.ends[i] <= shi,
                "interval {i} inside shard bounds"
            );
            assert_ne!(self.sets[i], EMPTY_WRITERS, "interval {i} has writers");
            let set = interner.get(self.sets[i]);
            assert!(!set.is_empty());
            assert!(set.windows(2).all(|w| w[0] < w[1]), "set sorted");
            refs[self.sets[i].0 as usize] += 1;
            for &w in set {
                *present.entry(w).or_insert(0) += 1;
            }
            if i + 1 < self.starts.len() {
                assert!(self.ends[i] <= self.starts[i + 1], "disjoint + sorted");
                assert!(
                    !(self.ends[i] == self.starts[i + 1] && self.sets[i] == self.sets[i + 1]),
                    "touching equal-set intervals must coalesce"
                );
            }
        }
        for (i, &c) in self.present.iter().enumerate() {
            let want = present.get(&PrincipalId(i as u32)).copied().unwrap_or(0);
            assert_eq!(c, want, "presence count for principal {i}");
        }
        for (p, &c) in &present {
            assert!(
                (p.0 as usize) < self.present.len() && self.present[p.0 as usize] == c,
                "presence entry for {p:?} recorded"
            );
        }
    }
}

/// Resolves which shard of a boundary list holds `addr`.
#[inline]
pub(crate) fn shard_of(boundaries: &[Word], addr: Word) -> usize {
    boundaries.partition_point(|&b| b <= addr)
}

/// Inclusive lower bound of shard `s`.
#[inline]
pub(crate) fn shard_lo(boundaries: &[Word], s: usize) -> Word {
    if s == 0 {
        0
    } else {
        boundaries[s - 1]
    }
}

/// Exclusive upper bound of shard `s` (the top shard runs to MAX, which
/// no saturated interval end can exceed).
#[inline]
pub(crate) fn shard_hi(boundaries: &[Word], s: usize) -> Word {
    boundaries.get(s).copied().unwrap_or(Word::MAX)
}

/// Normalizes shard split points: deduplicated, sorted, zeros dropped.
pub(crate) fn normalize_boundaries(mut boundaries: Vec<Word>) -> Vec<Word> {
    boundaries.retain(|&b| b > 0);
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries
}

/// Runs `f(shard, lo, hi)` over the shard segments of
/// `[addr, addr+size)`, with the range's end clamped at `Word::MAX` and
/// each non-empty segment clipped to its shard's bounds. The one place
/// the boundary-clipping walk lives: both the single-threaded
/// [`WriterIndex`] and the runtime core's locked shard array iterate
/// through it, so their clamping semantics cannot drift apart.
#[inline]
pub(crate) fn for_each_segment(
    boundaries: &[Word],
    addr: Word,
    size: u64,
    mut f: impl FnMut(usize, Word, Word),
) {
    let size = clamp_size(addr, size);
    if size == 0 {
        return;
    }
    let e = addr + size;
    let (first, last) = (shard_of(boundaries, addr), shard_of(boundaries, e - 1));
    for s in first..=last {
        let lo = addr.max(shard_lo(boundaries, s));
        let hi = e.min(shard_hi(boundaries, s));
        debug_assert!(lo < hi, "clipped segment non-empty");
        f(s, lo, hi);
    }
}

/// The reverse writer index: address-region shards of disjoint sorted
/// intervals over one shared refcounted set interner. See the module
/// docs for the sharding, GC, and presence disciplines. This is the
/// single-threaded form; the concurrent runtime core holds the same
/// `IndexShard`s behind per-shard locks.
#[derive(Debug)]
pub struct WriterIndex {
    /// Sorted, distinct, non-zero shard split points; shard `i` covers
    /// `[boundaries[i-1], boundaries[i])` (first from 0, last to MAX).
    boundaries: Vec<Word>,
    shards: Vec<IndexShard>,
    interner: SetInterner,
}

impl Default for WriterIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl WriterIndex {
    /// Creates an empty single-shard index (whole address space).
    pub fn new() -> Self {
        Self::with_boundaries(Vec::new())
    }

    /// Creates an empty index sharded at the given split points
    /// (deduplicated, sorted; zeros dropped). `n` boundaries make
    /// `n + 1` shards.
    pub fn with_boundaries(boundaries: Vec<Word>) -> Self {
        let boundaries = normalize_boundaries(boundaries);
        let shards = (0..=boundaries.len()).map(|_| IndexShard::new()).collect();
        WriterIndex {
            boundaries,
            shards,
            interner: SetInterner::new(),
        }
    }

    /// The configured shard split points.
    pub fn boundaries(&self) -> &[Word] {
        &self.boundaries
    }

    /// Number of shards (`boundaries + 1`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `addr`.
    #[inline]
    fn shard_of(&self, addr: Word) -> usize {
        shard_of(&self.boundaries, addr)
    }

    /// Records that `p` was granted WRITE over `[addr, addr+size)`:
    /// existing intervals split at the grant's boundaries and union `p`
    /// in; uncovered gaps become `{p}` intervals. Idempotent. A grant
    /// crossing a shard boundary is split there.
    pub fn add(&mut self, p: PrincipalId, addr: Word, size: u64) {
        let (shards, interner) = (&mut self.shards, &mut self.interner);
        for_each_segment(&self.boundaries, addr, size, |s, lo, hi| {
            shards[s].add(interner, p, lo, hi)
        });
    }

    /// Removes `p` from the writer sets of `[addr, addr+size)`, splitting
    /// intervals at the boundaries; intervals whose set empties are
    /// dropped. A no-op where `p` is not a writer.
    ///
    /// Callers revoking one grant must afterwards [`add`](Self::add) back
    /// any of `p`'s *other* grants still overlapping the range — the
    /// index stores merged coverage, not individual grants.
    pub fn remove(&mut self, p: PrincipalId, addr: Word, size: u64) {
        let (shards, interner) = (&mut self.shards, &mut self.interner);
        for_each_segment(&self.boundaries, addr, size, |s, lo, hi| {
            shards[s].remove(interner, p, lo, hi)
        });
    }

    /// True if any writer interval overlaps `[addr, addr+len)` (query end
    /// saturates at `Word::MAX`).
    pub fn overlaps(&self, addr: Word, len: u64) -> bool {
        let mut hit = false;
        for_each_segment(&self.boundaries, addr, len, |s, lo, hi| {
            hit |= self.shards[s].overlaps(lo, hi)
        });
        hit
    }

    /// Deduplicated writer principals of `[addr, addr+len)`, in interval
    /// order across shards. Allocation-free: the iterator yields straight
    /// out of the interned sets (the common case is a single covering
    /// interval in a single shard).
    pub fn writers_over(&self, addr: Word, len: u64) -> WritersOver<'_> {
        if len == 0 {
            return WritersOver {
                index: self,
                addr: 0,
                end: 0,
                s_first: 1,
                s_last: 0,
                s: 1,
                win: (0, 0),
                j: 0,
                k: 0,
            };
        }
        let e = addr.saturating_add(len);
        let s_first = self.shard_of(addr);
        let s_last = self.shard_of(e - 1);
        let win = self.shards[s_first].window(addr, e);
        WritersOver {
            index: self,
            addr,
            end: e,
            s_first,
            s_last,
            s: s_first,
            win,
            j: win.0,
            k: 0,
        }
    }

    /// Principals present (holding any coverage) in the shards that
    /// overlap `[addr, addr+len)` — a superset of the principals whose
    /// grants overlap the range itself. This is the kfree hint.
    pub fn present_over(&self, addr: Word, len: u64) -> Vec<PrincipalId> {
        let mut out = Vec::new();
        for_each_segment(&self.boundaries, addr, len, |s, _lo, _hi| {
            for p in self.shards[s].present_principals() {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        });
        out.sort_unstable();
        out
    }

    /// Number of live intervals across all shards (diagnostics). A range
    /// spanning shard boundaries counts one interval per shard.
    pub fn interval_count(&self) -> usize {
        self.shards.iter().map(|s| s.interval_count()).sum()
    }

    /// Number of distinct **live** interned writer sets, including the
    /// pinned empty set (diagnostics; unreferenced sets are freed and
    /// their slots recycled).
    pub fn set_count(&self) -> usize {
        self.interner.live()
    }

    /// Writer-set slot allocations ever performed, including reuses of
    /// recycled slots (monotonic; pairs with [`set_count`](Self::set_count)
    /// as the live-vs-interned GC gauge).
    pub fn sets_ever_interned(&self) -> u64 {
        self.interner.ever()
    }

    /// Interner slot capacity: high-water mark of simultaneously live
    /// sets (freed slots are recycled, so this stays bounded under
    /// churn).
    pub fn set_slot_capacity(&self) -> usize {
        self.interner.capacity()
    }

    /// Currently recycled (free) interner slots (diagnostics).
    pub fn free_set_slots(&self) -> usize {
        self.interner.free_slots()
    }

    /// Iterates `(start, end, writers)` over all intervals in address
    /// order (diagnostics).
    pub fn intervals(&self) -> impl Iterator<Item = (Word, Word, &[PrincipalId])> + '_ {
        let interner = &self.interner;
        self.shards
            .iter()
            .flat_map(move |sh| sh.intervals(interner))
    }

    /// Panics unless the structural invariants hold: sorted disjoint
    /// non-empty intervals inside their shard's bounds, non-empty sorted
    /// writer sets, no coalescible (touching, equal-set) neighbors
    /// within a shard, interner refcounts exactly matching the interval
    /// entries referencing each set (across shards), and each shard's
    /// presence map matching its interval membership. Test/proptest hook.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut refs = vec![0u32; self.interner.capacity()];
        for (si, sh) in self.shards.iter().enumerate() {
            sh.check_invariants(
                &self.interner,
                &mut refs,
                shard_lo(&self.boundaries, si),
                shard_hi(&self.boundaries, si),
            );
        }
        self.interner.check_consistency(&refs);
    }
}

/// Iterator over the deduplicated writers of a range; see
/// [`WriterIndex::writers_over`].
pub struct WritersOver<'a> {
    index: &'a WriterIndex,
    addr: Word,
    end: Word,
    s_first: usize,
    s_last: usize,
    s: usize,
    win: (usize, usize),
    j: usize,
    k: usize,
}

impl WritersOver<'_> {
    /// True if `w` was already yielded from an earlier overlapping
    /// interval (possibly in an earlier shard). Ranges rarely span more
    /// than one interval, so this almost never iterates.
    fn already_yielded(&self, w: PrincipalId, sid: WriterSetId) -> bool {
        for ss in self.s_first..=self.s {
            let sh = &self.index.shards[ss];
            let (wlo, whi) = if ss == self.s {
                (self.win.0, self.j)
            } else {
                sh.window(self.addr, self.end)
            };
            for jj in wlo..whi {
                let sj = sh.sets[jj];
                if sj == sid || self.index.interner.get(sj).binary_search(&w).is_ok() {
                    return true;
                }
            }
        }
        false
    }
}

impl Iterator for WritersOver<'_> {
    type Item = PrincipalId;

    fn next(&mut self) -> Option<PrincipalId> {
        loop {
            if self.j >= self.win.1 {
                if self.s >= self.s_last {
                    return None;
                }
                self.s += 1;
                self.win = self.index.shards[self.s].window(self.addr, self.end);
                self.j = self.win.0;
                self.k = 0;
                continue;
            }
            let sh = &self.index.shards[self.s];
            let sid = sh.sets[self.j];
            let set = self.index.interner.get(sid);
            while self.k < set.len() {
                let w = set[self.k];
                self.k += 1;
                if !self.already_yielded(w, sid) {
                    return Some(w);
                }
            }
            self.j += 1;
            self.k = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PrincipalId = PrincipalId(0);
    const P1: PrincipalId = PrincipalId(1);
    const P2: PrincipalId = PrincipalId(2);

    fn writers(ix: &WriterIndex, addr: Word, len: u64) -> Vec<PrincipalId> {
        ix.writers_over(addr, len).collect()
    }

    #[test]
    fn single_grant_single_writer() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 64);
        ix.check_invariants();
        assert_eq!(writers(&ix, 0x1000, 8), vec![P0]);
        assert_eq!(writers(&ix, 0x103f, 8), vec![P0], "tail byte overlaps");
        assert!(writers(&ix, 0x1040, 8).is_empty());
        assert!(
            writers(&ix, 0xff8, 8).is_empty(),
            "exclusive end: [0xff8, 0x1000) misses the grant"
        );
    }

    #[test]
    fn overlapping_grants_union_and_split() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1080, 0x100);
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 3, "split at 0x1080 and 0x1100");
        assert_eq!(writers(&ix, 0x1000, 8), vec![P0]);
        assert_eq!(writers(&ix, 0x1080, 8), vec![P0, P1]);
        assert_eq!(writers(&ix, 0x1100, 8), vec![P1]);
        // A probe spanning the split point still yields each writer once.
        assert_eq!(writers(&ix, 0x107c, 8), vec![P0, P1]);
    }

    #[test]
    fn remove_merges_back() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1080, 0x10);
        assert_eq!(ix.interval_count(), 3);
        ix.remove(P1, 0x1080, 0x10);
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 1, "splits coalesce after removal");
        assert_eq!(writers(&ix, 0x1080, 8), vec![P0]);
    }

    #[test]
    fn remove_creates_gap() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x30);
        ix.remove(P0, 0x1010, 0x10);
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 2);
        assert_eq!(writers(&ix, 0x1000, 8), vec![P0]);
        assert!(writers(&ix, 0x1010, 8).is_empty());
        assert_eq!(writers(&ix, 0x1020, 8), vec![P0]);
        // A probe across the gap still finds P0 exactly once.
        assert_eq!(writers(&ix, 0x1008, 0x20), vec![P0]);
    }

    #[test]
    fn idempotent_add_does_not_fragment() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x100);
        ix.add(P0, 0x1040, 0x10); // interior re-grant, same writer
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 1, "equal-set splits re-coalesce");
    }

    #[test]
    fn adjacent_same_set_coalesces() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x40);
        ix.add(P0, 0x1040, 0x40);
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 1);
        assert_eq!(writers(&ix, 0x1038, 16), vec![P0]);
    }

    #[test]
    fn three_writers_dedup_across_intervals() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1000, 0x80);
        ix.add(P2, 0x1040, 0x100);
        ix.check_invariants();
        let all = writers(&ix, 0x1000, 0x200);
        assert_eq!(all, vec![P0, P1, P2]);
        assert_eq!(writers(&ix, 0x1060, 8), vec![P0, P1, P2]);
        assert_eq!(writers(&ix, 0x1090, 8), vec![P0, P2]);
    }

    #[test]
    fn near_max_saturates() {
        let mut ix = WriterIndex::new();
        ix.add(P0, u64::MAX - 8, 16); // clamps to [MAX-8, MAX)
        ix.check_invariants();
        assert_eq!(writers(&ix, u64::MAX - 4, 8), vec![P0]);
        assert!(writers(&ix, u64::MAX, 8).is_empty(), "empty clamped probe");
        ix.add(P1, u64::MAX, 8); // clamps to nothing
        assert_eq!(ix.interval_count(), 1);
        ix.remove(P0, u64::MAX - 8, 16);
        assert_eq!(ix.interval_count(), 0);
    }

    #[test]
    fn zero_len_probe_is_empty() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 64);
        assert!(writers(&ix, 0x1010, 0).is_empty());
        assert!(!ix.overlaps(0x1010, 0));
    }

    #[test]
    fn set_interning_shares_ids_and_gcs_transients() {
        let mut ix = WriterIndex::new();
        for i in 0..8u64 {
            ix.add(P0, 0x1000 + i * 0x100, 0x40);
            ix.add(P1, 0x1000 + i * 0x100, 0x40);
        }
        ix.check_invariants();
        // 8 disjoint {P0,P1} regions share ONE live set besides the
        // pinned empty set; the transient {P0} singletons created before
        // each P1 add were freed when their last interval upgraded.
        assert_eq!(ix.interval_count(), 8);
        assert_eq!(ix.set_count(), 2, "live: {{}} and {{P0,P1}}");
        assert!(
            ix.sets_ever_interned() >= 3,
            "transient {{P0}} was interned"
        );
        assert!(
            ix.set_slot_capacity() <= 3,
            "freed slots recycled: capacity {}",
            ix.set_slot_capacity()
        );
    }

    #[test]
    fn removing_last_reference_frees_the_set() {
        let mut ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x40);
        ix.add(P1, 0x1000, 0x40);
        assert_eq!(ix.set_count(), 2); // {}, {P0,P1}
        ix.remove(P0, 0x1000, 0x40);
        ix.check_invariants();
        assert_eq!(ix.set_count(), 2, "{{P0,P1}} freed, {{P1}} live");
        ix.remove(P1, 0x1000, 0x40);
        ix.check_invariants();
        assert_eq!(ix.set_count(), 1, "only the pinned empty set remains");
        assert_eq!(ix.interval_count(), 0);
        assert!(ix.free_set_slots() > 0, "slots await recycling");
    }

    #[test]
    fn presence_tracks_interval_membership() {
        let mut ix = WriterIndex::new();
        assert!(ix.present_over(0x1000, 0x100).is_empty());
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1080, 0x10);
        ix.check_invariants();
        // Single shard: presence is shard-wide (a superset of the
        // range's writers).
        assert_eq!(ix.present_over(0x1000, 8), vec![P0, P1]);
        ix.remove(P1, 0x1080, 0x10);
        assert_eq!(ix.present_over(0x1000, 8), vec![P0]);
        ix.remove(P0, 0x1000, 0x100);
        assert!(ix.present_over(0x1000, 8).is_empty());
    }

    #[test]
    fn presence_is_per_shard() {
        let mut ix = WriterIndex::with_boundaries(vec![0x2000]);
        ix.add(P0, 0x1000, 0x100); // shard 0
        ix.add(P1, 0x3000, 0x100); // shard 1
        ix.check_invariants();
        assert_eq!(ix.present_over(0x1000, 8), vec![P0]);
        assert_eq!(ix.present_over(0x3000, 8), vec![P1]);
        // A range spanning the boundary unions both shards' presence.
        assert_eq!(ix.present_over(0x1000, 0x3000), vec![P0, P1]);
    }

    // ------------------------------------------------------------ shards

    #[test]
    fn sharded_answers_match_unsharded() {
        let bounds = vec![0x1080, 0x1100, 0x2000];
        let mut sharded = WriterIndex::with_boundaries(bounds);
        let mut flat = WriterIndex::new();
        let ops: &[(PrincipalId, Word, u64)] = &[
            (P0, 0x1000, 0x100), // crosses 0x1080
            (P1, 0x1040, 0x200), // crosses 0x1080 and 0x1100
            (P2, 0x1ff0, 0x20),  // crosses 0x2000
            (P0, 0x3000, 0x40),  // inside the top shard
        ];
        for &(p, a, s) in ops {
            sharded.add(p, a, s);
            flat.add(p, a, s);
            sharded.check_invariants();
        }
        for probe in [
            0x0ff8u64, 0x1000, 0x1040, 0x107c, 0x1080, 0x10fc, 0x1100, 0x123c, 0x1ff0, 0x1ffc,
            0x2000, 0x2008, 0x3000,
        ] {
            assert_eq!(
                writers(&sharded, probe, 8),
                writers(&flat, probe, 8),
                "probe {probe:#x}"
            );
            assert_eq!(sharded.overlaps(probe, 8), flat.overlaps(probe, 8));
        }
        // A wide probe spanning every shard still dedups writers.
        let mut wide: Vec<_> = writers(&sharded, 0x1000, 0x2100);
        wide.sort();
        assert_eq!(wide, vec![P0, P1, P2]);
        // Removals across boundaries agree too.
        sharded.remove(P1, 0x1040, 0x200);
        flat.remove(P1, 0x1040, 0x200);
        sharded.check_invariants();
        for probe in [0x1040u64, 0x1080, 0x1100, 0x1200] {
            assert_eq!(
                writers(&sharded, probe, 8),
                writers(&flat, probe, 8),
                "post-remove probe {probe:#x}"
            );
        }
    }

    #[test]
    fn boundary_crossing_grant_splits_per_shard() {
        let mut ix = WriterIndex::with_boundaries(vec![0x1080]);
        assert_eq!(ix.shard_count(), 2);
        ix.add(P0, 0x1000, 0x100);
        ix.check_invariants();
        // One logical region, two per-shard intervals (no cross-shard
        // coalescing), one live non-empty set (the interner is shared).
        assert_eq!(ix.interval_count(), 2);
        assert_eq!(ix.set_count(), 2);
        assert_eq!(writers(&ix, 0x1078, 16), vec![P0], "probe across boundary");
        ix.remove(P0, 0x1000, 0x100);
        assert_eq!(ix.interval_count(), 0);
        assert_eq!(ix.set_count(), 1, "only the pinned empty set stays");
    }

    #[test]
    fn boundaries_normalize() {
        let ix = WriterIndex::with_boundaries(vec![0x2000, 0, 0x1000, 0x2000]);
        assert_eq!(ix.boundaries(), &[0x1000, 0x2000]);
        assert_eq!(ix.shard_count(), 3);
    }

    #[test]
    fn near_max_sharded_saturates() {
        let mut ix = WriterIndex::with_boundaries(vec![u64::MAX - 0x100]);
        ix.add(P0, u64::MAX - 0x180, 0x1000); // clamps to [MAX-0x180, MAX)
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 2, "split at the boundary");
        assert_eq!(writers(&ix, u64::MAX - 0x110, 0x20), vec![P0]);
        assert_eq!(writers(&ix, u64::MAX - 8, 8), vec![P0]);
        ix.remove(P0, u64::MAX - 0x180, u64::MAX);
        assert_eq!(ix.interval_count(), 0);
        ix.check_invariants();
    }

    // ------------------------------------------- interner equivalence

    mod interner_equivalence {
        //! The slice-lookup interner against the interner it replaced,
        //! which built every candidate set in a fresh `Vec` before the
        //! lookup. Random grant / revoke / transfer / kfree sequences
        //! drive the runtime core's index through `add`, `remove`,
        //! `replace` and `substitute` splices; every interner call they
        //! make is replayed on the reference, and after each operation
        //! set ids, slot contents, refcounts, the free list and the
        //! `ever` counter must agree exactly.

        use std::collections::HashMap;

        use proptest::prelude::*;

        use super::super::{InternCall, SetInterner, WriterSetId, EMPTY_WRITERS};
        use crate::caps::RawCap;
        use crate::principal::PrincipalId;
        use crate::runtime::RuntimeCore;

        /// The allocating reference interner.
        struct AllocatingInterner {
            sets: Vec<Vec<PrincipalId>>,
            refs: Vec<u32>,
            ids: HashMap<Vec<PrincipalId>, WriterSetId>,
            free: Vec<u32>,
            ever: u64,
        }

        impl AllocatingInterner {
            fn new() -> Self {
                let mut it = AllocatingInterner {
                    sets: Vec::new(),
                    refs: Vec::new(),
                    ids: HashMap::new(),
                    free: Vec::new(),
                    ever: 0,
                };
                it.intern(Vec::new());
                it
            }

            fn intern(&mut self, set: Vec<PrincipalId>) -> WriterSetId {
                if let Some(&id) = self.ids.get(&set) {
                    return id;
                }
                self.ever += 1;
                let id = if let Some(slot) = self.free.pop() {
                    self.sets[slot as usize] = set.clone();
                    WriterSetId(slot)
                } else {
                    self.sets.push(set.clone());
                    self.refs.push(0);
                    WriterSetId((self.sets.len() - 1) as u32)
                };
                self.ids.insert(set, id);
                id
            }

            fn with(&mut self, sid: WriterSetId, p: PrincipalId) -> WriterSetId {
                let cur = &self.sets[sid.0 as usize];
                match cur.binary_search(&p) {
                    Ok(_) => sid,
                    Err(pos) => {
                        let mut v = cur.to_vec();
                        v.insert(pos, p);
                        self.intern(v)
                    }
                }
            }

            fn without(&mut self, sid: WriterSetId, p: PrincipalId) -> WriterSetId {
                let cur = &self.sets[sid.0 as usize];
                match cur.binary_search(&p) {
                    Err(_) => sid,
                    Ok(_) if cur.len() == 1 => EMPTY_WRITERS,
                    Ok(pos) => {
                        let mut v = cur.to_vec();
                        v.remove(pos);
                        self.intern(v)
                    }
                }
            }

            fn acquire(&mut self, id: WriterSetId) {
                if id != EMPTY_WRITERS {
                    self.refs[id.0 as usize] += 1;
                }
            }

            fn release(&mut self, id: WriterSetId) {
                if id == EMPTY_WRITERS {
                    return;
                }
                let i = id.0 as usize;
                self.refs[i] -= 1;
                if self.refs[i] == 0 {
                    let set = std::mem::take(&mut self.sets[i]);
                    self.ids.remove(&set);
                    self.free.push(id.0);
                }
            }

            /// Replays one recorded call; the answers must match.
            fn replay(&mut self, call: InternCall) {
                match call {
                    InternCall::Singleton(p, id) => {
                        assert_eq!(self.intern(vec![p]), id, "{call:?}")
                    }
                    InternCall::With(sid, p, id) => assert_eq!(self.with(sid, p), id, "{call:?}"),
                    InternCall::Without(sid, p, id) => {
                        assert_eq!(self.without(sid, p), id, "{call:?}")
                    }
                    InternCall::Acquire(id) => self.acquire(id),
                    InternCall::Release(id) => self.release(id),
                }
            }

            fn assert_same(&self, it: &SetInterner) {
                assert_eq!(self.sets, it.sets, "slot contents");
                assert_eq!(self.refs, it.refs, "refcounts");
                assert_eq!(self.free, it.free, "free slots");
                assert_eq!(self.ever, it.ever, "ever counter");
                assert_eq!(self.ids, it.ids, "id map");
            }
        }

        const NPRINC: usize = 5;

        #[derive(Debug, Clone)]
        enum Op {
            Grant(usize, u64, u64),
            Revoke(usize, u64, u64),
            Transfer(u64, u64, Option<usize>),
            Kfree(u64, u64),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            // Aligned slots and a few sizes, so exact revokes and
            // transfers hit held grants and overlaps split intervals.
            let princ = 0usize..NPRINC;
            let addr = (0u64..48).prop_map(|k| 0x1000 + k * 0x40);
            let size = prop_oneof![Just(0x40u64), Just(0x80), Just(0x100), 1u64..0x200];
            let dst = proptest::option::of(0usize..NPRINC);
            prop_oneof![
                (princ.clone(), addr.clone(), size.clone())
                    .prop_map(|(p, a, s)| Op::Grant(p, a, s)),
                (princ, addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
                (addr.clone(), size.clone(), dst).prop_map(|(a, s, d)| Op::Transfer(a, s, d)),
                (addr, size).prop_map(|(a, s)| Op::Kfree(a, s)),
            ]
        }

        fn run(ops: &[Op], boundaries: Vec<u64>) {
            let core = RuntimeCore::with_shard_boundaries(boundaries);
            let m = core.register_module("eq");
            let ps: Vec<PrincipalId> = (0..NPRINC)
                .map(|i| core.principal_for_name(m, 0x9000 + i as u64 * 8))
                .collect();
            let mut model = AllocatingInterner::new();
            core.with_interner(|it| model.assert_same(it));
            for op in ops {
                match *op {
                    Op::Grant(p, a, s) => core.grant(ps[p], RawCap::write(a, s)),
                    Op::Revoke(p, a, s) => {
                        core.revoke(ps[p], RawCap::write(a, s));
                    }
                    Op::Transfer(a, s, d) => {
                        core.transfer_write(RawCap::write(a, s), d.map(|i| ps[i]));
                    }
                    Op::Kfree(a, s) => {
                        core.revoke_write_overlapping_everywhere(a, s);
                    }
                }
                core.with_interner(|it| {
                    for call in it.log.drain(..) {
                        model.replay(call);
                    }
                    model.assert_same(it);
                });
                core.check_index_invariants();
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn slice_lookup_interner_matches_allocating_reference(
                ops in proptest::collection::vec(arb_op(), 1..60),
                sharded: bool,
            ) {
                let boundaries = if sharded { vec![0x1400, 0x1800] } else { Vec::new() };
                run(&ops, boundaries);
            }
        }
    }
}
