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
//! O(log intervals + |writers|) instead of O(principals). The `kfree`
//! sweep and WRITE transfers ask the same question of the freed or
//! transferred range.
//!
//! # Sharding and locking
//!
//! [`WriterIndex`] is **sharded by address region**: its constructor
//! takes a list of split points (module windows, slab zones — see the
//! simulated kernel's `layout::shard_boundaries`), fixed for the index's
//! lifetime, and every interval lives in the shard its addresses fall
//! in. Queries resolve the shard with one small binary search over the
//! boundary list before the O(log intervals-in-shard) window search,
//! and the Vec splice a grant or revoke performs moves only the
//! *shard's* tail, not the whole system's interval population.
//!
//! The shard is also the unit of **lock granularity**: each shard sits
//! behind its own mutex, and every method takes `&self`. Mutations are
//! **phase-split** (`IndexShard::add` / `IndexShard::remove`): the
//! shard lock is held for the whole operation (which keeps a
//! revocation's remove-and-reinstate atomic per shard — see
//! `WriterIndex::replace`), while the shared-interner mutex is taken
//! only for the id/refcount phase (interning the new sets, moving
//! refcounts); the interval memmove then runs under the shard lock
//! alone. Splices in different shards therefore
//! overlap except for their brief interner sections, and the lock order
//! is strictly shard → interner (the interner is a leaf — nothing
//! acquires a shard while holding it). Each shard owns the replacement
//! buffer its splices plan into, and the interner looks candidate sets
//! up by slice, so a splice that produces no new writer set allocates
//! nothing. [`WriterIndex::new`] makes a single shard covering the
//! whole address space.
//!
//! Intervals never span a shard boundary: a grant crossing one is split
//! at the boundary, so two touching same-set intervals can exist across
//! a boundary (they coalesce freely *within* a shard).
//!
//! # Writer-set interning and GC
//!
//! Writer sets are interned like the runtime's REF-type names: a sorted,
//! deduplicated `Vec<PrincipalId>` maps to a dense [`WriterSetId`], so
//! the many intervals produced by overlapping grants from the same
//! principals share one set allocation, and set identity is a `u32`
//! compare (which is also what lets adjacent intervals coalesce). The
//! interner is **shared across shards**: sharing is what keeps a set
//! resident when its references repeat across shards, so churn in one
//! shard never re-allocates another's combinations. Interned sets are
//! refcounted by the interval entries referencing them (across all
//! shards): when the last referencing interval is spliced away, the set
//! is freed and its slot recycled, so a long-running grant/revoke churn
//! interns new combinations forever without growing memory. [`set_count`](WriterIndex::set_count) gauges
//! live sets; [`sets_ever_interned`](WriterIndex::sets_ever_interned)
//! counts allocations (including slot reuses) — `ever` growing while
//! `live` stays flat is the GC working.
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
use std::sync::Mutex;

use lxfi_machine::Word;

use crate::caps::WriteTable;
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
    fn new() -> Self {
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

    fn get(&self, id: WriterSetId) -> &[PrincipalId] {
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
    fn live(&self) -> usize {
        self.ids.len()
    }

    /// Monotonic slot-allocation count (including reuses).
    fn ever(&self) -> u64 {
        self.ever
    }

    /// Slot capacity (high-water mark of simultaneously live sets).
    fn capacity(&self) -> usize {
        self.sets.len()
    }

    /// Panics unless the interner agrees with `refs` — the per-set
    /// interval reference counts an index walk accumulated — and its
    /// free-list/id-map bookkeeping is self-consistent.
    fn check_consistency(&self, refs: &[u32]) {
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

/// One address-region shard: disjoint, sorted `[start, end)` intervals,
/// each mapped to a non-empty interned writer set. Touching intervals
/// with the same set are coalesced on every mutation. The set interner
/// is shared across shards and passed in by the owning [`WriterIndex`].
#[derive(Debug, Default)]
pub(crate) struct IndexShard {
    starts: Vec<Word>,
    /// Exclusive ends, parallel to `starts`. Disjointness makes this
    /// vector sorted too, which the window search relies on.
    ends: Vec<Word>,
    sets: Vec<WriterSetId>,
    /// The coalesced replacement segments of the splice in progress,
    /// reused across splices under the shard lock (sets already interned
    /// by the plan phase).
    repl: Vec<(Word, Word, WriterSetId)>,
}

impl IndexShard {
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
    /// freed). Everything that needs the interner happens here;
    /// [`IndexShard::apply_splice`] then runs with no interner access at
    /// all.
    fn plan_splice(&mut self, interner: &mut SetInterner, lo: usize, hi: usize) {
        for &(_, _, sid) in &self.repl {
            interner.acquire(sid);
        }
        for &sid in &self.sets[lo..hi] {
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
    /// already clipped the range to the shard's bounds and holds the
    /// shard lock for the whole call). Idempotent. The shared interner
    /// mutex is taken only for the id/refcount phase, and the memmove
    /// runs under the shard lock alone: lock order is shard → interner
    /// (the interner is a leaf).
    fn add(&mut self, interner: &Mutex<SetInterner>, p: PrincipalId, addr: Word, e: Word) {
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
    /// where `p` is not a writer. Same locking discipline as
    /// [`IndexShard::add`].
    fn remove(&mut self, interner: &Mutex<SetInterner>, p: PrincipalId, addr: Word, e: Word) {
        let (lo, hi) = {
            let mut it = interner.lock().expect("interner lock");
            let (lo, hi) = self.plan_remove(&mut it, p, addr, e);
            self.plan_splice(&mut it, lo, hi);
            (lo, hi)
        };
        self.apply_splice(lo, hi);
    }

    /// True if any writer interval overlaps `[a, e)` (pre-clipped).
    fn overlaps(&self, a: Word, e: Word) -> bool {
        let (lo, hi) = self.window(a, e);
        lo < hi
    }

    /// The writers of `[a, e)` (pre-clipped), interval by interval: a
    /// principal in several overlapping intervals repeats.
    fn writers<'a>(
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

    /// Live intervals in this shard.
    fn interval_count(&self) -> usize {
        self.starts.len()
    }

    /// Panics unless the shard's structural invariants hold within the
    /// bounds `[slo, shi)`, accumulating this shard's per-set interval
    /// references into `refs` (the owner validates the total against
    /// the shared interner); see [`WriterIndex::check_invariants`].
    fn check_invariants(&self, interner: &SetInterner, refs: &mut Vec<u32>, slo: Word, shi: Word) {
        assert_eq!(self.starts.len(), self.ends.len());
        assert_eq!(self.starts.len(), self.sets.len());
        refs.resize(interner.capacity(), 0);
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
            if i + 1 < self.starts.len() {
                assert!(self.ends[i] <= self.starts[i + 1], "disjoint + sorted");
                assert!(
                    !(self.ends[i] == self.starts[i + 1] && self.sets[i] == self.sets[i + 1]),
                    "touching equal-set intervals must coalesce"
                );
            }
        }
    }
}

/// The reverse writer index: address-region shards of disjoint sorted
/// intervals, each behind its own mutex, over one shared refcounted set
/// interner behind its own mutex. Every method takes `&self`; the shard
/// split points are fixed at construction. Grant/revoke splices and
/// writer lookups lock only the shards their address range touches, one
/// at a time. See the module docs for the sharding, locking and GC
/// disciplines.
#[derive(Debug)]
pub struct WriterIndex {
    /// Sorted, distinct, non-zero shard split points; shard `i` covers
    /// `[boundaries[i-1], boundaries[i])` (first from 0, last to MAX).
    boundaries: Vec<Word>,
    shards: Vec<Mutex<IndexShard>>,
    interner: Mutex<SetInterner>,
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
    pub fn with_boundaries(mut boundaries: Vec<Word>) -> Self {
        boundaries.retain(|&b| b > 0);
        boundaries.sort_unstable();
        boundaries.dedup();
        let shards = (0..=boundaries.len()).map(|_| Mutex::default()).collect();
        WriterIndex {
            boundaries,
            shards,
            interner: Mutex::new(SetInterner::new()),
        }
    }

    /// Number of shards (`boundaries + 1`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s inclusive lower and exclusive upper bound (the top
    /// shard runs to MAX, which no saturated interval end can exceed).
    fn shard_bounds(&self, s: usize) -> (Word, Word) {
        let lo = if s == 0 { 0 } else { self.boundaries[s - 1] };
        (lo, self.boundaries.get(s).copied().unwrap_or(Word::MAX))
    }

    /// Runs `f(shard, lo, hi)` on every shard segment of
    /// `[addr, addr+size)`, with the range's end clamped at `Word::MAX`
    /// and each non-empty segment clipped to its shard's bounds, locking
    /// one shard at a time.
    fn for_segments(&self, addr: Word, size: u64, mut f: impl FnMut(&mut IndexShard, Word, Word)) {
        let size = size.min(Word::MAX - addr);
        if size == 0 {
            return;
        }
        let e = addr + size;
        let shard_of = |a: Word| self.boundaries.partition_point(|&b| b <= a);
        for s in shard_of(addr)..=shard_of(e - 1) {
            let (slo, shi) = self.shard_bounds(s);
            let (lo, hi) = (addr.max(slo), e.min(shi));
            debug_assert!(lo < hi, "clipped segment non-empty");
            f(&mut self.shards[s].lock().expect("shard lock"), lo, hi);
        }
    }

    /// Records that `p` was granted WRITE over `[addr, addr+size)`:
    /// existing intervals split at the grant's boundaries and union `p`
    /// in; uncovered gaps become `{p}` intervals. Idempotent. A grant
    /// crossing a shard boundary is split there.
    pub fn add(&self, p: PrincipalId, addr: Word, size: u64) {
        self.for_segments(addr, size, |sh, lo, hi| sh.add(&self.interner, p, lo, hi));
    }

    /// Removes `p` from the writer sets of `[addr, addr+size)`, splitting
    /// intervals at the boundaries; intervals whose set empties are
    /// dropped. A no-op where `p` is not a writer. The index stores
    /// merged coverage, not individual grants: revoking one of `p`'s
    /// grants goes through `replace`, which reinstates the others.
    pub fn remove(&self, p: PrincipalId, addr: Word, size: u64) {
        self.for_segments(addr, size, |sh, lo, hi| {
            sh.remove(&self.interner, p, lo, hi)
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
    pub(crate) fn replace(&self, p: PrincipalId, addr: Word, size: u64, survivors: &WriteTable) {
        self.for_segments(addr, size, |sh, lo, hi| {
            sh.remove(&self.interner, p, lo, hi);
            self.reinstate(sh, p, lo, hi, survivors);
        });
    }

    /// The single-holder transfer splice: swaps `src`'s coverage of
    /// `[addr, addr+size)` for `dst`'s, reinstating what `src`'s
    /// post-revocation table `survivors` still covers, with each shard's
    /// whole substitution under **one** hold of that shard's lock. A
    /// racing lookup sees either the old holder or the new one (plus
    /// survivors) — never a transiently uncovered range.
    pub(crate) fn substitute(
        &self,
        src: PrincipalId,
        dst: Option<PrincipalId>,
        addr: Word,
        size: u64,
        survivors: &WriteTable,
    ) {
        self.for_segments(addr, size, |sh, lo, hi| {
            sh.remove(&self.interner, src, lo, hi);
            self.reinstate(sh, src, lo, hi, survivors);
            if let Some(d) = dst {
                sh.add(&self.interner, d, lo, hi);
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
                sh.add(&self.interner, p, clo, chi);
            }
        }
    }

    /// True if any writer interval overlaps `[addr, addr+len)` (query end
    /// saturates at `Word::MAX`).
    pub fn overlaps(&self, addr: Word, len: u64) -> bool {
        let mut hit = false;
        self.for_segments(addr, len, |sh, lo, hi| hit |= sh.overlaps(lo, hi));
        hit
    }

    /// Appends the deduplicated writer principals of `[addr, addr+len)`
    /// to `out`, in interval order across shards. Allocation-free when
    /// `out` has room: the indirect-call slow path reuses one buffer.
    pub fn collect_writers(&self, addr: Word, len: u64, out: &mut Vec<PrincipalId>) {
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

    /// Number of live intervals across all shards (diagnostics). A range
    /// spanning shard boundaries counts one interval per shard.
    pub fn interval_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").interval_count())
            .sum()
    }

    /// Number of distinct **live** interned writer sets, including the
    /// pinned empty set (diagnostics; unreferenced sets are freed and
    /// their slots recycled).
    pub fn set_count(&self) -> usize {
        self.interner.lock().expect("interner lock").live()
    }

    /// Writer-set slot allocations ever performed, including reuses of
    /// recycled slots (monotonic; pairs with [`set_count`](Self::set_count)
    /// as the live-vs-interned GC gauge).
    pub fn sets_ever_interned(&self) -> u64 {
        self.interner.lock().expect("interner lock").ever()
    }

    /// Interner slot capacity: high-water mark of simultaneously live
    /// sets (freed slots are recycled, so this stays bounded under
    /// churn).
    pub fn set_slot_capacity(&self) -> usize {
        self.interner.lock().expect("interner lock").capacity()
    }

    /// Panics unless the structural invariants hold: sorted disjoint
    /// non-empty intervals inside their shard's bounds, non-empty sorted
    /// writer sets, no coalescible (touching, equal-set) neighbors
    /// within a shard, and interner refcounts exactly matching the
    /// interval entries referencing each set (across shards).
    /// Test/proptest hook.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // Shards before interner, matching the splice lock order (the
        // interner is a leaf — taking it first could deadlock against a
        // concurrent mutation holding a shard).
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        let interner = self.interner.lock().expect("interner lock");
        let mut refs = vec![0u32; interner.capacity()];
        for (si, sh) in shards.iter().enumerate() {
            let (lo, hi) = self.shard_bounds(si);
            sh.check_invariants(&interner, &mut refs, lo, hi);
        }
        interner.check_consistency(&refs);
    }

    /// Runs `f` on the shared interner (the interner equivalence test
    /// drains its call log here).
    #[cfg(test)]
    pub(crate) fn with_interner<R>(&self, f: impl FnOnce(&mut SetInterner) -> R) -> R {
        f(&mut self.interner.lock().expect("interner lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PrincipalId = PrincipalId(0);
    const P1: PrincipalId = PrincipalId(1);
    const P2: PrincipalId = PrincipalId(2);

    fn writers(ix: &WriterIndex, addr: Word, len: u64) -> Vec<PrincipalId> {
        let mut out = Vec::new();
        ix.collect_writers(addr, len, &mut out);
        out
    }

    #[test]
    fn single_grant_single_writer() {
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x100);
        ix.add(P0, 0x1040, 0x10); // interior re-grant, same writer
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 1, "equal-set splits re-coalesce");
    }

    #[test]
    fn adjacent_same_set_coalesces() {
        let ix = WriterIndex::new();
        ix.add(P0, 0x1000, 0x40);
        ix.add(P0, 0x1040, 0x40);
        ix.check_invariants();
        assert_eq!(ix.interval_count(), 1);
        assert_eq!(writers(&ix, 0x1038, 16), vec![P0]);
    }

    #[test]
    fn three_writers_dedup_across_intervals() {
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
        ix.add(P0, 0x1000, 64);
        assert!(writers(&ix, 0x1010, 0).is_empty());
        assert!(!ix.overlaps(0x1010, 0));
    }

    #[test]
    fn set_interning_shares_ids_and_gcs_transients() {
        let ix = WriterIndex::new();
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
        let ix = WriterIndex::new();
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
        assert!(
            ix.with_interner(|it| it.free.len()) > 0,
            "slots await recycling"
        );
    }

    // ------------------------------------------------------------ shards

    #[test]
    fn sharded_answers_match_unsharded() {
        let bounds = vec![0x1080, 0x1100, 0x2000];
        let sharded = WriterIndex::with_boundaries(bounds);
        let flat = WriterIndex::new();
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
        let ix = WriterIndex::with_boundaries(vec![0x1080]);
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
        assert_eq!(ix.boundaries, &[0x1000, 0x2000]);
        assert_eq!(ix.shard_count(), 3);
    }

    #[test]
    fn near_max_sharded_saturates() {
        let ix = WriterIndex::with_boundaries(vec![u64::MAX - 0x100]);
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
            let mut holders = Vec::new();
            core.index.with_interner(|it| model.assert_same(it));
            for op in ops {
                match *op {
                    Op::Grant(p, a, s) => core.grant(ps[p], RawCap::write(a, s)),
                    Op::Revoke(p, a, s) => {
                        core.revoke(ps[p], RawCap::write(a, s));
                    }
                    Op::Transfer(a, s, d) => {
                        core.transfer_write(RawCap::write(a, s), d.map(|i| ps[i]), &mut holders);
                    }
                    Op::Kfree(a, s) => {
                        core.revoke_write_overlapping_everywhere(a, s, &mut holders);
                    }
                }
                core.index.with_interner(|it| {
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
