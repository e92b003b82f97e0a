//! Reverse writer index (§5 scaling): address range → writer principals,
//! and the runtime's only WRITE capability table.
//!
//! The paper keeps each principal's WRITE grants in its own table and
//! answers "which principals may write this function-pointer slot?" by
//! walking the global principal list — linear in the number of
//! principals, and the list grows with every module instance. This
//! module inverts the question and keeps one record: every WRITE grant
//! is one `(addr, size, holder)` entry in a sorted-interval /
//! prefix-maximum structure ([`IntervalTable`], tagged with the
//! holder). "Who may write this slot" is a binary search plus a walk of
//! the entries overlapping the probe — O(log entries + overlapping
//! entries) instead of O(principals) — and "may `p` write this range"
//! is a covering query over the same entries, filtered by a holder
//! predicate that expresses the §3.1 hierarchy (see
//! `RuntimeCore::write_covering`). The `kfree` sweep and WRITE transfers
//! are one pass over the shards the range touches. Entries are never
//! merged, so removing one grant never has to rebuild what the
//! holder's other grants still cover.
//!
//! # Sharding and locking
//!
//! [`WriterIndex`] is **sharded by address region**: its constructor
//! takes a list of split points (module windows, slab zones — see the
//! simulated kernel's `layout::shard_boundaries`), fixed for the index's
//! lifetime. An entry is stored, unclipped, in every shard its range
//! touches, and an operation visits only the shards its range touches,
//! so a lookup searches one shard's entries and a grant's or revoke's
//! `Vec` insert or remove moves only that shard's tail. A range that
//! ends in its first shard is routed with one binary search over the
//! split points. A covering query locks only the shard holding the
//! probe's first byte: an entry covering the probe is stored there too.
//!
//! Each shard sits behind its own mutex, and every method takes `&self`
//! and holds one shard lock at a time, so a change to an entry stored
//! in one shard is atomic under that shard's lock. A change to an entry
//! stored in *several* shards is made under the index's `straddle`
//! mutex, taken before any shard lock, so two such changes never
//! interleave shard by shard and every entry stays present in each
//! shard it touches. Grants, revokes and transfers whose range
//! straddles a boundary take it up front; a sweep inside one shard
//! takes it only when it meets an overlapping entry that straddles.
//!
//! The paper's traversal — per-principal tables probed one by one — is
//! the measured baseline in `lxfi-bench`'s `baselines` module, outside
//! the trusted runtime.
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
//! Identical to [`IntervalTable`]: grant ends saturate at `Word::MAX`
//! (exclusive), zero-length ranges grant/match nothing, and query ends
//! saturate rather than wrap.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

use lxfi_machine::Word;

use crate::caps::IntervalTable;
use crate::principal::PrincipalId;

/// One shard's entries.
type Shard = IntervalTable<PrincipalId>;

/// The reverse writer index: address-region shards, each an
/// [`IntervalTable`] of `(addr, size, holder)` grant entries behind its
/// own mutex. The shard split points are fixed at construction. See the
/// module docs for the sharding and locking disciplines.
#[derive(Debug)]
pub struct WriterIndex {
    /// Sorted, distinct, non-zero shard split points; shard `i` covers
    /// `[boundaries[i-1], boundaries[i])` (first from 0, last to MAX).
    boundaries: Vec<Word>,
    shards: Vec<Mutex<Shard>>,
    /// Held across every change to an entry stored in several shards.
    straddle: Mutex<()>,
}

impl WriterIndex {
    /// Creates an empty index sharded at the given split points
    /// (deduplicated, sorted; zeros dropped). `n` boundaries make
    /// `n + 1` shards; none make one shard covering the whole address
    /// space.
    pub fn with_boundaries(mut boundaries: Vec<Word>) -> Self {
        boundaries.retain(|&b| b > 0);
        boundaries.sort_unstable();
        boundaries.dedup();
        let shards = (0..=boundaries.len()).map(|_| Mutex::default()).collect();
        WriterIndex {
            boundaries,
            shards,
            straddle: Mutex::new(()),
        }
    }

    /// Number of shards (`boundaries + 1`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding byte `a` (public for the routing oracle, like
    /// [`WriterIndex::shards_of`] and [`WriterIndex::only_in`]).
    #[doc(hidden)]
    pub fn shard_of(&self, a: Word) -> usize {
        self.boundaries.partition_point(|&b| b <= a)
    }

    /// The first byte of shard `s`.
    fn shard_start(&self, s: usize) -> Word {
        s.checked_sub(1).map_or(0, |i| self.boundaries[i])
    }

    /// One past the last byte of shard `s` a range can end in
    /// (`Word::MAX` for the last shard: range ends saturate there).
    fn shard_end(&self, s: usize) -> Word {
        self.boundaries.get(s).copied().unwrap_or(Word::MAX)
    }

    /// The shards `[addr, addr+size)` touches, with the range's end
    /// clamped at `Word::MAX` (empty for an empty range). A range that
    /// ends in its first shard, as nearly every one does, is routed by
    /// one search.
    #[doc(hidden)]
    pub fn shards_of(&self, addr: Word, size: u64) -> Range<usize> {
        let size = size.min(Word::MAX - addr);
        if size == 0 {
            return 0..0;
        }
        let first = self.shard_of(addr);
        let last = addr + size - 1;
        if last < self.shard_end(first) {
            return first..first + 1;
        }
        first..self.shard_of(last) + 1
    }

    /// Whether the entry `[a, a+len)` stored in shard `s` is stored in
    /// no other shard: a bounds compare, no routing.
    #[doc(hidden)]
    pub fn only_in(&self, s: usize, a: Word, len: u64) -> bool {
        self.shard_start(s) <= a && a + len <= self.shard_end(s)
    }

    fn lock(&self, s: usize) -> MutexGuard<'_, Shard> {
        self.shards[s].lock().expect("shard lock")
    }

    /// Runs `f` on every shard `[addr, addr+size)` touches, locking one
    /// shard at a time (under `straddle` when there are several); `f`
    /// learns whether its shard is the range's first.
    fn for_shards(&self, addr: Word, size: u64, f: impl FnMut(bool, &mut Shard)) {
        self.checked_pass(addr, size, None::<fn(PrincipalId) -> bool>, f);
    }

    /// [`WriterIndex::for_shards`], first checking, with `src_covers`,
    /// that an entry whose holder it accepts covers all of the range
    /// (the [`covering`](Self::covering) test, made under the lock of
    /// the shard holding `addr` before `f` runs anywhere). Returns
    /// `false`, with `f` run nowhere, if none does. A covering entry
    /// that spans shards can only change under the `straddle` lock the
    /// pass then holds, so it cannot vanish mid-pass.
    fn checked_pass(
        &self,
        addr: Word,
        size: u64,
        mut src_covers: Option<impl FnMut(PrincipalId) -> bool>,
        mut f: impl FnMut(bool, &mut Shard),
    ) -> bool {
        let shards = self.shards_of(addr, size);
        if shards.is_empty() {
            // Only an empty range is covered; a non-empty one here
            // starts at `Word::MAX`.
            return size == 0 || src_covers.is_none();
        }
        let first = shards.start;
        let _straddle = (shards.len() > 1).then(|| self.straddle.lock().expect("straddle lock"));
        for s in shards {
            let mut sh = self.lock(s);
            if let Some(keep) = src_covers.take() {
                if sh.covering(addr, size, keep).is_none() {
                    return false;
                }
            }
            f(s == first, &mut sh);
        }
        true
    }

    /// Grants `p` WRITE over `[addr, addr+size)`: the entry goes into
    /// every shard the range touches. Idempotent.
    pub fn add(&self, p: PrincipalId, addr: Word, size: u64) {
        self.for_shards(addr, size, |_, sh| sh.insert(addr, size, p));
    }

    /// Revokes the exact grant `(addr, size, p)` from every shard the
    /// range touches; returns whether `p` held it.
    pub fn remove(&self, p: PrincipalId, addr: Word, size: u64) -> bool {
        let mut held = false;
        self.for_shards(addr, size, |_, sh| held |= sh.remove(addr, size, p));
        held
    }

    /// The `(start, end)` of an entry whose holder `keep` accepts and
    /// that covers all of `[addr, addr+len)`, if one exists. Locks only
    /// the shard holding `addr`.
    pub fn covering(
        &self,
        addr: Word,
        len: u64,
        keep: impl FnMut(PrincipalId) -> bool,
    ) -> Option<(Word, Word)> {
        self.lock(self.shard_of(addr)).covering(addr, len, keep)
    }

    /// Appends the deduplicated writer principals of `[addr, addr+len)`
    /// to `out`, ordered by the first byte of the range each one covers,
    /// ties by id. Allocation-free when `out` has room: the
    /// indirect-call check reuses one buffer.
    pub fn collect_writers(&self, addr: Word, len: u64, out: &mut Vec<PrincipalId>) {
        for s in self.shards_of(addr, len) {
            let first = out.len();
            self.lock(s).for_each_overlapping(addr, len, |start, _, p| {
                if out.contains(&p) {
                    return;
                }
                if start < addr {
                    // Entries straddling `addr` all first cover the range
                    // there; they come first, in id order.
                    let at = first + out[first..].partition_point(|&q| q < p);
                    out.insert(at, p);
                } else {
                    out.push(p);
                }
            });
        }
    }

    /// `transfer` of the WRITE grant `(addr, size)` in one pass over the
    /// shards it touches: each shard names its writers of the range into
    /// `holders` (cleared first, deduplicated), gains `dst`'s entry and
    /// loses every other holder's exact entry, under one lock. Returns
    /// how many holders lost the grant; they are `holders[..moved]`, and
    /// the rest are bystanders with other grants over the range. A
    /// reader of any shard sees the old holders or `dst`, never neither.
    ///
    /// With `src_covers`, the pass first checks, under the lock of the
    /// shard holding `addr`, that an entry whose holder it accepts covers
    /// all of the range (the [`covering`](Self::covering) test), and
    /// returns `None` with nothing changed if none does. A covering
    /// entry that spans shards can only change under the `straddle` lock
    /// this pass holds, so the source cannot lose it mid-transfer.
    pub fn transfer(
        &self,
        addr: Word,
        size: u64,
        src_covers: Option<impl FnMut(PrincipalId) -> bool>,
        dst: Option<PrincipalId>,
        holders: &mut Vec<PrincipalId>,
    ) -> Option<usize> {
        holders.clear();
        let mut moved = 0;
        let covered = self.checked_pass(addr, size, src_covers, |first, sh| {
            sh.for_each_overlapping(addr, size, |_, _, p| {
                if !holders.contains(&p) {
                    holders.push(p);
                }
            });
            if let Some(d) = dst {
                sh.insert(addr, size, d);
            }
            for i in 0..holders.len() {
                // Every shard holds the exact entries; count them once.
                if Some(holders[i]) != dst && sh.remove(addr, size, holders[i]) && first {
                    holders.swap(moved, i);
                    moved += 1;
                }
            }
        });
        covered.then_some(moved)
    }

    /// Removes every entry overlapping `[addr, addr+size)` whose holder
    /// `remove` accepts, from every shard the entry is stored in
    /// (`remove` may be asked more than once per holder and must answer
    /// the same). Entries stored in one shard go in one pass over the
    /// range's shards, each under its shard's lock alone; entries stored
    /// in several, if the pass met any, go in a second pass under the
    /// `straddle` lock over the shards those entries span.
    pub fn remove_overlapping(
        &self,
        addr: Word,
        size: u64,
        mut remove: impl FnMut(PrincipalId) -> bool,
    ) {
        let (mut lo, mut hi) = (Word::MAX, 0);
        for s in self.shards_of(addr, size) {
            self.lock(s).remove_overlapping(addr, size, |a, len, p| {
                if self.only_in(s, a, len) {
                    return remove(p);
                }
                (lo, hi) = (lo.min(a), hi.max(a + len));
                false
            });
        }
        if lo < hi {
            let _straddle = self.straddle.lock().expect("straddle lock");
            for s in self.shards_of(lo, hi - lo) {
                // Straddlers granted since the first pass may reach past
                // these shards: they stay, as a grant after the sweep would.
                self.lock(s).remove_overlapping(addr, size, |a, len, p| {
                    lo <= a && a + len <= hi && remove(p)
                });
            }
        }
    }

    /// `p`'s entries (diagnostics), each counted once however many
    /// shards it is stored in.
    pub fn holder_entry_count(&self, p: PrincipalId) -> usize {
        (0..self.shards.len())
            .map(|s| {
                self.lock(s)
                    .entries()
                    .filter(|&(a, _, h)| h == p && a >= self.shard_start(s))
                    .count()
            })
            .sum()
    }

    /// Number of entries across all shards (diagnostics). A grant
    /// spanning shard boundaries counts once per shard it touches.
    pub fn entry_count(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).len()).sum()
    }

    /// Number of distinct principals holding an entry (diagnostics).
    pub fn writer_count(&self) -> usize {
        let mut writers = Vec::new();
        for s in 0..self.shards.len() {
            writers.extend(self.lock(s).entries().map(|(_, _, p)| p));
        }
        writers.sort_unstable();
        writers.dedup();
        writers.len()
    }

    /// Panics unless every shard's table is in order with exact prefix
    /// maxima and every entry is stored in each shard its range touches
    /// and in no other. Test/proptest hook: call it while no thread
    /// mutates the index.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let tables: Vec<Vec<_>> = (0..self.shards.len())
            .map(|s| {
                let sh = self.lock(s);
                sh.check_invariants();
                sh.entries().collect()
            })
            .collect();
        for (s, e) in (0..tables.len()).flat_map(|s| tables[s].iter().map(move |e| (s, e))) {
            let mut touched = self.shards_of(e.0, e.1);
            assert!(touched.contains(&s), "{e:?} stored in shard {s} it misses");
            assert!(
                touched.all(|t| tables[t].contains(e)),
                "{e:?} not in every shard"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PrincipalId = PrincipalId(0);
    const P1: PrincipalId = PrincipalId(1);
    const P2: PrincipalId = PrincipalId(2);

    /// Every `(holder, addr, size)` grant the index holds, sorted, each
    /// once however many shards store it.
    fn grants(ix: &WriterIndex) -> Vec<(PrincipalId, Word, u64)> {
        let mut all = Vec::new();
        for s in 0..ix.shard_count() {
            let entries: Vec<_> = ix.lock(s).entries().collect();
            all.extend(
                entries
                    .into_iter()
                    .filter(|&(a, _, _)| ix.shard_of(a) == s)
                    .map(|(a, s, p)| (p, a, s)),
            );
        }
        all.sort_unstable();
        all
    }

    /// An index and the grants it must hold, checked after every change:
    /// well-formed, and holding exactly those grants.
    struct Checked {
        ix: WriterIndex,
        grants: Vec<(PrincipalId, Word, u64)>,
    }

    impl Checked {
        fn new(boundaries: Vec<Word>) -> Self {
            Checked {
                ix: WriterIndex::with_boundaries(boundaries),
                grants: Vec::new(),
            }
        }

        fn add(&mut self, p: PrincipalId, a: Word, s: u64) {
            self.ix.add(p, a, s);
            let g = (p, a, s.min(Word::MAX - a));
            if g.2 > 0 && !self.grants.contains(&g) {
                self.grants.push(g);
            }
            self.check();
        }

        fn remove(&mut self, p: PrincipalId, a: Word, s: u64) {
            let g = (p, a, s.min(Word::MAX - a));
            assert_eq!(self.ix.remove(p, a, s), self.grants.contains(&g));
            self.grants.retain(|&h| h != g);
            self.check();
        }

        fn check(&self) {
            self.ix.check_invariants();
            let mut want = self.grants.clone();
            want.sort_unstable();
            assert_eq!(grants(&self.ix), want, "the index holds exactly the grants");
        }

        fn writers(&self, addr: Word, len: u64) -> Vec<PrincipalId> {
            let mut out = Vec::new();
            self.ix.collect_writers(addr, len, &mut out);
            out
        }
    }

    #[test]
    fn single_grant_single_writer() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 64);
        assert_eq!(ix.writers(0x1000, 8), vec![P0]);
        assert_eq!(ix.writers(0x103f, 8), vec![P0], "tail byte overlaps");
        assert!(ix.writers(0x1040, 8).is_empty());
        assert!(
            ix.writers(0xff8, 8).is_empty(),
            "exclusive end: [0xff8, 0x1000) misses the grant"
        );
    }

    #[test]
    fn overlapping_grants_union_and_split() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1080, 0x100);
        assert_eq!(ix.writers(0x1000, 8), vec![P0]);
        assert_eq!(ix.writers(0x1080, 8), vec![P0, P1]);
        assert_eq!(ix.writers(0x1100, 8), vec![P1]);
        // A probe spanning the split point still yields each writer once.
        assert_eq!(ix.writers(0x107c, 8), vec![P0, P1]);
    }

    #[test]
    fn remove_merges_back() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1080, 0x10);
        ix.remove(P1, 0x1080, 0x10);
        assert_eq!(ix.writers(0x1080, 8), vec![P0]);
    }

    #[test]
    fn remove_creates_gap() {
        let mut ix = Checked::new(Vec::new());
        for a in [0x1000, 0x1010, 0x1020] {
            ix.add(P0, a, 0x10);
        }
        ix.remove(P0, 0x1010, 0x10);
        assert_eq!(ix.writers(0x1000, 8), vec![P0]);
        assert!(ix.writers(0x1010, 8).is_empty());
        assert_eq!(ix.writers(0x1020, 8), vec![P0]);
        // A probe across the gap still finds P0 exactly once.
        assert_eq!(ix.writers(0x1008, 0x20), vec![P0]);
    }

    #[test]
    fn idempotent_add_does_not_fragment() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 0x100);
        ix.add(P0, 0x1000, 0x100); // the same grant again
        assert_eq!(ix.ix.entry_count(), 1, "an entry is recorded once");
        ix.add(P0, 0x1040, 0x10); // interior grant, same writer
        assert_eq!(ix.writers(0x1040, 8), vec![P0]);
        ix.remove(P0, 0x1040, 0x10);
        assert_eq!(ix.writers(0x1040, 8), vec![P0], "the outer grant stays");
    }

    #[test]
    fn adjacent_same_set_coalesces() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 0x40);
        ix.add(P0, 0x1040, 0x40);
        assert_eq!(ix.writers(0x1038, 16), vec![P0]);
    }

    #[test]
    fn three_writers_dedup_across_intervals() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 0x100);
        ix.add(P1, 0x1000, 0x80);
        ix.add(P2, 0x1040, 0x100);
        let all = ix.writers(0x1000, 0x200);
        assert_eq!(all, vec![P0, P1, P2]);
        assert_eq!(ix.writers(0x1060, 8), vec![P0, P1, P2]);
        assert_eq!(ix.writers(0x1090, 8), vec![P0, P2]);
    }

    #[test]
    fn writers_come_in_first_covered_byte_order() {
        // P2 straddles the probe start, P0 starts inside it, P1 starts
        // inside it at a lower address: [P2, P1, P0].
        let mut ix = Checked::new(vec![0x1010]);
        ix.add(P0, 0x1018, 8);
        ix.add(P1, 0x1008, 0x20);
        ix.add(P2, 0xff0, 0x20);
        assert_eq!(ix.writers(0x1000, 0x20), vec![P2, P1, P0]);
        // Every writer straddles a later probe start: id order.
        assert_eq!(ix.writers(0x1009, 1), vec![P1, P2]);
    }

    #[test]
    fn near_max_saturates() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, u64::MAX - 8, 16); // clamps to [MAX-8, MAX)
        assert_eq!(ix.writers(u64::MAX - 4, 8), vec![P0]);
        assert!(ix.writers(u64::MAX, 8).is_empty(), "empty clamped probe");
        ix.add(P1, u64::MAX, 8); // clamps to nothing
        assert_eq!(ix.ix.entry_count(), 1);
        ix.remove(P0, u64::MAX - 8, 16);
        assert_eq!(ix.ix.entry_count(), 0);
    }

    #[test]
    fn zero_len_probe_is_empty() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 64);
        assert!(ix.writers(0x1010, 0).is_empty());
    }

    #[test]
    fn set_interning_shares_ids_and_gcs_transients() {
        let mut ix = Checked::new(Vec::new());
        for i in 0..8u64 {
            ix.add(P0, 0x1000 + i * 0x100, 0x40);
            ix.add(P1, 0x1000 + i * 0x100, 0x40);
        }
        // One entry per grant, two writers in all.
        assert_eq!(ix.ix.entry_count(), 16);
        assert_eq!(ix.ix.writer_count(), 2);
        for i in 0..8u64 {
            assert_eq!(ix.writers(0x1000 + i * 0x100, 8), vec![P0, P1]);
        }
    }

    #[test]
    fn removing_last_reference_frees_the_set() {
        let mut ix = Checked::new(Vec::new());
        ix.add(P0, 0x1000, 0x40);
        ix.add(P1, 0x1000, 0x40);
        assert_eq!(ix.ix.writer_count(), 2);
        ix.remove(P0, 0x1000, 0x40);
        assert_eq!(ix.ix.writer_count(), 1);
        assert_eq!(ix.writers(0x1000, 8), vec![P1]);
        ix.remove(P1, 0x1000, 0x40);
        assert_eq!(ix.ix.writer_count(), 0);
        assert_eq!(ix.ix.entry_count(), 0);
    }

    // ------------------------------------------------------------ shards

    #[test]
    fn sharded_answers_match_unsharded() {
        let mut sharded = Checked::new(vec![0x1080, 0x1100, 0x2000]);
        let mut flat = Checked::new(Vec::new());
        let ops: &[(PrincipalId, Word, u64)] = &[
            (P0, 0x1000, 0x100), // crosses 0x1080
            (P1, 0x1040, 0x200), // crosses 0x1080 and 0x1100
            (P2, 0x1ff0, 0x20),  // crosses 0x2000
            (P0, 0x3000, 0x40),  // inside the top shard
        ];
        for &(p, a, s) in ops {
            sharded.add(p, a, s);
            flat.add(p, a, s);
        }
        for probe in [
            0x0ff8u64, 0x1000, 0x1040, 0x107c, 0x1080, 0x10fc, 0x1100, 0x123c, 0x1ff0, 0x1ffc,
            0x2000, 0x2008, 0x3000,
        ] {
            assert_eq!(
                sharded.writers(probe, 8),
                flat.writers(probe, 8),
                "probe {probe:#x}"
            );
        }
        // A wide probe spanning every shard still dedups writers, in the
        // same order as the flat index.
        let wide = sharded.writers(0x1000, 0x2100);
        assert_eq!(wide, flat.writers(0x1000, 0x2100));
        assert_eq!(wide, vec![P0, P1, P2]);
        // Removals across boundaries agree too.
        sharded.remove(P1, 0x1040, 0x200);
        flat.remove(P1, 0x1040, 0x200);
        for probe in [0x1040u64, 0x1080, 0x1100, 0x1200] {
            assert_eq!(
                sharded.writers(probe, 8),
                flat.writers(probe, 8),
                "post-remove probe {probe:#x}"
            );
        }
    }

    #[test]
    fn boundary_crossing_grant_splits_per_shard() {
        let mut ix = Checked::new(vec![0x1080]);
        assert_eq!(ix.ix.shard_count(), 2);
        ix.add(P0, 0x1000, 0x100);
        // One grant, stored whole in both shards it touches.
        assert_eq!(ix.ix.entry_count(), 2);
        assert_eq!(ix.ix.writer_count(), 1);
        assert_eq!(ix.writers(0x1078, 16), vec![P0], "probe across boundary");
        ix.remove(P0, 0x1000, 0x100);
        assert_eq!(ix.ix.entry_count(), 0);
        assert_eq!(ix.ix.writer_count(), 0);
    }

    #[test]
    fn boundaries_normalize() {
        let ix = WriterIndex::with_boundaries(vec![0x2000, 0, 0x1000, 0x2000]);
        assert_eq!(ix.boundaries, &[0x1000, 0x2000]);
        assert_eq!(ix.shard_count(), 3);
    }

    #[test]
    fn near_max_sharded_saturates() {
        let mut ix = Checked::new(vec![u64::MAX - 0x100]);
        ix.add(P0, u64::MAX - 0x180, 0x1000); // clamps to [MAX-0x180, MAX)
        assert_eq!(ix.ix.entry_count(), 2, "stored in both shards");
        assert_eq!(ix.writers(u64::MAX - 0x110, 0x20), vec![P0]);
        assert_eq!(ix.writers(u64::MAX - 8, 8), vec![P0]);
        ix.remove(P0, u64::MAX - 0x180, u64::MAX);
        assert_eq!(ix.ix.entry_count(), 0);
    }

    // ------------------------------------------------------------ model

    mod model {
        //! Random grant / revoke / transfer / kfree sequences drive a
        //! runtime core, sharded or not, and a model that keeps every
        //! grant as a plain `(holder, addr, size)` list: after every
        //! operation the index must be well-formed and hold exactly the
        //! model's grants.

        use proptest::prelude::*;

        use crate::caps::RawCap;
        use crate::principal::PrincipalId;
        use crate::runtime::RuntimeCore;

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
            // transfers hit held grants and grants overlap.
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
            let mut model: Vec<(PrincipalId, u64, u64)> = Vec::new();
            let mut holders = Vec::new();
            for op in ops {
                match *op {
                    Op::Grant(p, a, s) => {
                        core.grant(ps[p], RawCap::write(a, s));
                        if !model.contains(&(ps[p], a, s)) {
                            model.push((ps[p], a, s));
                        }
                    }
                    Op::Revoke(p, a, s) => {
                        let held = model.contains(&(ps[p], a, s));
                        assert_eq!(core.revoke(ps[p], RawCap::write(a, s)).0, held);
                        model.retain(|&g| g != (ps[p], a, s));
                    }
                    Op::Transfer(a, s, d) => {
                        let d = d.map(|i| ps[i]);
                        core.transfer_write(RawCap::write(a, s), None, d, &mut holders)
                            .expect("the kernel owns everything");
                        model.retain(|&(h, x, y)| (x, y) != (a, s) || Some(h) == d);
                        if let Some(d) = d.filter(|d| !model.contains(&(*d, a, s))) {
                            model.push((d, a, s));
                        }
                    }
                    Op::Kfree(a, s) => {
                        core.revoke_write_overlapping_everywhere(a, s, &mut holders);
                        model.retain(|&(_, x, y)| x + y <= a || a + s <= x);
                    }
                }
                core.check_index_invariants();
                let mut want = model.clone();
                want.sort_unstable();
                assert_eq!(super::grants(&core.index), want, "after {op:?}");
                for &p in &ps {
                    let n = model.iter().filter(|g| g.0 == p).count();
                    assert_eq!(core.cap_count(p), n, "{p:?}'s grants after {op:?}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn runtime_ops_match_the_grant_model(
                ops in proptest::collection::vec(arb_op(), 1..60),
                sharded: bool,
            ) {
                let boundaries = if sharded { vec![0x1400, 0x1800] } else { Vec::new() };
                run(&ops, boundaries);
            }
        }
    }
}
