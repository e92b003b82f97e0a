//! Reverse writer index (§5 scaling): address range → writer principals.
//!
//! The indirect-call slow path asks "which principals hold WRITE coverage
//! of this function-pointer slot?". The paper answers by walking the
//! global principal list — linear in the number of principals, and the
//! list grows with every module instance. This module inverts the
//! question: every WRITE grant is recorded once more, as an
//! `(addr, size, holder)` entry exactly as the holder's [`WriteTable`]
//! holds it, in the same sorted-interval / prefix-maximum structure
//! ([`IntervalTable`], tagged with the holder). The lookup is a binary
//! search plus a walk of the entries overlapping the probe —
//! O(log entries + overlapping entries) instead of O(principals). The
//! `kfree` sweep and WRITE transfers ask the same question of the freed
//! or transferred range.
//!
//! The runtime keeps the index in lockstep with the tables: a grant
//! inserts its entry, an exact revoke removes that entry, and an
//! overlapping revoke removes exactly the entries the table dropped.
//! Entries are never merged, so removing one grant never has to rebuild
//! what the holder's other grants still cover.
//!
//! # Sharding and locking
//!
//! [`WriterIndex`] is **sharded by address region**: its constructor
//! takes a list of split points (module windows, slab zones — see the
//! simulated kernel's `layout::shard_boundaries`), fixed for the index's
//! lifetime. An entry is stored, unclipped, in every shard its range
//! touches, and an operation visits only the shards its range touches,
//! so a lookup searches one shard's entries and a grant's or revoke's
//! `Vec` insert or remove moves only that shard's tail.
//!
//! Each shard sits behind its own mutex, the only lock the index has.
//! Every method takes `&self` and holds one shard lock at a time.
//! [`WriterIndex::new`] makes a single shard covering the whole address
//! space.
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

use std::ops::Range;
use std::sync::Mutex;

use lxfi_machine::Word;

use crate::caps::IntervalTable;
use crate::principal::PrincipalId;

/// The reverse writer index: address-region shards, each an
/// [`IntervalTable`] of `(addr, size, holder)` grant entries behind its
/// own mutex. The shard split points are fixed at construction. See the
/// module docs for the sharding and locking disciplines.
#[derive(Debug)]
pub struct WriterIndex {
    /// Sorted, distinct, non-zero shard split points; shard `i` covers
    /// `[boundaries[i-1], boundaries[i])` (first from 0, last to MAX).
    boundaries: Vec<Word>,
    shards: Vec<Mutex<IntervalTable<PrincipalId>>>,
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
        WriterIndex { boundaries, shards }
    }

    /// Number of shards (`boundaries + 1`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards `[addr, addr+size)` touches, with the range's end
    /// clamped at `Word::MAX` (empty for an empty range).
    fn shards_of(&self, addr: Word, size: u64) -> Range<usize> {
        let size = size.min(Word::MAX - addr);
        if size == 0 {
            return 0..0;
        }
        let shard_of = |a: Word| self.boundaries.partition_point(|&b| b <= a);
        shard_of(addr)..shard_of(addr + size - 1) + 1
    }

    /// Runs `f` on every shard `[addr, addr+size)` touches, locking one
    /// shard at a time.
    fn for_shards(
        &self,
        addr: Word,
        size: u64,
        mut f: impl FnMut(&mut IntervalTable<PrincipalId>),
    ) {
        for s in self.shards_of(addr, size) {
            f(&mut self.shards[s].lock().expect("shard lock"));
        }
    }

    /// Records that `p` was granted WRITE over `[addr, addr+size)`: the
    /// entry goes into every shard the range touches. Idempotent.
    pub fn add(&self, p: PrincipalId, addr: Word, size: u64) {
        self.for_shards(addr, size, |sh| sh.insert(addr, size, p));
    }

    /// Removes the entry `(addr, size, p)` from every shard the range
    /// touches. A no-op where `p` holds no such entry.
    pub fn remove(&self, p: PrincipalId, addr: Word, size: u64) {
        self.for_shards(addr, size, |sh| {
            sh.remove(addr, size, p);
        });
    }

    /// True if any entry overlaps `[addr, addr+len)` (query end
    /// saturates at `Word::MAX`).
    pub fn overlaps(&self, addr: Word, len: u64) -> bool {
        let mut hit = false;
        self.for_shards(addr, len, |sh| hit |= sh.overlaps(addr, len));
        hit
    }

    /// Appends the deduplicated writer principals of `[addr, addr+len)`
    /// to `out`, ordered by the first byte of the range each one covers,
    /// ties by id. Allocation-free when `out` has room: the
    /// indirect-call slow path reuses one buffer.
    pub fn collect_writers(&self, addr: Word, len: u64, out: &mut Vec<PrincipalId>) {
        self.for_shards(addr, len, |sh| {
            let first = out.len();
            sh.for_each_overlapping(addr, len, |start, _, p| {
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
        });
    }

    /// Number of entries across all shards (diagnostics). A grant
    /// spanning shard boundaries counts once per shard it touches.
    pub fn entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").len())
            .sum()
    }

    /// Number of distinct principals holding an entry (diagnostics).
    pub fn writer_count(&self) -> usize {
        let mut writers = Vec::new();
        for s in &self.shards {
            writers.extend(s.lock().expect("shard lock").entries().map(|(_, _, p)| p));
        }
        writers.sort_unstable();
        writers.dedup();
        writers.len()
    }

    /// Panics unless the index holds exactly `grants` — each
    /// `(holder, addr, size)` in every shard its range touches and in no
    /// other — and every shard's table is in order. Test/proptest hook.
    #[doc(hidden)]
    pub fn check_invariants(&self, grants: &[(PrincipalId, Word, u64)]) {
        let mut want = vec![Vec::new(); self.shards.len()];
        for &(p, a, s) in grants {
            for sh in self.shards_of(a, s) {
                want[sh].push((a, s.min(Word::MAX - a), p));
            }
        }
        for (sh, want) in self.shards.iter().zip(&mut want) {
            let sh = sh.lock().expect("shard lock");
            sh.check_invariants();
            want.sort_unstable_by_key(|&(a, s, p)| (a, p, s));
            assert_eq!(
                &sh.entries().collect::<Vec<_>>(),
                want,
                "a shard holds exactly the grants touching it"
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

    /// An index and the grants it must hold, checked after every change.
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
            self.ix.check_invariants(&self.grants);
        }

        fn remove(&mut self, p: PrincipalId, a: Word, s: u64) {
            self.ix.remove(p, a, s);
            self.grants.retain(|&g| g != (p, a, s.min(Word::MAX - a)));
            self.ix.check_invariants(&self.grants);
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
        assert!(!ix.ix.overlaps(0x1010, 0));
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
            assert_eq!(sharded.ix.overlaps(probe, 8), flat.ix.overlaps(probe, 8));
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

    // ------------------------------------------------------- lockstep

    mod lockstep {
        //! Random grant / revoke / transfer / kfree sequences drive a
        //! runtime core, sharded or not; after every operation the index
        //! must hold exactly the grants in the principals' WRITE tables.

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
            let mut holders = Vec::new();
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
                core.check_index_invariants();
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn runtime_ops_keep_index_in_lockstep(
                ops in proptest::collection::vec(arb_op(), 1..60),
                sharded: bool,
            ) {
                let boundaries = if sharded { vec![0x1400, 0x1800] } else { Vec::new() };
                run(&ops, boundaries);
            }
        }
    }
}
