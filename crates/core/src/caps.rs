//! Capability representations and per-principal capability tables (§3.2, §5).
//!
//! Three capability types exist:
//!
//! - `WRITE(ptr, size)` — the principal may write any value into
//!   `[ptr, ptr+size)` and pass interior pointers to kernel routines that
//!   require writable memory;
//! - `REF(t, a)` — object ownership: the principal may pass `a` to kernel
//!   functions requiring a REF of type `t`, *without* write access;
//! - `CALL(a)` — the principal may call or jump to address `a`.
//!
//! CALL and REF capabilities live in each principal's [`CapSet`]. WRITE
//! capabilities have one record only, the reverse writer index
//! ([`crate::WriterIndex`]): one [`IntervalTable`] per address shard,
//! each grant an `(addr, size, holder)` entry. The table keeps its
//! entries ordered by start alongside a running prefix-maximum of
//! interval ends, so containment and overlap queries binary-search to
//! the query point and walk left only while the prefix maximum proves an
//! interval can still reach the query — O(log n + k) where k is the
//! number of intervals overlapping the probe.
//!
//! The paper's original structures — per-principal WRITE tables, ranges
//! replicated into 4 KiB-masked hash slots, each slot scanned linearly
//! (§5) — are the measured baselines in `lxfi-bench`'s `baselines`
//! module, outside the trusted runtime.
//!
//! # Overflow discipline
//!
//! All range ends are computed saturating at `Word::MAX`: a grant whose
//! nominal end would exceed the address space is clamped to
//! `[addr, Word::MAX)` (so the final byte of the address space is never
//! coverable — ends are exclusive and `2^64` is unrepresentable), and
//! queries whose end would overflow return `false`. No path panics in
//! debug builds for ranges near `Word::MAX`.

use lxfi_machine::Word;

use crate::inthash::IntSet;

/// Interned REF type (e.g. `struct pci_dev`, or a synthetic type like
/// `io_port` per Guideline 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefTypeId(pub u32);

/// A fully resolved capability type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapType {
    /// WRITE over a byte range.
    Write,
    /// CALL of a code address.
    Call,
    /// REF of an interned type.
    Ref(RefTypeId),
}

/// A fully resolved capability, ready to grant / revoke / check.
///
/// For `Call` and `Ref` the `size` field is unused and normalized to 0 so
/// capability identity is well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawCap {
    /// Capability type.
    pub ctype: CapType,
    /// Address / target / REF value.
    pub addr: Word,
    /// Byte length (WRITE only).
    pub size: u64,
}

impl RawCap {
    /// A WRITE capability over `[addr, addr+size)`.
    pub fn write(addr: Word, size: u64) -> Self {
        RawCap {
            ctype: CapType::Write,
            addr,
            size,
        }
    }

    /// A CALL capability for `target`.
    pub fn call(target: Word) -> Self {
        RawCap {
            ctype: CapType::Call,
            addr: target,
            size: 0,
        }
    }

    /// A REF capability of type `t` for value `a`.
    pub fn reference(t: RefTypeId, a: Word) -> Self {
        RawCap {
            ctype: CapType::Ref(t),
            addr: a,
            size: 0,
        }
    }
}

/// A sorted interval table with a prefix-maximum end index (see the
/// module docs for the query algorithm). Each entry is a range plus a
/// tag, kept in `(start, tag, size)` order, and an entry is present at
/// most once. The reverse writer index keeps one table per address
/// shard, each WRITE grant tagged with its holder
/// ([`crate::WriterIndex`]).
///
/// # Zero-size semantics
///
/// Inserting a zero-size range is a silent no-op — an empty range
/// conveys no authority, so there is nothing to record — while
/// `covers(_, 0)` and the other zero-length queries are *vacuously
/// true/false* ("every byte of the empty range is covered"). The
/// asymmetry is deliberate: a zero-length write is always permitted,
/// but granting one must not create a revocable entry. Removing a
/// zero-size range correspondingly returns `false`.
#[derive(Debug, Clone)]
pub struct IntervalTable<T> {
    /// Interval starts, sorted ascending (ties broken by tag, then size).
    starts: Vec<Word>,
    /// Interval sizes, parallel to `starts`. Pre-clamped so
    /// `starts[i] + sizes[i]` never overflows.
    sizes: Vec<u64>,
    /// Entry tags, parallel to `starts`.
    tags: Vec<T>,
    /// `prefix_max_end[i] = max(starts[j] + sizes[j] for j <= i)`.
    prefix_max_end: Vec<Word>,
}

impl<T> Default for IntervalTable<T> {
    fn default() -> Self {
        IntervalTable {
            starts: Vec::new(),
            sizes: Vec::new(),
            tags: Vec::new(),
            prefix_max_end: Vec::new(),
        }
    }
}

/// Clamps a grant so its exclusive end saturates at `Word::MAX`.
#[inline]
fn clamp_size(addr: Word, size: u64) -> u64 {
    size.min(Word::MAX - addr)
}

impl<T: Copy + Ord> IntervalTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the entry `(addr, size, tag)` is (`Ok`) or would be
    /// inserted (`Err`), with `size` already clamped.
    #[inline]
    fn find(&self, addr: Word, size: u64, tag: T) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.starts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match (self.starts[mid], self.tags[mid], self.sizes[mid]).cmp(&(addr, tag, size)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Rebuilds `prefix_max_end` from index `from` to the end.
    fn rebuild_prefix(&mut self, from: usize) {
        self.prefix_max_end.truncate(from);
        let mut run = if from == 0 {
            0
        } else {
            self.prefix_max_end[from - 1]
        };
        for i in from..self.starts.len() {
            run = run.max(self.starts[i] + self.sizes[i]);
            self.prefix_max_end.push(run);
        }
    }

    /// Corrects `prefix_max_end[from..]` after one entry was inserted at
    /// `from - 1` or removed at `from` (with its maximum inserted or
    /// removed alongside), stopping at the first maximum already right:
    /// every stored maximum past `from` is still the running maximum of
    /// the one before it and its own entry, so from there on nothing
    /// changes.
    fn fix_prefix(&mut self, from: usize) {
        let mut run = if from == 0 {
            0
        } else {
            self.prefix_max_end[from - 1]
        };
        for i in from..self.starts.len() {
            run = run.max(self.starts[i] + self.sizes[i]);
            if self.prefix_max_end[i] == run {
                return;
            }
            self.prefix_max_end[i] = run;
        }
    }

    /// Inserts `[addr, addr+size)` tagged `tag`. Duplicate entries are
    /// idempotent; a range whose end would overflow saturates at
    /// `Word::MAX` (module docs). Zero-size ranges are no-ops.
    pub fn insert(&mut self, addr: Word, size: u64, tag: T) {
        let size = clamp_size(addr, size);
        if size == 0 {
            return;
        }
        if let Err(i) = self.find(addr, size, tag) {
            let before = if i == 0 {
                0
            } else {
                self.prefix_max_end[i - 1]
            };
            self.starts.insert(i, addr);
            self.sizes.insert(i, size);
            self.tags.insert(i, tag);
            self.prefix_max_end.insert(i, before.max(addr + size));
            self.fix_prefix(i + 1);
        }
    }

    /// Removes the exact entry `(addr, size, tag)`; returns whether it
    /// was present. Sizes are clamped as in [`insert`], so a saturated
    /// range is removed with the size it was inserted under.
    ///
    /// [`insert`]: IntervalTable::insert
    pub fn remove(&mut self, addr: Word, size: u64, tag: T) -> bool {
        let size = clamp_size(addr, size);
        if size == 0 {
            return false;
        }
        let Ok(i) = self.find(addr, size, tag) else {
            return false;
        };
        self.starts.remove(i);
        self.sizes.remove(i);
        self.tags.remove(i);
        self.prefix_max_end.remove(i);
        self.fix_prefix(i);
        true
    }

    /// Removes every entry whose range intersects `[addr, addr+size)` —
    /// a partially intersected entry goes whole — and for which
    /// `remove(start, size, tag)` says so. Returns the number removed.
    pub fn remove_overlapping(
        &mut self,
        addr: Word,
        size: u64,
        mut remove: impl FnMut(Word, u64, T) -> bool,
    ) -> usize {
        if size == 0 {
            return 0;
        }
        let end = addr.saturating_add(size);
        let before = self.starts.len();
        // Overlap candidates all have start < end; entries at or past the
        // partition point cannot intersect.
        let cut = self.starts.partition_point(|&a| a < end);
        let mut first_removed = cut;
        let mut w = 0;
        for i in 0..cut {
            if self.starts[i] + self.sizes[i] > addr
                && remove(self.starts[i], self.sizes[i], self.tags[i])
            {
                first_removed = first_removed.min(i);
                continue; // overlapping and chosen: drop
            }
            if w != i {
                self.starts[w] = self.starts[i];
                self.sizes[w] = self.sizes[i];
                self.tags[w] = self.tags[i];
            }
            w += 1;
        }
        if w != cut {
            self.starts.copy_within(cut.., w);
            self.sizes.copy_within(cut.., w);
            self.tags.copy_within(cut.., w);
            let n = before - (cut - w);
            self.starts.truncate(n);
            self.sizes.truncate(n);
            self.tags.truncate(n);
            self.rebuild_prefix(first_removed);
        }
        before - self.starts.len()
    }

    /// True if any entry intersects `[addr, addr+len)`.
    pub fn overlaps(&self, addr: Word, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        let end = addr.saturating_add(len);
        let mut i = self.starts.partition_point(|&a| a < end);
        while i > 0 {
            i -= 1;
            if self.prefix_max_end[i] <= addr {
                return false; // nothing at or left of i reaches past addr
            }
            if self.starts[i] + self.sizes[i] > addr {
                return true;
            }
        }
        false
    }

    /// Calls `f(start, size, tag)` for every entry intersecting
    /// `[addr, addr+len)`: first the entries starting before `addr`,
    /// right to left, then those starting inside the range, in key
    /// order.
    pub fn for_each_overlapping(&self, addr: Word, len: u64, mut f: impl FnMut(Word, u64, T)) {
        if len == 0 {
            return;
        }
        let end = addr.saturating_add(len);
        let inside = self.starts.partition_point(|&a| a < addr);
        let mut i = inside;
        while i > 0 && self.prefix_max_end[i - 1] > addr {
            i -= 1;
            if self.starts[i] + self.sizes[i] > addr {
                f(self.starts[i], self.sizes[i], self.tags[i]);
            }
        }
        for i in inside..self.starts.partition_point(|&a| a < end) {
            f(self.starts[i], self.sizes[i], self.tags[i]);
        }
    }

    /// True if some single entry covers all of `[addr, addr+len)`.
    pub fn covers(&self, addr: Word, len: u64) -> bool {
        self.covering(addr, len, |_| true).is_some() || len == 0
    }

    /// The `(start, end)` of a single entry whose tag `keep` accepts and
    /// that covers all of `[addr, addr+len)`, if one exists. The guard
    /// fast-path cache stores this interval so repeated writes into the
    /// same grant skip the search entirely.
    pub fn covering(
        &self,
        addr: Word,
        len: u64,
        mut keep: impl FnMut(T) -> bool,
    ) -> Option<(Word, Word)> {
        if len == 0 {
            return None;
        }
        let end = addr.checked_add(len)?;
        // Candidates all have start <= addr.
        let mut i = self.starts.partition_point(|&a| a <= addr);
        while i > 0 {
            i -= 1;
            if self.prefix_max_end[i] < end {
                return None; // no interval at or left of i reaches end
            }
            let iv_end = self.starts[i] + self.sizes[i];
            if iv_end >= end && keep(self.tags[i]) {
                return Some((self.starts[i], iv_end));
            }
        }
        None
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Iterates over the `(start, size, tag)` entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = (Word, u64, T)> + '_ {
        (0..self.starts.len()).map(|i| (self.starts[i], self.sizes[i], self.tags[i]))
    }

    /// Panics unless the entries are non-empty and strictly in key order
    /// and every prefix maximum is exact. Test/proptest hook.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut run = 0;
        for i in 0..self.starts.len() {
            assert!(self.sizes[i] > 0, "entry {i} non-empty");
            if i > 0 {
                assert!(
                    (self.starts[i - 1], self.tags[i - 1], self.sizes[i - 1])
                        < (self.starts[i], self.tags[i], self.sizes[i]),
                    "entry {i} in key order"
                );
            }
            run = run.max(self.starts[i] + self.sizes[i]);
            assert_eq!(self.prefix_max_end[i], run, "prefix maximum {i}");
        }
        assert_eq!(self.prefix_max_end.len(), self.starts.len());
    }
}

/// One principal's CALL and REF capabilities (its WRITE grants are
/// entries in the reverse writer index).
#[derive(Debug, Default, Clone)]
pub struct CapSet {
    /// CALL capabilities (hashed by target address, §5).
    pub call: IntSet<Word>,
    /// REF capabilities (hashed by referred address, §5).
    pub refs: IntSet<(RefTypeId, Word)>,
}

impl CapSet {
    /// Creates an empty capability set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants a CALL or REF capability.
    pub fn grant(&mut self, cap: RawCap) {
        match cap.ctype {
            CapType::Write => unreachable!("WRITE grants live in the writer index"),
            CapType::Call => _ = self.call.insert(cap.addr),
            CapType::Ref(t) => _ = self.refs.insert((t, cap.addr)),
        }
    }

    /// Revokes a CALL or REF capability; returns whether it was present
    /// (never, for WRITE).
    pub fn revoke(&mut self, cap: RawCap) -> bool {
        match cap.ctype {
            CapType::Write => false,
            CapType::Call => self.call.remove(&cap.addr),
            CapType::Ref(t) => self.refs.remove(&(t, cap.addr)),
        }
    }

    /// Ownership test for a CALL or REF capability (never true for
    /// WRITE).
    pub fn owns(&self, cap: RawCap) -> bool {
        match cap.ctype {
            CapType::Write => false,
            CapType::Call => self.call.contains(&cap.addr),
            CapType::Ref(t) => self.refs.contains(&(t, cap.addr)),
        }
    }

    /// Total number of capabilities (diagnostics).
    pub fn len(&self) -> usize {
        self.call.len() + self.refs.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One holder's grants: an untagged table.
    type WriteTable = IntervalTable<()>;

    #[test]
    fn write_grant_covers_interior() {
        let mut t = WriteTable::new();
        t.insert(0x1000, 256, ());
        assert!(t.covers(0x1000, 256));
        assert!(t.covers(0x1010, 16));
        assert!(t.covers(0x10ff, 1));
        assert!(!t.covers(0x1000, 257));
        assert!(!t.covers(0xfff, 2));
        assert!(!t.covers(0x1100, 1));
    }

    #[test]
    fn write_cross_page_range_found_from_any_slot() {
        let mut t = WriteTable::new();
        // A 3-page capability: queries anywhere inside must hit.
        t.insert(0x1800, 0x3000, ());
        assert!(t.covers(0x1800, 8));
        assert!(t.covers(0x2000, 8));
        assert!(t.covers(0x3000, 8));
        assert!(t.covers(0x47f8, 8));
        assert!(!t.covers(0x4800, 1));
    }

    #[test]
    fn revoke_exact_removes_all_replicas() {
        let mut t = WriteTable::new();
        t.insert(0x1800, 0x3000, ());
        assert!(t.remove(0x1800, 0x3000, ()));
        assert!(!t.covers(0x2000, 8));
        assert_eq!(t.len(), 0);
        assert!(!t.remove(0x1800, 0x3000, ()), "double revoke is false");
    }

    #[test]
    fn grant_is_idempotent() {
        let mut t = WriteTable::new();
        t.insert(0x1000, 64, ());
        t.insert(0x1000, 64, ());
        assert_eq!(t.len(), 1);
        assert!(t.remove(0x1000, 64, ()));
        assert!(!t.covers(0x1000, 1));
    }

    #[test]
    fn revoke_overlapping_strips_partial_ranges() {
        let mut t = WriteTable::new();
        t.insert(0x1000, 64, ());
        t.insert(0x1040, 64, ());
        t.insert(0x2000, 64, ());
        // Freeing [0x1000, 0x1080) kills the first two only.
        assert_eq!(t.remove_overlapping(0x1000, 0x80, |_, _, ()| true), 2);
        assert!(!t.covers(0x1000, 1));
        assert!(!t.covers(0x1040, 1));
        assert!(t.covers(0x2000, 64));
    }

    #[test]
    fn zero_length_checks_are_trivially_true() {
        let t = WriteTable::new();
        assert!(t.covers(0x1234, 0));
    }

    #[test]
    fn zero_size_grant_is_a_noop() {
        // The documented asymmetry: grant(_, 0) records nothing, yet
        // covers(_, 0) stays vacuously true and revoke(_, 0) is false.
        let mut t = WriteTable::new();
        t.insert(0x1000, 0, ());
        assert!(t.is_empty());
        assert!(!t.overlaps(0x1000, 0));
        assert!(!t.remove(0x1000, 0, ()));
        assert!(t.covers(0x1000, 0));
        assert_eq!(t.remove_overlapping(0x1000, 0, |_, _, ()| true), 0);
    }

    #[test]
    fn overflow_range_rejected() {
        let mut t = WriteTable::new();
        t.insert(u64::MAX - 8, 8, ());
        assert!(!t.covers(u64::MAX - 4, 8), "overflowing query is false");
    }

    #[test]
    fn near_max_ranges_saturate_consistently() {
        let mut t = WriteTable::new();
        // Nominal end MAX+8 saturates to [MAX-8, MAX).
        t.insert(u64::MAX - 8, 16, ());
        assert_eq!(t.len(), 1);
        assert!(t.covers(u64::MAX - 8, 8));
        assert!(t.overlaps(u64::MAX - 1, 1));
        assert!(
            !t.covers(u64::MAX - 8, 9),
            "byte MAX is unreachable under an exclusive end"
        );
        // Revoking under the same nominal size finds the clamped grant.
        assert!(t.remove(u64::MAX - 8, 16, ()));
        assert!(t.is_empty());
        // A grant starting at MAX can cover nothing and records nothing.
        t.insert(u64::MAX, 4, ());
        assert!(t.is_empty());
        // revoke_overlapping near the top must not overflow either.
        t.insert(u64::MAX - 64, 64, ());
        assert_eq!(
            t.remove_overlapping(u64::MAX - 8, u64::MAX, |_, _, ()| true),
            1
        );
    }

    #[test]
    fn covering_returns_the_hit_interval() {
        let mut t = WriteTable::new();
        t.insert(0x1000, 0x100, ());
        t.insert(0x1080, 0x10, ());
        assert_eq!(t.covering(0x1004, 8, |()| true), Some((0x1000, 0x1100)));
        // A probe inside the small grant may return either cover; both
        // returned intervals must actually cover the probe.
        let (s, e) = t.covering(0x1084, 4, |()| true).unwrap();
        assert!(s <= 0x1084 && 0x1088 <= e);
        assert_eq!(t.covering(0x1100, 1, |()| true), None);
        assert_eq!(
            t.covering(0x1004, 0, |()| true),
            None,
            "zero-length has no interval"
        );
    }

    #[test]
    fn overlapping_grants_resolved_via_prefix_max() {
        // A long interval "hiding" left of many short ones: the prefix
        // maximum must carry its reach across the short entries.
        let mut t = WriteTable::new();
        t.insert(0x1000, 0x10000, ());
        for i in 0..64u64 {
            t.insert(0x2000 + i * 0x20, 0x10, ());
        }
        assert!(t.covers(0x9000, 8), "long grant found past short ones");
        assert!(t.covers(0x2008, 8));
        assert!(t.remove(0x1000, 0x10000, ()));
        assert!(!t.covers(0x9000, 8));
        assert!(t.covers(0x2008, 8));
    }

    #[test]
    fn capset_call_and_ref() {
        let mut s = CapSet::new();
        s.grant(RawCap::call(0xf000));
        s.grant(RawCap::reference(RefTypeId(3), 0x9000));
        assert!(s.owns(RawCap::call(0xf000)));
        assert!(!s.owns(RawCap::call(0xf008)));
        assert!(s.owns(RawCap::reference(RefTypeId(3), 0x9000)));
        assert!(
            !s.owns(RawCap::reference(RefTypeId(4), 0x9000)),
            "REF identity includes the type"
        );
        assert!(s.revoke(RawCap::call(0xf000)));
        assert!(!s.owns(RawCap::call(0xf000)));
    }

    #[test]
    fn ref_does_not_imply_write() {
        let mut s = CapSet::new();
        s.grant(RawCap::reference(RefTypeId(0), 0x9000));
        assert!(
            !s.owns(RawCap::write(0x9000, 8)),
            "REF grants ownership, not write access (§3.2)"
        );
    }

    #[test]
    fn iter_is_deduplicated_and_ordered() {
        let mut t = WriteTable::new();
        t.insert(0x1800, 0x3000, ());
        t.insert(0x1000, 8, ());
        t.insert(0x1800, 0x3000, ());
        let all: Vec<_> = t.entries().map(|(a, s, ())| (a, s)).collect();
        assert_eq!(all, vec![(0x1000, 8), (0x1800, 0x3000)]);
    }
}
