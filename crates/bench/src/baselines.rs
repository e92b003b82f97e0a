//! The paper's original structures, kept as measured baselines outside
//! the trusted runtime: the masked-slot WRITE table (§5), the global
//! principal walk for writer lookup (§5), and the write guard without
//! the epoch-validated cache. The guard-cost tables, criterion benches
//! and CI perf gate time them against what `lxfi-core` enforces with;
//! `tests/baselines.rs` checks them against a naive model.

use std::collections::{HashMap, HashSet};

use lxfi_core::{GuardHandle, GuardKind, IntervalTable, PrincipalId, Violation};
use lxfi_machine::Word;

const SLOT_SHIFT: u32 = 12;

/// One principal's WRITE grants in their own table, as the paper's
/// runtime keeps them: an untagged interval table. `lxfi-core` keeps
/// every grant in its reverse writer index instead.
pub type WriteTable = IntervalTable<()>;

/// The paper's original WRITE table (§5): ranges hashed under
/// 12-bit-masked keys, one replica per 4 KiB slot the range overlaps,
/// each slot scanned linearly. Superseded by the interval-indexed
/// [`IntervalTable`] on the guard hot path; overflow and zero-size
/// semantics match it.
#[derive(Debug, Default, Clone)]
pub struct LinearWriteTable {
    slots: HashMap<u64, Vec<(Word, u64)>>,
    /// Number of live (addr, size) grants — slot entries are replicas.
    entries: usize,
}

impl LinearWriteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_range(addr: Word, size: u64) -> std::ops::RangeInclusive<u64> {
        let first = addr >> SLOT_SHIFT;
        let last = if size == 0 {
            first
        } else {
            (addr.saturating_add(size - 1)) >> SLOT_SHIFT
        };
        first..=last
    }

    /// Grants `[addr, addr+size)`; same clamping and zero-size semantics
    /// as [`IntervalTable::insert`].
    pub fn grant(&mut self, addr: Word, size: u64) {
        let size = size.min(Word::MAX - addr); // end saturates at MAX
        if size == 0 || self.owns_exact(addr, size) {
            return;
        }
        for s in Self::slot_range(addr, size) {
            self.slots.entry(s).or_default().push((addr, size));
        }
        self.entries += 1;
    }

    /// Revokes the exact capability `(addr, size)`; returns whether it
    /// was present.
    pub fn revoke(&mut self, addr: Word, size: u64) -> bool {
        let size = size.min(Word::MAX - addr);
        if size == 0 || !self.owns_exact(addr, size) {
            return false;
        }
        for s in Self::slot_range(addr, size) {
            if let Some(v) = self.slots.get_mut(&s) {
                v.retain(|&(a, l)| !(a == addr && l == size));
                if v.is_empty() {
                    self.slots.remove(&s);
                }
            }
        }
        self.entries -= 1;
        true
    }

    /// Revokes every capability intersecting `[addr, addr+size)`;
    /// returns the number removed.
    pub fn revoke_overlapping(&mut self, addr: Word, size: u64) -> usize {
        if size == 0 {
            return 0;
        }
        let end = addr.saturating_add(size);
        let mut victims: HashSet<(Word, u64)> = HashSet::new();
        for s in Self::slot_range(addr, size) {
            if let Some(v) = self.slots.get(&s) {
                for &(a, l) in v {
                    if a < end && addr < a + l {
                        victims.insert((a, l));
                    }
                }
            }
        }
        for &(a, l) in &victims {
            self.revoke(a, l);
        }
        victims.len()
    }

    /// True if the exact capability `(addr, size)` is present.
    fn owns_exact(&self, addr: Word, size: u64) -> bool {
        self.slots
            .get(&(addr >> SLOT_SHIFT))
            .is_some_and(|v| v.iter().any(|&(a, l)| a == addr && l == size))
    }

    /// True if any capability intersects `[addr, addr+len)`.
    pub fn overlaps(&self, addr: Word, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        let end = addr.saturating_add(len);
        Self::slot_range(addr, len).any(|s| {
            self.slots
                .get(&s)
                .is_some_and(|v| v.iter().any(|&(a, l)| a < end && addr < a + l))
        })
    }

    /// True if some single capability covers all of `[addr, addr+len)`.
    /// Kept out of line, as it was while the table lived in `lxfi-core`,
    /// so the timed call stays the one `bench/baseline.json` recorded.
    #[inline(never)]
    pub fn covers(&self, addr: Word, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = addr.checked_add(len) else {
            return false;
        };
        self.slots
            .get(&(addr >> SLOT_SHIFT))
            .is_some_and(|v| v.iter().any(|&(a, l)| a <= addr && end <= a + l))
    }

    /// Number of live capabilities.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no capability is held.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The paper's writer lookup (§5): one WRITE table per principal, every
/// table probed on every query. Superseded on the indirect-call slow
/// path by the runtime's reverse writer index ([`lxfi_core::WriterIndex`]).
#[derive(Debug, Default)]
pub struct LinearWriterIndex {
    tables: Vec<WriteTable>,
}

impl LinearWriterIndex {
    /// Creates an empty baseline index.
    pub fn new() -> Self {
        Self::default()
    }

    fn table_mut(&mut self, p: PrincipalId) -> &mut WriteTable {
        let i = p.0 as usize;
        if i >= self.tables.len() {
            self.tables.resize_with(i + 1, WriteTable::new);
        }
        &mut self.tables[i]
    }

    /// Grants `[addr, addr+size)` to `p`.
    pub fn grant(&mut self, p: PrincipalId, addr: Word, size: u64) {
        self.table_mut(p).insert(addr, size, ());
    }

    /// Revokes the exact grant `(addr, size)` from `p`.
    pub fn revoke(&mut self, p: PrincipalId, addr: Word, size: u64) -> bool {
        self.table_mut(p).remove(addr, size, ())
    }

    /// Revokes every grant of `p` intersecting `[addr, addr+size)`.
    pub fn revoke_overlapping(&mut self, p: PrincipalId, addr: Word, size: u64) -> usize {
        self.table_mut(p)
            .remove_overlapping(addr, size, |_, _, ()| true)
    }

    /// The global walk: every principal's table probed for overlap with
    /// `[addr, addr+len)` — linear in principals, allocating per call.
    pub fn writers_of(&self, addr: Word, len: u64) -> Vec<PrincipalId> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.overlaps(addr, len))
            .map(|(i, _)| PrincipalId(i as u32))
            .collect()
    }
}

/// The write guard without the epoch-validated cache: what
/// [`GuardHandle::check_write`] cost on every store before the cache,
/// and still costs on a miss. It runs the guard's steps in the guard's
/// order — MemWrite stats record, shadow-context read, kernel-stack
/// window test against `kstack` (the window the handle was given with
/// [`GuardHandle::set_kernel_stack`]), epoch read, table probe — and
/// decides exactly as `check_write` does.
pub fn uncached_check_write(
    rt: &mut GuardHandle,
    kstack: (Word, u64),
    addr: Word,
    len: u64,
) -> Result<(), Violation> {
    rt.stats.record(GuardKind::MemWrite, rt.costs.mem_write);
    let Some((_m, p)) = rt.current() else {
        return Ok(());
    };
    if len == 0 {
        return Ok(());
    }
    let (base, slen) = kstack;
    if addr >= base && addr.checked_add(len).is_some_and(|e| e <= base + slen) {
        return Ok(());
    }
    let _epoch = rt.write_epoch(p);
    match rt.write_covering(p, addr, len) {
        Some(_) => Ok(()),
        None => Err(Violation::MissingWrite {
            principal: p,
            addr,
            len,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_core::{RawCap, WriterIndex};

    #[test]
    fn linear_baseline_agrees_on_basics() {
        let mut t = LinearWriteTable::new();
        t.grant(0x1800, 0x3000);
        t.grant(0x1000, 64);
        assert_eq!(t.len(), 2);
        assert!(t.covers(0x2000, 8));
        assert!(t.covers(0x1010, 8));
        assert!(!t.covers(0x4800, 1));
        assert!(t.overlaps(0x1030, 0x100));
        assert_eq!(t.revoke_overlapping(0x1000, 0x40), 1);
        assert!(t.revoke(0x1800, 0x3000));
        assert!(t.is_empty());
        // Overflow discipline matches the interval table.
        t.grant(u64::MAX - 8, 16);
        assert!(t.covers(u64::MAX - 8, 8));
        assert!(!t.covers(u64::MAX - 4, 8));
    }

    #[test]
    fn linear_baseline_agrees() {
        let (p0, p1, p2) = (PrincipalId(0), PrincipalId(1), PrincipalId(2));
        let ix = WriterIndex::with_boundaries(Vec::new());
        let mut lin = LinearWriterIndex::new();
        let ops: &[(PrincipalId, Word, u64)] = &[
            (p0, 0x1000, 0x100),
            (p1, 0x1080, 0x100),
            (p2, 0x10f8, 0x10),
            (p0, 0x3000, 0x40),
        ];
        for &(p, a, s) in ops {
            ix.add(p, a, s);
            lin.grant(p, a, s);
        }
        for probe in [0x1000u64, 0x1080, 0x10f8, 0x1100, 0x2000, 0x3000] {
            let mut got = Vec::new();
            ix.collect_writers(probe, 8, &mut got);
            got.sort();
            assert_eq!(got, lin.writers_of(probe, 8), "probe {probe:#x}");
        }
    }

    /// The uncached probe is the baseline behind the perf gate's
    /// "post-revoke < uncached" floors, so it must decide every store
    /// exactly as the cached guard does, across grants, an instance
    /// revoke, a shared transfer to nobody, kernel-stack writes and
    /// kernel context.
    #[test]
    fn uncached_probe_decides_like_check_write() {
        const KSTACK: (Word, u64) = (0xffff_9000_0000_0000, 0x2000);
        let mut rt: GuardHandle = GuardHandle::new(Default::default());
        let m = rt.register_module("uncached");
        rt.set_kernel_stack(KSTACK.0, KSTACK.1);
        let (shared, p) = (rt.shared_principal(m), rt.principal_for_name(m, 0x9000));
        rt.set_current(Some((m, p)));
        rt.grant(p, RawCap::write(0x1000, 0x40));
        rt.grant(shared, RawCap::write(0x2000, 0x100));
        let probes = [
            (0x1000, 8),
            (0x103c, 8),
            (0x2000, 16),
            (0x20f8, 16),
            (0x3000, 0),
            (KSTACK.0, 8),
            (KSTACK.0 + KSTACK.1 - 4, 8),
            (u64::MAX - 4, 8),
        ];
        let check = |rt: &mut GuardHandle, allowed: [bool; 8]| {
            for ((a, l), want) in probes.into_iter().zip(allowed) {
                // Twice, so the second cached check can hit.
                for _ in 0..2 {
                    let cached = rt.check_write(a, l);
                    assert_eq!(cached.is_ok(), want, "check_write({a:#x}, {l})");
                    assert_eq!(uncached_check_write(rt, KSTACK, a, l), cached);
                }
            }
        };
        check(
            &mut rt,
            [true, false, true, false, true, true, false, false],
        );
        rt.revoke(p, RawCap::write(0x1000, 0x40));
        check(
            &mut rt,
            [false, false, true, false, true, true, false, false],
        );
        rt.transfer_cap(RawCap::write(0x2000, 0x100), None, None)
            .unwrap();
        check(
            &mut rt,
            [false, false, false, false, true, true, false, false],
        );
        rt.set_current(None);
        check(&mut rt, [true; 8]);
        assert!(rt.stats.write_cache_hits > 0, "the cached side did hit");
    }
}
