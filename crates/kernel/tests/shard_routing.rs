//! The writer index's shard routing against its definition, on the
//! kernel's real shard boundaries (`layout::shard_boundaries`).
//!
//! By definition byte `a` lies in shard `i` when exactly `i` split
//! points are at or below it (a binary search over the sorted
//! boundaries), a range touches every shard from its first byte's to
//! its last byte's (its end saturating at `Word::MAX`), and an entry is
//! stored in one shard only when that range is one shard. The index
//! routes a range ending in its first shard with a single search and
//! answers the sweep's one-shard question with a bounds compare; both
//! must agree with the definition everywhere.

use std::ops::Range;

use lxfi_core::WriterIndex;
use lxfi_kernel::layout::shard_boundaries;
use lxfi_machine::Word;

/// Shard of byte `a`: the number of boundaries at or below it.
fn shard_def(b: &[Word], a: Word) -> usize {
    b.partition_point(|&x| x <= a)
}

/// Shards `[addr, addr+size)` touches, end clamped at `Word::MAX`.
fn shards_def(b: &[Word], addr: Word, size: u64) -> Range<usize> {
    let size = size.min(Word::MAX - addr);
    if size == 0 {
        return 0..0;
    }
    shard_def(b, addr)..shard_def(b, addr + size - 1) + 1
}

/// Checks one range: routing, and the one-shard test from every shard
/// the range touches.
fn check(ix: &WriterIndex, b: &[Word], addr: Word, size: u64) {
    assert_eq!(ix.shard_of(addr), shard_def(b, addr), "shard_of({addr:#x})");
    let want = shards_def(b, addr, size);
    assert_eq!(
        ix.shards_of(addr, size),
        want,
        "shards_of({addr:#x}, {size:#x})"
    );
    let len = size.min(Word::MAX - addr);
    for s in want.clone() {
        assert_eq!(
            ix.only_in(s, addr, len),
            want.len() == 1,
            "only_in({s}, {addr:#x}, {len:#x})"
        );
    }
}

#[test]
fn routing_matches_the_binary_search_definition() {
    let b = shard_boundaries();
    let ix = WriterIndex::with_boundaries(b.clone());
    assert_eq!(ix.shard_count(), b.len() + 1);

    // The first and last shards, and ranges ending at `Word::MAX`.
    let sizes = [1u64, 7, 8, 0x1000, 0x0100_0000, 1 << 37, Word::MAX];
    let mut addrs = vec![0, 1, 0x1000, Word::MAX - 1, Word::MAX];
    // Every boundary and its neighbours.
    for &x in &b {
        addrs.extend([x - 1, x, x + 1]);
    }
    for &a in &addrs {
        for &size in &sizes {
            check(&ix, &b, a, size);
        }
        // Ranges ending exactly at a boundary, one byte short of it, and
        // one byte past it.
        for &x in b.iter().filter(|&&x| x > a) {
            for end in [x - 1, x, x + 1] {
                check(&ix, &b, a, end - a);
            }
        }
        check(&ix, &b, a, Word::MAX - a);
    }
    assert_eq!(ix.shard_of(0), 0, "first shard");
    assert_eq!(ix.shard_of(Word::MAX), b.len(), "last shard");

    // Random ranges, addresses biased toward the boundaries' regions
    // and sizes spanning from one byte to most of the address space.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..20_000 {
        let r = next();
        let addr = match r % 3 {
            0 => r,
            1 => b[(r >> 8) as usize % b.len()].wrapping_add((next() >> 40).wrapping_sub(1 << 23)),
            _ => b[(r >> 8) as usize % b.len()] - (next() % 64),
        };
        let size = next() >> (next() % 64);
        check(&ix, &b, addr, size);
    }
}
