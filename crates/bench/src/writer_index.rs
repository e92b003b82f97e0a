//! Writer-lookup latency: the reverse writer index vs the paper's
//! global principal walk, at 8 / 64 / 512 principals.
//!
//! The workload models a many-module world: every principal owns a
//! private arena (its slab objects), and each of [`SLOTS`]
//! function-pointer slots is writable by exactly two principals (an
//! ops-table shared by a driver pair). The slow-path question — "who
//! can write this slot?" — has a two-element answer regardless of scale,
//! so the linear walk's O(principals) probe cost is pure overhead and
//! the reverse index's O(log entries + 2) stays flat. The index is the
//! runtime's own [`WriterIndex`] (per-shard locks included), queried
//! the way `GuardHandle::check_indcall` queries it: `collect_writers`
//! into a reused buffer.

use std::hint::black_box;

use lxfi_core::{PrincipalId, WriterIndex};

use crate::baselines::LinearWriterIndex;
use crate::guards::time_ns;

/// Base address of the probed function-pointer slots.
pub const SLOT_BASE: u64 = 0x40_0000;
/// One slot per 64-byte granule (so probes touch distinct entries).
pub const SLOT_STRIDE: u64 = 64;
/// Number of probed slots.
pub const SLOTS: u64 = 64;
/// Base address of the per-principal private arenas.
pub const ARENA_BASE: u64 = 0x100_0000;
/// Byte stride between consecutive principals' arenas.
pub const ARENA_STRIDE: u64 = 0x1000;

/// Address of the `i`-th rotated slot probe (stride-13 walk, like the
/// WRITE-table benches, so consecutive probes land in different slots).
pub fn rotating_slot_probe(i: u64) -> u64 {
    SLOT_BASE + (i.wrapping_mul(13) % SLOTS) * SLOT_STRIDE
}

/// Builds both writer-lookup structures over an identical grant
/// population: `principals` principals, each holding one private arena
/// grant, and every slot granted to two principals (round-robin).
pub fn bench_writer_indexes(principals: usize) -> (LinearWriterIndex, WriterIndex) {
    assert!(principals >= 2, "slots need two distinct writers");
    let mut linear = LinearWriterIndex::new();
    let index = WriterIndex::new();
    let mut grant = |p: usize, addr: u64, size: u64| {
        linear.grant(PrincipalId(p as u32), addr, size);
        index.add(PrincipalId(p as u32), addr, size);
    };
    for p in 0..principals {
        grant(p, ARENA_BASE + p as u64 * ARENA_STRIDE, 0x100);
    }
    for s in 0..SLOTS {
        let a = (2 * s) as usize % principals;
        let b = (2 * s + 1) as usize % principals;
        grant(a, SLOT_BASE + s * SLOT_STRIDE, 8);
        grant(b, SLOT_BASE + s * SLOT_STRIDE, 8);
    }
    (linear, index)
}

/// Measured slow-path lookup latency at one principal count.
#[derive(Debug, Clone)]
pub struct WriterLookupLatency {
    /// Number of principals in the system.
    pub principals: usize,
    /// ns per lookup via the global principal walk (allocates a `Vec`).
    pub linear_ns: f64,
    /// ns per lookup via the reverse index (into a reused buffer).
    pub index_ns: f64,
}

/// Times `writers_of` on both structures with rotating slot probes.
/// Every probe finds exactly two writers; the assertions keep the
/// optimizer honest and the workload correct.
pub fn writer_lookup_comparison(principals: usize, iters: u64) -> WriterLookupLatency {
    let (linear, index) = bench_writer_indexes(principals);
    let mut i = 0u64;
    let linear_ns = time_ns(iters, || {
        let a = rotating_slot_probe(i);
        i += 1;
        assert_eq!(linear.writers_of(black_box(a), 8).len(), 2);
    });
    let (mut i, mut buf) = (0u64, Vec::new());
    let index_ns = time_ns(iters, || {
        let a = rotating_slot_probe(i);
        i += 1;
        buf.clear();
        index.collect_writers(black_box(a), 8, &mut buf);
        assert_eq!(buf.len(), 2);
    });
    WriterLookupLatency {
        principals,
        linear_ns,
        index_ns,
    }
}

/// The principal counts the guard-cost table and the CI perf gate report.
pub const PRINCIPAL_COUNTS: [usize; 3] = [8, 64, 512];

/// One comparison row per entry of [`PRINCIPAL_COUNTS`].
pub fn writer_lookup_rows(iters: u64) -> Vec<WriterLookupLatency> {
    PRINCIPAL_COUNTS
        .iter()
        .map(|&n| writer_lookup_comparison(n, iters))
        .collect()
}

// ------------------------------------------------- grant/revoke splices

/// Base address of the splice-churn arena.
pub const CHURN_BASE: u64 = 0x800_0000;
/// Byte stride between churned grants.
pub const CHURN_GRANT_STRIDE: u64 = 0x100;
/// Grants (and therefore index entries) in the splice workload: enough
/// that an unsharded revoke/grant memmoves a four-digit entry tail.
pub const CHURN_GRANTS: usize = 2048;

/// Shard counts the splice comparison and the CI perf gate report.
pub const SPLICE_SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// A [`WriterIndex`] with `shards` equal-width shards over the churn
/// arena, populated with [`CHURN_GRANTS`] disjoint grants round-robined
/// over `principals` principals — the entry population is identical
/// for every shard count; only the splice locality differs.
pub fn bench_sharded_index(principals: usize, shards: usize) -> WriterIndex {
    assert!(principals >= 1 && shards >= 1);
    let span = CHURN_GRANTS as u64 * CHURN_GRANT_STRIDE;
    let bounds: Vec<u64> = (1..shards as u64)
        .map(|k| CHURN_BASE + span * k / shards as u64)
        .collect();
    let ix = WriterIndex::with_boundaries(bounds);
    for (p, a, s) in churn_grants(principals) {
        ix.add(p, a, s);
    }
    ix
}

/// The [`CHURN_GRANTS`] `(holder, addr, size)` grants of
/// [`bench_sharded_index`].
pub fn churn_grants(principals: usize) -> impl Iterator<Item = (PrincipalId, u64, u64)> {
    (0..CHURN_GRANTS).map(move |g| {
        let p = PrincipalId((g % principals) as u32);
        (p, CHURN_BASE + g as u64 * CHURN_GRANT_STRIDE, 0x80)
    })
}

/// Measured grant/revoke splice latency at one shard count.
#[derive(Debug, Clone)]
pub struct SpliceLatency {
    /// Number of principals whose grants populate the index.
    pub principals: usize,
    /// Number of shards.
    pub shards: usize,
    /// ns per revoke+re-grant churn op (two splices).
    pub churn_ns: f64,
}

/// One churn op of the splice workload: the `i`-th rotated grant is
/// removed and immediately re-added (two splices). Shared by the table
/// harness and the criterion bench so both measure the same workload.
pub fn splice_churn_op(ix: &WriterIndex, principals: usize, i: u64) {
    let g = i.wrapping_mul(13) % CHURN_GRANTS as u64;
    let p = PrincipalId((g % principals as u64) as u32);
    let a = CHURN_BASE + g * CHURN_GRANT_STRIDE;
    ix.remove(std::hint::black_box(p), a, 0x80);
    ix.add(p, a, 0x80);
}

/// Times [`splice_churn_op`] rotating across the populated grants: each
/// op removes one entry from its shard and inserts it back, so the cost
/// is dominated by the shard's `Vec` tail memmove and prefix-maximum
/// rebuild — the quantities sharding bounds.
pub fn splice_comparison(principals: usize, shards: usize, iters: u64) -> SpliceLatency {
    let ix = bench_sharded_index(principals, shards);
    let mut i = 0u64;
    let churn_ns = time_ns(iters, || {
        splice_churn_op(&ix, principals, i);
        i += 1;
    });
    SpliceLatency {
        principals,
        shards,
        churn_ns,
    }
}

/// One splice row per entry of [`SPLICE_SHARD_COUNTS`], at 512
/// principals (the scale the acceptance bar names).
pub fn splice_rows(iters: u64) -> Vec<SpliceLatency> {
    SPLICE_SHARD_COUNTS
        .iter()
        .map(|&s| splice_comparison(512, s, iters))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writers of the 8-byte slot at `probe`, sorted.
    fn writers(ix: &WriterIndex, probe: u64) -> Vec<PrincipalId> {
        let mut out = Vec::new();
        ix.collect_writers(probe, 8, &mut out);
        out.sort();
        out
    }

    #[test]
    fn structures_agree_on_the_workload() {
        for &n in &PRINCIPAL_COUNTS {
            let (linear, index) = bench_writer_indexes(n);
            for i in 0..SLOTS {
                let probe = SLOT_BASE + i * SLOT_STRIDE;
                let got = writers(&index, probe);
                assert_eq!(got, linear.writers_of(probe, 8), "slot {i}, n={n}");
                assert_eq!(got.len(), 2);
            }
            // Arena probes see exactly their owner.
            let arena = ARENA_BASE + (n as u64 / 2) * ARENA_STRIDE;
            assert_eq!(writers(&index, arena).len(), 1);
        }
    }

    #[test]
    fn reverse_index_beats_linear_walk_by_5x_at_512() {
        // The acceptance bar: ≥5x on the 512-principal slow-path lookup.
        // The real margin is far larger (the walk probes 512 tables per
        // query); 5x keeps the test robust on loaded CI machines.
        let lat = writer_lookup_comparison(512, 20_000);
        assert!(
            lat.index_ns * 5.0 < lat.linear_ns,
            "index {:.1}ns vs linear walk {:.1}ns at 512 principals",
            lat.index_ns,
            lat.linear_ns
        );
    }

    #[test]
    fn sharded_and_unsharded_splice_workloads_agree() {
        // Identical grant populations at every shard count: probes in,
        // between, and across grants answer identically.
        let flat = bench_sharded_index(512, 1);
        for &s in &SPLICE_SHARD_COUNTS[1..] {
            let sharded = bench_sharded_index(512, s);
            assert_eq!(sharded.shard_count(), s);
            for g in (0..CHURN_GRANTS as u64).step_by(37) {
                let a = CHURN_BASE + g * CHURN_GRANT_STRIDE;
                for probe in [a, a + 0x78, a + 0x80, a.wrapping_sub(8)] {
                    let (want, got) = (writers(&flat, probe), writers(&sharded, probe));
                    assert_eq!(got, want, "{s} shards, probe {probe:#x}");
                }
            }
            sharded.check_invariants(&churn_grants(512).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sharded_splice_beats_unsharded_at_512() {
        // The acceptance bar: grant/revoke splice time at 512 principals
        // improves vs the unsharded index at ≥4 shards. The margin is
        // real in release (the perf gate holds splice_512p_4shard_ns <
        // splice_512p_1shard_ns with no slack), but an uninlined debug
        // build on a loaded single-core host measures a near-tie that
        // flips sign with scheduler noise — so debug builds only guard
        // against collapse while release asserts the strict win. Best
        // of three interleaved rounds damps descheduling spikes.
        let (mut best_flat, mut best_sharded) = (f64::MAX, f64::MAX);
        for _ in 0..3 {
            best_flat = best_flat.min(splice_comparison(512, 1, 4_000).churn_ns);
            best_sharded = best_sharded.min(splice_comparison(512, 4, 4_000).churn_ns);
        }
        let limit = if cfg!(debug_assertions) {
            best_flat * 1.25
        } else {
            best_flat
        };
        assert!(
            best_sharded < limit,
            "4-shard churn {best_sharded:.1}ns vs unsharded {best_flat:.1}ns"
        );
    }

    #[test]
    fn index_latency_stays_flat_as_principals_grow() {
        // 8 → 512 principals: the walk slows by ~64x, the index must not
        // (allow generous noise: 4x).
        let small = writer_lookup_comparison(8, 20_000);
        let large = writer_lookup_comparison(512, 20_000);
        assert!(
            large.index_ns < small.index_ns * 4.0 + 50.0,
            "index lookup should be ~flat: {:.1}ns at 8 vs {:.1}ns at 512",
            small.index_ns,
            large.index_ns
        );
    }
}
