//! Writer-set GC boundedness: a long-running grant/revoke loop interns
//! new writer-set combinations forever, but the refcounting interner
//! frees unreferenced sets and recycles their slots, so live-set count
//! and slot capacity must stay bounded while the allocation counter
//! keeps growing. Before the GC landed, `set_count` grew without bound
//! in exactly this workload (ROADMAP "writer-set spill discipline").

use lxfi_core::{RawCap, RuntimeCore};

const NPRINC: u64 = 16;
const ROUNDS: u64 = 4000;

fn churn(rt: &RuntimeCore) {
    let m = rt.register_module("gc");
    let ps: Vec<_> = (0..NPRINC)
        .map(|i| rt.principal_for_name(m, 0x9000 + i * 8))
        .collect();
    for round in 0..ROUNDS {
        // Three principals in a rotating, round-dependent combination
        // grant overlapping windows over a small region, then revoke.
        // Overlaps force set unions ({a}, {a,b}, {a,b,c}, …) that are
        // garbage one round later.
        let trio = [
            ps[(round % NPRINC) as usize],
            ps[((round / NPRINC + round + 1) % NPRINC) as usize],
            ps[((round / (NPRINC * NPRINC) + round + 2) % NPRINC) as usize],
        ];
        let base = 0x50_0000 + (round % 64) * 0x40;
        for &p in &trio {
            rt.grant(p, RawCap::write(base, 0x100));
        }
        rt.check_index_invariants();
        for &p in &trio {
            rt.revoke(p, RawCap::write(base, 0x100));
        }
    }
    rt.check_index_invariants();
}

fn assert_bounded(rt: &RuntimeCore) {
    assert!(
        rt.index_sets_ever_interned() > 2 * ROUNDS,
        "churn should intern new combinations every round: only {}",
        rt.index_sets_ever_interned()
    );
    assert_eq!(
        rt.index_set_count(),
        1,
        "everything revoked: only the pinned empty set stays live"
    );
    assert!(
        rt.index_set_slot_capacity() <= 64,
        "slot capacity is the high-water mark of simultaneously live \
         sets, not of allocations: {}",
        rt.index_set_slot_capacity()
    );
    assert_eq!(rt.index_interval_count(), 0);
}

#[test]
fn interned_sets_stay_bounded_under_churn() {
    let rt = RuntimeCore::new();
    churn(&rt);
    assert_bounded(&rt);
}

#[test]
fn interned_sets_stay_bounded_under_churn_sharded() {
    let rt = RuntimeCore::with_shard_boundaries(vec![0x50_0400, 0x50_0800, 0x50_0c00]);
    churn(&rt);
    assert_bounded(&rt);
}
