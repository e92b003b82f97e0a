//! Writer-index drain under churn: a long-running grant/revoke loop over
//! rotating, overlapping principal combinations must leave the reverse
//! writer index empty once everything is revoked — no entry and no
//! writer principal left behind — with the index matching every
//! principal's WRITE table after each round.

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
    assert_eq!(
        rt.index_set_count(),
        0,
        "everything revoked: no principal holds a WRITE record"
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
