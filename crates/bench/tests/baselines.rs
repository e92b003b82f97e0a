//! Property tests for the paper's baselines (`lxfi_bench::baselines`):
//! the masked-slot WRITE table and the global-walk writer index are
//! driven through random grant / revoke / overlapping-revoke sequences,
//! including ranges whose end arithmetic saturates near `Word::MAX`, and
//! must agree with a naive model — per-principal `Vec<(addr, size)>`
//! with the documented saturating and zero-size semantics spelled out
//! longhand — on every return value and probe.

use proptest::prelude::*;

use lxfi_bench::baselines::{LinearWriteTable, LinearWriterIndex};
use lxfi_core::PrincipalId;

const NPRINC: usize = 3;

/// `(kind, principal, addr, size)`: kind 0 grants, 1 revokes exactly, 2
/// revokes everything overlapping.
type Op = (u8, usize, u64, u64);

/// Drives one [`LinearWriteTable`] per principal, one
/// [`LinearWriterIndex`] and the naive model through `ops`, then checks
/// every probe.
fn check(ops: &[Op], probes: &[(u64, u64)]) {
    let mut tables = vec![LinearWriteTable::new(); NPRINC];
    let mut index = LinearWriterIndex::new();
    let mut naive = vec![Vec::<(u64, u64)>::new(); NPRINC];
    let id = |p: usize| PrincipalId(p as u32);
    for &(kind, p, a, s) in ops {
        let clamped = s.min(u64::MAX - a);
        let end = a.saturating_add(s);
        let before = naive[p].len();
        match kind {
            0 => {
                tables[p].grant(a, s);
                index.grant(id(p), a, s);
                if clamped > 0 && !naive[p].contains(&(a, clamped)) {
                    naive[p].push((a, clamped));
                }
            }
            1 => {
                naive[p].retain(|&(x, y)| !(x == a && y == clamped && clamped > 0));
                let want = naive[p].len() != before;
                assert_eq!(tables[p].revoke(a, s), want, "table revoke {a:#x}+{s}");
                assert_eq!(index.revoke(id(p), a, s), want, "index revoke {a:#x}+{s}");
            }
            _ => {
                naive[p].retain(|&(x, y)| !(s > 0 && x < end && a < x + y));
                let want = before - naive[p].len();
                let got = tables[p].revoke_overlapping(a, s);
                assert_eq!(got, want, "table revoke_overlapping {a:#x}+{s}");
                let got = index.revoke_overlapping(id(p), a, s);
                assert_eq!(got, want, "index revoke_overlapping {a:#x}+{s}");
            }
        }
    }
    // The random probes plus each op's own range and its first and last
    // byte, where off-by-one bugs at a range end show.
    let edges = ops
        .iter()
        .flat_map(|&(_, _, a, s)| [(a, s), (a, 1), (a.saturating_add(s).saturating_sub(1), 1)]);
    for (a, l) in probes.iter().copied().chain(edges) {
        let end = a.checked_add(l);
        let covers = |p: usize| {
            let hit = |&(x, y): &(u64, u64)| end.is_some_and(|e| x <= a && e <= x + y);
            l == 0 || naive[p].iter().any(hit)
        };
        let overlaps = |p: usize| {
            let e = a.saturating_add(l);
            l != 0 && naive[p].iter().any(|&(x, y)| x < e && a < x + y)
        };
        for (p, t) in tables.iter().enumerate() {
            assert_eq!(t.covers(a, l), covers(p), "covers p{p} ({a:#x}, {l})");
            assert_eq!(t.overlaps(a, l), overlaps(p), "overlaps p{p} ({a:#x}, {l})");
        }
        let writers: Vec<_> = (0..NPRINC).filter(|&p| overlaps(p)).map(id).collect();
        assert_eq!(index.writers_of(a, l), writers, "writers_of ({a:#x}, {l})");
    }
    for (t, n) in tables.iter().zip(&naive) {
        assert_eq!((t.len(), t.is_empty()), (n.len(), n.is_empty()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both baselines agree with the naive model in a small universe (so
    /// ops collide) with ranges up to three pages (so they replicate
    /// across slots).
    #[test]
    fn baselines_match_naive_model(
        ops in proptest::collection::vec((0u8..3, 0usize..NPRINC, 0x10_0000u64..0x10_4000,
            prop_oneof![1u64..64, 64u64..5000, Just(12288u64)]), 1..40),
        probes in proptest::collection::vec((0x10_0000u64..0x10_4100, 1u64..256), 20),
    ) {
        check(&ops, &probes);
    }

    /// Same agreement in the last pages of the address space, where
    /// every end computation saturates or overflows.
    #[test]
    fn baselines_match_naive_model_near_max(
        ops in proptest::collection::vec((0u8..3, 0usize..NPRINC,
            prop_oneof![u64::MAX - 0x2000..u64::MAX, Just(u64::MAX), Just(u64::MAX - 1)],
            prop_oneof![1u64..64, 64u64..5000, Just(u64::MAX), Just(u64::MAX / 2)]), 1..40),
        probes in proptest::collection::vec((u64::MAX - 0x2100..u64::MAX, 1u64..256), 20),
        overflow_probes in proptest::collection::vec(
            (u64::MAX - 0x100..u64::MAX, 0x200u64..u64::MAX), 4),
    ) {
        check(&ops, &probes);
        check(&ops, &overflow_probes);
    }
}
