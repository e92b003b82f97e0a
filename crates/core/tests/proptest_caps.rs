//! Property tests for the capability tables and principal model.
//!
//! The interval table behind the WRITE index is checked against a naive
//! `Vec<(Word, u64)>` reference model under arbitrary grant/revoke
//! sequences, including ranges whose end arithmetic saturates near
//! `Word::MAX`; the principal hierarchy invariants of §3.1 are checked
//! under random capability traffic. (The paper's masked-slot baseline
//! is checked against the same kind of model in `lxfi-bench`.)

use proptest::prelude::*;

use lxfi_core::{GuardHandle, IntervalTable, ModuleId, PrincipalId, RawCap, Violation};

/// One holder's WRITE grants: an untagged interval table.
type WriteTable = IntervalTable<()>;

// ------------------------------------------------- WriteTable vs oracle

#[derive(Debug, Clone)]
enum WOp {
    Grant(u64, u64),
    Revoke(u64, u64),
    RevokeOverlapping(u64, u64),
}

fn arb_wop() -> impl Strategy<Value = WOp> {
    // Keep the address universe small so operations collide often, and
    // sizes up to 3 pages so multi-page intervals are exercised.
    let addr = 0x10_0000u64..0x10_4000;
    let size = prop_oneof![1u64..64, 64u64..5000, Just(12288u64)];
    prop_oneof![
        (addr.clone(), size.clone()).prop_map(|(a, s)| WOp::Grant(a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| WOp::Revoke(a, s)),
        (addr, size).prop_map(|(a, s)| WOp::RevokeOverlapping(a, s)),
    ]
}

/// Ops drawn from the last two pages of the address space, where end
/// arithmetic saturates (sizes deliberately overflow `Word::MAX`).
fn arb_wop_near_max() -> impl Strategy<Value = WOp> {
    let addr = prop_oneof![
        u64::MAX - 0x2000..u64::MAX,
        Just(u64::MAX),
        Just(u64::MAX - 1),
    ];
    let size = prop_oneof![1u64..64, 64u64..5000, Just(u64::MAX), Just(u64::MAX / 2)];
    prop_oneof![
        (addr.clone(), size.clone()).prop_map(|(a, s)| WOp::Grant(a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| WOp::Revoke(a, s)),
        (addr, size).prop_map(|(a, s)| WOp::RevokeOverlapping(a, s)),
    ]
}

/// Naive reference model: a plain `Vec<(Word, u64)>` of granted ranges
/// with the documented saturating/zero-size semantics spelled out
/// longhand.
#[derive(Default)]
struct Oracle {
    ranges: Vec<(u64, u64)>,
}

impl Oracle {
    /// The documented clamp: an exclusive end saturates at `Word::MAX`.
    fn clamp(a: u64, s: u64) -> u64 {
        s.min(u64::MAX - a)
    }
    fn grant(&mut self, a: u64, s: u64) {
        let s = Self::clamp(a, s);
        if s > 0 && !self.ranges.contains(&(a, s)) {
            self.ranges.push((a, s));
        }
    }
    fn revoke(&mut self, a: u64, s: u64) -> bool {
        let s = Self::clamp(a, s);
        let before = self.ranges.len();
        self.ranges.retain(|&(x, y)| !(x == a && y == s && s > 0));
        self.ranges.len() != before
    }
    fn revoke_overlapping(&mut self, a: u64, s: u64) -> usize {
        if s == 0 {
            return 0;
        }
        let end = a.saturating_add(s);
        let before = self.ranges.len();
        self.ranges.retain(|&(x, y)| !(x < end && a < x + y));
        before - self.ranges.len()
    }
    fn covers(&self, a: u64, l: u64) -> bool {
        if l == 0 {
            return true;
        }
        let Some(end) = a.checked_add(l) else {
            return false;
        };
        self.ranges.iter().any(|&(x, y)| x <= a && end <= x + y)
    }
    fn overlaps(&self, a: u64, l: u64) -> bool {
        if l == 0 {
            return false;
        }
        let end = a.saturating_add(l);
        self.ranges.iter().any(|&(x, y)| x < end && a < x + y)
    }
    fn owns_exact(&self, a: u64, s: u64) -> bool {
        let s = Self::clamp(a, s);
        s > 0 && self.ranges.contains(&(a, s))
    }
}

/// Drives the table and the oracle through one op sequence, checking
/// agreement at every probe.
fn check_against_oracle(ops: &[WOp], probes: &[(u64, u64)]) {
    let mut t = WriteTable::new();
    let mut o = Oracle::default();
    for op in ops {
        match *op {
            WOp::Grant(a, s) => {
                t.insert(a, s, ());
                o.grant(a, s);
            }
            WOp::Revoke(a, s) => {
                let got = t.remove(a, s, ());
                assert_eq!(o.revoke(a, s), got, "revoke ({:#x}, {})", a, s);
            }
            WOp::RevokeOverlapping(a, s) => {
                let got = t.remove_overlapping(a, s, |_, _, ()| true);
                assert_eq!(
                    o.revoke_overlapping(a, s),
                    got,
                    "revoke_overlapping ({:#x}, {})",
                    a,
                    s
                );
            }
        }
    }
    for &(a, l) in probes {
        assert_eq!(t.covers(a, l), o.covers(a, l), "covers ({:#x}, {})", a, l);
        assert_eq!(
            t.overlaps(a, l),
            o.overlaps(a, l),
            "overlaps ({:#x}, {})",
            a,
            l
        );
        let exact = t.entries().any(|e| e == (a, l.min(u64::MAX - a), ()));
        assert_eq!(exact, o.owns_exact(a, l), "owns_exact ({:#x}, {})", a, l);
        // covering() must return an interval that actually covers.
        if let Some((s, e)) = t.covering(a, l, |()| true) {
            assert!(s <= a && a + l <= e, "covering ({:#x}, {})", a, l);
        } else {
            assert!(l == 0 || !o.covers(a, l));
        }
    }
    assert_eq!(t.len(), o.ranges.len());
    let mut from_iter: Vec<_> = t.entries().map(|(a, s, ())| (a, s)).collect();
    let mut expect = o.ranges.clone();
    from_iter.sort_unstable();
    expect.sort_unstable();
    assert_eq!(from_iter, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The WRITE table agrees with the naive interval reference model on
    /// arbitrary operation sequences and probes.
    #[test]
    fn write_table_matches_oracle(
        ops in proptest::collection::vec(arb_wop(), 1..40),
        probes in proptest::collection::vec((0x10_0000u64..0x10_4100, 1u64..256), 20),
    ) {
        check_against_oracle(&ops, &probes);
    }

    /// Same agreement where every end computation saturates: addresses
    /// within two pages of `Word::MAX` and sizes up to `Word::MAX`
    /// (panicked in debug builds before the overflow-discipline fix).
    #[test]
    fn write_table_matches_oracle_near_max(
        ops in proptest::collection::vec(arb_wop_near_max(), 1..40),
        probes in proptest::collection::vec(
            (u64::MAX - 0x2100..u64::MAX, 1u64..256), 20),
        overflow_probes in proptest::collection::vec(
            (u64::MAX - 0x100..u64::MAX, 0x200u64..u64::MAX), 4),
    ) {
        check_against_oracle(&ops, &probes);
        check_against_oracle(&ops, &overflow_probes);
    }

    /// Every address inside a granted range is covered; every address
    /// outside all ranges is not.
    #[test]
    fn write_coverage_is_exact(addr in 0x20_0000u64..0x20_1000, size in 1u64..8192) {
        let mut t = WriteTable::new();
        t.insert(addr, size, ());
        for probe in [addr, addr + size / 2, addr + size - 1] {
            prop_assert!(t.covers(probe, 1));
        }
        prop_assert!(t.covers(addr, size));
        prop_assert!(!t.covers(addr, size + 1));
        if addr > 0 {
            prop_assert!(!t.covers(addr - 1, 1));
        }
        prop_assert!(!t.covers(addr + size, 1));
    }
}

// ------------------------------------------------ principal hierarchy

#[derive(Debug, Clone)]
enum POp {
    GrantInstance(u8, u64),
    GrantShared(u64),
    RevokeEverywhere(u64),
}

fn arb_pop() -> impl Strategy<Value = POp> {
    let target = 0xf000u64..0xf040;
    prop_oneof![
        (0u8..3, target.clone()).prop_map(|(i, t)| POp::GrantInstance(i, t)),
        target.clone().prop_map(POp::GrantShared),
        target.prop_map(POp::RevokeEverywhere),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// §3.1 invariants under arbitrary capability traffic:
    /// - instances see their own caps plus shared caps, never a sibling's;
    /// - the global principal sees the union;
    /// - transfer-style revocation leaves no copies anywhere.
    #[test]
    fn principal_hierarchy_invariants(ops in proptest::collection::vec(arb_pop(), 1..60)) {
        let rt: GuardHandle = GuardHandle::new(Default::default());
        let m = rt.register_module("m");
        let insts: Vec<PrincipalId> =
            (0..3).map(|i| rt.principal_for_name(m, 0x9000 + i * 0x100)).collect();
        // Mirror state: per-instance call sets + shared set.
        let mut own = [std::collections::HashSet::new(),
                       std::collections::HashSet::new(),
                       std::collections::HashSet::new()];
        let mut shared = std::collections::HashSet::new();

        for op in &ops {
            match *op {
                POp::GrantInstance(i, t) => {
                    let i = (i as usize) % 3;
                    rt.grant(insts[i], RawCap::call(t));
                    own[i].insert(t);
                }
                POp::GrantShared(t) => {
                    let sp = rt.shared_principal(m);
                    rt.grant(sp, RawCap::call(t));
                    shared.insert(t);
                }
                POp::RevokeEverywhere(t) => {
                    rt.revoke_everywhere(&[RawCap::call(t)]);
                    for o in own.iter_mut() { o.remove(&t); }
                    shared.remove(&t);
                }
            }
        }

        for t in 0xf000u64..0xf040 {
            let cap = RawCap::call(t);
            for i in 0..3 {
                let expected = own[i].contains(&t) || shared.contains(&t);
                prop_assert_eq!(rt.owns(insts[i], cap), expected,
                    "instance {} cap {:#x}", i, t);
            }
            let union = own.iter().any(|o| o.contains(&t)) || shared.contains(&t);
            prop_assert_eq!(rt.owns(rt.global_principal(m), cap), union,
                "global cap {:#x}", t);
        }
    }

    /// The indirect-call guard never skips a slot some principal can
    /// still write (no false negatives, §5), and skips every slot nobody
    /// holds: after random WRITE grants and exact revokes, a call to a
    /// target no principal may CALL is refused through every slot a held
    /// grant covers and allowed through every other probed slot.
    #[test]
    fn indcall_checks_every_held_slot(
        grants in proptest::collection::vec((0u32..3, 0x30_0000u64..0x30_2000, 1u64..512), 1..20),
        revokes in proptest::collection::vec(0usize..20, 0..12),
        probes in proptest::collection::vec(0x2f_ff00u64..0x30_2300, 0..32),
    ) {
        let mut rt: GuardHandle = GuardHandle::new(Default::default());
        let m = rt.register_module("m");
        let ps: Vec<PrincipalId> =
            (0..3).map(|i| rt.principal_for_name(m, 0x9000 + i * 0x100)).collect();
        for &(i, a, s) in &grants {
            rt.grant(ps[i as usize], RawCap::write(a, s));
        }
        let mut held = grants.clone();
        for &r in &revokes {
            if let Some(&(i, a, s)) = grants.get(r) {
                rt.revoke(ps[i as usize], RawCap::write(a, s));
                held.retain(|&g| g != (i, a, s));
            }
        }
        let target = 0xdead_0000;
        let mut slots: Vec<u64> = held.iter().flat_map(|&(_, a, s)| [a, a + s - 1]).collect();
        slots.extend(&probes);
        for slot in slots {
            let covered = held.iter().any(|&(_, a, s)| slot < a + s && a < slot + 8);
            let verdict = rt.check_indcall(slot, target, 0);
            if covered {
                let refused = matches!(verdict, Err(Violation::IndCallUnauthorized { .. }));
                prop_assert!(refused, "slot {slot:#x} under a held WRITE passed: {verdict:?}");
            } else {
                prop_assert_eq!(verdict, Ok(()), "unheld slot {:#x}", slot);
            }
        }
    }

    /// Grant/revoke round trip on one principal for every capability
    /// kind: WRITE through the writer index, CALL and REF through the
    /// principal's own table.
    #[test]
    fn capset_roundtrip(t in 0u32..4, addr: u64, size in 1u64..4096) {
        let rt: GuardHandle = GuardHandle::new(Default::default());
        let p = rt.principal_for_name(rt.register_module("m"), 0x9000);
        let cap = match t {
            0 => RawCap::write(addr.min(u64::MAX - size), size),
            1 => RawCap::call(addr),
            _ => RawCap::reference(lxfi_core::RefTypeId(t), addr),
        };
        prop_assert!(!rt.owns(p, cap));
        rt.grant(p, cap);
        prop_assert!(rt.owns(p, cap));
        prop_assert_eq!(rt.cap_count(p), 1);
        prop_assert!(rt.core().revoke(p, cap).0);
        prop_assert!(!rt.owns(p, cap));
        prop_assert!(!rt.core().revoke(p, cap).0);
        prop_assert_eq!(rt.cap_count(p), 0);
    }
}

// ------------------------------------------------------- shadow stacks

proptest! {
    /// Balanced wrapper nesting always restores the outer context; any
    /// token mismatch is detected.
    #[test]
    fn shadow_stack_balanced_nesting(depths in proptest::collection::vec(0u32..4, 1..12)) {
        let mut rt: GuardHandle = GuardHandle::new(Default::default());
        let m = rt.register_module("m");
        let mut tokens = Vec::new();
        for &d in &depths {
            let p = rt.principal_for_name(m, 0x9000 + d as u64 * 8);
            tokens.push(rt.wrapper_enter(Some((m, p))));
        }
        for tok in tokens.into_iter().rev() {
            rt.wrapper_exit(tok).unwrap();
        }
        prop_assert_eq!(rt.current(), None);
    }

    /// Exiting with the wrong token is always a violation.
    #[test]
    fn shadow_stack_detects_wrong_token(delta in 1u64..1000) {
        let mut rt: GuardHandle = GuardHandle::new(Default::default());
        let m = rt.register_module("m");
        let p = rt.principal_for_name(m, 0x9000);
        let tok = rt.wrapper_enter(Some((m, p)));
        prop_assert!(rt.wrapper_exit(tok.wrapping_add(delta)).is_err());
    }
}

// Silence an unused-import warning when ModuleId is only used in types.
#[allow(dead_code)]
fn _type_uses(_: ModuleId) {}
