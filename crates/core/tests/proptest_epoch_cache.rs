//! Property tests for the epoch-validated write-guard cache.
//!
//! A [`GuardHandle`] is driven through random
//! grant / revoke / transfer / check interleavings, and its cached
//! `check_write` must produce **the same allow/deny decision** at every
//! guarded write as two uncached opinions: the kernel-stack window plus
//! a direct [`RuntimeCore::write_covering`] table probe, and a naive
//! model (per-principal `Vec<(addr, size)>` with the §3.1
//! instance→shared fallback spelled out longhand), mirroring the
//! three-way writer-index oracle.
//!
//! Sequences include revocations from the shared principal (which must
//! invalidate every instance's cached intervals through the epoch
//! hierarchy), `transfer`s to nobody, `kfree`-style
//! overlapping revocation, and ranges whose end arithmetic saturates
//! near `Word::MAX` (where a cached interval end of exactly `MAX` meets
//! overflowing check lengths).

use proptest::prelude::*;

use lxfi_core::{GuardHandle, PrincipalId, RawCap, RuntimeCore};

/// Principal slots: slot 0 is the module's shared principal, slots
/// 1..NSLOTS are instances.
const NSLOTS: usize = 5;

const STACK_BASE: u64 = 0xffff_9000_0000_0000;

#[derive(Debug, Clone)]
enum Op {
    Grant(usize, u64, u64),
    Revoke(usize, u64, u64),
    Transfer(u64, u64),
    RevokeOverlapping(u64, u64),
    /// `check_write` in slot's principal context over `[addr, addr+len)`.
    Check(usize, u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small address universe so grants collide and overlap often, with
    // sizes up to several pages so covering intervals split and merge.
    let slot = 0usize..NSLOTS;
    let addr = 0x10_0000u64..0x10_2000;
    let size = prop_oneof![1u64..64, 64u64..2000, Just(8192u64)];
    let len = prop_oneof![1u64..16, Just(64u64), Just(4096u64)];
    prop_oneof![
        (slot.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (slot.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::Transfer(a, s)),
        (addr.clone(), size).prop_map(|(a, s)| Op::RevokeOverlapping(a, s)),
        (slot, addr, len).prop_map(|(p, a, l)| Op::Check(p, a, l)),
    ]
}

/// Ops near the top of the address space, where grant ends saturate at
/// `Word::MAX` and check ends can overflow outright.
fn arb_op_near_max() -> impl Strategy<Value = Op> {
    let slot = 0usize..NSLOTS;
    let addr = prop_oneof![
        u64::MAX - 0x1000..u64::MAX,
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::MAX - 8),
    ];
    let size = prop_oneof![1u64..64, Just(u64::MAX), Just(u64::MAX / 2), Just(4096u64)];
    let len = prop_oneof![1u64..16, Just(u64::MAX), Just(0x2000u64)];
    prop_oneof![
        (slot.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (slot.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::Transfer(a, s)),
        (addr.clone(), size).prop_map(|(a, s)| Op::RevokeOverlapping(a, s)),
        (slot, addr, len).prop_map(|(p, a, l)| Op::Check(p, a, l)),
    ]
}

/// The naive model: per-slot granted ranges with the documented
/// saturating semantics and the instance→shared coverage fallback.
struct Naive {
    ranges: Vec<Vec<(u64, u64)>>,
}

impl Naive {
    fn new() -> Self {
        Naive {
            ranges: vec![Vec::new(); NSLOTS],
        }
    }
    fn clamp(a: u64, s: u64) -> u64 {
        s.min(u64::MAX - a)
    }
    fn grant(&mut self, p: usize, a: u64, s: u64) {
        let s = Self::clamp(a, s);
        if s > 0 && !self.ranges[p].contains(&(a, s)) {
            self.ranges[p].push((a, s));
        }
    }
    fn revoke(&mut self, p: usize, a: u64, s: u64) {
        let s = Self::clamp(a, s);
        self.ranges[p].retain(|&(x, y)| !(x == a && y == s && s > 0));
    }
    fn revoke_overlapping(&mut self, p: usize, a: u64, s: u64) {
        if s == 0 {
            return;
        }
        let end = a.saturating_add(s);
        self.ranges[p].retain(|&(x, y)| !(x < end && a < x + y));
    }
    fn slot_covers(&self, p: usize, a: u64, end: u64) -> bool {
        self.ranges[p].iter().any(|&(x, y)| x <= a && end <= x + y)
    }
    /// The `check_write` decision: zero-length allowed, overflowing end
    /// denied, stack writes out of universe, single-grant coverage with
    /// the instance→shared fallback (slot 0 IS shared: own table only).
    fn allows(&self, p: usize, a: u64, l: u64) -> bool {
        if l == 0 {
            return true;
        }
        let Some(end) = a.checked_add(l) else {
            return false;
        };
        self.slot_covers(p, a, end) || (p != 0 && self.slot_covers(0, a, end))
    }
}

/// A handle over a fresh core with the shared principal in slot 0 and
/// instances after.
fn runtime_with_slots() -> (GuardHandle, Vec<PrincipalId>) {
    let mut rt: GuardHandle = GuardHandle::new(Default::default());
    let m = rt.register_module("pt");
    rt.set_kernel_stack(STACK_BASE, 0x2000);
    let mut slots = vec![rt.shared_principal(m)];
    for i in 1..NSLOTS {
        slots.push(rt.principal_for_name(m, 0x9000 + i as u64 * 8));
    }
    (rt, slots)
}

/// Runs `check_write` for `slot` on one handle.
fn check_on(rt: &mut GuardHandle, slots: &[PrincipalId], slot: usize, a: u64, l: u64) -> bool {
    let m = lxfi_core::ModuleId(0);
    rt.set_current(Some((m, slots[slot])));
    let ok = rt.check_write(a, l).is_ok();
    rt.set_current(None);
    ok
}

/// The uncached decision for `slot`: a zero-length write, a write inside
/// the kernel-stack window, or a direct table probe.
fn uncached_allows(rt: &RuntimeCore, slots: &[PrincipalId], slot: usize, a: u64, l: u64) -> bool {
    let in_stack = a >= STACK_BASE && a.checked_add(l).is_some_and(|e| e <= STACK_BASE + 0x2000);
    l == 0 || in_stack || rt.write_covering(slots[slot], a, l).is_some()
}

/// Probe points worth re-checking after the sequence: op boundaries and
/// their neighbors, for every slot.
fn probe_points(ops: &[Op]) -> Vec<u64> {
    let mut probes = Vec::new();
    for op in ops {
        let (a, s) = match *op {
            Op::Grant(_, a, s) | Op::Revoke(_, a, s) | Op::Check(_, a, s) => (a, s),
            Op::Transfer(a, s) | Op::RevokeOverlapping(a, s) => (a, s),
        };
        let end = a.saturating_add(s.min(u64::MAX - a));
        for probe in [
            a,
            a.wrapping_sub(8),
            a.saturating_add(1),
            end.wrapping_sub(1),
            end,
        ] {
            probes.push(probe);
        }
    }
    probes
}

/// Drives a cached runtime and the naive model through one sequence;
/// every check must agree three ways (cached, uncached probe, naive).
fn check_sequence(ops: &[Op]) {
    let (mut cached, slots) = runtime_with_slots();
    let mut naive = Naive::new();

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Grant(pi, a, s) => {
                cached.grant(slots[pi], RawCap::write(a, s));
                naive.grant(pi, a, s);
            }
            Op::Revoke(pi, a, s) => {
                cached.revoke(slots[pi], RawCap::write(a, s));
                naive.revoke(pi, a, s);
            }
            Op::Transfer(a, s) => {
                cached
                    .transfer_cap(RawCap::write(a, s), None, None)
                    .unwrap();
                for pi in 0..NSLOTS {
                    naive.revoke(pi, a, s);
                }
            }
            Op::RevokeOverlapping(a, s) => {
                cached.revoke_write_overlapping_everywhere(a, s);
                for pi in 0..NSLOTS {
                    naive.revoke_overlapping(pi, a, s);
                }
            }
            Op::Check(pi, a, l) => {
                let want = naive.allows(pi, a, l);
                let with_cache = check_on(&mut cached, &slots, pi, a, l);
                let without = uncached_allows(&cached, &slots, pi, a, l);
                assert_eq!(
                    with_cache, want,
                    "step {step}: cached check(slot {pi}, {a:#x}, {l}) vs naive"
                );
                assert_eq!(
                    without, want,
                    "step {step}: uncached check(slot {pi}, {a:#x}, {l}) vs naive"
                );
            }
        }
    }

    // Final sweep: every op boundary, every slot, 8-byte and 1-byte
    // writes — the cached runtime carries whatever cache state the
    // sequence left behind, and must still agree.
    for probe in probe_points(ops) {
        for pi in 0..NSLOTS {
            for l in [1u64, 8] {
                let want = naive.allows(pi, probe, l);
                assert_eq!(
                    check_on(&mut cached, &slots, pi, probe, l),
                    want,
                    "sweep: cached check(slot {pi}, {probe:#x}, {l})"
                );
                assert_eq!(
                    uncached_allows(&cached, &slots, pi, probe, l),
                    want,
                    "sweep: uncached check(slot {pi}, {probe:#x}, {l})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cached checks and the uncached probe agree with the naive model
    /// under random capability traffic.
    #[test]
    fn epoch_cache_never_changes_decisions(
        ops in proptest::collection::vec(arb_op(), 1..50),
    ) {
        check_sequence(&ops);
    }

    /// Same agreement where end arithmetic saturates at `Word::MAX`.
    #[test]
    fn epoch_cache_agrees_near_max(
        ops in proptest::collection::vec(arb_op_near_max(), 1..40),
    ) {
        check_sequence(&ops);
    }

    /// Mixed universes: low-address and saturating ops interleaved, so
    /// cached intervals from one universe sit in the ways while the
    /// other universe churns.
    #[test]
    fn epoch_cache_agrees_mixed(
        low in proptest::collection::vec(arb_op(), 1..25),
        high in proptest::collection::vec(arb_op_near_max(), 1..25),
    ) {
        let mut ops = low;
        ops.extend(high);
        check_sequence(&ops);
    }
}
