//! Property tests for multiple [`GuardHandle`]s over one shared core.
//!
//! Random single-threaded interleavings of handle guard checks and core
//! capability mutations (grant / revoke / transfer / kfree) are driven
//! against the naive oracle from the epoch-cache property test. Each
//! handle keeps its own private epoch cache across every core mutation,
//! so the property exercises exactly the state a worker thread would
//! carry between operations of other threads — any missing epoch bump
//! or mis-stamped cache fill shows up as a handle answering from stale
//! state. One extra handle, with a kernel-stack window like a simulated
//! kernel CPU's, performs the mutations through its metered entry points
//! and is checked like the others.
//!
//! Sequences include revocations from the shared principal (hierarchy
//! invalidation through every handle), and ranges whose end arithmetic
//! saturates near `Word::MAX`.

use proptest::prelude::*;

use std::sync::Arc;

use lxfi_core::{GuardHandle, ModuleId, RawCap, RuntimeCore};

/// Principal slots: slot 0 is the module's shared principal, slots
/// 1..NSLOTS are instances.
const NSLOTS: usize = 5;
/// Guard handles driven concurrently (plus the mutating kernel handle).
const NHANDLES: usize = 3;

const STACK_BASE: u64 = 0xffff_9000_0000_0000;

#[derive(Debug, Clone)]
enum Op {
    Grant(usize, u64, u64),
    Revoke(usize, u64, u64),
    Transfer(u64, u64),
    RevokeOverlapping(u64, u64),
    /// `check_write` on handle `h` in slot's principal context.
    Check(usize, usize, u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let slot = 0usize..NSLOTS;
    let handle = 0usize..NHANDLES + 1; // NHANDLES = the kernel handle
    let addr = 0x10_0000u64..0x10_2000;
    let size = prop_oneof![1u64..64, 64u64..2000, Just(8192u64)];
    let len = prop_oneof![1u64..16, Just(64u64), Just(4096u64)];
    prop_oneof![
        (slot.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (slot.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::Transfer(a, s)),
        (addr.clone(), size).prop_map(|(a, s)| Op::RevokeOverlapping(a, s)),
        (handle, slot, addr, len).prop_map(|(h, p, a, l)| Op::Check(h, p, a, l)),
    ]
}

/// Ops near the top of the address space, where grant ends saturate at
/// `Word::MAX` and check ends can overflow outright.
fn arb_op_near_max() -> impl Strategy<Value = Op> {
    let slot = 0usize..NSLOTS;
    let handle = 0usize..NHANDLES + 1;
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
        (handle, slot, addr, len).prop_map(|(h, p, a, l)| Op::Check(h, p, a, l)),
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

/// Shard boundaries inside (and beyond) the op universes, so grants
/// split across shard locks and the near-MAX universe exercises the
/// top shard.
fn boundaries() -> Vec<u64> {
    vec![0x10_0800, 0x10_1000, u64::MAX - 0x800]
}

fn check_sequence(ops: &[Op]) {
    let core = Arc::new(RuntimeCore::with_shard_boundaries(boundaries()));
    let m = core.register_module("pt");
    let mut slots = vec![core.shared_principal(m)];
    for i in 1..NSLOTS {
        slots.push(core.principal_for_name(m, 0x9000 + i as u64 * 8));
    }
    // Handle NHANDLES is the kernel's: it owns a stack window and runs
    // every mutation, metered into its own stats.
    let mut handles: Vec<GuardHandle> = (0..=NHANDLES)
        .map(|_| GuardHandle::new(Arc::clone(&core)))
        .collect();
    handles[NHANDLES].set_kernel_stack(STACK_BASE, 0x2000);
    let mut naive = Naive::new();

    let check_on = |hd: &mut GuardHandle, slot: usize, a: u64, l: u64| -> bool {
        hd.set_current(Some((ModuleId(0), slots[slot])));
        let ok = hd.check_write(a, l).is_ok();
        hd.set_current(None);
        ok
    };

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Grant(pi, a, s) => {
                core.grant(slots[pi], RawCap::write(a, s));
                naive.grant(pi, a, s);
            }
            Op::Revoke(pi, a, s) => {
                handles[NHANDLES].revoke(slots[pi], RawCap::write(a, s));
                naive.revoke(pi, a, s);
            }
            Op::Transfer(a, s) => {
                handles[NHANDLES]
                    .transfer_cap(RawCap::write(a, s), None, None)
                    .expect("the kernel owns everything");
                for pi in 0..NSLOTS {
                    naive.revoke(pi, a, s);
                }
            }
            Op::RevokeOverlapping(a, s) => {
                handles[NHANDLES].revoke_write_overlapping_everywhere(a, s);
                for pi in 0..NSLOTS {
                    naive.revoke_overlapping(pi, a, s);
                }
            }
            Op::Check(h, pi, a, l) => {
                let want = naive.allows(pi, a, l);
                let got = check_on(&mut handles[h], pi, a, l);
                assert_eq!(
                    got, want,
                    "step {step}: handle {h} check(slot {pi}, {a:#x}, {l})"
                );
            }
        }
        core.check_index_invariants();
    }

    // Final sweep: every handle, every slot, at every op boundary — the
    // handles carry whatever cache state the sequence left behind, and
    // must still agree with the oracle.
    let mut probes = Vec::new();
    for op in ops {
        let (a, s) = match *op {
            Op::Grant(_, a, s) | Op::Revoke(_, a, s) => (a, s),
            Op::Check(_, _, a, s) | Op::Transfer(a, s) | Op::RevokeOverlapping(a, s) => (a, s),
        };
        let end = a.saturating_add(s.min(u64::MAX - a));
        probes.extend([a, a.wrapping_sub(8), end.wrapping_sub(1), end]);
    }
    for probe in probes {
        for pi in 0..NSLOTS {
            for (h, hd) in handles.iter_mut().enumerate() {
                let want = naive.allows(pi, probe, 8);
                let got = check_on(hd, pi, probe, 8);
                assert_eq!(got, want, "sweep: handle {h} slot {pi} at {probe:#x}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every handle (the mutating kernel handle included) agrees with
    /// the naive model under random interleavings of guard checks and
    /// core mutations.
    #[test]
    fn handles_agree_with_oracle(
        ops in proptest::collection::vec(arb_op(), 1..45),
    ) {
        check_sequence(&ops);
    }

    /// Same agreement where end arithmetic saturates at `Word::MAX`.
    #[test]
    fn handles_agree_near_max(
        ops in proptest::collection::vec(arb_op_near_max(), 1..35),
    ) {
        check_sequence(&ops);
    }

    /// Mixed universes: low-address and saturating ops interleaved, so
    /// cached intervals from one universe sit in handle caches while
    /// the other universe churns through other shards.
    #[test]
    fn handles_agree_mixed(
        low in proptest::collection::vec(arb_op(), 1..20),
        high in proptest::collection::vec(arb_op_near_max(), 1..20),
    ) {
        let mut ops = low;
        ops.extend(high);
        check_sequence(&ops);
    }
}
