//! Property tests for the reverse writer index (§5 scaling).
//!
//! Three implementations are driven through identical random
//! grant/revoke/transfer sequences and must agree on `writers_of` at
//! every probe:
//!
//! 1. the live `RuntimeCore` (whose writer index is maintained
//!    incrementally on every capability mutation, here driven through a
//!    [`GuardHandle`]),
//! 2. the retired global principal walk (`RuntimeCore::writers_of_linear` /
//!    [`LinearWriterIndex`]),
//! 3. a naive model: one `Vec<(addr, size)>` of granted ranges per
//!    principal, probed longhand with the documented saturating
//!    semantics.
//!
//! Sequences include exact revokes of still-overlapped grants (the
//! residual-coverage reinstatement path), `revoke_everywhere` transfers,
//! `kfree`-style overlapping revocation, and ranges whose end arithmetic
//! saturates near `Word::MAX`. The index's structural invariants
//! (sorted disjoint intervals inside their shard bounds, interned
//! non-empty refcounted sets, full within-shard coalescing) are
//! asserted after every operation.
//!
//! Every sequence additionally runs under **sharded** writer indexes —
//! proptest-chosen boundaries inside the op universe plus fixed
//! near-`MAX` boundaries — since shard-boundary splits must never change
//! a `writers_of` answer.

use proptest::prelude::*;

use lxfi_core::{GuardHandle, LinearWriterIndex, PrincipalId, RawCap};

const NPRINC: usize = 5;

#[derive(Debug, Clone)]
enum Op {
    Grant(usize, u64, u64),
    Revoke(usize, u64, u64),
    RevokeEverywhere(u64, u64),
    RevokeOverlappingEverywhere(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small address universe so grants collide and overlap often, with
    // sizes up to several pages so intervals split and merge.
    let princ = 0usize..NPRINC;
    let addr = 0x10_0000u64..0x10_2000;
    let size = prop_oneof![1u64..64, 64u64..2000, Just(8192u64)];
    prop_oneof![
        (princ.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (princ, addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::RevokeEverywhere(a, s)),
        (addr, size).prop_map(|(a, s)| Op::RevokeOverlappingEverywhere(a, s)),
    ]
}

/// Ops near the top of the address space, where end arithmetic saturates.
fn arb_op_near_max() -> impl Strategy<Value = Op> {
    let princ = 0usize..NPRINC;
    let addr = prop_oneof![
        u64::MAX - 0x1000..u64::MAX,
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::MAX - 8),
    ];
    let size = prop_oneof![1u64..64, Just(u64::MAX), Just(u64::MAX / 2), Just(4096u64)];
    prop_oneof![
        (princ.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (princ, addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::RevokeEverywhere(a, s)),
        (addr, size).prop_map(|(a, s)| Op::RevokeOverlappingEverywhere(a, s)),
    ]
}

/// The naive model: per-principal granted ranges, probed longhand.
#[derive(Default)]
struct Naive {
    ranges: Vec<Vec<(u64, u64)>>,
}

impl Naive {
    fn new(n: usize) -> Self {
        Naive {
            ranges: vec![Vec::new(); n],
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
    /// Principals with a grant overlapping any byte of the 8-byte slot.
    fn writers_of(&self, addr: u64) -> Vec<PrincipalId> {
        let end = addr.saturating_add(8);
        (0..self.ranges.len())
            .filter(|&p| self.ranges[p].iter().any(|&(x, y)| x < end && addr < x + y))
            .map(|p| PrincipalId(p as u32))
            .collect()
    }
}

/// A runtime with `NPRINC` instance principals to mutate.
fn runtime_with_principals() -> (GuardHandle, Vec<PrincipalId>) {
    let rt: GuardHandle = GuardHandle::new(Default::default());
    let m = rt.register_module("pt");
    let princs: Vec<PrincipalId> = (0..NPRINC)
        .map(|i| rt.principal_for_name(m, 0x9000 + i as u64 * 8))
        .collect();
    (rt, princs)
}

/// Probe addresses worth checking after an op sequence: every op
/// boundary and its neighbors (where splits and saturation happen).
fn probe_points(ops: &[Op]) -> Vec<u64> {
    let mut probes = Vec::new();
    for op in ops {
        let (a, s) = match *op {
            Op::Grant(_, a, s)
            | Op::Revoke(_, a, s)
            | Op::RevokeEverywhere(a, s)
            | Op::RevokeOverlappingEverywhere(a, s) => (a, s),
        };
        let end = a.saturating_add(s.min(u64::MAX - a));
        for probe in [
            a,
            a.wrapping_sub(8),
            a.saturating_add(1),
            end.wrapping_sub(1),
            end.wrapping_sub(9),
            end,
        ] {
            probes.push(probe);
        }
    }
    probes
}

/// Drives the runtime (reverse index), the linear baseline, and the
/// naive model through one sequence, checking agreement at every step.
fn check_sequence(ops: &[Op]) {
    check_sequence_sharded(ops, Vec::new());
}

/// Like [`check_sequence`], but the runtime's writer index is sharded at
/// the given boundaries first.
fn check_sequence_sharded(ops: &[Op], boundaries: Vec<u64>) {
    let (mut rt, princs) = runtime_with_principals();
    rt.set_shard_boundaries(boundaries);
    let mut lin = LinearWriterIndex::new();
    let mut naive = Naive::new(NPRINC);
    // The linear baseline is indexed by raw PrincipalId; pre-size it so
    // writers_of compares over the same principal universe.
    for &p in &princs {
        lin.grant(p, 0, 0); // no-op grant, allocates the slot
    }

    for op in ops {
        match *op {
            Op::Grant(pi, a, s) => {
                rt.grant(princs[pi], RawCap::write(a, s));
                lin.grant(princs[pi], a, s);
                naive.grant(pi, a, s);
            }
            Op::Revoke(pi, a, s) => {
                rt.revoke(princs[pi], RawCap::write(a, s));
                lin.revoke(princs[pi], a, s);
                naive.revoke(pi, a, s);
            }
            Op::RevokeEverywhere(a, s) => {
                rt.revoke_everywhere(RawCap::write(a, s));
                for (pi, &p) in princs.iter().enumerate() {
                    lin.revoke(p, a, s);
                    naive.revoke(pi, a, s);
                }
            }
            Op::RevokeOverlappingEverywhere(a, s) => {
                rt.revoke_write_overlapping_everywhere(a, s);
                for (pi, &p) in princs.iter().enumerate() {
                    lin.revoke_overlapping(p, a, s);
                    naive.revoke_overlapping(pi, a, s);
                }
            }
        }
        rt.check_index_invariants();
    }

    // The instance principals occupy ids 2.. (after shared + global);
    // translate the naive model's dense indices for comparison.
    let id_of = |pi: usize| princs[pi];
    for probe in probe_points(ops) {
        let expect: Vec<PrincipalId> = naive
            .writers_of(probe)
            .iter()
            .map(|p| id_of(p.0 as usize))
            .collect();
        let got = rt.writers_of(probe);
        assert_eq!(got, expect, "index writers_of({probe:#x})");
        let linear_rt = rt.writers_of_linear(probe);
        assert_eq!(linear_rt, expect, "runtime linear walk ({probe:#x})");
        let linear = lin.writers_of(probe, 8);
        assert_eq!(linear, expect, "LinearWriterIndex ({probe:#x})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Index, linear walk, and naive model agree under random traffic.
    #[test]
    fn writer_index_matches_naive_walk(ops in proptest::collection::vec(arb_op(), 1..40)) {
        check_sequence(&ops);
    }

    /// Same agreement where end arithmetic saturates at `Word::MAX`.
    #[test]
    fn writer_index_matches_near_max(ops in proptest::collection::vec(arb_op_near_max(), 1..30)) {
        check_sequence(&ops);
    }

    /// Mixed universes: low-address and saturating ops interleaved.
    #[test]
    fn writer_index_matches_mixed(
        low in proptest::collection::vec(arb_op(), 1..20),
        high in proptest::collection::vec(arb_op_near_max(), 1..20),
    ) {
        let mut ops = low;
        ops.extend(high);
        check_sequence(&ops);
    }

    /// Sharded at proptest-chosen boundaries inside (and around) the op
    /// universe: boundary splits never change an answer.
    #[test]
    fn writer_index_matches_sharded(
        ops in proptest::collection::vec(arb_op(), 1..40),
        boundaries in proptest::collection::vec(0x10_0000u64..0x10_2100, 1..5),
    ) {
        check_sequence_sharded(&ops, boundaries);
    }

    /// Sharded agreement where end arithmetic saturates: boundaries in
    /// the last pages of the address space, including one one-byte-short
    /// of `Word::MAX`.
    #[test]
    fn writer_index_matches_sharded_near_max(
        ops in proptest::collection::vec(arb_op_near_max(), 1..30),
    ) {
        check_sequence_sharded(
            &ops,
            vec![u64::MAX - 0x1100, u64::MAX - 0x800, u64::MAX - 0x100, u64::MAX - 1],
        );
    }

    /// Mixed universes over region-style shards (one boundary between
    /// the universes, several inside each).
    #[test]
    fn writer_index_matches_sharded_mixed(
        low in proptest::collection::vec(arb_op(), 1..20),
        high in proptest::collection::vec(arb_op_near_max(), 1..20),
    ) {
        let mut ops = low;
        ops.extend(high);
        check_sequence_sharded(
            &ops,
            vec![0x10_0800, 0x10_1800, 0x20_0000, u64::MAX - 0x900],
        );
    }
}
