//! Property tests for the reverse writer index (§5 scaling), the
//! runtime's only WRITE capability table.
//!
//! The live `RuntimeCore` (driven through a [`GuardHandle`]) and a naive
//! model — one `Vec<(addr, size)>` of granted ranges per principal,
//! probed longhand with the documented saturating semantics — run
//! identical random grant / revoke / transfer / kfree sequences over two
//! modules' shared, global and instance principals, and must agree on:
//!
//! - `writers_of` and each principal's own `write_overlaps`;
//! - `owns(WRITE)` and `write_covering` under the §3.1 hierarchy (an
//!   instance sees its own and its shared principal's grants, a global
//!   principal every grant of its module), where a returned interval must
//!   be one grant in scope that covers the probe;
//! - the result of every exact revoke, whether each transfer took the
//!   single-writer fast path, and exactly which write epochs each
//!   revoke, transfer and sweep bumped;
//! - the checked transfer: a transfer whose source (the kernel, an
//!   arbitrary principal, or one whose scope covers the range) does not
//!   own the range under the §3.1 hierarchy fails with `MissingWrite`
//!   naming it and changes no grant and no epoch;
//! - after every operation, each principal's grant count.
//!
//! (The paper's standalone walk structure is checked against the same
//! kind of model in `lxfi-bench`.)
//!
//! Sequences include exact revokes of grants another grant of the same
//! principal still overlaps, transfers to nobody and to a current
//! holder, `kfree`-style overlapping revocation, and ranges whose end
//! arithmetic saturates near `Word::MAX`. After every operation the
//! index must be well-formed (`RuntimeCore::check_index_invariants`).
//!
//! Every sequence additionally runs under **sharded** cores built with
//! `RuntimeCore::with_shard_boundaries`, the shape the kernel runs —
//! proptest-chosen boundaries inside the op universe, a fixed list that
//! is unsorted, duplicated, zero and not page-aligned, and fixed
//! near-`MAX` boundaries — so grants straddle shard boundaries, and
//! boundary splits must never change an answer.

use std::sync::Arc;

use proptest::prelude::*;

use lxfi_core::{GuardHandle, PrincipalId, PrincipalKind, RawCap, RuntimeCore, Violation};

/// Two modules' shared, global and two instance principals each.
const NPRINC: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Grant(usize, u64, u64),
    Revoke(usize, u64, u64),
    /// Range, source, destination.
    Transfer(u64, u64, Src, Option<usize>),
    RevokeOverlappingEverywhere(u64, u64),
}

/// A transfer's source.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// The core kernel, which owns everything.
    Kernel,
    /// Principal `i`, covering the range or not.
    Any(usize),
    /// The `i`-th (mod their number) principal whose scope covers the
    /// range when the transfer runs; the kernel if none does.
    Covering(usize),
}

fn arb_src() -> impl Strategy<Value = Src> {
    prop_oneof![
        Just(Src::Kernel),
        (0usize..NPRINC).prop_map(Src::Any),
        (0usize..NPRINC).prop_map(Src::Covering),
    ]
}

/// Ops over `addr` and `size`, with principals drawn from all eight.
fn ops_over(
    addr: impl Strategy<Value = u64> + Clone + 'static,
    size: impl Strategy<Value = u64> + Clone + 'static,
) -> impl Strategy<Value = Op> {
    let princ = 0usize..NPRINC;
    let dst = proptest::option::of(0usize..NPRINC);
    prop_oneof![
        (princ.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (princ, addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone(), arb_src(), dst)
            .prop_map(|(a, s, src, d)| Op::Transfer(a, s, src, d)),
        (addr, size).prop_map(|(a, s)| Op::RevokeOverlappingEverywhere(a, s)),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small address universe so grants collide and overlap often, with
    // sizes up to several pages so intervals straddle shard boundaries.
    // Half the ops use aligned slots and a few sizes, so exact revokes
    // and transfers hit held grants.
    let addr = prop_oneof![
        0x10_0000u64..0x10_2000,
        (0u64..0x80).prop_map(|k| 0x10_0000 + k * 0x40)
    ];
    let size = prop_oneof![
        1u64..64,
        64u64..2000,
        Just(8192u64),
        Just(0x40),
        Just(0x100)
    ];
    ops_over(addr, size)
}

/// Ops near the top of the address space, where end arithmetic saturates.
fn arb_op_near_max() -> impl Strategy<Value = Op> {
    let addr = prop_oneof![
        u64::MAX - 0x1000..u64::MAX,
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::MAX - 8),
    ];
    let size = prop_oneof![1u64..64, Just(u64::MAX), Just(u64::MAX / 2), Just(4096u64)];
    ops_over(addr, size)
}

/// The naive model: per-principal granted ranges, probed longhand, and
/// each principal's module and kind.
struct Model {
    ranges: Vec<Vec<(u64, u64)>>,
    /// `(module, kind)` per principal index.
    roles: Vec<(usize, PrincipalKind)>,
}

impl Model {
    fn clamp(a: u64, s: u64) -> u64 {
        s.min(u64::MAX - a)
    }
    fn grant(&mut self, p: usize, a: u64, s: u64) {
        let s = Self::clamp(a, s);
        if s > 0 && !self.ranges[p].contains(&(a, s)) {
            self.ranges[p].push((a, s));
        }
    }
    /// Exact revoke; whether `p` held the grant.
    fn revoke(&mut self, p: usize, a: u64, s: u64) -> bool {
        let s = Self::clamp(a, s);
        let before = self.ranges[p].len();
        self.ranges[p].retain(|&(x, y)| !(x == a && y == s && s > 0));
        self.ranges[p].len() != before
    }
    /// Whether `p` lost any grant.
    fn revoke_overlapping(&mut self, p: usize, a: u64, s: u64) -> bool {
        let before = self.ranges[p].len();
        if s > 0 {
            let end = a.saturating_add(s);
            self.ranges[p].retain(|&(x, y)| !(x < end && a < x + y));
        }
        self.ranges[p].len() != before
    }
    fn overlaps(&self, p: usize, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len);
        len > 0 && self.ranges[p].iter().any(|&(x, y)| x < end && addr < x + y)
    }
    /// Principal indices with a grant overlapping any byte of the slot.
    fn writers_of(&self, addr: u64) -> Vec<usize> {
        (0..NPRINC).filter(|&p| self.overlaps(p, addr, 8)).collect()
    }
    /// Whose grants `p`'s WRITE checks see (§3.1).
    fn scope(&self, p: usize) -> Vec<usize> {
        let (m, kind) = self.roles[p];
        let shared = (0..NPRINC).find(|&q| self.roles[q] == (m, PrincipalKind::Shared));
        match kind {
            PrincipalKind::Shared => vec![p],
            PrincipalKind::Instance => vec![p, shared.expect("module has a shared principal")],
            PrincipalKind::Global => (0..NPRINC).filter(|&q| self.roles[q].0 == m).collect(),
        }
    }
    /// Grants in `p`'s scope that cover all of `[addr, addr+len)`.
    fn covering(&self, p: usize, addr: u64, len: u64) -> Vec<(u64, u64)> {
        let Some(end) = addr.checked_add(len).filter(|_| len > 0) else {
            return Vec::new();
        };
        self.scope(p)
            .into_iter()
            .flat_map(|q| self.ranges[q].iter().copied())
            .filter(|&(x, y)| x <= addr && end <= x + y)
            .map(|(x, y)| (x, x + y))
            .collect()
    }
    /// Whether `p` owns WRITE over `[addr, addr+len)` (an empty range is
    /// owned by everyone).
    fn owns(&self, p: usize, addr: u64, len: u64) -> bool {
        len == 0 || !self.covering(p, addr, len).is_empty()
    }
    /// The principal index a transfer comes from (`None`: the kernel).
    fn source(&self, src: Src, addr: u64, len: u64) -> Option<usize> {
        match src {
            Src::Kernel => None,
            Src::Any(i) => Some(i),
            Src::Covering(i) => {
                let owners: Vec<usize> = (0..NPRINC).filter(|&p| self.owns(p, addr, len)).collect();
                (!owners.is_empty()).then(|| owners[i % owners.len()])
            }
        }
    }
    /// The violation a transfer from `i` lacking the range gets.
    fn missing(&self, princs: &[PrincipalId], i: usize, addr: u64, len: u64) -> Violation {
        Violation::MissingWrite {
            principal: princs[i],
            addr,
            len,
        }
    }
    /// Epoch bumps per principal when `lost` lose WRITE coverage.
    fn bumps(&self, lost: &[usize]) -> Vec<u64> {
        let mut bumps = vec![0; NPRINC];
        for &h in lost {
            // `h` and everyone whose coverage includes `h`'s.
            for (q, bump) in bumps.iter_mut().enumerate() {
                *bump += u64::from(self.scope(q).contains(&h));
            }
        }
        bumps
    }
}

/// A runtime sharded at `boundaries` with two modules' principals, and
/// the model describing them.
fn runtime_with_principals(boundaries: Vec<u64>) -> (GuardHandle, Vec<PrincipalId>, Model) {
    let rt: GuardHandle =
        GuardHandle::new(Arc::new(RuntimeCore::with_shard_boundaries(boundaries)));
    let mut princs = Vec::new();
    let mut roles = Vec::new();
    for (mi, name) in ["pt0", "pt1"].into_iter().enumerate() {
        let m = rt.register_module(name);
        princs.extend([rt.shared_principal(m), rt.global_principal(m)]);
        roles.extend([(mi, PrincipalKind::Shared), (mi, PrincipalKind::Global)]);
        for i in 0..2 {
            princs.push(rt.principal_for_name(m, 0x9000 + i * 8));
            roles.push((mi, PrincipalKind::Instance));
        }
    }
    let model = Model {
        ranges: vec![Vec::new(); NPRINC],
        roles,
    };
    (rt, princs, model)
}

/// Probe addresses worth checking after an op sequence: every op
/// boundary and its neighbors (where splits and saturation happen).
fn probe_points(ops: &[Op]) -> Vec<u64> {
    let mut probes = Vec::new();
    for op in ops {
        let (a, s) = match *op {
            Op::Grant(_, a, s)
            | Op::Revoke(_, a, s)
            | Op::Transfer(a, s, _, _)
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

/// Drives the runtime (reverse index) and the naive model through one
/// sequence, checking them at every probe.
fn check_sequence(ops: &[Op]) {
    check_sequence_sharded(ops, Vec::new());
}

/// Like [`check_sequence`], but the runtime is built sharded at the
/// given boundaries.
fn check_sequence_sharded(ops: &[Op], boundaries: Vec<u64>) {
    let (mut rt, princs, mut model) = runtime_with_principals(boundaries);
    let epochs =
        |rt: &GuardHandle| -> Vec<u64> { princs.iter().map(|&p| rt.write_epoch(p)).collect() };

    for op in ops {
        let before = epochs(&rt);
        let lost: Vec<usize> = match *op {
            Op::Grant(pi, a, s) => {
                rt.grant(princs[pi], RawCap::write(a, s));
                model.grant(pi, a, s);
                Vec::new()
            }
            Op::Revoke(pi, a, s) => {
                let held = model.revoke(pi, a, s);
                assert_eq!(rt.revoke(princs[pi], RawCap::write(a, s)), held, "{op:?}");
                if held {
                    vec![pi]
                } else {
                    Vec::new()
                }
            }
            Op::Transfer(a, s, src, dst) => {
                let src = model.source(src, a, s);
                let cap = RawCap::write(a, s);
                let (fast, slow) = (rt.stats.transfer_fast, rt.stats.transfer_slow);
                let r = rt.transfer_cap(cap, src.map(|i| princs[i]), dst.map(|d| princs[d]));
                if let Some(i) = src.filter(|&i| !model.owns(i, a, s)) {
                    assert_eq!(r, Err(model.missing(&princs, i, a, s)), "{op:?}");
                    assert_eq!(rt.stats.transfer_fast, fast, "{op:?}");
                    assert_eq!(rt.stats.transfer_slow, slow, "{op:?}");
                    Vec::new()
                } else {
                    assert_eq!(r, Ok(()), "{op:?} from {src:?}");
                    let writers = (0..NPRINC).filter(|&p| model.overlaps(p, a, s)).count();
                    assert_eq!(
                        rt.stats.transfer_fast - fast,
                        u64::from(writers <= 1),
                        "{op:?}"
                    );
                    let lost = (0..NPRINC)
                        .filter(|&p| Some(p) != dst && model.revoke(p, a, s))
                        .collect();
                    if let Some(d) = dst {
                        model.grant(d, a, s);
                    }
                    lost
                }
            }
            Op::RevokeOverlappingEverywhere(a, s) => {
                rt.revoke_write_overlapping_everywhere(a, s);
                (0..NPRINC)
                    .filter(|&p| model.revoke_overlapping(p, a, s))
                    .collect()
            }
        };
        rt.check_index_invariants();
        let bumped: Vec<u64> = epochs(&rt)
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(bumped, model.bumps(&lost), "epoch bumps of {op:?}");
        for (pi, &p) in princs.iter().enumerate() {
            assert_eq!(
                rt.cap_count(p),
                model.ranges[pi].len(),
                "{pi}'s grants after {op:?}"
            );
        }
    }

    let id = |pi: usize| princs[pi];
    for probe in probe_points(ops) {
        let expect: Vec<PrincipalId> = model.writers_of(probe).into_iter().map(id).collect();
        assert_eq!(rt.writers_of(probe), expect, "writers_of({probe:#x})");
        for pi in 0..NPRINC {
            let p = id(pi);
            assert_eq!(
                rt.write_overlaps(p, probe, 8),
                model.overlaps(pi, probe, 8),
                "write_overlaps({pi}, {probe:#x})"
            );
            for len in [1, 8, 64] {
                let covers = model.covering(pi, probe, len);
                let cap = RawCap::write(probe, len);
                assert_eq!(rt.owns(p, cap), !covers.is_empty(), "owns({pi}, {cap:?})");
                match rt.write_covering(p, probe, len) {
                    Some(iv) => assert!(covers.contains(&iv), "covering({pi}, {cap:?}) {iv:x?}"),
                    None => assert!(covers.is_empty(), "covering({pi}, {cap:?}) missed"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Index and naive model agree under random traffic.
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
    /// universe, and at a fixed list the constructor must normalize
    /// (unsorted, duplicated, zero, not page-aligned): boundary splits
    /// never change an answer.
    #[test]
    fn writer_index_matches_sharded(
        ops in proptest::collection::vec(arb_op(), 1..40),
        boundaries in proptest::collection::vec(0x10_0000u64..0x10_2100, 1..5),
    ) {
        check_sequence_sharded(&ops, boundaries);
        check_sequence_sharded(&ops, vec![0x10_1234, 0, 0x10_0801, 0x10_1234, 0x10_0040]);
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
